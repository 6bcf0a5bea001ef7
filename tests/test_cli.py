"""Tests for the command-line interface."""
import argparse
import ast
import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import re
import select
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncstirling import cli, exact, identities, jets, noncentral
from ncstirling.cli import main
from ncstirling.exact import AlphaPoly
from ncstirling.identities import IdentityReport, StructuralCheck
from ncstirling.jets import ResidualReport
from ncstirling.noncentral import (
    NoncentralTriangle,
    build_by_recurrence,
    json_renderer,
    render_chunks,
    triangle_from_json,
    triangle_to_json,
)
from ncstirling.stirling import (
    StirlingTable,
    entry_value,
    evaluate_entry,
    last_scaled_row,
    stirling_expansion_oracle,
)


def run_cli(*argv):
    return main(list(argv))


def test_triangle_small_json(capsys):
    assert run_cli("triangle", "--n-max", "2", "--format", "json") == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["n_max"] == "2"
    entry = next(e for e in doc["entries"] if e["n"] == "2" and e["k"] == "1")
    assert entry["coeffs"] == ["-1", "-2"]


def test_triangle_order_zero(capsys):
    assert run_cli("triangle", "--n-max", "0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [{"n": "0", "k": "0", "coeffs": ["1"]}]


def test_triangle_constructions_byte_identical(capsys):
    run_cli("triangle", "--n-max", "4", "--construction", "recurrence")
    recurrence_out = capsys.readouterr().out
    run_cli("triangle", "--n-max", "4", "--construction", "explicit")
    explicit_out = capsys.readouterr().out
    assert recurrence_out == explicit_out


def test_triangle_json_round_trip_is_byte_identical(tmp_path):
    out_path = tmp_path / "triangle.json"
    assert run_cli("triangle", "--n-max", "6", "--out", str(out_path)) == 0
    text = out_path.read_text()
    assert triangle_to_json(triangle_from_json(text)) == text


def test_triangle_csv(capsys):
    assert run_cli("triangle", "--n-max", "2", "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,k,degree,coeffs"
    assert "2,1,1,-1 -2" in lines


# sha256 of `triangle` stdout, pinned before the triangle was stored as
# integer coefficient tuples; both constructions print the same bytes. N=160
# was pinned before the triangle was streamed, and is run by the recurrence
# only: the O(N^4) explicit construction is pinned up to N=114. At 113 and 114
# a command that owns its stdout writes the recurrence from two processes, the
# helper writing the last row at 113; test_turns checks those bytes against these.
GOLDEN_TRIANGLE = {
    ("0", "json"): "10f0c3c09454ac2b70eb06d78bf3db3a13fbd02019ba3f2e3e28b48ede507b1e",
    ("0", "csv"): "bb859280a641400e0774a185d9e91834beadf664c4327f704be62bcff53025e2",
    ("1", "json"): "caa5d6778ae131dedbc7e61c087afbbb4b044b6170825c66c1ca083a58af312d",
    ("1", "csv"): "0412d0288a221f9710a5cc986922a2d44378872ff15eaf086152217a3fe9f51e",
    ("20", "json"): "72108f1b879f4c70a917fbe47b7bded0ff7cf6c4a0853f0457fd3e1abd955280",
    ("20", "csv"): "140bd48a856fd0afb61eeb44be07cf3c752bb57a95952b67f9657ea74f6d6336",
    ("64", "json"): "7c6ee43a71c5678cf2e1a6cbcc4e93caff735c72b52df5db98f0b18d10121a8d",
    ("64", "csv"): "7c26b2bb49948dc67e485a6aec831d1b1bbb925aa9cca20cccfbcd4a54ed91e6",
    ("113", "json"): "8c7485973aec1aba5b247f1909df82fbea3a94cec2118928484e699c198e5425",
    ("113", "csv"): "9bc074249c868dd6dd9cbdd5603cf0cb8a543a5235dc733655529af3a814e943",
    ("114", "json"): "70d1223c28fde9688959ed94a14b0f316b67c221a0a299e8738b63c7a72320bf",
    ("114", "csv"): "a84665a104e203bfc4c15ab92e6a7f8db03fa84c39831c450587c37c91f9a882",
    ("160", "json"): "99f92955543e778545215a6ad8d5209907258edd173e48d0d166780b3892cfc1",
    ("160", "csv"): "8b85beb75349cddda609032bb2bd5217f2dd36abcdb17665463ffcd8e8507f43",
}
GOLDEN_TRIANGLE_RUNS = [(n_max, fmt, construction)
                        for construction in ("recurrence", "explicit")
                        for n_max, fmt in sorted(GOLDEN_TRIANGLE)
                        if construction == "recurrence" or n_max != "160"]


@pytest.mark.parametrize("n_max, fmt, construction", GOLDEN_TRIANGLE_RUNS)
def test_triangle_matches_golden_digests(capsys, construction, n_max, fmt):
    assert run_cli("triangle", "--n-max", n_max, "--construction", construction,
                   "--format", fmt) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_TRIANGLE[n_max, fmt]


def _src_env():
    """The environment with the package's source directory in front of PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _read_stdout(proc, size):
    """size bytes of proc's stdout (fewer at its end), read under select: a process that has
    not written them within 120 s is killed, so that the test fails where a read would hang."""
    deadline, data = time.monotonic() + 120, b""
    while len(data) < size:
        if not select.select([proc.stdout], [], [], max(0, deadline - time.monotonic()))[0]:
            proc.kill()
            pytest.fail("the command wrote %d of %d bytes in 120 s" % (len(data), size))
        if not (chunk := os.read(proc.stdout.fileno(), size - len(data))):
            break
        data += chunk
    return data


def _stderr_at_end(proc, seconds=120):
    """proc's stderr once it ends; a process still running after `seconds` is killed, so that
    the test fails where leaving its Popen block would wait for it forever."""
    try:
        return proc.communicate(timeout=seconds)[1]
    except subprocess.TimeoutExpired:
        proc.kill()
        pytest.fail("the command still ran after %d s" % seconds)


def _refuse_rows(monkeypatch):
    def refuse(n_max):  # a generator, like the real ones: it fails when a row is asked for
        raise AssertionError("a triangle row was built")
        yield

    monkeypatch.setattr(cli, "recurrence_rows", refuse)
    monkeypatch.setattr(cli, "explicit_rows", refuse)


def test_triangle_bound_follows_from_the_row_budget():
    def row_mib(n):  # about n^2/2 coefficients of log2((n+1)!) bits each
        return n * n / 2 * math.lgamma(n + 2) / math.log(2) / 8 / 2 ** 20

    bound = cli.TRIANGLE_N_MAX
    assert row_mib(bound) <= 64 < row_mib(bound + 1)
    # (bound+1)! has fewer digits than Python's default int-to-str limit
    assert math.lgamma(bound + 2) / math.log(10) < 4300
    assert bound > max([256] + [int(n_max) for n_max, _ in GOLDEN_TRIANGLE])


def test_triangle_coefficients_of_row_n_sum_to_n_plus_one_factorial():
    # (-1)^n prod_j (-x - alpha - j) = prod_j (x + alpha + j), whose coefficients
    # add up to (n+1)!, so no coefficient of row n exceeds (n+1)!
    for n, row in enumerate(cli.recurrence_rows(30)):
        assert sum(abs(c) for coeffs in row for c in coeffs) == math.factorial(n + 1)


@pytest.mark.parametrize("n_max", [str(cli.TRIANGLE_N_MAX + 1), "10000000000", "-1"])
@pytest.mark.parametrize("construction", ["recurrence", "explicit"])
def test_triangle_outside_the_bound_exits_2_before_building(capsys, monkeypatch, n_max,
                                                            construction):
    _refuse_rows(monkeypatch)
    assert run_cli("triangle", "--n-max", n_max, "--construction", construction) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ncstirling: triangle: ") and err.count("\n") == 1


def test_triangle_at_the_bound_is_accepted(capsys, monkeypatch):
    # row 0 alone: the head comes with it, and the tail would come with row TRIANGLE_N_MAX
    calls = []
    monkeypatch.setattr(cli, "recurrence_rows",
                        lambda n_max: calls.append(n_max) or iter([((1,),)]))
    assert run_cli("triangle", "--n-max", str(cli.TRIANGLE_N_MAX)) == 0
    assert calls == [cli.TRIANGLE_N_MAX]
    assert capsys.readouterr().out == ('{"n_max":"%d","entries":[{"n":"0","k":"0","coeffs":["1"]}'
                                       % cli.TRIANGLE_N_MAX)


@contextlib.contextmanager
def _int_max_str_digits(limit):
    """Python's int-to-str digit limit set to `limit` inside the block, and restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this Python has no int-to-str digit limit")


@NEEDS_DIGIT_LIMIT
def test_triangle_past_the_digit_limit_exits_2_before_building(capsys, monkeypatch, tmp_path):
    # (311)! has 642 digits: row 310 may hold a coefficient that str() refuses at 640
    _refuse_rows(monkeypatch)
    out = tmp_path / "triangle.json"
    with _int_max_str_digits(640):
        assert run_cli("triangle", "--n-max", "310") == 2
        assert run_cli("triangle", "--n-max", "310", "--format", "csv", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    line = ("ncstirling: triangle: --n-max 310 may write coefficients longer than the int-to-str "
            "limit of 640 digits (PYTHONINTMAXSTRDIGITS)\n")
    assert captured.err == line * 2


@NEEDS_DIGIT_LIMIT
def test_triangle_under_the_digit_limit_is_accepted(capsys, monkeypatch):
    # (310)! has 640 digits, so no coefficient up to row 309 has more
    calls = []
    monkeypatch.setattr(cli, "recurrence_rows",
                        lambda n_max: calls.append(n_max) or iter([((1,),)]))
    with _int_max_str_digits(640):
        assert run_cli("triangle", "--n-max", "309") == 0
    assert calls == [309]
    assert capsys.readouterr().out == '{"n_max":"309","entries":[{"n":"0","k":"0","coeffs":["1"]}'


@NEEDS_DIGIT_LIMIT
def test_triangle_refuses_exactly_where_n_plus_one_factorial_passes_the_digit_limit(monkeypatch):
    # cmd_triangle itself, stopped where an accepted size would open its output
    class Accepted(Exception):
        pass

    def accepted(path):
        raise Accepted

    monkeypatch.setattr(cli, "_open_out", accepted)
    with _int_max_str_digits(0):
        digits = [len(str(math.factorial(n + 1))) for n in range(cli.TRIANGLE_N_MAX + 1)]
    refused = []
    for limit in range(640, 1201):
        with _int_max_str_digits(limit):
            for n_max, n_digits in enumerate(digits):
                args = argparse.Namespace(n_max=n_max, construction="recurrence", format="json",
                                          out=None)
                try:
                    cli.cmd_triangle(args)
                except Accepted:
                    decision = False
                except cli.Refusal as exc:
                    assert exc.args[0] == 2, exc
                    decision = True
                assert decision == (n_digits > limit), (n_max, limit)
                refused.append(decision)
    assert any(refused) and not all(refused)


def test_triangle_unwritable_out_exits_1_before_building(capsys, monkeypatch, tmp_path):
    _refuse_rows(monkeypatch)
    with pytest.raises(OSError) as excinfo:  # the error a directory gives as --out
        open(tmp_path, "w")
    assert run_cli("triangle", "--n-max", "8", "--out", str(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ncstirling: triangle: cannot write %s: %s\n" % (tmp_path, excinfo.value)


def _peak_rss_kib(argv):
    """The peak RSS, in KiB, of `python -m ncstirling *argv` with its stdout discarded. The
    command runs under a small intermediate process that reads RUSAGE_CHILDREN, its child's
    alone: a child spawned from pytest itself would report pytest's own high-water mark."""
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is in KiB on Linux")
    code = ("import resource, subprocess, sys; "
            "subprocess.run([sys.executable, '-m', 'ncstirling', *sys.argv[1:]],"
            " stdout=subprocess.DEVNULL, check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_triangle_streams_in_bounded_memory():
    # Streamed, N=160 takes about 24 MiB; holding every row took 85 MiB, and every row plus
    # its JSON strings 314 MiB.
    assert _peak_rss_kib(["triangle", "--n-max", "160"]) < 50 * 1024


def test_verify_streams_in_bounded_memory(tmp_path):
    # verify reads its rows as they are made and writes its report as it goes, one record per
    # chunk: at N=128 with --with-oracle and --out it peaks near 34 MiB, where holding both
    # triangles and the whole report took 136 MiB, keeping every row whole 67 MiB, and joining
    # the structural records ahead of the first write 38 MiB. The report goes to a fresh path.
    assert _peak_rss_kib(["verify", "--n-max", "128", "--with-oracle", "--seed", "1",
                          "--out", str(tmp_path / "memory128.json")]) <= 64 * 1024


@pytest.mark.parametrize("n_max, seconds", [(100, 120), (cli.TRIANGLE_N_MAX, 60)],
                         ids=["100", "bound"])
def test_triangle_reader_closing_the_pipe_early(n_max, seconds):
    # a reader that leaves early ends the writer thread too, even at the largest --n-max
    argv = [sys.executable, "-m", "ncstirling", "triangle", "--n-max", str(n_max)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_src_env()) as proc:
        assert _read_stdout(proc, 5) == b'{"n_m'
        proc.stdout.close()
        err = _stderr_at_end(proc, seconds)
    assert proc.returncode == 1
    assert err.decode() == "ncstirling: triangle: stdout closed before the end\n"


def test_triangle_write_error_stops_the_writer_and_the_rows(capsys, monkeypatch, tmp_path):
    # A stdout whose first write fails: the error reaches main as one line and status 1,
    # the writer thread is gone, and the rows stop within two pieces of the failure.
    yielded, real_rows = [], cli.recurrence_rows

    def counted_rows(n_max):
        for row in real_rows(n_max):
            yielded.append(row)
            yield row

    class FullStream(io.TextIOBase):
        def __init__(self, fd):
            self.fd, self.writers = fd, []

        def fileno(self):  # main points this descriptor at os.devnull
            return self.fd

        def write(self, text):
            self.writers.append(threading.current_thread())
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    before = set(threading.enumerate())
    monkeypatch.setattr(cli, "recurrence_rows", counted_rows)
    with open(tmp_path / "stdout", "w") as sink:
        stream = FullStream(sink.fileno())
        monkeypatch.setattr(sys, "stdout", stream)
        status = run_cli("triangle", "--n-max", "160")
    assert status == 1
    assert capsys.readouterr().err == ("ncstirling: triangle: cannot write stdout: "
                                       "[Errno 28] No space left on device\n")
    assert len(stream.writers) == 1 and stream.writers[0] is not threading.main_thread()
    assert set(threading.enumerate()) == before
    # every row but the last one asked for was rendered whole, into at most two pieces
    chunks = [len(chunk) for chunk in render_chunks(json_renderer(160), yielded[:-1])]
    assert 0 < sum(chunks) <= 2 * (noncentral.PIECE_SIZE + max(chunks))


class _FullTextStream(io.TextIOBase):
    """A text stdout with no descriptor whose every write fails as a full device does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_write_error_without_a_descriptor_is_one_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullTextStream())
    assert run_cli("triangle", "--n-max", "3") == 1
    assert capsys.readouterr().err == ("ncstirling: triangle: cannot write stdout: "
                                       "[Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_stdout_write_error_leaves_no_descriptor_open(capsys, monkeypatch, tmp_path):
    class FullStream(_FullTextStream):
        def fileno(self):  # main points this descriptor at os.devnull
            return sink.fileno()

    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", FullStream())
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            assert run_cli("triangle", "--n-max", "3") == 1
        assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("cannot write stdout") == 3


def test_triangle_pieces_stay_whole_and_in_order_under_frequent_thread_switches(capsys,
                                                                               monkeypatch):
    # one piece per entry, and the interpreter switching threads every microsecond
    monkeypatch.setattr(noncentral, "PIECE_SIZE", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_cli("triangle", "--n-max", "30") == 0
        assert sys.getswitchinterval() == 1e-6  # the writer leaves the interval alone
    finally:
        sys.setswitchinterval(interval)
    assert capsys.readouterr().out == triangle_to_json(build_by_recurrence(30))


def test_eval_hand_values(capsys):
    assert run_cli("eval", "--n", "2", "--k", "1", "--alpha", "1") == 0
    assert capsys.readouterr().out.strip() == "-3"

    assert run_cli("eval", "--n", "5", "--k", "5", "--alpha", "7/3") == 0
    assert capsys.readouterr().out.strip() == "1"

    # (-a)(-a-1)(-a-2) vanishes at alpha = -1 and is 6 at alpha = -3
    assert run_cli("eval", "--n", "3", "--k", "0", "--alpha", "-1") == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_cli("eval", "--n", "3", "--k", "0", "--alpha", "-3") == 0
    assert capsys.readouterr().out.strip() == "6"


def test_eval_normalizes_rational_input(capsys):
    assert run_cli("eval", "--n", "2", "--k", "1", "--alpha", "6/4") == 0
    assert capsys.readouterr().out.strip() == "-4"


def test_eval_with_expansion(capsys):
    assert run_cli("eval", "--n", "1", "--k", "1", "--alpha", "0",
                   "--beta", "1", "--x0", "2") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "1"
    assert lines[1].startswith("expansion n=1")
    assert "0.5" in lines[1]


def test_eval_beta_rounds_only_the_terms_its_sum_keeps(capsys):
    # at beta = 0 the sum keeps s(172, 0, alpha) alone, about 1.24e300, where s(172, 1, alpha)
    # is past the float range: an eval that rounded the whole row would fail
    alpha = Fraction(1, 999999999)
    q = alpha.denominator
    row = last_scaled_row(172, 1, q, 172)
    assert 1e300 < row[0] / q ** 172 < 1.3e300
    with pytest.raises(OverflowError):
        row[1] / q ** 171
    assert run_cli("eval", "--n", "172", "--k", "0", "--alpha", "1/999999999",
                   "--beta", "0", "--x0", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1] == ("expansion n=172 alpha=1/999999999 beta=0.0 x0=2.0 -> %r"
                        % jets.evaluate_expansion(2.0, alpha, 0.0, row))


@pytest.mark.parametrize("alpha", ["7/3", "-5/2", "41/19", "-48", "13717421/109739369"])
def test_eval_hands_the_expansion_the_row_last_scaled_row_returns(capsys, monkeypatch, alpha):
    # eval's --beta passes the integer row c(n, i) = q^(n-i) s(n, i, alpha) that it printed
    # entry k from to evaluate_expansion as it is: the very list, not a copy or a view of it
    returned, handed = [], []

    def returning(n, p, q, top):
        returned.append(last_scaled_row(n, p, q, top))
        return returned[-1]

    def recording(x0, point_alpha, beta, row):
        handed.append((x0, point_alpha, beta, row))
        return 0.0

    monkeypatch.setattr(cli, "last_scaled_row", returning)
    monkeypatch.setattr(cli, "evaluate_expansion", recording)
    for n in (0, 40, 150):
        assert run_cli("eval", "--n", str(n), "--k", "0", "--alpha=" + alpha,
                       "--beta", "2.5", "--x0", "2") == 0
        (row,), ((x0, point_alpha, beta, handed_row),) = returned, handed
        assert handed_row is row and len(row) == n + 1
        assert (x0, point_alpha, beta) == (2.0, Fraction(alpha), 2.5)
        assert capsys.readouterr().out.endswith(" -> 0.0\n")
        returned.clear()
        handed.clear()


def test_eval_alpha_accepts_a_separate_negative_fraction(capsys):
    assert run_cli("eval", "--n", "6", "--k", "2", "--alpha", "-5/2") == 0
    separate = capsys.readouterr().out
    assert run_cli("eval", "--n", "6", "--k", "2", "--alpha=-5/2") == 0
    assert capsys.readouterr().out == separate
    assert separate == "259/16\n"


@pytest.mark.parametrize("beta", ["-1e3", "-1E-1", "-1_0", "-2.5"])
def test_eval_beta_accepts_a_separate_negative_float(capsys, beta):
    # argparse's negative-number pattern, which "-2.5" matches, has no exponent: without the
    # rewrite "-1e3" would be read as an option
    argv = ("eval", "--n", "3", "--k", "1", "--alpha", "1")
    assert run_cli(*argv, "--beta", beta, "--x0", "2") == 0
    separate = capsys.readouterr().out
    assert run_cli(*argv, "--beta=" + beta, "--x0", "2") == 0
    assert capsys.readouterr().out == separate
    assert " beta=%r " % float(beta) in separate


def test_eval_beta_takes_only_a_float_as_a_separate_value(capsys):
    argv = ("eval", "--n", "3", "--k", "1", "--alpha", "1", "--beta")
    assert run_cli(*argv, "-inf", "--x0", "2") == 2
    assert capsys.readouterr() == ("", "ncstirling: eval: --beta and --x0 must be finite\n")
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv, "--x0", "2")
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("before, option, value, after, status, out, err", [
    (("eval", "--n", "6", "--k", "2"), "--alpha", "-5/2", (), 0, "259/16\n", ""),
    (("eval", "--n", "3", "--k", "1", "--alpha", "1"), "--beta", "-1e3", ("--x0", "2"), 0,
     None, ""),
    (("eval", "--n", "3", "--k", "1", "--alpha", "1", "--beta", "2"), "--x0", "-1e3", (), 2,
     "", "ncstirling: eval: --x0 must exceed 1\n"),
    (("verify", "--n-max", "2"), "--corrupt", "-1,0", (), 2,
     "", "ncstirling: verify: bad --corrupt argument '-1,0': n=-1 outside [0, 2]\n"),
], ids=["alpha", "beta", "x0", "corrupt"])
def test_a_signed_option_value_reads_as_one_attached_by_equals(capsys, before, option, value,
                                                                after, status, out, err):
    # a separate value that starts with one "-" is the option's value, judged by its type or its
    # command, not argparse's "expected one argument"
    assert run_cli(*before, option, value, *after) == status
    separate = capsys.readouterr()
    assert run_cli(*before, option + "=" + value, *after) == status
    assert capsys.readouterr() == separate
    assert separate.err == err
    assert out is None or separate.out == out


def test_eval_and_verify_share_the_expansion_sum(capsys, monkeypatch):
    # one perturbed weight, (beta)_0, must fail the grid that verify checks and change the
    # expansion that eval prints: the two run one sum
    argv = ("eval", "--n", "6", "--k", "2", "--alpha", "1/2", "--beta", "0.5", "--x0", "2")
    assert run_cli(*argv) == 0
    before = capsys.readouterr().out.split("\n")
    factors = jets._expansion_factors

    def perturbed(x0, beta, order):
        out = factors(x0, beta, order)
        weight, log_power = out[0]
        out[0] = (weight * 1.001, log_power)
        return out

    monkeypatch.setattr(jets, "_expansion_factors", perturbed)
    assert run_cli("verify", "--n-max", "8", "--with-oracle") == 1
    assert "VERIFY: FAIL" in capsys.readouterr().out
    assert run_cli(*argv) == 0
    after = capsys.readouterr().out.split("\n")
    assert after[0] == before[0]
    assert after[1] != before[1] and after[1].startswith("expansion n=6 alpha=1/2 beta=0.5 ")


def test_eval_and_verify_share_the_entry_division(capsys):
    # a wrong power of q in entry_value, swapped into its code so that every binding of it runs
    # the mutant, must change the value eval prints and fail verify's column1_recurrence
    def mutant(row, n, k, q):
        return Fraction(row[k], q ** (n - k + 1))

    code = entry_value.__code__
    entry_value.__code__ = mutant.__code__
    try:
        assert run_cli("eval", "--n", "6", "--k", "2", "--alpha=-5/2") == 0
        assert capsys.readouterr().out == "259/32\n"
        assert run_cli("verify", "--n-max", "12", "--with-oracle") == 1
        out = capsys.readouterr().out
    finally:
        entry_value.__code__ = code
    assert "FAIL IdentityReport(identity='column1_recurrence', " in out
    assert out.endswith("VERIFY: FAIL\n")


def test_abbreviated_options_are_rejected(capsys):
    for alpha in ("7/3", "-5/2"):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("eval", "--n", "2", "--k", "1", "--alph", alpha)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""
    assert run_cli("eval", "--n", "2", "--k", "1", "--alpha", "-5/2") == 0
    assert capsys.readouterr().out == "4\n"


def test_eval_usage_errors(capsys):
    # values eval cannot serve are refused by the command: status 2, one line
    assert run_cli("eval", "--n", "2", "--k", "3", "--alpha", "1") == 2
    assert capsys.readouterr() == ("", "ncstirling: eval: --k must not exceed --n\n")
    assert run_cli("eval", "--n", "2", "--k", "1", "--alpha", "1", "--beta", "1") == 2
    assert capsys.readouterr() == ("",
                                   "ncstirling: eval: --beta and --x0 must be given together\n")
    # what argparse cannot parse stays with argparse: usage text and SystemExit(2)
    with pytest.raises(SystemExit) as excinfo:
        run_cli("eval", "--n", "2", "--k", "1", "--alpha", "1/0")
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:  # Arabic-Indic 1/2
        run_cli("eval", "--n", "2", "--k", "1", "--alpha", "\u0661/\u0662")
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_eval_builds_no_triangle(capsys, monkeypatch):
    def refuse(n_max):
        raise AssertionError("eval built a triangle")

    monkeypatch.setattr(cli, "build_by_recurrence", refuse)
    monkeypatch.setattr(cli, "recurrence_rows", refuse)
    assert run_cli("eval", "--n", "6", "--k", "2", "--alpha", "7/3") == 0
    assert run_cli("eval", "--n", "6", "--k", "2", "--alpha", "7/3",
                   "--beta", "1.5", "--x0", "2") == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == lines[1] == "188348/27"
    assert lines[2].startswith("expansion n=6 alpha=7/3")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("n, k, alpha", [(300, 1, "7/3"), (400, 1, "7")],
                         ids=["fraction", "integer"])
def test_eval_prints_a_value_past_the_digit_limit(capsys, n, k, alpha):
    # s(300, 1, 7/3) has a numerator of about 1,000 digits and s(400, 1, 7) is an integer of
    # about 870; a lowered limit stands in for a large n against the default limit of 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status = run_cli("eval", "--n", str(n), "--k", str(k), "--alpha", alpha)
        captured = capsys.readouterr()
        sys.set_int_max_str_digits(0)
        printed = Fraction(captured.out)
    finally:
        sys.set_int_max_str_digits(limit)
    # Koutras's closed form from the classical row, a route independent of scaled_rows
    *_, row = stirling_expansion_oracle(n)
    a = Fraction(alpha)
    koutras = sum((-1) ** m * math.comb(k + m, k) * s * a ** m for m, s in enumerate(row[k:]))
    assert status == 0
    assert captured.err == ""
    assert captured.out.count("\n") == 1 and captured.out.endswith("\n")
    assert ("/" in captured.out) == (alpha == "7/3")
    assert len(captured.out) > 640
    assert printed == evaluate_entry(n, k, a) == koutras


def test_eval_renders_through_c_decimal():
    # the pure-Python _pydecimal converts an int through str(), which the digit limit refuses
    import _decimal
    import decimal

    assert decimal.Decimal is _decimal.Decimal


@pytest.mark.parametrize("beta, x0", [("nan", "2"), ("1", "inf"), ("-inf", "2"),
                                      ("1", "nan"), ("1", "1"), ("1", "0.5")])
def test_eval_rejects_bad_expansion_point_before_printing(capsys, beta, x0):
    message = "--x0 must exceed 1" if x0 in ("1", "0.5") else "--beta and --x0 must be finite"
    assert run_cli("eval", "--n", "3", "--k", "1", "--alpha", "1",
                   "--beta=" + beta, "--x0=" + x0) == 2
    assert capsys.readouterr() == ("", "ncstirling: eval: %s\n" % message)


def test_verify_small_passes(capsys):
    assert run_cli("verify", "--n-max", "5") == 0
    out = capsys.readouterr().out
    assert "VERIFY: PASS" in out


def test_verify_ten_passes(capsys):
    assert run_cli("verify", "--n-max", "10") == 0
    capsys.readouterr()


def test_verify_ten_with_oracle_and_tolerance(capsys):
    assert run_cli("verify", "--n-max", "10", "--with-oracle") == 0
    out = capsys.readouterr().out
    assert "expansion grid" in out
    assert "VERIFY: PASS" in out


@pytest.mark.parametrize("argv", [("--tol", "1e300"), ("--tol=1e-6",)])
def test_verify_has_no_option_that_loosens_the_grid(capsys, argv):
    # the grid's bound is jets.GRID_REL_TOL; --tol is an unknown option like any other
    with pytest.raises(SystemExit) as excinfo:
        run_cli("verify", "--n-max", "2", "--with-oracle", *argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tol" in err


def test_verify_fails_a_doubled_expansion_sum(capsys, monkeypatch):
    expansion_sum = jets._expansion_sum
    monkeypatch.setattr(jets, "_expansion_sum", lambda *args: 2 * expansion_sum(*args))
    assert run_cli("verify", "--n-max", "4", "--with-oracle") == 1
    assert "VERIFY: FAIL" in capsys.readouterr().out


def test_verify_smallest_suite_emits_reports(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert run_cli("verify", "--n-max", "1", "--out", str(out_path)) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["seed"] == "0"
    assert len(doc["identities"]) >= 5
    assert all(r["holds"] for r in doc["identities"])
    assert all(c["ok"] for c in doc["structural"])
    assert doc["oracle"] == []


def test_verify_oracle_report_shape(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert run_cli("verify", "--n-max", "4", "--with-oracle", "--out", str(out_path)) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["oracle"]
    record = doc["oracle"][0]
    assert set(record) == {"n", "alpha", "beta", "x0", "jet_value",
                           "expansion_value", "rel_residual", "pass"}
    assert record["pass"] is True
    assert isinstance(record["rel_residual"], str)


def test_verify_csv_summary(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    assert run_cli("verify", "--n-max", "2", "--format", "csv",
                   "--out", str(out_path)) == 0
    capsys.readouterr()
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "identity,n,alpha,holds"
    assert any(line.startswith("binomial_stirling_sum,") for line in lines)
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_corrupt_hook_flips_exit(capsys):
    assert run_cli("verify", "--n-max", "4", "--corrupt", "3,1") == 1
    out = capsys.readouterr().out
    assert "VERIFY: FAIL" in out
    assert "FAIL" in out


def test_verify_corrupt_bad_argument(capsys, monkeypatch):
    # a bad N,K is rejected before the table or a row of either triangle is built
    def refuse(n_max):
        raise AssertionError("verify built a triangle before checking --corrupt")

    for name in ("StirlingTable", "build_by_recurrence", "build_by_explicit",
                 "recurrence_rows", "explicit_rows"):
        monkeypatch.setattr(cli, name, refuse)
    for corrupt in ("nope", "99,1"):
        assert run_cli("verify", "--n-max", "2", "--corrupt", corrupt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ncstirling: verify: bad --corrupt argument %r: " % corrupt)


def test_verify_streams_the_rows_of_both_constructions(capsys, monkeypatch, tmp_path):
    # verify reads the two constructions in step, each row as it is made, and builds
    # no whole triangle: one construction is never more than one row ahead of the other
    produced = []

    def logged(construction, rows):
        def logged_rows(n_max):
            for n, row in enumerate(rows(n_max)):
                produced.append((construction, n))
                yield row
        return logged_rows

    def refuse(*args):
        raise AssertionError("verify built a whole triangle")

    monkeypatch.setattr(cli, "recurrence_rows", logged("recurrence", cli.recurrence_rows))
    monkeypatch.setattr(cli, "explicit_rows", logged("explicit", cli.explicit_rows))
    monkeypatch.setattr(cli, "build_by_recurrence", refuse)
    monkeypatch.setattr(cli, "build_by_explicit", refuse)
    monkeypatch.setattr(NoncentralTriangle, "__init__", refuse)
    out = tmp_path / "r.json"
    assert run_cli("verify", "--n-max", "10", "--with-oracle", "--corrupt", "5,2",
                   "--out", str(out)) == 1
    assert capsys.readouterr().out.endswith("VERIFY: FAIL\n")
    for construction in ("recurrence", "explicit"):
        assert [n for c, n in produced if c == construction] == list(range(11))
    lead = 0
    for construction, _ in produced:
        lead += 1 if construction == "recurrence" else -1
        assert abs(lead) <= 1, produced
    doc = json.loads(out.read_text())
    assert any(not c["ok"] and (c["n"], c["k"]) == ("5", "2") for c in doc["structural"])
    assert len(doc["oracle"]) == 9 * len(jets.GRID_ALPHAS) * len(jets.GRID_BETAS) * len(
        jets.GRID_X0S)


def test_verify_corrupt_echoes_the_parsed_entry(capsys):
    assert run_cli("verify", "--n-max", "10", "--corrupt", " 07,+1") == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "test hook: corrupted entry (7, 1)"
    assert "StructuralCheck(check='construction_agreement', n=7, k=1, ok=False" in out


# Every value a command refuses, and an --out it cannot write: its status, empty
# stdout and one "ncstirling: <command>: " line on stderr, before anything is
# built. "{missing}" stands for a path in a directory that does not exist.
REFUSALS = [
    (("triangle", "--n-max", str(cli.TRIANGLE_N_MAX + 1)), 2,
     "--n-max must be in 0..%d\n" % cli.TRIANGLE_N_MAX),
    (("triangle", "--n-max", "-1"), 2, "--n-max must be in 0..%d\n" % cli.TRIANGLE_N_MAX),
    (("triangle", "--out", "{missing}"), 1, "cannot write {missing}: "),
    (("verify", "--n-max", "-1"), 2, "--n-max must be nonnegative\n"),
    (("verify", "--n-max", str(cli.VERIFY_N_MAX + 1)), 2,
     "--n-max must be at most %d\n" % cli.VERIFY_N_MAX),
    (("verify", "--corrupt", "nope"), 2, "bad --corrupt argument 'nope': "),
    (("verify", "--corrupt", "1_0,1"), 2, "bad --corrupt argument '1_0,1': "),
    (("verify", "--corrupt", "\u0663,1"), 2, "bad --corrupt argument '\u0663,1': "),
    (("verify", "--out", "{missing}"), 1, "cannot write {missing}: "),
    (("eval", "--n", "2", "--k", "3", "--alpha", "1"), 2, "--k must not exceed --n\n"),
    (("eval", "--n", "-1", "--k", "0", "--alpha", "1"), 2, "--n and --k must be nonnegative\n"),
    (("eval", "--n", str(cli.EVAL_N_MAX + 1), "--k", "0", "--alpha", "0"), 2,
     "--n must be at most %d\n" % cli.EVAL_N_MAX),
    (("eval", "--n", "2", "--k", "1", "--alpha", "1", "--beta", "1"), 2,
     "--beta and --x0 must be given together\n"),
    (("eval", "--n", "2", "--k", "1", "--alpha", "1", "--beta=nan", "--x0", "2"), 2,
     "--beta and --x0 must be finite\n"),
    (("eval", "--n", "2", "--k", "1", "--alpha", "1", "--beta", "1", "--x0", "1"), 2,
     "--x0 must exceed 1\n"),
    (("eval", "--n", "2", "--k", "1", "--alpha", "1234567890/7"), 2,
     "--alpha in lowest terms p/q must have at most %d digits in p and in q\n"
     % cli.EVAL_ALPHA_DIGITS),
]


@pytest.mark.parametrize("argv, status, message", REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in REFUSALS])
def test_every_refusal_is_one_line_before_anything_is_built(capsys, monkeypatch, tmp_path,
                                                            argv, status, message):
    def refuse(*args):
        raise AssertionError("a refused command built something")

    for name in ("StirlingTable", "build_by_recurrence", "build_by_explicit",
                 "recurrence_rows", "explicit_rows", "last_scaled_row"):
        monkeypatch.setattr(cli, name, refuse)
    missing = str(tmp_path / "missing" / "r.json")
    assert run_cli(*[arg.replace("{missing}", missing) for arg in argv]) == status
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ncstirling: %s: %s" % (argv[0], message.replace("{missing}", missing)))
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ("verify", "--n-max", "4"),
    ("eval", "--n", "6", "--k", "2", "--alpha", "7/3"),
    # verify prints its summary lines, then cannot write --out: the refusal flushes them first
    pytest.param(("verify", "--n-max", "4", "--out", "/dev/full"), marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
], ids=["verify", "eval", "verify-out-full"])
def test_reader_closing_the_pipe_before_reading(argv):
    for unbuffered in ("", "1"):  # an empty PYTHONUNBUFFERED leaves stdout buffered
        with subprocess.Popen([sys.executable, "-m", "ncstirling", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(_src_env(), PYTHONUNBUFFERED=unbuffered)) as proc:
            proc.stdout.close()
            err = _stderr_at_end(proc)
        assert proc.returncode == 1
        assert err.decode() == "ncstirling: %s: stdout closed before the end\n" % argv[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("triangle", "--n-max", "30"), ("verify", "--n-max", "4"),
                                  ("eval", "--n", "2", "--k", "1", "--alpha", "1")],
                         ids=["triangle", "verify", "eval"])
def test_stdout_write_error_is_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ncstirling", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=_src_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ("ncstirling: %s: cannot write stdout: "
                                    "[Errno 28] No space left on device\n" % argv[0])


def test_main_lets_an_unexpected_exception_through(monkeypatch):
    # only refusals and stdout write errors are handled; a bug keeps its traceback
    def broken(n, p, q, top):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(cli, "last_scaled_row", broken)
    with pytest.raises(RuntimeError):
        run_cli("eval", "--n", "2", "--k", "1", "--alpha", "1")


def test_verify_seed_changes_sample_but_not_outcome(capsys, tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert run_cli("verify", "--n-max", "2", "--seed", "1", "--out", str(path_a)) == 0
    assert run_cli("verify", "--n-max", "2", "--seed", "2", "--out", str(path_b)) == 0
    capsys.readouterr()
    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    assert doc_a["seed"] == "1" and doc_b["seed"] == "2"
    assert doc_a["identities"] != doc_b["identities"]
    assert all(r["holds"] for r in doc_a["identities"] + doc_b["identities"])


@pytest.mark.parametrize("corrupt, status", [((), 0), (("--corrupt", "7,1"), 1)])
def test_verify_never_calls_entry(capsys, monkeypatch, corrupt, status):
    # the checks read the stored coefficient tuples; entry() is a public view only
    def refuse(self, n, k):
        raise AssertionError("verify called NoncentralTriangle.entry")

    monkeypatch.setattr(NoncentralTriangle, "entry", refuse)
    assert run_cli("verify", "--n-max", "12", "--with-oracle", *corrupt) == status
    capsys.readouterr()


POLYNOMIAL_CHECKS = {"construction_agreement", "boundary_falling_factorial",
                     "boundary_diagonal", "column_one_polynomial"}


@pytest.mark.parametrize("corrupt", [(), ("--corrupt", "7,1"), ("--corrupt", "12,0"),
                                     ("--corrupt", "12,12")])
def test_verify_builds_alphapoly_only_in_the_oracles(capsys, tmp_path, monkeypatch, corrupt):
    # AlphaPoly objects come from the products of the classical-row oracle,
    # plus the expected and actual detail of each failing polynomial check
    oracles = {"stirling_expansion_oracle"}
    outside = []
    init = AlphaPoly.__init__

    def traced(self, coeffs=()):
        frame = sys._getframe(1)
        names = []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        if not oracles.intersection(names):
            outside.append(names[0])
        init(self, coeffs)

    monkeypatch.setattr(AlphaPoly, "__init__", traced)
    path = tmp_path / "report.json"
    run_cli("verify", "--n-max", "12", "--with-oracle", "--out", str(path), *corrupt)
    capsys.readouterr()
    failing = [r for r in json.loads(path.read_text())["structural"]
               if not r["ok"] and r["check"] in POLYNOMIAL_CHECKS]
    assert bool(failing) == bool(corrupt)
    assert outside == ["add_poly"] * (2 * len(failing))


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ncstirling", "eval", "--n", "2", "--k", "1",
         "--alpha", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-3"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks out; the package is found on PYTHONPATH. json is loaded only
    # for a failing check's detail and by triangle_from_json, which the CLI never calls;
    # threading and queue only by a command that writes its output behind, which eval and
    # --help do not.
    code = """import contextlib, io, sys
import ncstirling.cli
modules = {'dataclasses', 'inspect', 'json', 'queue', 'threading'}
loaded = [sorted(modules & set(sys.modules))]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    ncstirling.cli.main(['eval', '--n', '6', '--k', '2', '--alpha', '7/3'])
    loaded.append(sorted(modules & set(sys.modules)))
    ncstirling.cli.main(['--help'])
loaded.append(sorted(modules & set(sys.modules)))
print(loaded)"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[], [], []]\n"


BASE_MODULES = ("ncstirling", "ncstirling.cli", "ncstirling.exact", "ncstirling.stirling")
# a recurrence triangle of TRIANGLE_TWO_PROCESS_N_MIN rows to a file it owns adds turns, where
# the host lets two processes write it
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
CAN_FORK = hasattr(os, "fork") and (CPUS or 1) >= 2
IN_TURNS = ("turns",) if CAN_FORK else ()
LOADED_MODULES = [
    (("--help",), ()),
    (("eval", "--n", "6", "--k", "2", "--alpha", "7/3"), ()),
    (("eval", "--n", "6", "--k", "2", "--alpha", "7/3", "--beta", "1.5", "--x0", "2"),
     ("jets",)),
    (("triangle", "--n-max", "4"), ("noncentral",)),
    (("triangle", "--n-max", "4", "--construction", "explicit", "--format", "csv"),
     ("noncentral",)),
    (("triangle", "--n-max", str(cli.TRIANGLE_TWO_PROCESS_N_MIN), "--out", os.devnull),
     ("noncentral",) + IN_TURNS),
    (("verify", "--n-max", "4"), ("noncentral", "identities")),
    (("verify", "--n-max", "4", "--with-oracle"), ("noncentral", "identities", "jets")),
]


@pytest.mark.parametrize("argv, deferred", LOADED_MODULES,
                         ids=[" ".join(argv) for argv, _ in LOADED_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, deferred):
    # a process with no bytecode cache compiles every module it imports: eval and --help
    # import none of noncentral, turns, identities and jets, triangle no identities or jets,
    # verify no turns, and no command imports typing
    code = ("import contextlib, io, sys\n"
            "from ncstirling import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        status = cli.main(%r)\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'ncstirling'),\n"
            "      'typing' in sys.modules)"
            % (list(argv),))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = sorted(BASE_MODULES + tuple("ncstirling." + m for m in deferred))
    assert proc.stdout == "0 %s False\n" % expected


def _imports_cli(node):
    """Whether an import statement imports ncstirling.cli, by an absolute or a relative name."""
    if isinstance(node, ast.Import):
        return any(alias.name == "ncstirling.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = "." * node.level + (node.module or "")
    return module in (".cli", "ncstirling.cli") or (
        module in (".", "ncstirling") and any(alias.name == "cli" for alias in node.names))


def test_only_main_imports_cli():
    # cli is the front end: no module it runs imports it back, so no import cycle runs through it
    package = Path(cli.__file__).resolve().parent
    importers = sorted(path.name for path in package.glob("*.py")
                       if any(map(_imports_cli, ast.walk(ast.parse(path.read_text())))))
    assert importers == ["__main__.py"]


def test_every_global_a_function_reads_is_bound_at_import():
    # symtable lists the globals each function and class body reads: in every module of the
    # package, each must be bound once the module is imported, or be a builtin. Running a
    # command binds no name into cli's namespace and rebinds none, so a static checker sees
    # every name cli has, and a replacement set before a command stays the one it calls.
    code = """import builtins, contextlib, importlib, io, pkgutil, symtable
import ncstirling
unbound = []
for info in sorted(pkgutil.iter_modules(ncstirling.__path__), key=lambda info: info.name):
    module = importlib.import_module("ncstirling." + info.name)
    bound = set(vars(module)) | set(vars(builtins))
    with open(module.__file__) as source:
        tables = symtable.symtable(source.read(), module.__file__, "exec").get_children()
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        unbound.extend((info.name, table.get_name(), symbol.get_name())
                       for symbol in table.get_symbols()
                       if symbol.is_referenced() and symbol.is_global()
                       and symbol.get_name() not in bound)
from ncstirling import cli
before, after = dict(vars(cli)), vars(cli)
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main(argv) for argv in %r]
print(sorted(unbound), statuses, sorted(name for name in before.keys() | after.keys()
                                        if before.get(name, before) is not after.get(name)))""" % ([
        ["triangle", "--n-max", "4"],
        ["verify", "--n-max", "6", "--corrupt", "3,1", "--with-oracle"],
        ["eval", "--n", "6", "--k", "2", "--alpha", "7/3", "--beta", "1.5", "--x0", "2"]],)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [0, 1, 0] []\n"


def test_a_failing_master_identity_keeps_both_sides(capsys, monkeypatch, tmp_path):
    # no golden has a failing binomial_stirling_sum: make the summed side one more, over
    # q^(n-1), at the first n = 3 point with a non-integer alpha
    hit = []
    real = identities.scaled_alternating_sum

    def one_more(weights, p, q):
        value = real(weights, p, q)
        if not hit and len(weights) == 3 and q > 1:
            hit.append(Fraction(p, q))
            return value + 1
        return value

    monkeypatch.setattr(identities, "scaled_alternating_sum", one_more)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--n-max", "5", "--out", str(out)) == 1
    (alpha,) = hit
    assert "FAIL IdentityReport(identity='binomial_stirling_sum', n=3, alpha=%r" % (alpha,) \
        in capsys.readouterr().out
    records = json.loads(out.read_text())["identities"]
    failing = [r for r in records if r["holds"] is False]
    assert len(failing) == 1 and all(r["lhs"] == r["rhs"] for r in records if r["holds"])
    (record,) = failing
    assert (record["identity"], record["n"], record["alpha"]) == (
        "binomial_stirling_sum", "3", cli.format_rational(alpha))
    lhs, rhs = Fraction(record["lhs"]), Fraction(record["rhs"])
    assert lhs - rhs == Fraction(1, alpha.denominator ** 2)

    hit.clear()
    reports = identities.run_suite(StirlingTable(5), build_by_recurrence(5).rows)
    (report,) = [r for r in reports if not r.holds]
    assert (report.n, report.alpha, report.lhs, report.rhs) == (3, alpha, lhs, rhs)
    assert report.lhs != report.rhs and report.lhs is not report.rhs
    assert all(r.lhs is r.rhs for r in reports if r.holds)
    assert "".join(identities.reports_to_json_records([report])) == (
        '[{"identity":"binomial_stirling_sum","n":"3","alpha":"%s","lhs":"%s","rhs":"%s",'
        '"holds":false}]' % (cli.format_rational(alpha), record["lhs"], record["rhs"]))


# One hand-built record of each report type and its repr, which is the text
# a FAIL line prints; the StructuralCheck takes its default detail.
REPORT_RECORDS = [
    (lambda: StructuralCheck("degree", 3, None, True),
     "StructuralCheck(check='degree', n=3, k=None, ok=True, detail='')"),
    (lambda: IdentityReport("harmonic_sum", 2, Fraction(1), Fraction(3), Fraction(7, 2), False),
     "IdentityReport(identity='harmonic_sum', n=2, alpha=Fraction(1, 1), "
     "lhs=Fraction(3, 1), rhs=Fraction(7, 2), holds=False)"),
    (lambda: ResidualReport(4, Fraction(-1, 2), 0.5, 2.0, 1.25, 1.5, 0.2, True),
     "ResidualReport(n=4, alpha=Fraction(-1, 2), beta=0.5, x0=2.0, jet_value=1.25, "
     "expansion_value=1.5, rel_residual=0.2, passed=True)"),
]

# sha256 and FAIL-line count of the stdout of `verify --n-max 12 --with-oracle
# --seed 0 --corrupt N,K`. The FAIL lines are the reprs of StructuralCheck and
# IdentityReport records; 7,1 was pinned while the records were still
# dataclasses, and 12,0 and 12,12 (the boundary checks' details) while the k=0
# boundary was still compared with falling_factorial_poly. The grid line
# prints a float residual, so like GOLDEN_EVAL this assumes a libm that rounds
# log and pow alike.
GOLDEN_VERIFY_FAIL_STDOUT = [
    ("7,1", 25, "e8a4e3e527ef4b0ebb4eb91f3bb54bfd0a065cea422915e5ddc9c3cb0d345ebb"),
    ("12,0", 3, "74e53db2b10a2ed0c2345e6679e9353b97f14d3b036c6d6335cf8e86dd19b4dc"),
    ("12,12", 3, "c97571bd50021b963cbf3d0b6c30324ccda3dec21859398a207f1277e9bd127d"),
]


@pytest.mark.parametrize("corrupt, fail_lines, digest", GOLDEN_VERIFY_FAIL_STDOUT,
                         ids=[corrupt for corrupt, _, _ in GOLDEN_VERIFY_FAIL_STDOUT])
def test_verify_fail_lines_match_golden_digest(capsys, corrupt, fail_lines, digest):
    assert run_cli("verify", "--n-max", "12", "--with-oracle", "--seed", "0",
                   "--corrupt", corrupt) == 1
    out = capsys.readouterr().out
    assert sum(line.startswith("FAIL ") for line in out.splitlines()) == fail_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    for build, text in REPORT_RECORDS:
        assert repr(build()) == text


@pytest.mark.parametrize("build", [build for build, _ in REPORT_RECORDS])
def test_report_records_are_immutable_values(build):
    record, twin = build(), build()
    with pytest.raises(AttributeError):
        record.n = 0
    assert record is not twin
    assert record == twin
    assert hash(record) == hash(twin)


# sha256 of `verify --with-oracle --seed 0` reports: the CSV report (no floats
# in it), the structural and identities sections of the JSON report,
# re-serialized compactly, and for three runs the whole JSON file ("file").
# The whole file holds the oracle's float reprs, so like GOLDEN_EVAL and the
# FAIL-line digests it assumes a libm that rounds log and pow alike.
GOLDEN_VERIFY_CSV = "302d0c30c2224278b1cac939cc472b1a69237809996aaa2c9624ea17932dcdb9"
GOLDEN_VERIFY_JSON = {
    "structural": "b0f5319444edfd0ebff6697e7e8ad7c8514aff7490a652b1f41330c5c2cb1d6a",
    "identities": "6452d5bc4b82e504330014f1fea51382a061cb1ce34b562c51c6a3a5f2bf1158",
    "file": "9c70ddc83cb896b850d8db84bbcc07521c6f9defcbd0ac7c33026ce0a93ec160",
}
# The edges: the empty identity suite (n = 0), the smallest one (n = 1), a
# grid cut short by n_max (n = 5), the corruption hook (exit 1) at k >= 2,
# which only the structural checks see, an odd n_max (n = 9), the hook at
# k = 1, which also fails identity records, and the hook at k = 0 and at
# k = n, which fail boundary_falling_factorial and boundary_diagonal; and
# n = 64 at seed 1, twice the benchmark's top size, pinned while the
# classical-row oracle became one running product.
GOLDEN_VERIFY_EDGES = [
    (("--n-max", "0"), 0,
     "6d8db475b4281c79cbd85e19bdd10f7bda39cc9fed22a44e8ff691f8fdc87457",
     {"structural": "9b624e0407c17c326ac67fc31557be71e0d5984bc91be28838d5806193164fee",
      "identities": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"}),
    (("--n-max", "1"), 0,
     "561c88f04a57d0b844f11f6fbfe403dcd1b4251707d9c969f602cd4499e6ee02",
     {"structural": "e2fb323e4fd4635d5d475b7bd4c65b7cff557e3b2cd9dec27edd439c834c4c97",
      "identities": "685d00d378dcb43e4428f410dc6f4a4fe9edd0d7e1eb4702b8aa4b5cba2521c1"}),
    (("--n-max", "5"), 0,
     "5dc954423fc801a864a065ba9c931298d39b8d2f19a04b9f09a6f978842f85b3",
     {"structural": "6620907374184b91f00b180cfce7acd493ff4812299c55aaca89210137d73275",
      "identities": "c80d46d53a1a78c6ebe7b1923049fbe2dcd194295b050957adb2bdc7e0006a8a",
      "file": "cc1238b5cbb68c39b50053a06b78474bb44324946a075b8e8c32d586a0ff859f"}),
    (("--n-max", "12", "--corrupt", "5,2"), 1,
     "c135f4b4614365107bdad704bae8ab3a6023fa563500641d47b4c87f197a3ba3",
     {"structural": "850655b36f68fd7b925333ae7568dc420ce60fb26a816f94f28a10960dce7f2d",
      "identities": "3dbb3c8376039668072491e403349f27555922a5a1952e40ac81618514f891a1",
      "file": "c991b43fbcb3230c305a33651b125b6737c143de386b97062fda3ff0a7fa75d6"}),
    (("--n-max", "9"), 0,
     "6a7a9493f5b801603f42b353f868ff62396c30293665d7001961435befd38bd1",
     {"structural": "dd001f6ff30a60e3a1ea525317576f4b3e97533418507aa6961ca1ee05deb918",
      "identities": "261e7341800f5a158ffc0ed0607160b17057eafc1be20b7b0d6ac6e3d7d5058d"}),
    (("--n-max", "10", "--corrupt", "7,1"), 1,
     "ed11543d61f25d184bb0b5c6dc8a020bc760fae2095b9ef2f66241013efb6ff6",
     {"structural": "cb70e4bbd6e17b06258686061f2244b04fdb6aca17ffbcba08f3242589d15fa3",
      "identities": "ec048d03e61fcee337b988c48cd10582ca161a047ca8fb090824ef0a3f109cc5"}),
    (("--n-max", "12", "--corrupt", "12,0"), 1,
     "06c8f6272823a9627e4b491d84160dd3133f512a5ebce6923ad0bce235332f46",
     {"structural": "d23b83d185ffcc32767b9d7480e39361209fd3828c0f64b2972a4743a3f7ac6f",
      "identities": "3dbb3c8376039668072491e403349f27555922a5a1952e40ac81618514f891a1"}),
    (("--n-max", "12", "--corrupt", "12,12"), 1,
     "28d8b4d0e250a33b3477c56f3e1b78fa276ae03acea2a9bb39e5fe9c274caaad",
     {"structural": "83deb5f95d14c523f149735547c2b16acd1ce56f28447d3c99504c587b4ebe6b",
      "identities": "3dbb3c8376039668072491e403349f27555922a5a1952e40ac81618514f891a1"}),
    (("--n-max", "64", "--seed", "1"), 0,
     "8a6aa41d39a5fe121905e0313a3fc6c5ac17172d35920976b200620e815bf368",
     {"structural": "bd0b4bd80b6266c19d9afe6ac205962768f74cbc553ee68a2bfef20b8c494bc4",
      "identities": "37385ca6ecef434bdb77e05ebaf59f4f9447d23dcbf3c4629bd05f26d5f607f8"}),
]


# The benchmark's top size, at seed 1, pinned before the identity sides were
# evaluated on scaled integers: --n-max 32 passes, and the hook at (20, 1)
# fails (exit 1).
GOLDEN_VERIFY_TOP = [
    (("--n-max", "32"), 0,
     "8f1711d2526124c2ba63fb77e22712671aa8303beb612bc1b4d4f5529ceead14",
     {"structural": "055321fcc97cea68a334d1fa77ec6befb4f6310256fbd25e3ad12a3434e1ab91",
      "identities": "9fcfb09089b0163f57640fd2f53409d8df44dddb319b90fee584c7434df646ab"}),
    (("--n-max", "25", "--corrupt", "20,1"), 1,
     "4b02f61977e44580fde549c77b384bf6f9e7ae441f936aea1ffd493dfa7af67a",
     {"structural": "06b32bca4e4474d2e7d235bab79aea371263a7a5b16b469f7c8bf0b7d994bc3a",
      "identities": "9cea4938226a0756d5c57fb74c14ece2fa2784e53ccc5168713d839596a219ad"}),
]


@functools.lru_cache(maxsize=None)
def _verify_json_report(argv, seed):
    """(status, text) of one `verify --with-oracle --format json` run. The digest
    tests and the compactness test share it, so each golden run is made once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        status = run_cli("verify", "--with-oracle", "--seed", seed, *argv,  # a --seed in argv wins
                         "--format", "json", "--out", str(path))
        return status, path.read_bytes().decode()


def _assert_verify_digests(capsys, tmp_path, argv, status, csv_digest, json_digests,
                           seed="0"):
    csv_path = tmp_path / "report.csv"
    assert run_cli("verify", "--with-oracle", "--seed", seed, *argv,
                   "--format", "csv", "--out", str(csv_path)) == status
    assert _verify_json_report(argv, seed)[0] == status
    capsys.readouterr()
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    text = _verify_json_report(argv, seed)[1]
    doc = json.loads(text)
    for section, digest in json_digests.items():
        part = text if section == "file" else json.dumps(doc[section], separators=(",", ":"))
        assert hashlib.sha256(part.encode()).hexdigest() == digest, section


def test_verify_exact_reports_match_golden_digests(capsys, tmp_path):
    _assert_verify_digests(capsys, tmp_path, ("--n-max", "16"), 0,
                           GOLDEN_VERIFY_CSV, GOLDEN_VERIFY_JSON)


@pytest.mark.parametrize("argv, status, csv_digest, json_digests", GOLDEN_VERIFY_EDGES)
def test_verify_edge_reports_match_golden_digests(capsys, tmp_path, argv, status,
                                                  csv_digest, json_digests):
    _assert_verify_digests(capsys, tmp_path, argv, status, csv_digest, json_digests)


@pytest.mark.parametrize("argv, status, csv_digest, json_digests", GOLDEN_VERIFY_TOP)
def test_verify_top_size_reports_match_golden_digests(capsys, tmp_path, argv, status,
                                                      csv_digest, json_digests):
    _assert_verify_digests(capsys, tmp_path, argv, status, csv_digest, json_digests,
                           seed="1")


GOLDEN_VERIFY_RUNS = ([(("--n-max", "16"), "0")]
                      + [(argv, "0") for argv, _, _, _ in GOLDEN_VERIFY_EDGES]
                      + [(argv, "1") for argv, _, _, _ in GOLDEN_VERIFY_TOP])


@pytest.mark.parametrize("argv, seed", GOLDEN_VERIFY_RUNS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_VERIFY_RUNS])
def test_verify_json_report_is_compact_json_byte_for_byte(capsys, argv, seed):
    # the section digests above are taken after a json round trip; this pins the rest
    # of the file's bytes: no whitespace, escaping as json.dumps does it, one final newline
    text = _verify_json_report(argv, seed)[1]
    capsys.readouterr()
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


def test_json_records_escape_detail_as_json_dumps_does():
    checks = [StructuralCheck("degree", 3, None, False, 'expected "a\\b", got \u00e9\n'),
              StructuralCheck("degree", 4, 2, True)]
    expected = {"seed": "7", "n_max": "4",
                "structural": [{"check": c.check, "n": str(c.n),
                                "k": None if c.k is None else str(c.k), "ok": c.ok,
                                "detail": c.detail} for c in checks],
                "identities": [], "oracle": []}
    assert "".join(identities.verify_json_chunks(7, 4, checks, [], [])) == (
        json.dumps(expected, separators=(",", ":")) + "\n")


def test_verify_json_report_goes_to_the_writer_one_record_per_chunk(monkeypatch, tmp_path):
    # no structural or identity record is joined with another ahead of the first write
    chunks, write_behind = [], cli.write_behind

    def spy(report, stream):
        chunks.extend(report)
        write_behind(chunks, stream)

    monkeypatch.setattr(cli, "write_behind", spy)
    out = tmp_path / "report.json"
    assert main(["verify", "--n-max", "12", "--with-oracle", "--corrupt", "5,2",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    records = [chunk.count('{"check":') + chunk.count('{"identity":') for chunk in chunks]
    assert "".join(chunks) == out.read_text() and max(records) == 1
    assert sum(records) == len(report["structural"]) + len(report["identities"])


def test_verify_bound_sits_above_every_pinned_size(capsys, monkeypatch):
    sizes = [int(argv[argv.index("--n-max") + 1]) for argv, _ in GOLDEN_VERIFY_RUNS]
    assert cli.VERIFY_N_MAX >= 128 and cli.VERIFY_N_MAX > max(sizes)

    class Built(Exception):
        pass

    def built(n_max):
        raise Built(n_max)

    monkeypatch.setattr(cli, "StirlingTable", built)
    with pytest.raises(Built):  # accepted: verify goes on to build the table
        run_cli("verify", "--n-max", str(cli.VERIFY_N_MAX))
    capsys.readouterr()


# sha256 of `eval` stdout, pinned before `eval` stopped building the
# triangle: k = 0, k = n and middle k; integer, negative and fractional
# alpha; n up to 300; and expansion points from the oracle grid's beta and
# x0 values. The two after those, pinned before the weights (beta)_i became
# one running product, weight n = 120 and 150 with a non-integer beta; the
# last, pinned while --beta still made a Fraction of each entry, has a
# 9-digit alpha, so its denominators q^(n-i) are large. The expansion lines
# print float reprs, so like the oracle part of the verify report they
# assume a libm that rounds log and pow alike.
GOLDEN_EVAL = [
    (("--n", "0", "--k", "0", "--alpha", "0"),
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (("--n", "20", "--k", "0", "--alpha", "7/3"),
     "8e015ec239f2696e493fb2d65f1000c5bfd932ed58f353d5b4cfcbb2bbed7e39"),
    (("--n", "20", "--k", "20", "--alpha=-5/2"),
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (("--n", "40", "--k", "17", "--alpha", "3"),
     "f031fbc9c35048ad83a4eb2372ff52dcc1f43285d13e917da352c8edc1fd4389"),
    (("--n", "64", "--k", "32", "--alpha=-5/2"),
     "58ac9f188338047e4577a4b81f196d21e1c38b51e56cd98c8fc71bcd2398ae15"),
    (("--n", "100", "--k", "1", "--alpha", "7/3"),
     "1acceae22f8db9d8e627179c79a78614b5df748d2520030611a186ff94e08ea6"),
    (("--n", "150", "--k", "75", "--alpha=-7"),
     "57a1036b3a1fac4a4faa67a5e7fd99c17bc5bc7fed2d0e47936c434dba663d1b"),
    (("--n", "300", "--k", "7", "--alpha", "7/3"),
     "3279226bdf29cef2a31f1fcf98e1d51a7556598f3828e3c34f402ad61e3a1017"),
    (("--n", "300", "--k", "150", "--alpha=-41/19"),
     "90771f9a41de6fe5763d0998a2305c793e9aeb523a3d7ae2b745acc8f9a95c15"),
    (("--n", "8", "--k", "3", "--alpha", "1/2", "--beta", "2.5",
      "--x0", "2.718281828459045"),
     "27eb4f4c91906eb56b8f856518eac385096df01283ceba8aca37b079fb6a8f9e"),
    (("--n", "12", "--k", "6", "--alpha=-2", "--beta", "0.5", "--x0", "1.5"),
     "46d7215b21480bb34d0d7c47b83ec89ebc4fc49313701ce8474ba2865f676437"),
    (("--n", "30", "--k", "10", "--alpha=-1/2", "--beta", "2", "--x0", "5"),
     "14af93adb394f1800b22611a146e90d72b90f942d0a272247cc16035e4df4713"),
    (("--n", "64", "--k", "0", "--alpha", "7/3", "--beta", "1", "--x0", "2"),
     "70e044c6b9ffbe2befe47d770d632eaebbd5030a5367b9663661d03dfad150b4"),
    (("--n", "120", "--k", "40", "--alpha", "7/3", "--beta", "2.5", "--x0", "1.5"),
     "6417c946ce255b1ab5c190e13cffa4672d5b75ffdd3f767d9e903503c3aad533"),
    (("--n", "150", "--k", "75", "--alpha=-7", "--beta", "1.5", "--x0", "2"),
     "4537fa053325f36262d44c1492d1c5c0a290bff2feb531151043a1c64d67a3e5"),
    (("--n", "150", "--k", "75", "--alpha=13717421/109739369", "--beta", "2.5",
      "--x0", "2.718281828459045"),
     "b161e38f6d59055744f10615338ac01ac3cda276c6aba55279b45b3b8dc9fe14"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_EVAL)
def test_eval_matches_golden_digests(capsys, argv, digest):
    assert run_cli("eval", *argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_eval_without_beta_never_builds_a_whole_row(capsys, monkeypatch):
    # eval takes one row, capped at column k (top == k) unless --beta reads the whole row
    tops = []

    def recording(n, p, q, top):
        tops.append((n, top))
        return last_scaled_row(n, p, q, top)

    monkeypatch.setattr(cli, "last_scaled_row", recording)
    for argv, digest in GOLDEN_EVAL:
        n, k = int(argv[1]), int(argv[3])
        assert run_cli("eval", *argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert tops == [(n, n if "--beta" in argv else k)]
        tops.clear()


def test_eval_bound_sits_above_every_pinned_n(capsys):
    # every literal "--n" of these tests (the goldens among them) and the largest
    # n of the benchmark's eval mix, read from its source without importing it
    pinned = [int(n) for n in re.findall(r'"--n", "([0-9]+)"', Path(__file__).read_text())]
    workloads = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
                          .read_text())
    bench = next(ast.literal_eval(node.value) for node in ast.walk(workloads)
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None)
                 == "EVAL_SIZES")
    assert pinned and bench
    assert cli.EVAL_N_MAX > max(pinned + list(bench))
    assert run_cli("eval", "--n", str(cli.EVAL_N_MAX), "--k", "0", "--alpha", "0") == 0
    assert capsys.readouterr() == ("0\n", "")
    # at the bound a small k takes milliseconds, and its 7,651-byte value, past the int-to-str
    # limit, is printed in full
    assert run_cli("eval", "--n", str(cli.EVAL_N_MAX), "--k", "2", "--alpha", "7/3") == 0
    out, err = capsys.readouterr()
    assert (err, out.count("\n")) == ("", 1)
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "1d07fca2062ea2eae6dceadb758a8c91e77c16b5534eb69bb34a26f90835914f")


def test_eval_alpha_bound_sits_above_every_pinned_alpha(capsys):
    # every literal "--alpha" of these tests but the refused ones, and the benchmark's alpha
    # ranges, read from its source without importing it; the bound itself is served
    literals = re.findall(r'"--alpha(?:", "|=)([^"]*)"', Path(__file__).read_text())
    refused = {argv[argv.index("--alpha") + 1] for argv, _, message in REFUSALS
               if message.startswith("--alpha")}
    pinned = [cli.parse_rational(text) for text in set(literals) - refused
              if exact.RATIONAL_RE.fullmatch(text) and not text.endswith("/0")]
    workloads = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
                          .read_text())
    ranges = {node.targets[0].id: ast.literal_eval(node.value) for node in ast.walk(workloads)
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None)
              in ("ALPHA_NUMERATORS", "ALPHA_DENOMINATORS")}
    assert pinned and len(ranges) == 2
    largest = max([abs(v) for v in ranges["ALPHA_NUMERATORS"] + ranges["ALPHA_DENOMINATORS"]]
                  + [max(abs(a.numerator), a.denominator) for a in pinned])
    assert largest < 10 ** cli.EVAL_ALPHA_DIGITS
    top = 10 ** cli.EVAL_ALPHA_DIGITS - 1
    assert run_cli("eval", "--n", "2", "--k", "2", "--alpha=-%d/%d" % (top, top - 1)) == 0
    assert capsys.readouterr() == ("1\n", "")
    assert run_cli("eval", "--n", "2", "--k", "2", "--alpha", str(top + 1)) == 2
    assert capsys.readouterr().out == ""
