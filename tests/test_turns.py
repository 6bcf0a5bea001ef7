"""triangle from two processes that take turns writing rows (ncstirling.turns): a recurrence
`python -m ncstirling triangle` from cli.TRIANGLE_TWO_PROCESS_N_MIN to _N_MAX rows that owns
its output writes the same bytes as one process, and a failed write, or a helper that ends
early, is one stderr line, status 1 and no process left behind."""
import argparse
import contextlib
import hashlib
import io
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from ncstirling import cli, turns
from ncstirling.noncentral import csv_renderer, json_renderer, recurrence_rows
from test_cli import GOLDEN_TRIANGLE, _read_stdout, _src_env

N_MIN, N_MAX = cli.TRIANGLE_TWO_PROCESS_N_MIN, cli.TRIANGLE_TWO_PROCESS_N_MAX
# the host conditions of the two-process path; the command's own are set up by each test
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
CAN_FORK = hasattr(os, "fork") and (CPUS or 1) >= 2
pytestmark = pytest.mark.skipif(not hasattr(os, "killpg"), reason="counts a process group")


def _argv(n_max, fmt="json", *more):
    return [sys.executable, "-m", "ncstirling", "triangle", "--n-max", str(n_max),
            "--format", fmt, *more]


def _one_process(n_max, fmt, stdout):
    """stdout after main wrote the triangle to it in this process, by the one-process path
    (stdout is replaced). Both constructions write these bytes (test_cli's golden digests)."""
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["triangle", "--n-max", str(n_max), "--format", fmt]) == 0
    return stdout


class _HashingStream(io.TextIOBase):
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


_DIGESTS = {(int(n_max), fmt): digest for (n_max, fmt), digest in GOLDEN_TRIANGLE.items()}


def one_process_digest(n_max, fmt):
    """The sha256 of the one-process path's text: test_cli's golden digest where one is pinned,
    else hashed as it is written, not held."""
    if (n_max, fmt) not in _DIGESTS:
        _DIGESTS[n_max, fmt] = _one_process(n_max, fmt, _HashingStream()).digest.hexdigest()
    return _DIGESTS[n_max, fmt]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run_alone(argv, stdout=subprocess.PIPE, read=None, then=None):
    """Run argv in a session of its own, closing its stdout pipe after `read` bytes if read is
    given and calling then(pid) after them; return its status, stdout and stderr, and whether
    a process of that session outlived it. Whatever of the session is left, the command too
    after a timeout, is killed."""
    with subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=_src_env(),
                          start_new_session=True) as proc:
        try:
            if read is not None:
                assert len(_read_stdout(proc, read)) == read
                if then is None:
                    proc.stdout.close()
                else:
                    then(proc.pid)
            out, err = proc.communicate(timeout=120)
        finally:
            left = _left_behind(proc.pid)
    return proc.returncode, out, err.decode(), left


def _left_behind(session):
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


# Each residue of n_max mod turns.CYCLE above N_MIN (it decides which process writes the last
# row), one size below it and N=160, in JSON and CSV, to stdout and through --out.
BYTE_RUNS = [(N_MIN - 1, "json", "stdout"), (N_MIN - 1, "csv", "out"),
             (N_MIN, "json", "stdout"), (N_MIN, "json", "out"),
             (N_MIN, "csv", "stdout"), (N_MIN, "csv", "out"),
             (N_MIN + 1, "json", "stdout"), (N_MIN + 1, "json", "out"),
             (N_MIN + 1, "csv", "stdout"),
             (N_MIN + 2, "json", "stdout"), (N_MIN + 2, "csv", "stdout"),
             (N_MIN + 2, "csv", "out"),
             (160, "json", "stdout"), (160, "json", "out"),
             (160, "csv", "stdout"), (160, "csv", "out")]


@pytest.mark.parametrize("n_max, fmt, to", BYTE_RUNS)
def test_two_processes_write_the_bytes_of_one(tmp_path, n_max, fmt, to):
    path = tmp_path / "triangle"
    status, out, err, left = _run_alone(_argv(n_max, fmt)
                                        + (["--out", str(path)] if to == "out" else []))
    assert (status, err, left) == (0, "", False)
    written = path.read_bytes() if to == "out" else out
    assert _sha(written) == one_process_digest(n_max, fmt)  # no 80 MB diff on a failure


SMALL = """import sys
from ncstirling import cli
cli.TRIANGLE_TWO_PROCESS_N_MIN = 0
for n_max in range(int(sys.argv[2]) + 1):
    for fmt in ("json", "csv"):
        path = "%s/%d.%s" % (sys.argv[1], n_max, fmt)
        assert cli.main(["triangle", "--n-max", str(n_max), "--format", fmt, "--out", path]) == 0
"""


@pytest.mark.skipif(not CAN_FORK, reason="the host runs one process")
def test_two_processes_write_the_bytes_of_one_from_row_zero(tmp_path):
    # with the threshold at 0: the helper has no row at N=0, and its turns are whole or cut
    # short at the end
    status, _, err, left = _run_alone([sys.executable, "-c", SMALL, str(tmp_path),
                                       str(3 * turns.CYCLE)])
    assert (status, err, left) == (0, "", False)
    for n_max in range(3 * turns.CYCLE + 1):
        for fmt in ("json", "csv"):
            written = (tmp_path / ("%d.%s" % (n_max, fmt))).read_text()
            assert written == _one_process(n_max, fmt, io.StringIO()).getvalue()


def test_a_turn_held_whole_stays_under_the_bound_turns_states():
    # each process holds the text of its whole next turn: at N_MAX, CYCLE - 1 rows ending at
    # row N_MAX bound a helper's turn, and row N_MAX and the tail this process's
    bound = 4 << 20
    assert "up to N = %d a turn is under 4 MiB of text" % N_MAX in " ".join(turns.__doc__.split())
    last = deque(recurrence_rows(N_MAX), maxlen=turns.CYCLE - 1)
    for _, row_chunks, tail in (json_renderer(N_MAX), csv_renderer()):
        list(row_chunks(0, [(1,)]))  # row 0, rendered before the fork; JSON's commas go on
        sizes = [sum(map(len, row_chunks(n, row)))
                 for n, row in enumerate(last, N_MAX - len(last) + 1)]
        assert sum(sizes) < bound and sizes[-1] + len(tail) < bound


def _args(n_max, construction="recurrence"):
    return argparse.Namespace(n_max=n_max, construction=construction)


def test_the_two_process_path_takes_the_recurrence_from_n_min_to_n_max(tmp_path):
    forks = CAN_FORK and threading.active_count() == 1
    with open(tmp_path / "t", "w") as out:
        chosen = [cli._writes_in_turns(_args(n_max), out, out)
                  for n_max in (N_MIN - 1, N_MIN, N_MAX, N_MAX + 1)]
        assert chosen == [False, forks, forks, False]
        assert not cli._writes_in_turns(_args(N_MIN, "explicit"), out, out)
        with open(tmp_path / "u", "w", encoding="utf-16") as wide:
            assert not cli._writes_in_turns(_args(N_MIN), wide, wide)


FORKS = """import hashlib, io, os, sys
from ncstirling import cli
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
if sys.argv[1] == "replaced":
    sys.stdout = io.StringIO()
status = cli.main(sys.argv[2:])
text = sys.stdout.getvalue() if sys.argv[1] == "replaced" else ""
print(status, len(forks), hashlib.sha256(text.encode()).hexdigest(), file=sys.stderr)
"""


@pytest.mark.parametrize("stdout, n_max, out, forks", [
    ("own", N_MIN - 1, False, 0),
    ("own", N_MIN, False, int(CAN_FORK)),
    ("own", N_MIN, True, int(CAN_FORK)),
    ("replaced", 160, False, 0),
    ("replaced", 160, True, int(CAN_FORK)),
])
def test_the_two_process_path_runs_where_the_command_owns_its_output(tmp_path, stdout, n_max,
                                                                     out, forks):
    # a replaced sys.stdout (an in-process caller, the tracer) keeps the one-process path
    argv = ["triangle", "--n-max", str(n_max)] + (["--out", str(tmp_path / "t")] if out else [])
    _, written, err, left = _run_alone([sys.executable, "-c", FORKS, stdout, *argv])
    status, forked, digest = err.split()
    assert (status, int(forked), left) == ("0", forks, False)
    if out:
        written = (tmp_path / "t").read_bytes()
    if stdout == "replaced" and not out:
        assert (written, digest) == (b"", one_process_digest(n_max, "json"))
    else:
        assert _sha(written) == one_process_digest(n_max, "json")


def test_a_slow_reader_gets_every_byte():
    # a slow reader (64 KiB reads, 0.5 ms apart) holds the writers back but gets every byte;
    # N=160 runs the two-process path, so a deadlock there ends when the session is killed at
    # the 120 s limit
    digest = hashlib.sha256()
    with subprocess.Popen(_argv(160), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_src_env(), start_new_session=True) as proc:
        limit = threading.Timer(120, _left_behind, [proc.pid])
        limit.start()
        try:
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                time.sleep(0.0005)
            err = proc.communicate()[1]
        finally:
            limit.cancel()
            left = _left_behind(proc.pid)
    assert (proc.returncode, err, left) == (0, b"", False)
    assert digest.hexdigest() == GOLDEN_TRIANGLE["160", "json"]


@pytest.mark.parametrize("n_max, read", [(N_MIN, 0), (N_MIN, 5), (N_MIN + 1, 1 << 16)])
def test_a_reader_closing_early_ends_both_processes(n_max, read):
    status, _, err, left = _run_alone(_argv(n_max), read=read)
    assert (status, left) == (1, False)
    assert err == "ncstirling: triangle: stdout closed before the end\n"


def _kill_the_helper(pid):
    """Kill the one child of pid, found by the parent pid in /proc/*/stat."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):  # a process that ended meanwhile
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == pid:
                children.append(int(stat.parent.name))
    (helper,) = children
    os.kill(helper, signal.SIGKILL)


@pytest.mark.skipif(not CAN_FORK or not Path("/proc/self/stat").exists(),
                    reason="finds the helper in /proc")
def test_a_helper_that_ends_early_is_one_line():
    # the parent forks before its first write, so the helper is there once a byte is read
    status, out, err, left = _run_alone(_argv(160), read=1, then=_kill_the_helper)
    assert (status, left) == (1, False)
    assert err == ("ncstirling: triangle: cannot write stdout: the other writing process "
                   "ended before its turn did\n")


ENDS_AT_ONCE = """import os, sys, time
os.register_at_fork(after_in_child=lambda: os._exit(1), after_in_parent=lambda: time.sleep(0.2))
from ncstirling import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not CAN_FORK, reason="the host runs one process")
@pytest.mark.parametrize("to", ["stdout", "out"])
def test_a_helper_that_ends_at_once_is_one_line(tmp_path, to):
    # this process, held back for the helper to end, finds it gone when it ships it rows
    argv = ["triangle", "--n-max", str(N_MIN)] + (["--out", str(tmp_path / "t")]
                                                  if to == "out" else [])
    status, _, err, left = _run_alone([sys.executable, "-c", ENDS_AT_ONCE, *argv])
    assert (status, left) == (1, False)
    assert err == ("ncstirling: triangle: cannot write %s: the other writing process ended "
                   "before its turn did\n" % ("stdout" if to == "stdout" else tmp_path / "t"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to", ["stdout", "out"])
def test_a_full_device_is_one_line(to):
    if to == "out":
        status, _, err, left = _run_alone(_argv(N_MIN, "json", "--out", "/dev/full"))
        name = "/dev/full"
    else:
        with open("/dev/full", "w") as full:
            status, _, err, left = _run_alone(_argv(N_MIN), stdout=full)
        name = "stdout"
    assert (status, left) == (1, False)
    assert err == ("ncstirling: triangle: cannot write %s: [Errno 28] No space left on device\n"
                   % name)


# The program under a file size limit, with SIGXFSZ ignored so that a write past it fails
# with EFBIG: the limit decides which process's write fails first.
LIMITED = """import os, resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
os.execv(sys.executable, [sys.executable, "-m", "ncstirling", *sys.argv[2:]])
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("fails", [1, turns.CYCLE, turns.CYCLE + 2],
                         ids=["helper", "parent", "helper-later"])
def test_a_write_error_in_either_process_is_one_line(tmp_path, fails):
    # the limit is the start of row `fails`: the rows before it fit, and the process that
    # writes that row (this one for a multiple of turns.CYCLE, else the helper) fails first
    text = _one_process(N_MIN, "json", io.StringIO()).getvalue().encode()
    limit = text.index(b'{"n":"%d","k":"0"' % fails) - 1
    path = tmp_path / "t.json"
    status, out, err, left = _run_alone([sys.executable, "-c", LIMITED, str(limit), "triangle",
                                         "--n-max", str(N_MIN), "--out", str(path)])
    assert (status, out, left) == (1, b"", False)
    assert err == "ncstirling: triangle: cannot write %s: [Errno 27] File too large\n" % path
    assert path.read_bytes() == text[:limit]
