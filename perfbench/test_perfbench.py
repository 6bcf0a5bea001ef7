"""Tests of the benchmark itself: deterministic inputs, and a checker that
rejects wrong outputs and accepts the program's right ones.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

from check import (  # noqa: E402
    KNOWN_EXPANSION_BINARY64,
    KNOWN_EXPANSION_CANCELLATION,
    Checker,
    Output,
)
from loop import tail_latency  # noqa: E402
from reference import ClassicalRows, format_rational, verify_counts  # noqa: E402
from run import tally  # noqa: E402
from tracing import call_main  # noqa: E402
from workloads import (  # noqa: E402
    EVAL_SIZES,
    TRIANGLE_FORMATS,
    TRIANGLE_SIZES,
    VERIFY_CORRUPT_PER_BLOCK,
    VERIFY_SIZES,
    WORKLOADS,
    Op,
    blocks,
)


def _first_blocks(workload, seed, count=3):
    stream = blocks(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_blocks(workload, 11) == _first_blocks(workload, 11)
    assert _first_blocks(workload, 11) != _first_blocks(workload, 12)


def test_every_block_has_the_stated_size_mix():
    for block in _first_blocks("verify", 3):
        assert sorted(op.n for op in block) == sorted(VERIFY_SIZES)
        assert sum(op.corrupt is not None for op in block) == VERIFY_CORRUPT_PER_BLOCK
    for block in _first_blocks("triangle", 3):
        assert sorted((op.construction, op.n, op.fmt) for op in block) == sorted(
            (c, n, f) for c, sizes in TRIANGLE_SIZES for n in sizes for f in TRIANGLE_FORMATS)
    for block in _first_blocks("eval", 3):
        assert sorted(op.n for op in block) == sorted(EVAL_SIZES)
        assert sum(op.beta is not None for op in block) == 4
        assert all(0 <= op.k <= op.n for op in block)


def _eval_op(n, k, alpha, beta=None, x0=None):
    argv = ["eval", "--n", str(n), "--k", str(k), "--alpha=" + format_rational(alpha)]
    if beta is not None:
        argv += ["--beta", repr(beta), "--x0", repr(x0)]
    return Op("eval", tuple(argv), n, k=k, alpha=alpha, beta=beta, x0=x0)


def _text_output(text, returncode=0, stderr=""):
    return Output(returncode, "", len(text), text.encode(), stderr)


def test_checker_rejects_a_wrong_exact_value():
    checker = Checker()
    op = _eval_op(7, 3, Fraction(-5, 2))
    right = checker.rows.value(7, 3, Fraction(-5, 2))
    assert checker.check(op, _text_output(format_rational(right) + "\n")).ok
    wrong = checker.check(op, _text_output(format_rational(right + 1) + "\n"))
    assert not wrong.ok and wrong.known is None
    assert tally([wrong]) == (False, 1, 1)


def test_checker_rejects_a_wrong_expansion_and_classifies_overflow():
    checker = Checker()
    small = _eval_op(6, 2, Fraction(1, 3), 2.5, 2.0)
    huge = _eval_op(300, 7, Fraction(7, 3), 2.5, 5.0)
    checker.prepare([small, huge])
    exact = format_rational(checker.rows.value(6, 2, Fraction(1, 3)))
    ref = float(checker._expansions[small][0])
    line = "expansion n=6 alpha=1/3 beta=2.5 x0=2.0 -> %r" % ref
    assert checker.check(small, _text_output("%s\n%s\n" % (exact, line))).ok
    off = "expansion n=6 alpha=1/3 beta=2.5 x0=2.0 -> %r" % (ref * (1 + 1e-5))
    wrong = checker.check(small, _text_output("%s\n%s\n" % (exact, off)))
    assert not wrong.ok and wrong.known is None

    # The terms cancel: binary64 rounding leaves the sum 8e-6 off, as the program prints it.
    cancel = _eval_op(72, 36, Fraction(-48), 2.5, 2.718281828459045)
    checker.prepare([cancel])
    cancel_exact = format_rational(checker.rows.value(72, 36, Fraction(-48)))
    cancel_line = "expansion n=72 alpha=-48 beta=2.5 x0=2.718281828459045 -> -6.489096697054505e+79"
    cancelled = checker.check(cancel, _text_output("%s\n%s\n" % (cancel_exact, cancel_line)))
    assert not cancelled.ok and cancelled.known == KNOWN_EXPANSION_CANCELLATION
    assert tally([cancelled]) == (True, 1, 1)

    trace = "Traceback (most recent call last):\nOverflowError: too large\n"
    in_range = checker.check(small, _text_output(exact + "\n", 1, trace))
    assert not in_range.ok and in_range.known is None
    huge_exact = format_rational(checker.rows.value(300, 7, Fraction(7, 3)))
    beyond = checker.check(huge, _text_output(huge_exact + "\n", 1, trace))
    assert not beyond.ok and beyond.known == KNOWN_EXPANSION_BINARY64
    assert tally([beyond]) == (True, 1, 1)

    # Every s(155, i, 41/19) (0.5)_i is in range, but the sum is not: it prints inf.
    big_sum = _eval_op(155, 122, Fraction(41, 19), 0.5, 1.5)
    checker.prepare([big_sum])
    big_exact = format_rational(checker.rows.value(155, 122, Fraction(41, 19)))
    inf_line = "expansion n=155 alpha=41/19 beta=0.5 x0=1.5 -> inf"
    printed_inf = checker.check(big_sum, _text_output("%s\n%s\n" % (big_exact, inf_line)))
    assert not printed_inf.ok and printed_inf.known == KNOWN_EXPANSION_BINARY64
    small_inf = "expansion n=6 alpha=1/3 beta=2.5 x0=2.0 -> inf"
    in_range_inf = checker.check(small, _text_output("%s\n%s\n" % (exact, small_inf)))
    assert not in_range_inf.ok and in_range_inf.known is None


def test_checker_rejects_a_corrupt_verify_that_passes():
    checker = Checker()
    counts = verify_counts(4)
    op = Op("verify", ("verify",), 4, seed=0, corrupt=(2, 1))
    stdout = ("structural checks: %d run, 0 failing\nidentity suite:    %d reports, "
              "0 failing (seed=0)\nexpansion grid:    %d points, 0 over tol 1e-06, "
              "max residual 0\nVERIFY: PASS\n"
              % (counts["structural"], counts["identities"], counts["oracle"]))
    assert not checker.check(op, _text_output(stdout)).ok


def test_checker_accepts_the_programs_outputs(tmp_path):
    from ncstirling.cli import main

    checker = Checker()
    ops = [
        Op("verify", ("verify", "--n-max", "5", "--with-oracle", "--seed", "3",
                      "--format", "json"), 5, seed=3),
        Op("verify", ("verify", "--n-max", "5", "--with-oracle", "--seed", "3",
                      "--format", "json", "--corrupt", "4,2"), 5, seed=3, corrupt=(4, 2)),
        _eval_op(9, 4, Fraction(-7, 3)),
        _eval_op(9, 0, Fraction(5, 2), 0.5, 1.5),
    ] + [
        Op("triangle", ("triangle", "--n-max", "7", "--construction", c, "--format", f),
           7, construction=c, fmt=f)
        for c in ("recurrence", "explicit") for f in TRIANGLE_FORMATS
    ]
    checker.prepare(ops)
    for op in ops:
        report = tmp_path / "report.json"
        out, _ = call_main(main, op.command(str(report)), report)
        verdict = checker.check(op, out)
        assert verdict.ok, (op.argv, verdict.reason)
        if op.workload == "triangle":
            bad = Output(0, "0" * 64, out.nbytes, out.head, "")
            assert not checker.check(op, bad).ok


def test_classical_rows_match_known_values():
    rows = ClassicalRows()
    assert rows.row(4) == [0, -6, 11, -6, 1]
    # s(n, n-1, alpha) = -C(n, 2) - n alpha
    assert rows.coefficients(5, 4) == [-10, -5]


def test_tail_latency_keeps_ten_samples_beyond():
    value, percentile = tail_latency([float(i) for i in range(1, 21)])
    assert percentile == 50 and value == pytest.approx(10.5)
    value, percentile = tail_latency([float(i) for i in range(1, 41)])
    assert percentile == 75 and 30 < value < 31
    assert tail_latency([1.0, 2.0])[1] is None
