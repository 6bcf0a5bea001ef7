"""Acceptance suite: one test per release criterion, each printing a PASS line.

Exact checks carry zero tolerance; the numerical derivative-expansion grid is
bounded by a relative residual of 1e-6; wall-clock budgets are asserted where
a criterion states one. Run with ``pytest tests/test_acceptance.py -v``.
"""
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ncstirling.cli import main
from ncstirling.exact import AlphaPoly
from ncstirling.identities import random_rationals, run_suite, s_n1_recurrence, s_n1_sum_formula
from ncstirling.jets import expansion_grid
from ncstirling.noncentral import build_by_explicit, build_by_recurrence
from ncstirling.stirling import StirlingTable, stirling_expansion_oracle

SEED = 0


def _passed(label):
    print("ACCEPTANCE %s: PASS" % label)


def test_01_known_small_polynomials():
    started = time.monotonic()
    for triangle in (build_by_recurrence(2), build_by_explicit(2)):
        assert triangle.entry(1, 0) == AlphaPoly([0, -1])       # -alpha
        assert triangle.entry(1, 1) == AlphaPoly([1])
        assert triangle.entry(2, 1) == AlphaPoly([-1, -2])      # -2*alpha - 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, "took %.2fs" % elapsed
    _passed("1 known small polynomials")


def test_02_construction_agreement_to_20():
    started = time.monotonic()
    by_recurrence = build_by_recurrence(20)
    by_explicit = build_by_explicit(20)
    for n in range(21):
        for k in range(n + 1):
            assert by_recurrence.entry(n, k) == by_explicit.entry(n, k), (n, k)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "took %.2fs" % elapsed
    _passed("2 construction agreement n<=20")


def test_03_boundaries_and_specialization_to_20():
    started = time.monotonic()
    triangle = build_by_recurrence(20)
    table = StirlingTable(20)
    for n, oracle in enumerate(stirling_expansion_oracle(20)):
        # (-a)(-a-1)...(-a-n+1) is x(x-1)...(x-n+1) at x = -a
        falling = AlphaPoly([-c if j % 2 else c for j, c in enumerate(oracle)])
        assert triangle.entry(n, 0) == falling
        assert triangle.entry(n, n) == AlphaPoly([1])
        assert table.row(n) == oracle
        for k in range(n + 1):
            assert triangle.entry(n, k)(0) == table.signed(n, k)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, "took %.2fs" % elapsed
    _passed("3 boundary and specialization n<=20")


def _suite_families():
    reports = run_suite(StirlingTable(15), build_by_recurrence(15).rows, seed=SEED)
    families = {}
    for report in reports:
        families.setdefault(report.identity, []).append(report)
    return families


def test_04_master_identity_grid():
    records = _suite_families()["binomial_stirling_sum"]
    alphas = [Fraction(a) for a in range(-15, 16)]
    alphas += random_rationals(30, random.Random(SEED))
    assert [(r.n, r.alpha) for r in records] == [
        (n, alpha) for n in range(1, 16) for alpha in alphas]
    for report in records:
        assert report.holds, report
    _passed("4 master identity, ints -15..15 plus 30 random rationals")


def test_05_specialized_identity_families():
    families = _suite_families()
    # one report per n = 2..15 or n = 1..15, per (a, n) with 1 <= a <= 8 and
    # a < n <= 15 (84), and per (a, n) with 1 <= n <= a <= 10 (55)
    counts = {
        "factorial_from_stirling": 14,
        "harmonic_sum": 15,
        "hn_binomial_form": 15,
        "hn_stirling_form": 15,
        "neg_alpha_factorial_form": 84,
        "neg_alpha_reciprocal_form": 84,
        "column1_neg_alpha_value": 84,
        "harmonic_diff_sum_form": 55,
        "harmonic_diff_ratio_form": 55,
        "column1_harmonic_value": 55,
    }
    for identity, count in counts.items():
        assert len(families[identity]) == count, identity
        for report in families[identity]:
            assert report.holds, report
    _passed("5 specialized identity families")


def test_06_column_one_triple_agreement():
    triangle = build_by_recurrence(15)
    for alpha in random_rationals(20, random.Random(SEED)):
        for n in range(1, 16):
            value = triangle.evaluate(n, 1, alpha)
            assert value == s_n1_sum_formula(n, alpha), (n, alpha)
            assert value == s_n1_recurrence(n, alpha)[n], (n, alpha)
    _passed("6 column-1 triple agreement")


def test_07_derivative_expansion_grid():
    started = time.monotonic()
    triangle = build_by_recurrence(8)
    reports = expansion_grid(triangle.rows)
    assert len(reports) == 9 * 7 * 5 * 4
    failing = [r for r in reports if not (r.passed and r.rel_residual <= 1e-6)]
    assert not failing, failing[:5]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "took %.2fs" % elapsed
    _passed("7 derivative-expansion grid, max residual %.3e"
            % max(r.rel_residual for r in reports))


def test_08_cli_verify_contract(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "ncstirling", "verify", "--n-max", "10",
         "--with-oracle"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "VERIFY: PASS" in proc.stdout

    for n, k in ((0, 0), (10, 10), (7, 0), (5, 3)):
        code = main(["verify", "--n-max", "10", "--with-oracle",
                     "--corrupt", "%d,%d" % (n, k)])
        captured = capsys.readouterr()
        assert code == 1, "corrupting (%d,%d) did not flip the exit status" % (n, k)
        assert "VERIFY: FAIL" in captured.out
    _passed("8 CLI verify contract and corruption hook")
