"""Tests for the exact identity suite."""
import random
from fractions import Fraction

import pytest

from ncstirling.exact import AlphaPoly
from ncstirling.identities import (
    check_binomial_stirling_identity,
    check_factorial_identity,
    check_harmonic_difference,
    check_harmonic_sum,
    check_hn_formulas,
    check_negative_alpha_closed_form,
    column_one_polynomial,
    h_closed_form,
    q_closed_form,
    random_rationals,
    run_suite,
    structural_checks,
)
from ncstirling.noncentral import build_by_explicit, build_by_recurrence, corrupt_entry, s_n1_recurrence
from ncstirling.stirling import StirlingTable, harmonic

N_MAX = 20


@pytest.fixture(scope="module")
def table():
    return StirlingTable(N_MAX)


@pytest.fixture(scope="module")
def triangle():
    return build_by_recurrence(N_MAX)


def _single(reports):
    assert len(reports) == 1
    return reports[0]


def test_column_one_polynomial_small(table):
    assert column_one_polynomial(table, 1) == AlphaPoly([1])
    assert column_one_polynomial(table, 2) == AlphaPoly([-1, -2])
    assert column_one_polynomial(table, 3) == AlphaPoly([2, 6, 3])


def test_column_one_polynomial_matches_triangle(table, triangle):
    for n in range(1, N_MAX + 1):
        assert column_one_polynomial(table, n) == triangle.entry(n, 1)


def test_master_identity_hand_values(table):
    r = _single(check_binomial_stirling_identity(table, 2, 1))
    assert (r.lhs, r.rhs, r.holds) == (3, 3, True)
    r = _single(check_binomial_stirling_identity(table, 1, 0))
    assert (r.lhs, r.rhs, r.holds) == (1, 1, True)  # 0^0 = 1 convention
    r = _single(check_binomial_stirling_identity(table, 3, 1))
    assert (r.lhs, r.rhs, r.holds) == (11, 11, True)


def test_master_identity_rhs_is_the_unsigned_power_sum(table):
    # the paper writes the right side as sum_k (k+1) |s(n,k+1)| a^k
    for alpha in random_rationals(50, random.Random(2009)):
        for n in range(1, N_MAX + 1):
            expected = sum((k + 1) * abs(table.signed(n, k + 1)) * alpha ** k
                           for k in range(n))
            assert _single(check_binomial_stirling_identity(table, n, alpha)).rhs == expected


def test_master_identity_sweep(table):
    alphas = [Fraction(a) for a in range(-N_MAX, N_MAX + 1)]
    alphas += random_rationals(30, random.Random(123))
    for n in range(1, N_MAX + 1):
        for alpha in alphas:
            assert _single(check_binomial_stirling_identity(table, n, alpha)).holds


def test_factorial_identity(table):
    assert _single(check_factorial_identity(table, 2)).lhs == 1
    assert _single(check_factorial_identity(table, 3)).lhs == -1
    r = _single(check_factorial_identity(table, 4))
    assert (r.lhs, r.rhs) == (2, 2)
    for n in range(2, 16):
        assert _single(check_factorial_identity(table, n)).holds
    with pytest.raises(ValueError):
        check_factorial_identity(table, 1)


def test_harmonic_sum_identity(table):
    assert _single(check_harmonic_sum(table, 1)).holds
    r = _single(check_harmonic_sum(table, 3))
    assert (r.lhs, r.rhs) == (11, 11)
    r = _single(check_harmonic_sum(table, 4))
    assert (r.lhs, r.rhs) == (50, 50)
    for n in range(1, 16):
        assert _single(check_harmonic_sum(table, n)).holds


def test_negative_alpha_closed_form_hand_values(table):
    factorial_form, reciprocal_form = check_negative_alpha_closed_form(table, 2, 1)
    assert (factorial_form.lhs, factorial_form.rhs) == (1, 1)
    assert (reciprocal_form.lhs, reciprocal_form.rhs) == (1, 1)
    factorial_form, _ = check_negative_alpha_closed_form(table, 3, 2)
    assert (factorial_form.lhs, factorial_form.rhs) == (2, 2)


def test_negative_alpha_closed_form_sweep(table, triangle):
    for a in range(1, 9):
        for n in range(a + 1, 16):
            for report in check_negative_alpha_closed_form(table, n, a):
                assert report.holds
            # the closed form also gives the k=1 column value itself
            assert triangle.evaluate(n, 1, -a) == q_closed_form(n, a)
            assert s_n1_recurrence(n, Fraction(-a)) == q_closed_form(n, a)
    with pytest.raises(ValueError):
        check_negative_alpha_closed_form(table, 2, 2)
    with pytest.raises(ValueError):
        q_closed_form(3, 0)


def test_harmonic_difference_hand_values(table):
    sum_form, ratio_form = check_harmonic_difference(table, 1, 2)
    assert sum_form.lhs == Fraction(1, 2) and sum_form.holds
    sum_form, ratio_form = check_harmonic_difference(table, 2, 2)
    assert sum_form.lhs == Fraction(3, 2) and sum_form.holds and ratio_form.holds
    _, ratio_form = check_harmonic_difference(table, 2, 3)
    assert ratio_form.rhs == Fraction(5, 6)
    assert ratio_form.lhs == harmonic(3) - harmonic(1)


def test_harmonic_difference_sweep(table, triangle):
    for a in range(1, 11):
        for n in range(1, a + 1):
            for report in check_harmonic_difference(table, n, a):
                assert report.holds
            assert triangle.evaluate(n, 1, -a) == h_closed_form(n, a)
            assert s_n1_recurrence(n, Fraction(-a)) == h_closed_form(n, a)
    with pytest.raises(ValueError):
        check_harmonic_difference(table, 3, 2)


def test_hn_formulas_hand_values(table):
    binomial_form, stirling_form = check_hn_formulas(table, 1)
    assert binomial_form.rhs == 1 and stirling_form.rhs == 1
    binomial_form, stirling_form = check_hn_formulas(table, 2)
    assert binomial_form.rhs == Fraction(3, 2)
    assert stirling_form.rhs == Fraction(3, 2)
    _, stirling_form = check_hn_formulas(table, 3)
    assert stirling_form.rhs == Fraction(11, 6)


def test_hn_formulas_sweep(table):
    for n in range(1, 16):
        for report in check_hn_formulas(table, n):
            assert report.holds
            assert report.lhs == harmonic(n)


def test_q_and_h_closed_forms():
    assert q_closed_form(2, 1) == 1
    assert q_closed_form(4, 2) == -2  # (-1)^(4-2-1) * 2! * 1!
    assert h_closed_form(1, 1) == 1
    assert h_closed_form(2, 2) == 3


def test_random_rationals_ranges_and_determinism():
    sample = random_rationals(100, random.Random(0))
    again = random_rationals(100, random.Random(0))
    assert sample == again
    for value in sample:
        assert Fraction(-50) <= value <= Fraction(50)
        assert value.denominator <= 20


def test_run_suite_all_hold(table, triangle):
    reports = run_suite(table, triangle, 10)
    assert reports
    assert all(r.holds for r in reports)
    assert all(r.holds == (r.lhs == r.rhs) for r in reports)
    # deterministic for a fixed seed
    assert run_suite(table, triangle, 10) == reports
    labels = {r.identity for r in reports}
    assert "binomial_stirling_sum" in labels
    assert "column1_sum_formula" in labels
    assert "harmonic_diff_ratio_form" in labels


def test_run_suite_detects_corruption(table, triangle):
    bad = corrupt_entry(triangle, 5, 1)
    reports = run_suite(table, bad, 10)
    assert any(not r.holds for r in reports)


def test_structural_checks_clean_and_corrupted(table, triangle):
    explicit = build_by_explicit(N_MAX)
    checks = structural_checks(triangle, explicit, table)
    assert checks and all(c.ok for c in checks)
    bad = corrupt_entry(triangle, 7, 3)
    bad_checks = structural_checks(bad, explicit, table)
    failing = [c for c in bad_checks if not c.ok]
    assert failing
    assert any(c.check == "construction_agreement" and (c.n, c.k) == (7, 3) for c in failing)
