"""Tests for the exact identity suite."""
import itertools
import random
from fractions import Fraction

import pytest

from ncstirling import identities, stirling
from ncstirling.exact import AlphaPoly
from ncstirling.identities import (
    random_rationals,
    run_suite,
    s_n1_recurrence,
    structural_checks,
)
from ncstirling.noncentral import (
    NoncentralTriangle,
    build_by_explicit,
    build_by_recurrence,
    corrupt_entry,
    triangle_from_json,
)
from ncstirling.stirling import StirlingTable, harmonic

N_MAX = 20


@pytest.fixture(scope="module")
def table():
    return StirlingTable(N_MAX)


@pytest.fixture(scope="module")
def triangle():
    return build_by_recurrence(N_MAX)


@pytest.fixture(scope="module")
def suite(table, triangle):
    return run_suite(table, triangle.rows)


def _lookup(reports, identity, n, alpha):
    """The report of one identity at (n, alpha); a point the random sample
    repeats gives equal reports, which count once."""
    (report,) = {r for r in reports if (r.identity, r.n, r.alpha) == (identity, n, alpha)}
    return report


def _points(reports, identity):
    return {(r.n, r.alpha) for r in reports if r.identity == identity}


def test_column_one_polynomial_small(table):
    assert table.noncentral(1, 1) == (1,)
    assert table.noncentral(2, 1) == (-1, -2)
    assert table.noncentral(3, 1) == (2, 6, 3)


def test_column_one_polynomial_matches_triangle(table, triangle):
    for n in range(1, N_MAX + 1):
        assert table.noncentral(n, 1) == triangle.rows[n][1]


def test_master_identity_hand_values(suite):
    r = _lookup(suite, "binomial_stirling_sum", 2, 1)
    assert (r.lhs, r.rhs, r.holds) == (3, 3, True)
    r = _lookup(suite, "binomial_stirling_sum", 1, 0)
    assert (r.lhs, r.rhs, r.holds) == (1, 1, True)  # 0^0 = 1 convention
    r = _lookup(suite, "binomial_stirling_sum", 3, 1)
    assert (r.lhs, r.rhs, r.holds) == (11, 11, True)


def test_master_identity_rhs_is_the_unsigned_power_sum(table, triangle):
    # the paper writes the right side as sum_k (k+1) |s(n,k+1)| a^k
    for seed in (0, 1, 2009):
        records = [r for r in run_suite(table, triangle.rows, seed=seed)
                   if r.identity == "binomial_stirling_sum"]
        assert len(records) == N_MAX * (2 * N_MAX + 1 + 30)
        for r in records:
            expected = sum((k + 1) * abs(table.signed(r.n, k + 1)) * r.alpha ** k
                           for k in range(r.n))
            assert r.rhs == expected


def test_master_identity_sweep(table, triangle):
    alphas = [Fraction(a) for a in range(-N_MAX, N_MAX + 1)]
    alphas += random_rationals(30, random.Random(123))
    records = [r for r in run_suite(table, triangle.rows, seed=123)
               if r.identity == "binomial_stirling_sum"]
    assert {(r.n, r.alpha) for r in records} == {
        (n, alpha) for n in range(1, N_MAX + 1) for alpha in alphas}
    assert all(r.holds for r in records)


def test_factorial_identity(suite):
    assert _lookup(suite, "factorial_from_stirling", 2, -1).lhs == 1
    assert _lookup(suite, "factorial_from_stirling", 3, -1).lhs == -1
    r = _lookup(suite, "factorial_from_stirling", 4, -1)
    assert (r.lhs, r.rhs) == (2, 2)
    for n in range(2, 16):
        assert _lookup(suite, "factorial_from_stirling", n, -1).holds
    # (n-2)! needs n >= 2
    assert _points(suite, "factorial_from_stirling") == {(n, -1) for n in range(2, N_MAX + 1)}


def test_harmonic_sum_identity(suite):
    assert _lookup(suite, "harmonic_sum", 1, 1).holds
    r = _lookup(suite, "harmonic_sum", 3, 1)
    assert (r.lhs, r.rhs) == (11, 11)
    r = _lookup(suite, "harmonic_sum", 4, 1)
    assert (r.lhs, r.rhs) == (50, 50)
    for n in range(1, 16):
        assert _lookup(suite, "harmonic_sum", n, 1).holds


def test_negative_alpha_closed_form_hand_values(suite):
    factorial_form = _lookup(suite, "neg_alpha_factorial_form", 2, -1)
    reciprocal_form = _lookup(suite, "neg_alpha_reciprocal_form", 2, -1)
    assert (factorial_form.lhs, factorial_form.rhs) == (1, 1)
    assert (reciprocal_form.lhs, reciprocal_form.rhs) == (1, 1)
    factorial_form = _lookup(suite, "neg_alpha_factorial_form", 3, -2)
    assert (factorial_form.lhs, factorial_form.rhs) == (2, 2)


def test_negative_alpha_closed_form_sweep(suite, triangle):
    for a in range(1, 9):
        for n in range(a + 1, 16):
            assert _lookup(suite, "neg_alpha_factorial_form", n, -a).holds
            assert _lookup(suite, "neg_alpha_reciprocal_form", n, -a).holds
            # the closed form also gives the k=1 column value itself
            value = _lookup(suite, "column1_neg_alpha_value", n, -a)
            assert value.lhs == triangle.evaluate(n, 1, -a) and value.holds
            assert s_n1_recurrence(n, Fraction(-a))[n] == value.rhs
    # the closed forms need a positive and n >= a + 1
    expected = {(n, -a) for a in range(1, 9) for n in range(a + 1, N_MAX + 1)}
    for identity in ("neg_alpha_factorial_form", "neg_alpha_reciprocal_form",
                     "column1_neg_alpha_value"):
        assert _points(suite, identity) == expected


def test_harmonic_difference_hand_values(suite):
    sum_form = _lookup(suite, "harmonic_diff_sum_form", 1, -2)
    assert sum_form.lhs == Fraction(1, 2) and sum_form.holds
    sum_form = _lookup(suite, "harmonic_diff_sum_form", 2, -2)
    ratio_form = _lookup(suite, "harmonic_diff_ratio_form", 2, -2)
    assert sum_form.lhs == Fraction(3, 2) and sum_form.holds and ratio_form.holds
    ratio_form = _lookup(suite, "harmonic_diff_ratio_form", 2, -3)
    assert ratio_form.rhs == Fraction(5, 6)
    assert ratio_form.lhs == harmonic(3) - harmonic(1)


def test_harmonic_difference_sweep(suite, triangle):
    for a in range(1, 11):
        for n in range(1, a + 1):
            assert _lookup(suite, "harmonic_diff_sum_form", n, -a).holds
            assert _lookup(suite, "harmonic_diff_ratio_form", n, -a).holds
            value = _lookup(suite, "column1_harmonic_value", n, -a)
            assert value.lhs == triangle.evaluate(n, 1, -a) and value.holds
            assert s_n1_recurrence(n, Fraction(-a))[n] == value.rhs
    # the harmonic difference H_a - H_(a-n) needs 1 <= n <= a
    expected = {(n, -a) for a in range(1, 11) for n in range(1, a + 1)}
    for identity in ("harmonic_diff_sum_form", "harmonic_diff_ratio_form",
                     "column1_harmonic_value"):
        assert _points(suite, identity) == expected


def test_hn_formulas_hand_values(suite):
    assert _lookup(suite, "hn_binomial_form", 1, 1).rhs == 1
    assert _lookup(suite, "hn_stirling_form", 1, 1).rhs == 1
    assert _lookup(suite, "hn_binomial_form", 2, 2).rhs == Fraction(3, 2)
    assert _lookup(suite, "hn_stirling_form", 2, 2).rhs == Fraction(3, 2)
    assert _lookup(suite, "hn_stirling_form", 3, 3).rhs == Fraction(11, 6)


def test_hn_formulas_sweep(suite):
    for n in range(1, 16):
        for identity in ("hn_binomial_form", "hn_stirling_form"):
            report = _lookup(suite, identity, n, n)
            assert report.holds
            assert report.lhs == harmonic(n)


def test_q_and_h_closed_forms(suite):
    assert _lookup(suite, "column1_neg_alpha_value", 2, -1).rhs == 1
    assert _lookup(suite, "column1_neg_alpha_value", 4, -2).rhs == -2  # (-1)^(4-2-1) * 2! * 1!
    assert _lookup(suite, "column1_harmonic_value", 1, -1).rhs == 1
    assert _lookup(suite, "column1_harmonic_value", 2, -2).rhs == 3


def test_random_rationals_ranges_and_determinism():
    sample = random_rationals(100, random.Random(0))
    again = random_rationals(100, random.Random(0))
    assert sample == again
    for value in sample:
        assert Fraction(-50) <= value <= Fraction(50)
        assert value.denominator <= 20


def test_run_suite_all_hold(table):
    triangle = build_by_recurrence(10)
    reports = run_suite(table, triangle.rows)
    assert reports
    assert all(r.holds for r in reports)
    assert all(r.holds == (r.lhs == r.rhs) for r in reports)
    # deterministic for a fixed seed
    assert run_suite(table, triangle.rows) == reports
    labels = {r.identity for r in reports}
    assert "binomial_stirling_sum" in labels
    assert "column1_sum_formula" in labels
    assert "harmonic_diff_ratio_form" in labels


def test_run_suite_detects_corruption(table):
    bad = list(corrupt_entry(build_by_recurrence(10).rows, 5, 1))
    reports = run_suite(table, bad)
    assert any(not r.holds for r in reports)


def test_structural_checks_read_empty_coefficients_as_zero():
    # a canonical document may hold "coeffs":[], the zero polynomial: constant
    # term 0, degree -1, leading coefficient 0
    doc = ('{"n_max":"1","entries":[{"n":"0","k":"0","coeffs":[]},'
           '{"n":"1","k":"0","coeffs":["0","-1"]},{"n":"1","k":"1","coeffs":["1"]}]}\n')
    checks = structural_checks(triangle_from_json(doc).rows, build_by_explicit(1).rows,
                               StirlingTable(1))
    failing = [(c.check, c.n, c.k, c.detail) for c in checks if not c.ok]
    assert failing == [
        ("construction_agreement", 0, 0, "expected AlphaPoly([1]), got AlphaPoly([])"),
        ("specialization_at_zero", 0, 0, "expected 1, got 0"),
        ("degree", 0, 0, "expected 0, got -1"),
        ("leading_sign", 0, 0, "expected 'sign 1', got 0"),
        ("boundary_falling_factorial", 0, 0, "expected AlphaPoly([1]), got AlphaPoly([])"),
        ("boundary_diagonal", 0, 0, "expected AlphaPoly([1]), got AlphaPoly([])"),
    ]


def test_structural_checks_reject_triangles_of_different_sizes():
    # rows 6..10 of the explicit triangle have no recurrence row to check against
    with pytest.raises(ValueError, match="argument 2 is shorter than argument 1"):
        structural_checks(build_by_recurrence(5).rows, build_by_explicit(10).rows,
                          StirlingTable(10))
    with pytest.raises(ValueError, match="argument 2 is shorter than argument 1"):
        structural_checks(build_by_recurrence(4).rows, build_by_explicit(4).rows,
                          StirlingTable(6))
    with pytest.raises(ValueError, match="argument 2 is longer than argument 1"):
        structural_checks(build_by_recurrence(6).rows, build_by_explicit(6).rows,
                          StirlingTable(4))


def test_structural_checks_reject_an_oracle_one_row_short(monkeypatch):
    # row N would otherwise go unchecked by every structural check
    short = stirling.stirling_expansion_oracle
    monkeypatch.setattr(identities, "stirling_expansion_oracle",
                        lambda n_max: itertools.islice(short(n_max), n_max))
    with pytest.raises(ValueError, match="is longer than argument 1"):
        structural_checks(build_by_recurrence(6).rows, build_by_explicit(6).rows, StirlingTable(6))


def test_structural_checks_reject_a_row_with_an_extra_entry():
    # an extra zero polynomial at the end of every explicit row, which no check reads by index
    padded = NoncentralTriangle(row + ((),) for row in build_by_explicit(6).rows)
    with pytest.raises(ValueError, match="row 0 holds 1 recurrence and 2 explicit entries"):
        structural_checks(build_by_recurrence(6).rows, padded.rows, StirlingTable(6))


@pytest.mark.parametrize("n_max", [0, 1, 2, 12])
def test_structural_checks_make_one_oracle_product_per_row(monkeypatch, n_max):
    # the classical rows come from one running product: row n is row n-1
    # times (x - n + 1), so N products in all, none restarted from 1
    triangles = build_by_recurrence(n_max).rows, build_by_explicit(n_max).rows, StirlingTable(n_max)
    products = []
    mul = AlphaPoly.__mul__

    def counted(self, other):
        products.append(other.coefficients)
        return mul(self, other)

    monkeypatch.setattr(AlphaPoly, "__mul__", counted)
    checks = structural_checks(*triangles)
    assert all(c.ok for c in checks)
    assert products == [(1 - n, 1) for n in range(1, n_max + 1)]


def _with_coefficient_raised(triangle, n, k, m):
    """Copy of the triangle with coefficient m of entry (n, k) raised by 1."""
    rows = [list(row) for row in triangle.rows]
    c = list(rows[n][k])
    c[m] += 1
    rows[n][k] = tuple(c)
    return NoncentralTriangle(rows)


@pytest.mark.parametrize("n, k, check", [(7, 1, "column_one_polynomial"),
                                         (12, 1, "column_one_polynomial"),
                                         (7, 0, "boundary_falling_factorial"),
                                         (12, 0, "boundary_falling_factorial")])
def test_structural_checks_catch_triangles_wrong_in_the_same_way(table, triangle, n, k, check):
    # both constructions carry the same wrong middle coefficient, so they agree
    # and keep the constant term, degree and leading sign; only the closed form
    # from the classical table sees the fault
    explicit = build_by_explicit(N_MAX)
    bad_recurrence = _with_coefficient_raised(triangle, n, k, 2)
    bad_explicit = _with_coefficient_raised(explicit, n, k, 2)
    assert bad_recurrence == bad_explicit
    checks = structural_checks(bad_recurrence.rows, bad_explicit.rows, table)
    failing = [(c.check, c.n, c.k) for c in checks if not c.ok]
    assert failing == [(check, n, k)]


def test_structural_checks_clean_and_corrupted(table, triangle):
    explicit = build_by_explicit(N_MAX)
    checks = structural_checks(triangle.rows, explicit.rows, table)
    assert checks and all(c.ok for c in checks)
    bad = corrupt_entry(triangle.rows, 7, 3)
    bad_checks = structural_checks(bad, explicit.rows, table)
    failing = [c for c in bad_checks if not c.ok]
    assert failing
    assert any(c.check == "construction_agreement" and (c.n, c.k) == (7, 3) for c in failing)
