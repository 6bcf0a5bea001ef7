"""Tests for the truncated-Taylor derivative oracle."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ncstirling import jets
from ncstirling.exact import falling_factorial
from ncstirling.jets import (
    JetDomainError,
    _check_point,
    evaluate_expansion,
    expansion_grid,
    jet_exp,
    jet_ln,
    jet_mul,
    jet_pow_real,
    jet_seed,
)
from ncstirling.noncentral import build_by_recurrence
from ncstirling.stirling import StirlingTable, evaluate_row


@pytest.fixture(scope="module")
def triangle():
    return build_by_recurrence(12)


def row_of(triangle, n, alpha):
    """The exact row [s(n, 0, alpha), ..., s(n, n, alpha)] read from the triangle."""
    return [triangle.evaluate(n, i, alpha) for i in range(n + 1)]


def derivative_by_jets(x0: float, alpha: float, beta: float, n: int) -> float:
    """n-th derivative of x^(-alpha) * ln^beta(x) at x0 by jet arithmetic: the grid's
    reference, one point at a time, whose value the grid must reproduce bit for bit.

    The function is built as exp(-alpha ln x) * exp(beta ln ln x) (with the
    integer-power shortcut of jet_pow_real), which needs x0 > 1 so that both
    logs are defined for arbitrary real exponents. The tests call it at orders
    up to the grid's, 8; how far the factorial scaling of the top coefficient
    leaves binary64 accurate beyond that is not measured.
    """
    _check_point(x0, alpha, beta)
    x = jet_seed(x0, n)
    jet = jet_mul(jet_pow_real(x, -float(alpha)), jet_pow_real(jet_ln(x), float(beta)))
    return math.factorial(n) * jet[n]


def test_jet_seed():
    assert jet_seed(2.0, 2) == [2.0, 1.0, 0.0]
    assert jet_seed(math.e, 0) == [math.e]
    assert jet_seed(5.0, 4) == [5.0, 1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        jet_seed(1.0, -1)


def test_jet_ln_at_one():
    # ln(1 + h) = h - h^2/2 + ...
    assert jet_ln(jet_seed(1.0, 2)) == [0.0, 1.0, -0.5]


def test_jet_mul_truncates():
    assert jet_mul([1.0, 1.0], [1.0, -1.0]) == [1.0, 0.0]
    with pytest.raises(ValueError):
        jet_mul([1.0, 0.0], [1.0])


def test_jet_pow_cube():
    # d/dx x^3 at 2
    assert jet_pow_real(jet_seed(2.0, 1), 3.0) == pytest.approx([8.0, 12.0], rel=1e-12)


def test_jet_pow_integer_exponent_keeps_zeros_exact():
    # x^2 to order 5: coefficients above degree 2 must be exactly zero
    jet = jet_pow_real(jet_seed(1.5, 5), 2.0)
    assert jet[3:] == [0.0, 0.0, 0.0]


def test_domain_errors():
    with pytest.raises(JetDomainError):
        jet_ln([-1.0, 1.0])
    with pytest.raises(JetDomainError):
        jet_pow_real([0.0, 1.0], 0.5)


def test_derivative_of_log():
    assert derivative_by_jets(2.0, 0.0, 1.0, 1) == pytest.approx(0.5, rel=1e-12)


def test_second_derivative_of_reciprocal():
    assert derivative_by_jets(2.0, 1.0, 0.0, 2) == pytest.approx(0.25, rel=1e-12)


def test_derivative_rejects_bad_arguments():
    with pytest.raises(ValueError):
        derivative_by_jets(1.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        derivative_by_jets(0.5, 0.0, 1.0, 1)
    for x0, alpha, beta in ((math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0),
                            (2.0, math.nan, 1.0), (2.0, 0.0, math.nan),
                            (2.0, 0.0, -math.inf)):
        with pytest.raises(ValueError):
            derivative_by_jets(x0, alpha, beta, 1)


def test_expansion_rejects_non_finite_or_small_x0_and_beta(triangle):
    for x0, beta in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan),
                     (2.0, math.inf), (1.0, 1.0)):
        with pytest.raises(ValueError):
            evaluate_expansion(x0, Fraction(1, 2), beta,
                               row_of(triangle, 3, Fraction(1, 2)))


def test_jets_cross_check_expansion_at_fractional_exponents(triangle):
    jet_value = derivative_by_jets(math.e, 0.5, 1.5, 3)
    expansion = evaluate_expansion(math.e, Fraction(1, 2), 1.5,
                                   row_of(triangle, 3, Fraction(1, 2)))
    assert jet_value == pytest.approx(expansion, rel=1e-8)


def test_expansion_order_zero(triangle):
    beta = 1.5
    expected = 2.0 ** -0.5 * math.log(2.0) ** beta
    row = row_of(triangle, 0, Fraction(1, 2))
    assert evaluate_expansion(2.0, Fraction(1, 2), beta, row) == pytest.approx(
        expected, rel=1e-14
    )


def test_expansion_first_derivative_of_log(triangle):
    assert evaluate_expansion(2.0, 0, 1.0, row_of(triangle, 1, 0)) == pytest.approx(
        0.5, rel=1e-14)


def test_expansion_only_constant_log_power_survives(triangle):
    # beta = 0 keeps only the i = 0 term: s(2,0,1) * x^-3 = 2/8
    assert evaluate_expansion(2.0, 1, 0.0, row_of(triangle, 2, 1)) == 0.25


def test_expansion_skips_zero_weight_terms_before_rounding(triangle):
    # integer beta = 2: the terms i > 2 have weight (2)_i = 0, so their row
    # values are never converted to float; 10**400 would overflow if they were
    alpha, x0 = Fraction(1, 2), 2.0
    row = row_of(triangle, 6, alpha)
    huge = row[:3] + [Fraction(10 ** 400)] * 4
    assert evaluate_expansion(x0, alpha, 2.0, huge) == evaluate_expansion(x0, alpha, 2.0, row)
    # fractional beta keeps every term, so the same row must reach float()
    with pytest.raises(OverflowError):
        evaluate_expansion(x0, alpha, 2.5, huge)


def test_integer_beta_terms_above_beta_vanish(triangle):
    # with beta = 2 the falling factorial kills every term with i > 2,
    # so truncating the sum there changes nothing, bit for bit
    n, alpha, beta, x0 = 6, Fraction(1, 2), 2.0, 2.0
    full = evaluate_expansion(x0, alpha, beta, row_of(triangle, n, alpha))
    power = x0 ** float(-alpha - n)
    truncated = 0.0
    for i in range(3):
        weight = falling_factorial(beta, i)
        coeff = float(triangle.evaluate(n, i, alpha))
        truncated += coeff * weight * power * math.log(x0) ** (beta - i)
    assert full == truncated
    for i in range(3, n + 1):
        assert falling_factorial(beta, i) == 0.0


def _expansion_by_falling_factorials(x0, alpha, beta, row):
    """The expansion with each weight (beta)_i built from 1 by falling_factorial."""
    n, log_x0, beta = len(row) - 1, math.log(x0), float(beta)
    power = float(x0) ** float(-Fraction(alpha) - n)
    total = 0.0
    for i, value in enumerate(row):
        weight = falling_factorial(beta, i)
        if weight != 0.0:
            total += float(value) * weight * power * log_x0 ** (beta - i)
    return total


def _outcome(evaluate, *args):
    try:
        return repr(evaluate(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(n=st.integers(0, 120),
       alpha=st.builds(Fraction, st.integers(-60, 60), st.integers(1, 7)),
       beta=st.one_of(st.integers(-8, 130).map(float),
                      st.integers(-17, 261).map(lambda m: m / 2),
                      st.floats(-300.0, 300.0),
                      st.sampled_from([1e308, -1e308, 1e154, 1.7976931348623157e308])),
       x0=st.sampled_from([1.5, 2.0, math.e, 5.0, 1.000001, 1e6]))
@example(n=3, alpha=Fraction(1), beta=1e308, x0=2.0)
@example(n=120, alpha=Fraction(7, 3), beta=2.5, x0=1.5)
@example(n=150, alpha=Fraction(-7), beta=1.5, x0=2.0)
def test_expansion_weights_match_per_term_falling_factorials(n, alpha, beta, x0):
    # the running product (beta)_i runs the same float operations in the same
    # order as a falling factorial per term, so value or exception is the same
    row = evaluate_row(n, alpha)
    assert (_outcome(evaluate_expansion, x0, alpha, beta, row)
            == _outcome(_expansion_by_falling_factorials, x0, alpha, beta, row))


def _expansion_with_fraction_exponent(x0, alpha, beta, row):
    """The expansion with its exponent formed in Fraction arithmetic, float(-alpha - n)."""
    n, log_x0, beta = len(row) - 1, math.log(x0), float(beta)
    power = float(x0) ** float(-Fraction(alpha) - n)
    total, weight = 0.0, 1
    for i, value in enumerate(row):
        if weight != 0.0:
            total += float(value) * weight * power * log_x0 ** (beta - i)
        weight *= beta - i
    return total


@given(n=st.integers(0, 40),
       alpha=st.one_of(st.integers(-60, 60),
                       st.builds(Fraction, st.integers(-60, 60), st.integers(1, 25))),
       beta=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, -1.5]),
       x0=st.sampled_from([1.5, 2.0, math.e, 5.0]))
@example(n=8, alpha=-2, beta=0.5, x0=math.e)
@example(n=8, alpha=Fraction(-1, 2), beta=2.5, x0=5.0)
@example(n=3, alpha=Fraction(59, 7), beta=0.5, x0=1.5)
def test_expansion_exponent_is_the_float_of_the_fraction(n, alpha, beta, x0):
    # -alpha - n as one int division (-p - nq)/q rounds like float(-Fraction(alpha) - n),
    # at int and Fraction alphas of both signs, so the sum is the same bit for bit
    p, q = alpha.numerator, alpha.denominator
    assert ((-p - n * q) / q).hex() == float(-Fraction(alpha) - n).hex()
    row = evaluate_row(n, alpha)
    assert (evaluate_expansion(x0, alpha, beta, row).hex()
            == _expansion_with_fraction_exponent(x0, alpha, beta, row).hex())



@given(order=st.integers(0, 60),
       alpha=st.builds(Fraction, st.integers(-60, 60), st.integers(1, 7)),
       beta=st.one_of(st.integers(-3, 70).map(float), st.floats(-200.0, 200.0),
                      st.sampled_from([1e308, -1e308, 1e-300, 5e-324, -0.0])),
       x0=st.sampled_from([1.5, 2.0, math.e, 5.0]))
@example(order=8, alpha=Fraction(1, 2), beta=8.0, x0=2.0)
@example(order=8, alpha=Fraction(1, 2), beta=9.0, x0=2.0)
@example(order=3, alpha=Fraction(1), beta=1e308, x0=5.0)
def test_expansion_factors_end_at_the_first_zero_weight(order, alpha, beta, x0):
    # (beta)_i is zero for every i > m at an integer beta = m >= 0 and for no i otherwise,
    # so the factors hold m + 1 or order + 1 pairs, and their sum is, bit for bit, the one
    # over the whole running product that skips each zero weight
    row = evaluate_row(order, alpha)
    expected = _outcome(_expansion_with_fraction_exponent, x0, alpha, beta, row)
    try:
        factors = jets._expansion_factors(x0, beta, order)
    except OverflowError as exc:  # ln(x0)^(beta-i) out of range, in both
        assert expected == (OverflowError, str(exc))
        return
    assert all(weight != 0.0 for weight, _ in factors)
    integer = beta.is_integer() and 0 <= beta <= order
    assert len(factors) == (int(beta) if integer else order) + 1
    assert _outcome(jets._expansion_sum, row, x0, alpha, factors) == expected


def test_pure_log_powers_match_classical_composition(triangle):
    # alpha = 0, beta = m: the jet derivative of ln^m x must match the
    # composition formula built from classical s(n, i) directly
    table = StirlingTable(12)
    for m in (1, 2, 3):
        n = m + 1
        for x0 in (2.0, math.e):
            jet_value = derivative_by_jets(x0, 0.0, float(m), n)
            log_x0 = math.log(x0)
            classical = sum(
                table.signed(n, i)
                * falling_factorial(float(m), i)
                * x0 ** (-n)
                * log_x0 ** (m - i)
                for i in range(1, n + 1)
            )
            assert jet_value == pytest.approx(classical, rel=1e-10)


@given(
    st.lists(st.floats(0.2, 2.0), min_size=1, max_size=9).map(
        lambda coeffs: [max(c, 0.5) if i == 0 else c for i, c in enumerate(coeffs)]
    )
)
def test_exp_ln_round_trip(jet):
    recovered = jet_exp(jet_ln(jet))
    for original, back in zip(jet, recovered):
        assert back == pytest.approx(original, rel=1e-12)


@pytest.fixture(scope="module")
def grid(triangle):
    """The grid's 1,260 records, n = 0..8, keyed by (n, alpha, beta, x0)."""
    return {(r.n, r.alpha, r.beta, r.x0): r for r in expansion_grid(triangle.rows)}


def test_verify_order_zero_residual_vanishes(grid):
    zero = [r for r in grid.values() if r.n == 0]
    assert len(zero) == 7 * 5 * 4
    assert all(r.rel_residual <= 1e-12 and r.passed for r in zero)


def test_verify_spot_points(grid):
    assert grid[4, 2, 2.0, 2.0].rel_residual <= 1e-8
    assert grid[3, -1, 1.0, math.e].rel_residual <= 1e-8


def test_identically_zero_derivatives_give_zero_residual(grid):
    # x^2 differentiated three times is identically zero; both sides must
    # agree exactly, not merely to rounding
    report = grid[3, -2, 0.0, 1.5]
    assert report.jet_value == 0.0
    assert report.expansion_value == 0.0
    assert report.rel_residual == 0.0


def test_grid_reads_the_same_floats_as_derivative_by_jets(grid):
    # the product of the shared factor jets of the top order gives, bit for bit,
    # the derivative that derivative_by_jets builds from factor jets of order n
    assert len(grid) == 9 * 7 * 5 * 4
    for (n, alpha, beta, x0), report in grid.items():
        expected = derivative_by_jets(x0, float(alpha), beta, n)
        assert report.jet_value.hex() == expected.hex(), (n, alpha, beta, x0)


@pytest.mark.parametrize("n_max", [12, 5])
def test_grid_expansion_values_are_evaluate_expansion_bit_for_bit(n_max):
    # the grid builds its float factors once; each point's value must still be, bit for
    # bit, evaluate_expansion's on the same row rounded to float
    triangle = build_by_recurrence(n_max)
    reports = expansion_grid(triangle.rows)
    assert len(reports) == (min(8, n_max) + 1) * 7 * 5 * 4
    for r in reports:
        row = [float(triangle.evaluate(r.n, i, r.alpha)) for i in range(r.n + 1)]
        expected = evaluate_expansion(r.x0, r.alpha, r.beta, row)
        assert r.expansion_value.hex() == expected.hex(), (r.n, r.alpha, r.beta, r.x0)


def test_small_grid_passes():
    reports = expansion_grid(build_by_recurrence(4).rows)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("n_max", [8, 3])
def test_grid_builds_each_factor_jet_once(monkeypatch, n_max):
    # one seed per x0 (4) and one power jet per (alpha, x0) and per (beta, x0):
    # 7 * 4 + 5 * 4 = 48
    calls = {"jet_seed": 0, "jet_pow_real": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(jets, name, counting(name, getattr(jets, name)))
    jets.expansion_grid(build_by_recurrence(n_max).rows)
    assert calls == {"jet_seed": 4, "jet_pow_real": 48}
