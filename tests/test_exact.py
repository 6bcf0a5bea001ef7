"""Tests for the exact arithmetic substrate."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ncstirling.exact import (
    AlphaPoly,
    binomial_rational,
    falling_factorial,
    format_rational,
    horner,
    parse_rational,
    scaled_horner,
)
from ncstirling.stirling import stirling_expansion_oracle


def falling_factorial_in_alpha(k):
    """(-alpha)(-alpha-1)...(-alpha-k+1): row k of stirling_expansion_oracle,
    x(x-1)...(x-k+1), read at x = -alpha."""
    row = list(stirling_expansion_oracle(k))[k]
    return AlphaPoly([-c if j % 2 else c for j, c in enumerate(row)])


polys = st.builds(AlphaPoly, st.lists(st.integers(-50, 50), max_size=8))
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def test_trailing_zeros_trimmed():
    assert AlphaPoly([1, 2, 0, 0]).coefficients == (1, 2)
    assert AlphaPoly([0, 0]).coefficients == ()
    assert AlphaPoly([0, 0]) == AlphaPoly()
    assert len(AlphaPoly().coefficients) - 1 == -1


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        AlphaPoly([1.5])
    with pytest.raises(TypeError):
        AlphaPoly([Fraction(1, 2)])


def test_add_cancellation():
    # (1 + a) + (-a) = 1
    assert AlphaPoly([1, 1]) + AlphaPoly([0, -1]) == AlphaPoly([1])


def test_add_identity():
    p = AlphaPoly([3, 0, -2])
    assert AlphaPoly() + p == p


def test_add_by_hand():
    # (-2a - 1) + (2a) = -1
    assert AlphaPoly([-1, -2]) + AlphaPoly([0, 2]) == AlphaPoly([-1])


def test_mul_two_falling_factors():
    # (-a)(-a - 1) = a^2 + a
    assert AlphaPoly([0, -1]) * AlphaPoly([-1, -1]) == AlphaPoly([0, 1, 1])


def test_mul_absorbing_zero():
    assert AlphaPoly([4, -7, 1]) * AlphaPoly() == AlphaPoly()


def test_mul_three_falling_factors():
    # (-a)(-a-1)(-a-2) = -a^3 - 3a^2 - 2a
    product = AlphaPoly([0, -1]) * AlphaPoly([-1, -1]) * AlphaPoly([-2, -1])
    assert product == AlphaPoly([0, -2, -3, -1])


def test_eval_specializes_column_entry():
    # -2a - 1 at a = 1
    assert AlphaPoly([-1, -2])(1) == -3


def test_eval_at_zero_is_constant_term():
    p = AlphaPoly([7, -4, 9])
    assert p(0) == 7
    assert AlphaPoly()(Fraction(3, 5)) == 0


def test_eval_rational_point():
    # a^2 + a at 1/2
    assert AlphaPoly([0, 1, 1])(Fraction(1, 2)) == Fraction(3, 4)


@pytest.mark.parametrize(
    "k,expected",
    [
        (0, AlphaPoly([1])),
        (1, AlphaPoly([0, -1])),
        (3, AlphaPoly([0, -2, -3, -1])),
    ],
)
def test_falling_factorial_poly(k, expected):
    assert falling_factorial_in_alpha(k) == expected


@pytest.mark.parametrize("k", range(8))
@pytest.mark.parametrize("m", range(8))
def test_falling_factorial_poly_at_negative_integers(k, m):
    # at alpha = -m the polynomial equals m(m-1)...(m-k+1), by direct product
    expected = 1
    for j in range(k):
        expected *= m - j
    assert falling_factorial_in_alpha(k)(-m) == expected


def test_binomial_rational_values():
    assert binomial_rational(Fraction(-1), 3) == -1
    assert binomial_rational(Fraction(7, 2), 0) == 1
    assert binomial_rational(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial_rational(5, 2) == 10


def test_falling_factorial_exact():
    assert falling_factorial(Fraction(5), 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(Fraction(-3), 0) == 1


def test_large_factorial_scale_values():
    # falling factorials at the n=200 workload stay exact
    assert falling_factorial(200, 200) == math.factorial(200)


@given(p=polys, q=polys, r=polys)
def test_add_associative_and_distributive(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r


@given(p=polys, q=polys)
def test_mul_commutes_and_degree_adds(p, q):
    assert p * q == q * p
    if p != AlphaPoly() and q != AlphaPoly():
        # degrees add: len(coefficients) - 1 is the degree
        assert len((p * q).coefficients) - 1 == (
            len(p.coefficients) - 1) + (len(q.coefficients) - 1)


@given(p=polys, q=polys, x=rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def fraction_horner(coeffs, x):
    """Horner's rule on Fractions, one reduction per step: the reference for
    the integer Horner pass."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@given(p=st.builds(AlphaPoly, st.lists(st.integers(-10**6, 10**6), max_size=14)),
       x=st.one_of(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 25)),
                   st.integers(-60, 60)))
@example(p=AlphaPoly(), x=Fraction(3, 5))
@example(p=AlphaPoly(), x=7)
@example(p=AlphaPoly([-9]), x=Fraction(-4, 7))
@example(p=AlphaPoly([0, 5, -3]), x=Fraction(6))
@example(p=AlphaPoly([1, -2, 0, 4]), x=-3)
def test_integer_horner_matches_fraction_horner(p, x):
    for value in (p(x), horner(p.coefficients, x)):
        assert value == fraction_horner(p.coefficients, Fraction(x))
        if isinstance(x, int):
            assert type(value) is int
        elif p.coefficients:
            assert type(value) is Fraction
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1


@given(coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=14),
       p=st.integers(-60, 60), q=st.integers(1, 25))
@example(coeffs=[5], p=3, q=7)
@example(coeffs=[1, 0, 0], p=0, q=4)
@example(coeffs=[2, -3, 1], p=6, q=4)
def test_scaled_horner_is_the_value_times_q_to_the_degree(coeffs, p, q):
    # the integer itself, not only its ratio to q^d: two of them over one q^d are compared
    d = len(coeffs) - 1
    assert scaled_horner(tuple(coeffs), p, q) == fraction_horner(coeffs, Fraction(p, q)) * q ** d


@given(x=rationals)
def test_fraction_results_reduced_with_positive_denominator(x):
    value = binomial_rational(x, 3)
    assert value.denominator > 0
    assert math.gcd(value.numerator, value.denominator) == 1


def test_parse_rational():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(" 6/4 ") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("2/0")
    with pytest.raises(ValueError):
        parse_rational("x")
    # int() reads any Unicode decimal digit; the parser takes ASCII only
    for text in ("\u0661/\u0662", "\u0661", "1/\u0662", "\uff17/3"):
        with pytest.raises(ValueError):
            parse_rational(text)


@given(f=st.one_of(st.fractions(), st.integers()))
def test_format_rational(f):
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(5) == "5"
    assert parse_rational(format_rational(f)) == f
