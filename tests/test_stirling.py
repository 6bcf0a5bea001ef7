"""Tests for classical Stirling numbers and harmonic numbers."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncstirling.exact import horner
from ncstirling.noncentral import build_by_explicit, build_by_recurrence
from ncstirling.stirling import (
    StirlingTable,
    evaluate_row,
    harmonic,
    scaled_rows,
    stirling_expansion_oracle,
)

N_MAX = 20


@pytest.fixture(scope="module")
def table():
    return StirlingTable(N_MAX)


def test_base_cases(table):
    assert table.signed(0, 0) == 1
    assert table.signed(1, 1) == 1
    for n in range(1, N_MAX + 1):
        assert table.signed(n, 0) == 0
        assert table.signed(n, n) == 1


def test_known_rows(table):
    assert table.row(3) == (0, 2, -3, 1)
    assert table.signed(3, 1) == 2
    assert table.signed(3, 2) == -3
    assert table.signed(4, 2) == 11
    assert table.row(4) == (0, -6, 11, -6, 1)


def test_expansion_oracle_small():
    assert list(stirling_expansion_oracle(0)) == [(1,)]
    assert list(stirling_expansion_oracle(3)) == [(1,), (0, 1), (0, -1, 1), (0, 2, -3, 1)]
    with pytest.raises(ValueError):
        next(stirling_expansion_oracle(-1))


def test_table_rows_match_expansion_oracle(table):
    # two independent constructions agree entry-for-entry
    rows = list(stirling_expansion_oracle(N_MAX))
    assert rows == [table.row(n) for n in range(N_MAX + 1)]


def test_scaled_rows_and_the_table_reject_a_negative_order():
    with pytest.raises(ValueError):
        next(scaled_rows(-1, 0, 1, 0))
    with pytest.raises(ValueError):
        StirlingTable(-1)


@given(n=st.integers(0, 40), p=st.integers(-60, 60), q=st.integers(1, 25),
       top=st.integers(0, 42))
def test_capped_rows_are_the_first_columns_of_whole_rows(n, p, q, top):
    # column i of the recurrence reads only columns <= i, so the cap loses nothing it keeps
    capped, whole = list(scaled_rows(n, p, q, top)), list(scaled_rows(n, p, q, n))
    assert len(capped) == len(whole) == n + 1
    assert capped == [row[:top + 1] for row in whole]


def test_unsigned_values(table):
    assert abs(table.signed(3, 2)) == 3
    assert abs(table.signed(2, 1)) == 1
    for n in range(N_MAX + 1):
        assert abs(table.signed(n, n)) == 1
        for k in range(n + 1):
            value = abs(table.signed(n, k))
            assert value >= 0
            assert value == (-1) ** (n - k) * table.signed(n, k)


def test_sign_pattern(table):
    for n in range(1, N_MAX + 1):
        for k in range(1, n + 1):
            s = table.signed(n, k)
            assert s != 0
            assert (s > 0) == ((n - k) % 2 == 0)


def test_unsigned_row_sums_are_factorials(table):
    for n in range(N_MAX + 1):
        assert sum(abs(table.signed(n, k)) for k in range(n + 1)) == math.factorial(n)


def test_signed_row_sums_vanish(table):
    # rising factorial at 1 is zero once two factors appear
    for n in range(2, N_MAX + 1):
        assert sum(table.signed(n, k) for k in range(n + 1)) == 0


def test_out_of_range_rejected(table):
    with pytest.raises(IndexError):
        table.signed(2, 3)
    with pytest.raises(IndexError):
        table.signed(N_MAX + 1, 0)
    with pytest.raises(IndexError):
        table.signed(-1, 0)


def test_noncentral_small(table):
    assert table.noncentral(0, 0) == (1,)
    assert table.noncentral(3, 0) == (0, -2, -3, -1)  # (-a)(-a-1)(-a-2)
    assert table.noncentral(3, 1) == (2, 6, 3)
    assert table.noncentral(4, 2) == (11, 18, 6)
    assert table.noncentral(5, 5) == (1,)


def test_noncentral_matches_both_constructions():
    n_max = 64
    table = StirlingTable(n_max)
    rows = [tuple(table.noncentral(n, k) for k in range(n + 1)) for n in range(n_max + 1)]
    assert tuple(rows) == build_by_recurrence(n_max).rows
    assert tuple(rows) == build_by_explicit(n_max).rows


@given(n=st.integers(0, N_MAX), p=st.integers(-60, 60), q=st.integers(1, 25))
def test_noncentral_evaluates_to_the_recurrence_row(table, n, p, q):
    # evaluate_row runs the recurrence at one rational alpha; the closed form
    # builds the polynomials from the classical table alone
    alpha = Fraction(p, q)
    assert [horner(table.noncentral(n, k), alpha) for k in range(n + 1)] == evaluate_row(n, alpha)


@pytest.mark.parametrize("n, k", [(2, 3), (N_MAX + 1, 0), (N_MAX + 1, N_MAX + 1),
                                  (-1, 0), (3, -1)])
def test_noncentral_out_of_range_rejected(table, n, k):
    with pytest.raises(IndexError):
        table.noncentral(n, k)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_differences():
    previous = harmonic(0)
    for n in range(1, 51):
        current = harmonic(n)
        assert current - previous == Fraction(1, n)
        assert current.denominator > 0
        previous = current

