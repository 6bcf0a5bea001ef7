"""Exact verification of the identity catalogue tied to the k=1 column of the
non-central triangle (the master binomial/Stirling identity, its factorial and harmonic
specializations and the closed forms at negative integer alpha), and the structural
checks that tie the two triangle constructions together, read one row at a time.

Every comparison in this module is exact rational arithmetic; there is no
tolerance anywhere.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, List, NamedTuple, Optional, Sequence

from .exact import (
    AlphaPoly,
    RationalLike,
    binomial_rational,  # noqa: F401  unused; perfbench/tracing.py patches this name
    format_rational,  # noqa: F401  unused; perfbench/tracing.py patches this name
    horner,
    scaled_horner,
)
from .noncentral import (
    alternating_sum_weights,
    s_n1_recurrence,
    s_n1_sum_formula,
    scaled_alternating_sum,
)
from .stirling import StirlingTable, stirling_expansion_oracle
from .stirling import harmonic  # noqa: F401  unused; perfbench/tracing.py patches this name

RANDOM_NUMERATOR_RANGE = (-50, 50)
RANDOM_DENOMINATOR_RANGE = (1, 20)
MASTER_RANDOM_POINTS = 30
COLUMN_RANDOM_POINTS = 20


class IdentityReport(NamedTuple):
    """Outcome of one exact identity check at a parameter point (n, alpha)."""

    identity: str
    n: int
    alpha: Fraction
    lhs: Fraction
    rhs: Fraction
    holds: bool


class StructuralCheck(NamedTuple):
    """Outcome of one exact structural check on triangle entry (n, k)."""

    check: str
    n: int
    k: Optional[int]
    ok: bool
    detail: str = ""


def random_rationals(count: int, rng: random.Random) -> List[Fraction]:
    """Seeded sample of rationals with numerator in [-50, 50], denominator in [1, 20]."""
    lo_n, hi_n = RANDOM_NUMERATOR_RANGE
    lo_d, hi_d = RANDOM_DENOMINATOR_RANGE
    return [
        Fraction(rng.randint(lo_n, hi_n), rng.randint(lo_d, hi_d))
        for _ in range(count)
    ]


def run_suite(table: StirlingTable, rows: Sequence[Sequence[Sequence[int]]],
              seed: int = 0) -> List[IdentityReport]:
    """Check the paper's identities exactly for n = 1..N, N = len(rows) - 1,
    and return one report (identity, n, alpha, lhs, rhs) per point, in this
    order. P_n(a) = sum_k (k+1) s(n,k+1) (-a)^k is table.noncentral(n, 1),
    the closed form at k=1 (s(n, 1, a) from classical numbers), S(a, n) =
    sum_{k<n} (-1)^k C(-a, k)/(n-k) the alternating binomial sum, H_n the
    harmonic number and s(n, 1, a) the triangle's value rows[n][1], the one entry read.

    For every n, at a = -N..N and 30 random rationals, then at the points
    reported as alpha = -1, 1, n and n:
      binomial_stirling_sum      n! S(a, n) == (-1)^(n-1) P_n(a)
                                 (= sum_k (k+1) |s(n,k+1)| a^k)
      factorial_from_stirling    (-1)^n (n-2)! == P_n(-1), n >= 2
      harmonic_sum               n! H_n == (-1)^(n-1) P_n(1)
      hn_binomial_form           H_n == (-1)^(n+1) S(-n, n)
      hn_stirling_form           H_n == P_n(-n) / n!
    At a = -b for 1 <= b <= 8 and n > b:
      neg_alpha_factorial_form   n! (-1)^b S(-b, n) == b! (n-b-1)!
      neg_alpha_reciprocal_form  (b+1) (-1)^b S(-b, n) == 1 / C(n, b+1)
      column1_neg_alpha_value    s(n, 1, -b) == (-1)^(n-b-1) b! (n-b-1)!
    At a = -b for 1 <= n <= b <= 10:
      harmonic_diff_sum_form     H_b - H_(b-n) == (-1)^(n+1) S(-b, n) / C(b, n)
      harmonic_diff_ratio_form   H_b - H_(b-n) == P_n(-b) / sum_k s(n,k) b^k
      column1_harmonic_value     s(n, 1, -b) == (H_b - H_(b-n)) b! / (b-n)!
    At 20 more random rationals a:
      column1_sum_formula        s(n, 1, a) == s_n1_sum_formula(n, a)
      column1_recurrence         s(n, 1, a) == s_n1_recurrence(N, a)[n]

    The random rationals are drawn from ``random.Random(seed)``, so a run is
    reproducible from (N, seed) alone.

    The two sides are compared exactly, each built as few times as it can be. At
    a = p/q, binomial_stirling_sum compares two integers over the common
    denominator q^(n-1): scaled_alternating_sum, n! q^(n-1) S(a, n), with
    scaled_horner of (-1)^(n-1) P_n, of degree n-1. Every other identity compares
    its two sides as ints or Fractions. A report that holds stores one Fraction
    as both lhs and rhs; one that fails stores both. Each H_m, m <= N, is summed
    once.
    """
    n_max = len(rows) - 1
    rng = random.Random(seed)
    # (alpha as reported, alpha as computed with): an integer alpha runs on ints
    master_alphas = [(Fraction(a), a) for a in range(-n_max, n_max + 1)]
    master_alphas += [(a, a) for a in random_rationals(MASTER_RANDOM_POINTS, rng)]
    column_alphas = random_rationals(COLUMN_RANDOM_POINTS, rng)
    column = {n: table.noncentral(n, 1) for n in range(1, n_max + 1)}
    weights = [alternating_sum_weights(n) for n in range(n_max + 1)]
    harmonics = list(accumulate((Fraction(1, m) for m in range(1, n_max + 1)),
                                initial=Fraction(0)))  # H_0..H_N; b <= min(10, N) below
    reports: List[IdentityReport] = []

    def fraction(value: RationalLike) -> Fraction:
        return value if isinstance(value, Fraction) else Fraction(value)

    def add(identity: str, n: int, alpha: RationalLike,
            lhs: RationalLike, rhs: RationalLike) -> None:
        # an int becomes one Fraction, a Fraction is kept; sides that agree share one
        lhs = fraction(lhs)
        rhs = lhs if lhs == rhs else fraction(rhs)
        reports.append(IdentityReport(identity, n, fraction(alpha), lhs, rhs, lhs is rhs))

    for n in range(1, n_max + 1):
        p = column[n]
        sign = (-1) ** (n - 1)
        signed_p = tuple([sign * c for c in p])
        n_fact = math.factorial(n)
        for alpha, a in master_alphas:
            # both sides as integers over q^(n-1): signed_p has degree n - 1
            q = a.denominator
            total = scaled_alternating_sum(weights[n], a)
            value = scaled_horner(signed_p, a.numerator, q)
            lhs = Fraction(total, q ** (n - 1))
            rhs = lhs if value == total else Fraction(value, q ** (n - 1))
            reports.append(IdentityReport("binomial_stirling_sum", n, alpha, lhs, rhs, lhs is rhs))
        if n >= 2:
            add("factorial_from_stirling", n, -1, (-1) ** n * math.factorial(n - 2),
                horner(p, -1))
        hn = harmonics[n]
        add("harmonic_sum", n, 1, n_fact * hn, sign * horner(p, 1))
        add("hn_binomial_form", n, n, hn,
            Fraction(sign * scaled_alternating_sum(weights[n], -n), n_fact))
        add("hn_stirling_form", n, n, hn, Fraction(horner(p, -n), n_fact))

    for b in range(1, min(8, n_max - 1) + 1):
        for n in range(b + 1, n_max + 1):
            total = (-1) ** b * scaled_alternating_sum(weights[n], -b)  # n! (-1)^b S(-b, n)
            closed = math.factorial(b) * math.factorial(n - b - 1)
            add("neg_alpha_factorial_form", n, -b, total, closed)
            add("neg_alpha_reciprocal_form", n, -b, Fraction((b + 1) * total, math.factorial(n)),
                Fraction(1, math.comb(n, b + 1)))
            add("column1_neg_alpha_value", n, -b, horner(rows[n][1], -b),
                (-1) ** (n - b - 1) * closed)

    for b in range(1, min(10, n_max) + 1):
        for n in range(1, b + 1):
            direct = harmonics[b] - harmonics[b - n]
            add("harmonic_diff_sum_form", n, -b, direct,
                Fraction((-1) ** (n + 1) * scaled_alternating_sum(weights[n], -b),
                         math.comb(b, n) * math.factorial(n)))
            # sum_k s(n,k) b^k is the falling factorial b!/(b-n)!, positive here
            add("harmonic_diff_ratio_form", n, -b, direct,
                Fraction(horner(column[n], -b), horner(table.row(n), b)))
            add("column1_harmonic_value", n, -b, horner(rows[n][1], -b),
                direct * (math.factorial(b) // math.factorial(b - n)))

    for alpha in column_alphas:
        recurrence = s_n1_recurrence(n_max, alpha)
        for n in range(1, n_max + 1):
            value = horner(rows[n][1], alpha)
            add("column1_sum_formula", n, alpha, value, s_n1_sum_formula(n, alpha, weights[n]))
            add("column1_recurrence", n, alpha, value, recurrence[n])
    return reports


def structural_checks(by_recurrence: Iterable[Sequence[Sequence[int]]],
                      by_explicit: Iterable[Sequence[Sequence[int]]],
                      table: StirlingTable) -> List[StructuralCheck]:
    """Exact structural checks over every entry of two triangles, read one row of each at a
    time: construction agreement, specialization at alpha=0, degree and leading-sign pattern,
    the k=0 and k=1 columns against the closed form table.noncentral, the diagonal
    s(n, n, alpha) = 1 and the classical rows against stirling_expansion_oracle. Row n must
    hold n + 1 entries, and zip raises ValueError unless both give table.n_max + 1 rows."""
    checks: List[StructuralCheck] = []

    def add(name, n, k, ok, expected=None, actual=None):
        detail = "" if ok else "expected %r, got %r" % (expected, actual)
        checks.append(StructuralCheck(name, n, k, ok, detail))

    def add_poly(name, n, k, expected, actual):
        if expected == actual:
            add(name, n, k, True)
        else:
            add(name, n, k, False, AlphaPoly(expected), AlphaPoly(actual))

    # An entry's coefficient tuple c has constant term c[0], degree len(c) - 1
    # and leading coefficient c[-1]; the empty tuple is the zero polynomial.
    rows = zip(stirling_expansion_oracle(table.n_max), by_recurrence, by_explicit, strict=True)
    for n, (oracle, rec_row, exp_row) in enumerate(rows):
        if not len(rec_row) == len(exp_row) == n + 1:
            raise ValueError("row %d holds %d recurrence and %d explicit entries, not %d"
                             % (n, len(rec_row), len(exp_row), n + 1))
        for k, (rec, exp) in enumerate(zip(rec_row, exp_row)):
            add_poly("construction_agreement", n, k, exp, rec)
            constant, lead = (rec[0], rec[-1]) if rec else (0, 0)
            add("specialization_at_zero", n, k, constant == table.signed(n, k),
                table.signed(n, k), constant)
            add("degree", n, k, len(rec) - 1 == n - k, n - k, len(rec) - 1)
            lead_ok = lead > 0 if (n - k) % 2 == 0 else lead < 0
            add("leading_sign", n, k, lead_ok, "sign %d" % ((-1) ** (n - k)), lead)
        add_poly("boundary_falling_factorial", n, 0, table.noncentral(n, 0), rec_row[0])
        add_poly("boundary_diagonal", n, n, (1,), rec_row[n])
        add("classical_expansion_oracle", n, None,
            table.row(n) == oracle, oracle, table.row(n))
        if n >= 1:
            add_poly("column_one_polynomial", n, 1, table.noncentral(n, 1), rec_row[1])
    return checks

