"""Exact verification of the identity catalogue tied to the k=1 column of the
non-central triangle: the master binomial/Stirling identity, its factorial and
harmonic specializations, the closed forms at negative integer alpha, and the
structural checks that tie the two triangle constructions together.

Every comparison in this module is exact rational arithmetic; there is no
tolerance anywhere.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .exact import (
    AlphaPoly,
    RationalLike,
    binomial_rational,  # noqa: F401  unused; perfbench/tracing.py patches this name
    falling_factorial_poly,
    format_rational,
)
from .noncentral import (
    NoncentralTriangle,
    alternating_binomial_sum,
    s_n1_recurrence,
    s_n1_sum_formula,
)
from .stirling import StirlingTable, harmonic, stirling_expansion_oracle

RANDOM_NUMERATOR_RANGE = (-50, 50)
RANDOM_DENOMINATOR_RANGE = (1, 20)
MASTER_RANDOM_POINTS = 30
COLUMN_RANDOM_POINTS = 20


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check at a parameter point (n, alpha)."""

    identity: str
    n: int
    alpha: Optional[Fraction]
    lhs: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class StructuralCheck:
    """Outcome of one exact structural check on triangle entry (n, k)."""

    check: str
    n: int
    k: Optional[int]
    ok: bool
    detail: str = ""


def _report(identity: str, n: int, alpha: Optional[RationalLike],
            lhs: RationalLike, rhs: RationalLike) -> IdentityReport:
    lhs_f, rhs_f = Fraction(lhs), Fraction(rhs)
    return IdentityReport(
        identity=identity,
        n=n,
        alpha=None if alpha is None else Fraction(alpha),
        lhs=lhs_f,
        rhs=rhs_f,
        holds=lhs_f == rhs_f,
    )


def column_one_polynomial(table: StirlingTable, n: int) -> AlphaPoly:
    """The k=1 column as a polynomial assembled from classical Stirling numbers:
    coefficient of alpha^k is (k+1) * s(n, k+1) * (-1)^k."""
    if n < 1:
        raise ValueError("n must be positive")
    sign = 1
    coeffs = []
    for k in range(n):
        coeffs.append(sign * (k + 1) * table.signed(n, k + 1))
        sign = -sign
    return AlphaPoly(coeffs)


def check_binomial_stirling_identity(table: StirlingTable, n: int,
                                     alpha: RationalLike) -> List[IdentityReport]:
    """Master identity: for every real alpha,

        n! * sum_{k=0}^{n-1} (-1)^k C(-alpha, k)/(n-k)
            == sum_{k=0}^{n-1} (k+1) |s(n, k+1)| alpha^k,

    whose right side is (-1)^(n-1) s(n, 1, alpha), read off the column-one
    polynomial.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = Fraction(alpha)
    lhs = math.factorial(n) * alternating_binomial_sum(a, n)
    rhs = (-1) ** (n - 1) * column_one_polynomial(table, n)(a)
    return [_report("binomial_stirling_sum", n, a, lhs, rhs)]


def check_factorial_identity(table: StirlingTable, n: int) -> List[IdentityReport]:
    """At alpha = -1 the master identity collapses to
    (-1)^n (n-2)! == sum_k (k+1) s(n, k+1) with signed Stirling numbers,
    which is the column-one polynomial at -1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    lhs = (-1) ** n * math.factorial(n - 2)
    rhs = column_one_polynomial(table, n)(-1)
    return [_report("factorial_from_stirling", n, Fraction(-1), lhs, rhs)]


def check_harmonic_sum(table: StirlingTable, n: int) -> List[IdentityReport]:
    """At alpha = 1: n! * H_n == sum_k (k+1) |s(n, k+1)|, which is
    (-1)^(n-1) times the column-one polynomial at 1."""
    if n < 1:
        raise ValueError("n must be positive")
    lhs = math.factorial(n) * harmonic(n)
    rhs = (-1) ** (n - 1) * column_one_polynomial(table, n)(1)
    return [_report("harmonic_sum", n, Fraction(1), lhs, rhs)]


def q_closed_form(n: int, alpha_pos: int) -> Fraction:
    """Closed form of s(n, 1, -alpha_pos) for n >= alpha_pos + 1:
    (-1)^(n - alpha_pos - 1) * alpha_pos! * (n - alpha_pos - 1)!."""
    if alpha_pos < 1:
        raise ValueError("alpha_pos must be positive")
    if n < alpha_pos + 1:
        raise ValueError("requires n >= alpha_pos + 1")
    sign = -1 if (n - alpha_pos - 1) % 2 else 1
    return Fraction(sign * math.factorial(alpha_pos) * math.factorial(n - alpha_pos - 1))


def check_negative_alpha_closed_form(table: StirlingTable, n: int,
                                     alpha_pos: int) -> List[IdentityReport]:
    """For positive integers a = alpha_pos and n >= a + 1, check both

        n! * sum_{k=0}^{a} (-1)^(a-k) C(a,k)/(n-k) == a! (n-a-1)!
        (a+1) * sum_{k=0}^{a} (-1)^(a-k) C(a,k)/(n-k) == 1 / C(n, a+1).
    """
    a = alpha_pos
    if a < 1:
        raise ValueError("alpha_pos must be positive")
    if n < a + 1:
        raise ValueError("requires n >= alpha_pos + 1")
    total = (-1) ** a * alternating_binomial_sum(-a, n)
    point = Fraction(-a)
    reports = [
        _report("neg_alpha_factorial_form", n, point,
                math.factorial(n) * total,
                math.factorial(a) * math.factorial(n - a - 1)),
        _report("neg_alpha_reciprocal_form", n, point,
                (a + 1) * total,
                Fraction(1, math.comb(n, a + 1))),
    ]
    return reports


def h_closed_form(n: int, alpha_pos: int) -> Fraction:
    """Closed form of s(n, 1, -alpha_pos) for 1 <= n <= alpha_pos:
    (H_a - H_{a-n}) * a! / (a-n)! with a = alpha_pos."""
    a = alpha_pos
    if a < 1:
        raise ValueError("alpha_pos must be positive")
    if not 1 <= n <= a:
        raise ValueError("requires 1 <= n <= alpha_pos")
    return (harmonic(a) - harmonic(a - n)) * Fraction(math.factorial(a), math.factorial(a - n))


def check_harmonic_difference(table: StirlingTable, n: int,
                              alpha_pos: int) -> List[IdentityReport]:
    """For a positive integer a = alpha_pos and 1 <= n <= a, compare
    H_a - H_{a-n} against the alternating binomial sum form and against the
    signed-Stirling ratio form: the column-one polynomial at -a over the
    classical row polynomial at a."""
    a = alpha_pos
    if a < 1:
        raise ValueError("alpha_pos must be positive")
    if not 1 <= n <= a:
        raise ValueError("requires 1 <= n <= alpha_pos")
    direct = harmonic(a) - harmonic(a - n)
    outer = -1 if (n + 1) % 2 else 1
    sum_form = Fraction(outer, math.comb(a, n)) * alternating_binomial_sum(-a, n)
    # The denominator sum_k s(n,k) a^k is the falling factorial a!/(a-n)!,
    # positive for 1 <= n <= a.
    numerator = column_one_polynomial(table, n)(-a)
    denominator = AlphaPoly(table.row(n))(a)
    ratio_form = Fraction(numerator, denominator)
    point = Fraction(-a)
    return [
        _report("harmonic_diff_sum_form", n, point, direct, sum_form),
        _report("harmonic_diff_ratio_form", n, point, direct, ratio_form),
    ]


def check_hn_formulas(table: StirlingTable, n: int) -> List[IdentityReport]:
    """Both harmonic-number expressions at alpha = n:

        H_n == (-1)^(n+1) sum_{k=0}^{n-1} (-1)^k C(n,k)/(n-k)
        H_n == (1/n!) sum_{k=0}^{n-1} (k+1) s(n,k+1) n^k   (signed numbers),

    where the power sum is the column-one polynomial at -n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    hn = harmonic(n)
    total = alternating_binomial_sum(-n, n)
    binomial_form = -total if (n + 1) % 2 else total
    power_sum = column_one_polynomial(table, n)(-n)
    stirling_form = Fraction(power_sum, math.factorial(n))
    point = Fraction(n)
    return [
        _report("hn_binomial_form", n, point, hn, binomial_form),
        _report("hn_stirling_form", n, point, hn, stirling_form),
    ]


def random_rationals(count: int, rng: random.Random) -> List[Fraction]:
    """Seeded sample of rationals with numerator in [-50, 50], denominator in [1, 20]."""
    lo_n, hi_n = RANDOM_NUMERATOR_RANGE
    lo_d, hi_d = RANDOM_DENOMINATOR_RANGE
    return [
        Fraction(rng.randint(lo_n, hi_n), rng.randint(lo_d, hi_d))
        for _ in range(count)
    ]


def run_suite(table: StirlingTable, triangle: NoncentralTriangle, n_max: int,
              seed: int = 0) -> List[IdentityReport]:
    """Run the whole exact identity suite up to n_max and return every report.

    The random alpha sample is drawn from ``random.Random(seed)`` so a run is
    reproducible from (n_max, seed) alone.
    """
    if n_max > min(table.n_max, triangle.n_max):
        raise ValueError("table/triangle too small for n_max=%d" % n_max)
    rng = random.Random(seed)
    master_alphas = [Fraction(a) for a in range(-n_max, n_max + 1)]
    master_alphas += random_rationals(MASTER_RANDOM_POINTS, rng)
    column_alphas = random_rationals(COLUMN_RANDOM_POINTS, rng)

    reports: List[IdentityReport] = []
    for n in range(1, n_max + 1):
        for alpha in master_alphas:
            reports += check_binomial_stirling_identity(table, n, alpha)
        if n >= 2:
            reports += check_factorial_identity(table, n)
        reports += check_harmonic_sum(table, n)
        reports += check_hn_formulas(table, n)

    for a in range(1, min(8, n_max - 1) + 1):
        for n in range(a + 1, n_max + 1):
            reports += check_negative_alpha_closed_form(table, n, a)
            reports.append(_report("column1_neg_alpha_value", n, Fraction(-a),
                                   triangle.evaluate(n, 1, -a), q_closed_form(n, a)))

    for a in range(1, min(10, n_max) + 1):
        for n in range(1, a + 1):
            reports += check_harmonic_difference(table, n, a)
            reports.append(_report("column1_harmonic_value", n, Fraction(-a),
                                   triangle.evaluate(n, 1, -a), h_closed_form(n, a)))

    for alpha in column_alphas:
        for n in range(1, n_max + 1):
            value = triangle.evaluate(n, 1, alpha)
            reports.append(_report("column1_sum_formula", n, alpha,
                                   value, s_n1_sum_formula(n, alpha)))
            reports.append(_report("column1_recurrence", n, alpha,
                                   value, s_n1_recurrence(n, alpha)))
    return reports


def structural_checks(by_recurrence: NoncentralTriangle,
                      by_explicit: NoncentralTriangle,
                      table: StirlingTable) -> List[StructuralCheck]:
    """Exact structural checks over every entry of the two triangles:
    construction agreement, boundary closed forms, specialization at alpha=0,
    degree and leading-sign pattern, the k=1 column polynomial, and the
    classical rows against the falling-factorial expansion."""
    n_max = min(by_recurrence.n_max, by_explicit.n_max, table.n_max)
    checks: List[StructuralCheck] = []

    def add(name, n, k, ok, expected=None, actual=None):
        detail = "" if ok else "expected %r, got %r" % (expected, actual)
        checks.append(StructuralCheck(name, n, k, ok, detail))

    for n in range(n_max + 1):
        for k in range(n + 1):
            rec = by_recurrence.entry(n, k)
            exp = by_explicit.entry(n, k)
            add("construction_agreement", n, k, rec == exp, exp, rec)
            add("specialization_at_zero", n, k,
                rec.coefficient(0) == table.signed(n, k),
                table.signed(n, k), rec.coefficient(0))
            add("degree", n, k, rec.degree == n - k, n - k, rec.degree)
            lead_ok = rec.leading_coefficient > 0 if (n - k) % 2 == 0 else rec.leading_coefficient < 0
            add("leading_sign", n, k, lead_ok,
                "sign %d" % ((-1) ** (n - k)), rec.leading_coefficient)
        ff = falling_factorial_poly(n)
        add("boundary_falling_factorial", n, 0,
            by_recurrence.entry(n, 0) == ff, ff, by_recurrence.entry(n, 0))
        add("boundary_diagonal", n, n,
            by_recurrence.entry(n, n) == AlphaPoly.one(),
            AlphaPoly.one(), by_recurrence.entry(n, n))
        oracle = tuple(stirling_expansion_oracle(n))
        add("classical_expansion_oracle", n, None,
            table.row(n) == oracle, oracle, table.row(n))
        if n >= 1:
            col = column_one_polynomial(table, n)
            add("column_one_polynomial", n, 1,
                by_recurrence.entry(n, 1) == col, col, by_recurrence.entry(n, 1))
    return checks


def reports_to_json_records(reports: List[IdentityReport]) -> List[dict]:
    """IdentityReports as JSON-ready dicts; all numbers are decimal strings."""
    return [
        {
            "identity": r.identity,
            "n": str(r.n),
            "alpha": None if r.alpha is None else format_rational(r.alpha),
            "lhs": format_rational(r.lhs),
            "rhs": format_rational(r.rhs),
            "holds": r.holds,
        }
        for r in reports
    ]
