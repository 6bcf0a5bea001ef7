"""Exact verification of the identity catalogue tied to the k=1 column of the
non-central triangle (the master binomial/Stirling identity, its factorial and harmonic
specializations and the closed forms at negative integer alpha), the column's point formulas
(the alternating binomial sum and the recurrence at one alpha, which read no triangle), the
structural checks that tie the two triangle constructions together, read one row at a time,
and the text of verify's report: the JSON and CSV records of these checks and of the jets grid.

Every comparison in this module is exact rational arithmetic; there is no tolerance anywhere.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate

from .exact import (
    AlphaPoly,
    binomial_rational,  # noqa: F401  unused; perfbench/tracing.py patches this name
    format_rational,
    horner,
    scaled_horner,
)
from .stirling import StirlingTable, scaled_rows, stirling_expansion_oracle
from .stirling import harmonic  # noqa: F401  unused; perfbench/tracing.py patches this name

RANDOM_NUMERATOR_RANGE = (-50, 50)
RANDOM_DENOMINATOR_RANGE = (1, 20)
MASTER_RANDOM_POINTS = 30
COLUMN_RANDOM_POINTS = 20


IdentityReport = namedtuple("IdentityReport", "identity n alpha lhs rhs holds")
IdentityReport.__doc__ = """Outcome of one exact identity check at a parameter point (n, alpha)."""

StructuralCheck = namedtuple("StructuralCheck", "check n k ok detail", defaults=("",))
StructuralCheck.__doc__ = """Outcome of one exact structural check on triangle entry (n, k), or
on row n where k is None."""


def _json_string(text: str) -> str:
    """json.dumps(text); json is imported only for a nonempty text, a failing check's detail."""
    if not text:
        return '""'
    import json
    return json.dumps(text)


# verify's whole JSON report as the text json.dumps writes with separators (",", ":"), one chunk
# per structural and identity record: numbers are decimal strings; names, digits, "/" and float
# reprs need no escaping, detail goes through it.
def verify_json_chunks(seed, n_max, checks, identity_reports, oracle_reports):
    yield '{"seed":"%d","n_max":"%d","structural":[' % (seed, n_max)
    for i, c in enumerate(checks):
        yield ('%s{"check":"%s","n":"%d","k":%s,"ok":%s,"detail":%s}'
               % ("," if i else "", c.check, c.n, "null" if c.k is None else '"%d"' % c.k,
                  "true" if c.ok else "false", _json_string(c.detail)))
    yield '],"identities":'
    yield from reports_to_json_records(identity_reports)
    yield ',"oracle":%s}\n' % residuals_to_json_records(oracle_reports)


# One chunk per record; a report whose lhs is its rhs (run_suite's holding ones) formats it once.
def reports_to_json_records(reports):
    yield "["
    for i, r in enumerate(reports):
        yield ('%s{"identity":"%s","n":"%d","alpha":"%s","lhs":"%s","rhs":"%s","holds":%s}'
               % ("," if i else "", r.identity, r.n, format_rational(r.alpha),
                  (lhs := format_rational(r.lhs)), lhs if r.rhs is r.lhs
                  else format_rational(r.rhs), "true" if r.holds else "false"))
    yield "]"


def residuals_to_json_records(reports) -> str:
    return "[%s]" % ",".join([
        '{"n":"%d","alpha":"%s","beta":"%r","x0":"%r","jet_value":"%r","expansion_value":"%r",'
        '"rel_residual":"%r","pass":%s}'
        % (r.n, format_rational(r.alpha), r.beta, r.x0, r.jet_value, r.expansion_value,
           r.rel_residual, "true" if r.passed else "false") for r in reports])


def verify_csv_chunks(checks, identity_reports, oracle_reports):
    yield "identity,n,alpha,holds\n"
    for c in checks:
        yield "%s,%d,,%s\n" % (c.check, c.n, "true" if c.ok else "false")
    for r in identity_reports:
        yield "%s,%d,%s,%s\n" % (r.identity, r.n, format_rational(r.alpha),
                                 "true" if r.holds else "false")
    for r in oracle_reports:
        yield "derivative_expansion,%d,%s,%s\n" % (r.n, format_rational(r.alpha),
                                                   "true" if r.passed else "false")


def random_rationals(count: int, rng: random.Random) -> list[Fraction]:
    """Seeded sample of rationals with numerator in [-50, 50], denominator in [1, 20]."""
    lo_n, hi_n = RANDOM_NUMERATOR_RANGE
    lo_d, hi_d = RANDOM_DENOMINATOR_RANGE
    return [
        Fraction(rng.randint(lo_n, hi_n), rng.randint(lo_d, hi_d))
        for _ in range(count)
    ]


def alternating_sum_weights(n: int) -> list[int]:
    """[C(n, k) (n-k-1)! for k < n]: the integer weights of n! S(a, n), the same at
    every a, so one list serves every alpha at this n."""
    return [math.comb(n, k) * math.factorial(n - k - 1) for k in range(n)]


def scaled_alternating_sum(weights: Sequence[int], p: int, q: int) -> int:
    """n! q^(n-1) S(p/q, n) as an int, for n = len(weights) and q > 0, where
    S(a, n) = sum_{k=0}^{n-1} (-1)^k C(-a, k) / (n - k).

    Since (-1)^k C(-a, k) = a(a+1)...(a+k-1)/k!, the sum times n! has integer
    coefficients: n! S(a, n) = sum_k C(n, k) (n-k-1)! a(a+1)...(a+k-1). With
    R_k = p(p+q)...(p+(k-1)q) the scaled sum sum_k weights[k] R_k q^(n-1-k) is run
    by Horner's rule in the factors p + kq.
    """
    acc, scale = 0, 1
    for k in range(len(weights) - 1, -1, -1):
        acc = acc * (p + k * q) + weights[k] * scale
        scale *= q
    return acc


def s_n1_sum_formula(n: int, alpha: int | Fraction,
                     weights: Sequence[int] | None = None) -> Fraction:
    """s(n, 1, alpha) by the alternating binomial sum, independent of any triangle:

        n! * sum_{k=0}^{n-1} (-1)^(n-k-1) C(-alpha, k) / (n - k)
            = (-1)^(n-1) n! S(alpha, n),

    one Fraction; weights, if given, are alternating_sum_weights(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    p, q = alpha.as_integer_ratio()
    value = scaled_alternating_sum(weights or alternating_sum_weights(n), p, q)
    return Fraction(value if n % 2 else -value, q ** (n - 1))


def s_n1_recurrence(n: int, alpha: int | Fraction) -> list[Fraction]:
    """[s(0, 1, alpha), ..., s(n, 1, alpha)]: column 1 of scaled_rows(n, p, q, 1), with
    s(m, 1, alpha) = c(m, 1) / q^(m-1) at alpha = p/q: the recurrence run once on columns
    0 and 1 alone, O(n) integer steps for the whole column, independent of any triangle."""
    p, q = alpha.as_integer_ratio()
    rows = scaled_rows(n, p, q, 1)
    next(rows)  # row 0 has no column 1: s(0, 1, alpha) = 0
    return [Fraction(0)] + [Fraction(row[1], q ** m) for m, row in enumerate(rows)]


def run_suite(table: StirlingTable, rows: Sequence[Sequence[Sequence[int]]],
              seed: int = 0) -> list[IdentityReport]:
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
    a = p/q, p and q read once per run, binomial_stirling_sum compares two integers
    over the common denominator q^(n-1): scaled_alternating_sum, n! q^(n-1) S(a, n),
    with scaled_horner of (-1)^(n-1) P_n, of degree n-1. Every identity, that one too,
    records through one add, which makes an int side one Fraction: a report that
    holds stores one Fraction as both lhs and rhs; one that fails stores both. Each
    H_m, m <= N, is summed once.
    """
    n_max = len(rows) - 1
    rng = random.Random(seed)
    master_alphas = [Fraction(a) for a in range(-n_max, n_max + 1)]
    master_alphas += random_rationals(MASTER_RANDOM_POINTS, rng)
    master_points = [(alpha, *alpha.as_integer_ratio()) for alpha in master_alphas]
    column_alphas = random_rationals(COLUMN_RANDOM_POINTS, rng)
    column = {n: table.noncentral(n, 1) for n in range(1, n_max + 1)}
    weights = [alternating_sum_weights(n) for n in range(n_max + 1)]
    harmonics = list(accumulate((Fraction(1, m) for m in range(1, n_max + 1)),
                                initial=Fraction(0)))  # H_0..H_N; b <= min(10, N) below
    reports: list[IdentityReport] = []

    def fraction(value: int | Fraction) -> Fraction:
        return Fraction(value) if isinstance(value, int) else value

    def add(identity: str, n: int, alpha: int | Fraction,
            lhs: int | Fraction, rhs: int | Fraction) -> None:
        # an int becomes one Fraction, a Fraction is kept; sides that agree share one
        lhs = fraction(lhs)
        rhs = lhs if rhs is lhs or lhs == rhs else fraction(rhs)
        reports.append(IdentityReport(identity, n, fraction(alpha), lhs, rhs, lhs is rhs))

    for n in range(1, n_max + 1):
        p = column[n]
        sign = (-1) ** (n - 1)
        signed_p = tuple([sign * c for c in p])
        n_fact = math.factorial(n)
        for alpha, a, q in master_points:
            # both sides as integers over q^(n-1): signed_p has degree n - 1
            total = scaled_alternating_sum(weights[n], a, q)
            value = scaled_horner(signed_p, a, q)
            lhs = Fraction(total, q ** (n - 1))
            add("binomial_stirling_sum", n, alpha, lhs,
                lhs if value == total else Fraction(value, q ** (n - 1)))
        if n >= 2:
            add("factorial_from_stirling", n, -1, (-1) ** n * math.factorial(n - 2),
                horner(p, -1))
        hn = harmonics[n]
        add("harmonic_sum", n, 1, n_fact * hn, sign * horner(p, 1))
        add("hn_binomial_form", n, n, hn,
            Fraction(sign * scaled_alternating_sum(weights[n], -n, 1), n_fact))
        add("hn_stirling_form", n, n, hn, Fraction(horner(p, -n), n_fact))

    for b in range(1, min(8, n_max - 1) + 1):
        for n in range(b + 1, n_max + 1):
            total = (-1) ** b * scaled_alternating_sum(weights[n], -b, 1)  # n! (-1)^b S(-b, n)
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
                Fraction((-1) ** (n + 1) * scaled_alternating_sum(weights[n], -b, 1),
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
                      table: StirlingTable) -> list[StructuralCheck]:
    """Exact structural checks over every entry of two triangles, read one row of each at a
    time: construction agreement, specialization at alpha=0, degree and leading-sign pattern,
    the k=0 and k=1 columns against the closed form table.noncentral, the diagonal
    s(n, n, alpha) = 1 and the classical rows against stirling_expansion_oracle. Row n must
    hold n + 1 entries, and zip raises ValueError unless both give table.n_max + 1 rows."""
    checks: list[StructuralCheck] = []

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

