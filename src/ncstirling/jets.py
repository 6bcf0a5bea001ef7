"""Truncated-Taylor (jet) arithmetic in binary64, used as an independent
numerical check of the derivative expansion of f(x) = x^(-alpha) * ln^beta(x):

    f^(n)(x) = x^(-alpha-n) * sum_i s(n, i, alpha) * (beta)_i * ln^(beta-i)(x).

A jet of order n holds the Taylor coefficients [f(x0), f'(x0), f''(x0)/2!, ...]
of a function at a point; arithmetic on jets has no truncation error, only
float rounding, so derivatives up to moderate order come out almost exact.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence

from .exact import RationalLike, horner
from .exact import format_rational  # noqa: F401  unused; perfbench/tracing.py patches this name

Jet = List[float]

RESIDUAL_FLOOR = 1e-300

GRID_ALPHAS = (
    Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
    Fraction(1, 2), Fraction(1), Fraction(2),
)
GRID_BETAS = (0.0, 0.5, 1.0, 2.0, 2.5)
GRID_X0S = (1.5, 2.0, math.e, 5.0)
GRID_MAX_ORDER = 8


class JetDomainError(ValueError):
    """Raised when ln/pow is applied to a jet whose constant term is not positive."""


def jet_seed(x0: float, order: int) -> Jet:
    """Jet of the identity function at x0: [x0, 1, 0, ..., 0]."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [0.0] * (order + 1)
    out[0] = float(x0)
    if order >= 1:
        out[1] = 1.0
    return out


def jet_mul(a: Sequence[float], b: Sequence[float]) -> Jet:
    """Truncated Cauchy product; both jets must share one truncation order."""
    if len(a) != len(b):
        raise ValueError("jet orders differ: %d vs %d" % (len(a) - 1, len(b) - 1))
    out = [0.0] * len(a)
    for k in range(len(a)):
        s = 0.0
        for j in range(k + 1):
            s += a[j] * b[k - j]
        out[k] = s
    return out


def jet_ln(a: Sequence[float]) -> Jet:
    """ln of a jet via b' = a'/a; requires a positive constant term."""
    if not a[0] > 0.0:
        raise JetDomainError("ln of a jet needs a positive constant term, got %r" % a[0])
    out = [0.0] * len(a)
    out[0] = math.log(a[0])
    for k in range(1, len(a)):
        s = 0.0
        for j in range(1, k):
            s += j * out[j] * a[k - j]
        out[k] = (a[k] - s / k) / a[0]
    return out


def jet_exp(a: Sequence[float]) -> Jet:
    """exp of a jet via b' = a' * b."""
    out = [0.0] * len(a)
    out[0] = math.exp(a[0])
    for k in range(1, len(a)):
        s = 0.0
        for j in range(1, k + 1):
            s += j * a[j] * out[k - j]
        out[k] = s / k
    return out


def jet_pow_real(a: Sequence[float], p: float) -> Jet:
    """a**p truncated; requires a positive constant term.

    Small nonnegative integer exponents are multiplied out directly so that
    identically-zero higher coefficients stay exactly zero (exp(p*ln a) would
    smear ~1e-16 rounding noise into them); every other exponent goes through
    exp(p * ln a).
    """
    if not a[0] > 0.0:
        raise JetDomainError("pow of a jet needs a positive constant term, got %r" % a[0])
    p = float(p)
    if p.is_integer() and 0 <= p <= 128:
        out = [0.0] * len(a)
        out[0] = 1.0
        for _ in range(int(p)):
            out = jet_mul(out, a)
        return out
    return jet_exp([p * v for v in jet_ln(a)])


def _check_point(x0: float, *exponents: float) -> None:
    """x0 must be a finite number above 1 and every exponent finite."""
    if not all(math.isfinite(v) for v in (x0,) + exponents):
        raise ValueError("non-finite input: x0=%r, exponents=%r" % (x0, exponents))
    if not x0 > 1.0:
        raise ValueError("x0 must exceed 1, got %r" % (x0,))


def _expansion_factors(x0: float, beta: float, order: int) -> List[tuple]:
    """[((beta)_i, ln(x0)^(beta-i)) for i <= order], the weights one running product,
    ending before the first zero weight: every later one is zero too."""
    log_x0 = math.log(x0)
    factors, weight = [], 1
    for i in range(order + 1):
        if weight == 0.0:
            break
        factors.append((weight, log_x0 ** (beta - i)))
        weight *= beta - i
    return factors


def _expansion_sum(row: Sequence, x0: float, alpha: RationalLike,
                   factors: Sequence[tuple]) -> float:
    """The expansion of order n = len(row) - 1 over its nonzero terms, one per factor
    (_expansion_factors up to order n); the row values past them are never rounded. The
    exponent -alpha - n = (-p - nq)/q is one correctly rounded int division."""
    n = len(row) - 1
    p, q = alpha.numerator, alpha.denominator
    power = float(x0) ** ((-p - n * q) / q)
    total = 0.0
    for value, (weight, log_power) in zip(row, factors):
        total += float(value) * weight * power * log_power
    return total


def evaluate_expansion(x0: float, alpha: RationalLike, beta: float,
                       row: Sequence[Fraction]) -> float:
    """Evaluate the derivative expansion of order n = len(row) - 1

        sum_{i=0}^{n} s(n, i, alpha) * (beta)_i * x0^(-alpha-n) * ln(x0)^(beta-i)

    with row[i] = s(n, i, alpha), exact or already rounded to float: the sum the
    validation grid runs."""
    _check_point(x0, beta)
    return _expansion_sum(row, x0, alpha, _expansion_factors(x0, float(beta), len(row) - 1))


class ResidualReport(NamedTuple):
    """One comparison of the jet derivative against the expansion value."""

    n: int
    alpha: Fraction
    beta: float
    x0: float
    jet_value: float
    expansion_value: float
    rel_residual: float
    passed: bool


def expansion_grid(rows: Sequence[Sequence[Sequence[int]]],
                   rel_tol: float = 1e-6) -> List[ResidualReport]:
    """Run the validation grid on rows[n][i], the coefficients of s(n, i, alpha): every
    n up to min(GRID_MAX_ORDER, len(rows) - 1) against GRID_ALPHAS x GRID_BETAS x
    GRID_X0S. Each point's jet of the top order is one jet_mul of factor jets, each built
    once: x^(-alpha) per (alpha, x0) and ln^beta(x) per (beta, x0), from one seed per x0.
    Coefficient k of every jet operation depends only on coefficients <= k, so every n's
    derivative read off it is bit for bit that of the same product built at order n.
    Each (n, alpha) row is rounded to float once, and each point's expansion value is
    evaluate_expansion's _expansion_sum over factors built once per (beta, x0). A point
    passes iff its relative residual |jet - expansion| / max(|jet|, 1e-300) is at most
    rel_tol."""
    order = min(GRID_MAX_ORDER, len(rows) - 1)
    points = [(beta, x0) for beta in GRID_BETAS for x0 in GRID_X0S]
    factors = [_expansion_factors(x0, beta, order) for beta, x0 in points]
    seeds = [jet_seed(x0, order) for x0 in GRID_X0S]
    logs = [jet_ln(x) for x in seeds]
    log_powers = [[jet_pow_real(log, beta) for log in logs] for beta in GRID_BETAS]
    powers = [[jet_pow_real(x, -float(alpha)) for x in seeds] for alpha in GRID_ALPHAS]
    jets = [[jet_mul(power, log_power) for row in log_powers
             for power, log_power in zip(alpha_powers, row)] for alpha_powers in powers]
    reports = []
    for n in range(order + 1):
        scale = math.factorial(n)
        for alpha, alpha_jets in zip(GRID_ALPHAS, jets):
            row = [float(horner(coeffs, alpha)) for coeffs in rows[n]]
            for (beta, x0), jet, terms in zip(points, alpha_jets, factors):
                jet_value = scale * jet[n]
                expansion_value = _expansion_sum(row, x0, alpha, terms)
                rel = abs(jet_value - expansion_value) / max(abs(jet_value), RESIDUAL_FLOOR)
                reports.append(ResidualReport(n, alpha, beta, x0, jet_value,
                                              expansion_value, rel, rel <= rel_tol))
    return reports
