"""Exact arithmetic substrate: integer polynomials in one indeterminate as
coefficient tuples, evaluated by horner; AlphaPoly, the product type of the
classical-row oracle and the public polynomial view; exact rationals; and
binomial coefficients with rational arguments (integer binomials are
``math.comb``).

Python ints are arbitrary precision and ``fractions.Fraction`` is always
reduced with a positive denominator, so those two stdlib types carry the
integer and rational values throughout the package. Everything here is
immutable and pure; values are safe to share across threads.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]

RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")
_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


def horner(coeffs: tuple, x: RationalLike) -> RationalLike:
    """Evaluate the integer polynomial with coefficients coeffs (low to high) at
    x by Horner's rule on ints, exactly. An int x gives an int. At a Fraction
    x = p/q and nonempty coeffs the scaled value sum_k c_k p^k q^(d-k), d the
    degree, is one integer Horner pass, and one Fraction is built from it and
    q^d at the end."""
    if isinstance(x, Fraction) and coeffs:
        p, q = x.numerator, x.denominator
        acc, scale = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, scale)
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class AlphaPoly:
    """Dense polynomial with integer coefficients: the product type of
    stirling_expansion_oracle (a running product in x) and the public view
    NoncentralTriangle.entry (a polynomial in alpha).

    Coefficients are stored low-to-high; trailing zeros are trimmed on
    construction, so the zero polynomial stores no coefficients at all and
    equality is plain tuple equality.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(
                    "AlphaPoly coefficients must be ints, got %r" % (c,)
                )
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def __add__(self, other: "AlphaPoly") -> "AlphaPoly":
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPoly(out)

    def __mul__(self, other):
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return AlphaPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return AlphaPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> RationalLike:
        """Evaluate at x exactly; see horner."""
        return horner(self._coeffs, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return "AlphaPoly(%r)" % (list(self._coeffs),)


# Only binomial_rational calls this; kept while perfbench/tracing.py counts calls through it.
def falling_factorial(x: RationalLike, k: int) -> RationalLike:
    """x(x-1)...(x-k+1), exact; the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out: RationalLike = 1
    for j in range(k):
        out = out * (x - j)
    return out


# No caller in the package; kept while perfbench/tracing.py counts calls through it.
def binomial_rational(x: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient C(x, k) = x(x-1)...(x-k+1)/k!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Fraction(falling_factorial(Fraction(x), k), math.factorial(k))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer, in ASCII decimal digits, into a reduced
    Fraction."""
    m = RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError("not a rational literal: %r" % (text,))
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError("zero denominator: %r" % (text,))
    return Fraction(num, den)


def parse_canonical_int(text: str) -> int:
    """Parse an integer only as str(int) writes it: ASCII digits, an optional
    leading '-', no leading zeros, no "-0", no whitespace or underscores."""
    if not isinstance(text, str) or _CANONICAL_INT_RE.fullmatch(text) is None:
        raise ValueError("not a canonical integer string: %r" % (text,))
    return int(text)


def format_rational(value: RationalLike) -> str:
    """Render an int or a Fraction as "p" or "p/q"; both are already reduced
    with a positive denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)
