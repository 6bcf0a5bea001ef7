"""Non-central Stirling numbers of the first kind s(n, k, alpha) as
integer-coefficient polynomials in alpha.

Two independent constructions, each a generator of rows (recurrence_rows,
explicit_rows), are provided and must agree exactly:

* the triangle recurrence
      s(n+1, i, a) = (-a - n) s(n, i, a) + s(n, i-1, a)
  with boundary rows s(n+1, 0, a) = (-a - n) s(n, 0, a) and
  s(n+1, n+1, a) = s(n, n, a), seeded by s(0, 0, a) = 1;

* the explicit binomial sum over classical Stirling numbers
      s(n, i, a) = sum_k C(n, k) (-a)(-a-1)...(-a-k+1) s(n-k, i),
  whose falling factorial (-a)(-a-1)...(-a-k+1) = sum_j s(k, j) (-a)^j is
  expanded with classical numbers too; each symmetric pair is summed once.

Specializing alpha = 0 recovers the classical signed numbers. A second use of
the recurrence runs it at one rational alpha = p/q in the ints p, q, by
stirling.scaled_rows; s_n1_recurrence reads the k=1 column of every row off it in
one pass (stirling reads a whole row of values and one entry off it, for eval).
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .exact import (
    AlphaPoly,
    binomial_rational,  # noqa: F401  unused; perfbench/tracing.py patches this name
    falling_factorial,  # noqa: F401  unused; perfbench/tracing.py patches this name
    horner,
    parse_canonical_int,
)
from .stirling import StirlingTable, check_index, scaled_rows


class NoncentralTriangle:
    """Immutable triangle indexed (n, k), 0 <= k <= n <= n_max. rows[n][k] is
    the tuple of integer coefficients of s(n, k, alpha), low to high, with no
    trailing zero (the constructor raises ValueError on one; the empty tuple
    is the zero polynomial); the package computes with these tuples, and
    entry(n, k) is the public AlphaPoly view of one of them."""

    __slots__ = ("n_max", "rows")

    def __init__(self, rows) -> None:
        self.rows = tuple(tuple(row) for row in rows)
        self.n_max = len(self.rows) - 1
        for n, row in enumerate(self.rows):
            for k, coeffs in enumerate(row):
                if coeffs and coeffs[-1] == 0:
                    raise ValueError("trailing zero coefficient in entry (%d, %d)" % (n, k))

    def entry(self, n: int, k: int) -> AlphaPoly:
        check_index(n, k, self.n_max)
        return AlphaPoly(self.rows[n][k])

    def evaluate(self, n: int, k: int, alpha: int | Fraction) -> Fraction:
        """s(n, k, alpha) at a concrete rational alpha, exactly, as one Fraction: the one
        horner builds, or the int it gives at an int alpha or the zero polynomial, made one."""
        check_index(n, k, self.n_max)
        value = horner(self.rows[n][k], alpha)
        return Fraction(value) if isinstance(value, int) else value

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoncentralTriangle):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return "NoncentralTriangle(n_max=%d)" % self.n_max


def recurrence_rows(n_max: int) -> Iterator[tuple]:
    """Rows 0..n_max by the recurrence, seeded at 1, each made from the one before.
    With p = s(n, i) and q = s(n, i-1) (zero-padded at i = 0), coefficient j
    of s(n+1, i) = (-alpha - n) p + q is q[j] - n p[j] - p[j-1]."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    row = ((1,),)
    yield row
    for n in range(n_max):
        row = tuple([
            tuple([c - n * a - b for a, b, c in zip(p + (0,), (0,) + p, q)])
            for p, q in zip(row + ((),), ((0,) * (n + 2),) + row)
        ])
        yield row


def build_by_recurrence(n_max: int) -> NoncentralTriangle:
    return NoncentralTriangle(recurrence_rows(n_max))


def explicit_rows(n_max: int) -> Iterator[tuple]:
    """Rows 0..n_max of the triangle from the explicit sum over classical numbers alone.
    With (-alpha)...(-alpha-k+1) = sum_j s(k, j) (-alpha)^j, coefficient j of s(n, i, alpha)
    is (-1)^j T(i, j), T(i, j) = sum_{k=j}^{n-i} C(n, k) s(n-k, i) s(k, j) = T(j, i) (put n - k
    for k). So each pair i <= j, i + j <= n is summed once, over the weights w[k] of column i,
    and fills both entries. The top coefficient, j = n - i, is C(n, i), so none is trimmed.
    StirlingTable rejects a negative n_max."""
    table = StirlingTable(n_max)
    classical = [table.row(m) for m in range(n_max + 1)]
    for n in range(n_max + 1):
        row = [[0] * (n - i + 1) for i in range(n + 1)]
        for i in range(n // 2 + 1):
            w = [math.comb(n, k) * classical[n - k][i] for k in range(n - i + 1)]
            for j in range(i, n - i + 1):
                t = 0
                for k in range(j, n - i + 1):
                    t += w[k] * classical[k][j]
                row[i][j] = -t if j % 2 else t
                row[j][i] = -t if i % 2 else t
        yield tuple(map(tuple, row))


def build_by_explicit(n_max: int) -> NoncentralTriangle:
    return NoncentralTriangle(explicit_rows(n_max))


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


def render_chunks(renderer, rows) -> Iterator[str]:
    """The document of a (head, row_chunks, tail) renderer over rows 0, 1, ...: the head,
    row_chunks(n, row) of each row n, and the tail if it is not empty."""
    head, row_chunks, tail = renderer
    yield head
    for n, row in enumerate(rows):
        yield from row_chunks(n, row)
    if tail:
        yield tail


def json_renderer(n_max: int):
    """Canonical JSON for a triangle as (head, row_chunks, tail): row_chunks(n, row) yields
    one chunk per entry of row n, each after a comma but the first entry it yields. Numbers
    are decimal strings so arbitrary-precision coefficients survive; compact separators, keys
    in the order n_max, entries and n, k, coeffs, written directly: digits and '-' need no
    JSON escaping."""
    formats = {}  # one whole format per coefficient count; 0 gives "coeffs":[]
    separator = ""

    def row_chunks(n: int, row) -> Iterator[str]:
        nonlocal separator
        for k, coeffs in enumerate(row):
            if (fmt := formats.get(len(coeffs))) is None:
                fmt = formats[len(coeffs)] = ('%s{"n":"%d","k":"%d","coeffs":['
                                              + ",".join(['"%s"'] * len(coeffs)) + "]}")
            yield fmt % (separator, n, k, *coeffs)
            separator = ","

    return '{"n_max":"%d","entries":[' % n_max, row_chunks, "]}\n"


def triangle_json_chunks(n_max: int, rows) -> Iterator[str]:
    """The JSON triangle of json_renderer, one chunk per entry between an opening and a
    closing chunk."""
    return render_chunks(json_renderer(n_max), rows)


def triangle_to_json(triangle: NoncentralTriangle) -> str:
    """The whole of triangle_json_chunks as one string."""
    return "".join(triangle_json_chunks(triangle.n_max, triangle.rows))


def triangle_from_json(text: str) -> NoncentralTriangle:
    """Inverse of triangle_to_json, accepting only the documents it emits:
    numbers must be canonical decimal strings, coefficient lists must have no
    trailing zero (NoncentralTriangle rejects one before re-emission), and the
    whole text must re-emit byte for byte (which rejects extra keys, reordered
    keys or entries, and added whitespace, and checks each entry's n and k).
    The entry count is checked before any coefficient is parsed, so a short
    document with a huge n_max fails at once."""
    import json  # here, so that importing the CLI does not load it

    try:
        doc = json.loads(text)
    except RecursionError:  # nested past the limit: refused below as not a triangle document
        doc = None
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("not a triangle document: need an object with an entries list")
    n_max = parse_canonical_int(doc.get("n_max"))
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if len(entries) != (n_max + 1) * (n_max + 2) // 2:
        raise ValueError("%d entries for n_max=%d" % (len(entries), n_max))
    flat = []
    for item in entries:
        strings = item.get("coeffs") if isinstance(item, dict) else None
        if not isinstance(strings, list):
            raise ValueError("entry %d has no coeffs list" % len(flat))
        flat.append(tuple([parse_canonical_int(s) for s in strings]))
    triangle = NoncentralTriangle(flat[n * (n + 1) // 2:(n + 1) * (n + 2) // 2]
                                  for n in range(n_max + 1))
    if triangle_to_json(triangle) != text:
        raise ValueError("document is not in canonical form")
    return triangle


def corrupt_entry(rows, n: int, k: int) -> Iterator[tuple]:
    """The rows, but in row n the constant coefficient of entry (n, k) raised by 1, for
    a caller that has checked (n, k). Test hook only: verify must then fail."""
    for m, row in enumerate(rows):
        if m == n:
            c = row[k] or (0,)
            row = row[:k] + ((c[0] + 1,) + c[1:],) + row[k + 1:]
        yield row
