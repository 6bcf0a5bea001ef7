"""Classical signed Stirling numbers of the first kind, an oracle for their
rows, the non-central numbers read off them by a closed form, and exact
harmonic numbers. The unsigned |s(n, k)| = (-1)^(n-k) s(n, k) is not stored."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .exact import AlphaPoly


def check_index(n: int, k: int, n_max: int) -> None:
    """Raise IndexError unless 0 <= k <= n <= n_max."""
    if not 0 <= n <= n_max:
        raise IndexError("n=%d outside [0, %d]" % (n, n_max))
    if not 0 <= k <= n:
        raise IndexError("k=%d outside [0, %d]" % (k, n))


class StirlingTable:
    """Triangle of signed first-kind Stirling numbers s(n, k), 0 <= k <= n <= n_max.

    Built once with the two-term recurrence
    s(n, k) = s(n-1, k-1) - (n-1) * s(n-1, k), as one shift: row n is the
    previous row shifted up one place minus (n-1) times it, each zero-padded
    to n+1 entries. Immutable afterwards, so concurrent reads are safe.
    """

    __slots__ = ("n_max", "_rows")

    def __init__(self, n_max: int) -> None:
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        rows = [(1,)]
        for n in range(1, n_max + 1):
            prev = rows[-1]
            rows.append(tuple([a - (n - 1) * b for a, b in zip((0,) + prev, prev + (0,))]))
        self._rows = tuple(rows)

    def signed(self, n: int, k: int) -> int:
        check_index(n, k, self.n_max)
        return self._rows[n][k]

    def row(self, n: int) -> tuple:
        check_index(n, 0, self.n_max)
        return self._rows[n]

    def noncentral(self, n: int, k: int) -> tuple:
        """Integer coefficients of s(n, k, alpha), low to high, by Koutras's
        closed form [alpha^m] s(n, k, alpha) = (-1)^m C(k+m, k) s(n, k+m). The
        top one, (-1)^(n-k) C(n, k), is never zero."""
        check_index(n, k, self.n_max)
        return tuple([(-1) ** m * math.comb(k + m, k) * s
                       for m, s in enumerate(self._rows[n][k:])])


def stirling_expansion_oracle(n_max: int) -> Iterator[tuple]:
    """Rows 0..n_max of the signed triangle as the coefficients of x(x-1)...(x-n+1),
    low to high: one running product, row n-1 times (x - n + 1) by the generic
    AlphaPoly product, independent of the table's recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    poly = AlphaPoly((1,))
    yield poly.coefficients
    for n in range(1, n_max + 1):
        poly = poly * AlphaPoly((1 - n, 1))
        yield poly.coefficients


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n exactly; H_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total
