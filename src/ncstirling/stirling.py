"""Classical signed Stirling numbers of the first kind, plus exact harmonic
numbers. The unsigned |s(n, k)| = (-1)^(n-k) s(n, k) is not stored."""
from __future__ import annotations

from fractions import Fraction

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
    s(n, k) = s(n-1, k-1) - (n-1) * s(n-1, k); immutable afterwards, so
    concurrent reads are safe.
    """

    __slots__ = ("n_max", "_rows")

    def __init__(self, n_max: int) -> None:
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        rows = [(1,)]
        for n in range(1, n_max + 1):
            prev = rows[-1]
            row = []
            for k in range(n + 1):
                above_left = prev[k - 1] if 1 <= k else 0
                above = prev[k] if k <= n - 1 else 0
                row.append(above_left - (n - 1) * above)
            rows.append(tuple(row))
        self._rows = tuple(rows)

    def signed(self, n: int, k: int) -> int:
        check_index(n, k, self.n_max)
        return self._rows[n][k]

    def row(self, n: int) -> tuple:
        check_index(n, 0, self.n_max)
        return self._rows[n]


def stirling_expansion_oracle(n: int) -> list:
    """Coefficients of x(x-1)...(x-n+1) as a polynomial in x, low-to-high.

    Independent construction of row n of the signed triangle: the falling
    factorial is expanded with the generic polynomial product rather than
    the table recurrence.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    poly = AlphaPoly((1,))
    for j in range(n):
        poly = poly * AlphaPoly((-j, 1))
    return list(poly.coefficients)


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n exactly; H_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total
