"""scaled_rows, the recurrence at one rational alpha = p/q in the ints p, q; last_scaled_row, its
last row (eval's integers); entry_value, the one division that makes an entry s(n, k, p/q): what
eval prints, verify's column1_recurrence checks and evaluate_row and evaluate_entry return; the
classical signed numbers of the first kind, its rows at alpha = 0 (|s(n, k)| is not stored), with
an oracle for them; the non-central numbers read off them by a closed form; harmonic numbers."""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from fractions import Fraction

from .exact import AlphaPoly


def scaled_rows(n: int, p: int, q: int, top: int) -> Iterator[list[int]]:
    """Rows m = 0..n of the integers c(m, i) = q^(m-i) s(m, i, p/q), q > 0, for
    i <= min(m, top), by c(m+1, i) = c(m, i-1) - (p + m q) c(m, i) from c(0, 0) = 1; the
    cap is exact, as column i reads only columns <= i. At p = 0, q = 1, c(m, i) = s(m, i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    yield row
    for m, shift in enumerate(range(p, p + n * q, q)):  # shift = p + m q
        row = [low - shift * high for low, high in zip([0] + row, row + [0] if m < top else row)]
        yield row


def last_scaled_row(n: int, p: int, q: int, top: int) -> list[int]:
    """The last of scaled_rows(n, p, q, top), one row held at a time: eval's integers."""
    return deque(scaled_rows(n, p, q, top), maxlen=1).pop()


def entry_value(row: list[int], n: int, k: int, q: int) -> Fraction:
    """s(n, k, p/q) = c(n, k) / q^(n-k), from row n of scaled_rows(n', p, q, top), top >= k:
    the one place an entry of the scaled recurrence becomes its Fraction."""
    return Fraction(row[k], q ** (n - k))


def evaluate_row(n: int, alpha: int | Fraction) -> list[Fraction]:
    """[s(n, 0, alpha), ..., s(n, n, alpha)], exactly: the coefficients of (x - alpha)...
    (x - alpha - n + 1), entry_value of each of last_scaled_row(n, p, q, n), O(n^2)."""
    p, q = alpha.as_integer_ratio()
    row = last_scaled_row(n, p, q, n)
    return [entry_value(row, n, k, q) for k in range(n + 1)]


def evaluate_entry(n: int, k: int, alpha: int | Fraction) -> Fraction:
    """s(n, k, alpha) alone, exactly: entry_value of entry k of last_scaled_row(n, p, q, k),
    whose rows stop at column k, in O(n (k+1)) integer steps, not evaluate_row's O(n^2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_index(n, k, n)
    p, q = alpha.as_integer_ratio()
    return entry_value(last_scaled_row(n, p, q, k), n, k, q)


def check_index(n: int, k: int, n_max: int) -> None:
    """Raise IndexError unless 0 <= k <= n <= n_max."""
    if not 0 <= n <= n_max:
        raise IndexError("n=%d outside [0, %d]" % (n, n_max))
    if not 0 <= k <= n:
        raise IndexError("k=%d outside [0, %d]" % (k, n))


class StirlingTable:
    """Triangle of signed first-kind Stirling numbers s(n, k), 0 <= k <= n <= n_max.

    Built once as the rows of scaled_rows at p/q = 0/1, the classical recurrence
    s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k); immutable afterwards, so reads are thread-safe.
    """

    __slots__ = ("n_max", "_rows")

    def __init__(self, n_max: int) -> None:
        self.n_max = n_max  # scaled_rows rejects a negative n_max
        self._rows = tuple(map(tuple, scaled_rows(n_max, 0, 1, n_max)))

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
