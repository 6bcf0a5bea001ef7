"""Reference results computed by the benchmark itself, with no import from
ncstirling.

Everything rests on the classical signed Stirling rows s(n, j), built here by
s(n, j) = s(n-1, j-1) - (n-1) s(n-1, j), and on the closed form

    s(n, k, alpha) = sum_m (-1)^m C(k+m, m) s(n, k+m) alpha^m

(the row polynomial of s(n, ., alpha) is the Taylor shift of (x)_n; Koutras,
Discrete Math. 42, 1982). The program builds its triangles by a recurrence or
an explicit sum instead, so agreement is a real check.
"""
from __future__ import annotations

import hashlib
import math
import sys
from decimal import Context, Decimal
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Tuple

# Digits carried by the decimal reference for eval's derivative expansion.
DECIMAL_PRECISION = 60
# Relative tolerance of the expansion check, the default --tol of verify.
EXPANSION_REL_TOL = 1e-6
FLOAT_MAX = Fraction(sys.float_info.max)
DECIMAL_FLOAT_MAX = Decimal(sys.float_info.max)
# Bound on the error of a binary64 evaluation of the order-n expansion, over
# the sum of its terms' magnitudes. Each term is a product of O(n) rounded
# factors ((beta)_i alone has i of them; pow and log add errors of at most
# |alpha + n| ln(x0) and |beta - i| units), and adding n + 1 terms costs n
# more. Seen on the eval workload: at most 1.4 n units.
def binary64_error_bound(n: int) -> Decimal:
    return Decimal(4 * (n + 1) + 1000) * Decimal(2) ** -53


class ClassicalRows:
    """Signed classical Stirling rows s(n, .), grown on demand and kept."""

    def __init__(self) -> None:
        self._rows: List[List[int]] = [[1]]

    def row(self, n: int) -> List[int]:
        while len(self._rows) <= n:
            m = len(self._rows)  # build row m from row m-1
            prev = self._rows[-1] + [0]
            self._rows.append([(prev[j - 1] if j else 0) - (m - 1) * prev[j]
                               for j in range(m + 1)])
        return self._rows[n]

    def coefficients(self, n: int, k: int) -> List[int]:
        """Coefficients of s(n, k, alpha) in alpha, low to high."""
        row = self.row(n)
        return [(-1) ** m * math.comb(k + m, m) * row[k + m] for m in range(n - k + 1)]

    def value(self, n: int, k: int, alpha: Fraction) -> Fraction:
        """s(n, k, alpha) exactly."""
        p, q = alpha.numerator, alpha.denominator
        coeffs = self.coefficients(n, k)
        d = len(coeffs) - 1
        return Fraction(sum(c * p ** m * q ** (d - m) for m, c in enumerate(coeffs)), q ** d)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def triangle_digests(rows: ClassicalRows, wanted: Iterable[Tuple[int, str]]
                     ) -> Dict[Tuple[int, str], Tuple[str, int]]:
    """sha256 and length of the expected `triangle` output for each
    (n_max, format) pair, in one pass over the entries.

    JSON: {"n_max":"N","entries":[{"n":"..","k":"..","coeffs":[".."]},..]}
    CSV:  header "n,k,degree,coeffs", then n,k,n-k,space-separated coefficients.
    """
    wanted = set(wanted)
    json_sizes = sorted(n for n, fmt in wanted if fmt == "json")
    csv_sizes = {n for n, fmt in wanted if fmt == "csv"}
    top = max(n for n, _ in wanted)
    json_hash = {n: hashlib.sha256(b'{"n_max":"%d","entries":[' % n) for n in json_sizes}
    json_len = {n: len('{"n_max":"%d","entries":[' % n) for n in json_sizes}
    csv_hash = hashlib.sha256(b"n,k,degree,coeffs\n")
    csv_len = len("n,k,degree,coeffs\n")
    out = {}
    for n in range(top + 1):
        json_parts, csv_parts = [], []
        for k in range(n + 1):
            strs = [str(c) for c in rows.coefficients(n, k)]
            json_parts.append('{"n":"%d","k":"%d","coeffs":[%s]}'
                              % (n, k, ",".join('"%s"' % s for s in strs)))
            csv_parts.append("%d,%d,%d,%s\n" % (n, k, n - k, " ".join(strs)))
        json_row = ("," if n else "") + ",".join(json_parts)
        json_bytes, csv_bytes = json_row.encode(), "".join(csv_parts).encode()
        for size in json_sizes:
            if size >= n:
                json_hash[size].update(json_bytes)
                json_len[size] += len(json_bytes)
        csv_hash.update(csv_bytes)
        csv_len += len(csv_bytes)
        if n in csv_sizes:
            out[(n, "csv")] = (csv_hash.copy().hexdigest(), csv_len)
    for size in json_sizes:
        json_hash[size].update(b"]}\n")
        out[(size, "json")] = (json_hash[size].hexdigest(), json_len[size] + 3)
    return out


def falling_factorial(x: Fraction, i: int) -> Fraction:
    out = Fraction(1)
    for j in range(i):
        out *= x - j
    return out


class Expansion(NamedTuple):
    value: Decimal
    beyond_binary64: bool
    abs_sum: Decimal  # sum of the terms' magnitudes


def expansion_reference(rows: ClassicalRows, n: int, alpha: Fraction, beta: float,
                        x0: float) -> Expansion:
    """The derivative expansion

        sum_i s(n, i, alpha) (beta)_i x0^(-alpha-n) ln(x0)^(beta-i)

    in DECIMAL_PRECISION-digit decimal arithmetic from exact s(n, i, alpha), the
    sum of its terms' magnitudes, which bounds what rounding in a binary64
    evaluation can cost, and whether a value that a binary64 evaluation of it forms lies beyond binary64
    range: some (beta)_i, s(n, i, alpha), their product, that times
    x0^(-alpha-n), a whole term, or a partial sum over i in increasing order
    (the sum itself included). Terms with (beta)_i = 0 are left out. beta and
    x0 are taken at their exact binary64 values.
    """
    ctx = Context(prec=DECIMAL_PRECISION)
    b = Fraction(beta)
    x = Decimal(x0)
    log_x = x.ln(ctx)
    log_log_x = log_x.ln(ctx)
    a = ctx.divide(Decimal(alpha.numerator), Decimal(alpha.denominator))
    power = ctx.exp(ctx.multiply(-(a + n), log_x))
    total = abs_sum = Decimal(0)
    biggest = Decimal(0)
    beyond_binary64 = False
    for i in range(n + 1):
        weight = falling_factorial(b, i)
        if weight == 0:
            continue
        s = rows.value(n, i, alpha)
        coeff = s * weight
        beyond_binary64 |= max(abs(weight), abs(s), abs(coeff)) > FLOAT_MAX
        scaled = ctx.multiply(ctx.divide(Decimal(coeff.numerator), Decimal(coeff.denominator)),
                              power)
        term = ctx.multiply(scaled, ctx.exp(ctx.multiply(Decimal(float(b - i)), log_log_x)))
        total = ctx.add(total, term)
        abs_sum = ctx.add(abs_sum, abs(term))
        biggest = max(biggest, abs(term))
        beyond_binary64 |= max(abs(scaled), abs(term), abs(total)) > DECIMAL_FLOAT_MAX
    # Guard against cancellation eating the reference's own digits.
    if total and abs(total) < biggest * Decimal("1e-30"):
        raise ArithmeticError("decimal reference lost too many digits to cancellation")
    return Expansion(total, beyond_binary64, abs_sum)


def verify_counts(n_max: int) -> Dict[str, int]:
    """Record counts of `verify --n-max N --with-oracle`, from the suite's
    documented parameters: 4 checks per entry and 3-4 per row; per n the master
    identity at the 2N+1 integer alphas and 30 random ones, the factorial (n >= 2),
    harmonic and two H_n forms; 3 records per negative-alpha point
    (a <= min(8, N-1), n > a) and per harmonic-difference point (a <= min(10, N),
    n <= a); 2 per column-one point (20 alphas); 7 x 5 x 4 grid points per order
    up to min(8, N)."""
    structural = sum(4 * (n + 1) + 3 + (n >= 1) for n in range(n_max + 1))
    identities = sum((2 * n_max + 1 + 30) + (n >= 2) + 3 for n in range(1, n_max + 1))
    identities += sum(3 * (n_max - a) for a in range(1, min(8, n_max - 1) + 1))
    identities += sum(3 * a for a in range(1, min(10, n_max) + 1))
    identities += 2 * 20 * n_max
    oracle = 7 * 5 * 4 * (min(8, n_max) + 1)
    return {"structural": structural, "identities": identities, "oracle": oracle}
