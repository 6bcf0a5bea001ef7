"""Measure how far the numerical oracle of `verify --with-oracle` holds, and write
ORACLE_EVIDENCE.json at the root of the repository.

For every order n in 0..MAX_ORDER it compares the n-th derivative of
x^(-alpha) ln^beta(x), read off one jet per point, with the expansion sum
that the grid and `eval --beta` run, on two sets of points: the grid's own
(jets.GRID_ALPHAS x GRID_BETAS x GRID_X0S) and a seeded sample of
alpha = p/q, beta and x0 in (1, 10]. Per order and set it records the worst
relative residual and the worst residual over the sum's condition number
times the unit roundoff, each with its point. The residual is the grid's
|jet - sum| / max(|jet|, RESIDUAL_FLOOR); the condition number is
sum |term| / |sum of the terms|.

Run it with the standard library only; it writes the file beside tools/:

    python3 tools/oracle_evidence.py
"""
import json
import math
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ncstirling.exact import format_rational, scaled_horner  # noqa: E402
from ncstirling.jets import (  # noqa: E402
    GRID_ALPHAS, GRID_BETAS, GRID_MAX_ORDER, GRID_REL_TOL, GRID_X0S, RESIDUAL_FLOOR,
    _expansion_factors, _expansion_sum, jet_ln, jet_mul, jet_pow_real, jet_seed,
)
from ncstirling.noncentral import recurrence_rows  # noqa: E402

MAX_ORDER = 24
UNIT_ROUNDOFF = 2.0 ** -53
SEED = 0
SAMPLE_POINTS = 200
SAMPLE_TEXT = {"alpha": "p/q, p uniform in -12..12, q uniform in 1..6",
               "beta": "uniform in [-3, 3]", "x0": "10 - 9 u, u uniform in [0, 1): (1, 10]"}


def sample_points(rng):
    return [(Fraction(rng.randint(-12, 12), rng.randint(1, 6)), rng.uniform(-3.0, 3.0),
             10.0 - 9.0 * rng.random()) for _ in range(SAMPLE_POINTS)]


def measure(points, rows):
    """Per order, the worst residual and the worst residual over cond * u, with their points."""
    worst = [{"points": 0, "max_rel_residual": -1.0, "at": None,
              "max_over_cond_u": -1.0, "cond_at": None} for _ in rows]
    for alpha, beta, x0 in points:
        x = jet_seed(x0, MAX_ORDER)
        jet = jet_mul(jet_pow_real(x, -float(alpha)), jet_pow_real(jet_ln(x), beta))
        factors = _expansion_factors(x0, beta, MAX_ORDER)
        point = "alpha=%s beta=%r x0=%r" % (format_rational(alpha), beta, x0)
        p, q = alpha.as_integer_ratio()
        for n, record in enumerate(worst):
            row = [scaled_horner(coeffs, p, q) for coeffs in rows[n]]  # q^(n-i) s(n, i, alpha)
            jet_value = math.factorial(n) * jet[n]
            value = _expansion_sum(row, x0, alpha, factors)
            rel = abs(jet_value - value) / max(abs(jet_value), RESIDUAL_FLOOR)
            # sum |term|: the same sum over the terms' magnitudes (x0 > 1, so its power is positive)
            magnitude = _expansion_sum([abs(v) for v in row], x0, alpha,
                                       [(abs(w), abs(lp)) for w, lp in factors])
            cond = magnitude / max(abs(value), RESIDUAL_FLOOR)
            ratio = rel / (cond * UNIT_ROUNDOFF) if rel else 0.0
            record["points"] += 1
            if rel > record["max_rel_residual"]:
                record["max_rel_residual"], record["at"] = rel, point
            if ratio > record["max_over_cond_u"]:
                record["max_over_cond_u"], record["cond_at"] = ratio, point
    return worst


def evidence():
    """The document ORACLE_EVIDENCE.json holds; only its python and machine depend on the host."""
    rows = list(recurrence_rows(MAX_ORDER))
    grid = [(alpha, beta, x0) for alpha in GRID_ALPHAS for beta in GRID_BETAS for x0 in GRID_X0S]
    sets = {"grid": measure(grid, rows), "sample": measure(sample_points(random.Random(SEED)), rows)}
    return {
        "description": " ".join(__doc__.split("\n\nRun")[0].split()),
        "command": "python3 tools/oracle_evidence.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "max_order": MAX_ORDER,
        "grid_max_order": GRID_MAX_ORDER,
        "grid_rel_tol": GRID_REL_TOL,
        "unit_roundoff": UNIT_ROUNDOFF,
        "sample": dict(seed=SEED, points=SAMPLE_POINTS, **SAMPLE_TEXT),
        "orders": [dict(n=n, **{name: worst[n] for name, worst in sets.items()})
                   for n in range(MAX_ORDER + 1)],
    }


def main():
    doc = evidence()
    with open(ROOT / "ORACLE_EVIDENCE.json", "w") as out:
        json.dump(doc, out, indent=1)
        out.write("\n")
    for n, order in enumerate(doc["orders"]):
        print("n=%2d  grid %.2e (%.3g u*cond)  sample %.2e (%.3g u*cond)"
              % (n, order["grid"]["max_rel_residual"], order["grid"]["max_over_cond_u"],
                 order["sample"]["max_rel_residual"], order["sample"]["max_over_cond_u"]))


if __name__ == "__main__":
    main()
