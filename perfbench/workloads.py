"""Seeded operation lists for the benchmark workloads.

Every workload is a stream of *blocks*. A block holds one fixed multiset of
operation sizes (the workload's size mix); the seed only chooses the order and
the parameters that do not change the work much (alpha, k, beta, x0, the verify
seed, which entry a corrupt run perturbs). Runs are made of whole blocks, so two
seeds measure the same amount of work and their figures can be compared.

The program receives nothing but argv.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

WORKLOADS = ("verify", "triangle", "eval")

# Values of the jet grid in ncstirling.jets, copied rather than imported so
# that the benchmark never takes its inputs from the code it measures.
GRID_BETAS = (0.0, 0.5, 1.0, 2.0, 2.5)
GRID_X0S = (1.5, 2.0, 2.718281828459045, 5.0)

# The identity suite's random range for alpha.
ALPHA_NUMERATORS = (-50, 50)
ALPHA_DENOMINATORS = (1, 20)

# verify: N in [12, 32]. run_suite cost grows about as N^2.5, so the mix leans
# to small N to fit 28 operations in a run while N = 32 stays in every block.
# The median falls among the N = 14 operations, where neighbouring sizes differ
# by about 10 % in cost; between two sizes of a sparser mix it moved with the
# host's jitter.
VERIFY_SIZES = (12, 12, 12, 12, 13, 13, 14, 14, 15, 16, 18, 21, 25, 32)
VERIFY_CORRUPT_PER_BLOCK = 3  # about one operation in five

# triangle: every (construction, N, format) pair once per block.
TRIANGLE_SIZES = (
    ("recurrence", (64, 80, 96, 112, 128, 144, 160)),
    ("explicit", (32, 40, 48, 56, 64)),
)
TRIANGLE_FORMATS = ("json", "csv")

# eval: N in [64, 300]; cost and RSS grow as N^3 while eval builds the whole
# triangle, so the mix leans to small N and keeps N = 300 in every block.
EVAL_SIZES = (64, 68, 72, 80, 88, 96, 105, 115, 125, 140, 155, 175, 200, 230, 260, 300)
EVAL_EXPANSION_GROUPS = 4  # one operation in four, one in each quarter of the sizes

# Wall of one block, in seconds, at the commit that added this benchmark on a
# 2-vCPU Intel Xeon VM with Python 3.11, in the host's slow regime. A run is
# --seconds / this many blocks, rounded, and at least MIN_BLOCKS: a fixed
# amount of work for a given --seconds, so that two commits are measured on
# the same operations.
BLOCK_SECONDS = {"verify": 17.0, "triangle": 13.0, "eval": 15.0}
# With two blocks the latency tail has at least ten samples beyond it.
MIN_BLOCKS = 2


@dataclass(frozen=True)
class Op:
    """One CLI call. ``argv`` omits ``--out``, which verify gets per run."""

    workload: str
    argv: Tuple[str, ...]
    n: int
    seed: int = 0
    corrupt: Optional[Tuple[int, int]] = None
    construction: str = ""
    fmt: str = ""
    k: int = 0
    alpha: Fraction = Fraction(0)
    beta: Optional[float] = None
    x0: Optional[float] = None

    def command(self, out_path: Optional[str]) -> List[str]:
        if self.workload == "verify":
            return list(self.argv) + ["--out", out_path]
        return list(self.argv)


def _verify_block(rng: random.Random) -> List[Op]:
    half = len(VERIFY_SIZES) // VERIFY_CORRUPT_PER_BLOCK
    corrupt_at = {g * half + rng.randrange(half) for g in range(VERIFY_CORRUPT_PER_BLOCK)}
    ops = []
    for i, n in enumerate(sorted(VERIFY_SIZES)):
        seed = rng.randrange(1_000_000)
        argv = ["verify", "--n-max", str(n), "--with-oracle", "--seed", str(seed),
                "--format", "json"]
        corrupt = None
        if i in corrupt_at:
            cn = rng.randint(0, n)
            corrupt = (cn, rng.randint(0, cn))
            argv += ["--corrupt", "%d,%d" % corrupt]
        ops.append(Op("verify", tuple(argv), n, seed=seed, corrupt=corrupt))
    rng.shuffle(ops)
    return ops


def _triangle_block(rng: random.Random) -> List[Op]:
    ops = [
        Op("triangle",
           ("triangle", "--n-max", str(n), "--construction", construction, "--format", fmt),
           n, construction=construction, fmt=fmt)
        for construction, sizes in TRIANGLE_SIZES
        for n in sizes
        for fmt in TRIANGLE_FORMATS
    ]
    rng.shuffle(ops)
    return ops


def _eval_block(rng: random.Random) -> List[Op]:
    group = len(EVAL_SIZES) // EVAL_EXPANSION_GROUPS
    expand_at = {g * group + rng.randrange(group) for g in range(EVAL_EXPANSION_GROUPS)}
    ops = []
    for i, n in enumerate(sorted(EVAL_SIZES)):
        k = rng.randint(0, n)
        p = rng.randint(*ALPHA_NUMERATORS)
        q = rng.randint(*ALPHA_DENOMINATORS)
        # "--alpha=-5/2": argparse would take "--alpha -5/2" for an option.
        argv = ["eval", "--n", str(n), "--k", str(k), "--alpha=%d/%d" % (p, q)]
        beta = x0 = None
        if i in expand_at:
            beta, x0 = rng.choice(GRID_BETAS), rng.choice(GRID_X0S)
            argv += ["--beta", repr(beta), "--x0", repr(x0)]
        ops.append(Op("eval", tuple(argv), n, k=k, alpha=Fraction(p, q), beta=beta, x0=x0))
    rng.shuffle(ops)
    return ops


_BLOCK_MAKERS = {"verify": _verify_block, "triangle": _triangle_block, "eval": _eval_block}


def blocks(workload: str, seed: int) -> Iterator[List[Op]]:
    """Endless, deterministic stream of blocks for ``workload`` and ``seed``."""
    make = _BLOCK_MAKERS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    while True:
        yield make(rng)


def block_count(workload: str, seconds: float) -> int:
    return max(MIN_BLOCKS, round(seconds / BLOCK_SECONDS[workload]))


def size_mix(workload: str) -> dict:
    """The fixed per-block size mix, for the run's provenance."""
    if workload == "verify":
        return {"n_max": list(VERIFY_SIZES), "corrupt_per_block": VERIFY_CORRUPT_PER_BLOCK}
    if workload == "triangle":
        return {"n_max": {c: list(s) for c, s in TRIANGLE_SIZES},
                "formats": list(TRIANGLE_FORMATS)}
    return {"n": list(EVAL_SIZES), "k": "uniform in [0, n]",
            "alpha": "p/q, p in [-50, 50], q in [1, 20]",
            "expansion_per_block": EVAL_EXPANSION_GROUPS}
