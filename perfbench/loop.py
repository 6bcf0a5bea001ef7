"""The closed loop: one client, one fresh `python -m ncstirling` process per
operation, the next one spawned only after the previous one has exited and its
output has been read.

The host this benchmark was built on runs in speed regimes that last minutes
and differ by up to 1.6x; every CPU-bound process slows alike. So after each
operation the client also times a fixed CPU-bound job of its own
(``calibrate``), outside the operation's timing. The run's mean of those, over
CALIBRATION_REFERENCE_S, is the machine's slowdown during the run, and the
end-to-end times are reported both as measured and divided by it.
"""
from __future__ import annotations

import gc
import hashlib
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from check import HEAD_LIMIT, Output
from workloads import Op

CHUNK = 1 << 20
# Beyond the latency percentile reported as the tail there are at least this many samples.
TAIL_SAMPLES_BEYOND = 10
# calibrate() in the fast regime of a 2-vCPU Intel Xeon VM with Python 3.11.7.
CALIBRATION_REFERENCE_S = 0.012


def calibrate() -> float:
    """Seconds taken by a fixed job like the program's own work (alternating
    binomial sums over rationals, products of integer polynomials, decimal
    printing of big integers, interpreter loops), with the collector off.
    It runs no program code, so a change to the program does not move it."""
    gc.disable()
    try:
        start = perf_counter()
        for p in (-37, 23, 41, -11, 7):
            x = Fraction(p, 19)
            term, total = Fraction(1), Fraction(0)
            for k in range(60):
                total += term / (60 - k)
                term = term * (x - k) / (k + 1)
        poly = [1]
        for j in range(200):
            out = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                out[i] -= c * j
                out[i + 1] -= c
            poly = out
        ",".join(str(c) for c in poly)
        sum(i * i % 7 for i in range(60000))
        return perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Sample:
    op: Op
    output: Output
    latency_s: float
    maxrss_kib: int


class Client:
    """Spawns CLI processes from the checkout at ``root`` and keeps their
    scratch files (stderr, verify reports) under ``scratch``."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.calibrations: List[float] = []
        self._count = 0

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def slowdown(self) -> float:
        """Mean calibration time so far over CALIBRATION_REFERENCE_S."""
        return statistics.mean(self.calibrations) / CALIBRATION_REFERENCE_S

    def run(self, argv: Sequence[str]) -> Tuple[Output, float, int]:
        """Run one CLI call; return its output, wall time from spawn until
        exit with stdout fully read, and its max RSS in KiB."""
        self._count += 1
        err_path = self.scratch / ("stderr-%d" % self._count)
        digest, nbytes, head = hashlib.sha256(), 0, bytearray()
        with open(err_path, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "ncstirling", *argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    cwd=self.root, env=self.env)
            reaped = False
            try:
                while True:
                    chunk = proc.stdout.read(CHUNK)
                    if not chunk:
                        break
                    digest.update(chunk)
                    nbytes += len(chunk)
                    if len(head) < HEAD_LIMIT:
                        head += chunk[:HEAD_LIMIT - len(head)]
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
                latency = perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if not reaped:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        err_path.unlink()
        out = Output(proc.returncode, digest.hexdigest(), nbytes, bytes(head), stderr)
        return out, latency, usage.ru_maxrss

    def run_op(self, op: Op) -> Sample:
        report_path = self.scratch / ("report-%d.json" % (self._count + 1))
        out, latency, rss = self.run(op.command(str(report_path)))
        if report_path.exists():
            out.report = report_path.read_text()
            report_path.unlink()
        return Sample(op, out, latency, rss)

    def run_block(self, ops: List[Op]) -> Tuple[List[Sample], float]:
        """Run ``ops`` back to back, each followed by a calibration; return the
        samples and the block's wall time less the calibrations."""
        start = perf_counter()
        calibrated = len(self.calibrations)
        samples = []
        for op in ops:
            samples.append(self.run_op(op))
            self.calibrate()
        return samples, perf_counter() - start - sum(self.calibrations[calibrated:])


def harrell_davis(values: Sequence[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a mean of all the order
    statistics, weighted by how likely each is to be the p-quantile (Biometrika
    69, 1982). The sample quantile is set by the one or two operations at its
    rank, which change rank with the host's jitter; this estimate moves less.
    Needs 1/(n+1) <= p <= n/(n+1), where the weights' Beta density is bounded."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    steps = 64  # Simpson's rule on each of the n cells
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if j % 2 else 2) * density(i / n + j * h) for j in range(1, steps))
        weights.append((ends + inner) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_latency(latencies: Sequence[float]) -> Tuple[float, Optional[int]]:
    """The Harrell-Davis estimate of the highest whole percentile with at least
    TAIL_SAMPLES_BEYOND samples beyond it, and which percentile that is (None,
    with the maximum, when there are too few samples for any)."""
    percentile = math.floor(100 * (1 - TAIL_SAMPLES_BEYOND / len(latencies)))
    if percentile < 1:
        return max(latencies), None
    return harrell_davis(latencies, percentile / 100), percentile
