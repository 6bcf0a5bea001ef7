"""Benchmark of the ncstirling command-line program.

    python3 perfbench/run.py --workload verify|triangle|eval|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is run from its ``src``
directory, as ``python -m ncstirling``.

--trace 0 measures end to end: a closed loop with one client spawns one fresh
process per operation, from a seeded list of whole blocks (see workloads.py),
about --seconds seconds of them, and checks every output against the
benchmark's own references (reference.py). Times are given as measured
(``wall.*``) and divided by the host's slowdown during the run (see loop.py).
--trace 1 replays the workload's first block in-process with spans around
each layer (tracing.py) and reports per-layer figures. ``--workload all`` runs
every workload, and with --trace 1 both kinds of run, and prefixes each metric
with its workload.

Every metric is printed by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, whose metrics are
the end_to_end (--trace 0) or per_layer (--trace 1) ones that BENCHMARK.json
declares. The error rate is failed / attempted. Known defects (NOTES.md)
count as failed but leave "correct" true; any other failure makes it false.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from check import Checker, Output, Verdict
from loop import Client, Sample, harrell_davis, tail_latency
from tracing import trace_block
from workloads import WORKLOADS, Op, block_count, blocks, size_mix

ROOT = Path(__file__).resolve().parent.parent
# Spawns of `--help` timed for setup_s before the first block and after each
# block, so that they sample the same stretch of time as the operations.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


Metrics = Dict[str, Tuple[float, str]]


def declared_metrics() -> Dict[str, List[Tuple[str, str]]]:
    """(name, unit) of the end_to_end and per_layer metrics in BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read BENCHMARK.json: %s" % exc)
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


def _check_program() -> None:
    if not (ROOT / "src" / "ncstirling" / "__main__.py").is_file():
        raise BenchError("no ncstirling package under %s" % (ROOT / "src"))


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, ops: List[Op], n_blocks: int) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "blocks": n_blocks,
        "operations": len(ops),
        "size_mix": size_mix(workload),
    }


def measure_setup(client: Client) -> List[float]:
    """Walls of `python -m ncstirling --help`: interpreter start, package
    import and parser build, which every CLI call pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        out, latency, _ = client.run(["--help"])
        if out.returncode != 0 or b"usage: ncstirling" not in out.head:
            raise BenchError("`ncstirling --help` failed: status %d\n%s"
                             % (out.returncode, out.stderr))
        times.append(latency)
        client.calibrate()
    return times


def self_test(checker: Checker) -> None:
    """Feed the checker one output with a wrong value; it must count as failed."""
    op = next(op for op in next(blocks("eval", 0)) if op.beta is None)
    right = checker.rows.value(op.n, op.k, op.alpha)
    wrong = "%d/%d\n" % (right.numerator + 1, right.denominator)
    out = Output(0, "", len(wrong), wrong.encode(), "")
    if tally([checker.check(op, out)]) != (False, 1, 1):
        raise BenchError("self-test: the checker accepted a wrong value")


def tally(verdicts: List[Verdict]) -> Tuple[bool, int, int]:
    """(correct, attempted, failed): correct unless some failure is not a known defect."""
    failed = [v for v in verdicts if not v.ok]
    return all(v.known for v in failed), len(verdicts), len(failed)


def report_failures(label: str, ops: List[Op], verdicts: List[Verdict]) -> None:
    known: Dict[str, int] = {}
    for op, verdict in zip(ops, verdicts):
        if verdict.ok:
            continue
        if verdict.known:
            known[verdict.known] = known.get(verdict.known, 0) + 1
        print("%s FAIL%s %s: %s" % (label, " (known: %s)" % verdict.known if verdict.known else "",
                                     " ".join(op.argv), verdict.reason))
    for name, count in sorted(known.items()):
        print("%s known defect %s: %d operations" % (label, name, count))


def run_end_to_end(workload: str, seed: int, seconds: float, client: Client,
                   checker: Checker) -> Tuple[Metrics, List[Verdict], dict]:
    n_blocks = block_count(workload, seconds)
    client.run(["--help"])  # warm-up: fills the page cache and __pycache__
    setup_times = measure_setup(client)
    samples: List[Sample] = []
    wall = 0.0
    for block in itertools.islice(blocks(workload, seed), n_blocks):
        checker.prepare(block)
        block_samples, block_wall = client.run_block(block)
        samples += block_samples
        wall += block_wall
        setup_times += measure_setup(client)
    verdicts = [checker.check(s.op, s.output) for s in samples]
    latencies = [s.latency_s for s in samples]
    tail, percentile = tail_latency(latencies)
    # The times are given as measured (wall.*) and divided by the host's
    # slowdown during the run (see loop.py); process start-up slows with the
    # host too.
    slowdown = client.slowdown()
    measured = {
        "ops_per_s": (len(samples) / wall, "1/s"),
        "latency_p50_s": (harrell_davis(latencies, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    metrics = {name: (value * slowdown if unit == "1/s" else value / slowdown, unit)
               for name, (value, unit) in measured.items()}
    metrics["peak_rss_mb"] = (max(s.maxrss_kib for s in samples) / 1024, "MiB")
    metrics.update({"wall." + name: value for name, value in measured.items()})
    metrics["machine.slowdown"] = (slowdown, "ratio")
    info = provenance(workload, seed, [s.op for s in samples], n_blocks)
    info["latency_tail_percentile"] = percentile
    info["latency_samples"] = len(latencies)
    info["loop_wall_s"] = wall
    report_failures(workload, [s.op for s in samples], verdicts)
    return metrics, verdicts, info


def run_traced(workload: str, seed: int, client: Client, checker: Checker,
               out_dir: Path) -> Tuple[Metrics, List[Verdict], dict]:
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import ncstirling
    if Path(ncstirling.__file__).resolve().parent != ROOT / "src" / "ncstirling":
        raise BenchError("imported ncstirling from %s, not from this checkout"
                         % ncstirling.__file__)
    ops = next(blocks(workload, seed))
    checker.prepare(ops)
    trace = trace_block(ops, client.scratch)
    spawned = [client.run_op(op) for op in ops]
    metrics = dict(trace.metrics)
    metrics["cli.process_s"] = (
        sum(s.latency_s - w for s, w in zip(spawned, trace.untraced_walls)), "s")

    passes = dict(trace.outputs, subprocess=[s.output for s in spawned])
    all_ops = list(ops) * len(passes)
    outputs = [out for outs in passes.values() for out in outs]
    verdicts = [checker.check(op, out) for op, out in zip(all_ops, outputs)]
    report_failures(workload + " traced", all_ops, verdicts)

    info = provenance(workload, seed, list(ops), 1)
    info["passes"] = list(passes)
    trace_path = out_dir / ("trace-%s-%d.json" % (workload, seed))
    with open(trace_path, "w") as handle:
        json.dump({"provenance": info, "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": trace.spans,
                   "operations": [" ".join(op.argv) for op in ops]}, handle)
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    print("%s trace sanity: span self times per operation add up to the in-process "
          "main wall within %.2e (worst operation)"
          % (workload, metrics["trace.self_sum_gap"][0]))
    return metrics, verdicts, info


def print_metrics(label: str, metrics: Metrics) -> None:
    for name, (value, unit) in metrics.items():
        print("%s %s = %r %s" % (label, name, value, unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind as on an error, so that the running child is killed
    # and waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    out_dir = ROOT / ".perfbench_out"
    try:
        declared = declared_metrics()
        _check_program()
        scratch.mkdir(parents=True, exist_ok=True)
        out_dir.mkdir(exist_ok=True)
        client = Client(ROOT, scratch)
        checker = Checker()
        self_test(checker)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        kinds = ["end_to_end"] if args.trace == 0 else ["per_layer"]
        if args.workload == "all" and args.trace == 1:
            kinds = ["end_to_end", "per_layer"]
        metrics: Metrics = {}
        verdicts: List[Verdict] = []
        for workload in workloads:
            for kind in kinds:
                if kind == "end_to_end":
                    got, checked, info = run_end_to_end(workload, args.seed, args.seconds,
                                                        client, checker)
                else:
                    got, checked, info = run_traced(workload, args.seed, client, checker,
                                                    out_dir)
                correct, attempted, failed = tally(checked)
                label = "%s %s" % (workload, kind)
                print("%s provenance %s" % (label, json.dumps(info, sort_keys=True)))
                print_metrics(label, got)
                print("%s error_rate = %r (%d of %d operations failed)"
                      % (label, failed / attempted, failed, attempted))
                print("%s outputs: %s" % (label, "CORRECT" if correct else "INCORRECT"))
                prefix = workload + "." if args.workload == "all" else ""
                for name, unit in declared[kind]:
                    if got[name][1] != unit:
                        raise BenchError("%s is in %s, BENCHMARK.json says %s"
                                         % (name, got[name][1], unit))
                    metrics[prefix + name] = got[name]
                verdicts += checked
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    correct, attempted, failed = tally(verdicts)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
