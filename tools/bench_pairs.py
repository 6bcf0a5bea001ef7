"""Run the benchmark on a parent revision and on the working tree in alternating pairs,
and summarise the pairs.

    python3 tools/bench_pairs.py --parent REV --workloads eval verify \
        --seeds 4401-4410 [--commit HASH] [--note TEXT]

The parent is exported with `git archive REV`, the working tree is copied (without
.git and caches), each into a fresh temporary directory, and both are compiled with
compileall, so that the two sides start from the same bytecode state. For each seed
and workload, each side's `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
with T the run_seconds of BENCHMARK.json, runs as a black box under
PYTHONDONTWRITEBYTECODE=1, in ABBA order: the parent first for even pair indices, the
change first for odd ones.

It prints, per workload and end-to-end metric of BENCHMARK.json: both medians, the
per-run values, the pairs the change won, and the distance between the quartiles of
the parent's runs; the failed operations of every run; and, given --commit (the change's
commit, known only once it is made), the BENCH_history.json entries of the pairs, one JSON
object a line. Standard library only.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# The keys of a BENCH_history.json entry, in order (tests/test_bench_history.py reads them here).
ENTRY_KEYS = ["commit", "workload", "metric", "parent", "change", "parent_runs", "change_runs",
              "pairs", "seeds", "seconds", "host", "claimed", "note"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_tmp", ".perfbench_out",
                                     ".pytest_cache", ".hypothesis", "*.egg-info")


def parse_seeds(text: str) -> list[int]:
    """"4401-4410" -> [4401, ..., 4410]; "7" -> [7]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError("empty seed range %r" % text)
    return seeds


def order(pair: int) -> tuple:
    """The sides of pair number `pair` in the order they run: ABBA."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_result(stdout: str) -> dict:
    """The result of one perfbench run: the JSON object on the last line of its stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= set(result):
        raise ValueError("not a perfbench result: %r" % lines[-1][:200])
    return result


def quartile_distance(values: list) -> float:
    """Q3 - Q1 of the values (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def won(parent: float, change: float, better: str) -> bool:
    """Whether the change's value beats the parent's in the metric's better direction."""
    return change > parent if better == "higher" else change < parent


def summarise(runs: dict, better: dict) -> dict:
    """{metric: summary} over runs = {"parent": [result, ...], "change": [result, ...]}, the
    i-th result of each side from pair i: both medians, the per-run values, the pairs the
    change won and the parent's quartile distance, for every metric in `better`
    ({name: "higher" | "lower"})."""
    summary = {}
    for metric, direction in better.items():
        values = {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
        summary[metric] = {
            "parent": statistics.median(values["parent"]),
            "change": statistics.median(values["change"]),
            "parent_runs": values["parent"],
            "change_runs": values["change"],
            "won": sum(won(p, c, direction) for p, c in zip(values["parent"], values["change"])),
            "pairs": len(values["parent"]),
            "parent_quartile_distance": quartile_distance(values["parent"]),
        }
    return summary


def history_entries(commit, workload: str, summary: dict, seeds: list, seconds, host: str,
                    note: str) -> list:
    """The BENCH_history.json entries of one workload's pairs, none of them claimed."""
    entries = []
    for metric, s in summary.items():
        entries.append(dict(zip(ENTRY_KEYS, [
            commit, workload, metric, round(s["parent"], 4), round(s["change"], 4),
            [round(v, 4) for v in s["parent_runs"]], [round(v, 4) for v in s["change_runs"]],
            s["pairs"], list(seeds), seconds, host, False,
            "%s; the change won %d of %d pairs; parent quartile distance %.4g"
            % (note, s["won"], s["pairs"], s["parent_quartile_distance"])])))
    return entries


def report(workload: str, summary: dict, runs: dict) -> list:
    """Lines that print one workload's summary and every run's failures."""
    lines = []
    for metric, s in summary.items():
        lines.append("%s %s: parent %.4g -> change %.4g (%+.1f%%), change won %d of %d, "
                     "parent quartile distance %.4g"
                     % (workload, metric, s["parent"], s["change"],
                        100 * (s["change"] / s["parent"] - 1) if s["parent"] else 0.0,
                        s["won"], s["pairs"], s["parent_quartile_distance"]))
        for side in SIDES:
            lines.append("  %s runs: %s" % (side, " ".join("%.4g" % v
                                                          for v in s[side + "_runs"])))
    for side in SIDES:
        lines.append("%s %s: failed %s of attempted %s; correct %s" % (
            workload, side, [r["failed"] for r in runs[side]],
            [r["attempted"] for r in runs[side]], [r["correct"] for r in runs[side]]))
    return lines


def host() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return "%d CPUs (%s), Python %s" % (os.cpu_count() or 1, model, platform.python_version())


def prepare(parent_rev: str, into: Path) -> dict:
    """Export the parent and copy the working tree into `into`; compile both."""
    dirs = {side: into / side for side in SIDES}
    archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT,
                             capture_output=True, check=True, timeout=300).stdout
    dirs["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(dirs["parent"])], input=archive, check=True,
                   timeout=300)
    shutil.copytree(ROOT, dirs["change"], ignore=COPY_IGNORE)
    for path in dirs.values():
        if not compileall.compile_dir(str(path / "src"), quiet=1) or \
                not compileall.compile_dir(str(path / "perfbench"), quiet=1):
            raise SystemExit("compileall failed in %s" % path)
    return dirs


def run_once(directory: Path, workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=directory, env=env, capture_output=True, text=True,
                          timeout=60 * seconds + 600)
    if done.returncode != 0:
        raise SystemExit("perfbench failed in %s (exit %d):\n%s"
                         % (directory, done.returncode, done.stderr[-2000:]))
    return parse_result(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "4401-4410"')
    parser.add_argument("--commit", default=None,
                        help="the change's commit; without it no entries are printed")
    parser.add_argument("--note", default="alternating pairs from tools/bench_pairs.py")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    entries = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = prepare(args.parent, Path(tmp))
        for workload in args.workloads:
            runs = {side: [] for side in SIDES}
            for pair, seed in enumerate(args.seeds):
                for side in order(pair):
                    runs[side].append(run_once(dirs[side], workload, seed, seconds))
                    print("%s seed %d %s done" % (workload, seed, side), flush=True)
            summary = summarise(runs, better)
            print("\n".join(report(workload, summary, runs)), flush=True)
            entries += history_entries(args.commit, workload, summary, args.seeds, seconds,
                                       host(), args.note)
    if args.commit is not None:
        print("BENCH_history.json entries:")
        for entry in entries:
            print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
