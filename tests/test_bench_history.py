"""BENCH_history.json, the record of parent -> change benchmark medians, stays
valid JSON with the stated keys, names only declared workloads and metrics, and
states medians and counts that agree with the runs it states."""
import importlib.util
import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tools/bench_pairs.py prints the entries and holds their keys, in order
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _optional(value, check):
    return value is None or check(value)


def _runs(values):
    return isinstance(values, list) and values and all(map(_number, values))


def test_bench_history_parses_with_the_stated_keys():
    doc = json.loads((ROOT / "BENCH_history.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    assert list(doc) == ["description", "entries"]
    assert isinstance(doc["description"], str) and doc["entries"]
    for entry in doc["entries"]:
        assert list(entry) == bench_pairs.ENTRY_KEYS, entry
        commit = entry["commit"]
        assert len(commit) >= 7 and all(c in "0123456789abcdef" for c in commit), entry
        assert entry["workload"] in workloads, entry
        assert entry["metric"] in better, entry
        for key in ("parent", "change", "seconds"):
            assert _optional(entry[key], _number), entry
        for key in ("parent_runs", "change_runs"):
            assert _optional(entry[key], _runs), entry
        for key in ("host", "note"):
            assert _optional(entry[key], lambda v: isinstance(v, str)), entry
        assert _optional(entry["pairs"], lambda v: type(v) is int), entry
        assert _optional(entry["seeds"], lambda v: all(type(s) is int for s in v)), entry
        assert isinstance(entry["claimed"], bool), entry
        if entry["claimed"]:
            # a claimed gain has both medians, in the metric's better direction
            parent, change = entry["parent"], entry["change"]
            assert parent is not None and change is not None, entry
            assert change > parent if better[entry["metric"]] == "higher" else change < parent


def test_bench_history_medians_and_counts_agree_with_the_runs():
    # a stated median is the median of its runs to the 4 significant digits the runs are
    # written with; pairs and seeds count the runs
    doc = json.loads((ROOT / "BENCH_history.json").read_text())
    for entry in doc["entries"]:
        for side in ("parent", "change"):
            runs = entry[side + "_runs"]
            if runs is None:
                continue
            if entry[side] is not None:
                assert math.isclose(entry[side], statistics.median(runs), rel_tol=1e-3), entry
            if entry["pairs"] is not None:
                assert entry["pairs"] == len(runs), entry
            if entry["seeds"] is not None:
                assert len(entry["seeds"]) == len(runs), entry
