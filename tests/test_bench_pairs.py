"""tools/bench_pairs.py's pure parts on canned perfbench result lines; nothing is spawned."""
import json

import pytest

from test_bench_history import bench_pairs

BETTER = {"ops_per_s": "higher", "latency_p50_s": "lower"}


def _line(ops, p50, failed=0):
    """The last stdout line of one perfbench --trace 0 run, after a line of other output."""
    return "eval end_to_end ops_per_s = %r 1/s\n%s\n" % (ops, json.dumps({
        "correct": True, "attempted": 32, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "latency_p50_s": {"value": p50, "unit": "s"}}}))


def _runs():
    parent = [(17.0, 0.060), (16.0, 0.058), (18.0, 0.061), (17.5, 0.059)]
    change = [(17.2, 0.059), (15.0, 0.057), (18.5, 0.062), (17.5, 0.058)]
    return {side: [bench_pairs.parse_result(_line(*values)) for values in runs]
            for side, runs in (("parent", parent), ("change", change))}


def test_parse_result_reads_the_last_line_and_refuses_other_output():
    assert bench_pairs.parse_result(_line(17.0, 0.06, failed=2))["failed"] == 2
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")
    with pytest.raises(ValueError):
        bench_pairs.parse_result('{"metrics": {}}\n')


def test_seeds_and_the_abba_order():
    assert bench_pairs.parse_seeds("4401-4404") == [4401, 4402, 4403, 4404]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5-4")
    assert [bench_pairs.order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_medians_pairs_won_and_quartile_distance():
    summary = bench_pairs.summarise(_runs(), BETTER)
    ops, p50 = summary["ops_per_s"], summary["latency_p50_s"]
    assert (ops["parent"], ops["change"]) == (17.25, 17.35)
    assert ops["parent_runs"] == [17.0, 16.0, 18.0, 17.5]
    assert ops["won"] == 2 and ops["pairs"] == 4  # higher is better; a tie is not a win
    assert p50["won"] == 3  # lower is better
    # statistics.quantiles' exclusive method: Q1 16.25, Q3 17.875
    assert ops["parent_quartile_distance"] == pytest.approx(1.625)


def test_history_entries_have_the_keys_bench_history_checks():
    summary = bench_pairs.summarise(_runs(), BETTER)
    entries = bench_pairs.history_entries("96a55eb", "eval", summary, [1, 2, 3, 4], 30,
                                          "a host", "a note")
    assert [e["metric"] for e in entries] == list(BETTER)
    for entry in entries:
        assert list(entry) == bench_pairs.ENTRY_KEYS
        assert entry["claimed"] is False and entry["pairs"] == 4 and entry["seconds"] == 30
        assert entry["note"].startswith("a note; the change won ")
    assert entries[0]["parent_runs"] == [17.0, 16.0, 18.0, 17.5]
    assert entries[1]["change"] == 0.0585


def test_report_prints_every_metric_and_the_failures():
    runs = _runs()
    lines = bench_pairs.report("eval", bench_pairs.summarise(runs, BETTER), runs)
    assert lines[0].startswith("eval ops_per_s: parent 17.25 -> change 17.35 (+0.6%)")
    assert lines[-2] == ("eval parent: failed [0, 0, 0, 0] of attempted [32, 32, 32, 32]; "
                         "correct [True, True, True, True]")
