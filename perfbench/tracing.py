"""The traced run: one block replayed in-process through ncstirling.cli.main(argv).

Wrappers installed here, around the public functions of each layer as the
calling modules bind them, record spans (name, start, end, parent, operation).
The exact primitives run up to millions of times per operation, so they are
counted and timed in a pass of their own, which keeps their wrapper cost out
of the other layers' self times. Passes with no wrappers give the in-process
wall against which tracing overhead and process cost are measured.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import io
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from check import HEAD_LIMIT, Output
from workloads import Op

# (module, attribute) bindings that calls go through, and the span name each
# records; an optional (name, function, unit) count is added up from each
# call's result.
LAYER_SPANS = (
    ("cli", "build_by_recurrence", "noncentral.build_by_recurrence", None),
    ("cli", "build_by_explicit", "noncentral.build_by_explicit", None),
    ("cli", "corrupt_entry", "noncentral.corrupt_entry", None),
    ("cli", "triangle_to_json", "noncentral.triangle_to_json",
     ("noncentral.triangle_to_json.bytes", len, "bytes")),
    ("cli", "triangle_to_csv", "cli.triangle_to_csv", None),
    ("cli", "structural_checks", "identities.structural_checks", ("identities.checks", len, "count")),
    ("cli", "run_suite", "identities.run_suite", ("identities.reports", len, "count")),
    ("cli", "reports_to_json_records", "identities.reports_to_json_records", None),
    ("cli", "expansion_grid", "jets.expansion_grid", ("jets.points", len, "count")),
    ("cli", "residuals_to_json_records", "jets.residuals_to_json_records", None),
    ("cli", "evaluate_expansion", "jets.evaluate_expansion", None),
    ("jets", "evaluate_expansion", "jets.evaluate_expansion", None),
    ("identities", "stirling_expansion_oracle", "stirling.stirling_expansion_oracle", None),
    ("identities", "harmonic", "stirling.harmonic", None),
    ("identities", "s_n1_sum_formula", "noncentral.s_n1_sum_formula", None),
    ("identities", "s_n1_recurrence", "noncentral.s_n1_recurrence", None),
)
# Methods wrapped on their class: (module, class, method, span name).
LAYER_METHODS = (
    ("stirling", "StirlingTable", "__init__", "stirling.StirlingTable"),
    ("noncentral", "NoncentralTriangle", "evaluate", "noncentral.evaluate"),
)
# Exact primitives, counted in their own pass: counter name -> bindings.
EXACT_COUNTERS = {
    "exact.binomial_rational": (("identities", "binomial_rational"),
                                ("noncentral", "binomial_rational")),
    "exact.falling_factorial": (("exact", "falling_factorial"),
                                ("noncentral", "falling_factorial")),
    "exact.format_rational": (("cli", "format_rational"), ("identities", "format_rational"),
                              ("jets", "format_rational")),
}
ALPHAPOLY_OPS = ("__init__", "__add__", "__mul__", "__rmul__")


def _module(name: str):
    return importlib.import_module("ncstirling." + name)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class SpanRecorder:
    """Spans as [name, start, end, parent index, operation index], in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = (start, end)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result
        return traced

    def install(self, patches: Patches) -> None:
        for module, attr, name, count in LAYER_SPANS:
            mod = _module(module)
            patches.set(mod, attr, self.wrap(name, getattr(mod, attr), count))
        for module, cls_name, method, name in LAYER_METHODS:
            cls = getattr(_module(module), cls_name)
            patches.set(cls, method, self.wrap(name, getattr(cls, method)))

    def self_times(self) -> List[float]:
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [end - start - children[i] for i, (_, start, end, _, _) in enumerate(self.spans)]


@dataclass
class ExactCounter:
    """Calls and outermost-call seconds of one exact primitive."""

    calls: int = 0
    seconds: float = 0.0
    depth: int = 0

    def wrap(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.calls += 1
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                self.depth = 0
        return counted


def install_exact_counters(patches: Patches, counters: Dict[str, ExactCounter]) -> None:
    exact = _module("exact")
    for name, bindings in EXACT_COUNTERS.items():
        wrapped = counters[name].wrap(getattr(exact, name.split(".")[1]))
        for module, attr in bindings:
            patches.set(_module(module), attr, wrapped)
    for method in ALPHAPOLY_OPS:
        patches.set(exact.AlphaPoly, method,
                    counters["exact.AlphaPoly"].wrap(getattr(exact.AlphaPoly, method)))


class _Capture(io.TextIOBase):
    """A stdout that hashes what it is given and keeps the head."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.nbytes = 0
        self.head = bytearray()

    def write(self, text: str) -> int:
        data = text.encode()
        self.digest.update(data)
        self.nbytes += len(data)
        if len(self.head) < HEAD_LIMIT:
            self.head += data[:HEAD_LIMIT - len(self.head)]
        return len(text)


def call_main(main: Callable, argv: List[str], report_path: Path) -> Tuple[Output, float]:
    """Call main(argv) with stdout and stderr captured, the way a process
    would end: an uncaught exception becomes a traceback and status 1.
    The wall time covers main alone."""
    stdout, stderr = _Capture(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = perf_counter()
        try:
            status = main(argv)
            wall = perf_counter() - start
        except SystemExit as exc:
            wall = perf_counter() - start
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            wall = perf_counter() - start
            stderr.write(traceback.format_exc())
            status = 1
    out = Output(status, stdout.digest.hexdigest(), stdout.nbytes, bytes(stdout.head),
                 stderr.getvalue())
    if report_path.exists():
        out.report = report_path.read_text()
        report_path.unlink()
    return out, wall


PASSES = ("untraced", "layer spans", "exact counters", "untraced again")


@dataclass
class Trace:
    """The replays of one block and what they measured."""

    outputs: Dict[str, List[Output]]  # pass name -> output of each operation
    walls: Dict[str, List[float]]  # pass name -> in-process wall of each operation
    metrics: Dict[str, Tuple[float, str]]  # name -> (value, unit)
    spans: List[list]

    @property
    def untraced_walls(self) -> List[float]:
        """Per operation, the lower of its two untraced walls."""
        return [min(a, b) for a, b in zip(self.walls["untraced"], self.walls["untraced again"])]


def trace_block(ops: Sequence[Op], scratch: Path) -> Trace:
    """Run each operation of ``ops`` in-process four times in a row: untraced,
    with layer spans, with exact counters, and untraced again. Running the
    passes of one operation back to back puts them in the same stretch of
    machine speed, so their differences measure the tracing, not the machine."""
    main = _module("cli").main
    recorder = SpanRecorder()
    counters = {name: ExactCounter() for name in list(EXACT_COUNTERS) + ["exact.AlphaPoly"]}
    trace = Trace({p: [] for p in PASSES}, {p: [] for p in PASSES}, {}, recorder.spans)
    for index, op in enumerate(ops):
        recorder.op = index
        for name in PASSES:
            patches = Patches()
            call = main
            try:
                if name == "layer spans":
                    recorder.install(patches)
                    call = recorder.wrap("cli.main", main)
                elif name == "exact counters":
                    install_exact_counters(patches, counters)
                report_path = scratch / ("inproc-report-%d.json" % index)
                out, wall = call_main(call, op.command(str(report_path)), report_path)
            finally:
                patches.undo()
            trace.outputs[name].append(out)
            trace.walls[name].append(wall)
            gc.collect()
    trace.metrics = _layer_metrics(trace, recorder, counters)
    return trace


def _layer_metrics(trace: Trace, recorder: SpanRecorder,
                   counters: Dict[str, ExactCounter]) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}
    names = [s[2] for s in LAYER_SPANS] + [m[3] for m in LAYER_METHODS] + ["cli.main"]
    for name in names:
        metrics.update({name + ".calls": (0, "count"), name + ".s": (0.0, "s"),
                        name + ".self_s": (0.0, "s")})
    per_op_self = [0.0] * len(trace.walls["untraced"])
    for (name, start, end, _, op), self_s in zip(recorder.spans, recorder.self_times()):
        for suffix, value in ((".calls", 1), (".s", end - start), (".self_s", self_s)):
            old, unit = metrics[name + suffix]
            metrics[name + suffix] = (old + value, unit)
        per_op_self[op] += self_s
    for _, _, _, count in LAYER_SPANS:
        if count is not None:
            metrics[count[0]] = (recorder.counts[count[0]], count[2])
    for name, counter in counters.items():
        calls = ".ops" if name == "exact.AlphaPoly" else ".calls"
        metrics[name + calls] = (counter.calls, "count")
        metrics[name + ".s"] = (counter.seconds, "s")
    metrics["cli.output_bytes"] = (
        sum(o.nbytes + len(o.report or "") for o in trace.outputs["untraced"]), "bytes")

    untraced_s = sum(trace.untraced_walls)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.layer_overhead_s"] = (sum(trace.walls["layer spans"]) - untraced_s, "s")
    metrics["trace.exact_overhead_s"] = (sum(trace.walls["exact counters"]) - untraced_s, "s")
    # Sanity: the self times of an operation's spans add up to its main wall,
    # measured outside the wrappers.
    metrics["trace.self_sum_gap"] = (
        max(abs(s - w) / w for s, w in zip(per_op_self, trace.walls["layer spans"])), "ratio")
    return metrics
