"""The benchmark's traced run wraps functions by (module, attribute) name;
every name it wraps must resolve in the package, so that a rename fails here
rather than partway through `perfbench/run.py --trace 1`, and that run itself
checks its outputs and counts."""
import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _src_env

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def _module(name):
    return importlib.import_module("ncstirling." + name)


def test_layer_spans_resolve(tracing):
    for module, attr, _, _ in tracing.LAYER_SPANS:
        assert callable(getattr(_module(module), attr, None)), (module, attr)


def test_layer_methods_resolve(tracing):
    for module, cls_name, method, _ in tracing.LAYER_METHODS:
        cls = getattr(_module(module), cls_name)
        assert callable(getattr(cls, method, None)), (module, cls_name, method)


def test_exact_counters_resolve(tracing):
    exact = _module("exact")
    for name, bindings in tracing.EXACT_COUNTERS.items():
        primitive = getattr(exact, name.split(".")[1])
        for module, attr in bindings:
            assert getattr(_module(module), attr, None) is primitive, (name, module, attr)
    for method in tracing.ALPHAPOLY_OPS:
        assert callable(getattr(exact.AlphaPoly, method, None)), method


def test_every_unused_import_is_a_traced_binding(tracing):
    # an import kept only for the tracer is marked "# noqa: F401"; each such
    # (module, name) must be a binding that tracing.py patches
    bound = {(module, attr) for module, attr, _, _ in tracing.LAYER_SPANS}
    bound.update(b for bindings in tracing.EXACT_COUNTERS.values() for b in bindings)
    for path in sorted((ROOT / "src" / "ncstirling").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        name = alias.asname or alias.name
                        assert (path.stem, name) in bound, (path.name, name)
    # so is a deferred name of cli that no code of cli reads
    read = _names_read_by_cli()
    for name, _, _ in _deferred_assignments():
        assert name in read or ("cli", name) in bound, name


CLI_SOURCE = ROOT / "src" / "ncstirling" / "cli.py"


def _deferred_assignments():
    """(bound name, module, name) of each module-level `name = _deferred("module", "name")`
    in cli.py."""
    found = []
    for node in ast.parse(CLI_SOURCE.read_text()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "_deferred"):
            (target,) = node.targets
            found.append((target.id, *map(ast.literal_eval, node.value.args)))
    assert found
    return found


def _names_read_by_cli():
    return {node.id for node in ast.walk(ast.parse(CLI_SOURCE.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_each_deferred_name_is_the_function_it_calls():
    # a typo in a deferred name fails only when it is called, and no command calls some of them
    for bound, module, name in _deferred_assignments():
        assert bound == name, (bound, module, name)
        assert callable(getattr(_module(module), name, None)), (module, name)


# a recurrence triangle of cli.TRIANGLE_TWO_PROCESS_N_MIN rows to a file it owns calls
# write_in_turns, where the host lets two processes write it
TURNS_N_MIN = str(_module("cli").TRIANGLE_TWO_PROCESS_N_MIN)
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
IN_TURNS = hasattr(os, "fork") and (CPUS or 1) >= 2
SPIED_COMMANDS = [
    ["triangle", "--n-max", "4"],
    ["triangle", "--n-max", "4", "--construction", "explicit"],
    ["triangle", "--n-max", "4", "--format", "csv"],
    ["triangle", "--n-max", TURNS_N_MIN, "--out", os.devnull],
    ["verify", "--n-max", "6", "--corrupt", "3,1", "--with-oracle"],
    # the report renderers and the writer that cmd_verify reaches through cli's names
    ["verify", "--n-max", "6", "--corrupt", "3,1", "--with-oracle", "--out", os.devnull],
    ["verify", "--n-max", "6", "--corrupt", "3,1", "--with-oracle", "--out", os.devnull,
     "--format", "csv"],
    ["eval", "--n", "6", "--k", "2", "--alpha", "7/3", "--beta", "1.5", "--x0", "2"],
]


def test_a_name_replaced_before_any_command_is_the_one_it_calls():
    # a replacement of a deferred name set before any command, by getattr then setattr as
    # tracing.Patches.set does, must be the function each command calls. A fresh interpreter
    # has imported none of the deferred modules.
    deferred = [name for name, _, _ in _deferred_assignments()]
    code = """import contextlib, io
from ncstirling import cli
called = set()
def spy(name, fn):
    def call(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return call
for name in %r:
    setattr(cli, name, spy(name, getattr(cli, name)))
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main(argv) for argv in %r]
print(statuses, sorted(called))""" % (deferred, SPIED_COMMANDS)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = set(deferred) & _names_read_by_cli() - (set() if IN_TURNS else {"write_in_turns"})
    assert proc.stdout == "[0, 0, 0, 0, 1, 1, 1, 0] %s\n" % sorted(expected)


@pytest.mark.parametrize("workload, counts", [
    # seed 0 fixes the points, and no record is added to these lists: exact counts
    ("verify", {"identities.reports": 31857, "identities.checks": 10790, "jets.points": 17640}),
    ("eval", {}),
], ids=["verify", "eval"])
def test_the_traced_benchmark_run_is_correct(tmp_path, workload, counts):
    # The traced spans of run_suite, structural_checks and expansion_grid (verify), and of
    # evaluate_expansion (eval's --beta points), wrap cli's deferred functions, which import
    # their modules when first called. A known-defect failure leaves "correct" true. The run
    # writes its scratch files and trace under the root of its checkout, so it runs from a copy
    # of perfbench/, src/ and BENCHMARK.json, and the repository is left as it was.
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert {name: result["metrics"][name]["value"] for name in counts} == counts
