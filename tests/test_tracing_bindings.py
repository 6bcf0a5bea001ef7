"""The benchmark's traced run wraps functions by (module, attribute) name;
every name it wraps must resolve in the package, so that a rename fails here
rather than partway through `perfbench/run.py --trace 1`."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # so is a name cli binds on first use (cli.DEFERRED) that no code of cli reads
    read = _names_read_by_cli()
    for names in _module("cli").DEFERRED.values():
        for name in names:
            assert name in read or ("cli", name) in bound, name


def _names_read_by_cli():
    source = (ROOT / "src" / "ncstirling" / "cli.py").read_text()
    return {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}


SPIED_COMMANDS = [
    ["triangle", "--n-max", "4"],
    ["triangle", "--n-max", "4", "--construction", "explicit"],
    ["verify", "--n-max", "6", "--corrupt", "3,1", "--with-oracle"],
    ["eval", "--n", "6", "--k", "2", "--alpha", "7/3", "--beta", "1.5", "--x0", "2"],
]


def test_a_name_replaced_before_any_command_is_the_one_it_calls():
    # cli binds the names of cli.DEFERRED when a command first runs their module; a
    # replacement set before that, by getattr then setattr as tracing.Patches.set does,
    # must stay the function each command calls. A fresh interpreter has loaded none.
    code = """import contextlib, io
from ncstirling import cli
called = set()
def spy(name, fn):
    def call(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return call
for names in cli.DEFERRED.values():
    for name in names:
        setattr(cli, name, spy(name, getattr(cli, name)))
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main(argv) for argv in %r]
print(statuses, sorted(called))""" % (SPIED_COMMANDS,)
    src = str(ROOT / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    deferred = {name for names in _module("cli").DEFERRED.values() for name in names}
    assert proc.stdout == "[0, 0, 1, 0] %s\n" % sorted(deferred & _names_read_by_cli())
