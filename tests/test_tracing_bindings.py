"""The benchmark's traced run wraps functions by (module, attribute) name;
every name it wraps must resolve in the package, so that a rename fails here
rather than partway through `perfbench/run.py --trace 1`."""
import ast
import importlib
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
