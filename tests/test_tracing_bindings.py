"""The benchmark's traced run wraps functions by (module, attribute) name;
every name it wraps must resolve in the package, so that a rename fails here
rather than partway through `perfbench/run.py --trace 1`."""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
