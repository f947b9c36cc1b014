"""The benchmark tracer wraps library functions by name: every name it lists
must exist, or each traced benchmark run fails with AttributeError."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
NAMES = [(layer, attr) for table in (tracing.OWN, tracing.FOREIGN)
         for layer, attrs in table.items() for attr in attrs]


@pytest.mark.parametrize("layer,attr", NAMES, ids=[f"{l}.{a}" for l, a in NAMES])
def test_traced_name_exists(layer, attr):
    assert callable(getattr(tracing.LAYERS[layer], attr, None))
