"""What the benchmark relies on.  The tracer wraps library functions by
name: every name it lists must exist, or each traced benchmark run fails
with AttributeError.  A run repeats a workload's job in one process: what
the library remembers must not make a later job cheaper than the first."""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_bench("tracing")
NAMES = [(layer, attr) for table in (tracing.OWN, tracing.FOREIGN)
         for layer, attrs in table.items() for attr in attrs]


@pytest.mark.parametrize("layer,attr", NAMES, ids=[f"{l}.{a}" for l, a in NAMES])
def test_traced_name_exists(layer, attr):
    assert callable(getattr(tracing.LAYERS[layer], attr, None))


def test_repeated_lp_scan_jobs_start_cold():
    # the library remembers one scan line and a job visits four in turn,
    # so the second job starts on line 0 with line 3 remembered
    workloads = load_bench("workloads")
    inputs = dict(workloads.make_inputs("lp-scan", 1), probes=[])
    lps = []
    for _ in range(2):
        records = workloads.run_job("lp-scan", inputs)
        assert all(r.result.lps <= r.result.trials for r in records)
        lps.append(sum(r.result.lps for r in records))
    assert lps[0] == lps[1] < 640
