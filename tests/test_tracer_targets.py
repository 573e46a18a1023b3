"""The benchmark tracer wraps functions of `mockfan` by name; every name it
lists must still exist, or a rename breaks `perfbench/run.py --trace 1`.
Each workload must also run traced and give the declared per-layer metrics."""

import functools
import importlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def perfbench_module(name):
    """A module of `perfbench/`, loaded from its file once."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracer_targets():
    return [(layer, name) for layer, names in perfbench_module("tracer").TARGETS.items()
            for name in names]


@pytest.mark.parametrize("layer, name", tracer_targets())
def test_tracer_target_resolves(layer, name):
    module = importlib.import_module(f"mockfan.{layer}")
    if "." in name:
        cls, attr = name.split(".")
        assert attr in vars(getattr(module, cls))
    else:
        assert callable(getattr(module, name, None))


@pytest.mark.parametrize("name", sorted(perfbench_module("workloads").WORKLOADS))
def test_tiny_workload_passes_its_check_traced(name, tmp_path):
    # the run of `perfbench/run.py --trace 1`: every layer wrapped, every
    # counter observed, then the metrics the benchmark declares
    tracing = perfbench_module("tracer")
    workload = perfbench_module("workloads").WORKLOADS[name]
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer"]}
    state = workload.prepare(7, "tiny", tmp_path)
    counters = tracing.Counters()
    with tracing.Tracer(observers=counters.observers()) as tracer:
        start = time.perf_counter()
        workload.run(state)
        run_s = time.perf_counter() - start
    attempted, failed = workload.check(state)
    assert attempted >= 1 and failed == 0
    metrics = tracing.layer_metrics(tracer, counters, run_s)
    assert set(metrics) | {"trace.overhead_s"} == declared
