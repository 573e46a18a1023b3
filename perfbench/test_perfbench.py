"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mockfan  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "mockfan" or name.startswith("mockfan.")]


def _bindings():
    """Every (owner, attribute) -> value the tracer may touch."""
    out = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    for layer, names in tracing.TARGETS.items():
        module = sys.modules[f"mockfan.{layer}"]
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                out[(f"{layer}.{cls_name}", attr)] = vars(getattr(module, cls_name))[attr]
    return out


def test_install_rebinds_every_original_and_uninstall_restores():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = tracer.originals
        assert set(originals) == {f"{layer}.{name}"
                                  for layer, names in tracing.TARGETS.items()
                                  for name in names}
        ids = {id(v) for v in originals.values()}
        for key, value in _bindings().items():
            assert id(value) not in ids, f"{key} still binds an unwrapped original"
        # aliases imported under another name are wrapped too
        assert mockfan.cones.matrix_rank.__wrapped__ is originals["exact.rank"]
        assert mockfan.subdivision.fan_from_cones.__wrapped__ is \
            originals["fans.fan_from_cones"]
        assert mockfan.cli.verify.__wrapped__ is originals["grassmann.verify"]
        assert isinstance(vars(mockfan.cones.Cone)["facets"], property)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, f"{key} was not restored"


def test_self_time_of_nested_and_recursive_calls():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    inner = tracer.wrap("t.inner", lambda: tick(2.0))

    def outer_body():
        tick(1.0)
        inner()
        tick(3.0)
        inner()

    outer = tracer.wrap("t.outer", outer_body)

    def countdown_body(k):
        tick(1.0)
        if k:
            countdown(k - 1)

    countdown = tracer.wrap("t.countdown", countdown_body)
    outer()
    countdown(2)
    summary = tracer.summary()
    assert summary["t.outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert summary["t.inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    # three nested spans of 3, 2 and 1 s: inclusive time counts the outermost
    assert summary["t.countdown"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}


def test_observer_sees_caller_and_pauses_recording():
    seen = []
    tracer = tracing.Tracer(clock=lambda: 0.0,
                            observers={"t.leaf": lambda tr, args, result:
                                       seen.append((tr.parent_name(), leaf(0)))})
    leaf = tracer.wrap("t.leaf", lambda x: x + 1)
    root = tracer.wrap("t.root", lambda: leaf(1))
    assert root() == 2
    assert seen == [("t.root", 1)]
    assert tracer.summary()["t.leaf"]["calls"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.prepare(7, "tiny", tmp_path)
    assert len(workload.run(state)) >= 1
    attempted, failed = workload.check(state)
    assert attempted >= 1 and failed == 0


def test_check_rejects_a_wrong_result(tmp_path):
    workload = workloads.WORKLOADS["subdivide-8-2-1"]
    state = workload.prepare(7, "tiny", tmp_path)
    workload.run(state)
    state["text"] += "\n"
    assert workload.check(state) == (1, 1)


def test_random_inputs_depend_only_on_the_seed(tmp_path):
    workload = workloads.WORKLOADS["random-roundtrip"]
    first = workload.prepare(3, "tiny", tmp_path)["tasks"]
    again = workload.prepare(3, "tiny", tmp_path)["tasks"]
    other = workload.prepare(4, "tiny", tmp_path)["tasks"]
    assert first == again and first != other


def test_traced_metrics_are_the_declared_per_layer_metrics(tmp_path):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer"]}
    workload = workloads.WORKLOADS["verify-6-2-1"]
    state = workload.prepare(7, "tiny", tmp_path)
    counters = tracing.Counters()
    tracer = tracing.Tracer(observers=counters.observers())
    with tracer:
        start = time.perf_counter()
        workload.run(state)
        run_s = time.perf_counter() - start
    metrics = tracing.layer_metrics(tracer, counters, run_s)
    assert set(metrics) | {"trace.overhead_s"} == declared
    assert metrics["fans.fan_from_cones.calls"] == 1
    # cli.main covers the whole timed phase, so the layers account for it
    assert 0 <= metrics["trace.unattributed_s"] < 0.01 * run_s
    assert metrics["subdivision.faces_avoiding"] == metrics["fans.cones"] == 92
    assert 0 < metrics["fans.face_closure_yield"] < 1
    assert workload.check(state) == (1, 0)


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-6-2-1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
