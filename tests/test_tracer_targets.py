"""The benchmark tracer wraps functions of `mockfan` by name; every name it
lists must still exist, or a rename breaks `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, name) for layer, names in module.TARGETS.items() for name in names]


@pytest.mark.parametrize("layer, name", tracer_targets())
def test_tracer_target_resolves(layer, name):
    module = importlib.import_module(f"mockfan.{layer}")
    if "." in name:
        cls, attr = name.split(".")
        assert attr in vars(getattr(module, cls))
    else:
        assert callable(getattr(module, name, None))
