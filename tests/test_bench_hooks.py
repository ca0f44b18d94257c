"""The benchmark's tracer wraps library callables by name; keep those names resolvable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", list(tracer.TRACED))
def test_traced_names_resolve(layer):
    home = importlib.import_module(f"trotterbench.{layer}")
    for name in tracer.TRACED[layer]:
        if "." in name:
            cls_name, meth = name.split(".")
            assert callable(vars(getattr(home, cls_name)).get(meth)), f"{layer}.{name}"
        else:
            assert callable(getattr(home, name, None)), f"{layer}.{name}"
