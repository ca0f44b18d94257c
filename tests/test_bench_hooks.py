"""The benchmark wraps library callables by name and runs set-up code on them; keep both working."""

import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"

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


def test_oracle_samples_through_traced_sampler(monkeypatch, heat_pair):
    """The tracer counts family reads at ``sample_batch``; the oracle must read every midpoint there."""
    import trotterbench as tb

    read = []
    sample_batch = tb.TimeDependentFamily.sample_batch

    def counted(self, ts):
        read.append(len(ts))
        return sample_batch(self, ts)

    monkeypatch.setattr(tb.TimeDependentFamily, "sample_batch", counted)
    a_op, fam = heat_pair
    tb.midpoint_exponential(a_op, fam, 0.0, 0.5, 1024)
    assert sum(read) == 1024


def _bench_constant(name: str) -> str:
    """A string constant of ``bench/run.py``, read without importing the script."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_setup_code_runs_on_fixtures():
    """The set-up step the benchmark times must run on the library's current names."""
    names = ("rate_heat1d", "semigroup_heat1d")
    configs = [str(ROOT / "tests" / "configs" / f"{name}.json") for name in names]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _bench_constant("SETUP_CODE"), repr(time.time()), *configs],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(proc.stdout))
