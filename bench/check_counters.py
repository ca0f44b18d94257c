"""Two traced runs of each workload must give identical machine-independent counters.

Kept out of the tier-1 suite because it runs every workload twice.  Run it
from the repository root with either of::

    python3 bench/check_counters.py
    python3 -m pytest -q bench/check_counters.py
"""

from __future__ import annotations

import os
import sys

import pytest

import tracer as tr
from run import BLAS_ENV, BLAS_THREADS
from workloads import OUT, SRC, WORKLOADS, run_repetition

# Before trotterbench (and so numpy) is first imported by run_repetition.
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
sys.path.insert(0, str(SRC))


def traced_counters(name: str, k: int) -> dict:
    t = tr.Tracer()
    with tr.install(t):
        outcomes = run_repetition(WORKLOADS[name], OUT / "check_counters" / f"{name}-{k}", t)
    metrics = t.metrics()
    assert all(o.exit_code is not None for o in outcomes)
    return {c: metrics[c] for c in tr.EXACT_COUNTERS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counters_repeat_exactly(name):
    first, second = (traced_counters(name, k) for k in range(2))
    assert first == second
    assert first["problem_families.sample.calls"] > 0


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
