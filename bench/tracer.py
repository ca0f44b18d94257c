"""In-memory span tracer that wraps trotterbench's public functions from outside.

The library has no tracing of its own, so :func:`install` replaces each
traced function with a timing wrapper at every place it is bound: ``from .x
import f`` copies ``f`` into the importing module's namespace, so patching
only the defining module would miss the calls made through those copies.
Each call records a span ``(name, start, end, parent)``; a span's self time
is its duration minus the time covered by its direct child spans.
``numpy.linalg.eigh`` is counted process-wide without being timed.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "cli_harness",
    "problem_families",
    "operator_core",
    "trotter_products",
    "reference_oracle",
    "evolution_semigroup",
    "bounds_and_rates",
)

# Traced callables per layer module: plain names are module-level functions,
# dotted names are methods.  Everything a layer does that the benchmark
# reports on is covered; small helpers stay untraced and count towards the
# self time of their caller.
TRACED = {
    "cli_harness": ("main",),
    "problem_families": (
        "make_scalar_family",
        "make_synthetic_matrix_family",
        "make_heat1d_family",
        "TimeDependentFamily.sample",
        "TimeDependentFamily.sample_batch",
        "estimate_holder",
        "estimate_c_alpha",
    ),
    "operator_core": ("as_symmetric", "diagonalize", "op_norm", "sym_expm_neg"),
    "trotter_products": ("trotter_left", "trotter_right"),
    "reference_oracle": ("refine_to_tol", "midpoint_exponential", "analytic_commuting"),
    "evolution_semigroup": (
        "build_U_evo",
        "build_T",
        "build_T_reversed",
        "build_U0",
        "build_expB",
        "correspondence_check",
        "semigroup_defect_series",
        "check_onestep_linear_bound",
        "check_sandwiched_defect",
        "measure_smoothing_constant",
        "check_power_smoothing",
        "defect_decay_slope",
        "block_norm",
        "BlockShiftOperator.compose",
        "BlockShiftOperator.power",
    ),
    "bounds_and_rates": (
        "reference_grid",
        "sup_error",
        "rate_fit",
        "beta_sum_scan",
        "sandwiched_defect_constant",
        "solve_stability_constant",
        "stability_step_threshold",
    ),
}

# Reported metrics that sum the spans of several traced callables.
GROUPS = {
    "problem_families.build": (
        "problem_families.make_scalar_family",
        "problem_families.make_synthetic_matrix_family",
        "problem_families.make_heat1d_family",
    ),
    "problem_families.sample": (
        "problem_families.TimeDependentFamily.sample",
        "problem_families.TimeDependentFamily.sample_batch",
    ),
    "evolution_semigroup.block_ops": (
        "evolution_semigroup.BlockShiftOperator.compose",
        "evolution_semigroup.BlockShiftOperator.power",
        "evolution_semigroup.block_norm",
    ),
}

# (metric, unit, how): "self"/"incl"/"calls" aggregate the spans of a traced
# callable or group; the rest are filled in by :meth:`Tracer.metrics`.
SPAN_METRICS = (
    ("cli_harness.main.self_s", "s", "self"),
    ("problem_families.build.self_s", "s", "self"),
    ("problem_families.sample.calls", "count", "calls"),
    ("problem_families.sample.self_s", "s", "self"),
    ("problem_families.estimate_holder.incl_s", "s", "incl"),
    ("operator_core.sym_expm_neg.calls", "count", "calls"),
    ("operator_core.sym_expm_neg.self_s", "s", "self"),
    ("operator_core.as_symmetric.calls", "count", "calls"),
    ("operator_core.as_symmetric.self_s", "s", "self"),
    ("operator_core.op_norm.calls", "count", "calls"),
    ("operator_core.op_norm.self_s", "s", "self"),
    ("trotter_products.trotter_left.incl_s", "s", "incl"),
    ("trotter_products.trotter_right.incl_s", "s", "incl"),
    ("reference_oracle.refine_to_tol.calls", "count", "calls"),
    ("reference_oracle.refine_to_tol.self_s", "s", "self"),
    ("evolution_semigroup.build_U_evo.calls", "count", "calls"),
    ("evolution_semigroup.build_U_evo.incl_s", "s", "incl"),
    ("evolution_semigroup.correspondence_check.incl_s", "s", "incl"),
    ("evolution_semigroup.semigroup_defect_series.incl_s", "s", "incl"),
    ("evolution_semigroup.check_onestep_linear_bound.incl_s", "s", "incl"),
    ("evolution_semigroup.check_sandwiched_defect.incl_s", "s", "incl"),
    ("evolution_semigroup.measure_smoothing_constant.incl_s", "s", "incl"),
    ("evolution_semigroup.check_power_smoothing.incl_s", "s", "incl"),
    ("evolution_semigroup.block_ops.self_s", "s", "self"),
    ("bounds_and_rates.reference_grid.incl_s", "s", "incl"),
    ("bounds_and_rates.sup_error.incl_s", "s", "incl"),
    ("bounds_and_rates.beta_sum_scan.self_s", "s", "self"),
)

COUNTER_METRICS = (
    ("operator_core.eigh.calls", "count"),
    ("operator_core.eigh.matrices", "count"),
    ("trotter_products.factors", "count"),
    ("reference_oracle.refine_to_tol.distinct", "count"),
    ("reference_oracle.refine_to_tol.useful_ratio", "ratio"),
    ("reference_oracle.midpoint_steps.sum", "count"),
    ("reference_oracle.midpoint_steps.max", "count"),
    ("reference_oracle.error_estimate.max", "norm"),
)

LAYER_METRICS = tuple((f"{layer}.self_s", "s") for layer in LAYERS[1:])

# Metrics measured by the benchmark around the traced run, not from spans.
RUN_METRICS = (
    ("cli_harness.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

PER_LAYER = (
    tuple((name, unit) for name, unit, _ in SPAN_METRICS)
    + COUNTER_METRICS
    + LAYER_METRICS
    + RUN_METRICS
)

# Counters that must repeat exactly between runs of the same code.
EXACT_COUNTERS = tuple(
    name
    for name, unit in PER_LAYER
    if unit == "count" and not name.startswith("trace.")
)


class Tracer:
    """Spans and counters of one traced workload repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.intervals: set = set()
        self.midpoint_steps: list[int] = []
        self.error_estimates: list[float] = []
        self.operation = 0

    def wrap(self, name: str, fn, on_return=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_eigh(self, fn):
        counts = self.counts

        def counted(a, *args, **kwargs):
            counts["eigh.calls"] += 1
            counts["eigh.matrices"] += math.prod(getattr(a, "shape", (1, 1))[:-2])
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def on_refine(self, prop) -> None:
        self.intervals.add((self.operation, float(prop.s), float(prop.t)))
        self.midpoint_steps.append(int(prop.n_or_steps))
        self.error_estimates.append(float(prop.error_estimate or 0.0))

    def on_product(self, prop) -> None:
        self.counts["factors"] += int(prop.n_or_steps)

    def spans(self):
        """Rows ``(name, start, end, parent)`` in call order."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        duration = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += duration[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += duration[i] - child[i]
            if not self._has_ancestor_named(i, name):
                incl_s[name] += duration[i]

        def members(key: str):
            return GROUPS.get(key, (key,))

        out: dict[str, float] = {}
        for metric, _unit, how in SPAN_METRICS:
            key = metric.rsplit(".", 1)[0]
            table = {"self": self_s, "incl": incl_s, "calls": calls}[how]
            out[metric] = sum(table[m] for m in members(key))
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = sum(
                (v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0
            )
        refines = calls["reference_oracle.refine_to_tol"]
        out.update(
            {
                "operator_core.eigh.calls": self.counts["eigh.calls"],
                "operator_core.eigh.matrices": self.counts["eigh.matrices"],
                "trotter_products.factors": self.counts["factors"],
                "reference_oracle.refine_to_tol.distinct": len(self.intervals),
                "reference_oracle.refine_to_tol.useful_ratio": (
                    len(self.intervals) / refines if refines else 1.0
                ),
                "reference_oracle.midpoint_steps.sum": sum(self.midpoint_steps),
                "reference_oracle.midpoint_steps.max": max(self.midpoint_steps, default=0),
                "reference_oracle.error_estimate.max": max(self.error_estimates, default=0.0),
                "trace.spans": n,
            }
        )
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


@contextmanager
def install(tracer: Tracer):
    """Route every traced callable and ``numpy.linalg.eigh`` through ``tracer``."""
    import numpy as np

    package = importlib.import_module("trotterbench")
    modules = [package] + [
        importlib.import_module(f"trotterbench.{layer}") for layer in LAYERS
    ]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    hooks = {
        "reference_oracle.refine_to_tol": tracer.on_refine,
        "trotter_products.trotter_left": tracer.on_product,
        "trotter_products.trotter_right": tracer.on_product,
    }
    try:
        patch(np.linalg, "eigh", tracer.count_eigh(np.linalg.eigh))
        for layer, names in TRACED.items():
            home = importlib.import_module(f"trotterbench.{layer}")
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    patch(cls, meth, tracer.wrap(span, vars(cls)[meth], hooks.get(span)))
                    continue
                original = getattr(home, name)
                traced = tracer.wrap(span, original, hooks.get(span))
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        patch(module, attr, traced)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over repetitions."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
