"""Benchmark for trotterbench: end-to-end times, or per-layer spans and counters.

Run from the repository root::

    python3 bench/run.py --workload converge_heat1d --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all

Every operation is one ``trotterbench`` command run in-process through
``cli_harness.main()`` on a committed fixture, closed loop, one client, one
command at a time.  After one untimed warm-up repetition, repetitions of the
workload run while the next one still fits in ``--seconds`` (at least one).
With ``--trace 0`` the run reports, per workload, ``wall_s`` (median over
the timed repetitions of the summed command times), ``wall_norm_s`` (the same
with each repetition rescaled to a fixed host speed by :class:`HostProbe`),
``setup_raw_s`` (median over fresh interpreters of import plus config
parsing and problem assembly), ``setup_s`` (the same with each interpreter
rescaled by the probe kernels timed around it) and ``peak_rss_mb``.  With ``--trace 1`` it alternates
untraced and traced repetitions and reports per-layer spans and counters,
the cold import time and the tracing overhead.

The workloads are fixed fixture inputs: ``--seed`` is recorded but changes
nothing.  BLAS threads are pinned to ``BLAS_THREADS``.  Outputs and spans go
to ``.bench_run/`` under the repository root.  Every metric is printed on
a ``metric`` line; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, the latter
holding the metrics ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer as tr
from workloads import (
    CONFIGS,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    config_path,
    mark_nondeterminism,
    run_repetition,
    sha256,
)

BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# Printed with --trace 0; the result line carries those BENCHMARK.json lists.
END_TO_END = (
    ("wall_norm_s", "s"),
    ("wall_s", "s"),
    ("host_slowdown", "ratio"),
    ("timed_reps", "count"),
    ("setup_s", "s"),
    ("setup_raw_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Host-speed probe: every PROBE_INTERVAL_S of a timed repetition one of
# three fixed kernels runs in the benchmark process (about 0.5% of the time).
# PROBE_REF_S holds each kernel's median time on the host that fixed them
# (2 vCPUs of a shared Xeon, single-thread OpenBLAS 0.3.31, numpy 2.4.6).
PROBE_INTERVAL_S = 0.2
PROBE_REF_S = {"small": 0.0006, "batched": 0.0017, "interpreter": 0.00028}

# Fresh-interpreter set-up, the work the CLI repeats before every command,
# timed from just before the interpreter is spawned (argv[1], epoch seconds).
SETUP_CODE = """
import json, sys, time
from trotterbench.cli_harness import build_problem, parse_config
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(json.load(fh))
    if cfg.family_spec is not None:
        build_problem(cfg)
print(time.time() - float(sys.argv[1]))
"""
IMPORT_CODE = """
import time
start = time.perf_counter()
import trotterbench.cli_harness
print(time.perf_counter() - start)
"""


def python_seconds(code: str, *args: str) -> float:
    """Run ``code`` in a fresh interpreter and return the seconds it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return float(proc.stdout)


def setup_seconds(workload, probe: "HostProbe") -> tuple[float, float]:
    """Median set-up time over fresh interpreters, raw and rescaled.

    Each interpreter's time is divided by the host slowdown measured just
    before and just after it: unscaled, the median over ten runs moved by up
    to a third from one set of runs to the next with no code change.
    """
    configs = [str(config_path(op.config)) for op in workload.operations]
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        before = probe.calibrate()
        seconds = python_seconds(SETUP_CODE, repr(time.time()), *configs)
        raw.append(seconds)
        norm.append(seconds / math.sqrt(before * probe.calibrate()))
    return statistics.median(raw), statistics.median(norm)


def import_seconds() -> float:
    return statistics.median(python_seconds(IMPORT_CODE) for _ in range(SETUP_REPEATS))


def machine_block() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def fixture_hashes() -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(CONFIGS.glob("*.json"))}


def print_outcomes(name: str, reps, trace: bool) -> None:
    """One line per operation; ``reps`` is laid out as :func:`measure` returns it."""
    for k, rep in enumerate(reps):
        kind = "warmup" if k == 0 else "traced" if trace and k % 2 == 0 else "timed"
        for o in rep:
            status = "ok" if not o.failed else "FAILED: " + "; ".join(o.problems)
            print(
                f"op {name} rep={k} {kind} [{o.label}] "
                f"exit={o.exit_code} "
                f"seconds={o.seconds:.4f} report.json={o.report_sha256} "
                f"table.csv={o.table_sha256} {status}"
            )


class HostProbe:
    """Times fixed kernels from ``SIGALRM`` while a repetition runs.

    The host's speed drifts by up to 1.8x over minutes as other tenants' load
    comes and goes, and the workload's commands run 10-20 s each, so a
    calibration between commands misses most of the drift.  The kernels
    stand for what the commands spend their time on: a 16x16 ``eigh`` with
    its spectral exponential and 2-norm, a batched ``eigh`` like the
    oracle's, and plain interpreter work.  They run in turn, in the same
    process on the same CPU, a few times a second.  A repetition's time
    divided by the geometric mean of the kernels' slowdowns (median time
    during the repetition over ``PROBE_REF_S``) keeps what the program costs
    and loses most of the drift: over ten 50 s runs of each workload, the
    quartile distance over the median was 0.35 (raw) and 0.09 (rescaled) on
    ``converge_heat1d``, 0.13 and 0.03 on ``semigroup_heat1d``.
    """

    def __init__(self) -> None:
        import numpy as np

        # Bound here, before the tracer wraps numpy.linalg.eigh to count it.
        eigh = np.linalg.eigh
        m = np.random.default_rng(0).standard_normal((33, 16, 16))
        m = m + np.transpose(m, (0, 2, 1))

        def small() -> None:
            for _ in range(3):
                lam, q = eigh(m[0])
                np.linalg.norm((q * np.exp(-0.1 * lam)) @ q.T, 2)

        def batched() -> None:
            lam, q = eigh(m[1:])
            (q * np.exp(-0.1 * lam)[:, None, :]) @ np.transpose(q, (0, 2, 1))

        def interpreter() -> None:
            x = 0.0
            for i in range(3000):
                x += i * 0.5

        self.kernels = (small, batched, interpreter)
        self.samples: dict[str, list[float]] = {}
        self._ticks = 0

    def _run(self, kernel) -> None:
        start = time.perf_counter()
        kernel()
        self.samples[kernel.__name__].append(time.perf_counter() - start)

    def _sample(self, signum, frame) -> None:
        self._run(self.kernels[self._ticks % len(self.kernels)])
        self._ticks += 1

    def calibrate(self, rounds: int = 5) -> float:
        """Host slowdown now, from each kernel run ``rounds`` times in turn."""
        self.samples = {k.__name__: [] for k in self.kernels}
        for _ in range(rounds):
            for kernel in self.kernels:
                self._run(kernel)
        return self.slowdown()

    def __enter__(self) -> "HostProbe":
        self.samples = {k.__name__: [] for k in self.kernels}
        self._ticks = 0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Host slowdown during the last repetition or calibration, over ``PROBE_REF_S``."""
        logs = [
            math.log(statistics.median(v) / PROBE_REF_S[k]) for k, v in self.samples.items()
        ]
        return math.exp(sum(logs) / len(logs))

    def timed(self, rep) -> tuple[float, float]:
        """The repetition's command time, raw and rescaled to the reference host.

        The kernels' own time is taken out of both.
        """
        raw = sum(o.seconds for o in rep) - sum(map(sum, self.samples.values()))
        return raw, raw / self.slowdown()


def measure(workload, seconds: float, trace: bool) -> tuple[list, dict]:
    """Run repetitions for about ``seconds``; return outcomes and metrics.

    The outcomes are the warm-up repetition, then the timed ones, each
    followed by a traced one with ``--trace 1``.  The warm-up counts towards
    ``seconds`` and is checked but not timed: the first repetition in a
    process runs 15-25% slower than the ones after it.  A new repetition
    (with ``--trace 1`` an untraced and a traced one) starts only while the
    last one would still fit in ``seconds``, so a run ends on time however
    long one repetition takes; there is always at least one.  Untraced
    repetitions run under the host-speed probe, traced ones do not.
    """
    out_dir = OUT / workload.name
    if out_dir.exists():
        shutil.rmtree(out_dir)
    probe = HostProbe()
    start = time.perf_counter()
    reps = [run_repetition(workload, out_dir / "warmup")]
    walls, norm_walls, slowdowns = [], [], []
    traced_walls, layer_runs, tracers = [], [], []
    while True:
        loop_start = time.perf_counter()
        with probe:
            rep = run_repetition(workload, out_dir / f"rep{len(reps)}")
        reps.append(rep)
        raw, norm = probe.timed(rep)
        walls.append(raw)
        norm_walls.append(norm)
        slowdowns.append(probe.slowdown())
        if trace:
            t = tr.Tracer()
            with tr.install(t):
                rep = run_repetition(workload, out_dir / f"rep{len(reps)}", tracer=t)
            reps.append(rep)
            traced_walls.append(sum(o.seconds for o in rep))
            layer_runs.append(t.metrics())
            tracers.append(t)
        now = time.perf_counter()
        if (now - start) + (now - loop_start) > seconds:
            break
    wall = statistics.median(walls)
    mark_nondeterminism(reps)
    if not trace:
        setup_raw, setup = setup_seconds(workload, probe)
        return reps, {
            "wall_norm_s": statistics.median(norm_walls),
            "wall_s": wall,
            "host_slowdown": statistics.median(slowdowns),
            "timed_reps": len(walls),
            "setup_s": setup,
            "setup_raw_s": setup_raw,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for k, t in enumerate(tracers):
        with open(out_dir / f"spans-traced{k}.csv", "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            fh.writelines(f"{n},{s!r},{e!r},{p}\n" for n, s, e, p in t.spans())
    metrics = tr.median_metrics(layer_runs)
    metrics.update(
        {
            "cli_harness.import_s": import_seconds(),
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": statistics.median(traced_walls) - wall,
        }
    )
    units = dict(tr.PER_LAYER)
    return reps, {name: metrics[name] for name in units}


def declared_metrics(trace: bool) -> set[str]:
    """Names ``BENCHMARK.json`` lists for this mode.

    The result line carries only these.  Per-layer times of a layer that a
    listed workload never calls read 0.0 on every run and measure nothing
    there, so ``BENCHMARK.json`` leaves them out; they are still printed.
    """
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def result_line(reps, metrics: dict, units: dict, declared: set[str]) -> dict:
    outcomes = [o for rep in reps for o in rep]
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(declared)},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    print(f"workload {name}: {workload.why}")
    print(f"seed {seed} (recorded only: the workloads are fixed fixture inputs)")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print("fixtures " + json.dumps(fixture_hashes(), sort_keys=True))
    compileall.compile_dir(str(SRC), quiet=1)
    # Import before the measured loop starts its clock: import is part of setup_s.
    import trotterbench.cli_harness  # noqa: F401

    reps, metrics = measure(workload, seconds, trace)
    print_outcomes(name, reps, trace)
    units = dict(tr.PER_LAYER) if trace else dict(END_TO_END)
    result = result_line(reps, metrics, units, declared_metrics(trace))
    print(
        f"metric {name} fail_rate {result['failed'] / result['attempted']!r} ratio "
        f"({result['failed']}/{result['attempted']} operations failed)"
    )
    for k, v in metrics.items():
        print(f"metric {name} {k} {v!r} {units[k]}")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Run every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "trotterbench" / "cli_harness.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"error: run from a trotterbench checkout; missing {missing}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads, so the BLAS pool starts pinned
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
