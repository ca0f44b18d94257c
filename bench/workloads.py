"""The benchmark's workloads: CLI operations on the committed fixtures.

An operation is one ``trotterbench`` command run through
``cli_harness.main()`` in-process.  It fails when it raises, exits with a
code other than the one the paper predicts, or writes a report that breaks
the acceptance bound ``tests/test_acceptance.py`` ties to its fixture.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "tests" / "configs"
OUT = ROOT / ".bench_run"

# holder_fine re-runs the heat1d fixture's check at this finer time grid, the
# only setting in which the Hoelder estimate does measurable work.
HOLDER_FINE_GRID = 512

Check = Callable[[dict], list[str]]


def _bound(ok: bool, text: str) -> list[str]:
    return [] if ok else [text]


def check_heat_rate(r: dict) -> list[str]:
    return (
        _bound(r["condition_ok"] is True, "condition_ok is not true")
        + _bound(r["slope_left"] >= 0.30, f"slope_left {r['slope_left']} < 0.30")
        + _bound(r["slope_right"] >= 0.30, f"slope_right {r['slope_right']} < 0.30")
    )


def check_holder_scalar_rate(r: dict) -> list[str]:
    return _bound(
        0.30 <= r["slope_left"] <= 0.80, f"slope_left {r['slope_left']} outside [0.30, 0.80]"
    ) + _bound(r["r2_left"] >= 0.9, f"r2_left {r['r2_left']} < 0.9")


def check_lipschitz_scalar_rate(r: dict) -> list[str]:
    return _bound(
        0.85 <= r["slope_left"] <= 1.15, f"slope_left {r['slope_left']} outside [0.85, 1.15]"
    )


def check_semigroup(r: dict) -> list[str]:
    limit = 1 + 1e-6
    return (
        _bound(r["max_gap"] <= 1e-10, f"max_gap {r['max_gap']} > 1e-10")
        + _bound(
            r["onestep"]["max_ratio"] <= limit,
            f"onestep max_ratio {r['onestep']['max_ratio']} > 1 + 1e-6",
        )
        + _bound(
            r["sandwich"]["max_ratio"] <= limit,
            f"sandwich max_ratio {r['sandwich']['max_ratio']} > 1 + 1e-6",
        )
    )


def check_bounds_scan(r: dict) -> list[str]:
    return _bound(r["all_hold"] is True, "all_hold is not true")


def check_holder_condition(r: dict) -> list[str]:
    beta = r["holder"]["beta_hat"]
    return _bound(
        r["flags"]["beta_gt_2alpha_minus_1"] is True,
        f"beta_hat {beta} <= 2 alpha - 1 = {2 * r['alpha'] - 1} (declared beta "
        f"{r['declared_beta']})",
    )


@dataclass(frozen=True)
class Operation:
    command: str
    config: str
    check: Check
    expected_exit: int = 0

    @property
    def label(self) -> str:
        return f"{self.command} {Path(self.config).stem}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operations: tuple[Operation, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge_heat1d",
            "the paper's headline rate run; time splits between the oracle and "
            "36,720 one-at-a-time factor exponentials",
            (Operation("converge", "rate_heat1d.json", check_heat_rate),),
        ),
        Workload(
            "semigroup_heat1d",
            "slotted-space checks, about 90% in repeated oracle refinements; "
            "the no-change control for product batching",
            (Operation("semigroup", "semigroup_heat1d.json", check_semigroup),),
        ),
        Workload(
            "scalar_suite",
            "the dim-1 and bound fixtures: no eigh, closed-form midpoint "
            "exponents, per-factor validation, CSV output, import cost",
            (
                Operation("converge", "rate_holder_scalar.json", check_holder_scalar_rate),
                Operation("converge", "rate_lipschitz_scalar.json", check_lipschitz_scalar_rate),
                Operation("semigroup", "semigroup_scalar.json", check_semigroup),
                Operation("bounds", "bounds_scan.json", check_bounds_scan),
            ),
        ),
        Workload(
            "holder_fine",
            "check on the heat1d fixture at a 512-step grid, the only run in "
            "which the Hoelder estimate does real work",
            (Operation("check", "holder_fine.json", check_holder_condition),),
        ),
    )
}


def sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_path(name: str) -> Path:
    """Path of a workload config; generated configs are written on first use."""
    if name != "holder_fine.json":
        return CONFIGS / name
    path = OUT / "configs" / name
    if not path.exists():
        doc = json.loads((CONFIGS / "rate_heat1d.json").read_text(encoding="utf-8"))
        doc["grid_n"] = HOLDER_FINE_GRID
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@dataclass
class Outcome:
    """Result of one operation in one repetition."""

    label: str
    seconds: float
    exit_code: int | None
    problems: list[str]
    report_sha256: str | None
    table_sha256: str | None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_operation(op: Operation, out_dir: Path) -> Outcome:
    """Run one CLI command, time it, then check and hash what it wrote."""
    from trotterbench import cli_harness

    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = [op.command, "--config", str(config_path(op.config)), "--out", str(out_dir)]
    start = time.perf_counter()
    try:
        code = cli_harness.main(argv)
    except Exception:  # an operation that raises is a failed operation
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Outcome(op.label, seconds, None, ["raised"], None, None)
    seconds = time.perf_counter() - start
    problems = []
    if code != op.expected_exit:
        problems.append(f"exit code {code}, expected {op.expected_exit}")
    report_path = out_dir / "report.json"
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        problems += op.check(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return Outcome(
        op.label,
        seconds,
        code,
        problems,
        sha256(report_path),
        sha256(out_dir / "table.csv"),
    )


def run_repetition(workload: Workload, out_dir: Path, tracer=None) -> list[Outcome]:
    """Run every operation of a workload once, in order."""
    outcomes = []
    for i, op in enumerate(workload.operations):
        if tracer is not None:
            tracer.operation = i
        outcomes.append(run_operation(op, out_dir / f"{i}-{op.command}"))
    return outcomes


def mark_nondeterminism(reps: list[list[Outcome]]) -> None:
    """Fail every operation whose output hashes differ from the first repetition's."""
    for rep in reps[1:]:
        for first, later in zip(reps[0], rep):
            if (later.report_sha256, later.table_sha256) != (
                first.report_sha256,
                first.table_sha256,
            ):
                later.problems.append("output hash differs from the first repetition")
