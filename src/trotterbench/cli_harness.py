"""Config-driven experiment runner and the ``trotterbench`` command line.

One JSON config describes one experiment; sweeps live inside the config
(``n_list``), never in shell loops, so every table is reproducible from a
committed fixture.  Outputs are ``report.json`` plus, for tabular commands,
``table.csv`` (LF line endings, header row, round-trip-exact floats).
Identical configs produce bit-identical outputs.

Exit codes: 0 success, 2 regularity condition failed (check), 3 rate slope
failed (converge), 1 semigroup identities failed, 64 bad config, 65 grid not
divisible, 70 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .operator_core import (
    GENERATOR_ROLE,
    SpectralOperator,
    diagonalize,
    scalar_operator,
)
from .problem_families import (
    TimeDependentFamily,
    constant_potential,
    estimate_holder,
    make_heat1d_family,
    make_scalar_family,
    make_synthetic_matrix_family,
    sin_squared_potential,
    zero_potential,
)
from .bounds_and_rates import (
    beta_sum_scan,
    rate_fit,
    sandwiched_defect_constant,
    solve_stability_constant,
    stability_step_threshold,
    sup_error,
)
from .reference_oracle import even_points, reference_grid
from .evolution_semigroup import (
    check_onestep_linear_bound,
    check_power_smoothing,
    check_sandwiched_defect,
    correspondence_check,
    defect_decay_slope,
    measure_smoothing_constant,
    semigroup_defect_series,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONDITION = 2
EXIT_SLOPE = 3
EXIT_CONFIG = 64
EXIT_GRID = 65
EXIT_NUMERIC = 70

GAP_TOLERANCE = 1e-10

DESK_DIM = 256  # desk scale: dim, heat1d modes and synthetic matrix sizes
_DEFAULT_N_LIST = [2, 4, 8, 16, 32, 64, 128, 256]
_REQUIRED = object()


def _number(name: str, value, kind):
    """``value`` as a finite ``float`` or an exact ``int``, else a ``ConfigError`` naming it."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        out = kind(value)
        if not math.isfinite(out) or (kind is int and out != float(value)):
            raise ValueError(f"{value!r} is not a finite {kind.__name__}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ConfigError(f"{name}: {exc}") from exc
    return out


def _cast(name: str, value, kind):
    """``value`` as ``kind``: ``int``, ``float``, ``str``, ``dict`` or ``[kind]``, a JSON list."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise errors.ConfigError(f"{name} must be a JSON list, got {reprlib.repr(value)}")
        return [_cast(name, v, kind[0]) for v in value]
    if kind is str or kind is dict:
        if not isinstance(value, kind):
            what = "string" if kind is str else "object"
            raise errors.ConfigError(f"{name} must be a JSON {what}, got {reprlib.repr(value)}")
        return value
    return _number(name, value, kind)


class _Keys:
    """One JSON object whose keys are each read once by ``take``; ``close`` rejects the rest."""

    def __init__(self, obj, what: str, prefix: str = ""):
        self.left = dict(_cast(what, obj, dict))
        self.what, self.prefix = what, prefix

    def take(self, key: str, kind, default=_REQUIRED, valid=None, rule: str = ""):
        """``key`` cast to ``kind`` and checked by ``valid``; a ``None`` default stays ``None``."""
        value = self.left.pop(key, default)
        if value is _REQUIRED:
            raise errors.ConfigError(f"{self.what} is missing key {key!r}")
        if value is None and default is None:
            return None
        value = _cast(self.prefix + key, value, kind)
        if valid is not None and not valid(value):
            raise errors.ConfigError(f"{self.prefix}{key} {rule}, got {reprlib.repr(value)}")
        return value

    def close(self) -> None:
        if self.left:
            raise errors.ConfigError(f"unknown {self.what} keys: {sorted(self.left)}")


# (valid, rule) pairs for ``_Keys.take``
_DESK_SIZE = (lambda v: 1 <= v <= DESK_DIM, f"must be in [1, {DESK_DIM}]")
_DESK_MATRIX = (
    lambda m: 1 <= len(m) <= DESK_DIM and all(len(row) == len(m) for row in m),
    f"must be a square matrix of size 1 to {DESK_DIM}",
)


@dataclass(frozen=True)
class FamilySpec:
    """A parsed ``family`` object: its kind, its constructor's arguments, a synthetic ``a``."""

    kind: str
    args: dict
    a: list | None = None


@dataclass
class ExperimentConfig:
    family_spec: FamilySpec | None
    dim: int | None
    horizon: float
    alpha: float
    n_list: list[int]
    grid_n: int
    tol: float
    command_options: dict


def _parse_family(fam: _Keys, alpha: float) -> FamilySpec:
    kinds = ("scalar", "synthetic", "heat1d")
    kind = fam.take("kind", str, valid=kinds.__contains__, rule=f"must be one of {sorted(kinds)}")
    prof = _Keys(fam.take("profile", dict), "profile", "profile ")
    args = {
        "kind": prof.take("kind", str),
        "c": prof.take("c", float, 1.0),
        "beta": prof.take("beta", float, 0.5),
        "terms": prof.take("terms", int, 12),
    }
    prof.close()
    a = None
    if kind != "scalar":
        args["declared_alpha"] = fam.take(
            "declared_alpha", float, 0.75 if kind == "heat1d" else alpha
        )
    if kind == "synthetic":
        args["b0"] = fam.take("b0", [[float]], _REQUIRED, *_DESK_MATRIX)
        args["b1"] = fam.take("b1", [[float]], _REQUIRED, *_DESK_MATRIX)
        a = fam.take("a", [[float]], None, *_DESK_MATRIX)
    elif kind == "heat1d":
        args["modes"] = fam.take("modes", int, _REQUIRED, *_DESK_SIZE)
        pot = _Keys(fam.take("potential", dict, {}), "potential", "potential ")
        value = pot.take("value", float, 1.0)
        potentials = {
            "sin_squared": sin_squared_potential,
            "constant": constant_potential(value),
            "zero": zero_potential,
        }
        pot_kind = pot.take(
            "kind", str, "sin_squared", potentials.__contains__,
            f"must be one of {sorted(potentials)}",
        )
        pot.close()
        args["potential"] = potentials[pot_kind]
    fam.close()
    return FamilySpec(kind, args, a)


def parse_config(doc: dict) -> ExperimentConfig:
    """Read the raw JSON document into typed values; a missing, bad or unknown key is an error."""
    top = _Keys(doc, "config")
    alpha = top.take("alpha", float, 0.0, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
    family = top.take("family", dict, None)
    cfg = ExperimentConfig(
        family_spec=None if family is None else _parse_family(_Keys(family, "family", "family "), alpha),
        dim=top.take("dim", int, None, *_DESK_SIZE),
        horizon=top.take("T", float, 1.0, lambda v: v > 0.0, "must be positive"),
        alpha=alpha,
        n_list=top.take(
            "n_list", [int], _DEFAULT_N_LIST,
            lambda ns: ns and ns[0] >= 1 and all(a < b for a, b in zip(ns, ns[1:])),
            "must be a nonempty, strictly increasing list of positive integers",
        ),
        grid_n=top.take("grid_n", int, 8, lambda v: v >= 2, "must be >= 2"),
        tol=top.take(
            "tol", float, 1e-10, lambda v: 1e-12 <= v <= 1e-6, "must lie in [1e-12, 1e-6]"
        ),
        command_options=top.take("command_options", dict, {}),
    )
    top.close()
    return cfg


def build_problem(cfg: ExperimentConfig) -> tuple[SpectralOperator, TimeDependentFamily]:
    """Instantiate the operator pair (A, B(.)) described by the config."""
    spec = cfg.family_spec
    if spec is None:
        raise errors.ConfigError("this command needs a family")
    try:
        if spec.kind == "scalar":
            family = make_scalar_family(horizon=cfg.horizon, **spec.args)
            a_op = scalar_operator(1.0)
        elif spec.kind == "synthetic":
            family = make_synthetic_matrix_family(horizon=cfg.horizon, **spec.args)
            if spec.a is None:
                a_op = SpectralOperator(
                    np.ones(family.dim), np.eye(family.dim), role=GENERATOR_ROLE
                )
            else:
                a_op = diagonalize(np.asarray(spec.a), role=GENERATOR_ROLE)
        else:
            a_op, family = make_heat1d_family(horizon=cfg.horizon, **spec.args)
    except (errors.TrotterbenchError, ValueError, OverflowError) as exc:
        raise errors.ConfigError(f"bad family spec: {exc}") from exc
    if cfg.dim is not None and cfg.dim != family.dim:
        raise errors.ConfigError(f"config dim {cfg.dim} != family dim {family.dim}")
    if a_op.dim != family.dim:
        raise errors.ConfigError("operator and family dimensions differ")
    return a_op, family


def _fmt(x) -> str:
    """Round-trip-exact decimal text for CSV cells."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _evaluate(key: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a rejected argument reported against option ``key``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise errors.ConfigError(f"{key}: {exc}") from exc


def run_check(cfg: ExperimentConfig) -> tuple[dict, None, int]:
    """Assumption check: measured boundedness and Hoelder constants."""
    _Keys(cfg.command_options, "check options", "option ").close()
    a_op, family = build_problem(cfg)
    grid_n = max(cfg.grid_n, 8)
    report = estimate_holder(family, a_op, cfg.alpha, grid_n)
    beta_hat = report.holder_beta_hat
    flags = {
        "beta_gt_alpha": bool(beta_hat > cfg.alpha),
        "beta_gt_2alpha_minus_1": bool(beta_hat > 2.0 * cfg.alpha - 1.0),
    }
    out = {
        "command": "check",
        "alpha": cfg.alpha,
        "grid_n": grid_n,
        "c_alpha_hat": report.c_alpha_hat,
        "holder": {
            "l_hat": report.holder_l_hat,
            "beta_hat": beta_hat,
            "r2": report.fit_r2,
            "slope_raw": report.slope_raw,
            "beta_clipped": report.beta_clipped,
            "degenerate": report.degenerate,
        },
        "declared_beta": family.declared_beta,
        "flags": flags,
    }
    return out, None, EXIT_OK if flags["beta_gt_2alpha_minus_1"] else EXIT_CONDITION


def run_converge(cfg: ExperimentConfig) -> tuple[dict, list[str], int]:
    """Convergence sweep: sup-errors per n for both product variants."""
    opts = _Keys(cfg.command_options, "converge options", "option ")
    slope_tol = opts.take("slope_tolerance", float, 0.2)
    opts.close()
    if len(cfg.n_list) < 4:
        raise errors.ConfigError("converge needs n_list with at least 4 entries")
    a_op, family = build_problem(cfg)
    refs = reference_grid(a_op, family, cfg.grid_n, cfg.tol)
    rows = []
    for n in cfg.n_list:
        left = sup_error(a_op, family, n, refs, "left")
        right = sup_error(a_op, family, n, refs, "right")
        rows.append((n, left, right))
    csv_lines = ["n,sup_error_left,sup_error_right"]
    for n, left, right in rows:
        csv_lines.append(f"{n},{_fmt(left)},{_fmt(right)}")

    def fit(idx: int):
        try:
            return rate_fit([(r[0], r[idx]) for r in rows], cfg.alpha, family.declared_beta), False
        except errors.AllBelowFloorError:
            return None, True

    left_fit, left_floored = fit(1)
    right_fit, right_floored = fit(2)
    predicted = family.declared_beta
    report = {
        "command": "converge",
        "predicted_beta": predicted,
        "condition_ok": bool(predicted > 2.0 * cfg.alpha - 1.0),
        "slope_tolerance": slope_tol,
        "entries": [[n, l, r] for n, l, r in rows],
        "all_below_floor": bool(left_floored and right_floored),
        "slope_left": None if left_fit is None else left_fit.fitted_slope,
        "slope_right": None if right_fit is None else right_fit.fitted_slope,
        "r2_left": None if left_fit is None else left_fit.r2,
        "r2_right": None if right_fit is None else right_fit.r2,
    }
    fitted_r2 = [f.r2 for f in (left_fit, right_fit) if f is not None]
    report["r2"] = min(fitted_r2) if fitted_r2 else None
    ok = True
    for fitted, floored in ((left_fit, left_floored), (right_fit, right_floored)):
        if floored:
            continue  # a flat-zero series decays faster than any rate
        ok = ok and fitted.fitted_slope >= predicted - slope_tol
    return report, csv_lines, EXIT_OK if ok else EXIT_SLOPE


def run_semigroup(cfg: ExperimentConfig) -> tuple[dict, None, int]:
    """Slotted-space verification: correspondence identity and defect bounds."""
    opts = _Keys(cfg.command_options, "semigroup options", "option ")
    n_slots = opts.take("N", int, 16, lambda v: v >= 1, "must be >= 1")
    # scalar families declare alpha 0; without a family, build_problem below stops the run
    alpha0 = cfg.family_spec.args.get("declared_alpha", 0.0) if cfg.family_spec else 0.0
    gamma = opts.take(
        "gamma", float, 0.5 * (cfg.alpha + 1.0), lambda v: alpha0 <= v < 1.0,
        f"must lie in [{alpha0}, 1)",
    )
    onestep_factors = opts.take(
        "onestep_tau_factors", [float], [1e-1, 1e-2, 1e-3, 1e-4],
        lambda fs: all(0.0 < f <= 1.0 for f in fs), "must lie in (0, 1]",
    )
    sandwich_exps = opts.take(
        "sandwich_tau_exponents", [int], list(range(2, 9)),
        lambda es: all(e >= 0 for e in es), "must be >= 0",
    )
    n_stab = opts.take("stability_n", int, max(cfg.n_list), lambda v: v >= 1, "must be >= 1")
    opts.close()
    for n in cfg.n_list:
        if n_slots % n != 0:
            raise errors.IndivisibleGridError(f"N={n_slots} not divisible by n={n}")
    a_op, family = build_problem(cfg)
    onestep_taus = [f * family.horizon for f in onestep_factors]
    sandwich_taus = [2.0 ** (-e) * family.horizon for e in sandwich_exps]

    fine_refs = reference_grid(a_op, family, 2 * n_slots, cfg.tol)
    refs = even_points(fine_refs)  # the N-slot grid
    correspondence = []
    for n in cfg.n_list:
        res = correspondence_check(a_op, family, n_slots, n, refs)
        correspondence.append(
            {
                "n": n,
                "semigroup_error": res.semigroup_error,
                "propagator_error": res.propagator_error,
                "gap": res.gap,
            }
        )
    max_gap = max(c["gap"] for c in correspondence)

    onestep = check_onestep_linear_bound(
        a_op, family, gamma, onestep_taus, grid_n=cfg.grid_n, oracle_tol=cfg.tol
    )
    beta = min(family.declared_beta, 1.0 - 1e-9)  # sandwich bound needs beta < 1
    sandwich = check_sandwiched_defect(
        a_op, family, gamma, beta, sandwich_taus, grid_n=cfg.grid_n, oracle_tol=cfg.tol
    )
    smoothing = measure_smoothing_constant(a_op, family, n_slots, gamma, fine_refs)
    stability = check_power_smoothing(a_op, family, gamma, n_stab, n_slots)
    # the sandwich check's C_gamma is the plain grid maximum of |B(t) A^-gamma|
    n0 = stability_step_threshold(
        gamma, sandwich.c_gamma, family.horizon, lambda_gamma=smoothing.lambda_left
    )
    # the correspondence check already measured the non-reversed defect
    defects = [(c["n"], c["semigroup_error"]) for c in correspondence]
    defects_rev = semigroup_defect_series(
        a_op, family, n_slots, cfg.n_list, refs, reversed_product=True
    )

    report = {
        "command": "semigroup",
        "N": n_slots,
        "gamma": gamma,
        "correspondence": correspondence,
        "max_gap": max_gap,
        "onestep": {
            "c_gamma": onestep.c_gamma,
            "max_ratio": onestep.max_ratio,
            "per_tau": onestep.per_tau,
            "ok": onestep.ok,
        },
        "sandwich": {
            "c_gamma": sandwich.c_gamma,
            "holder_l": sandwich.holder_l,
            "bound_constant": sandwich.bound_constant,
            "kappa": sandwich.kappa,
            "max_ratio": sandwich.max_ratio,
            "per_tau": sandwich.per_tau,
            "ok": sandwich.ok,
        },
        "smoothing": {
            "lambda_left": smoothing.lambda_left,
            "lambda_right": smoothing.lambda_right,
            "doubling_rel_change": smoothing.doubling_rel_change,
            "stable": smoothing.stable,
        },
        "power_smoothing": {
            "n": stability.n,
            "m_hat": stability.m_hat,
            "doubling_rel_change": stability.doubling_rel_change,
            "stable": stability.stable,
            "interpolation_max_ratio": stability.interpolation_max_ratio,
            "interpolation_ok": stability.interpolation_ok,
            "threshold_n0": n0,
            "meets_threshold": bool(stability.n >= n0),
        },
        "defect_series": [[n, v] for n, v in defects],
        "defect_series_reversed": [[n, v] for n, v in defects_rev],
        "defect_slope": defect_decay_slope(defects),
        "defect_slope_reversed": defect_decay_slope(defects_rev),
    }
    ok = max_gap <= GAP_TOLERANCE and onestep.ok and sandwich.ok
    return report, None, EXIT_OK if ok else EXIT_FAILED


def run_bounds(cfg: ExperimentConfig) -> tuple[dict, list[str], int]:
    """Scalar bound scan plus spot evaluations of the explicit constants."""
    opts = _Keys(cfg.command_options, "bounds options", "option ")
    n_max = opts.take("n_max", int, 2000, lambda v: v >= 2, "must be >= 2")
    defaults = {
        "z_params": {"gamma": 0.5, "beta": 0.5, "c": 1.0, "l": 0.0},
        "m_params": {"c0": 5.0, "c1": 0.0, "c2": 0.5, "n": 10, "gamma": 0.5, "alpha": 0.25},
        "n0_params": {"gamma": 0.5, "c": 0.5, "lambda": 1.0},
    }
    params = {}
    for key, default in defaults.items():
        given = _Keys(opts.take(key, dict, {}), key, f"option {key}.")
        params[key] = {k: given.take(k, type(d), d) for k, d in default.items()}
        given.close()
    opts.close()
    z_args, m_args, n0_args = params.values()
    rows = beta_sum_scan(n_max)
    csv_lines = ["n,alpha,gamma,lhs,rhs,holds"]
    all_hold = True
    for n, alpha, gamma, lhs, rhs, holds in rows:
        all_hold = all_hold and holds
        csv_lines.append(
            f"{n},{_fmt(alpha)},{_fmt(gamma)},{_fmt(lhs)},{_fmt(rhs)},{_fmt(holds)}"
        )

    z_value = _evaluate(
        "z_params", sandwiched_defect_constant, *z_args.values(), cfg.horizon
    )
    try:
        m_value = _evaluate("m_params", solve_stability_constant, **m_args)
        m_status = "ok"
    except errors.FeasibilityViolatedError:
        m_value, m_status = None, "feasibility_violated"
    except errors.InfeasibleError:
        m_value, m_status = None, "infeasible"
    n0_value = _evaluate(
        "n0_params", stability_step_threshold, n0_args["gamma"], n0_args["c"], cfg.horizon,
        lambda_gamma=n0_args["lambda"],
    )
    report = {
        "command": "bounds",
        "n_max": n_max,
        "rows": len(rows),
        "all_hold": bool(all_hold),
        "z_constant": {"params": z_args, "value": z_value},
        "m_solve": {"params": m_args, "value": m_value, "status": m_status},
        "n0_threshold": {"params": n0_args, "value": n0_value},
    }
    return report, csv_lines, EXIT_OK if all_hold else EXIT_FAILED


# Each command returns (report, csv_lines or None, exit code).
COMMANDS = {
    "check": run_check, "converge": run_converge, "semigroup": run_semigroup, "bounds": run_bounds
}


def _write_outputs(
    out_dir: Path, report: dict, csv_lines: list[str] | None, to_stdout: bool
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # numpy scalars that are not Python numbers are written as their Python value
    text = json.dumps(report, sort_keys=True, indent=2, default=lambda v: v.item())
    (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")
    if csv_lines is not None:
        with open(out_dir / "table.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    if to_stdout:
        print(json.dumps(report, sort_keys=True, default=lambda v: v.item()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trotterbench",
        description="Split-product convergence experiments for non-autonomous problems",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory (report.json, table.csv)")
    parser.add_argument("--stdout", action="store_true", help="also print the report JSON to stdout")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads (accepted for interface compatibility; execution is serial)",
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        report, csv_lines, code = COMMANDS[args.command](parse_config(doc))
    except (errors.ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.IndivisibleGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID
    except (errors.TrotterbenchError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_outputs(Path(args.out), report, csv_lines, args.stdout)
    if code != EXIT_OK:
        print(f"{args.command}: failed with exit code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
