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
import sys
from dataclasses import dataclass, field
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
    estimate_c_alpha,
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

_TOP_KEYS = {"family", "dim", "T", "alpha", "n_list", "grid_n", "tol", "command_options"}
_FAMILY_KEYS = {
    "scalar": {"kind", "profile"},
    "synthetic": {"kind", "b0", "b1", "profile", "declared_alpha", "a"},
    "heat1d": {"kind", "modes", "potential", "profile", "declared_alpha"},
}
_PROFILE_KEYS = {"kind", "c", "beta", "terms"}
_POTENTIAL_KEYS = {"kind", "value"}
_DEFAULT_N_LIST = [2, 4, 8, 16, 32, 64, 128, 256]


def _require_keys(obj: dict, allowed: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise errors.ConfigError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise errors.ConfigError(f"unknown {what} keys: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    family_spec: dict | None
    dim: int | None
    horizon: float
    alpha: float
    n_list: list[int]
    grid_n: int
    tol: float
    command_options: dict = field(default_factory=dict)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate the raw JSON document; unknown keys anywhere are an error."""
    _require_keys(doc, _TOP_KEYS, "config")
    family_spec = doc.get("family")
    if family_spec is not None:
        _require_keys(family_spec, {"kind"} | set().union(*_FAMILY_KEYS.values()), "family")
        kind = family_spec.get("kind")
        if kind not in _FAMILY_KEYS:
            raise errors.ConfigError(f"family kind must be one of {sorted(_FAMILY_KEYS)}")
        _require_keys(family_spec, _FAMILY_KEYS[kind], "family")
        profile = family_spec.get("profile")
        if profile is None:
            raise errors.ConfigError("family needs a profile")
        _require_keys(profile, _PROFILE_KEYS, "profile")
        if kind == "heat1d":
            _require_keys(family_spec.get("potential", {}), _POTENTIAL_KEYS, "potential")
    horizon = float(doc.get("T", 1.0))
    alpha = float(doc.get("alpha", 0.0))
    n_list = [int(n) for n in doc.get("n_list", _DEFAULT_N_LIST)]
    grid_n = int(doc.get("grid_n", 8))
    tol = float(doc.get("tol", 1e-10))
    if horizon <= 0.0:
        raise errors.ConfigError("T must be positive")
    if not 0.0 <= alpha < 1.0:
        raise errors.ConfigError("alpha must lie in [0, 1)")
    if any(n < 1 for n in n_list) or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise errors.ConfigError("n_list must be strictly increasing positive integers")
    if not n_list:
        raise errors.ConfigError("n_list must be nonempty")
    if grid_n < 2:
        raise errors.ConfigError("grid_n must be >= 2")
    if not 1e-12 <= tol <= 1e-6:
        raise errors.ConfigError("tol must lie in [1e-12, 1e-6]")
    options = doc.get("command_options", {})
    if not isinstance(options, dict):
        raise errors.ConfigError("command_options must be a JSON object")
    dim = doc.get("dim")
    return ExperimentConfig(
        family_spec=family_spec,
        dim=None if dim is None else int(dim),
        horizon=horizon,
        alpha=alpha,
        n_list=n_list,
        grid_n=grid_n,
        tol=tol,
        command_options=options,
    )


def _build_profile_args(profile: dict) -> dict:
    return {
        "kind": profile["kind"],
        "c": float(profile.get("c", 1.0)),
        "beta": float(profile.get("beta", 0.5)),
        "terms": int(profile.get("terms", 12)),
    }


def build_problem(cfg: ExperimentConfig) -> tuple[SpectralOperator, TimeDependentFamily]:
    """Instantiate the operator pair (A, B(.)) described by the config."""
    if cfg.family_spec is None:
        raise errors.ConfigError("this command needs a family")
    spec = cfg.family_spec
    kind = spec["kind"]
    prof = _build_profile_args(spec["profile"])
    try:
        if kind == "scalar":
            family = make_scalar_family(horizon=cfg.horizon, **prof)
            a_op = scalar_operator(1.0)
        elif kind == "synthetic":
            family = make_synthetic_matrix_family(
                np.asarray(spec["b0"], dtype=float),
                np.asarray(spec["b1"], dtype=float),
                horizon=cfg.horizon,
                declared_alpha=float(spec.get("declared_alpha", cfg.alpha)),
                **prof,
            )
            if "a" in spec:
                a_op = diagonalize(np.asarray(spec["a"], dtype=float), role=GENERATOR_ROLE)
            else:
                a_op = SpectralOperator(
                    np.ones(family.dim), np.eye(family.dim), role=GENERATOR_ROLE
                )
        else:
            pot_spec = spec.get("potential", {"kind": "sin_squared"})
            pot_kind = pot_spec.get("kind", "sin_squared")
            if pot_kind == "sin_squared":
                potential = sin_squared_potential
            elif pot_kind == "constant":
                potential = constant_potential(float(pot_spec.get("value", 1.0)))
            elif pot_kind == "zero":
                potential = zero_potential
            else:
                raise errors.ConfigError(f"unknown potential kind {pot_kind!r}")
            a_op, family = make_heat1d_family(
                int(spec["modes"]),
                potential,
                horizon=cfg.horizon,
                declared_alpha=float(spec.get("declared_alpha", 0.75)),
                **prof,
            )
    except errors.ConfigError:
        raise
    except (errors.TrotterbenchError, ValueError, KeyError, TypeError) as exc:
        raise errors.ConfigError(f"bad family spec: {exc}") from exc
    if cfg.dim is not None and cfg.dim != family.dim:
        raise errors.ConfigError(f"config dim {cfg.dim} != family dim {family.dim}")
    if a_op.dim != family.dim:
        raise errors.ConfigError("operator and family dimensions differ")
    return a_op, family


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _fmt(x) -> str:
    """Round-trip-exact decimal text for CSV cells."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _option(options: dict, key: str, default, valid=None):
    """Option ``key`` cast to its default's type and checked by ``valid``, per item for lists."""
    value = options.get(key, default)
    items = isinstance(default, list)
    try:
        value = [type(default[0])(v) for v in value] if items else type(default)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ConfigError(f"option {key}: {exc}") from exc
    if valid is not None and not all(map(valid, value if items else [value])):
        raise errors.ConfigError(f"option {key} out of range: {value!r}")
    return value


def _params(options: dict, key: str, defaults: dict) -> dict:
    """Nested command parameters, each cast to the type of its default and named ``key.k``."""
    given = options.get(key, {})
    _require_keys(given, set(defaults), key)
    named = {f"{key}.{k}": v for k, v in given.items()}
    return {k: _option(named, f"{key}.{k}", v) for k, v in defaults.items()}


def _evaluate(key: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a rejected argument reported against option ``key``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise errors.ConfigError(f"{key}: {exc}") from exc


def run_check(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Assumption check: measured boundedness and Hoelder constants."""
    _require_keys(cfg.command_options, set(), "check options")
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
    return out, EXIT_OK if flags["beta_gt_2alpha_minus_1"] else EXIT_CONDITION


def run_converge(cfg: ExperimentConfig) -> tuple[dict, list[str], int]:
    """Convergence sweep: sup-errors per n for both product variants."""
    _require_keys(cfg.command_options, {"slope_tolerance"}, "converge options")
    if len(cfg.n_list) < 4:
        raise errors.ConfigError("converge needs n_list with at least 4 entries")
    slope_tol = _option(cfg.command_options, "slope_tolerance", 0.2)
    a_op, family = build_problem(cfg)
    refs = reference_grid(a_op, family, cfg.grid_n, cfg.tol)
    rows = []
    for n in cfg.n_list:
        left = sup_error(a_op, family, n, cfg.grid_n, cfg.tol, "left", refs)
        right = sup_error(a_op, family, n, cfg.grid_n, cfg.tol, "right", refs)
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


def run_semigroup(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Slotted-space verification: correspondence identity and defect bounds."""
    allowed = {"N", "gamma", "onestep_tau_factors", "sandwich_tau_exponents", "stability_n"}
    _require_keys(cfg.command_options, allowed, "semigroup options")
    opts = cfg.command_options
    a_op, family = build_problem(cfg)
    n_slots = _option(opts, "N", 16, lambda v: v >= 1)
    gamma = _option(
        opts, "gamma", 0.5 * (cfg.alpha + 1.0), lambda v: family.declared_alpha <= v < 1.0
    )
    for n in cfg.n_list:
        if n_slots % n != 0:
            raise errors.IndivisibleGridError(f"N={n_slots} not divisible by n={n}")
    onestep_factors = _option(
        opts, "onestep_tau_factors", [1e-1, 1e-2, 1e-3, 1e-4], lambda f: 0.0 < f <= 1.0
    )
    sandwich_exps = _option(opts, "sandwich_tau_exponents", list(range(2, 9)), lambda e: e >= 0)
    onestep_taus = [f * family.horizon for f in onestep_factors]
    sandwich_taus = [2.0 ** (-e) * family.horizon for e in sandwich_exps]

    fine_refs = reference_grid(a_op, family, 2 * n_slots, cfg.tol)
    refs = even_points(fine_refs)  # the N-slot grid
    correspondence = []
    for n in cfg.n_list:
        res = correspondence_check(a_op, family, n_slots, n, references=refs)
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
    smoothing = measure_smoothing_constant(a_op, family, n_slots, gamma, references=fine_refs)
    n_stab = _option(opts, "stability_n", max(cfg.n_list), lambda v: v >= 1)
    stability = check_power_smoothing(a_op, family, gamma, n_stab, n_slots)
    n0 = stability_step_threshold(
        gamma,
        estimate_c_alpha(family, a_op, gamma, max(cfg.grid_n, 16)),
        family.horizon,
        lambda_gamma=smoothing.lambda_left,
    )
    # the correspondence check already measured the non-reversed defect
    defects = [(c["n"], c["semigroup_error"]) for c in correspondence]
    defects_rev = semigroup_defect_series(
        a_op, family, n_slots, cfg.n_list, reversed_product=True, references=refs
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
    return report, EXIT_OK if ok else EXIT_FAILED


def run_bounds(cfg: ExperimentConfig) -> tuple[dict, list[str], int]:
    """Scalar bound scan plus spot evaluations of the explicit constants."""
    allowed = {"n_max", "z_params", "m_params", "n0_params"}
    _require_keys(cfg.command_options, allowed, "bounds options")
    n_max = _option(cfg.command_options, "n_max", 2000, lambda v: v >= 2)
    rows = beta_sum_scan(n_max)
    csv_lines = ["n,alpha,gamma,lhs,rhs,holds"]
    all_hold = True
    for n, alpha, gamma, lhs, rhs, holds in rows:
        all_hold = all_hold and holds
        csv_lines.append(
            f"{n},{_fmt(alpha)},{_fmt(gamma)},{_fmt(lhs)},{_fmt(rhs)},{_fmt(holds)}"
        )

    opts = cfg.command_options
    z_args = _params(opts, "z_params", {"gamma": 0.5, "beta": 0.5, "c": 1.0, "l": 0.0})
    z_value = _evaluate(
        "z_params", sandwiched_defect_constant, *z_args.values(), cfg.horizon
    )
    m_defaults = {"c0": 5.0, "c1": 0.0, "c2": 0.5, "n": 10, "gamma": 0.5, "alpha": 0.25}
    m_args = _params(opts, "m_params", m_defaults)
    try:
        m_value = _evaluate("m_params", solve_stability_constant, **m_args)
        m_status = "ok"
    except errors.FeasibilityViolatedError:
        m_value, m_status = None, "feasibility_violated"
    except errors.InfeasibleError:
        m_value, m_status = None, "infeasible"
    n0_args = _params(opts, "n0_params", {"gamma": 0.5, "c": 0.5, "lambda": 1.0})
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


def _write_outputs(
    out_dir: Path, report: dict, csv_lines: list[str] | None, to_stdout: bool
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")
    if csv_lines is not None:
        with open(out_dir / "table.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    if to_stdout:
        print(json.dumps(_jsonable(report), sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trotterbench",
        description="Split-product convergence experiments for non-autonomous problems",
    )
    parser.add_argument("command", choices=["check", "converge", "semigroup", "bounds"])
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
        cfg = parse_config(doc)
        csv_lines = None
        if args.command == "check":
            report, code = run_check(cfg)
        elif args.command == "converge":
            report, csv_lines, code = run_converge(cfg)
        elif args.command == "semigroup":
            report, code = run_semigroup(cfg)
        else:
            report, csv_lines, code = run_bounds(cfg)
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
