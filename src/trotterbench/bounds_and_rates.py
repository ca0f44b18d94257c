"""Scalar bound machinery, sup-error measurement, and convergence-rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors
from .operator_core import SpectralOperator, op_norm
from .problem_families import TimeDependentFamily, loglog_fit
# reference_grid is re-exported: bench/tracer.py traces it under this module
from .reference_oracle import ReferenceGrid, reference_grid  # noqa: F401
from .trotter_products import trotter_left, trotter_right

# Errors at or below this are indistinguishable from round-off.
ERROR_FLOOR = 1e-13


def euler_beta(a: float, b: float) -> float:
    """Euler Beta function via log-Gamma, stable for small arguments."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


class BetaSumCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def beta_sum_bound(n: int, alpha: float, gamma: float) -> BetaSumCheck:
    """Convolution sum ``sum_k (n-k)^-g k^-a`` against its Beta-function bound.

    The bound ``B(1-a, 1-g) n^(1-g-a)`` comes from comparing the sum with the
    integral it under-samples; it holds for every n >= 2 when g >= a, and the
    check reports the pair regardless so scans can probe the boundary.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= alpha < 1.0 and 0.0 <= gamma < 1.0):
        raise ValueError("alpha and gamma must lie in [0, 1)")
    ks = np.arange(1, n, dtype=float)
    lhs = float(np.sum((n - ks) ** (-gamma) * ks ** (-alpha)))
    rhs = euler_beta(1.0 - alpha, 1.0 - gamma) * n ** (1.0 - gamma - alpha)
    return BetaSumCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-12))


def beta_sum_scan(
    n_max: int = 2000,
    alphas=None,
    gammas=None,
) -> list[tuple[int, float, float, float, float, bool]]:
    """Vectorised scan of :func:`beta_sum_bound` over (n, alpha, gamma).

    Covers n = 2..n_max and all grid pairs with gamma >= alpha; rows come
    back sorted by (n, alpha, gamma).  The inner sums for all n at once are
    one discrete convolution per exponent pair.
    """
    if alphas is None:
        alphas = np.round(np.arange(10) * 0.1, 10)
    if gammas is None:
        gammas = np.round(np.arange(10) * 0.1, 10)
    ns = np.arange(2, n_max + 1)
    per_pair = {}
    for alpha in alphas:
        a_seq = np.arange(1, n_max, dtype=float) ** (-alpha)
        for gamma in gammas:
            if gamma < alpha:
                continue
            g_seq = np.arange(1, n_max, dtype=float) ** (-gamma)
            conv = np.convolve(a_seq, g_seq)[: n_max - 1]
            rhs = euler_beta(1.0 - alpha, 1.0 - gamma) * ns ** (1.0 - gamma - alpha)
            per_pair[(float(alpha), float(gamma))] = (conv, rhs)
    rows = []
    for idx, n in enumerate(ns):
        for (alpha, gamma), (conv, rhs) in per_pair.items():
            lhs = float(conv[idx])
            r = float(rhs[idx])
            rows.append((int(n), alpha, gamma, lhs, r, lhs <= r * (1.0 + 1e-12)))
    return rows


def sandwiched_defect_constant(
    gamma: float, beta: float, c_gamma: float, holder_l: float, horizon: float
) -> float:
    """Explicit constant in the tau^(1+kappa) bound for the sandwiched defect.

    Two regimes depending on whether the smoothing exponent gamma exceeds the
    Hoelder exponent beta; in both, the constant is monotone in each of
    C_gamma, L and T.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    if c_gamma < 0.0 or holder_l < 0.0 or horizon <= 0.0:
        raise ValueError("need c_gamma >= 0, holder_l >= 0, horizon > 0")
    c, l, t = c_gamma, holder_l, horizon
    lead = 2.0 * c ** 3 / ((2.0 - gamma) * (3.0 - gamma))
    if gamma <= beta:
        return (
            lead * t ** (2.0 - 2.0 * gamma)
            + 2.0 * c ** 2 * t ** (1.0 - gamma)
            + 2.0 * c / ((1.0 + gamma) * gamma)
            + l / (1.0 + beta) * t ** (beta - gamma)
        )
    return (
        lead * t ** (2.0 - gamma - beta)
        + 2.0 * c ** 2 * t ** (1.0 - beta)
        + 2.0 * c / ((1.0 + gamma) * gamma) * t ** (gamma - beta)
        + l / (1.0 + beta)
    )


def stability_step_threshold(
    gamma: float, c_gamma: float, horizon: float, lambda_gamma: float = 1.0
) -> int:
    """Smallest step count from which the power-smoothing bound self-sustains.

    ``floor((2 (L/(1-g) + 1) C)^(1/(1-g)) T) + 1`` with the measured smoothing
    constant clamped below by one.  Always at least 1; monotone in C and T.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    if c_gamma < 0.0 or horizon <= 0.0:
        raise ValueError("need c_gamma >= 0 and horizon > 0")
    lam = max(1.0, lambda_gamma)
    base = 2.0 * (lam / (1.0 - gamma) + 1.0) * c_gamma
    return int(math.floor(base ** (1.0 / (1.0 - gamma)) * horizon)) + 1


def solve_stability_constant(
    c0: float, c1: float, c2: float, n: int, gamma: float, alpha: float
) -> float:
    """Smallest M solving ``c0 + c1 M / n^(1-g) + c2 M^(a/g) <= M``.

    Bisection on [c0, 1e8] to relative accuracy 1e-8.  Raises
    ``FeasibilityViolatedError`` when ``n <= c1^(1/(1-g))`` (the linear term
    then dominates and no M exists) and ``InfeasibleError`` when even the
    bracket endpoint violates the inequality.
    """
    if min(c0, c1, c2) < 0.0:
        raise ValueError("coefficients must be >= 0")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not 0.0 <= alpha <= gamma:
        raise ValueError(f"alpha must lie in [0, gamma], got {alpha!r}")
    if c1 > 0.0 and n <= c1 ** (1.0 / (1.0 - gamma)):
        raise errors.FeasibilityViolatedError(
            f"need n > c1^(1/(1-gamma)) = {c1 ** (1.0 / (1.0 - gamma))!r}, got {n}"
        )
    theta = alpha / gamma
    shrink = c1 / float(n) ** (1.0 - gamma)

    def residual(m: float) -> float:
        return c0 + shrink * m + c2 * m ** theta - m

    lo = max(c0, 0.0)
    if residual(lo) <= 0.0:
        return lo
    hi = 1e8
    if residual(hi) > 0.0:
        raise errors.InfeasibleError("no stability constant below 1e8")
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def sup_error(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    n: int,
    references: ReferenceGrid,
    variant: str = "left",
) -> float:
    """Triangular-grid maximum of the split-product error at length n.

    Approximates the essential supremum over all 0 <= s < t <= T by the
    maximum over the pairs of ``references``, a :func:`reference_grid` that
    a sweep over n builds once.
    """
    if variant not in ("left", "right"):
        raise ValueError(f"variant must be left or right, got {variant!r}")
    product = trotter_left if variant == "left" else trotter_right
    ts = np.linspace(0.0, family.horizon, max(j for _, j in references) + 1)
    return max(
        op_norm(product(a_op, family, ts[i], ts[j], n).matrix - u)
        for (i, j), u in references.items()
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Fitted decay of a (n, sup-error) series against the predicted rate."""

    entries: list[tuple[int, float]]
    fitted_slope: float
    fitted_log_constant: float
    r2: float
    predicted_beta: float
    condition_ok: bool


def rate_fit(
    entries: list[tuple[int, float]],
    declared_alpha: float,
    declared_beta: float,
) -> ConvergenceReport:
    """Least-squares log-log fit of sup-errors against n.

    The reported slope is the positive decay exponent p in error ~ C n^-p.
    Entries at the round-off floor are dropped first; fewer than four usable
    points raises ``TooFewPointsError`` (or ``AllBelowFloorError`` when the
    whole series is flat zero).  Rescaling all errors by a positive constant
    shifts only the intercept.
    """
    entries = sorted((int(n), float(e)) for n, e in entries)
    if any(e < 0.0 for _, e in entries):
        raise ValueError("sup errors must be >= 0")
    usable = [(n, e) for n, e in entries if e > ERROR_FLOOR]
    if not usable:
        raise errors.AllBelowFloorError("every error sits at the numerical floor")
    if len(usable) < 4:
        raise errors.TooFewPointsError(
            f"need >= 4 points above the floor, have {len(usable)}"
        )
    ns = np.array([n for n, _ in usable], dtype=float)
    es = np.array([e for _, e in usable])
    slope, intercept, r2 = loglog_fit(ns, es)
    if np.allclose(np.log(es), np.log(es).mean()):
        r2 = 1.0
    return ConvergenceReport(
        entries=entries,
        fitted_slope=-slope,
        fitted_log_constant=intercept,
        r2=r2,
        predicted_beta=float(declared_beta),
        condition_ok=bool(declared_beta > 2.0 * declared_alpha - 1.0),
    )
