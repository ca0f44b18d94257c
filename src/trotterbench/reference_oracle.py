"""High-accuracy reference propagators and closed-form commuting oracles.

The workhorse is the midpoint-exponential product (a second-order Magnus
step): every factor ``exp(-h C(midpoint))`` is a contraction, so the
reference can never blow up, and its error is measurable a posteriori by
step halving; grids of references compose adjacent-interval refinements
through the cocycle ``U(t, s) = U(t, r) U(r, s)``.  For scalar families the
closed form ``e^{-(t-s)A} e^{-int b}`` provides an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors
from .operator_core import SpectralOperator, op_norm
from .problem_families import TimeDependentFamily
from .trotter_products import Propagator, _check_interval

# Step-halving refinement gives up beyond this many midpoint steps.
REFINEMENT_CAP = 2 ** 20
TOLERANCE_FLOOR = 1e-12  # finest step-halving tolerance resolvable in double precision
_START_STEPS = 16
_CHUNK = 8192


def adaptive_simpson(
    f,
    a: float,
    b: float,
    tol: float = 1e-12,
    initial_panels: int = 64,
    max_depth: int = 64,
) -> float:
    """Adaptive composite Simpson quadrature to absolute tolerance ``tol``.

    ``f`` must accept numpy arrays.  The interval starts pre-split into
    ``initial_panels`` panels so oscillatory integrands cannot fool the
    refinement test by aliasing; panels then bisect independently with the
    usual 15x Richardson acceptance, each carrying half its parent's budget.
    Panels that shrink below ~1e-14 of the interval are accepted as is:
    for bounded integrands (integrable endpoint singularities included)
    their residual is far below any resolvable tolerance.
    """
    if b == a:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, initial_panels, max_depth)
    width_floor = 1e-14 * (b - a)
    edges = np.linspace(a, b, initial_panels + 1)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    f_lo = np.asarray(f(lo), dtype=float)
    f_hi = np.asarray(f(hi), dtype=float)
    mid = 0.5 * (lo + hi)
    f_mid = np.asarray(f(mid), dtype=float)
    budget = np.full(lo.shape, tol / initial_panels)
    total = 0.0
    for _ in range(max_depth):
        h = hi - lo
        s1 = h / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        f_lmid = np.asarray(f(lmid), dtype=float)
        f_rmid = np.asarray(f(rmid), dtype=float)
        s_left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lmid + f_mid)
        s_right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_rmid + f_hi)
        s2 = s_left + s_right
        done = (np.abs(s2 - s1) <= 15.0 * budget) | (h <= width_floor)
        total += float(np.sum((s2 + (s2 - s1) / 15.0)[done]))
        if np.all(done):
            return total
        keep = ~done
        # each kept panel splits into its two halves with half the budget
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        f_lo = np.concatenate([f_lo[keep], f_mid[keep]])
        f_hi = np.concatenate([f_mid[keep], f_hi[keep]])
        f_mid = np.concatenate([f_lmid[keep], f_rmid[keep]])
        mid = 0.5 * (lo + hi)
        budget = np.concatenate([budget[keep], budget[keep]]) * 0.5
    raise errors.QuadratureDepthError(f"adaptive Simpson exceeded maximum depth {max_depth}")


def analytic_commuting(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    s: float,
    t: float,
) -> Propagator:
    """Closed form ``e^{-(t-s)A} e^{-(t-s) b_const - b_mod int_s^t w}`` for dim-1 families."""
    if family.dim != 1:
        raise errors.NonCommutingFamilyError(
            f"closed form needs a one-dimensional family, got dim {family.dim}"
        )
    _check_interval(family, s, t)
    if t == s:
        return Propagator(np.eye(a_op.dim), t=t, s=s, method="analytic", n_or_steps=0)
    w_integral = adaptive_simpson(
        family.profile, s, t, tol=1e-12, initial_panels=family.profile.suggested_panels
    )
    integral = (t - s) * family.b_const[0, 0] + w_integral * family.b_mod[0, 0]
    matrix = a_op.semigroup(t - s) * math.exp(-integral)
    return Propagator(matrix, t=t, s=s, method="analytic", n_or_steps=0)


def _midpoint_matrix(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    s: float,
    t: float,
    steps: int,
) -> np.ndarray:
    if t == s:
        return np.eye(a_op.dim)
    h = (t - s) / steps
    mids = s + (np.arange(steps) + 0.5) * h
    if a_op.dim == 1:
        b_vals = family.sample_batch(mids)[:, 0, 0]
        exponent = -(t - s) * a_op.eigenvalues[0] - h * float(np.sum(b_vals))
        return np.array([[math.exp(exponent)]])
    a_mat = a_op.to_matrix()
    u = np.eye(a_op.dim)
    for start in range(0, steps, _CHUNK):
        chunk = mids[start : start + _CHUNK]
        cs = family.sample_batch(chunk) + a_mat[None, :, :]
        lam, q = np.linalg.eigh(cs)
        mats = (q * np.exp(-h * lam)[:, None, :]) @ np.transpose(q, (0, 2, 1))
        # time-ordered product mats[-1] @ ... @ mats[0] by pairwise batched matmuls
        while len(mats) > 1:
            even = len(mats) - len(mats) % 2
            mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
        u = mats[0] @ u
    return u


def midpoint_exponential(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    s: float,
    t: float,
    steps: int,
) -> Propagator:
    """Time-ordered product of ``exp(-h C(midpoint))`` factors, h=(t-s)/steps.

    Second order in h for Lipschitz families, order 1+beta for Hoelder ones.
    """
    if steps < 1:
        raise errors.InvalidIntervalError(f"steps must be >= 1, got {steps!r}")
    _check_interval(family, s, t)
    matrix = _midpoint_matrix(a_op, family, s, t, steps)
    return Propagator(matrix, t=t, s=s, method="reference", n_or_steps=steps)


def refine_to_tol(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    s: float,
    t: float,
    tol: float = 1e-10,
) -> Propagator:
    """Step-halve the midpoint product until consecutive levels agree.

    Returns the finer level once ``|U_2m - U_m| <= tol``, with that difference
    recorded as the error estimate.  Raises ``CapExceededError`` if the
    criterion is still unmet at ``REFINEMENT_CAP`` steps.  The a posteriori
    criterion stays valid for Hoelder families where the observed order
    degrades below two.
    """
    if tol < TOLERANCE_FLOOR:
        raise errors.ToleranceFloorError(
            f"tolerances below {TOLERANCE_FLOOR!r} are not resolvable, got {tol!r}"
        )
    _check_interval(family, s, t)
    if t == s:
        return Propagator(
            np.eye(a_op.dim), t=t, s=s, method="reference", n_or_steps=0, error_estimate=0.0
        )
    m = _START_STEPS
    u_prev = _midpoint_matrix(a_op, family, s, t, m)
    while True:
        m2 = 2 * m
        u_next = _midpoint_matrix(a_op, family, s, t, m2)
        diff = op_norm(u_next - u_prev)
        if diff <= tol:
            return Propagator(
                u_next, t=t, s=s, method="reference", n_or_steps=m2, error_estimate=diff
            )
        if m2 >= REFINEMENT_CAP:
            raise errors.CapExceededError(
                f"midpoint refinement stuck at defect {diff!r} with {m2} steps"
            )
        m, u_prev = m2, u_next


def reference_grid(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    grid_n: int,
    tol: float,
) -> dict[tuple[int, int], np.ndarray]:
    """References ``U(t_j, t_i)`` for every pair i < j of the uniform grid.

    Refines the ``grid_n`` adjacent intervals to ``tol / grid_n`` each and forms
    ``U(t_j, t_i) = U(t_j, t_{j-1}) U(t_{j-1}, t_i)``: errors of products of
    contractions add, so every entry stays within ``tol``.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n!r}")
    step_tol = tol / grid_n
    if step_tol < TOLERANCE_FLOOR:
        raise errors.ToleranceFloorError(
            f"per-interval tolerance tol / grid_n = {tol!r} / {grid_n} is below {TOLERANCE_FLOOR}"
        )
    ts = np.linspace(0.0, family.horizon, grid_n + 1)
    refs = {}
    for j in range(1, grid_n + 1):
        refs[(j - 1, j)] = refine_to_tol(a_op, family, ts[j - 1], ts[j], step_tol).matrix
        for i in range(j - 1):
            refs[(i, j)] = refs[(j - 1, j)] @ refs[(i, j - 1)]
    return refs


def even_points(fine: dict[tuple[int, int], np.ndarray]) -> dict[tuple[int, int], np.ndarray]:
    """The N-slot grid inside a 2N-slot :func:`reference_grid`: ``U(t_j, t_i) = fine[(2i, 2j)]``."""
    return {(i // 2, j // 2): u for (i, j), u in fine.items() if i % 2 == 0 == j % 2}
