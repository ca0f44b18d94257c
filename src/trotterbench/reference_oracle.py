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

# References U(t_j, t_i) on a uniform grid, keyed by the index pair (i, j), i < j.
ReferenceGrid = dict[tuple[int, int], np.ndarray]


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
    integral = (t - s) * family.b_const[0, 0] + family.profile.integral(s, t) * family.b_mod[0, 0]
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
) -> ReferenceGrid:
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


def even_points(fine: ReferenceGrid) -> ReferenceGrid:
    """The N-slot grid inside a 2N-slot :func:`reference_grid`: ``U(t_j, t_i) = fine[(2i, 2j)]``."""
    return {(i // 2, j // 2): u for (i, j), u in fine.items() if i % 2 == 0 == j % 2}
