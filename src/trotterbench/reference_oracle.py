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
from .problem_families import TimeDependentFamily, block_len
from .trotter_products import Propagator, _check_interval

# Step-halving refinement gives up beyond this many midpoint steps.
REFINEMENT_CAP = 2 ** 20
TOLERANCE_FLOOR = 1e-12  # finest step-halving tolerance resolvable in double precision
_START_STEPS = 16

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
    return _ordered_product(a_op.to_matrix(), family, mids, h)


def _ordered_product(
    a_mat: np.ndarray, family: TimeDependentFamily, mids: np.ndarray, h: float
) -> np.ndarray:
    """``E_{m-1} ... E_0`` with ``E_j = exp(-h (A + B(mids[j])))``.

    Halves the factors until a stack fits one block, then multiplies pairwise
    with batched matmuls; for a power-of-two count both give the same
    perfect binary tree, so the result does not depend on the block size.
    """
    if len(mids) > block_len(8 * a_mat.size):
        half = len(mids) // 2
        return _ordered_product(a_mat, family, mids[half:], h) @ _ordered_product(
            a_mat, family, mids[:half], h
        )
    lam, q = np.linalg.eigh(family.sample_batch(mids) + a_mat[None, :, :])
    mats = (q * np.exp(-h * lam)[:, None, :]) @ np.transpose(q, (0, 2, 1))
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


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
    start_steps: int = _START_STEPS,
) -> Propagator:
    """Step-halve the midpoint product until consecutive levels agree.

    Returns the finer level once ``|U_2m - U_m| <= tol``, with that difference
    recorded as the error estimate.  Raises ``CapExceededError`` if the
    criterion is still unmet at ``REFINEMENT_CAP`` steps.  The a posteriori
    criterion stays valid for Hoelder families where the observed order
    degrades below two.

    The first comparison is ``start_steps`` against ``2 start_steps``.  A start
    ``_START_STEPS * 2^k`` at most half the level a cold start stops at returns
    the cold start's matrix bit for bit; a higher one stops at ``2 start_steps``
    or finer, still within ``tol``.
    """
    if not 1 <= start_steps <= REFINEMENT_CAP // 2:
        raise errors.InvalidCountError(
            f"start_steps must lie in [1, {REFINEMENT_CAP // 2}], got {start_steps!r}"
        )
    if tol < TOLERANCE_FLOOR:
        raise errors.ToleranceFloorError(
            f"tolerances below {TOLERANCE_FLOOR!r} are not resolvable, got {tol!r}"
        )
    _check_interval(family, s, t)
    if t == s:
        return Propagator(
            np.eye(a_op.dim), t=t, s=s, method="reference", n_or_steps=0, error_estimate=0.0
        )
    m = start_steps
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


class WindowStarts:
    """``start_steps`` for :func:`refine_to_tol` over windows of one length, refined in order.

    Windows of one length often need similar levels, so from the third window
    on each refinement starts two levels below the lower of the last two
    levels.  A window needing at least half that lower level returns the cold
    start's matrix bit for bit; one needing less stops finer, still within
    ``tol``.  One hard window (a profile singular at its left end, say) never
    raises the next start on its own, and a window that passes its first
    comparison from a warm start has an unknown level, so the next two
    windows start cold.
    """

    def __init__(self) -> None:
        self.steps = _START_STEPS
        self._levels: list[int] = []  # 0 marks a level a warm start could not pin down

    def record(self, ref: Propagator) -> None:
        """Take the result of the window refined with ``start_steps=self.steps``."""
        pinned = self.steps == _START_STEPS or ref.n_or_steps > 2 * self.steps
        self._levels.append(ref.n_or_steps if pinned else 0)
        if len(self._levels) >= 2:
            self.steps = max(_START_STEPS, min(self._levels[-2:]) // 4)


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
        raise errors.InvalidCountError(f"grid_n must be >= 1, got {grid_n!r}")
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
