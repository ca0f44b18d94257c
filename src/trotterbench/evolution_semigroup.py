"""Discrete evolution-semigroup layer on the slotted space L^2([0,T], R^dim).

Time is cut into N slots of width h = T/N; operators of interest are block
shifts: block i maps slot i-k to slot i through one dim x dim matrix.
Because blocks act on disjoint coordinates, the operator norm on the
slotted space is exactly the maximum block norm, which is what ties the
semigroup-level defect ``|U(tau) - T(tau/n)^n|`` to the propagator sup-error
``sup |U(t,s) - V_n(t,s)|``.

Slot conventions are chosen so that identity is exact at the discrete level:
multiplication blocks read B at the slot's left endpoint i*h, and evolution
blocks at slot i carry U(i*h, (i-k)*h).  Unrolling the n-th power of the
split step then reproduces the left Trotter product over the matched time
pair bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors
from .operator_core import SpectralOperator, op_norm
from .problem_families import (
    TimeDependentFamily,
    estimate_c_alpha,
    holder_seminorm,
    loglog_fit,
)
from .reference_oracle import ReferenceGrid, WindowStarts, even_points, refine_to_tol
from .trotter_products import step_G, trotter_left
from .bounds_and_rates import sandwiched_defect_constant

# A measured ratio passes its explicit bound up to this relative slack.
BOUND_SLACK = 1e-6
# Smoothing constants are stable when doubling the slot grid moves them by
# at most this much: evolution operators, then split-step powers.
SMOOTHING_DOUBLING_TOLERANCE = 0.10
POWER_DOUBLING_TOLERANCE = 0.20
# Time grid of the max-ratio Hoelder seminorm in the sandwich bound.
HOLDER_GRID_N = 128


@dataclass(frozen=True)
class BlockShiftOperator:
    """Operator moving slot i-shift to slot i through blocks[i].

    Rows below ``shift`` must be zero; a shift at or beyond the slot count
    makes the whole operator zero (the shift dies at the horizon).
    """

    shift: int
    blocks: np.ndarray  # (N, dim, dim)

    def __post_init__(self):
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=float))
        if self.blocks.ndim != 3 or self.blocks.shape[1] != self.blocks.shape[2]:
            raise errors.BlockShiftError("blocks must be a (N, dim, dim) array")
        if self.shift < 0:
            raise errors.BlockShiftError("shift must be >= 0")
        head = min(self.shift, self.blocks.shape[0])
        if head and float(np.abs(self.blocks[:head]).max(initial=0.0)) != 0.0:
            raise errors.BlockShiftError("blocks below the shift must be zero")

    @property
    def n_slots(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    @classmethod
    def zero(cls, n_slots: int, dim: int, shift: int) -> "BlockShiftOperator":
        return cls(shift, np.zeros((n_slots, dim, dim)))

    @classmethod
    def identity(cls, n_slots: int, dim: int) -> "BlockShiftOperator":
        blocks = np.broadcast_to(np.eye(dim), (n_slots, dim, dim)).copy()
        return cls(0, blocks)

    def compose(self, other: "BlockShiftOperator") -> "BlockShiftOperator":
        """self after other; shifts add, blocks chain along the slot lattice."""
        if self.n_slots != other.n_slots or self.dim != other.dim:
            raise errors.BlockShiftError("operators live on different slotted spaces")
        shift = self.shift + other.shift
        if shift >= self.n_slots:
            return BlockShiftOperator.zero(self.n_slots, self.dim, shift)
        blocks = np.zeros_like(self.blocks)
        blocks[shift:] = self.blocks[shift:] @ other.blocks[other.shift : self.n_slots - self.shift]
        return BlockShiftOperator(shift, blocks)

    def power(self, n: int) -> "BlockShiftOperator":
        if n < 1:
            raise errors.InvalidCountError("power needs n >= 1")
        result = self
        for _ in range(n - 1):
            result = self.compose(result)
        return result

    def __sub__(self, other: "BlockShiftOperator") -> "BlockShiftOperator":
        if self.shift != other.shift:
            raise errors.BlockShiftError("can only subtract operators with equal shift")
        return BlockShiftOperator(self.shift, self.blocks - other.blocks)

    def left_multiply(self, mat: np.ndarray) -> "BlockShiftOperator":
        return BlockShiftOperator(self.shift, np.matmul(mat, self.blocks))

    def right_multiply(self, mat: np.ndarray) -> "BlockShiftOperator":
        return BlockShiftOperator(self.shift, np.matmul(self.blocks, mat))

    def to_matrix(self) -> np.ndarray:
        """Assembled (N dim) x (N dim) matrix, for small-instance oracles."""
        n, d = self.n_slots, self.dim
        full = np.zeros((n * d, n * d))
        for i in range(self.shift, n):
            j = i - self.shift
            full[i * d : (i + 1) * d, j * d : (j + 1) * d] = self.blocks[i]
        return full


def block_norm(op: BlockShiftOperator) -> float:
    """Operator norm on the slotted space: max over slots of the block norm."""
    live = op.blocks[min(op.shift, op.n_slots) :]
    return op_norm(live) if len(live) else 0.0


def _check_product_length(n: int, n_slots: int) -> None:
    if n < 1 or n_slots % n != 0:
        raise errors.IndivisibleGridError(
            f"product length {n} must divide the slot count {n_slots}"
        )


def _slot_width(family: TimeDependentFamily, n_slots: int) -> float:
    if n_slots < 1:
        raise errors.InvalidCountError("need at least one slot")
    return family.horizon / n_slots


def build_U0(
    a_op: SpectralOperator, n_slots: int, k: int, horizon: float
) -> BlockShiftOperator:
    """Shift-by-k semigroup of the free part: every block is e^{-k h A}."""
    if k < 0:
        raise errors.BlockShiftError("shift must be >= 0")
    if k >= n_slots:
        return BlockShiftOperator.zero(n_slots, a_op.dim, k)
    tau = k * (horizon / n_slots)
    blk = a_op.semigroup(tau)
    blocks = np.zeros((n_slots, a_op.dim, a_op.dim))
    blocks[k:] = blk
    return BlockShiftOperator(k, blocks)


def build_expB(
    family: TimeDependentFamily, n_slots: int, tau: float
) -> BlockShiftOperator:
    """Multiplication semigroup: block i is e^{-tau B(i h)} (left endpoints)."""
    h = _slot_width(family, n_slots)
    return BlockShiftOperator(0, family.factors(np.arange(n_slots) * h, tau))


def build_T(
    a_op: SpectralOperator, family: TimeDependentFamily, n_slots: int, k: int
) -> BlockShiftOperator:
    """Split step: shift-k free flow after multiplication, over k slots."""
    h = _slot_width(family, n_slots)
    u0 = build_U0(a_op, n_slots, k, family.horizon)
    if k >= n_slots:
        return u0
    return u0.compose(build_expB(family, n_slots, k * h))


def build_T_reversed(
    a_op: SpectralOperator, family: TimeDependentFamily, n_slots: int, k: int
) -> BlockShiftOperator:
    """Reversed split step: multiplication after the shift-k free flow."""
    h = _slot_width(family, n_slots)
    u0 = build_U0(a_op, n_slots, k, family.horizon)
    if k >= n_slots:
        return u0
    return build_expB(family, n_slots, k * h).compose(u0)


def build_U_evo(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    n_slots: int,
    k: int,
    references: ReferenceGrid,
) -> BlockShiftOperator:
    """Shift-by-k evolution operator: block i carries U(i h, (i-k) h).

    Blocks come from ``references``, the :func:`reference_grid` on the
    ``n_slots`` slot boundaries.  Shift 0 gives exact identities.
    """
    if (n_slots - 1, n_slots) not in references or (n_slots, n_slots + 1) in references:
        raise errors.GridMismatchError(
            f"{n_slots} slots need a {n_slots}-interval reference grid, "
            f"got {max((j for _, j in references), default=0)} intervals"
        )
    if k < 0:
        raise errors.BlockShiftError("shift must be >= 0")
    if k >= n_slots:
        return BlockShiftOperator.zero(n_slots, a_op.dim, k)
    if k == 0:
        return BlockShiftOperator.identity(n_slots, a_op.dim)
    blocks = np.zeros((n_slots, a_op.dim, a_op.dim))
    blocks[k:] = [references[(i - k, i)] for i in range(k, n_slots)]
    return BlockShiftOperator(k, blocks)


class CorrespondenceResult(NamedTuple):
    semigroup_error: float
    propagator_error: float
    gap: float


def correspondence_check(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    n_slots: int,
    n: int,
    references: ReferenceGrid,
) -> CorrespondenceResult:
    """Semigroup defect versus propagator sup-error on matched slot pairs.

    For each representable tau = kappa * h with n | kappa, compares
    ``block_norm(U_evo(kappa) - T(kappa/n)^n)`` against the plain maximum of
    ``|U(t, s) - V_n(t, s)|`` over the matched pairs (i h, (i - kappa) h).
    Both sides read the one N-slot reference grid and the split power's
    blocks are the Trotter products, so the gap is round-off.
    """
    [(_, semigroup_error)] = semigroup_defect_series(a_op, family, n_slots, [n], references)
    h = _slot_width(family, n_slots)
    propagator_error = 0.0
    for kappa in range(n, n_slots + 1, n):
        for i in range(kappa, n_slots):
            v_mat = trotter_left(a_op, family, (i - kappa) * h, i * h, n).matrix
            u_mat = references[(i - kappa, i)]
            propagator_error = max(propagator_error, op_norm(u_mat - v_mat))
    return CorrespondenceResult(
        semigroup_error, propagator_error, abs(semigroup_error - propagator_error)
    )


def semigroup_defect_series(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    n_slots: int,
    n_list: list[int],
    references: ReferenceGrid,
    reversed_product: bool = False,
) -> list[tuple[int, float]]:
    """Max semigroup defect per product length, over representable taus."""
    build = build_T_reversed if reversed_product else build_T
    out = []
    for n in n_list:
        _check_product_length(n, n_slots)
        worst = 0.0
        for kappa in range(n, n_slots + 1, n):
            u_op = build_U_evo(a_op, family, n_slots, kappa, references)
            t_pow = build(a_op, family, n_slots, kappa // n).power(n)
            worst = max(worst, block_norm(u_op - t_pow))
        out.append((n, worst))
    return out


@dataclass(frozen=True)
class SmoothingReport:
    """Measured smoothing constants sup_tau tau^g |A^g U(tau)| (both sides)."""

    gamma: float
    lambda_left: float
    lambda_right: float
    per_tau_left: list[tuple[float, float]]
    per_tau_right: list[tuple[float, float]]
    doubling_rel_change: float
    stable: bool


def measure_smoothing_constant(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    n_slots: int,
    gamma: float,
    references: ReferenceGrid,
) -> SmoothingReport:
    """Measure the evolution smoothing constant on the dyadic shifts below ``n_slots``.

    The quantity ``tau^gamma * block_norm(A^gamma U_evo(tau))`` (and its
    right-sided mirror) is bounded for parabolic problems; the measured
    maximum doubles as the constant fed into the stability threshold.
    Stability is probed on 2N slots at the same taus, from ``references``:
    the 2N-slot :func:`reference_grid`.
    """
    shifts = [k for k in (1, 2, 4, 8, 16, 32) if k < n_slots]
    a_pow = a_op.frac_power(gamma)

    def measure(slots: int, ks: list[int], refs) -> tuple[list, list]:
        h = family.horizon / slots
        left, right = [], []
        for k in ks:
            u_op = build_U_evo(a_op, family, slots, k, refs)
            tau = k * h
            left.append((tau, tau ** gamma * block_norm(u_op.left_multiply(a_pow))))
            right.append((tau, tau ** gamma * block_norm(u_op.right_multiply(a_pow))))
        return left, right

    left, right = measure(n_slots, shifts, even_points(references))
    left2, _ = measure(2 * n_slots, [2 * k for k in shifts], references)
    lam_left = max(v for _, v in left)
    lam_right = max(v for _, v in right)
    lam_left2 = max(v for _, v in left2)
    rel = abs(lam_left2 - lam_left) / max(lam_left, 1e-300)
    return SmoothingReport(
        gamma=gamma,
        lambda_left=lam_left,
        lambda_right=lam_right,
        per_tau_left=left,
        per_tau_right=right,
        doubling_rel_change=rel,
        stable=rel <= SMOOTHING_DOUBLING_TOLERANCE,
    )


@dataclass(frozen=True)
class OneStepReport:
    """Ratios of the sandwiched one-step defect against its linear bound."""

    gamma: float
    c_gamma: float
    max_ratio: float
    per_tau: list[tuple[float, float]]
    ok: bool


def _onestep_grids(family: TimeDependentFamily, tau: float, grid_n: int) -> np.ndarray:
    """``grid_n + 1`` base points ``t`` in ``[0, T - tau]``, or ``t = 0`` alone when ``tau = T``."""
    return np.linspace(0.0, family.horizon - tau, grid_n + 1 if tau < family.horizon else 1)


def _onestep_setup(a_op, family, gamma, grid_n):
    """``A^-gamma`` and the grid constant ``C_gamma`` for a gamma in [alpha, 1)."""
    if not family.declared_alpha <= gamma < 1.0:
        raise errors.ExponentRangeError(
            f"gamma must lie in [{family.declared_alpha}, 1), got {gamma!r}"
        )
    return a_op.frac_power(-gamma), estimate_c_alpha(family, a_op, gamma, max(grid_n, 16))


def _worst_defect_ratios(a_op, family, tau_grid, grid_n, oracle_tol, lhs_and_bound):
    """Per-tau worst ``lhs / bound`` over base points; bounds at the oracle floor give 0 or inf."""
    floor = max(1e-11, 10.0 * oracle_tol)
    per_tau = []
    for tau in tau_grid:
        worst = 0.0
        starts = WindowStarts()
        for t in _onestep_grids(family, tau, grid_n):
            ref = refine_to_tol(a_op, family, t, t + tau, oracle_tol, start_steps=starts.steps)
            starts.record(ref)
            defect = step_G(a_op, family, tau, t) - ref.matrix
            lhs, denom = lhs_and_bound(tau, defect)
            if denom <= floor:
                ratio = 0.0 if lhs <= floor else float("inf")
            else:
                ratio = lhs / denom
            worst = max(worst, ratio)
        per_tau.append((tau, worst))
    return per_tau, max((w for _, w in per_tau), default=0.0)


def check_onestep_linear_bound(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    gamma: float,
    tau_grid: list[float],
    grid_n: int = 8,
    oracle_tol: float = 1e-10,
) -> OneStepReport:
    """One-sided smoothing defect ``A^-g (split step - U)`` versus 2 C_g tau.

    Checks both ``|A^-g (e^{-tau A} e^{-tau B(t)} - U(t+tau, t))|`` and the
    right-multiplied mirror on a uniform t-grid, for every tau in the grid.
    The bound constant uses the grid maximum of ``|B(t) A^-g|`` including all
    tested base points, so the comparison is pointwise sound.
    """
    a_neg, c_hat = _onestep_setup(a_op, family, gamma, grid_n)
    # the bound constant must dominate |B(t) A^-g| at every tested base point
    if tau_grid:
        ts = np.concatenate([_onestep_grids(family, tau, grid_n) for tau in tau_grid])
        c_hat = max(c_hat, op_norm(family.sample_batch(ts) @ a_neg))
    def lhs_and_bound(tau, d):
        return max(op_norm(a_neg @ d), op_norm(d @ a_neg)), 2.0 * c_hat * tau

    per_tau, max_ratio = _worst_defect_ratios(
        a_op, family, tau_grid, grid_n, oracle_tol, lhs_and_bound
    )
    return OneStepReport(
        gamma=gamma,
        c_gamma=c_hat,
        max_ratio=max_ratio,
        per_tau=per_tau,
        ok=max_ratio <= 1.0 + BOUND_SLACK,
    )


@dataclass(frozen=True)
class SandwichReport:
    """Ratios of the doubly sandwiched defect against its tau^(1+kappa) bound."""

    gamma: float
    beta: float
    kappa: float
    c_gamma: float
    holder_l: float
    bound_constant: float
    max_ratio: float
    per_tau: list[tuple[float, float]]
    ok: bool


def check_sandwiched_defect(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    gamma: float,
    beta: float,
    tau_grid: list[float],
    grid_n: int = 8,
    oracle_tol: float = 1e-10,
) -> SandwichReport:
    """Doubly sandwiched one-step defect versus the explicit power bound.

    Verifies ``|A^-g (split step - U) A^-g| <= Z tau^(1+kappa)`` with
    kappa = min(gamma, beta) and Z the explicit constant assembled from the
    measured ``C_gamma`` and the max-ratio Hoelder seminorm at the declared
    exponent.
    """
    a_neg, c_hat = _onestep_setup(a_op, family, gamma, grid_n)
    if not 0.0 < beta < 1.0:
        raise errors.ExponentRangeError(f"beta must lie in (0, 1), got {beta!r}")
    l_plus = holder_seminorm(family, a_op, gamma, beta, HOLDER_GRID_N)
    z = sandwiched_defect_constant(gamma, beta, c_hat, l_plus, family.horizon)
    kappa = min(gamma, beta)
    def lhs_and_bound(tau, d):
        return op_norm(a_neg @ d @ a_neg), z * tau ** (1.0 + kappa)

    per_tau, max_ratio = _worst_defect_ratios(
        a_op, family, tau_grid, grid_n, oracle_tol, lhs_and_bound
    )
    return SandwichReport(
        gamma=gamma,
        beta=beta,
        kappa=kappa,
        c_gamma=c_hat,
        holder_l=l_plus,
        bound_constant=z,
        max_ratio=max_ratio,
        per_tau=per_tau,
        ok=max_ratio <= 1.0 + BOUND_SLACK,
    )


@dataclass(frozen=True)
class PowerSmoothingReport:
    """Stability of ``(m tau)^g |A^g T(tau)^m|`` along split-step powers."""

    gamma: float
    n: int
    m_hat: float
    s_values: list[float]
    m_hat_doubled: float
    doubling_rel_change: float
    stable: bool
    interpolation_sigma: float
    interpolation_max_ratio: float
    interpolation_ok: bool


def check_power_smoothing(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    gamma: float,
    n: int,
    n_slots: int,
) -> PowerSmoothingReport:
    """Walk the split-step powers and measure the smoothing constant.

    S(m) = (m tau)^gamma * block_norm(A^gamma T(tau)^m) for m = 1..n with
    tau = T/n.  The maximum is the measured stability constant; it must stay
    finite, move by at most ``POWER_DOUBLING_TOLERANCE`` when the slot grid doubles,
    and dominate the interpolated bound at sigma = gamma/2 via operator
    monotonicity (Heinz): (m tau)^s |A^s T^m| <= M^(s/g).
    """
    _check_product_length(n, n_slots)
    sigma = gamma / 2.0
    a_g = a_op.frac_power(gamma)
    a_s = a_op.frac_power(sigma)
    tau = family.horizon / n

    def walk(slots: int) -> tuple[list[float], list[float]]:
        k = slots // n
        t_op = build_T(a_op, family, slots, k)
        s_gamma, s_sigma = [], []
        current = t_op
        for m in range(1, n + 1):
            mt = (m * tau) ** gamma
            s_gamma.append(mt * block_norm(current.left_multiply(a_g)))
            s_sigma.append(
                (m * tau) ** sigma * block_norm(current.left_multiply(a_s))
            )
            if m < n:
                current = t_op.compose(current)
        return s_gamma, s_sigma

    s_gamma, s_sigma = walk(n_slots)
    s_gamma2, _ = walk(2 * n_slots)
    m_hat = max(s_gamma)
    m_hat2 = max(s_gamma2)
    rel = abs(m_hat2 - m_hat) / max(m_hat, 1e-300)
    interp_bound = max(m_hat, 1e-300) ** (sigma / gamma)
    interp_ratio = max(s_sigma) / interp_bound
    return PowerSmoothingReport(
        gamma=gamma,
        n=n,
        m_hat=m_hat,
        s_values=s_gamma,
        m_hat_doubled=m_hat2,
        doubling_rel_change=rel,
        stable=rel <= POWER_DOUBLING_TOLERANCE,
        interpolation_sigma=sigma,
        interpolation_max_ratio=interp_ratio,
        interpolation_ok=interp_ratio <= 1.0 + BOUND_SLACK,
    )


def defect_decay_slope(series: list[tuple[int, float]]) -> float:
    """Log-log decay slope of a (n, defect) series; positive means decay."""
    ns = np.array([n for n, _ in series], dtype=float)
    vals = np.array([v for _, v in series], dtype=float)
    mask = vals > 1e-14
    if mask.sum() < 2:
        return float("inf")  # everything at the floor decays as fast as needed
    return -loglog_fit(ns[mask], vals[mask])[0]
