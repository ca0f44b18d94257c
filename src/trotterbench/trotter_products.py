"""Split-step exponential products approximating the solution operator.

The left product multiplies factors ``e^{-tau A} e^{-tau B(t_j)}`` over the
left partition nodes ``j = n-1 .. 0`` (latest node leftmost); the right
variant uses ``e^{-tau B(t_j)} e^{-tau A}`` over the right nodes
``j = n .. 1``.  Both are time-ordered products of contractions, accumulated
by plain matrix multiplication; cost O(n dim^3).  The factors are formed in
stacks of about ``BLOCK_BYTES``, so memory does not grow with n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .operator_core import SpectralOperator, op_norm
from .problem_families import TimeDependentFamily, block_len

CONTRACTIVITY_SLACK = 1e-12


@dataclass(frozen=True)
class Partition:
    """Uniform partition t_j = s + j (t - s) / n of [s, t]."""

    s: float
    t: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.s <= self.t:
            raise errors.InvalidIntervalError(f"need 0 <= s <= t, got s={self.s!r} t={self.t!r}")
        if self.n < 1:
            raise errors.InvalidIntervalError(f"need n >= 1, got {self.n!r}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.s, self.t, self.n + 1)

    @property
    def step(self) -> float:
        return (self.t - self.s) / self.n


@dataclass(frozen=True)
class Propagator:
    """A propagator-like matrix with provenance metadata.

    Contractivity is part of the contract: construction fails if the spectral
    norm exceeds 1 beyond floating-point slack.
    """

    matrix: np.ndarray
    t: float
    s: float
    method: str
    n_or_steps: int
    error_estimate: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        norm = op_norm(m)
        if norm > 1.0 + CONTRACTIVITY_SLACK:
            raise errors.ContractivityError(
                f"{self.method} propagator has norm {norm!r} > 1"
            )


def _check_interval(family: TimeDependentFamily, s: float, t: float) -> None:
    slack = 1e-9 * max(1.0, family.horizon)
    if not (-slack <= s <= t <= family.horizon + slack):
        raise errors.InvalidIntervalError(
            f"need 0 <= s <= t <= {family.horizon!r}, got s={s!r} t={t!r}"
        )


def step_G(
    a_op: SpectralOperator,
    family: TimeDependentFamily,
    tau: float,
    t_node: float,
) -> np.ndarray:
    """Single split step ``e^{-tau A} e^{-tau B(t_node)}``."""
    return a_op.semigroup(tau) @ family.factors([t_node], tau)[0]


def _split_product(a_op, family, s, t, n, method: str) -> Propagator:
    """Time-ordered product of split steps; exact identity when t == s."""
    _check_interval(family, s, t)
    part = Partition(s, t, n)
    v = np.eye(a_op.dim)
    if t != s:
        tau = part.step
        ea = a_op.semigroup(tau)
        right = method == "trotter_right"
        nodes = part.nodes[1:] if right else part.nodes[:-1]
        edges = [*range(0, n, block_len(8 * a_op.dim ** 2)), n]
        for lo, hi in zip(edges, edges[1:]):
            ebs = family.factors(nodes[lo:hi], tau)
            for g in (ebs @ ea) if right else (ea @ ebs):
                v = g @ v
    return Propagator(v, t=t, s=s, method=method, n_or_steps=n)


def trotter_left(
    a_op: SpectralOperator, family: TimeDependentFamily, s: float, t: float, n: int
) -> Propagator:
    """Left split product ``e^{-tau A} e^{-tau B(t_j)}`` over left endpoints."""
    return _split_product(a_op, family, s, t, n, "trotter_left")


def trotter_right(
    a_op: SpectralOperator, family: TimeDependentFamily, s: float, t: float, n: int
) -> Propagator:
    """Right split product ``e^{-tau B(t_j)} e^{-tau A}`` over right endpoints."""
    return _split_product(a_op, family, s, t, n, "trotter_right")
