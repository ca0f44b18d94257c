"""Time-dependent perturbation families with declared regularity.

Every family has the affine form ``B(t) = B_const + w(t) * B_mod`` with a
deterministic scalar profile ``w``: samples are bit-reproducible,
symmetric and positive semidefinite, and the declared regularity data
``(alpha, beta)`` travel with the family so the measured assumption
constants can be compared against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import errors
from .operator_core import SpectralOperator, GENERATOR_ROLE, as_symmetric, op_norm

PROFILE_KINDS = ("power", "linear", "weierstrass")

# Fixed composite-Simpson grid on [0, pi] used to assemble Galerkin matrix
# elements of multiplication operators; 4096 panels keeps assembly
# deterministic and accurate to well below the tolerances measured later.
SIMPSON_NODES = 4097

# Differences at or below this are treated as numerically zero when fitting
# the Hoelder exponent.
HOLDER_FLOOR = 1e-14


@dataclass(frozen=True)
class ScalarProfile:
    """Deterministic scalar modulation w(t) >= 0 on [0, T].

    Kinds:
      - ``power``:       w(t) = c * t**beta
      - ``linear``:      w(t) = c * t
      - ``weierstrass``: w(t) = c * sum_{k=0..terms} 2^{-beta k} (1 + cos(2^k pi t / T))

    The Weierstrass-type sum is smooth for finite ``terms`` but behaves like a
    Hoelder-beta function down to timescale ~2^-terms, which is what makes it
    a sharp test profile for rate measurements.
    """

    kind: str
    c: float = 1.0
    beta: float = 0.5
    terms: int = 12
    horizon: float = 1.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.c < 0.0:
            raise errors.NegativeCoefficientError(f"amplitude must be >= 0, got {self.c!r}")
        if self.kind != "linear" and not 0.0 < self.beta <= 1.0:
            raise ValueError(f"profile exponent must lie in (0, 1], got {self.beta!r}")
        if self.terms < 0:
            raise ValueError("terms must be >= 0")

    @property
    def holder_exponent(self) -> float:
        return 1.0 if self.kind == "linear" else float(self.beta)

    def integral(self, s: float, t: float) -> float:
        """Exact ``int_s^t w``, term by term for the Weierstrass sum."""
        if self.kind == "power":
            p = self.beta + 1.0
            return self.c * (t ** p - s ** p) / p
        if self.kind == "linear":
            return self.c * (t * t - s * s) / 2.0
        k = np.arange(self.terms + 1)
        omega = 2.0 ** k * (np.pi / self.horizon)
        parts = (t - s) + (np.sin(omega * t) - np.sin(omega * s)) / omega
        return self.c * float(2.0 ** (-self.beta * k) @ parts)

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        if self.kind == "power":
            vals = self.c * ts ** self.beta
        elif self.kind == "linear":
            vals = self.c * ts
        else:
            k = np.arange(self.terms + 1)
            weights = 2.0 ** (-self.beta * k)
            angles = np.multiply.outer(2.0 ** k * (np.pi / self.horizon), ts)
            vals = self.c * np.tensordot(weights, 1.0 + np.cos(angles), axes=1)
        if np.isscalar(t) or ts.ndim == 0:
            return float(vals)
        return vals


@dataclass(frozen=True)
class TimeDependentFamily:
    """The map t -> B(t) = b_const + w(t) b_mod on [0, T] with its declared regularity.

    ``declared_alpha`` is the fractional-power exponent for which
    ``B(t) A^{-alpha}`` is expected to stay bounded; ``declared_beta`` the
    Hoelder exponent of the sandwiched map.  ``b_const`` and ``b_mod`` are
    validated and symmetrised once, at construction.  Samplers are pure and
    reentrant: equal times give bit-identical matrices.
    """

    horizon: float
    dim: int
    declared_alpha: float
    declared_beta: float
    label: str
    profile: ScalarProfile
    b_const: np.ndarray
    b_mod: np.ndarray
    # (mu, Q) with b_mod = Q diag(mu) Q^T when b_const == 0, else None
    _mod_eig: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        for name in ("b_const", "b_mod"):
            mat = as_symmetric(getattr(self, name))
            if mat.shape != (self.dim, self.dim):
                raise ValueError(f"{name} must have shape {(self.dim, self.dim)}, got {mat.shape}")
            object.__setattr__(self, name, mat)
        if not self.b_const.any():
            object.__setattr__(self, "_mod_eig", np.linalg.eigh(self.b_mod))

    def _check_time(self, t) -> np.ndarray:
        """Times as an array clamped to [0, T]; outside it (beyond slack) or NaN raises."""
        ts = np.asarray(t, dtype=float)
        slack = 1e-9 * max(1.0, self.horizon)
        outside = ~((ts >= -slack) & (ts <= self.horizon + slack))
        if np.any(outside):
            raise errors.TimeOutOfRangeError(
                f"t={float(ts[outside][0])!r} outside [0, {self.horizon!r}]"
            )
        return np.clip(ts, 0.0, self.horizon)

    def sample(self, t: float) -> np.ndarray:
        return self.b_const + self.profile(self._check_time(t)) * self.b_mod

    def sample_batch(self, ts) -> np.ndarray:
        """Stack of samples, shape (len(ts), dim, dim)."""
        w = self.profile(self._check_time(ts))
        return self.b_const[None, :, :] + w[:, None, None] * self.b_mod[None, :, :]

    def factors(self, ts, tau: float) -> np.ndarray:
        """Stack of ``e^{-tau B(t)}`` over the times ``ts``; exact identities at ``tau == 0``.

        ``Q diag(e^{-tau w(t) mu}) Q^T`` from ``b_mod = Q diag(mu) Q^T`` when
        ``b_const == 0``, else one stacked ``eigh`` of the samples.
        """
        if tau < 0.0:
            raise errors.NegativeTimeError(f"semigroup time must be >= 0, got {tau!r}")
        ts = self._check_time(ts)
        if tau == 0.0:
            return np.tile(np.eye(self.dim), (ts.size, 1, 1))
        if self._mod_eig is not None:
            mu, q = self._mod_eig
            lam = np.multiply.outer(self.profile(ts), mu)
        else:
            lam, q = np.linalg.eigh(self.sample_batch(ts))
        return (q * np.exp(-float(tau) * lam)[:, None, :]) @ np.swapaxes(q, -1, -2)


def _affine_family(label, b_const, b_mod, declared_alpha, kind, horizon, c, beta, terms):
    """``b_const + w(t) b_mod`` with a menu profile ``w``, which sets the declared beta."""
    profile = ScalarProfile(kind, c=c, beta=beta, terms=terms, horizon=horizon)
    return TimeDependentFamily(
        horizon=horizon,
        dim=len(b_mod),
        declared_alpha=declared_alpha,
        declared_beta=profile.holder_exponent,
        label=f"{label}:{kind}",
        profile=profile,
        b_const=b_const,
        b_mod=b_mod,
    )


def make_scalar_family(
    kind: str,
    horizon: float = 1.0,
    c: float = 1.0,
    beta: float = 0.5,
    terms: int = 12,
) -> TimeDependentFamily:
    """Scalar (dim-1) family b(t) from the built-in profile menu."""
    return _affine_family("scalar", np.zeros((1, 1)), np.eye(1), 0.0, kind, horizon, c, beta, terms)


def make_synthetic_matrix_family(
    b0,
    b1,
    kind: str = "linear",
    horizon: float = 1.0,
    c: float = 1.0,
    beta: float = 0.5,
    terms: int = 12,
    declared_alpha: float = 0.0,
) -> TimeDependentFamily:
    """Family B(t) = B0 + w(t) B1 with PSD matrices and a menu profile."""
    family = _affine_family("synthetic", b0, b1, declared_alpha, kind, horizon, c, beta, terms)
    for name, mat in (("B0", family.b_const), ("B1", family.b_mod)):
        if mat.size and float(np.linalg.eigvalsh(mat)[0]) < -1e-10:
            raise errors.NotPSDError(f"{name} has an eigenvalue below -1e-10")
    return family


def sin_squared_potential(x):
    return np.sin(x) ** 2


def constant_potential(value: float = 1.0):
    def v(x):
        return np.full_like(np.asarray(x, dtype=float), float(value))

    return v


def zero_potential(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def make_heat1d_family(
    modes: int,
    potential: Callable[[np.ndarray], np.ndarray],
    horizon: float = 1.0,
    kind: str = "weierstrass",
    c: float = 1.0,
    beta: float = 0.5,
    terms: int = 12,
    declared_alpha: float = 0.75,
) -> tuple[SpectralOperator, TimeDependentFamily]:
    """Dirichlet heat generator on [0, pi] plus a separable potential family.

    In the orthonormal sine basis ``phi_k(x) = sqrt(2/pi) sin(kx)`` the
    negative Laplacian truncates to exactly ``diag(1, 4, ..., modes^2)``, so
    the generator-role spectrum condition holds with no shift.  The potential
    matrix ``G_kl = int v(x) phi_k phi_l dx`` is assembled by composite
    Simpson quadrature on a fixed grid, symmetrised, and its (tiny, purely
    numerical) negative eigenvalues are clipped at zero so every sample
    ``B(t) = w(t) G`` is PSD.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    lam = np.arange(1, modes + 1, dtype=float) ** 2
    a_op = SpectralOperator(lam, np.eye(modes), role=GENERATOR_ROLE)

    x = np.linspace(0.0, np.pi, SIMPSON_NODES)
    v = np.asarray(potential(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError("potential must map the grid to a same-shaped array")
    if float(v.min()) < -1e-12:
        raise errors.NegativePotentialError(
            f"potential dips to {v.min()!r}, below -1e-12"
        )
    weights = _simpson_weights(SIMPSON_NODES, np.pi / (SIMPSON_NODES - 1))
    phi = math.sqrt(2.0 / math.pi) * np.sin(
        np.multiply.outer(np.arange(1, modes + 1, dtype=float), x)
    )
    g = (phi * (weights * v)) @ phi.T
    g = 0.5 * (g + g.T)
    glam, gq = np.linalg.eigh(g)
    if float(glam[0]) < -1e-10:
        raise errors.NotPSDError("potential matrix not PSD beyond quadrature tolerance")
    g = (gq * np.clip(glam, 0.0, None)) @ gq.T

    return a_op, _affine_family(
        "heat1d", np.zeros((modes, modes)), g, declared_alpha, kind, horizon, c, beta, terms
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Measured assumption constants for one family at one alpha."""

    c_alpha_hat: float
    holder_l_hat: float
    holder_beta_hat: float
    fit_r2: float
    grid_size: int
    alpha_used: float
    slope_raw: float = 0.0
    beta_clipped: bool = False
    degenerate: bool = False


def _time_grid(family: TimeDependentFamily, grid_n: int) -> np.ndarray:
    return np.linspace(0.0, family.horizon, grid_n + 1)


def estimate_c_alpha(
    family: TimeDependentFamily,
    a_op: SpectralOperator,
    alpha: float,
    grid_n: int = 64,
) -> float:
    """Grid maximum of ``|B(t) A^{-alpha}|`` over the uniform time grid.

    Approximates the essential supremum; exact for the built-in families,
    whose maxima sit at grid endpoints.  Nonincreasing in alpha.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    return op_norm(family.sample_batch(_time_grid(family, grid_n)) @ a_op.frac_power(-alpha))


def sandwiched_difference_norms(
    family: TimeDependentFamily,
    a_op: SpectralOperator,
    alpha: float,
    grid_n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs ``|A^-a (B(t)-B(s)) A^-a| = |w(t)-w(s)| |A^-a b_mod A^-a|`` and gaps |t-s|."""
    ts = _time_grid(family, grid_n)
    a_neg = a_op.frac_power(-alpha)
    w = family.profile(ts)
    j, i = np.tril_indices(ts.size, -1)
    return np.abs(w[j] - w[i]) * op_norm(a_neg @ family.b_mod @ a_neg), ts[j] - ts[i]


def loglog_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through ``(log x, log y)``: ``(slope, intercept, r2)``.

    r2 is 0 when either centred sum of squares vanishes (the usual
    regression convention); identical x values raise ``DegenerateGridError``.
    """
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    dx, dy = lx - lx.mean(), ly - ly.mean()
    sxx, syy, sxy = dx @ dx, dy @ dy, dx @ dy
    if sxx == 0.0:
        raise errors.DegenerateGridError("cannot fit a line: all x values coincide")
    r = 0.0 if syy == 0.0 else min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0)
    slope = sxy / sxx
    return float(slope), float(ly.mean() - slope * lx.mean()), float(r * r)


def estimate_holder(
    family: TimeDependentFamily,
    a_op: SpectralOperator,
    alpha: float,
    grid_n: int = 64,
) -> AssumptionReport:
    """Least-squares Hoelder fit of the sandwiched difference envelope.

    For each grid gap |t-s| the seminorm only cares about the worst pair, so
    the regression runs on ``log max_{|t-s|=gap} |A^-a (B(t)-B(s)) A^-a|``
    against ``log gap`` (all pairs feed the maxima; fitting every pair
    directly would let the many well-separated, smoother pairs drown out the
    seminorm-active ones).  The slope is the Hoelder exponent estimate,
    clipped to (0, 1] with ``beta_clipped`` set when a Lipschitz profile
    pushes it past one.  A constant family reports (L=0, beta=1, r2=1) by
    convention with ``degenerate`` set.
    """
    if grid_n < 8:
        raise errors.DegenerateGridError(f"grid_n must be >= 8, got {grid_n}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    c_hat = estimate_c_alpha(family, a_op, alpha, grid_n)
    norms, gaps = sandwiched_difference_norms(family, a_op, alpha, grid_n)
    base_gap = family.horizon / grid_n
    steps = np.rint(gaps / base_gap).astype(int)
    envelope = np.zeros(grid_n + 1)
    np.maximum.at(envelope, steps, norms)
    gap_sizes = np.arange(grid_n + 1) * base_gap
    mask = envelope > HOLDER_FLOOR
    if not np.any(mask):
        return AssumptionReport(
            c_alpha_hat=c_hat,
            holder_l_hat=0.0,
            holder_beta_hat=1.0,
            fit_r2=1.0,
            grid_size=grid_n,
            alpha_used=alpha,
            degenerate=True,
        )
    slope, intercept, r2 = loglog_fit(gap_sizes[mask], envelope[mask])
    # at or past the Lipschitz boundary the exponent is a clamp, not a fit
    clipped = slope >= 1.0 - 1e-12
    beta_hat = min(max(slope, np.finfo(float).tiny), 1.0)
    return AssumptionReport(
        c_alpha_hat=c_hat,
        holder_l_hat=float(np.exp(intercept)),
        holder_beta_hat=beta_hat,
        fit_r2=r2,
        grid_size=grid_n,
        alpha_used=alpha,
        slope_raw=slope,
        beta_clipped=clipped,
    )


def holder_seminorm(
    family: TimeDependentFamily,
    a_op: SpectralOperator,
    alpha: float,
    beta: float,
    grid_n: int = 128,
) -> float:
    """Smallest L with ``|A^-a (B(t)-B(s)) A^-a| <= L |t-s|^beta`` on the grid.

    Unlike the fitted intercept of :func:`estimate_holder` this max-ratio
    form dominates every sampled pair, so it is safe to use inside explicit
    bound checks; it is also monotone nonincreasing in alpha.
    """
    norms, gaps = sandwiched_difference_norms(family, a_op, alpha, grid_n)
    if norms.size == 0:
        return 0.0
    return float(np.max(norms / gaps ** beta))
