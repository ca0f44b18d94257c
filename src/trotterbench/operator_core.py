"""Dense self-adjoint operator calculus backed by full eigendecompositions.

A symmetric matrix is diagonalised once into a :class:`SpectralOperator`;
fractional powers ``A^g = Q diag(l^g) Q^T`` and heat semigroups
``e^{-tau A} = Q diag(e^{-tau l}) Q^T`` are then exact functions of the
eigenvalues.  Everything is immutable and every operation is a pure function
of its inputs, so concurrent use needs no locking.  Desk scale only:
``diagonalize`` is O(dim^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors

# Relative tolerance for the symmetry check of input matrices.
SYMMETRY_RTOL = 1e-12

# Role tag for operators acting as the dominant generator; their spectrum
# must sit at or above one so that e^{-tau A} is a strict contraction.
GENERATOR_ROLE = "generator"
GENERIC_ROLE = "generic"


def as_symmetric(mat) -> np.ndarray:
    """Validate a square real symmetric matrix and return it symmetrised.

    Raises ``NotSymmetricError`` when the skew part exceeds
    ``SYMMETRY_RTOL * (1 + max|entry|)`` and ``NonFiniteError`` on NaN/inf.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise errors.NotSymmetricError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise errors.NonFiniteError("matrix has non-finite entries")
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    skew = float(np.abs(m - m.T).max(initial=0.0))
    if skew > SYMMETRY_RTOL * scale:
        raise errors.NotSymmetricError(
            f"asymmetry {skew:.3e} exceeds tolerance {SYMMETRY_RTOL * scale:.3e}"
        )
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SpectralOperator:
    """Self-adjoint operator stored by its eigendecomposition.

    ``eigenvalues`` ascend and the columns of ``eigenvectors`` form the
    matching orthonormal basis.  With ``role == GENERATOR_ROLE`` the spectrum
    must start at or above one.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    role: str = GENERIC_ROLE

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        q = np.asarray(self.eigenvectors, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", q)
        if lam.ndim != 1 or q.shape != (lam.size, lam.size):
            raise errors.EigendecompositionError("eigendecomposition shape mismatch")
        if np.any(np.diff(lam) < 0):
            raise errors.EigendecompositionError("eigenvalues must be nondecreasing")
        defect = float(np.abs(q.T @ q - np.eye(lam.size)).max())
        if defect > 1e-10:
            raise errors.EigendecompositionError(
                f"eigenvector matrix not orthonormal (defect {defect:.3e})"
            )
        if self.role == GENERATOR_ROLE and lam[0] < 1.0 - 1e-10:
            raise errors.SpectrumBelowOneError(
                f"generator spectrum starts at {lam[0]!r}, below 1"
            )

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def to_matrix(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T

    def frac_power(self, gamma: float) -> np.ndarray:
        """``Q diag(l^gamma) Q^T``; gamma may be negative.

        Requires a strictly positive spectrum.  ``gamma == 0`` returns the
        exact identity.
        """
        if self.eigenvalues[0] <= 0.0:
            raise errors.NonPositiveSpectrumError(
                f"fractional power needs eigenvalues > 0, found {self.eigenvalues[0]!r}"
            )
        if gamma == 0.0:
            return np.eye(self.dim)
        powers = self.eigenvalues ** float(gamma)
        return (self.eigenvectors * powers) @ self.eigenvectors.T

    def semigroup(self, tau: float) -> np.ndarray:
        """Heat semigroup ``e^{-tau A}``; ``tau == 0`` is the exact identity."""
        if tau < 0.0:
            raise errors.NegativeTimeError(f"semigroup time must be >= 0, got {tau!r}")
        if tau == 0.0:
            return np.eye(self.dim)
        decay = np.exp(-float(tau) * self.eigenvalues)
        return (self.eigenvectors * decay) @ self.eigenvectors.T


def diagonalize(mat, role: str = GENERIC_ROLE) -> SpectralOperator:
    """Diagonalise a symmetric matrix into a :class:`SpectralOperator`.

    With ``role == GENERATOR_ROLE`` the smallest eigenvalue must be >= 1,
    otherwise ``SpectrumBelowOneError`` is raised.
    """
    m = as_symmetric(mat)
    lam, q = np.linalg.eigh(m)
    return SpectralOperator(lam, q, role=role)


def scalar_operator(value: float = 1.0, role: str = GENERATOR_ROLE) -> SpectralOperator:
    """One-dimensional operator, handy for scalar test problems."""
    return SpectralOperator(np.array([float(value)]), np.eye(1), role=role)


def op_norm(mat) -> float:
    """Spectral norm of a real matrix; of a ``(..., d, d)`` stack, its largest one."""
    m = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(m)):
        raise errors.NonFiniteError("matrix has non-finite entries")
    return float(np.linalg.svd(m, compute_uv=False).max())


def sym_expm_neg(mat, tau: float) -> np.ndarray:
    """``e^{-tau M}`` for a symmetric matrix M, by eigendecomposition.

    ``tau == 0`` returns the exact identity.  Split products form their
    factors through ``TimeDependentFamily.factors``; this is the reference.
    """
    if tau < 0.0:
        raise errors.NegativeTimeError(f"semigroup time must be >= 0, got {tau!r}")
    m = as_symmetric(mat)
    if tau == 0.0:
        return np.eye(m.shape[0])
    lam, q = np.linalg.eigh(m)
    return (q * np.exp(-float(tau) * lam)) @ q.T
