"""Trigonometric matrix function pairs phi0, phi1.

phi0(A) = sum_{l>=0} (-A)^l / (2l)!   and   phi1(A) = sum_{l>=0} (-A)^l / (2l+1)!

so that phi0(x**2) = cos(x) and phi1(x**2) = sin(x)/x.  Two evaluation
paths are provided: a truncated power series for general square matrices
and an eigendecomposition path for symmetric positive semi-definite ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMatrixError, IndefiniteMatrixError, SeriesConvergenceError

# Above this infinity-norm the alternating series loses too many digits;
# callers must reduce the step instead.
SERIES_NORM_GUARD = 30.0

SERIES_MAX_TERMS = 200

# A phi series stops once its newest term is below this, relative to the sum.
SERIES_TOL = 1e-14

# Relative tolerance of the one symmetry test that picks the coefficient path.
SYMMETRY_TOL = 1e-12

# Taylor switchover for sin(x)/x.
_SINC_SWITCH = 1e-4


@dataclass(frozen=True, eq=False)
class PhiPair:
    """phi0 and phi1 evaluated at the same matrix argument."""

    phi0: np.ndarray
    phi1: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Factorization M = transform.T @ diag(freqs**2) @ transform.

    ``freqs`` are the nonnegative frequencies sqrt(eig(M)); ``transform``
    has orthonormal rows (it is Q.T for eigh's Q).
    """

    transform: np.ndarray
    freqs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.freqs)


def sinc(x):
    """sin(x)/x with a 4-term Taylor branch near zero (array-safe)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_SWITCH
    x_safe = np.where(small, 1.0, x)
    x2 = x * x
    taylor = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    out = np.where(small, taylor, np.sin(x_safe) / x_safe)
    return out[()] if out.ndim == 0 else out


def phi_pair_series(A: np.ndarray) -> PhiPair:
    """Evaluate (phi0(A), phi1(A)) by the shared alternating power ladder.

    Terms are added until the newest term's max-norm drops below
    SERIES_TOL * (1 + running-sum norm) for both series.  Raises
    SeriesConvergenceError if ||A||_inf exceeds SERIES_NORM_GUARD or the
    term budget runs out.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got shape {A.shape}")
    norm_a = np.abs(A).sum(axis=1).max() if A.size else 0.0
    if norm_a > SERIES_NORM_GUARD:
        raise SeriesConvergenceError(
            f"||A||_inf = {norm_a:.3g} exceeds the series guard {SERIES_NORM_GUARD};"
            " reduce the step so that ||h^2 M||_inf stays within the guard"
        )
    d = A.shape[0]
    term = np.eye(d)
    phi0 = term / math.factorial(0)
    phi1 = term / math.factorial(1)
    for l in range(1, SERIES_MAX_TERMS + 1):
        term = term @ (-A)
        t0 = term / math.factorial(2 * l)
        t1 = term / math.factorial(2 * l + 1)
        phi0 = phi0 + t0
        phi1 = phi1 + t1
        done0 = np.abs(t0).max() < SERIES_TOL * (1.0 + np.abs(phi0).max())
        if done0 and np.abs(t1).max() < SERIES_TOL * (1.0 + np.abs(phi1).max()):
            return PhiPair(phi0=phi0, phi1=phi1)
    raise SeriesConvergenceError(
        f"phi series did not converge within {SERIES_MAX_TERMS} terms"
    )


def is_symmetric(M: np.ndarray) -> bool:
    """max |M - M^T| within SYMMETRY_TOL relative to max(1, max |M|)."""
    return bool(np.abs(M - M.T).max() <= SYMMETRY_TOL * max(1.0, np.abs(M).max()))


def decompose_symmetric(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric PSD matrix into frequencies and transform.

    Eigenvalues in [-1e-10 * ||M||, 0) are clamped to zero; anything more
    negative raises IndefiniteMatrixError.  Input that fails is_symmetric
    raises AsymmetricMatrixError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"square matrix required, got shape {M.shape}")
    if not is_symmetric(M):
        raise AsymmetricMatrixError(
            "matrix is not symmetric; use the series coefficient path instead"
        )
    scale = np.abs(M).max()
    w, Q = np.linalg.eigh(M)
    floor = -1e-10 * max(scale, 1e-300)
    if np.any(w < floor):
        raise IndefiniteMatrixError(
            f"eigenvalue {w.min():.6g} below PSD clamp tolerance {floor:.3g}"
        )
    w = np.clip(w, 0.0, None)
    return SpectralDecomposition(transform=Q.T.copy(), freqs=np.sqrt(w))


def phi_pair_spectral(sd: SpectralDecomposition, scale: float) -> PhiPair:
    """(phi0, phi1) of scale**2 * M assembled from the decomposition of M.

    Diagonal entries are cos(scale * freq) and sinc(scale * freq).
    """
    Q = sd.transform.T
    x = scale * sd.freqs
    phi0 = (Q * np.cos(x)) @ sd.transform
    phi1 = (Q * sinc(x)) @ sd.transform
    return PhiPair(phi0=phi0, phi1=phi1)
