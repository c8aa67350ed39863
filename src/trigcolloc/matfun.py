"""Matrix functions lifted from scalar rows, on two paths.

lift maps rows over the frequencies of symmetric PSD M to Q diag(row) Q^T
in one stacked product; power_series maps rows of Taylor coefficients to
sum_l coefs[r, l] (-A)^l, any square A, in one power ladder.  Their two-row
cases are phi_pair_spectral and phi_pair_series, with phi0(A) = sum_l
(-A)^l / (2l)! and phi1(A) = sum_l (-A)^l / (2l+1)!, so that phi0(x**2) =
cos(x) and phi1(x**2) = sin(x)/x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMatrixError, IndefiniteMatrixError, SeriesConvergenceError

# Above this infinity-norm the alternating series loses too many digits;
# callers must reduce the step instead.
SERIES_NORM_GUARD = 30.0

# Term budget of every series; within the guard a phi series stops by its 21st term.
SERIES_MAX_TERMS = 32

# A series stops at the second of two successive terms below this.
SERIES_TOL = 1e-16

# Relative tolerance of the one symmetry test that picks the coefficient path.
SYMMETRY_TOL = 1e-12

# Taylor switchover for sin(x)/x.
_SINC_SWITCH = 1e-4

# 1/(2l)! and 1/(2l+1)!: the Taylor rows of phi0 and phi1.
_PHI_COEFS = np.array([[1.0 / math.factorial(2 * l + k) for l in range(SERIES_MAX_TERMS)]
                       for k in (0, 1)])


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Factorization M = transform.T @ diag(freqs**2) @ transform.

    ``freqs`` are the nonnegative frequencies sqrt(eig(M)); ``transform``
    has orthonormal rows (it is Q.T for eigh's Q).
    """

    transform: np.ndarray
    freqs: np.ndarray


def sinc(x):
    """sin(x)/x with a 4-term Taylor branch near zero (array-safe)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_SWITCH
    if not small.any():
        return np.sin(x) / x
    x_safe = np.where(small, 1.0, x)
    x2 = x * x
    taylor = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    out = np.where(small, taylor, np.sin(x_safe) / x_safe)
    return out[()] if out.ndim == 0 else out


def lift(sd: SpectralDecomposition, rows) -> np.ndarray:
    """Q diag(row) Q^T for every row of a (..., d) stack, as (..., d, d).

    One stacked product rounds as a 2-D product per row would.
    """
    return (sd.transform.T * np.asarray(rows)[..., None, :]) @ sd.transform


def power_series(A: np.ndarray, coefs) -> np.ndarray:
    """sum_l coefs[r, l] (-A)^l for every row r of an (R, L) table, as (R, d, d).

    Stops at the second of two successive terms whose largest entry is below
    SERIES_TOL.  Raises ValueError unless A is square, SeriesConvergenceError
    if ||A||_inf exceeds SERIES_NORM_GUARD or the L terms run out first.
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
    out = np.zeros((len(coefs),) + A.shape)
    term, below = np.eye(len(A)), 0
    for l in range(coefs.shape[1]):
        if l:
            term = term @ (-A)
        column = coefs[:, l]
        out += column[:, None, None] * term
        # max |coefs[r, l] term| over the stack, without scanning it
        below = below + 1 if np.abs(column).max() * np.abs(term).max() < SERIES_TOL else 0
        if below == 2:
            return out
    raise SeriesConvergenceError(f"power series did not converge within {coefs.shape[1]} terms")


def phi_pair_series(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi0(A), phi1(A)) by power_series, for any square A within the guard."""
    return tuple(power_series(A, _PHI_COEFS))


def phi_pair_spectral(sd: SpectralDecomposition, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi0, phi1) of scale**2 * M by lift: cos and sinc of scale * freqs."""
    x = scale * sd.freqs
    return tuple(lift(sd, [np.cos(x), sinc(x)]))


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
