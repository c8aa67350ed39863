"""Linear stability and dispersion analysis on q'' + w^2 q = -eps * q.

With V = (h w)^2 and z = h^2 * eps, the analysis matrix acting on
(q, h p) is, writing b_q, b_p for the scalar q/p weights, A for the raw
stage-coupling weights, N = I + z A, F0[i] = phi0(c_i^2 V) and
F1[i] = c_i phi1(c_i^2 V):

  S = [[phi0 - z b_q' N^-1 F0,  phi1 - z b_q' N^-1 F1],
       [-V phi1 - z b_p' N^-1 F0,  phi0 - z b_p' N^-1 F1]]

The stage coupling enters N unscaled.  The integrator's stage system
carries an extra c_i^2 factor on the coupling, so S reproduces the true
one-step propagator exactly at z = 0 and to first order in z; the two
differ at O(z^2), which is not small at z = O(1).  The unscaled
normalization is the one under which the dissipation and dispersion
measures below have their quoted leading orders (zeta^4 and zeta^3).

S is evaluated for a whole grid of V and z at once: the weights of every V
come from one call of coeffs.weights, the stage systems N(V, z) are solved
as one stack, and points where N is numerically singular (condition number
above 1e12) come back as NaN.  Spectral radii come from the closed-form
2x2 eigenvalues.  The scan orders points row-major in V then z.

The singularity test is screened so that most points need no SVD.  For
an s x s matrix, sigma_min >= |det N| / sigma_max^(s-1), hence

  cond_2(N) <= ||N||_F^s / |det N|,

which costs one LU determinant and one dot product.  A point whose bound
is at most 1e10 (a factor 100 below the 1e12 threshold, far more than
the round-off of either side for s <= 8) is cleared; every other point,
including those with a zero, NaN or infinite bound, goes to the SVD
condition number, so the screen never clears a point the SVD would flag.
On the default Gauss-2 scan only the one singular point reaches the SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lagrange as lg
from .coeffs import scalar_weight, weights  # noqa: F401 (perfbench/spans.py wraps it here)
from .errors import OutsidePeriodicityError, SingularStageSystemError
from .matfun import sinc

# |rho - 1| window used for the periodicity flag.
PERIODIC_RHO_TOL = 1e-9

# Reciprocal condition number below which N = I + zA is treated singular.
_SINGULAR_RCOND = 1e-12

# Condition bound ||N||_F^s / |det N| at or below which a point is cleared
# without an SVD; a margin of 100 below the threshold 1 / _SINGULAR_RCOND.
_SCREEN_BOUND = 1e10


@dataclass(frozen=True)
class StabilityMatrix:
    S: np.ndarray

    @property
    def trace(self) -> float:
        return float(self.S[0, 0] + self.S[1, 1])

    @property
    def det(self) -> float:
        return float(self.S[0, 0] * self.S[1, 1] - self.S[0, 1] * self.S[1, 0])

    @property
    def rho(self) -> float:
        return spectral_radius_2x2(self.trace, self.det)


def spectral_radius_2x2(trace, det):
    """Largest eigenvalue magnitude of real 2x2 matrices from (tr, det).

    Works elementwise on arrays; NaN inputs give NaN.
    """
    trace = np.asarray(trace, dtype=float)
    det = np.asarray(det, dtype=float)
    disc = trace * trace - 4.0 * det
    r = np.sqrt(np.maximum(disc, 0.0))
    real_pair = np.maximum(np.abs(trace + r), np.abs(trace - r)) / 2.0
    # where disc < 0, det > tr^2 / 4 >= 0; abs() only quiets sqrt on the
    # other rows.  A NaN disc takes real_pair, which keeps the NaN.
    out = np.where(disc < 0.0, np.sqrt(np.abs(det)), real_pair)
    return out[()] if out.ndim == 0 else out


def _singular(N: np.ndarray) -> np.ndarray:
    """cond_2(N) > 1 / _SINGULAR_RCOND for a stack of (s, s) matrices.

    The SVD runs only where the screen cond_2 <= ||N||_F^s / |det N| <=
    _SCREEN_BOUND fails; written as ~(bound <= limit), a NaN bound fails too.
    """
    flat = N.reshape(len(N), -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = np.vecdot(flat, flat) ** (0.5 * N.shape[-1]) / np.abs(np.linalg.det(N))
    unsure = ~(bound <= _SCREEN_BOUND)
    singular = np.zeros(len(N), dtype=bool)
    if unsure.any():
        singular[unsure] = np.linalg.cond(N[unsure]) > 1.0 / _SINGULAR_RCOND
    return singular


def _stability_batch(ns: lg.NodeSet, vs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """S(V, z) for every V in vs and z in zs as an (n_v * n_z, 2, 2) array,
    row-major in V then z, NaN where N is singular."""
    if np.count_nonzero(vs >= 0.0) < vs.size:
        raise ValueError(f"V must be >= 0, got {vs.min()}")
    s = ns.s
    lam = np.sqrt(vs)
    b_q, b_p, A = weights(ns, lam)
    # phi0 and phi1 at (c lam)^2 for c in ns.scales = (1, c_1, ..., c_s)
    cl = lam[:, None] * ns.scales
    cosines, sincs = np.cos(cl), sinc(cl)
    phi0, phi1 = cosines[:, 0], sincs[:, 0]
    F = np.array([cosines[:, 1:], ns.nodes * sincs[:, 1:]]).transpose(1, 0, 2)
    N = (np.eye(s) + zs[:, None, None] * A.transpose(2, 0, 1)[:, None]).reshape(-1, s, s)
    singular = _singular(N)
    if np.count_nonzero(singular):
        N[singular] = np.eye(s)  # solvable stand-in; those S become NaN
    # y[v, z, m] = N(V_v, z)^-1 F_m(V_v), one right-hand side per solve; with
    # vecdot over C-contiguous rows of b (a strided row sums in another
    # order) this matches the per-point solve and b @ y bit for bit
    y = np.linalg.solve(N.reshape(len(vs), len(zs), 1, s, s), F[:, None, :, :, None])[..., 0]
    b = np.array([b_q, b_p]).transpose(2, 0, 1).copy()
    by = np.vecdot(y[:, :, None], b[:, None, :, None])
    S0 = np.array([[phi0, phi1], [-vs * phi1, phi0]]).transpose(2, 0, 1)[:, None]
    S = (S0 - zs[:, None, None] * by).reshape(-1, 2, 2)
    S[singular] = np.nan
    return S


def _check_point(V: float, z: float) -> None:
    """ValueError naming V or z unless both are finite floats."""
    for name, value in (("V", V), ("z", z)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def stability_matrix(ns: lg.NodeSet, V: float, z: float) -> StabilityMatrix:
    """S(V, z) for the test equation; raises ValueError unless V and z are
    finite, SingularStageSystemError on a singular stage system."""
    _check_point(V, z)
    S = _stability_batch(ns, np.array([V]), np.array([z]))[0]
    if math.isnan(S[0, 0]):
        raise SingularStageSystemError(
            f"stage system singular at (V, z) = ({V:.6g}, {z:.6g})", V=V, z=z
        )
    return StabilityMatrix(S=S)


def check_scan_window(v_range, z_range, grid):
    """Validate a scan window; returns it as float pairs and an int pair.

    Raises ValueError unless every bound is finite, both V bounds are
    nonnegative and the grid is at least 2x2.
    """
    v_lo, v_hi = map(float, v_range)
    z_lo, z_hi = map(float, z_range)
    n_v, n_z = map(int, grid)
    if n_v < 2 or n_z < 2:
        raise ValueError(f"grid must be at least 2x2, got {n_v}x{n_z}")
    if not all(map(math.isfinite, (v_lo, v_hi, z_lo, z_hi))):
        raise ValueError(
            f"V and z ranges must be finite, got V {v_lo},{v_hi} and z {z_lo},{z_hi}"
        )
    if min(v_lo, v_hi) < 0.0:
        raise ValueError(f"V range must be nonnegative, got {v_lo},{v_hi}")
    return (v_lo, v_hi), (z_lo, z_hi), (n_v, n_z)


def scan_region(ns: lg.NodeSet, v_range, z_range, grid) -> np.ndarray:
    """Scan S over a (V, z) grid; rows ordered row-major in V then z.

    Returns an array with columns (V, z, rho, trace, det, stable,
    periodic).  Singular stage systems yield rho/trace/det = nan with
    both flags 0 instead of aborting the scan.  A window that
    check_scan_window rejects raises ValueError.
    """
    (v_lo, v_hi), (z_lo, z_hi), (n_v, n_z) = check_scan_window(v_range, z_range, grid)
    vs = np.linspace(v_lo, v_hi, n_v)
    zs = np.linspace(z_lo, z_hi, n_z)
    S = _stability_batch(ns, vs, zs)
    tr = S[:, 0, 0] + S[:, 1, 1]
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    rho = spectral_radius_2x2(tr, det)
    stable = rho < 1.0
    periodic = (np.abs(rho - 1.0) <= PERIODIC_RHO_TOL) & (tr * tr < 4.0 * det)
    return np.column_stack(
        [np.repeat(vs, n_z), np.tile(zs, n_v), rho, tr, det, stable, periodic]
    )


def dispersion_dissipation(ns: lg.NodeSet, V: float, z: float) -> tuple[float, float]:
    """Phase error zeta - arccos(tr / (2 sqrt(det))) and amplitude error
    1 - sqrt(det) at zeta = sqrt(V + z).

    Requires finite V and z (else ValueError), V + z > 0 and a
    periodic-regime S (det > 0 and |tr| <= 2 sqrt(det)); outside that an
    OutsidePeriodicityError is raised.
    """
    _check_point(V, z)
    if V + z <= 0.0:
        raise OutsidePeriodicityError(f"V + z must be > 0, got {V + z:.6g}")
    sm = stability_matrix(ns, V, z)
    tr, det = sm.trace, sm.det
    if det <= 0.0:
        raise OutsidePeriodicityError(f"det S = {det:.6g} <= 0 at (V, z)")
    root = math.sqrt(det)
    ratio = tr / (2.0 * root)
    if abs(ratio) > 1.0:
        raise OutsidePeriodicityError(
            f"|tr| / (2 sqrt(det)) = {abs(ratio):.6g} > 1: outside the periodicity regime"
        )
    zeta = math.sqrt(V + z)
    return zeta - math.acos(ratio), 1.0 - root
