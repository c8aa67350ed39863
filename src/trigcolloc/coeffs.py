"""Weight kernels and coefficient tables for the collocation update.

The one-step map needs two families of integrals over [0, 1], with V = h^2 M:

  q and stage, scale c:  int l_j(c z) (1-z) phi1((1-z)^2 c^2 V) dz
  p (momentum update):   int l_j(z) phi0((1-z)^2 V) dz

The stage coupling takes c = c_i, and the position (q) update is the same
integral at c = 1.  Each evaluator codes it once, at the kind's scale: with
c = 1.0 every product and cosine rounds as a q-only formula would, so a
stage weight at a node c_i = 1 equals the q weight bit for bit.

For symmetric PSD M each integral diagonalizes into scalar kernels per
frequency, with two branches on the effective argument c * lam: an
integration-by-parts closed form (large argument) and a power series in the
squared frequency from exact basis moments (small argument; at lam = 0 it
is the exact polynomial limit).  Adaptive quadrature of the defining
integral is the cross-check oracle.

The closed forms follow from repeated integration by parts.  For a basis
polynomial l of degree <= s-1 and lam > 0, writing C = cos(c lam) and
S = sin(c lam), with c = 1 for p:

  q, stage:  sum_k (-1)^k (c^2 lam^(2k+2))^(-1)
                 [l^(2k)(c) - l^(2k)(0) C - l^(2k+1)(0) S / lam]
  p:         sum_k (-1)^k lam^(-2k-1) [l^(2k)(0) S + (l^(2k+1)(1) - l^(2k+1)(0) C) / lam]

The factor c^-2 is what is left of the prefactor once the chain-rule
factors c^(2k) of z -> l(c z) cancel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import lagrange as lg
from .errors import KernelBranchError, SeriesConvergenceError
from .matfun import (
    PhiPair,
    SpectralDecomposition,
    decompose_symmetric,
    is_symmetric,
    phi_pair_series,
    phi_pair_spectral,
    sinc,
    SERIES_NORM_GUARD,
)

# Switchover between the series branch (at or below) and the by-parts
# branch (above), applied to the effective oscillation argument c * lam.
LAMBDA_SWITCH = 0.5

SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 200

QUAD_TOL = 1e-13


class WeightKind(enum.Enum):
    Q = "q"
    P = "p"
    STAGE = "stage"


def _scale_and_row(ns: lg.NodeSet, kind: WeightKind, j: int, i) -> tuple[float, int]:
    """The kind's scale c and the row of the point z = c in ns.derivative_values:
    (1.0, 1) for q and p, (c_i, 2 + i) for stage i.  Raises IndexError unless
    0 <= j, i < s, and ValueError for a stage kind without i."""
    if not 0 <= j < ns.s:
        raise IndexError(f"basis index {j} out of range for s={ns.s}")
    if kind is not WeightKind.STAGE:
        return 1.0, 1
    if i is None:
        raise ValueError("stage kind requires the stage index i")
    if not 0 <= i < ns.s:
        raise IndexError(f"stage index {i} out of range for s={ns.s}")
    return ns.nodes[i], 2 + i


def series_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam_sq: float, i=None) -> float:
    """Power series in the squared frequency, from exact basis moments.

    q and stage kinds, at scale c: sum_l (-c^2 lam^2)^l m(j, 2l+1; c) / (2l+1)!
    p-kind:                        sum_l (-lam^2)^l m(j, 2l; 1) / (2l)!

    where m(j, k; c) = int l_j(c z) (1-z)^k dz.  At lam = 0 every term
    after the first is a signed zero, so the first term is the exact limit.
    """
    if lam_sq < 0.0:
        raise ValueError(f"squared frequency must be >= 0, got {lam_sq}")
    scale, _ = _scale_and_row(ns, kind, j, i)
    x = scale * scale * lam_sq
    parity = 0 if kind is WeightKind.P else 1
    if x > SERIES_NORM_GUARD:
        raise SeriesConvergenceError(
            f"squared argument {x:.3g} exceeds the series guard {SERIES_NORM_GUARD}"
        )
    total = 0.0
    power = 1.0
    below = 0
    for l in range(SERIES_MAX_TERMS):
        m = 2 * l + parity
        term = power * lg.weighted_moment(ns, j, m, scale=scale) / math.factorial(m)
        total += term
        if abs(term) < SERIES_REL_TOL * (1.0 + abs(total)):
            below += 1
            if below >= 2:
                return total
        else:
            below = 0
        power *= -x
        if not power:  # every later term is a signed zero: the sum is final
            return total
    raise SeriesConvergenceError(
        f"weight series did not converge within {SERIES_MAX_TERMS} terms"
    )


def recursion_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam: float, i=None) -> float:
    """Integration-by-parts closed form; valid above LAMBDA_SWITCH only."""
    scale, row = _scale_and_row(ns, kind, j, i)
    eff = scale * lam
    if eff <= LAMBDA_SWITCH:
        raise KernelBranchError(
            f"effective argument {eff:.3g} is at or below the switch "
            f"{LAMBDA_SWITCH}; use the series branch"
        )
    # derivative values at 0 and at the kind's point c from the node set's
    # cached table; the (2k+1)-th derivative vanishes once 2k+1 reaches s
    s_count = ns.s
    values = ns.derivative_values
    at_0, at_c = values[0, j], values[row, j]
    c, s = math.cos(eff), math.sin(eff)
    total, sign = 0.0, 1.0
    if kind is WeightKind.P:
        for k in range(0, s_count, 2):
            if k + 1 < s_count:
                d_odd_1, d_odd_0 = at_c[k + 1], at_0[k + 1]
            else:
                d_odd_1 = d_odd_0 = 0.0
            total += sign * (at_0[k] * s + (d_odd_1 - d_odd_0 * c) / lam) / lam ** (k + 1)
            sign = -sign
        return total
    for k in range(0, s_count, 2):
        d_odd_0 = at_0[k + 1] if k + 1 < s_count else 0.0
        total += sign * (at_c[k] - at_0[k] * c - d_odd_0 * s / lam) / (
            scale * scale * lam ** (k + 2)
        )
        sign = -sign
    return total


def scalar_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam: float, i=None) -> float:
    """Branch dispatcher on the effective oscillation argument c * lam."""
    if lam < 0.0:
        raise ValueError(f"frequency must be >= 0, got {lam}")
    scale, _ = _scale_and_row(ns, kind, j, i)
    if scale * lam <= LAMBDA_SWITCH:
        return series_weight(ns, kind, j, lam * lam, i)
    return recursion_weight(ns, kind, j, lam, i)


def quadrature_weight(ns: lg.NodeSet, kind: WeightKind, j: int, v: float, i=None) -> float:
    """Adaptive-quadrature oracle for the defining integral at V = v >= 0."""
    from scipy.integrate import quad  # slow to import; only the oracle needs it

    if v < 0.0:
        raise ValueError(f"squared frequency must be >= 0, got {v}")
    scale, _ = _scale_and_row(ns, kind, j, i)
    lam = math.sqrt(v)
    if kind is WeightKind.P:
        f = lambda z: lg.eval_basis(ns, j, z) * math.cos((1.0 - z) * lam)
    else:
        f = lambda z: lg.eval_basis(ns, j, scale * z) * (1.0 - z) * sinc((1.0 - z) * scale * lam)
    value, _ = quad(f, 0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return value


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """All step coefficients for one (nodes, M, h) combination.

    Raw weight matrices keep the defining-integral normalization.  The
    one-step map is applied through four flat operators built from them,
    acting on y = [q; p] (length 2d) and on the stacked stage forces
    F = [f_1; ...; f_s] (length s*d):

      predictor     (s*d, 2d)   block row i:    [phi0(c_i^2 V) | c_i h phi1(c_i^2 V)]
      stage_matrix  (s*d, s*d)  block (i, j):   (c_i h)^2 stage_weights[i, j]
      propagator    (2d, 2d)    [[phi0, h phi1], [-h M phi1, phi0]] at V = h^2 M
      force_matrix  (2d, s*d)   block column j: [h^2 weights_q[j]; h weights_p[j]]

    ``stage_offsets`` is the (s, 1) column c_i h, so a step from t
    evaluates its stage forces at the times t + stage_offsets.  The phi
    pairs are init-only: phi_main = (phi0, phi1)(V) enters only the
    propagator and phi_stage[i] = (phi0, phi1)(c_i^2 V) only the
    predictor, and neither is kept.  So is p_block, the propagator's
    -h M phi1(V) block, which each path forms its own way: the series path
    as the product -h * (M @ phi1), the spectral path as
    Q diag(-w sin(h w)) Q^T, whose round-off does not grow with ||M||.
    Tables are immutable; reuse one per (nodes, M, h).
    """

    node_set: lg.NodeSet
    M: np.ndarray
    h: float
    path: str
    weights_q: np.ndarray
    weights_p: np.ndarray
    stage_weights: np.ndarray
    phi_main: InitVar[PhiPair]
    phi_stage: InitVar[tuple]
    p_block: InitVar[np.ndarray]
    predictor: np.ndarray = field(init=False)
    stage_matrix: np.ndarray = field(init=False)
    propagator: np.ndarray = field(init=False)
    force_matrix: np.ndarray = field(init=False)
    stage_offsets: np.ndarray = field(init=False)

    def __post_init__(self, phi_main, phi_stage, p_block):
        h = self.h
        c = self.node_set.nodes
        s, d = self.node_set.s, self.dim
        predictor = np.block(
            [[pair.phi0, (ci * h) * pair.phi1] for ci, pair in zip(c, phi_stage)]
        )
        scale = (c * h) ** 2
        stage_matrix = (scale[:, None, None, None] * self.stage_weights).transpose(
            0, 2, 1, 3
        ).reshape(s * d, s * d)
        phi0, phi1 = phi_main.phi0, phi_main.phi1
        propagator = np.block([[phi0, h * phi1], [p_block, phi0]])
        force_matrix = np.concatenate(
            [
                (h * h * self.weights_q).transpose(1, 0, 2).reshape(d, s * d),
                (h * self.weights_p).transpose(1, 0, 2).reshape(d, s * d),
            ]
        )
        object.__setattr__(self, "predictor", predictor)
        object.__setattr__(self, "stage_matrix", stage_matrix)
        object.__setattr__(self, "propagator", propagator)
        object.__setattr__(self, "force_matrix", force_matrix)
        object.__setattr__(self, "stage_offsets", (c * h)[:, None])

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def build_table_spectral(ns: lg.NodeSet, sd: SpectralDecomposition, h: float) -> CoefficientTable:
    """Assemble the table through the eigendecomposition of symmetric M."""
    if h <= 0.0:
        raise ValueError(f"step size must be > 0, got {h}")
    s, d = ns.s, sd.dim
    Q = sd.transform.T
    x = h * sd.freqs

    def assemble(kind, j, i=None):
        vals = np.array([scalar_weight(ns, kind, j, xk, i) for xk in x])
        return (Q * vals) @ sd.transform

    weights_q = np.stack([assemble(WeightKind.Q, j) for j in range(s)])
    weights_p = np.stack([assemble(WeightKind.P, j) for j in range(s)])
    stage = np.stack(
        [
            np.stack([assemble(WeightKind.STAGE, j, i) for j in range(s)])
            for i in range(s)
        ]
    )
    M = (Q * sd.freqs**2) @ sd.transform
    phi_main = phi_pair_spectral(sd, h)
    phi_stage = tuple(phi_pair_spectral(sd, ci * h) for ci in ns.nodes)
    # -h M phi1(h^2 M) = Q diag(-w sin(h w)) Q^T
    p_block = (Q * (-sd.freqs * np.sin(x))) @ sd.transform
    return CoefficientTable(
        node_set=ns, M=M, h=h, path="spectral",
        weights_q=weights_q, weights_p=weights_p, stage_weights=stage,
        phi_main=phi_main, phi_stage=phi_stage, p_block=p_block,
    )


def build_table_series(ns: lg.NodeSet, M: np.ndarray, h: float) -> CoefficientTable:
    """Assemble the table by matrix power series in V = h^2 M.

    Requires ||V||_inf within the series guard; works for any square M,
    symmetric or not.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be > 0, got {h}")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"square matrix required, got shape {M.shape}")
    V = h * h * M
    norm_v = np.abs(V).sum(axis=1).max() if V.size else 0.0
    if norm_v > SERIES_NORM_GUARD:
        raise SeriesConvergenceError(
            f"||h^2 M||_inf = {norm_v:.3g} exceeds the series guard "
            f"{SERIES_NORM_GUARD}; reduce h"
        )
    s, d = ns.s, M.shape[0]
    weights_q = np.zeros((s, d, d))
    weights_p = np.zeros((s, d, d))
    stage = np.zeros((s, s, d, d))
    # the q row is one more pass of the stage loop, at scale c = 1
    q_and_stage = [(1.0, weights_q)] + list(zip(ns.nodes, stage))
    term = np.eye(d)
    below = 0
    for l in range(SERIES_MAX_TERMS):
        f_odd = float(math.factorial(2 * l + 1))
        f_even = float(math.factorial(2 * l))
        added = 0.0
        for j in range(s):
            tp = (lg.weighted_moment(ns, j, 2 * l) / f_even) * term
            weights_p[j] += tp
            added = max(added, np.abs(tp).max())
            for c, out in q_and_stage:
                ts = (
                    c ** (2 * l) * lg.weighted_moment(ns, j, 2 * l + 1, scale=c) / f_odd
                ) * term
                out[j] += ts
                added = max(added, np.abs(ts).max())
        scale = 1.0 + max(np.abs(weights_q).max(), np.abs(weights_p).max())
        if added < SERIES_REL_TOL * scale:
            below += 1
            if below >= 2:
                break
        else:
            below = 0
        term = term @ (-V)
    else:
        raise SeriesConvergenceError(
            f"coefficient series did not converge within {SERIES_MAX_TERMS} terms"
        )
    phi_main = phi_pair_series(V)
    phi_stage = tuple(phi_pair_series((ci * ci) * V) for ci in ns.nodes)
    return CoefficientTable(
        node_set=ns, M=M, h=h, path="series",
        weights_q=weights_q, weights_p=weights_p, stage_weights=stage,
        phi_main=phi_main, phi_stage=phi_stage, p_block=-h * (M @ phi_main.phi1),
    )


def build_table(ns: lg.NodeSet, M: np.ndarray, h: float, path: str = "auto") -> CoefficientTable:
    """Build a table, picking the spectral path for symmetric PSD M.

    path: "auto" | "spectral" | "series".
    """
    M = np.asarray(M, dtype=float)
    if path not in ("auto", "spectral", "series"):
        raise ValueError(f"unknown path {path!r}")
    if path == "spectral" or (path == "auto" and is_symmetric(M)):
        return build_table_spectral(ns, decompose_symmetric(M), h)
    return build_table_series(ns, M, h)
