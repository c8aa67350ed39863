"""Weight kernels and coefficient tables for the collocation update.

The one-step map needs three families of integrals over [0, 1], one per
weight kind:

  q (position update):   int l_j(z) (1-z) phi1((1-z)^2 V) dz
  p (momentum update):   int l_j(z) phi0((1-z)^2 V) dz
  stage (coupling):      int l_j(c_i z) (1-z) phi1((1-z)^2 c_i^2 V) dz

with V = h^2 M.  For symmetric PSD M each integral diagonalizes into
scalar kernels per frequency; those scalars have two evaluation branches:
an integration-by-parts closed form (accurate for large argument) and a
power series in the squared frequency built from exact basis moments
(accurate for small argument).  A third, slower path, adaptive quadrature
of the defining integral, serves as the cross-check oracle.

The closed forms follow from repeated integration by parts.  For a basis
polynomial l of degree <= s-1 and lam > 0 (writing c = cos lam, s = sin lam):

  q-kind:  sum_k (-1)^k lam^(-2k-2) [l^(2k)(1) - l^(2k)(0) c - l^(2k+1)(0) s / lam]
  p-kind:  sum_k (-1)^k lam^(-2k-1) [l^(2k)(0) s + (l^(2k+1)(1) - l^(2k+1)(0) c) / lam]

and the stage kind is the q-kind applied to z -> l(c_i z) at frequency
c_i * lam, whose chain-rule factors c_i^(2k) cancel part of the prefactor:

  stage:   sum_k (-1)^k (c_i^2 lam^(2k+2))^(-1)
               [l^(2k)(c_i) - l^(2k)(0) cos(c_i lam) - l^(2k+1)(0) sin(c_i lam) / lam]
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
# branch (above), applied to the effective oscillation argument.
LAMBDA_SWITCH = 0.5

SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 200

QUAD_TOL = 1e-13


class WeightKind(enum.Enum):
    Q = "q"
    P = "p"
    STAGE = "stage"


def _effective_argument(ns: lg.NodeSet, kind: WeightKind, lam: float, i) -> float:
    if kind is WeightKind.STAGE:
        if i is None:
            raise ValueError("stage kind requires the stage index i")
        return lam * ns.nodes[i]
    return lam


def zero_freq_weight(ns: lg.NodeSet, kind: WeightKind, j: int, i=None) -> float:
    """Exact polynomial limit of the weight integral at zero frequency."""
    if kind is WeightKind.Q:
        return lg.weighted_moment(ns, j, 1)
    if kind is WeightKind.P:
        return lg.weighted_moment(ns, j, 0)
    if i is None:
        raise ValueError("stage kind requires the stage index i")
    return lg.weighted_moment(ns, j, 1, scale=ns.nodes[i])


def series_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam_sq: float, i=None) -> float:
    """Power series in the squared frequency, from exact basis moments.

    q-kind:     sum_l (-lam^2)^l m(j, 2l+1) / (2l+1)!
    p-kind:     sum_l (-lam^2)^l m(j, 2l)   / (2l)!
    stage-kind: sum_l (-c_i^2 lam^2)^l mt(i, j, 2l+1) / (2l+1)!

    where m(j, k) = int l_j(z) (1-z)^k dz and mt uses l_j(c_i z).
    """
    if lam_sq < 0.0:
        raise ValueError(f"squared frequency must be >= 0, got {lam_sq}")
    if kind is WeightKind.STAGE:
        if i is None:
            raise ValueError("stage kind requires the stage index i")
        scale = ns.nodes[i]
        x = scale * scale * lam_sq
        parity = 1
    else:
        scale = 1.0
        x = lam_sq
        parity = 1 if kind is WeightKind.Q else 0
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
    raise SeriesConvergenceError(
        f"weight series did not converge within {SERIES_MAX_TERMS} terms"
    )


def recursion_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam: float, i=None) -> float:
    """Integration-by-parts closed form; valid above LAMBDA_SWITCH only."""
    eff = _effective_argument(ns, kind, lam, i)
    if eff <= LAMBDA_SWITCH:
        raise KernelBranchError(
            f"effective argument {eff:.3g} is at or below the switch "
            f"{LAMBDA_SWITCH}; use the series branch"
        )
    # derivative values at 0, 1 and c_i from the node set's cached table;
    # the (2k+1)-th derivative vanishes once 2k+1 reaches s
    s_count = ns.s
    if not 0 <= j < s_count or (i is not None and not 0 <= i < s_count):
        raise IndexError(f"basis index {j} or stage index {i} out of range for s={s_count}")
    values = ns.derivative_values
    at_0 = values[0, j]
    total, sign = 0.0, 1.0
    if kind is WeightKind.Q:
        at_1 = values[1, j]
        c, s = math.cos(lam), math.sin(lam)
        for k in range(0, s_count, 2):
            d_odd_0 = at_0[k + 1] if k + 1 < s_count else 0.0
            total += sign * (at_1[k] - at_0[k] * c - d_odd_0 * s / lam) / lam ** (k + 2)
            sign = -sign
        return total
    if kind is WeightKind.P:
        at_1 = values[1, j]
        c, s = math.cos(lam), math.sin(lam)
        for k in range(0, s_count, 2):
            if k + 1 < s_count:
                d_odd_1, d_odd_0 = at_1[k + 1], at_0[k + 1]
            else:
                d_odd_1 = d_odd_0 = 0.0
            total += sign * (at_0[k] * s + (d_odd_1 - d_odd_0 * c) / lam) / lam ** (k + 1)
            sign = -sign
        return total
    at_c = values[2 + i, j]
    ci = ns.nodes[i]
    c, s = math.cos(ci * lam), math.sin(ci * lam)
    for k in range(0, s_count, 2):
        d_odd_0 = at_0[k + 1] if k + 1 < s_count else 0.0
        total += sign * (at_c[k] - at_0[k] * c - d_odd_0 * s / lam) / (
            ci * ci * lam ** (k + 2)
        )
        sign = -sign
    return total


def scalar_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam: float, i=None) -> float:
    """Branch dispatcher on the effective oscillation argument."""
    if lam < 0.0:
        raise ValueError(f"frequency must be >= 0, got {lam}")
    eff = _effective_argument(ns, kind, lam, i)
    if eff == 0.0:
        return zero_freq_weight(ns, kind, j, i)
    if eff <= LAMBDA_SWITCH:
        return series_weight(ns, kind, j, lam * lam, i)
    return recursion_weight(ns, kind, j, lam, i)


def quadrature_weight(ns: lg.NodeSet, kind: WeightKind, j: int, v: float, i=None) -> float:
    """Adaptive-quadrature oracle for the defining integral at V = v >= 0."""
    from scipy.integrate import quad  # slow to import; only the oracle needs it

    if v < 0.0:
        raise ValueError(f"squared frequency must be >= 0, got {v}")
    lam = math.sqrt(v)
    if kind is WeightKind.Q:
        f = lambda z: lg.eval_basis(ns, j, z) * (1.0 - z) * sinc((1.0 - z) * lam)
    elif kind is WeightKind.P:
        f = lambda z: lg.eval_basis(ns, j, z) * math.cos((1.0 - z) * lam)
    else:
        if i is None:
            raise ValueError("stage kind requires the stage index i")
        ci = ns.nodes[i]
        f = lambda z: lg.eval_basis(ns, j, ci * z) * (1.0 - z) * sinc((1.0 - z) * ci * lam)
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
    c = ns.nodes
    weights_q = np.zeros((s, d, d))
    weights_p = np.zeros((s, d, d))
    stage = np.zeros((s, s, d, d))
    term = np.eye(d)
    below = 0
    for l in range(SERIES_MAX_TERMS):
        f_odd = float(math.factorial(2 * l + 1))
        f_even = float(math.factorial(2 * l))
        added = 0.0
        for j in range(s):
            tq = (lg.weighted_moment(ns, j, 2 * l + 1) / f_odd) * term
            tp = (lg.weighted_moment(ns, j, 2 * l) / f_even) * term
            weights_q[j] += tq
            weights_p[j] += tp
            added = max(added, np.abs(tq).max(), np.abs(tp).max())
            for i in range(s):
                ts = (
                    c[i] ** (2 * l)
                    * lg.weighted_moment(ns, j, 2 * l + 1, scale=c[i])
                    / f_odd
                ) * term
                stage[i, j] += ts
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
    phi_main = phi_pair_series(V, scale=h)
    phi_stage = tuple(
        phi_pair_series((ci * ci) * V, scale=ci * h) for ci in ns.nodes
    )
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
