"""Weight kernels and coefficient tables for the collocation update.

The one-step map needs two families of integrals over [0, 1], with V = h^2 M:

  q and stage, scale c:  int l_j(c z) (1-z) phi1((1-z)^2 c^2 V) dz
  p (momentum update):   int l_j(z) phi0((1-z)^2 V) dz

The stage coupling takes c = c_i, and the position (q) update is the same
integral at c = 1.  Each branch codes it once, at the row's scale: with
c = 1.0 every product and cosine rounds as a q-only formula would, so a
stage weight at a node c_i = 1 equals the q weight bit for bit.

For symmetric PSD M each integral diagonalizes into scalar weights, one per
frequency lam.  ``weights`` evaluates every weight of a node set at an array
of frequencies (``scalar_weight`` is its one-frequency view, and adaptive
quadrature, ``quadrature_weight``, the oracle).  An entry takes one of two
branches on c * lam: a closed form by parts (large argument) or a power
series in lam^2 over the basis moments of NodeSet.moment_table (small
argument; exact at lam = 0), a table built once per node set when a series
entry first occurs.  Each entry rounds as its term-by-term scalar evaluation
would, so batching never changes a bit: sums and products run in sequence, a
series term is (power * moment) / k!, and lam^m is the scalar pow of each
element, as numpy's array power rounds differently in about 1 in 20 inputs.

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
from .errors import SeriesConvergenceError
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

# Largest frequency weights takes: lam^2 stays finite, so c^2 lam^2 is never 0 * inf.
LAMBDA_MAX = 1e154

SERIES_REL_TOL = 1e-16
# Within the series guard (argument <= 30) every series stops by its 20th term.
SERIES_MAX_TERMS = lg.MOMENT_ORDERS // 2
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(lg.MOMENT_ORDERS)])

QUAD_TOL = 1e-13


class WeightKind(enum.Enum):
    Q = "q"
    P = "p"
    STAGE = "stage"


def weights(ns: lg.NodeSet, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b_q (s, n), b_p (s, n) and A (s, s, n) at the n frequencies lam: views of
    one stack with the rows q (0), stage i (1 + i) and p (s + 1).  Raises
    ValueError unless lam is 1-D with entries in [0, LAMBDA_MAX]."""
    lam = np.asarray(lam, dtype=float)
    ok = (lam >= 0.0) & (lam <= LAMBDA_MAX)
    if lam.ndim != 1 or np.count_nonzero(ok) < lam.size:
        raise ValueError(f"frequencies must be 1-D in [0, {LAMBDA_MAX:g}], got {lam[~ok][:3]}")
    out = _by_parts(ns, lam)
    # series where c * lam <= LAMBDA_SWITCH, c from ns.scales; p goes with q
    series = ns.scales[:, None] * lam <= LAMBDA_SWITCH
    if np.count_nonzero(series):
        rows, cols = np.nonzero(np.concatenate((series, series[:1])))
        out[rows, :, cols] = _series(ns, rows, lam[cols])
    return out[0], out[-1], out[1:-1]


def _by_parts(ns: lg.NodeSet, lam: np.ndarray) -> np.ndarray:
    """The by-parts closed form as a stack in the rows of weights, valid
    where c * lam > LAMBDA_SWITCH; derivative values at 0 and at ns.scales."""
    s = ns.s
    at_0, at_c = ns.derivative_values[0, ..., None], ns.derivative_values[1:, ..., None]
    scales = ns.scales[:, None, None]
    eff = scales * lam
    cos, sin = np.cos(eff), np.sin(eff)
    out = np.zeros((s + 2, s, lam.size))
    qs, p = out[:-1], out[-1]  # the q and stage rows, the p row
    # entries left to the series divide by zero; lam^m may overflow to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(0, s, 2):
            # the odd derivative of order s vanishes
            odd_0, odd_1 = (at_0[:, k + 1], at_c[0, :, k + 1]) if k + 1 < s else (0.0, 0.0)
            pow_odd, pow_even = np.array([(x ** (k + 1), x ** (k + 2)) for x in lam]).T
            # the sign (-1)^(k/2) as add or subtract: (-t)/u is -(t/u) exactly
            add = np.add if k % 4 == 0 else np.subtract
            den = scales * scales * pow_even
            add(qs, (at_c[:, :, k] - at_0[:, k] * cos - odd_0 * sin / lam) / den, out=qs)
            add(p, (at_0[:, k] * sin[0] + (odd_1 - odd_0 * cos[0]) / lam) / pow_odd, out=p)
    return out


def _series(ns: lg.NodeSet, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The series at the entries (rows[e], lam[e]) of weights' stack, (E, s):

    q and stage rows, at scale c: sum_l (-c^2 lam^2)^l m(j, 2l+1; c) / (2l+1)!
    p row:                        sum_l (-lam^2)^l m(j, 2l; 1) / (2l)!

    with m(j, k; c) = int l_j(c z) (1-z)^k dz.  A sum stops at the second of two
    successive terms below SERIES_REL_TOL of it, or once the power reaches 0.
    """
    p_row = rows > ns.s
    at = np.where(p_row, 0, rows)  # the p row has the scale and moments of q
    c = ns.scales[at]
    x = c * c * (lam * lam)
    if (x > SERIES_NORM_GUARD).any():
        raise SeriesConvergenceError(f"squared argument {x.max():.3g} exceeds {SERIES_NORM_GUARD}")
    for count in (12, SERIES_MAX_TERMS):  # c * lam <= LAMBDA_SWITCH stops within 12
        orders = 2 * np.arange(count) + (~p_row)[:, None]
        steps = np.insert(np.full((rows.size, count), -x[:, None]), 0, 1.0, axis=1)
        # in sequence, as a term-by-term loop: a term is (power * moment) / k!
        power = np.cumprod(steps, axis=1)[:, :, None]
        moments = ns.moment_table[at[:, None], :, orders]
        terms = power[:, :-1] * moments / _FACTORIALS[orders][..., None]
        totals = np.cumsum(terms, axis=1)
        small = np.abs(terms) < SERIES_REL_TOL * (1.0 + np.abs(totals))
        stop = small & np.roll(small, 1, axis=1)
        stop[:, 0] = False
        stop |= power[:, 1:] == 0.0
        if stop.any(axis=1).all():
            return np.take_along_axis(totals, stop.argmax(axis=1)[:, None], axis=1)[:, 0]
    raise SeriesConvergenceError(f"weight series did not converge in {SERIES_MAX_TERMS} terms")


def _scale(ns: lg.NodeSet, kind: WeightKind, j: int, i) -> float:
    """The kind's scale (1 for q and p, c_i for stage i); IndexError unless 0 <= j, i < s."""
    if not 0 <= j < ns.s:
        raise IndexError(f"basis index {j} out of range for s={ns.s}")
    if kind is not WeightKind.STAGE:
        return 1.0
    if i is None:
        raise ValueError("stage kind requires the stage index i")
    if not 0 <= i < ns.s:
        raise IndexError(f"stage index {i} out of range for s={ns.s}")
    return ns.nodes[i]


def scalar_weight(ns: lg.NodeSet, kind: WeightKind, j: int, lam: float, i=None) -> float:
    """One weight at one frequency: the (kind, j, i) entry of weights(ns, [lam])."""
    _scale(ns, kind, j, i)
    b_q, b_p, A = weights(ns, [lam])
    if kind is WeightKind.STAGE:
        return float(A[i, j, 0])
    return float((b_q if kind is WeightKind.Q else b_p)[j, 0])


def quadrature_weight(ns: lg.NodeSet, kind: WeightKind, j: int, v: float, i=None) -> float:
    """Adaptive-quadrature oracle for the defining integral at V = v >= 0."""
    from scipy.integrate import quad  # slow to import; only the oracle needs it

    if v < 0.0:
        raise ValueError(f"squared frequency must be >= 0, got {v}")
    scale = _scale(ns, kind, j, i)
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
    Q = sd.transform.T
    x = h * sd.freqs
    b_q, b_p, A = weights(ns, x)
    # Q diag(w) Q^T for every weight row w, one stacked product per kind
    weights_q, weights_p, stage = ((Q * w[..., None, :]) @ sd.transform for w in (b_q, b_p, A))
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
    # rows of weights' stack; term l adds _series' coefficients times (-V)^l
    out = np.zeros((s + 2, s, d, d))
    term = np.eye(d)
    below = 0
    for l in range(SERIES_MAX_TERMS):
        power = np.array([c ** (2 * l) for c in ns.scales])[:, None]
        coef = np.concatenate((
            power * ns.moment_table[:, :, 2 * l + 1] / _FACTORIALS[2 * l + 1],
            ns.moment_table[:1, :, 2 * l] / _FACTORIALS[2 * l],
        ))
        added = coef[..., None, None] * term
        out += added
        scale = 1.0 + max(np.abs(out[0]).max(), np.abs(out[-1]).max())
        if np.abs(added).max() < SERIES_REL_TOL * scale:
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
        weights_q=out[0], weights_p=out[-1], stage_weights=out[1:-1],
        phi_main=phi_main, phi_stage=phi_stage, p_block=-h * (M @ phi_main.phi1),
    )


def build_table(ns: lg.NodeSet, M: np.ndarray, h: float, path: str = "auto") -> CoefficientTable:
    """Build a table, picking the spectral path for symmetric PSD M.

    path: "auto" | "spectral" | "series".  Raises ValueError unless h is
    finite and > 0 and every entry of M is finite.
    """
    M = np.asarray(M, dtype=float)
    if path not in ("auto", "spectral", "series"):
        raise ValueError(f"unknown path {path!r}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be finite and > 0, got {h}")
    if not np.isfinite(M).all():
        raise ValueError("M must be finite")
    if path == "spectral" or (path == "auto" and is_symmetric(M)):
        return build_table_spectral(ns, decompose_symmetric(M), h)
    return build_table_series(ns, M, h)
