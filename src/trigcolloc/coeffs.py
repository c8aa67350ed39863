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

A table's blocks (weights, phi0 and phi1 at each scale, the p-block) are
defined once, as scalar rows over the frequencies (scalar_blocks), and lifted
once per path: one matfun.lift (spectral), or one matfun.power_series over
their Taylor coefficients (_taylor_blocks, series).  The stability analysis
reads the same rows at d = 1.  A table keeps the weights but not the phi and
p-block rows, which only its operators read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import lagrange as lg
from .errors import SeriesConvergenceError
from .matfun import (  # noqa: F401 (perfbench/spans.py wraps the phi pairs here)
    SERIES_MAX_TERMS,
    SERIES_NORM_GUARD,
    SERIES_TOL,
    SpectralDecomposition,
    decompose_symmetric,
    is_symmetric,
    lift,
    phi_pair_series,
    phi_pair_spectral,
    power_series,
    sinc,
)

# Switchover between the series branch (at or below) and the by-parts
# branch (above), applied to the effective oscillation argument c * lam.
LAMBDA_SWITCH = 0.5

# Largest frequency weights takes: lam^2 stays finite, so c^2 lam^2 is never 0 * inf.
LAMBDA_MAX = 1e154

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
    successive terms below SERIES_TOL of it, or once the power reaches 0.
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
        small = np.abs(terms) < SERIES_TOL * (1.0 + np.abs(totals))
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


def scalar_blocks(ns: lg.NodeSet, h: float, freqs: np.ndarray) -> np.ndarray:
    """The one-step map's blocks as rows over the frequencies, (s^2 + 4s + 3, n).

    In the order unstack_blocks reads them: b_q (s rows), A (s * s), b_p (s), the
    weights at h * freqs; phi0 = cos and phi1 = sinc of (c h) * freqs for c
    in ns.scales (s + 1 each); the p-block -freqs sin(h freqs) (1).
    """
    freqs = np.asarray(freqs, dtype=float)
    b_q, b_p, A = weights(ns, h * freqs)
    arg = (ns.scales * h)[:, None] * freqs
    return np.concatenate((
        b_q, A.reshape(-1, freqs.size), b_p, np.cos(arg), sinc(arg), [-freqs * np.sin(h * freqs)],
    ))


def _taylor_blocks(ns: lg.NodeSet, h: float) -> np.ndarray:
    """scalar_blocks' rows as Taylor coefficients of (-h^2 M)^l, one column
    per l < SERIES_MAX_TERMS, with m(j, k; c) as in _series, c in ns.scales:

      q and stage   c^(2l) m(j, 2l+1; c) / (2l+1)!
      p             m(j, 2l; 1) / (2l)!
      phi0, phi1    c^(2l) / (2l)!,  c^(2l) / (2l+1)!
      p-block       1 / ((2l-1)! h) for l >= 1, 0 at l = 0
    """
    odd, even = _FACTORIALS[1::2], _FACTORIALS[0::2]
    power = np.array([[c ** (2 * l) for l in range(SERIES_MAX_TERMS)] for c in ns.scales])
    qs = power[:, None] * ns.moment_table[:, :, 1::2] / odd
    p = ns.moment_table[0, :, 0::2] / even
    p_block = np.concatenate(([0.0], 1.0 / (odd[:-1] * h)))
    return np.concatenate((qs.reshape(-1, SERIES_MAX_TERMS), p, power / even, power / odd, [p_block]))


def _weight_views(ns: lg.NodeSet, w: np.ndarray) -> tuple:
    """(b_q, b_p, A) as views of a stack of scalar_blocks' first (s + 2) s rows."""
    w = w.reshape(w.shape[:-3] + (ns.s + 2, ns.s) + w.shape[-2:])
    return w[..., 0, :, :, :], w[..., -1, :, :, :], w[..., 1:-1, :, :, :]


def _phi_views(ns: lg.NodeSet, phi: np.ndarray) -> tuple:
    """(phi0, phi1, p_block) as views of a stack of scalar_blocks' other rows."""
    return phi[..., : ns.s + 1, :, :], phi[..., ns.s + 1 : -1, :, :], phi[..., -1, :, :]


def unstack_blocks(ns: lg.NodeSet, blocks: np.ndarray) -> tuple:
    """(b_q, b_p, A, phi0, phi1, p_block), in CoefficientTable's field order,
    as views of a stack of d x d blocks whose axis -3 runs over scalar_blocks' rows."""
    n_w = (ns.s + 2) * ns.s
    return _weight_views(ns, blocks[..., :n_w, :, :]) + _phi_views(ns, blocks[..., n_w:, :, :])


def one_step_operators(c, h, b_q, b_p, A, phi0, phi1, p_block):
    """The flat operators of the one-step map from its raw blocks.

    With nodes c and step h, the operators act on y = [q; p] (length 2d)
    and on the stacked stage forces F = [f_1; ...; f_s] (length s*d):

      predictor     (s*d, 2d)   block row i:    [phi0(c_i^2 V) | c_i h phi1(c_i^2 V)]
      stage_matrix  (s*d, s*d)  block (i, j):   (c_i h)^2 A[i, j]
      propagator    (2d, 2d)    [[phi0(V), h phi1(V)], [p_block, phi0(V)]]
      force_matrix  (2d, s*d)   block column j: [h^2 b_q[j]; h b_p[j]]

    from the weights b_q, b_p (..., s, d, d) and A (..., s, s, d, d), phi0
    and phi1 at (c h)^2 M for c in (1, c_1, ..., c_s) (..., s + 1, d, d),
    and p_block = -h M phi1(V) (..., d, d).  A leading batch shape ...
    carries through.
    """
    batch, d = b_q.shape[:-3], b_q.shape[-1]
    sd, ch = len(c) * d, (c * h)[:, None, None]
    predictor = np.concatenate((phi0[..., 1:, :, :], ch * phi1[..., 1:, :, :]), -1)
    stage_matrix = ((ch * ch)[..., None] * A).swapaxes(-3, -2)
    # written in place: at d = 256 concatenating these costs 10 % of a table build
    propagator = np.empty(batch + (2, d, 2, d))
    propagator[..., 0, :, 0, :] = propagator[..., 1, :, 1, :] = phi0[..., 0, :, :]
    np.multiply(h, phi1[..., 0, :, :], out=propagator[..., 0, :, 1, :])
    propagator[..., 1, :, 0, :] = p_block
    force_matrix = np.empty(batch + (2, d, len(c), d))
    np.multiply(h * h, b_q.swapaxes(-3, -2), out=force_matrix[..., 0, :, :, :])
    np.multiply(h, b_p.swapaxes(-3, -2), out=force_matrix[..., 1, :, :, :])
    return (predictor.reshape(batch + (sd, 2 * d)), stage_matrix.reshape(batch + (sd, sd)),
            propagator.reshape(batch + (2 * d, 2 * d)), force_matrix.reshape(batch + (2 * d, sd)))


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """All step coefficients for one (nodes, M, h) combination.

    Raw weight matrices keep the defining-integral normalization; the
    one-step map is applied through the four flat operators that
    one_step_operators builds from them.  ``stage_offsets`` is the (s, 1)
    column c_i h, so a step from t evaluates its stage forces at the times
    t + stage_offsets.  phi0 and phi1 at (c h)^2 M, c in (1, c_1, ...,
    c_s), and p_block = -h M phi1(h^2 M) (on both paths the lift of the row
    -w sin(h w), never a product with M) are init-only: they enter the
    predictor and propagator and are not kept.  Tables are immutable; reuse
    one per (nodes, M, h).
    """

    node_set: lg.NodeSet
    M: np.ndarray
    h: float
    path: str
    weights_q: np.ndarray
    weights_p: np.ndarray
    stage_weights: np.ndarray
    phi0: InitVar[np.ndarray]
    phi1: InitVar[np.ndarray]
    p_block: InitVar[np.ndarray]
    predictor: np.ndarray = field(init=False)
    stage_matrix: np.ndarray = field(init=False)
    propagator: np.ndarray = field(init=False)
    force_matrix: np.ndarray = field(init=False)
    stage_offsets: np.ndarray = field(init=False)

    def __post_init__(self, phi0, phi1, p_block):
        c, h = self.node_set.nodes, self.h
        operators = one_step_operators(c, h, self.weights_q, self.weights_p, self.stage_weights,
                                       phi0, phi1, p_block)
        for name, value in zip(("predictor", "stage_matrix", "propagator", "force_matrix"), operators):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "stage_offsets", (c * h)[:, None])

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def build_table_spectral(ns: lg.NodeSet, sd: SpectralDecomposition, h: float) -> CoefficientTable:
    """Assemble the table through the eigendecomposition of symmetric M:
    one lift of scalar_blocks' rows and of freqs^2, the row of M.

    The lift runs as two stacks, which round alike: the weights and M, which
    the table keeps, and the phi and p-block rows, which only its operators
    read, so that stack is freed once they are built.
    """
    rows, n_w = scalar_blocks(ns, h, sd.freqs), (ns.s + 2) * ns.s
    kept = lift(sd, np.concatenate((rows[:n_w], [sd.freqs**2])))
    return CoefficientTable(ns, kept[-1], h, "spectral", *_weight_views(ns, kept[:-1]),
                            *_phi_views(ns, lift(sd, rows[n_w:])))


def build_table_series(ns: lg.NodeSet, M: np.ndarray, h: float) -> CoefficientTable:
    """Assemble the table by one power series in V = h^2 M over
    _taylor_blocks' rows.

    Requires ||V||_inf within the series guard; works for any square M,
    symmetric or not.  The weights are copied out of the series' stack, so
    the table does not keep its phi and p-block rows alive.
    """
    M = np.asarray(M, dtype=float)
    b_q, b_p, A, *phis = unstack_blocks(ns, power_series(h * h * M, _taylor_blocks(ns, h)))
    return CoefficientTable(ns, M, h, "series", b_q.copy(), b_p.copy(), A.copy(), *phis)


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
