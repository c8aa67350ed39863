"""Lagrange basis polynomials on distinct collocation nodes in [0, 1].

Bases are kept in monomial form (ascending coefficients).  That makes
arbitrary-order derivatives and the weighted moment integrals used by the
coefficient kernels exact up to round-off, at the price of conditioning,
which is why the node count is capped at MAX_NODES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidNodesError

MAX_NODES = 8

# Minimum admissible node separation; below this the monomial basis is
# too ill-conditioned to trust.
MIN_NODE_GAP = 1e-10

# Gauss-Legendre pair on [0, 1]: (3 - sqrt(3))/6 and (3 + sqrt(3))/6.
GAUSS2_NODES = ((3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0)


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Distinct nodes c_1..c_s in [0, 1] with their Lagrange basis.

    ``basis_coeffs[j]`` holds the monomial coefficients of l_j in ascending
    order, where l_j(c_k) = delta_{jk}; ``derivative_coeffs[j, k]`` holds
    the coefficients of the k-th derivative of l_j, zero-padded to length s.
    """

    nodes: np.ndarray
    basis_coeffs: np.ndarray
    derivative_coeffs: np.ndarray = field(init=False)

    def __post_init__(self):
        s = self.s
        der = np.zeros((s, s, s))
        for j in range(s):
            for k in range(s):
                dk = npoly.polyder(self.basis_coeffs[j], m=k)
                der[j, k, : dk.size] = dk
        object.__setattr__(self, "derivative_coeffs", der)

    @functools.cached_property
    def weight_bound(self) -> float:
        """abs_weight_bound of the set, computed on first use (it costs
        several times a build_node_set, which most callers never need)."""
        return abs_weight_bound(self)

    @property
    def s(self) -> int:
        return len(self.nodes)


def build_node_set(nodes) -> NodeSet:
    """Validate nodes and expand each basis polynomial to monomial form.

    Raises InvalidNodesError for an empty set, more than MAX_NODES nodes,
    nodes outside [0, 1], or (near-)duplicate nodes.
    """
    c = np.asarray(nodes, dtype=float).ravel()
    s = c.size
    if s == 0 or s > MAX_NODES:
        raise InvalidNodesError(f"need between 1 and {MAX_NODES} nodes, got {s}")
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise InvalidNodesError(f"nodes must lie in [0, 1], got {c!r}")
    gaps = np.abs(c[:, None] - c[None, :])[np.triu_indices(s, k=1)]
    if s > 1 and gaps.min() < MIN_NODE_GAP:
        raise InvalidNodesError(f"nodes closer than {MIN_NODE_GAP} are not allowed")

    coeffs = np.zeros((s, s))
    for j in range(s):
        others = np.delete(c, j)
        # np.poly returns the monic polynomial with the given roots,
        # highest degree first.
        numer = np.poly(others) if others.size else np.array([1.0])
        denom = np.prod(c[j] - others) if others.size else 1.0
        coeffs[j, : s] = numer[::-1] / denom
    return NodeSet(nodes=c, basis_coeffs=coeffs)


def gauss_nodes(s: int) -> NodeSet:
    """Gauss-Legendre nodes on [0, 1] for 1 <= s <= MAX_NODES."""
    if not 1 <= s <= MAX_NODES:
        raise InvalidNodesError(f"need 1 <= s <= {MAX_NODES}, got {s}")
    x, _ = np.polynomial.legendre.leggauss(s)
    return build_node_set((x + 1.0) / 2.0)


def gauss2() -> NodeSet:
    """The default two-node Gauss set."""
    return build_node_set(GAUSS2_NODES)


def eval_basis(ns: NodeSet, j: int, x) -> float | np.ndarray:
    """Evaluate l_j at x (scalar or array)."""
    _check_index(ns, j)
    return npoly.polyval(x, ns.basis_coeffs[j])


def eval_basis_derivative(ns: NodeSet, j: int, k: int, x) -> float | np.ndarray:
    """Evaluate the k-th derivative of l_j at x; zero for k >= s."""
    _check_index(ns, j)
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    if k >= ns.s:
        return np.zeros_like(np.asarray(x, dtype=float))[()] if np.ndim(x) else 0.0
    return npoly.polyval(x, ns.derivative_coeffs[j, k])


def weighted_moment(ns: NodeSet, j: int, m: int, scale: float = 1.0) -> float:
    """Exact integral of l_j(scale*z) * (1-z)**m over z in [0, 1].

    Uses int_0^1 z^n (1-z)^m dz = 1 / ((n+m+1) * C(n+m, n)).
    """
    _check_index(ns, j)
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    total = 0.0
    fac = 1.0
    for n, a in enumerate(ns.basis_coeffs[j]):
        if a != 0.0:
            total += a * fac / ((n + m + 1) * math.comb(n + m, n))
        fac *= scale
    return total


def abs_weight_bound(ns: NodeSet) -> float:
    """max over i, j of int_0^1 |l_j(c_i z) (1 - z)| dz, evaluated exactly.

    [0, 1] is split at the real roots of l_j(c_i z), which are known in
    closed form (z = c_k / c_i for k != j), so every piece has constant
    sign and integrates exactly from the monomial antiderivative.
    """
    best = 0.0
    for i in range(ns.s):
        for j in range(ns.s):
            best = max(best, _abs_piece_integral(ns, i, j))
    return best


def _abs_piece_integral(ns: NodeSet, i: int, j: int) -> float:
    ci = ns.nodes[i]
    # monomial coefficients of z -> l_j(c_i z) (1 - z)
    scaled = ns.basis_coeffs[j] * ci ** np.arange(ns.s)
    poly = npoly.polymul(scaled, np.array([1.0, -1.0]))
    anti = npoly.polyint(poly)
    pts = [0.0]
    if ci > 0.0:
        for k in range(ns.s):
            if k == j:
                continue
            r = ns.nodes[k] / ci
            if 0.0 < r < 1.0:
                pts.append(r)
    pts.append(1.0)
    pts = sorted(set(pts))
    vals = npoly.polyval(np.asarray(pts), anti)
    return float(np.abs(np.diff(vals)).sum())


def _check_index(ns: NodeSet, j: int) -> None:
    if not 0 <= j < ns.s:
        raise IndexError(f"basis index {j} out of range for s={ns.s}")
