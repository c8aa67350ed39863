"""Derive the leading phase-error constant of the Gauss-2 one-step map.

Run from the repository root (sympy only; the package is not imported):

    python tests/make_phase_constant.py

On the test equation q'' + w^2 q = -eps q with step h, write
zeta^2 = h^2 (w^2 + eps), r = eps / (w^2 + eps), V = (1 - r) zeta^2 and
z = r zeta^2.  One step at h = 1 of the collocation method on
q'' + V q = -z q maps (q, p) to S (q, p), with

  S = R - z B (I + z K)^-1 P,

  R = [[phi0(V), phi1(V)], [-V phi1(V), phi0(V)]]
  B = [b_q; b_p],  b_q[j] = int l_j(u) (1-u) phi1((1-u)^2 V) du
                   b_p[j] = int l_j(u) phi0((1-u)^2 V) du
  K[i, j] = c_i^2 int l_j(c_i u) (1-u) phi1((1-u)^2 c_i^2 V) du
  P[i] = [phi0(c_i^2 V), c_i phi1(c_i^2 V)]

(integrals over [0, 1]; phi0(x) = cos sqrt(x), phi1(x) = sin sqrt(x) / sqrt(x)),
the blocks coeffs.one_step_operators assembles at d = 1.  Every block is
expanded exactly as a power series in t = zeta^2 at the exact Gauss-2 nodes
1/2 -+ sqrt(3)/6, through t^ORDER.

The script prints the series of det S - 1 (zero through that order: no
dissipation) and of tr S / (2 sqrt(det S)) - cos(zeta).  That difference is
kappa zeta^6 + O(zeta^8) when the phase error zeta - arccos(tr / (2 sqrt(det)))
is kappa zeta^5 + O(zeta^7), so kappa is its t^3 coefficient, printed as a
function of r and at the (w, eps) = (1, 1/2) of tests/test_stability.py and
tests/test_acceptance.py, which hard-code that value.
"""

from __future__ import annotations

import sympy as sp

ORDER = 4

t, r, u = sp.symbols("t r u")


def trunc(expr):
    """expr as a polynomial in t, cut after t^ORDER."""
    expr = sp.expand(expr)
    return sum(sp.simplify(expr.coeff(t, k)) * t**k for k in range(ORDER + 1))


def phi(x, shift):
    """phi0 (shift 0) or phi1 (shift 1) at x, as its series through t^ORDER."""
    return sum((-x) ** k / sp.factorial(2 * k + shift) for k in range(ORDER + 1))


def main():
    nodes = [sp.Rational(1, 2) - sp.sqrt(3) / 6, sp.Rational(1, 2) + sp.sqrt(3) / 6]
    s = len(nodes)

    def basis(j, x):
        return sp.prod([(x - c) / (nodes[j] - c) for k, c in enumerate(nodes) if k != j])

    V, z = (1 - r) * t, r * t
    integral = lambda f: trunc(sp.integrate(sp.expand(f), (u, 0, 1)))
    b_q = [integral(basis(j, u) * (1 - u) * phi((1 - u) ** 2 * V, 1)) for j in range(s)]
    b_p = [integral(basis(j, u) * phi((1 - u) ** 2 * V, 0)) for j in range(s)]
    K = sp.Matrix(s, s, lambda i, j: integral(
        nodes[i] ** 2 * basis(j, nodes[i] * u) * (1 - u) * phi((1 - u) ** 2 * nodes[i] ** 2 * V, 1)
    ))
    P = sp.Matrix(s, 2, lambda i, m: trunc(
        phi(nodes[i] ** 2 * V, 0) if m == 0 else nodes[i] * phi(nodes[i] ** 2 * V, 1)
    ))
    R = sp.Matrix([[phi(V, 0), phi(V, 1)], [-V * phi(V, 1), phi(V, 0)]]).applyfunc(trunc)
    B = sp.Matrix([b_q, b_p])
    # (I + z K)^-1 as its Neumann series: z K is O(t)
    inverse, term = sp.eye(s), sp.eye(s)
    for _ in range(ORDER):
        term = (-z * K * term).applyfunc(trunc)
        inverse += term
    S = (R - z * B * inverse * P).applyfunc(trunc)

    det = trunc(S.det())
    half_trace = trunc(S.trace() / 2)
    # 1 / sqrt(det) through t^ORDER, from det = 1 + e
    e = trunc(det - 1)
    inv_root = trunc(sum(sp.binomial(sp.Rational(-1, 2), k) * e**k for k in range(ORDER + 1)))
    cos_zeta = sum((-t) ** k / sp.factorial(2 * k) for k in range(ORDER + 1))
    gap = trunc(half_trace * inv_root - cos_zeta)

    print(f"det S - 1                       = {sp.factor(e)} + O(t^{ORDER + 1})")
    print(f"tr/(2 sqrt(det)) - cos(zeta)    = {sp.factor(gap)} + O(t^{ORDER + 1})")
    kappa = sp.factor(gap.coeff(t, 3))
    assert gap.coeff(t, 1) == 0 and gap.coeff(t, 2) == 0
    print(f"phase error / zeta^5 -> kappa(r) = {kappa}")
    at = kappa.subs(r, sp.Rational(1, 3))
    print(f"kappa at (w, eps) = (1, 1/2), r = 1/3: {at} = {sp.N(at, 20)}")


if __name__ == "__main__":
    main()
