import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from trigcolloc import lagrange as lg
from trigcolloc.errors import InvalidNodesError

from oracles import adaptive_simpson

EXACT_TOL = 1e-12
RNG_SEED = 20240311
N_RANDOM = 25

# max over i, j of the kernel-free weight integral for the 2-point Gauss
# set, frozen from an independent adaptive-Simpson run
GAUSS2_ABS_BOUND = 0.6220084679281462


def test_gauss2_nodes_literal():
    ns = lg.gauss2()
    root3 = math.sqrt(3.0)
    assert ns.s == 2
    assert abs(ns.nodes[0] - (3.0 - root3) / 6.0) < EXACT_TOL
    assert abs(ns.nodes[1] - (3.0 + root3) / 6.0) < EXACT_TOL


def test_gauss_nodes_low_orders():
    assert np.allclose(lg.gauss_nodes(1).nodes, [0.5], atol=EXACT_TOL)
    assert np.allclose(lg.gauss_nodes(2).nodes, lg.gauss2().nodes, atol=EXACT_TOL)
    three = lg.gauss_nodes(3).nodes
    # symmetric about 1/2
    assert abs(three[0] + three[2] - 1.0) < EXACT_TOL
    assert abs(three[1] - 0.5) < EXACT_TOL


@pytest.mark.parametrize(
    "nodes",
    [
        [],
        [0.1] * 9,
        [-0.01, 0.5],
        [0.5, 1.01],
        [0.3, 0.3 + 1e-12],
        # NaN fails every range and gap comparison
        [0.5, float("nan")],
        [float("nan"), 0.5],
    ],
)
def test_invalid_node_sets_rejected(nodes):
    with pytest.raises(InvalidNodesError):
        lg.build_node_set(nodes)


def test_basis_is_cardinal():
    for ns in (lg.gauss2(), lg.build_node_set([0.0, 0.4, 0.7, 1.0])):
        for j in range(ns.s):
            for i in range(ns.s):
                want = 1.0 if i == j else 0.0
                assert abs(lg.eval_basis(ns, j, ns.nodes[i]) - want) < EXACT_TOL


def test_basis_partition_of_unity():
    rng = np.random.default_rng(RNG_SEED)
    for nodes in ([0.5], [0.2, 0.8], [0.1, 0.45, 0.9], list(lg.gauss_nodes(5).nodes)):
        ns = lg.build_node_set(nodes)
        for x in rng.uniform(0.0, 1.0, size=N_RANDOM):
            total = sum(lg.eval_basis(ns, j, x) for j in range(ns.s))
            assert abs(total - 1.0) < EXACT_TOL


def test_gauss2_first_derivative_is_constant():
    ns = lg.gauss2()
    slope = 1.0 / (ns.nodes[0] - ns.nodes[1])
    assert abs(slope + math.sqrt(3.0)) < EXACT_TOL
    for x in (0.0, 0.3, 1.0):
        assert abs(lg.eval_basis_derivative(ns, 0, 1, x) - slope) < EXACT_TOL
        assert abs(lg.eval_basis_derivative(ns, 1, 1, x) + slope) < EXACT_TOL


def test_derivative_beyond_degree_is_zero():
    ns = lg.build_node_set([0.2, 0.5, 0.9])
    for k in (3, 4, 7):
        assert lg.eval_basis_derivative(ns, 1, k, 0.37) == 0.0


def test_node_set_stores_derivatives():
    rng = np.random.default_rng(RNG_SEED)
    for ns in (lg.gauss2(), lg.build_node_set([0.2, 0.5, 0.9]), lg.gauss_nodes(6)):
        for j in range(ns.s):
            for k in range(ns.s):
                der = npoly.polyder(ns.basis_coeffs[j], m=k)
                for x in [0.0, 1.0, *rng.uniform(-1.0, 2.0, size=5)]:
                    # bit-identical to a polyder on every call
                    assert lg.eval_basis_derivative(ns, j, k, x) == npoly.polyval(x, der)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_extrapolation_extends_every_interpolated_polynomial(s):
    # the monomials z^k, k < s, span every polynomial of degree < s, which
    # the interpolant through s nodes reproduces
    for ns in (lg.gauss_nodes(s), lg.build_node_set(np.linspace(0.0, 1.0, s + 2)[1:-1])):
        E = ns.extrapolation
        assert E.shape == (s, s)
        assert ns.extrapolation is E
        c = ns.nodes
        for k in range(s):
            assert np.abs(E @ c**k - (1.0 + c) ** k).max() <= EXACT_TOL


def test_weighted_moment_s1_literals():
    ns = lg.build_node_set([0.5])
    assert abs(lg.weighted_moment(ns, 0, 0) - 1.0) < EXACT_TOL
    assert abs(lg.weighted_moment(ns, 0, 1) - 0.5) < EXACT_TOL


def test_weighted_moment_matches_quadrature():
    rng = np.random.default_rng(RNG_SEED + 1)
    ns = lg.build_node_set([0.15, 0.55, 0.85])
    for _ in range(10):
        j = int(rng.integers(0, ns.s))
        m = int(rng.integers(0, 5))
        scale = float(rng.uniform(0.05, 1.0))
        ref = adaptive_simpson(
            lambda z: lg.eval_basis(ns, j, scale * z) * (1.0 - z) ** m, 0.0, 1.0
        )
        assert abs(lg.weighted_moment(ns, j, m, scale=scale) - ref) < 1e-12


def test_abs_weight_bound_s1_is_half():
    ns = lg.build_node_set([0.37])
    assert abs(lg.abs_weight_bound(ns) - 0.5) < EXACT_TOL


def test_abs_weight_bound_gauss2_frozen():
    assert abs(lg.abs_weight_bound(lg.gauss2()) - GAUSS2_ABS_BOUND) < 1e-12


def test_abs_weight_bound_matches_quadrature():
    ns = lg.build_node_set([0.25, 0.6, 0.95])
    want = 0.0
    for i in range(ns.s):
        ci = ns.nodes[i]
        for j in range(ns.s):
            val = adaptive_simpson(
                lambda z: abs(lg.eval_basis(ns, j, ci * z) * (1.0 - z)), 0.0, 1.0
            )
            want = max(want, val)
    assert abs(lg.abs_weight_bound(ns) - want) < 1e-11


def test_abs_weight_bound_permutation_invariant():
    a = lg.build_node_set([0.2, 0.5, 0.9])
    b = lg.build_node_set([0.9, 0.2, 0.5])
    assert abs(lg.abs_weight_bound(a) - lg.abs_weight_bound(b)) < EXACT_TOL


@settings(max_examples=50, deadline=None)
@given(nodes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=lg.MAX_NODES, unique=True))
def test_cached_derivative_values_match_eval_basis_derivative(nodes):
    try:
        ns = lg.build_node_set(nodes)
    except InvalidNodesError:
        assume(False)  # nodes closer than MIN_NODE_GAP
    table = ns.derivative_values
    points = [0.0, 1.0, *ns.nodes.tolist()]
    assert table.shape == (ns.s + 2, ns.s, ns.s)
    for p, x in enumerate(points):
        for j in range(ns.s):
            for k in range(ns.s):
                assert table[p, j, k] == lg.eval_basis_derivative(ns, j, k, x)


def _scalar_moment(ns, j, m, scale):
    # int_0^1 z^n (1-z)^m dz = 1 / ((n+m+1) C(n+m, n)), one monomial at a time
    total, fac = 0.0, 1.0
    for n, a in enumerate(ns.basis_coeffs[j].tolist()):
        total += a * fac / ((n + m + 1) * math.comb(n + m, n))
        fac *= scale
    return total


@pytest.mark.parametrize("nodes", [(0.5,), lg.GAUSS2_NODES, (0.0, 0.4, 1.0), (0.2, 0.5, 0.9)])
def test_moment_table_is_the_scalar_moment_sum_bit_for_bit(nodes):
    ns = lg.build_node_set(nodes)
    table = ns.moment_table
    assert table.shape == (ns.s + 1, ns.s, lg.MOMENT_ORDERS)
    assert ns.moment_table is table
    for r, scale in enumerate(ns.scales.tolist()):
        for j in range(ns.s):
            for m in range(lg.MOMENT_ORDERS):
                want = _scalar_moment(ns, j, m, scale)
                assert table[r, j, m] == want
                assert lg.weighted_moment(ns, j, m, scale=scale) == want
