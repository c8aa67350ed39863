import math

import numpy as np
import pytest

from trigcolloc import coeffs as cf
from trigcolloc import lagrange as lg
from trigcolloc import matfun as mf
from trigcolloc.coeffs import WeightKind
from trigcolloc.errors import (
    AsymmetricMatrixError,
    KernelBranchError,
    SeriesConvergenceError,
)

from oracles import defining_weight

THREE_PATH_TOL = 1e-10
FROZEN_TOL = 1e-11
TABLEAU_TOL = 1e-14
RNG_SEED = 424242

S3_NODES = [0.2, 0.5, 0.9]

# weights from the defining integrals, via an adaptive-Simpson run
# performed independently of the implementation
FROZEN_WEIGHTS = {
    ("g2", WeightKind.Q, 0, 1.0, None): 0.35337841945866816,
    ("g2", WeightKind.Q, 1, 10.0, None): 0.011531311289952492,
    ("g2", WeightKind.P, 0, 0.3, None): 0.4860773645605524,
    ("g2", WeightKind.P, 1, 100.0, None): 0.001877273953341764,
    ("g2", WeightKind.STAGE, 1, 1.0, 0): -0.12146446839812318,
    ("g2", WeightKind.STAGE, 0, 10.0, 1): 0.0035026587188713657,
    ("s3", WeightKind.P, 0, 2.0, None): -0.08754204029591353,
    ("s3", WeightKind.STAGE, 1, 3.0, 2): 0.11852789325748675,
}


def node_set(tag):
    return lg.gauss2() if tag == "g2" else lg.build_node_set(S3_NODES)


@pytest.mark.parametrize("key", sorted(FROZEN_WEIGHTS, key=str))
def test_scalar_weight_frozen_values(key):
    tag, kind, j, lam, i = key
    got = cf.scalar_weight(node_set(tag), kind, j, lam, i)
    assert abs(got - FROZEN_WEIGHTS[key]) < FROZEN_TOL


def test_three_paths_agree_with_defining_integral():
    ns = lg.gauss2()
    for lam in (1e-3, 1e-2, 0.1, 0.5, 1.0, 10.0, 100.0):
        for kind in WeightKind:
            idxs = range(ns.s) if kind is WeightKind.STAGE else [None]
            for j in range(ns.s):
                for i in idxs:
                    ref = defining_weight(ns, kind, j, lam, i)
                    got = cf.scalar_weight(ns, kind, j, lam, i)
                    quad = cf.quadrature_weight(ns, kind, j, lam * lam, i)
                    assert abs(got - ref) < THREE_PATH_TOL * (1.0 + abs(ref))
                    assert abs(got - quad) < THREE_PATH_TOL * (1.0 + abs(quad))


def test_dispatch_is_continuous_at_switch():
    ns = lg.gauss2()
    for kind in (WeightKind.Q, WeightKind.P):
        for j in range(ns.s):
            below = cf.scalar_weight(ns, kind, j, cf.LAMBDA_SWITCH - 1e-9)
            above = cf.scalar_weight(ns, kind, j, cf.LAMBDA_SWITCH + 1e-9)
            assert abs(below - above) < 1e-8


def test_series_agrees_with_recursion_above_switch():
    ns = lg.build_node_set(S3_NODES)
    lam = 0.8
    for kind in (WeightKind.Q, WeightKind.P):
        for j in range(ns.s):
            a = cf.series_weight(ns, kind, j, lam * lam)
            b = cf.recursion_weight(ns, kind, j, lam)
            assert abs(a - b) < 1e-12


def test_recursion_refuses_small_argument():
    ns = lg.gauss2()
    with pytest.raises(KernelBranchError):
        cf.recursion_weight(ns, WeightKind.Q, 0, 0.1)
    # stage kind dispatches on c_i * lam, so lam may exceed the switch
    with pytest.raises(KernelBranchError):
        cf.recursion_weight(ns, WeightKind.STAGE, 0, 0.6, 0)


def test_series_guard_rejects_large_argument():
    ns = lg.gauss2()
    with pytest.raises(SeriesConvergenceError):
        cf.series_weight(ns, WeightKind.Q, 0, 100.0)


def test_zero_frequency_equals_gauss2_point_shorthand():
    ns = lg.gauss2()
    for j in range(2):
        q = cf.zero_freq_weight(ns, WeightKind.Q, j)
        p = cf.zero_freq_weight(ns, WeightKind.P, j)
        assert abs(q - lg.eval_basis(ns, j, 1.0 / 3.0) / 2.0) < TABLEAU_TOL
        assert abs(p - lg.eval_basis(ns, j, 0.5)) < TABLEAU_TOL
        for i in range(2):
            st = cf.zero_freq_weight(ns, WeightKind.STAGE, j, i)
            short = lg.eval_basis(ns, j, ns.nodes[i] / 3.0) / 2.0
            assert abs(st - short) < TABLEAU_TOL


def test_table_paths_agree_on_random_spd():
    rng = np.random.default_rng(RNG_SEED)
    ns = lg.gauss2()
    d = 4
    A = rng.standard_normal((d, d))
    M = (A @ A.T) / d + 0.5 * np.eye(d)
    h = 0.4
    spec_table = cf.build_table(ns, M, h, path="spectral")
    ser_table = cf.build_table(ns, M, h, path="series")
    assert spec_table.path == "spectral"
    assert ser_table.path == "series"
    for name in ("weights_q", "weights_p", "stage_weights", "force_matrix"):
        a = getattr(spec_table, name)
        b = getattr(ser_table, name)
        assert np.abs(a - b).max() < 1e-12
    assert np.abs(spec_table.phi_main.phi0 - ser_table.phi_main.phi0).max() < 1e-12
    assert np.abs(spec_table.propagator - ser_table.propagator).max() < 1e-12


def test_table_shapes_and_scalings():
    ns = lg.gauss2()
    M = np.diag([1.0, 9.0, 25.0])
    h = 0.3
    table = cf.build_table(ns, M, h)
    d = 3
    assert table.weights_q.shape == (2, d, d)
    assert table.weights_p.shape == (2, d, d)
    assert table.stage_weights.shape == (2, 2, d, d)
    assert table.predictor.shape == (2 * d, 2 * d)
    assert table.stage_matrix.shape == (2 * d, 2 * d)
    assert table.propagator.shape == (2 * d, 2 * d)
    assert table.force_matrix.shape == (2 * d, 2 * d)
    blk = lambda k: slice(k * d, (k + 1) * d)
    for j in range(2):
        fq = table.force_matrix[:d, blk(j)]
        fp = table.force_matrix[d:, blk(j)]
        assert np.abs(fq - h * h * table.weights_q[j]).max() == 0.0
        assert np.abs(fp - h * table.weights_p[j]).max() == 0.0
    sd = mf.decompose_symmetric(M)
    for i in range(2):
        ci = ns.nodes[i]
        for j in range(2):
            want = (ci * h) ** 2 * table.stage_weights[i, j]
            assert np.abs(table.stage_matrix[blk(i), blk(j)] - want).max() == 0.0
        pair = mf.phi_pair_spectral(sd, ci * h)
        assert np.abs(table.predictor[blk(i), :d] - pair.phi0).max() == 0.0
        assert np.abs(table.predictor[blk(i), d:] - ci * h * pair.phi1).max() == 0.0
    phi0, phi1 = table.phi_main.phi0, table.phi_main.phi1
    assert np.abs(table.propagator[:d, :d] - phi0).max() == 0.0
    assert np.abs(table.propagator[:d, d:] - h * phi1).max() == 0.0
    assert np.abs(table.propagator[d:, d:] - phi0).max() == 0.0
    p_lin = -h * (M @ phi1)
    assert np.abs(table.propagator[d:, :d] - p_lin).max() < 1e-14


def test_table_diagonal_matches_scalar_kernels():
    ns = lg.gauss2()
    omega = 3.0
    h = 0.25
    table = cf.build_table(ns, np.array([[omega * omega]]), h)
    lam = h * omega
    for j in range(2):
        assert (
            abs(table.weights_q[j, 0, 0] - cf.scalar_weight(ns, WeightKind.Q, j, lam))
            < 1e-13
        )
        assert (
            abs(table.weights_p[j, 0, 0] - cf.scalar_weight(ns, WeightKind.P, j, lam))
            < 1e-13
        )
        for i in range(2):
            assert (
                abs(
                    table.stage_weights[i, j, 0, 0]
                    - cf.scalar_weight(ns, WeightKind.STAGE, j, lam, i)
                )
                < 1e-13
            )


def test_asymmetric_matrix_routes_to_series():
    ns = lg.gauss2()
    M = np.array([[2.0, 1.0], [0.5, 2.0]])
    with pytest.raises(AsymmetricMatrixError):
        cf.build_table(ns, M, 0.1, path="spectral")
    table = cf.build_table(ns, M, 0.1, path="auto")
    assert table.path == "series"


def test_series_table_norm_guard():
    ns = lg.gauss2()
    M = np.array([[2.0, 1.0], [0.5, 2.0]])
    with pytest.raises(SeriesConvergenceError):
        cf.build_table(ns, 1e4 * M, 0.1, path="series")


def test_zero_matrix_table_is_classical_tableau():
    ns = lg.gauss2()
    h = 0.5
    table = cf.build_table(ns, np.zeros((1, 1)), h)
    for j in range(2):
        assert (
            abs(table.weights_q[j, 0, 0] - cf.zero_freq_weight(ns, WeightKind.Q, j))
            < TABLEAU_TOL
        )
        assert (
            abs(table.weights_p[j, 0, 0] - cf.zero_freq_weight(ns, WeightKind.P, j))
            < TABLEAU_TOL
        )
    assert abs(table.phi_main.phi0[0, 0] - 1.0) < TABLEAU_TOL
    assert abs(table.phi_main.phi1[0, 0] - 1.0) < TABLEAU_TOL
