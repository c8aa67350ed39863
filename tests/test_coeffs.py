import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from trigcolloc import coeffs as cf
from trigcolloc import lagrange as lg
from trigcolloc import matfun as mf
from trigcolloc import stability as stab
from trigcolloc.coeffs import WeightKind
from trigcolloc.errors import (
    AsymmetricMatrixError,
    InvalidNodesError,
    SeriesConvergenceError,
)

from oracles import defining_weight

THREE_PATH_TOL = 1e-10
FROZEN_TOL = 1e-11
TABLEAU_TOL = 1e-14

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
    # the two branches of the evaluator at the q row (0) and the p row (s + 1)
    ns = lg.build_node_set(S3_NODES)
    lam = np.array([0.8, 0.8])
    rows = np.array([0, ns.s + 1])
    series = cf._series(ns, rows, lam)
    by_parts = cf._by_parts(ns, lam[:1])[rows, :, 0]
    assert np.abs(series - by_parts).max() < 1e-12


def test_scalar_weight_rejects_out_of_range_indices():
    ns = lg.gauss2()
    for kind, j, i in ((WeightKind.Q, -1, None), (WeightKind.P, 2, None),
                       (WeightKind.STAGE, 0, -1), (WeightKind.STAGE, 0, 2)):
        with pytest.raises(IndexError):
            cf.scalar_weight(ns, kind, j, 10.0, i)


def test_every_branch_rejects_an_out_of_range_stage_index():
    # i = -1 once picked the last node silently on every branch but by-parts
    ns = lg.gauss2()
    for i in (-1, 2):
        for lam in (0.0, 0.1, 10.0):
            with pytest.raises(IndexError):
                cf.scalar_weight(ns, WeightKind.STAGE, 0, lam, i)
            with pytest.raises(IndexError):
                cf.quadrature_weight(ns, WeightKind.STAGE, 0, lam * lam, i)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, -1e-300, 1e155])
def test_weights_reject_non_finite_negative_or_huge_frequencies(lam):
    # NaN once came back as a NaN weight and inf as a "math domain error"
    ns = lg.gauss2()
    with pytest.raises(ValueError, match="frequencies must be"):
        cf.scalar_weight(ns, WeightKind.Q, 0, lam)
    with pytest.raises(ValueError, match="frequencies must be"):
        cf.weights(ns, np.array([0.3, lam, 10.0]))


def test_weights_stay_finite_up_to_the_largest_frequency():
    # lam^m overflows for m >= 3 there; the scalar kernels raised OverflowError
    for nodes in ((1e-150, 0.5, 1.0), (0.0, 1.0), lg.gauss_nodes(6).nodes):
        ns = lg.build_node_set(nodes)
        for w in cf.weights(ns, np.array([cf.LAMBDA_MAX, 1e100, 0.5 / 1e-150])):
            assert np.isfinite(w).all()


@pytest.mark.parametrize(
    "h, entry", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (0.1, math.nan), (0.1, math.inf)]
)
def test_build_table_rejects_a_non_finite_step_or_matrix(h, entry):
    M = np.array([[4.0, entry], [entry, 3.0]])
    for path in ("auto", "spectral", "series"):
        with pytest.raises(ValueError):
            cf.build_table(lg.gauss2(), M, h, path=path)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=50, deadline=None)
@given(
    nodes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True),
    lams=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_weights_equal_each_weight_alone(nodes, lams, seed):
    # every entry is a function of its own frequency only, bit for bit,
    # whatever else shares the call and in whatever order
    try:
        ns = lg.build_node_set(nodes)
    except InvalidNodesError:
        assume(False)  # nodes closer than MIN_NODE_GAP
    switch = [cf.LAMBDA_SWITCH / c for c in ns.scales if c * cf.LAMBDA_MAX >= cf.LAMBDA_SWITCH]
    sides = [math.nextafter(x, d) for x in switch for d in (0.0, math.inf)]
    lam = np.array([0.0, *switch, *sides, *lams])
    batch = cf.weights(ns, lam)
    perm = np.random.default_rng(seed).permutation(lam.size)
    for got, want in zip(cf.weights(ns, lam[perm]), batch):
        assert np.array_equal(_bits(got), _bits(want[..., perm]))
    for k in range(lam.size):
        for alone, want in zip(cf.weights(ns, lam[k : k + 1]), batch):
            assert np.array_equal(_bits(alone[..., 0]), _bits(want[..., k]))


def test_by_parts_scans_and_tables_leave_the_moment_table_unbuilt():
    # the series branch alone reads the moments; the stability set-up at
    # V = 100 and a table with every c * lam above the switch never build them
    ns = lg.gauss2()
    stab.stability_matrix(ns, 100.0, 0.0)
    cf.build_table(ns, np.diag([900.0, 1600.0]), 0.5)
    assert "moment_table" not in vars(ns)
    cf.build_table(ns, np.diag([0.0, 1600.0]), 0.5)
    assert "moment_table" in vars(ns)


@pytest.mark.parametrize("nodes", [(1.0 / 3.0, 1.0), (0.2, 0.5, 1.0)])
def test_stage_weight_at_node_one_is_the_q_weight_exactly(nodes):
    # the q weight is the stage weight at scale c = 1, on every path
    ns = lg.build_node_set(nodes)
    last = ns.s - 1
    for lam in (0.0, 1e-3, 0.5, 0.7, 10.0, 100.0):
        for j in range(ns.s):
            stage = cf.scalar_weight(ns, WeightKind.STAGE, j, lam, last)
            assert stage == cf.scalar_weight(ns, WeightKind.Q, j, lam)
    M = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    for path in ("spectral", "series"):
        _, _, (b_q, _, A, *_) = cf.lifted_blocks(ns, M, 0.7, path)
        assert np.array_equal(A[last], b_q)


def test_series_guard_rejects_large_argument():
    # the q row at lam = 10: squared argument 100 > SERIES_NORM_GUARD
    ns = lg.gauss2()
    with pytest.raises(SeriesConvergenceError):
        cf._series(ns, np.array([0]), np.array([10.0]))


def test_zero_frequency_equals_gauss2_point_shorthand():
    ns = lg.gauss2()
    for j in range(2):
        q = cf.scalar_weight(ns, WeightKind.Q, j, 0.0)
        p = cf.scalar_weight(ns, WeightKind.P, j, 0.0)
        assert abs(q - lg.eval_basis(ns, j, 1.0 / 3.0) / 2.0) < TABLEAU_TOL
        assert abs(p - lg.eval_basis(ns, j, 0.5)) < TABLEAU_TOL
        for i in range(2):
            st = cf.scalar_weight(ns, WeightKind.STAGE, j, 0.0, i)
            short = lg.eval_basis(ns, j, ns.nodes[i] / 3.0) / 2.0
            assert abs(st - short) < TABLEAU_TOL


def _nodes_or_reject(nodes):
    # an int n stands for Gauss-n
    if isinstance(nodes, int):
        return lg.gauss_nodes(nodes)
    try:
        return lg.build_node_set(nodes)
    except InvalidNodesError:
        assume(False)  # nodes closer than MIN_NODE_GAP


NODES = st.one_of(
    st.integers(1, 4), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True)
)


def _random_spd(seed, eigenvalues):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    M = (basis * eigenvalues) @ basis.T
    return 0.5 * (M + M.T)


@settings(max_examples=50, deadline=None)
@given(
    nodes=NODES,
    log_eigs=st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=6),
    guard_share=st.floats(1e-4, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_paths_agree_on_random_spd(nodes, log_eigs, guard_share, seed):
    # SPD M with eigenvalues in [1e-2, 1e4], h up to the series guard
    # ||h^2 M||_inf <= 30: both paths give every array of the table and
    # the weights (b_q, b_p, A) it is built from
    ns = _nodes_or_reject(nodes)
    M = _random_spd(seed, 10.0 ** np.array(log_eigs))
    h = math.sqrt(guard_share * mf.SERIES_NORM_GUARD / np.abs(M).sum(axis=1).max())
    spec_table = cf.build_table(ns, M, h, path="spectral")
    ser_table = cf.build_table(ns, M, h, path="series")
    assert spec_table.path == "spectral"
    assert ser_table.path == "series"
    names = ("predictor", "stage_matrix", "propagator", "force_matrix")
    pairs = [(getattr(spec_table, name), getattr(ser_table, name)) for name in names]
    pairs += zip(cf.lifted_blocks(ns, M, h, "spectral")[2][:3],
                 cf.lifted_blocks(ns, M, h, "series")[2][:3])
    for a, b in pairs:
        assert np.abs(a - b).max() <= 1e-11 * max(1.0, np.abs(a).max())


def _flow(M, h):
    # the exact zero-force step on y = [q; p]: exp(h [[0, I], [-M, 0]])
    d = len(M)
    return expm(h * np.block([[np.zeros((d, d)), np.eye(d)], [-M, np.zeros((d, d))]]))


@settings(max_examples=50, deadline=None)
@given(
    eigenvalues=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6),
    h=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_propagator_is_the_exact_flow(eigenvalues, h, seed):
    # the linear part is integrated exactly, h w up to 50
    M = _random_spd(seed, np.array(eigenvalues))
    P = cf.build_table(lg.gauss2(), M, h, path="spectral").propagator
    E = _flow(M, h)
    assert np.abs(P - E).max() <= 1e-11 * max(1.0, np.abs(E).max())


@settings(max_examples=50, deadline=None)
@given(
    log_eigs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    guard_share=st.floats(1e-4, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_propagator_is_the_exact_flow(log_eigs, guard_share, seed):
    # non-symmetric, real-diagonalizable M = T diag(lam) T^-1 inside the guard
    d = len(log_eigs)
    T = np.eye(d) + 0.3 * np.random.default_rng(seed).standard_normal((d, d))
    assume(np.linalg.cond(T) < 1e3)
    M = np.linalg.solve(T.T, (T * 10.0 ** np.array(log_eigs)).T).T
    h = math.sqrt(guard_share * mf.SERIES_NORM_GUARD / np.abs(M).sum(axis=1).max())
    P = cf.build_table(lg.gauss2(), M, h, path="series").propagator
    E = _flow(M, h)
    assert np.abs(P - E).max() <= 1e-12 * max(1.0, np.abs(E).max())


def test_table_shapes_and_scalings():
    ns = lg.gauss2()
    M = np.diag([1.0, 9.0, 25.0])
    h = 0.3
    table = cf.build_table(ns, M, h)
    _, _, (b_q, b_p, A, *_) = cf.lifted_blocks(ns, M, h)
    d = 3
    assert b_q.shape == (2, d, d)
    assert b_p.shape == (2, d, d)
    assert A.shape == (2, 2, d, d)
    assert table.predictor.shape == (2 * d, 2 * d)
    assert table.stage_matrix.shape == (2 * d, 2 * d)
    assert table.propagator.shape == (2 * d, 2 * d)
    assert table.force_matrix.shape == (2 * d, 2 * d)
    blk = lambda k: slice(k * d, (k + 1) * d)
    for j in range(2):
        fq = table.force_matrix[:d, blk(j)]
        fp = table.force_matrix[d:, blk(j)]
        assert np.abs(fq - h * h * b_q[j]).max() == 0.0
        assert np.abs(fp - h * b_p[j]).max() == 0.0
    sd = mf.decompose_symmetric(M)
    for i in range(2):
        ci = ns.nodes[i]
        for j in range(2):
            want = (ci * h) ** 2 * A[i, j]
            assert np.abs(table.stage_matrix[blk(i), blk(j)] - want).max() == 0.0
        phi0, phi1 = mf.phi_pair_spectral(sd, ci * h)
        assert np.abs(table.predictor[blk(i), :d] - phi0).max() == 0.0
        assert np.abs(table.predictor[blk(i), d:] - ci * h * phi1).max() == 0.0
    phi0, phi1 = mf.phi_pair_spectral(sd, h)
    assert np.abs(table.propagator[:d, :d] - phi0).max() == 0.0
    assert np.abs(table.propagator[:d, d:] - h * phi1).max() == 0.0
    assert np.abs(table.propagator[d:, d:] - phi0).max() == 0.0
    p_lin = -h * (M @ phi1)
    assert np.abs(table.propagator[d:, :d] - p_lin).max() < 1e-14


@pytest.mark.parametrize("path", ["spectral", "series"])
def test_propagator_and_force_matrix_are_views_of_the_update(path):
    # one (2d, 2d + s*d) update and no second copy of its blocks
    ns, d, h = lg.gauss_nodes(3), 4, 0.2
    M = np.diag([1.0, 4.0, 9.0, 16.0]) + 0.1
    table = cf.build_table(ns, M, h, path=path)
    _, _, (b_q, b_p, _, phi0, phi1, p_block) = cf.lifted_blocks(ns, M, h, path)
    propagator = np.block([[phi0[0], h * phi1[0]], [p_block, phi0[0]]])
    force_matrix = np.block([[h * h * b for b in b_q], [h * b for b in b_p]])
    assert table.update.shape == (2 * d, 2 * d + ns.s * d)
    for view, want in ((table.propagator, propagator), (table.force_matrix, force_matrix)):
        assert np.shares_memory(view, table.update)
        assert np.array_equal(view, want)


@pytest.mark.parametrize("path", ["spectral", "series"])
@pytest.mark.parametrize("nodes", [[0.5], [0.2, 0.7], [0.1, 0.5, 0.9]])
def test_table_keeps_no_phi_or_p_block_rows_alive(path, nodes):
    # no array of the table keeps a larger buffer alive, and the table holds
    # exactly its four operators, M and stage_offsets: none of the lifted
    # blocks (weights, phi and p-block rows) it was built from
    ns = lg.build_node_set(nodes)
    d, sd = 4, ns.s * 4
    M = np.diag([1.0, 4.0, 9.0, 16.0]) + 0.1
    table = cf.build_table(ns, M, 0.2, path=path)
    values = (getattr(table, f.name) for f in dataclasses.fields(table))
    owners = []
    for arr in (v for v in values if isinstance(v, np.ndarray)):
        owner = arr
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == arr.nbytes
        owners.append(owner)
    operators = sd * 2 * d + sd * sd + 2 * d * 2 * d + 2 * d * sd
    assert sum(o.nbytes for o in owners) == 8 * (operators + d * d + ns.s)


def test_table_diagonal_matches_scalar_kernels():
    ns = lg.gauss2()
    omega = 3.0
    h = 0.25
    _, _, (b_q, b_p, A, *_) = cf.lifted_blocks(ns, np.array([[omega * omega]]), h)
    lam = h * omega
    for j in range(2):
        assert (
            abs(b_q[j, 0, 0] - cf.scalar_weight(ns, WeightKind.Q, j, lam))
            < 1e-13
        )
        assert (
            abs(b_p[j, 0, 0] - cf.scalar_weight(ns, WeightKind.P, j, lam))
            < 1e-13
        )
        for i in range(2):
            assert (
                abs(
                    A[i, j, 0, 0]
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
    _, _, (b_q, b_p, *_) = cf.lifted_blocks(ns, np.zeros((1, 1)), h)
    for j in range(2):
        assert (
            abs(b_q[j, 0, 0] - cf.scalar_weight(ns, WeightKind.Q, j, 0.0))
            < TABLEAU_TOL
        )
        assert (
            abs(b_p[j, 0, 0] - cf.scalar_weight(ns, WeightKind.P, j, 0.0))
            < TABLEAU_TOL
        )
    # propagator [[phi0, h phi1], [-h M phi1, phi0]] with unit phi factors
    want = np.array([[1.0, h], [0.0, 1.0]])
    assert np.abs(table.propagator - want).max() < TABLEAU_TOL * h


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    eigenvalues=st.lists(st.floats(0.0, 1e4), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=3, eigenvalues=[0.0, 8862.0, 8862.0, 0.0], seed=0)
def test_spectral_propagator_is_time_reversible(d, eigenvalues, seed):
    # P is the zero-force step; with R = diag(I, -I), R P R P = I exactly.
    # Its -h M phi1 block, built as Q diag(-w sin(h w)) Q^T, keeps the
    # defect at round-off (5.6e-16 for the example); formed as the product
    # -h * (M @ phi1) it was 4.6e-13 there.
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (basis * eigenvalues[:d]) @ basis.T
    M = 0.5 * (M + M.T)
    P = cf.build_table(lg.gauss2(), M, 0.1, path="spectral").propagator
    R = np.concatenate((np.ones(d), -np.ones(d)))
    assert np.abs((R[:, None] * P * R) @ P - np.eye(2 * d)).max() <= 1e-13
