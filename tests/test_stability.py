import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from trigcolloc import lagrange as lg
from trigcolloc import stability as st
from trigcolloc.coeffs import WeightKind, build_table, scalar_weight
from trigcolloc.errors import (
    InvalidNodesError,
    OutsidePeriodicityError,
    SingularStageSystemError,
)
from trigcolloc.integrator import OscillatoryIVP, SolverConfig, step
from trigcolloc.matfun import sinc

RNG_SEED = 555

# z = 0, and five (V, z) points where a stage coupling without the c_i^2
# factor, I + z A, gives a map 0.003 to 1.5 away from the stepper's
ONE_STEP_POINTS = ((2.7, 0.0), (1.0, 0.5), (25.0, -3.0), (4.0, 1.0), (50.0, 2.0), (0.3, 0.1))


def phase_constant(omega, eps):
    # Gauss-2 phase error / zeta^5 -> r (3 - r) / 8640 with r = eps / (omega^2 + eps),
    # as tests/make_phase_constant.py derives it; 1/9720 at (1, 1/2)
    r = eps / (omega**2 + eps)
    return r * (3.0 - r) / 8640.0


def _errors_at(ns, omega, eps, zeta):
    h_sq = zeta**2 / (omega**2 + eps)
    return st.dispersion_dissipation(ns, h_sq * omega**2, h_sq * eps)


def _measured_map(table, z):
    # one integrator.step at h = 1 on q'' + V q = -z q, V = table.M, from
    # (q, p) = (1, 0) and (0, 1)
    ivp = OscillatoryIVP(
        M=table.M, force=lambda t, q: -z * q,
        q0=np.zeros(1), p0=np.zeros(1), t_end=1.0,
    )
    cols = [
        step(table, ivp, 0.0, np.array([q]), np.array([p]), SolverConfig(h=1.0))
        for q, p in ((1.0, 0.0), (0.0, 1.0))
    ]
    return np.array([[c.q[0] for c in cols], [c.p[0] for c in cols]])


def test_spectral_radius_matches_eigenvalues():
    rng = np.random.default_rng(RNG_SEED)
    S = rng.standard_normal((50, 2, 2))
    tr, det = np.trace(S, axis1=1, axis2=2), np.linalg.det(S)
    want = np.abs(np.linalg.eigvals(S)).max(axis=1)
    got = st.spectral_radius_2x2(tr, det)
    assert np.abs(got - want).max() < 1e-10
    # scalar calls agree with the array call bit for bit; NaN propagates
    one_by_one = [st.spectral_radius_2x2(float(a), float(b)) for a, b in zip(tr, det)]
    assert np.array_equal(got, one_by_one)
    assert np.isnan(st.spectral_radius_2x2(np.nan, 1.0))


def test_zero_forcing_column_is_exact_rotation():
    ns = lg.gauss2()
    for V in (0.0, 0.5, 4.0, 25.0, 80.0):
        sm = st.stability_matrix(ns, V, 0.0)
        assert abs(sm.rho - 1.0) < 1e-13
        lam = math.sqrt(V)
        want = np.array(
            [
                [math.cos(lam), 1.0 if V == 0.0 else math.sin(lam) / lam],
                [-lam * math.sin(lam), math.cos(lam)],
            ]
        )
        assert np.abs(sm.S - want).max() < 1e-13


def test_matches_one_step_map_at_zero_forcing():
    # S is the map one step of the integrator applies at h = 1 to
    # q'' + V q = -z q: the exact propagator at z = 0, and for z != 0 the
    # stepper's stage coupling I + z diag(c^2) A
    for s in range(1, 5):
        ns = lg.gauss_nodes(s)
        for V, z in ONE_STEP_POINTS:
            measured = _measured_map(build_table(ns, np.array([[V]]), 1.0), z)
            assert np.abs(st.stability_matrix(ns, V, z).S - measured).max() < 1e-13, (s, V, z)


def test_scan_layout_and_flags():
    ns = lg.gauss2()
    rows = st.scan_region(ns, (0.0, 10.0), (-2.0, 2.0), (6, 5))
    assert rows.shape == (30, 7)
    vs = np.linspace(0.0, 10.0, 6)
    zs = np.linspace(-2.0, 2.0, 5)
    assert np.allclose(rows[:, 0], np.repeat(vs, 5))
    assert np.allclose(rows[:, 1], np.tile(zs, 6))
    finite = np.isfinite(rows[:, 2])
    stable = rows[finite, 5].astype(bool)
    assert np.array_equal(stable, rows[finite, 2] <= 1.0 + st.PERIODIC_RHO_TOL)
    # z = 0 is an exact rotation, stable whatever the last bit of rho
    assert rows[rows[:, 1] == 0.0, 5].all()
    periodic = rows[finite, 6].astype(bool)
    near_one = np.abs(rows[finite, 2] - 1.0) <= st.PERIODIC_RHO_TOL
    # a complex pair clear of round-off: (a - d)^2 + 4bc < -tol for S = [[a, b], [c, d]]
    S = np.array([st.stability_matrix(ns, V, z).S for V, z in rows[finite, :2]])
    disc = (S[:, 0, 0] - S[:, 1, 1]) ** 2 + 4.0 * S[:, 0, 1] * S[:, 1, 0]
    assert np.array_equal(periodic, near_one & (disc < -st.PERIODIC_RHO_TOL))


@pytest.mark.parametrize("ns", [lg.gauss_nodes(2), lg.gauss_nodes(3)], ids=["gauss2", "gauss3"])
def test_zero_frequency_diagonal_is_not_periodic(ns):
    # on V + z = 0 the test equation is q'' = 0 and S is a Jordan block,
    # whose tr^2 - 4 det is round-off of either sign
    rows = st.scan_region(ns, (0.0, 100.0), (-5.0, 5.0), (201, 201))
    diagonal = np.isclose(rows[:, 0] + rows[:, 1], 0.0, rtol=0.0, atol=1e-12)
    assert np.count_nonzero(diagonal) == 11
    assert not rows[diagonal, 6].any()


@pytest.mark.parametrize("nodes", [1, 2, 3, (0.1, 0.5, 0.9)])
def test_stability_matrix_is_the_tables_map(nodes):
    # S is the 1 x 1 table's one-step map at h = 1, bit for bit: the
    # propagator at z = 0, and with the stage system solved elsewhere
    ns = lg.gauss_nodes(nodes) if isinstance(nodes, int) else lg.build_node_set(nodes)
    for V in np.linspace(0.0, 60.0, 31):
        table = build_table(ns, np.array([[V]]), 1.0)
        assert np.array_equal(st.stability_matrix(ns, V, 0.0).S, table.propagator)
        for z in (-3.5, -0.7, 0.45, 2.0, 6.0):
            N = np.eye(ns.s) + z * table.stage_matrix
            want = table.propagator - z * (table.force_matrix @ np.linalg.solve(N, table.predictor))
            assert np.array_equal(st.stability_matrix(ns, V, z).S, want)


def _stage_coupling(ns, lam):
    # the stage weights A[i, j] scaled by c_i^2, as the stepper couples the stages
    s = ns.s
    A = np.array(
        [[scalar_weight(ns, WeightKind.STAGE, j, lam, i) for j in range(s)] for i in range(s)]
    )
    return (ns.nodes**2)[:, None] * A


def _pointwise_row(ns, V, z):
    # the module docstring's formula, one point at a time, from scalar weights
    lam = math.sqrt(V)
    c, s = ns.nodes, ns.s
    b_q = [scalar_weight(ns, WeightKind.Q, j, lam) for j in range(s)]
    b_p = [scalar_weight(ns, WeightKind.P, j, lam) for j in range(s)]
    N = np.eye(s) + z * _stage_coupling(ns, lam)
    if np.linalg.cond(N) > 1e12:
        return [V, z, np.nan, np.nan, np.nan, 0.0, 0.0]
    phi0, phi1 = math.cos(lam), float(sinc(lam))
    predictor = np.array([np.cos(c * lam), c * sinc(c * lam)]).T
    force = np.array([b_q, b_p])
    y = np.linalg.solve(N, predictor)
    S = np.array([[phi0, phi1], [-lam * math.sin(lam), phi0]]) - z * (force @ y)
    tr = S[0, 0] + S[1, 1]
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        r = math.sqrt(disc)
        rho = max(abs(tr + r), abs(tr - r)) / 2.0
    else:
        rho = math.sqrt(det)
    disc = (S[0, 0] - S[1, 1]) ** 2 + 4.0 * S[0, 1] * S[1, 0]
    periodic = abs(rho - 1.0) <= st.PERIODIC_RHO_TOL and disc < -st.PERIODIC_RHO_TOL
    stable = rho <= 1.0 + st.PERIODIC_RHO_TOL
    return [V, z, rho, tr, det, float(stable), float(periodic)]


def test_scan_matches_pointwise_formula_exactly():
    # Gauss-2 has no singular point on this grid; the one-node set c = 1/2
    # has one at (V, z) = (0, -8), where 1 + z c^2 A = 1 - 8 / 8 = 0
    for ns, at_singular in ((lg.gauss2(), []), (lg.build_node_set([0.5]), [[0.0, -8.0]])):
        rows = st.scan_region(ns, (0.0, 30.0), (-8.0, 1.0), (4, 10))
        vs, zs = np.linspace(0.0, 30.0, 4), np.linspace(-8.0, 1.0, 10)
        want = np.array([_pointwise_row(ns, V, z) for V in vs for z in zs])
        singular = np.isnan(want[:, 2])
        assert want[singular, :2].tolist() == at_singular
        assert np.isnan(rows[singular, 2:5]).all()
        assert not rows[singular, 5:].any()
        assert np.array_equal(rows[~singular], want[~singular])
        assert np.array_equal(rows[singular, :2], want[singular, :2])


def test_scan_rejects_bad_grids():
    ns = lg.gauss2()
    with pytest.raises(ValueError):
        st.scan_region(ns, (0.0, 1.0), (0.0, 1.0), (1, 5))
    with pytest.raises(ValueError):
        st.scan_region(ns, (-1.0, 1.0), (0.0, 1.0), (3, 3))
    # non-finite bounds, and a negative upper V bound, are refused up front
    # (not by a LinAlgError, also a ValueError, from inside the scan)
    for v_range, z_range in (
        ((0.0, math.nan), (0.0, 1.0)), ((0.0, math.inf), (0.0, 1.0)),
        ((0.0, 1.0), (-math.inf, 0.0)), ((0.0, -1.0), (0.0, 1.0)),
    ):
        with pytest.raises(ValueError, match="ranges? must be"):
            st.scan_region(ns, v_range, z_range, (3, 3))


def test_singular_stage_system_is_reported():
    # one node c = 1/2: at V = 0 the stage weight is A = 1/2, so the stage
    # system 1 + z c^2 A = 1 + z / 8 is exactly singular at z = -8
    ns = lg.build_node_set([0.5])
    assert 1.0 - 8.0 * _stage_coupling(ns, 0.0)[0, 0] == 0.0
    with pytest.raises(SingularStageSystemError):
        st.stability_matrix(ns, 0.0, -8.0)
    rows = st.scan_region(ns, (0.0, 1.0), (-8.0, -7.0), (2, 2))
    assert rows.shape == (4, 7)
    bad = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == -8.0)]
    assert bad.shape[0] == 1
    assert np.isnan(bad[0, 2])
    assert bad[0, 5] == 0.0 and bad[0, 6] == 0.0
    good = rows[(rows[:, 0] == 1.0) & (rows[:, 1] == -8.0)]
    assert np.isfinite(good[0, 2])


def test_dispersion_dissipation_rejects_degenerate_inputs():
    ns = lg.gauss2()
    with pytest.raises(OutsidePeriodicityError):
        st.dispersion_dissipation(ns, 1.0, -1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["V", "z"])
@pytest.mark.parametrize("analysis", [st.stability_matrix, st.dispersion_dissipation])
def test_nonfinite_point_is_rejected_by_name(analysis, name, value):
    # without the check, nan ended in an SVD failure, V = inf in a math
    # domain error and z = inf in SingularStageSystemError, none naming it
    point = {"V": 1.0, "z": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite") as err:
        analysis(lg.gauss2(), point["V"], point["z"])
    assert type(err.value) is ValueError


def test_outside_periodicity_raises():
    # (25, 15) puts S in the real-eigenvalue regime: |tr| > 2 sqrt(det)
    ns = lg.gauss2()
    sm = st.stability_matrix(ns, 25.0, 15.0)
    assert sm.trace**2 > 4.0 * sm.det > 0.0
    with pytest.raises(OutsidePeriodicityError, match="outside the periodicity regime"):
        st.dispersion_dissipation(ns, 25.0, 15.0)
    # moderate positive z keeps a complex pair and stays analyzable
    phase, amp = st.dispersion_dissipation(ns, 4.0, 5.0)
    assert math.isfinite(phase) and math.isfinite(amp)


def test_leading_error_constants():
    # the symmetric method does not dissipate (det S = 1 up to round-off),
    # and its phase error is kappa(r) zeta^5 (1 + O(zeta^2)) for frequency
    # ratios on both sides of r = 0 (eps < 0 included): the deviation from
    # kappa shrinks about 4x per halving of zeta
    ns = lg.gauss2()
    for omega, eps in ((1.0, 0.5), (1.0, 2.0), (1.0, -0.5), (0.5, 3.0)):
        devs = []
        for zeta in (0.16, 0.08, 0.04, 0.02):
            phase, amp = _errors_at(ns, omega, eps, zeta)
            assert abs(amp) <= 1e-13
            devs.append(abs(phase / zeta**5 / phase_constant(omega, eps) - 1.0))
        assert max(devs) < 0.01
        assert all(coarse >= 3.0 * fine for coarse, fine in zip(devs, devs[1:]))


def test_small_angle_errors_vanish_at_high_order():
    # on the pure test equation the map is a rotation to round-off: no
    # amplitude error, and a phase error of fifth order in the angle
    ns = lg.gauss2()
    prev_phase = None
    for zeta in (0.32, 0.16, 0.08):
        phase, amp = _errors_at(ns, 1.0, 0.5, zeta)
        assert abs(amp) <= 1e-13
        if prev_phase is not None:
            assert prev_phase / phase > 28.0  # ~2^5
        prev_phase = phase


def _node_set_or_reject(nodes):
    try:
        return lg.build_node_set(nodes)
    except InvalidNodesError:
        assume(False)  # nodes closer than MIN_NODE_GAP


NODE_LISTS = hst.lists(hst.floats(0.0, 1.0), min_size=1, max_size=4, unique=True)


@settings(max_examples=50, deadline=None)
@given(
    nodes=NODE_LISTS,
    V=hst.floats(0.0, 100.0),
    zs=hst.lists(hst.floats(-20.0, 20.0), min_size=1, max_size=4),
    log_gap=hst.floats(-15.0, -8.0),
)
@example(nodes=[0.5], V=0.0, zs=[-8.0, 1.0], log_gap=-12.0)
@example(nodes=[2.2826785862339383e-151], V=0.0, zs=[0.0], log_gap=-8.0)
def test_screened_singular_flag_matches_the_svd_test(nodes, V, zs, log_gap):
    # z = -1/lambda for a real eigenvalue lambda of K = diag(c^2) A makes
    # N = I + z K (numerically) singular, which the screen must hand to the
    # SVD; moved off it by a relative gap 10^log_gap, cond(N) lands near the
    # 1e12 threshold, where a screen looser than the SVD test would show
    ns = _node_set_or_reject(nodes)
    K = _stage_coupling(ns, math.sqrt(V))
    eig = np.linalg.eigvals(K)
    real = eig.real[(eig.imag == 0.0) & (eig.real != 0.0)]
    # a node near 0 gives a subnormal eigenvalue and z = -inf, which the
    # public API refuses
    with np.errstate(over="ignore"):
        zs = np.concatenate((zs, -1.0 / real, -(1.0 + 10.0**log_gap) / real))
    zs = zs[np.isfinite(zs)]
    N = np.eye(ns.s) + zs[:, None, None] * K
    want = np.linalg.cond(N) > 1e12
    assert np.array_equal(st._singular(N), want)
    S = st._stability_batch(ns, np.array([V]), zs)
    assert np.array_equal(np.isnan(S).any(axis=(1, 2)), want)


@settings(max_examples=50, deadline=None)
@given(
    nodes=NODE_LISTS,
    v_hi=hst.floats(0.1, 100.0),
    z_range=hst.tuples(hst.floats(-10.0, 10.0), hst.floats(-10.0, 10.0)),
    grid=hst.tuples(hst.integers(2, 4), hst.integers(2, 4)),
)
def test_scan_matches_pointwise_formula_on_random_grids(nodes, v_hi, z_range, grid):
    ns = _node_set_or_reject(nodes)
    rows = st.scan_region(ns, (0.0, v_hi), z_range, grid)
    vs, zs = np.linspace(0.0, v_hi, grid[0]), np.linspace(*z_range, grid[1])
    want = np.array([_pointwise_row(ns, V, z) for V in vs for z in zs])
    singular = np.isnan(want[:, 2])
    assert np.array_equal(np.isnan(rows[:, 2]), singular)
    assert np.array_equal(rows[~singular], want[~singular])
    assert np.array_equal(rows[singular, :2], want[singular, :2])
    assert np.array_equal(rows[singular, 5:], np.zeros((singular.sum(), 2)))


@settings(max_examples=50, deadline=None)
@given(nodes=NODE_LISTS, V=hst.floats(0.0, 100.0), z=hst.floats(-5.0, 5.0))
def test_matches_measured_step_map_on_random_nodes(nodes, V, z):
    ns = _node_set_or_reject(nodes)
    # the stage iteration converges within its 50 sweeps where the sweep map
    # Q -> -z diag(c^2) A Q contracts by 1/2 in the max norm
    table = build_table(ns, np.array([[V]]), 1.0)
    assume(np.abs(z * table.stage_matrix).sum(axis=1).max() < 0.5)
    S = st.stability_matrix(ns, V, z).S
    # the stages it returns are within about 1e-14 of the fixed point, an
    # error the update scales by |z| ||force_matrix||, which close nodes make large
    gain = 1.0 + np.abs(z * table.force_matrix).sum(axis=1).max()
    assert np.abs(S - _measured_map(table, z)).max() < 1e-13 * gain * (1.0 + np.abs(S).max())
