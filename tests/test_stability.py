import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from trigcolloc import lagrange as lg
from trigcolloc import stability as st
from trigcolloc.coeffs import WeightKind, scalar_weight
from trigcolloc.errors import (
    InvalidNodesError,
    OutsidePeriodicityError,
    SingularStageSystemError,
)
from trigcolloc.integrator import OscillatoryIVP, SolverConfig, solve
from trigcolloc.matfun import sinc

RNG_SEED = 555

# leading error constants of the one-parameter test family, for
# frequency ratio (omega, eps) = (1, 1/2): eps^2 / (24 (eps + omega^2)^2)
# and eps^2 / (6 (eps + omega^2)^2)
DISSIPATION_CONST = 0.25 / (24.0 * 2.25)
DISPERSION_CONST = 0.25 / (6.0 * 2.25)


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
    # with z = 0 the 2x2 matrix is the exact one-step propagator of
    # q'' + V q = 0 at h = 1
    ns = lg.gauss2()
    V = 2.7
    ivp1 = OscillatoryIVP(
        M=np.array([[V]]),
        force=lambda t, q: np.zeros(1),
        q0=np.array([1.0]),
        p0=np.array([0.0]),
        t_end=1.0,
    )
    ivp2 = OscillatoryIVP(
        M=np.array([[V]]),
        force=lambda t, q: np.zeros(1),
        q0=np.array([0.0]),
        p0=np.array([1.0]),
        t_end=1.0,
    )
    cfg = SolverConfig(h=1.0)
    t1 = solve(ivp1, cfg, node_set=ns)
    t2 = solve(ivp2, cfg, node_set=ns)
    sm = st.stability_matrix(ns, V, 0.0)
    propagator = np.array(
        [[t1.q[-1, 0], t2.q[-1, 0]], [t1.p[-1, 0], t2.p[-1, 0]]]
    )
    assert np.abs(sm.S - propagator).max() < 1e-13


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
    assert np.array_equal(stable, rows[finite, 2] < 1.0)
    periodic = rows[finite, 6].astype(bool)
    near_one = np.abs(rows[finite, 2] - 1.0) <= st.PERIODIC_RHO_TOL
    complex_pair = rows[finite, 3] ** 2 < 4.0 * rows[finite, 4]
    assert np.array_equal(periodic, near_one & complex_pair)


def _pointwise_row(ns, V, z):
    # the module docstring's formula, one point at a time
    lam = math.sqrt(V)
    c, s = ns.nodes, ns.s
    b_q = np.array([scalar_weight(ns, WeightKind.Q, j, lam) for j in range(s)])
    b_p = np.array([scalar_weight(ns, WeightKind.P, j, lam) for j in range(s)])
    A = np.array(
        [[scalar_weight(ns, WeightKind.STAGE, j, lam, i) for j in range(s)] for i in range(s)]
    )
    N = np.eye(s) + z * A
    if np.linalg.cond(N) > 1e12:
        return [V, z, np.nan, np.nan, np.nan, 0.0, 0.0]
    phi0, phi1 = math.cos(lam), float(sinc(lam))
    y0 = np.linalg.solve(N, np.cos(c * lam))
    y1 = np.linalg.solve(N, c * sinc(c * lam))
    S = np.array(
        [
            [phi0 - z * (b_q @ y0), phi1 - z * (b_q @ y1)],
            [-V * phi1 - z * (b_p @ y0), phi0 - z * (b_p @ y1)],
        ]
    )
    tr = S[0, 0] + S[1, 1]
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        r = math.sqrt(disc)
        rho = max(abs(tr + r), abs(tr - r)) / 2.0
    else:
        rho = math.sqrt(det)
    periodic = abs(rho - 1.0) <= st.PERIODIC_RHO_TOL and tr * tr < 4.0 * det
    return [V, z, rho, tr, det, float(rho < 1.0), float(periodic)]


def test_scan_matches_pointwise_formula_exactly():
    # the grid holds the singular point (V, z) = (0, -2)
    ns = lg.gauss2()
    rows = st.scan_region(ns, (0.0, 30.0), (-3.0, 1.0), (4, 9))
    vs, zs = np.linspace(0.0, 30.0, 4), np.linspace(-3.0, 1.0, 9)
    want = np.array([_pointwise_row(ns, V, z) for V in vs for z in zs])
    singular = np.isnan(want[:, 2])
    assert singular.sum() == 1
    assert np.array_equal(want[singular, :2], [[0.0, -2.0]])
    assert np.isnan(rows[singular, 2:5]).all()
    assert np.array_equal(rows[singular, 5:], [[0.0, 0.0]])
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
    # at V = 0 the raw stage-coupling matrix has eigenvalues 1/2 and 1/6,
    # so I + z A is exactly singular at z = -2 and z = -6
    ns = lg.gauss2()
    for z in (-2.0, -6.0):
        with pytest.raises(SingularStageSystemError):
            st.stability_matrix(ns, 0.0, z)
    rows = st.scan_region(ns, (0.0, 1.0), (-2.0, -1.0), (2, 2))
    assert rows.shape == (4, 7)
    bad = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == -2.0)]
    assert bad.shape[0] == 1
    assert np.isnan(bad[0, 2])
    assert bad[0, 5] == 0.0 and bad[0, 6] == 0.0
    good = rows[(rows[:, 0] == 1.0) & (rows[:, 1] == -2.0)]
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
    # (9, -8) puts S in the real-eigenvalue regime: |tr| > 2 sqrt(det)
    ns = lg.gauss2()
    with pytest.raises(OutsidePeriodicityError):
        st.dispersion_dissipation(ns, 9.0, -8.0)
    # moderate positive z keeps a complex pair and stays analyzable
    phase, amp = st.dispersion_dissipation(ns, 4.0, 5.0)
    assert math.isfinite(phase) and math.isfinite(amp)


def test_leading_error_constants():
    ns = lg.gauss2()
    omega, eps = 1.0, 0.5
    zeta = 1e-2
    h_sq = zeta**2 / (omega**2 + eps)
    phase, amp = st.dispersion_dissipation(ns, h_sq * omega**2, h_sq * eps)
    assert abs(amp / zeta**4 - DISSIPATION_CONST) < 0.05 * DISSIPATION_CONST
    assert abs(phase / zeta**3 - DISPERSION_CONST) < 0.05 * DISPERSION_CONST


def test_small_angle_errors_vanish_at_high_order():
    # on the pure test equation the map is a perturbation of a rotation:
    # phase error is cubic, amplitude error quartic in the angle
    ns = lg.gauss2()
    omega, eps = 1.0, 0.5
    prev_phase, prev_amp = None, None
    for zeta in (0.32, 0.16, 0.08):
        h_sq = zeta**2 / (omega**2 + eps)
        phase, amp = st.dispersion_dissipation(ns, h_sq * omega**2, h_sq * eps)
        if prev_phase is not None:
            assert abs(prev_phase / phase) > 6.0  # ~2^3
            assert abs(prev_amp / amp) > 12.0  # ~2^4
        prev_phase, prev_amp = phase, amp


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
@example(nodes=list(lg.GAUSS2_NODES), V=0.0, zs=[-2.0, -6.0, 1.0], log_gap=-12.0)
def test_screened_singular_flag_matches_the_svd_test(nodes, V, zs, log_gap):
    # z = -1/lambda for a real eigenvalue lambda of A makes N = I + z A
    # (numerically) singular, which the screen must hand to the SVD; moved
    # off it by a relative gap 10^log_gap, cond(N) lands near the 1e12
    # threshold, where a screen looser than the SVD test would show
    ns = _node_set_or_reject(nodes)
    lam, s = math.sqrt(V), ns.s
    A = np.array(
        [[scalar_weight(ns, WeightKind.STAGE, j, lam, i) for j in range(s)] for i in range(s)]
    )
    eig = np.linalg.eigvals(A)
    real = eig.real[(eig.imag == 0.0) & (eig.real != 0.0)]
    zs = np.concatenate((zs, -1.0 / real, -(1.0 + 10.0**log_gap) / real))
    N = np.eye(s) + zs[:, None, None] * A
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
