import math

import numpy as np
import pytest

from trigcolloc import coeffs as cf
from trigcolloc import integrator as it
from trigcolloc import lagrange as lg
from trigcolloc import matfun as mf
from trigcolloc.errors import (
    AsymmetricMatrixError,
    ContractionGuardError,
    OracleUnreliableError,
    StageIterationError,
)
from trigcolloc.integrator import OscillatoryIVP, SolverConfig

LINEAR_DEFECT_TOL = 1e-12
RNG_SEED = 1729


def linear_ivp(M, q0, p0, t_end):
    d = len(q0)
    return OscillatoryIVP(
        M=np.asarray(M, dtype=float),
        force=lambda t, q: np.zeros(d),
        q0=np.asarray(q0, dtype=float),
        p0=np.asarray(p0, dtype=float),
        t_end=t_end,
    )


def test_linear_step_matches_matrix_phi_solution():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d))
        M = (A @ A.T) / d + 0.1 * np.eye(d)
        q0 = rng.standard_normal(d)
        p0 = rng.standard_normal(d)
        h = float(rng.uniform(0.05, 0.6))
        ivp = linear_ivp(M, q0, p0, h)
        traj = it.solve(ivp, SolverConfig(h=h))
        sd = mf.decompose_symmetric(M)
        pair = mf.phi_pair_spectral(sd, h)
        q_want = pair.phi0 @ q0 + h * (pair.phi1 @ p0)
        p_want = -h * (M @ (pair.phi1 @ q0)) + pair.phi0 @ p0
        scale = np.abs(q0).max() + h * np.abs(p0).max()
        assert np.abs(traj.q[-1] - q_want).max() < LINEAR_DEFECT_TOL * scale
        assert np.abs(traj.p[-1] - p_want).max() < LINEAR_DEFECT_TOL * scale


def test_zero_matrix_step_equals_classical_tableau_map():
    # with M = 0 one step must reproduce the underlying polynomial
    # collocation map assembled by hand from the tableau weights
    ns = lg.gauss2()
    h = 0.3
    force = lambda t, q: np.array([math.sin(q[0]) - 0.25 * q[0] ** 3])
    q0, p0 = np.array([0.8]), np.array([-0.2])
    ivp = OscillatoryIVP(M=np.zeros((1, 1)), force=force, q0=q0, p0=p0, t_end=h)
    traj = it.solve(ivp, SolverConfig(h=h, tol=1e-15))

    c = ns.nodes
    b_q = [cf.zero_freq_weight(ns, cf.WeightKind.Q, j) for j in range(2)]
    b_p = [cf.zero_freq_weight(ns, cf.WeightKind.P, j) for j in range(2)]
    a_st = [
        [cf.zero_freq_weight(ns, cf.WeightKind.STAGE, j, i) for j in range(2)]
        for i in range(2)
    ]
    stages = [q0 + c[i] * h * p0 for i in range(2)]
    for _ in range(200):
        f = [force(c[j] * h, stages[j]) for j in range(2)]
        stages = [
            q0
            + c[i] * h * p0
            + (c[i] * h) ** 2 * sum(a_st[i][j] * f[j] for j in range(2))
            for i in range(2)
        ]
    f = [force(c[j] * h, stages[j]) for j in range(2)]
    q_want = q0 + h * p0 + h * h * sum(b_q[j] * f[j] for j in range(2))
    p_want = p0 + h * sum(b_p[j] * f[j] for j in range(2))
    assert abs(traj.q[-1, 0] - q_want[0]) < 1e-13
    assert abs(traj.p[-1, 0] - p_want[0]) < 1e-13


def test_single_step_accuracy_against_cosh():
    # q'' = q from (1, 0) has the solution cosh(t); one step of the
    # Gauss-2 scheme lands within its local truncation error, which
    # shrinks by about 2^6 per halving in q and 2^5 in p
    q_err, p_err = {}, {}
    for h in (0.2, 0.1):
        ivp = OscillatoryIVP(
            M=np.zeros((1, 1)),
            force=lambda t, q: q.copy(),
            q0=np.array([1.0]),
            p0=np.array([0.0]),
            t_end=h,
        )
        traj = it.solve(ivp, SolverConfig(h=h))
        q_err[h] = abs(traj.q[-1, 0] - math.cosh(h))
        p_err[h] = abs(traj.p[-1, 0] - math.sinh(h))
    assert q_err[0.2] < 5e-8
    assert p_err[0.2] < 2e-6
    assert q_err[0.2] / q_err[0.1] > 32.0
    assert p_err[0.2] / p_err[0.1] > 16.0


def test_zero_force_converges_in_one_sweep():
    ivp = linear_ivp(np.diag([4.0, 9.0]), [1.0, -1.0], [0.0, 0.5], 1.0)
    traj = it.solve(ivp, SolverConfig(h=0.1))
    assert np.all(traj.iterations == 1)
    assert np.all(traj.residuals == 0.0)


def test_fixed_iteration_mode_runs_exact_sweep_count():
    ivp = OscillatoryIVP(
        M=np.array([[4.0]]),
        force=lambda t, q: np.sin(q),
        q0=np.array([0.6]),
        p0=np.array([0.1]),
        t_end=0.5,
    )
    traj = it.solve(ivp, SolverConfig(h=0.1, iteration_mode="fixed", max_iter=5))
    assert np.all(traj.iterations == 5)


def test_stage_iteration_failure_carries_diagnostics():
    ivp = OscillatoryIVP(
        M=np.array([[1.0]]),
        force=lambda t, q: 100.0 * np.tanh(q),
        q0=np.array([1.0]),
        p0=np.array([0.0]),
        t_end=1.0,
    )
    with pytest.raises(StageIterationError) as err:
        it.solve(ivp, SolverConfig(h=0.5, tol=1e-15, max_iter=3))
    assert err.value.iterations == 3
    assert err.value.residual > 0.0
    # the failing step had completed no steps before it
    assert err.value.step_index == 0


@pytest.mark.parametrize("mode", ["fixed", "tolerance"])
def test_nonfinite_stage_residual_fails_at_once(mode):
    # h^2 * |f'| is far above 1, so the sweeps blow up to inf/nan
    ivp = OscillatoryIVP(
        M=np.array([[1.0]]),
        force=lambda t, q: -50.0 * q**3,
        q0=np.array([1.0]),
        p0=np.array([0.5]),
        t_end=1.0,
    )
    max_iter = 20
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StageIterationError) as err:
            it.solve(ivp, SolverConfig(h=0.5, iteration_mode=mode, max_iter=max_iter))
    assert err.value.step_index == 0
    assert err.value.iterations < max_iter
    assert not math.isfinite(err.value.residual)
    assert "residual history" in str(err.value)


def defining_step(table, ivp, t, q, p, h, sweeps):
    """One step from the raw weights and phi pairs, stage by stage.

    Runs exactly ``sweeps`` stage sweeps, then the update; returns
    (q_new, p_new, stages).
    """
    ns = table.node_set
    c, s = ns.nodes, ns.s
    M = table.M
    if table.path == "spectral":
        sd = mf.decompose_symmetric(M)
        pairs = [mf.phi_pair_spectral(sd, ci * h) for ci in c]
    else:
        pairs = [mf.phi_pair_series(ci * ci * h * h * M, scale=ci * h) for ci in c]
    pred = np.stack(
        [pairs[i].phi0 @ q + (c[i] * h) * (pairs[i].phi1 @ p) for i in range(s)]
    )
    stage_scaled = ((c * h) ** 2)[:, None, None, None] * table.stage_weights
    stage_t = t + c * h
    stages = pred.copy()
    for _ in range(sweeps):
        forces = np.stack([ivp.force(stage_t[j], stages[j]) for j in range(s)])
        stages = pred + np.einsum("ijkl,jl->ik", stage_scaled, forces)
    forces = np.stack([ivp.force(stage_t[j], stages[j]) for j in range(s)])
    phi0, phi1 = table.phi_main.phi0, table.phi_main.phi1
    q_new = (
        phi0 @ q + h * (phi1 @ p)
        + np.einsum("jkl,jl->k", h * h * table.weights_q, forces)
    )
    p_new = (
        -h * (M @ phi1) @ q + phi0 @ p
        + np.einsum("jkl,jl->k", h * table.weights_p, forces)
    )
    return q_new, p_new, stages


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("path", ["spectral", "series"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_step_matches_defining_formula(s, path, mode):
    # d = 5 differs from every s, so a transposed block cannot pass
    rng = np.random.default_rng(RNG_SEED + 10 * s)
    d = 5
    A = rng.standard_normal((d, d))
    M = A @ A.T / d + np.diag(np.linspace(1.0, 9.0, d))
    if path == "series":
        M = M + 0.5 * (A - A.T)  # non-symmetric
    B = rng.standard_normal((d, d))
    force = lambda t, x: -0.3 * x**3 + 0.2 * math.sin(t) * (B @ x)
    q0, p0 = rng.standard_normal(d), rng.standard_normal(d)
    h, t = 0.3, 0.7
    ivp = OscillatoryIVP(M=M, force=force, q0=q0, p0=p0, t_end=1.0)
    ns = lg.gauss_nodes(s)
    table = cf.build_table(ns, M, h, path=path)
    assert table.path == path
    cfg = SolverConfig(h=h, iteration_mode=mode, max_iter=4 if mode == "fixed" else 50)
    r = it.step(table, ivp, t, q0, p0, cfg)
    assert r.stages.shape == (s, d)
    q_want, p_want, stages_want = defining_step(table, ivp, t, q0, p0, h, r.iterations)
    for got, want in ((r.q, q_want), (r.p, p_want), (r.stages, stages_want)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_contraction_guard_blocks_large_steps():
    ivp = OscillatoryIVP(
        M=np.array([[1.0]]),
        force=lambda t, q: 50.0 * q,
        q0=np.array([1.0]),
        p0=np.array([0.0]),
        t_end=2.0,
        lipschitz=50.0,
    )
    cfg = SolverConfig(h=0.5, enforce_contraction_guard=True)
    assert it.check_contraction(lg.gauss2(), 0.5, 50.0) > 1.0
    with pytest.raises(ContractionGuardError):
        it.solve(ivp, cfg)


def test_grid_exact_multiple_hits_endpoint():
    ivp = linear_ivp([[1.0]], [1.0], [0.0], 1.0)
    traj = it.solve(ivp, SolverConfig(h=0.1))
    assert len(traj.t) == 11
    assert traj.t[-1] == 1.0
    assert np.abs(traj.t - 0.1 * np.arange(11)).max() < 1e-15


def test_grid_partial_final_step():
    ivp = linear_ivp([[1.0]], [1.0], [0.0], 1.0)
    traj = it.solve(ivp, SolverConfig(h=0.3))
    assert np.allclose(traj.t, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)
    # the shortened final step must be as exact as the full ones
    assert abs(traj.q[-1, 0] - math.cos(1.0)) < 1e-12


def test_time_reversal_round_trip():
    spec_force = lambda t, q: np.array([math.sin(q[0])])
    ivp = OscillatoryIVP(
        M=np.array([[9.0]]),
        force=spec_force,
        q0=np.array([0.4]),
        p0=np.array([0.3]),
        t_end=2.0,
    )
    fwd = it.solve(ivp, SolverConfig(h=0.05))
    back_ivp = OscillatoryIVP(
        M=np.array([[9.0]]),
        force=spec_force,
        q0=fwd.q[-1].copy(),
        p0=-fwd.p[-1].copy(),
        t_end=2.0,
    )
    back = it.solve(back_ivp, SolverConfig(h=0.05))
    assert abs(back.q[-1, 0] - ivp.q0[0]) < 1e-10
    assert abs(back.p[-1, 0] + ivp.p0[0]) < 1e-10


def test_energy_series_for_harmonic_oscillator():
    omega = 5.0
    ivp = OscillatoryIVP(
        M=np.array([[omega**2]]),
        force=lambda t, q: np.zeros(1),
        q0=np.array([1.0]),
        p0=np.array([0.0]),
        t_end=3.0,
        hamiltonian=lambda q, p: 0.5 * float(p @ p)
        + 0.5 * omega**2 * float(q @ q),
    )
    traj = it.solve(ivp, SolverConfig(h=0.05))
    assert traj.energy is not None
    assert traj.energy_drift().max() < 1e-11


def test_invariant_series_requires_skew_matrix():
    with pytest.raises(ValueError):
        OscillatoryIVP(
            M=np.zeros((2, 2)),
            force=lambda t, q: np.zeros(2),
            q0=np.array([1.0, 0.0]),
            p0=np.array([0.0, 1.0]),
            t_end=1.0,
            invariant=np.eye(2),
        )


def test_reference_solve_self_check():
    ivp = OscillatoryIVP(
        M=np.array([[4.0]]),
        force=lambda t, q: np.sin(q),
        q0=np.array([0.5]),
        p0=np.array([0.2]),
        t_end=1.0,
    )
    ref = it.reference_solve(ivp, 128)
    assert ref.endpoint_error < 1e-10
    # on a grid too coarse for the check tolerance the oracle refuses
    with pytest.raises(OracleUnreliableError):
        it.reference_solve(ivp, 64)


def test_reference_solve_scalar_cosine():
    ivp = linear_ivp([[1.0]], [1.0], [0.0], math.pi)
    ref = it.reference_solve(ivp, 32)
    assert abs(ref.q[-1, 0] + 1.0) < 1e-11


def test_estimate_order_midpoint_is_second_order():
    ns = lg.build_node_set([0.5])
    ivp = OscillatoryIVP(
        M=np.array([[4.0]]),
        force=lambda t, q: np.sin(q),
        q0=np.array([0.9]),
        p0=np.array([0.0]),
        t_end=2.0,
    )
    est = it.estimate_order(ivp, [0.1, 0.05, 0.025, 0.0125], node_set=ns)
    assert 1.7 < est.slope < 2.3


def test_estimate_order_excludes_roundoff_errors():
    ivp = linear_ivp(np.diag([1.0, 16.0]), [1.0, 0.3], [0.0, 0.1], 2.0)
    with pytest.raises(ValueError, match="floor"):
        it.estimate_order(ivp, [0.1, 0.05, 0.025])


def test_estimate_order_needs_three_steps():
    ivp = linear_ivp([[1.0]], [1.0], [0.0], 1.0)
    with pytest.raises(ValueError):
        it.estimate_order(ivp, [0.1, 0.05])


def test_ivp_validation():
    with pytest.raises(ValueError):
        OscillatoryIVP(
            M=np.zeros((2, 3)),
            force=lambda t, q: q,
            q0=np.zeros(2),
            p0=np.zeros(2),
            t_end=1.0,
        )
    with pytest.raises(ValueError):
        OscillatoryIVP(
            M=np.zeros((2, 2)),
            force=lambda t, q: q,
            q0=np.zeros(3),
            p0=np.zeros(2),
            t_end=1.0,
        )


def test_coefficient_path_detection():
    sym = linear_ivp(np.diag([1.0, 2.0]), [1.0, 1.0], [0.0, 0.0], 1.0)
    assert sym.coefficient_path() == "spectral"
    asym = OscillatoryIVP(
        M=np.array([[2.0, 1.0], [0.0, 2.0]]),
        force=lambda t, q: np.zeros(2),
        q0=np.ones(2),
        p0=np.zeros(2),
        t_end=1.0,
        symmetric=False,
    )
    assert asym.coefficient_path() == "series"


def test_one_symmetry_test_for_every_path_choice():
    # asymmetry just inside and just outside the shared relative tolerance
    ns = lg.gauss2()
    base = np.array([[2.0, 1.0], [1.0, 2.0]])
    for gap, sym in ((0.5 * mf.SYMMETRY_TOL, True), (4.0 * mf.SYMMETRY_TOL, False)):
        M = base.copy()
        M[0, 1] += gap * 2.0
        assert mf.is_symmetric(M) is sym
        ivp = linear_ivp(M, [1.0, 0.0], [0.0, 0.0], 1.0)
        assert ivp.coefficient_path() == ("spectral" if sym else "series")
        assert cf.build_table(ns, M, 0.1).path == ("spectral" if sym else "series")
        if sym:
            mf.decompose_symmetric(M)
        else:
            with pytest.raises(AsymmetricMatrixError):
                mf.decompose_symmetric(M)
