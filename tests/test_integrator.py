import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigcolloc import coeffs as cf
from trigcolloc import integrator as it
from trigcolloc import lagrange as lg
from trigcolloc import matfun as mf
from trigcolloc.errors import (
    AsymmetricMatrixError,
    OracleUnreliableError,
    StageIterationError,
)
from trigcolloc.integrator import OscillatoryIVP, SolverConfig
from trigcolloc.problems import build_problem

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
        phi0, phi1 = mf.phi_pair_spectral(sd, h)
        q_want = phi0 @ q0 + h * (phi1 @ p0)
        p_want = -h * (M @ (phi1 @ q0)) + phi0 @ p0
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
    b_q = [cf.scalar_weight(ns, cf.WeightKind.Q, j, 0.0) for j in range(2)]
    b_p = [cf.scalar_weight(ns, cf.WeightKind.P, j, 0.0) for j in range(2)]
    a_st = [
        [cf.scalar_weight(ns, cf.WeightKind.STAGE, j, 0.0, i) for j in range(2)]
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


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_force_in_one_stage_component_fails_at_once(bad, component, vectorized):
    # The force is finite before t = 0.35 and then turns bad in one element of
    # F: the second stage of step 3 (Gauss-2 stage times 0.321, 0.379), in one
    # component of a diagonal M, while the other component is far larger.  The
    # sweep's product spreads it to every stage value (0 * NaN is NaN), and
    # the residual, read at the argmax of |new - previous|, is not finite.
    # That read relies on numpy putting the argmax at the first NaN, so that
    # a NaN beside larger finite values still reads as NaN:
    assert np.argmax([2.0, math.nan, 3.0]) == 1
    h, t_bad = 0.1, 0.35
    other = 1 - component

    def force(t, q):
        out = -0.1 * q
        out[..., component] = np.where(np.ravel(t) > t_bad, bad, out[..., component])
        return out

    q0 = np.zeros(2)
    q0[component], q0[other] = 1e-3, 10.0
    ivp = OscillatoryIVP(
        M=np.diag([1.0, 9.0]), force=force, q0=q0, p0=np.zeros(2), t_end=1.0,
        vectorized=vectorized,
    )
    for mode in ("tolerance", "fixed"):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(StageIterationError) as err:
                it.solve(ivp, SolverConfig(h=h, iteration_mode=mode, max_iter=5))
        assert err.value.step_index == 3
        assert err.value.iterations == 1
        assert not math.isfinite(err.value.residual)
        assert "not finite at sweep 1" in str(err.value)


def test_step_rejects_a_table_built_for_another_step():
    # the stage iteration alone does not use the table's h in an update
    ivp = build_problem("fpu").ivp
    table = cf.build_table(lg.gauss2(), ivp.M, 0.01)
    cfg = SolverConfig(h=0.02)
    with pytest.raises(ValueError, match="does not match config step"):
        it.step(table, ivp, 0.0, ivp.q0, ivp.p0, cfg)
    stages, _, _ = it.fixed_point_stages(table, ivp, 0.0, ivp.q0, ivp.p0, cfg)
    assert stages.shape == (2, ivp.dim)


def test_steps_leave_their_table_unwritten():
    # each step writes its predictor term into the stepper's own copy of
    # [stage_matrix | pred], never into the table
    rng = np.random.default_rng(RNG_SEED)
    ivp = build_problem("fpu").ivp
    ns = lg.gauss_nodes(3)
    cfg = SolverConfig(h=0.01)
    table = cf.build_table(ns, ivp.M, cfg.h)
    arrays = {name: value for name, value in vars(table).items() if isinstance(value, np.ndarray)}
    arrays.update(nodes=ns.nodes, extrapolation=ns.extrapolation)
    before = {name: value.copy() for name, value in arrays.items()}
    first = it.step(table, ivp, 0.0, ivp.q0, ivp.p0, cfg)
    q, p = first.q + rng.standard_normal(ivp.dim), first.p + rng.standard_normal(ivp.dim)
    second = it.step(table, ivp, 0.3, q, p, cfg, start=first.forces)
    for name, value in arrays.items():
        assert np.array_equal(value, before[name]), name
    fresh = it.step(cf.build_table(ns, ivp.M, cfg.h), ivp, 0.3, q, p, cfg, start=first.forces)
    for got, want in ((second.q, fresh.q), (second.p, fresh.p), (second.stages, fresh.stages)):
        assert np.array_equal(got, want)
    assert not np.shares_memory(it._Stepper(table, ivp, cfg)._W, table.stage_matrix)


def defining_step(table, ivp, t, q, p, h, sweeps):
    """One step from the raw weights (lifted_blocks) and phi pairs, stage by stage.

    Runs exactly ``sweeps`` stage sweeps, then the update; returns
    (q_new, p_new, stages).
    """
    ns = table.node_set
    c, s = ns.nodes, ns.s
    M = table.M
    _, _, (b_q, b_p, A, *_) = cf.lifted_blocks(ns, ivp.M, h, table.path)
    if table.path == "spectral":
        sd = mf.decompose_symmetric(M)
        pairs = [mf.phi_pair_spectral(sd, ci * h) for ci in c]
        main = mf.phi_pair_spectral(sd, h)
    else:
        pairs = [mf.phi_pair_series(ci * ci * h * h * M) for ci in c]
        main = mf.phi_pair_series(h * h * M)
    pred = np.stack(
        [pairs[i][0] @ q + (c[i] * h) * (pairs[i][1] @ p) for i in range(s)]
    )
    stage_scaled = ((c * h) ** 2)[:, None, None, None] * A
    stage_t = t + c * h
    stages = pred.copy()
    for _ in range(sweeps):
        forces = np.stack([ivp.force(stage_t[j], stages[j]) for j in range(s)])
        stages = pred + np.einsum("ijkl,jl->ik", stage_scaled, forces)
    forces = np.stack([ivp.force(stage_t[j], stages[j]) for j in range(s)])
    phi0, phi1 = main
    q_new = (
        phi0 @ q + h * (phi1 @ p)
        + np.einsum("jkl,jl->k", h * h * b_q, forces)
    )
    p_new = (
        -h * (M @ phi1) @ q + phi0 @ p
        + np.einsum("jkl,jl->k", h * b_p, forces)
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


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("name, h", [
    ("fpu", 0.01), ("klein-gordon", 0.01), ("satellite", 0.05), ("wave", 0.02),
])
def test_vectorized_solve_matches_per_row_solve(name, h, mode):
    ivp = replace(build_problem(name).ivp, t_end=0.5)
    assert ivp.vectorized
    cfg = SolverConfig(h=h, iteration_mode=mode, max_iter=6 if mode == "fixed" else 50)
    batched = it.solve(ivp, cfg)
    per_row = it.solve(replace(ivp, vectorized=False), cfg)
    for field in ("q", "p", "energy"):
        got, want = getattr(batched, field), getattr(per_row, field)
        if want is None:
            assert got is None
            continue
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


class ForceSpy:
    """A force that records each call's stage values and result.

    ``steps`` groups the calls into sweeps (one vectorized call, or s
    per-row calls) and the sweeps into steps by their stage-time column,
    which changes from each step to the next: one list per step of
    (stages, forces) pairs, each (s, d).
    """

    def __init__(self, force, s, vectorized):
        self.force, self.s, self.vectorized = force, s, vectorized
        self.calls = []

    def __call__(self, t, q):
        f = self.force(t, q)
        # the stepper reuses its buffers, so keep copies
        self.calls.append((np.ravel(t).tolist(), np.array(q), np.array(f)))
        return f

    def steps(self):
        calls, s = self.calls, self.s
        if not self.vectorized:
            calls = [
                (sum((c[0] for c in calls[i:i + s]), []),
                 np.stack([c[1] for c in calls[i:i + s]]),
                 np.stack([c[2] for c in calls[i:i + s]]))
                for i in range(0, len(calls), s)
            ]
        steps = []  # (stage times, sweeps)
        for times, stages, forces in calls:
            if not steps or times != steps[-1][0]:
                steps.append((times, []))
            steps[-1][1].append((stages.reshape(s, -1), forces.reshape(s, -1)))
        return [sweeps for _, sweeps in steps]


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("vectorized", [True, False])
def test_force_and_energy_calls_per_step(vectorized, mode):
    s, d, n_steps, max_iter = 3, 2, 5, 4
    M = np.diag([1.0, 4.0])
    calls = {"force": 0, "hamiltonian": 0}
    shapes = set()

    def force(t, q):
        calls["force"] += 1
        shapes.add((np.shape(t), q.shape))
        return -0.5 * np.sin(q)

    def hamiltonian(q, p):
        calls["hamiltonian"] += 1
        return (
            0.5 * np.vecdot(p, p) + 0.5 * np.vecdot(q @ M, q)
            - 0.5 * np.cos(q).sum(axis=-1)
        )

    spy = ForceSpy(force, s, vectorized)
    ivp = OscillatoryIVP(
        M=M, force=spy, q0=[0.3, -0.2], p0=[0.1, 0.4], t_end=0.5,
        hamiltonian=hamiltonian, vectorized=vectorized,
    )
    cfg = SolverConfig(h=0.5 / n_steps, iteration_mode=mode,
                       max_iter=max_iter if mode == "fixed" else 50)
    ns = lg.gauss_nodes(s)
    traj = it.solve(ivp, cfg, node_set=ns)
    steps = spy.steps()  # per step, one (stages, forces) per force evaluation
    assert len(steps) == n_steps
    rows_per_call = s if vectorized else 1
    if mode == "fixed":
        # max_iter sweeps, then one evaluation at the final stages
        assert np.all(traj.iterations == max_iter)
        stage_rows = s * (max_iter + 1) * n_steps
    else:
        assert np.all(traj.iterations > 1)
        table = cf.build_table(ns, M, cfg.h)
        extra = []
        for k, sweeps in enumerate(steps):
            # the returned stages, from the state the step started at and the
            # forces of its last sweep
            n_sweeps = traj.iterations[k]
            y = np.concatenate((traj.q[k], traj.p[k]))
            stages = table.predictor @ y + table.stage_matrix @ sweeps[n_sweeps - 1][1].ravel()
            # the residual test reuses the forces of the accepting sweep;
            # the contraction test evaluates them once at the final stages
            contraction = traj.residuals[k] > cfg.tol * (1.0 + np.abs(stages).max())
            extra.append(len(sweeps) - n_sweeps)
            assert extra[-1] == (1 if contraction else 0)
        assert 1 in extra
        stage_rows = s * int(traj.iterations.sum() + sum(extra))
    assert calls["force"] * rows_per_call == stage_rows
    assert shapes == ({((s, 1), (s, d))} if vectorized else {((), (d,))})
    assert calls["hamiltonian"] == (1 if vectorized else n_steps + 1)
    assert traj.energy.shape == (n_steps + 1,)


def stage_product(table, pred, forces):
    """stage_matrix @ F + pred as the stepper forms it: one product of
    [stage_matrix | pred] with [F; 1]."""
    return np.hstack((table.stage_matrix, pred[:, None])) @ np.append(forces.ravel(), 1.0)


def per_sweep_stages(table, ivp, t, q, p, cfg, start=None, contraction=True):
    """The stage iteration written sweep by sweep with a separate residual
    and threshold reduction; returns (stages, iterations, history, forces),
    forces being those the update uses.  contraction=False keeps only the
    residual test."""
    ns = table.node_set
    s, d = ns.s, table.dim
    pred = table.predictor @ np.concatenate((q, p))
    stage_t = t + ns.nodes * cfg.h
    stages = pred.reshape(s, d)
    if start is not None:
        stages = stage_product(table, pred, start).reshape(s, d)

    def stage_forces(x):
        return np.stack([ivp.force(float(stage_t[j]), x[j]) for j in range(s)])

    history = []
    for sweep in range(1, cfg.max_iter + 1):
        forces = stage_forces(stages)
        new = stage_product(table, pred, forces).reshape(s, d)
        res = float(np.abs(new - stages).max())
        history.append(res)
        stages = new
        if cfg.iteration_mode != "tolerance":
            continue
        bound = cfg.tol * (1.0 + np.abs(stages).max())
        if res <= bound:
            return stages, sweep, history, forces
        if contraction and sweep > 1:
            # Hairer & Wanner's estimate, trusted for a ratio below 1/2
            theta = res / history[-2]
            if theta < 0.5 and theta / (1.0 - theta) * res <= bound:
                return stages, sweep, history, stage_forces(stages)
    return stages, cfg.max_iter, history, forces


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("path", ["spectral", "series"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_stage_iteration_matches_per_sweep_formula_exactly(s, path, mode):
    rng = np.random.default_rng(RNG_SEED + 20 * s)
    d = 5
    A = rng.standard_normal((d, d))
    M = A @ A.T / d + np.diag(np.linspace(1.0, 9.0, d))
    if path == "series":
        M = M + 0.5 * (A - A.T)
    B = rng.standard_normal((d, d))
    force = lambda t, x: -0.3 * x**3 + 0.2 * math.sin(t) * (B @ x)
    q0, p0 = rng.standard_normal(d), rng.standard_normal(d)
    h, t = 0.3, 0.7
    ivp = OscillatoryIVP(M=M, force=force, q0=q0, p0=p0, t_end=1.0)
    table = cf.build_table(lg.gauss_nodes(s), M, h, path=path)
    cfg = SolverConfig(h=h, iteration_mode=mode, max_iter=4 if mode == "fixed" else 50)
    guess = rng.standard_normal((s, d))
    # the forces at converged stages start one sweep from the solution, so
    # the residual test accepts that sweep; the other starts end on the
    # contraction test
    converged = per_sweep_stages(table, ivp, t, q0, p0, replace(cfg, max_iter=50))[3]
    for start in (None, guess, converged):
        stages, iters, history = it.fixed_point_stages(
            table, ivp, t, q0, p0, cfg, start=start
        )
        want_stages, want_iters, want_history, want_forces = per_sweep_stages(
            table, ivp, t, q0, p0, cfg, start=start
        )
        # a max of |x| does not round, so reading it at the argmax changes no bit
        assert np.array_equal(stages, want_stages)
        assert (iters, history) == (want_iters, want_history)
        forces = it.step(table, ivp, t, q0, p0, cfg, start=start).forces
        if mode == "fixed":
            # the update evaluates the forces once more at the final stages
            stage_t = t + table.node_set.nodes * h
            want_forces = np.stack([force(stage_t[j], stages[j]) for j in range(s)])
        assert np.array_equal(forces, want_forces)
        if mode == "tolerance":
            bound = cfg.tol * (1.0 + np.abs(stages).max())
            assert (history[-1] <= bound) == (start is converged)


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    nodes=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
    eigenvalues=st.lists(st.floats(0.0, 1e4), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 1.0),
    h=st.floats(1e-3, 0.1),
    warm=st.booleans(),
    mode=st.sampled_from(["tolerance", "fixed"]),
)
def test_stage_iteration_matches_per_sweep_formula_on_random_nodes_and_spd(
    d, nodes, eigenvalues, seed, a, h, warm, mode
):
    # s * d = 1 included: the residual's argmax then runs over one element
    nodes = sorted(nodes)
    assume(all(b - c >= 0.05 for c, b in zip(nodes, nodes[1:])))
    ns = lg.build_node_set(nodes)
    assume(it.check_contraction(ns, h, a) < 0.5)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (basis * eigenvalues[:d]) @ basis.T
    M = 0.5 * (M + M.T)
    ivp = OscillatoryIVP(
        M=M, force=lambda t, q: -a * np.sin(q) + 0.1 * a * np.cos(t),
        q0=rng.standard_normal(d), p0=rng.standard_normal(d), t_end=1.0,
    )
    table = cf.build_table(ns, M, h)
    cfg = SolverConfig(h=h, iteration_mode=mode, max_iter=3 if mode == "fixed" else 50)
    start = rng.standard_normal((ns.s, d)) if warm else None
    t = 0.4
    stages, iters, history = it.fixed_point_stages(table, ivp, t, ivp.q0, ivp.p0, cfg, start)
    want_stages, want_iters, want_history, _ = per_sweep_stages(
        table, ivp, t, ivp.q0, ivp.p0, cfg, start=start
    )
    assert np.array_equal(stages, want_stages)
    assert (iters, history) == (want_iters, want_history)


@pytest.mark.parametrize("theta", [0.3, 0.45])
def test_contraction_test_bounds_the_stage_error(theta):
    # q'' = kappa q with M = 0 and one Gauss stage: the stage map is
    # Q -> q0 + theta Q with theta = (h/2)^2 * kappa / 2, so Q* = q0 / (1 - theta)
    # and the error after sweep k is exactly theta / (1 - theta) * res_k
    h, kappa = 1.0, 8.0 * theta
    table = cf.build_table(lg.gauss_nodes(1), np.zeros((1, 1)), h)
    ivp = OscillatoryIVP(
        M=np.zeros((1, 1)), force=lambda t, q: kappa * q, q0=[1.0], p0=[0.0], t_end=h
    )
    contraction_stops = 0
    # tol spans one factor 1/theta, so the thresholds fall anywhere between
    # two successive residuals
    for tol in np.geomspace(1e-10, 1e-10 / theta, 16):
        cfg = SolverConfig(h=h, tol=tol)
        stages, iters, history = it.fixed_point_stages(table, ivp, 0.0, ivp.q0, ivp.p0, cfg)
        bound = tol * (1.0 + abs(stages[0, 0]))
        assert abs(stages[0, 0] - 1.0 / (1.0 - theta)) <= bound * (1.0 + 1e-4)
        residual_only = per_sweep_stages(
            table, ivp, 0.0, ivp.q0, ivp.p0, cfg, contraction=False
        )[1]
        assert iters <= residual_only
        contraction_stops += history[-1] > bound
    assert contraction_stops > 0


def test_contraction_test_rejects_a_growing_iteration():
    # the stage map of the test above with theta = 1.5: residuals grow by
    # 1.5 per sweep, where theta / (1 - theta) * res is negative
    table = cf.build_table(lg.gauss_nodes(1), np.zeros((1, 1)), 1.0)
    ivp = OscillatoryIVP(
        M=np.zeros((1, 1)), force=lambda t, q: 12.0 * q, q0=[1.0], p0=[0.0], t_end=1.0
    )
    with pytest.raises(StageIterationError) as err:
        it.fixed_point_stages(table, ivp, 0.0, ivp.q0, ivp.p0, SolverConfig(h=1.0, max_iter=10))
    assert err.value.iterations == 10


def cold_step_loop(ivp, cfg, ns):
    """solve written as a loop of step calls started from the predictor;
    returns (q, p, iterations) per grid point."""
    n_full, h_last = it._grid(ivp.t_end, cfg.h)
    table = cf.build_table(ns, ivp.M, cfg.h)
    t, q, p = 0.0, ivp.q0.copy(), ivp.p0.copy()
    qs, ps, iters = [q], [p], []
    for k in range(n_full):
        r = it.step(table, ivp, t, q, p, cfg)
        t, q, p = k * cfg.h + cfg.h, r.q, r.p
        qs.append(q), ps.append(p), iters.append(r.iterations)
    if h_last:
        table = cf.build_table(ns, ivp.M, h_last)
        r = it.step(table, ivp, t, q, p, replace(cfg, h=h_last))
        qs.append(r.q), ps.append(r.p), iters.append(r.iterations)
    return np.array(qs), np.array(ps), np.array(iters)


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("name, h", [
    ("fpu", 0.01), ("klein-gordon", 0.01), ("satellite", 0.03), ("wave", 0.02),
])
def test_warm_started_solve_matches_cold_step_loop(name, h, mode):
    # satellite at h = 0.03 ends on a trailing partial step
    ivp = replace(build_problem(name).ivp, t_end=0.5)
    # two fixed sweeps leave the stages dependent on the first iterate
    cfg = SolverConfig(h=h, iteration_mode=mode, max_iter=2 if mode == "fixed" else 50)
    ns = lg.gauss2()
    traj = it.solve(ivp, cfg, node_set=ns)
    q, p, iters = cold_step_loop(ivp, cfg, ns)
    if mode == "fixed":
        # fixed mode is never warm-started
        assert np.array_equal(traj.q, q) and np.array_equal(traj.p, p)
        assert np.array_equal(traj.iterations, iters)
        return
    for got, want in ((traj.q, q), (traj.p, p)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # the first step starts cold, so it repeats the loop's first step
    assert traj.iterations[0] == iters[0]
    assert np.array_equal(traj.q[1], q[1])


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
def test_solve_warm_starts_full_steps_from_extrapolated_forces(mode):
    ns = lg.gauss_nodes(3)
    ivp = replace(build_problem("fpu").ivp, t_end=0.105)
    spy = ForceSpy(ivp.force, ns.s, ivp.vectorized)
    traj = it.solve(replace(ivp, force=spy), SolverConfig(h=0.01, iteration_mode=mode), node_set=ns)
    steps = spy.steps()
    h_last = it._grid(ivp.t_end, 0.01)[1]
    assert len(steps) == 11 and h_last != 0.01
    for k, sweeps in enumerate(steps):
        h = 0.01 if k < 10 else h_last
        table = cf.build_table(ns, ivp.M, h)
        # the first iterate is stage_matrix @ start + predictor @ y, formed as
        # one product, or the predictor alone without a start
        first_iterate = sweeps[0][0].ravel()
        pred = table.predictor @ np.concatenate((traj.q[k], traj.p[k]))
        if mode == "fixed" or k == 0 or h != 0.01:
            # the first step, the trailing partial step and fixed mode start cold
            assert np.array_equal(first_iterate, pred)
        else:
            # the update of the step before used the forces of its last call
            start = ns.extrapolation @ steps[k - 1][-1][1]
            assert np.array_equal(first_iterate, stage_product(table, pred, start))


def warm_step_loop(ivp, cfg, ns):
    """solve's tolerance-mode loop written out: each full step after the
    first starts from the extrapolated forces of the step before, the
    trailing partial step from the predictor; returns (q, p, iterations,
    residuals) per grid point."""
    n_full, h_last = it._grid(ivp.t_end, cfg.h)
    table = cf.build_table(ns, ivp.M, cfg.h)
    t, q, p, start = 0.0, ivp.q0.copy(), ivp.p0.copy(), None
    qs, ps, iters, resid = [q], [p], [], []
    for k in range(n_full):
        r = it.step(table, ivp, t, q, p, cfg, start=start)
        start = ns.extrapolation @ r.forces
        t, q, p = k * cfg.h + cfg.h, r.q, r.p
        qs.append(q), ps.append(p), iters.append(r.iterations), resid.append(r.residual)
    if h_last:
        table = cf.build_table(ns, ivp.M, h_last)
        r = it.step(table, ivp, t, q, p, replace(cfg, h=h_last))
        qs.append(r.q), ps.append(r.p), iters.append(r.iterations), resid.append(r.residual)
    return np.array(qs), np.array(ps), np.array(iters), np.array(resid)


@pytest.mark.parametrize("name, h", [
    ("fpu", 0.01), ("klein-gordon", 0.01), ("satellite", 0.03), ("wave", 0.02),
])
def test_solve_is_the_warm_step_loop_exactly(name, h):
    # satellite at h = 0.03 ends on a trailing partial step
    ivp = replace(build_problem(name).ivp, t_end=0.5)
    ns = lg.gauss2()
    cfg = SolverConfig(h=h)
    traj = it.solve(ivp, cfg, node_set=ns)
    want = warm_step_loop(ivp, cfg, ns)
    for got, field in zip((traj.q, traj.p, traj.iterations, traj.residuals), want):
        assert np.array_equal(got, field)


def step_loop(ivp, cfg, ns):
    """solve in either mode written as a loop of step calls: in tolerance
    mode each full step after the first starts from the extrapolated forces
    of the step before; the times are solve's, t = k h + h after step k.
    Returns (q, p, iterations, residuals) per grid point."""
    n_full, h_last = it._grid(ivp.t_end, cfg.h)
    t, q, p, start = 0.0, ivp.q0, ivp.p0, None
    qs, ps, iters, resid = [q], [p], [], []
    if n_full:
        table = cf.build_table(ns, ivp.M, cfg.h)
    for k in range(n_full):
        r = it.step(table, ivp, t, q, p, cfg, start=start)
        if cfg.iteration_mode == "tolerance":
            start = ns.extrapolation @ r.forces
        t, q, p = k * cfg.h + cfg.h, r.q, r.p
        qs.append(q), ps.append(p), iters.append(r.iterations), resid.append(r.residual)
    if h_last:
        table = cf.build_table(ns, ivp.M, h_last)
        r = it.step(table, ivp, t, q, p, replace(cfg, h=h_last))
        qs.append(r.q), ps.append(r.p), iters.append(r.iterations), resid.append(r.residual)
    return np.array(qs), np.array(ps), np.array(iters), np.array(resid)


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    s=st.integers(1, 4),
    eigenvalues=st.lists(st.floats(0.0, 1e4), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 1.0),
    h=st.floats(1e-3, 0.1),
    n_steps=st.integers(1, 20),
    partial=st.sampled_from([0.0, 0.25, 0.6]),
    mode=st.sampled_from(["tolerance", "fixed"]),
    max_iter=st.integers(1, 4),
    vectorized=st.booleans(),
)
def test_solve_is_the_step_loop_exactly_on_random_spd(
    d, s, eigenvalues, seed, a, h, n_steps, partial, mode, max_iter, vectorized
):
    # one stepper per solve must give the bits of one step call per step
    ns = lg.gauss_nodes(s)
    assume(it.check_contraction(ns, h, a) < 0.5)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (basis * eigenvalues[:d]) @ basis.T
    M = 0.5 * (M + M.T)
    ivp = OscillatoryIVP(
        M=M, force=lambda t, q: -a * np.sin(q) + 0.1 * a * np.cos(t),
        q0=rng.standard_normal(d), p0=rng.standard_normal(d),
        t_end=(n_steps + partial) * h, vectorized=vectorized,
    )
    cfg = SolverConfig(h=h, iteration_mode=mode, max_iter=max_iter if mode == "fixed" else 50)
    traj = it.solve(ivp, cfg, node_set=ns)
    want = step_loop(ivp, cfg, ns)
    assert len(traj.iterations) == n_steps + (partial > 0.0)
    for got, field in zip((traj.q, traj.p, traj.iterations, traj.residuals), want):
        assert np.array_equal(got, field)


@pytest.mark.parametrize("name, h, t_end, vectorized", [
    ("fpu", 0.01, 0.105, True), ("satellite", 0.05, 0.33, False),
])
def test_force_that_solves_the_same_problem_leaves_solve_unchanged(name, h, t_end, vectorized):
    # every force call runs a whole solve of the same IVP, so a buffer kept
    # by the module, the table or the node set between calls would be
    # overwritten mid-step
    ivp = replace(build_problem(name).ivp, t_end=t_end, vectorized=vectorized)
    cfg = SolverConfig(h=h)
    ns = lg.gauss_nodes(3)
    plain = it.solve(ivp, cfg, node_set=ns)
    plain_force = ivp.force
    depth = [0]
    nested = []

    def force(t, q):
        if depth[0] == 0:  # the nested solve itself runs the plain force
            depth[0] += 1
            nested.append(it.solve(ivp, cfg, node_set=ns))
            depth[0] -= 1
        return plain_force(t, q)

    ivp.force = force
    outer = it.solve(ivp, cfg, node_set=ns)
    assert len(nested) > len(outer.iterations)
    for traj in (outer, nested[0], nested[-1]):
        for field in ("q", "p", "iterations", "residuals", "energy"):
            assert np.array_equal(getattr(traj, field), getattr(plain, field))


@pytest.mark.parametrize("mode", ["tolerance", "fixed"])
@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("t_fail, failing_step", [(0.43, 4), (0.51, 5)])
def test_stage_iteration_failure_after_some_steps_carries_its_step(
    t_fail, failing_step, vectorized, mode
):
    # h = 0.1 and t_end = 0.55: five full steps, then a partial one of 0.05.
    # The force turns to NaN once a stage time passes t_fail; the Gauss-2
    # stage times are 0.321, 0.379 in step 3, 0.421, 0.479 in step 4 and
    # 0.511, 0.539 in the partial step 5
    def force(t, q):
        if np.max(t) > t_fail:
            return np.full_like(q, np.nan)
        return -np.sin(q)

    ivp = OscillatoryIVP(
        M=np.diag([1.0, 9.0]), force=force, q0=[0.5, -0.1], p0=[0.0, 0.3],
        t_end=0.55, vectorized=vectorized,
    )
    cfg = SolverConfig(h=0.1, iteration_mode=mode, max_iter=4 if mode == "fixed" else 50)
    with pytest.raises(StageIterationError) as err:
        it.solve(ivp, cfg)
    assert err.value.step_index == failing_step
    assert err.value.iterations == 1
    assert math.isnan(err.value.residual)
    assert "residual history nan" in str(err.value)


@pytest.mark.parametrize("t_end", [4.0, 8.0])
def test_a_non_finite_update_fails_naming_its_step(t_end):
    # fpu at h = 4 in fixed mode: the 5 sweeps of step 0 stay finite, but the
    # forces its update evaluates at the final stages overflow, so its new
    # state is not finite.  With one step the run's last state is tested;
    # with two, step 1's first sweep fails on that state and names step 0
    ivp = replace(build_problem("fpu").ivp, t_end=t_end)
    cfg = SolverConfig(h=4.0, iteration_mode="fixed", max_iter=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StageIterationError) as err:
            it.solve(ivp, cfg)
        assert err.value.step_index == 0
        assert err.value.iterations == 5
        assert math.isfinite(err.value.residual)
        assert "non-finite state" in str(err.value)
        # a step call is a one-step run and fails the same way
        table = cf.build_table(lg.gauss2(), ivp.M, 4.0)
        with pytest.raises(StageIterationError) as err:
            it.step(table, ivp, 0.0, ivp.q0, ivp.p0, cfg)
        assert err.value.step_index == 0
        assert "non-finite state" in str(err.value)


@pytest.mark.parametrize("failing_step", [2, 3])
def test_a_later_non_finite_update_names_its_step_sweeps_and_residual(failing_step):
    # fpu at h = 0.01 in fixed mode makes 3 sweeps and then one force call
    # for the update per step.  The force overflows on that update call of
    # the failing step only, so the next step's first sweep finds its state
    # not finite and must report the failing step's own sweep count and last
    # residual, which a clean solve gives.
    ivp = replace(build_problem("fpu").ivp, t_end=0.1)
    cfg = SolverConfig(h=0.01, iteration_mode="fixed", max_iter=3)
    clean = it.solve(ivp, cfg)
    assert clean.residuals[failing_step] not in (
        clean.residuals[failing_step - 1], clean.residuals[failing_step + 1]
    )
    calls = [0]

    def force(t, q):
        calls[0] += 1
        if calls[0] == (failing_step + 1) * (cfg.max_iter + 1):
            return np.full_like(q, np.inf)
        return ivp.force(t, q)

    with np.errstate(invalid="ignore"):
        with pytest.raises(StageIterationError) as err:
            it.solve(replace(ivp, force=force), cfg)
    assert err.value.step_index == failing_step
    assert err.value.iterations == cfg.max_iter
    assert err.value.residual == clean.residuals[failing_step]
    assert "non-finite state" in str(err.value)


@pytest.mark.parametrize("name, overrides, h", [
    ("fpu", {}, 0.01), ("klein-gordon", {"n": 64}, 0.002),
])
def test_warm_start_saves_sweeps(name, overrides, h):
    # klein-gordon takes 2 sweeps per step either way, but a cold step
    # ends on the contraction test and pays a force call for the update
    # (3.00 calls per step) where a warm one passes the residual test
    # (2.00); fpu: 3.55 cold, 3.01 warm
    ivp = replace(build_problem(name, **overrides).ivp, t_end=1.0)
    calls = [0]
    plain_force = ivp.force

    def force(t, q):
        calls[0] += 1
        return plain_force(t, q)

    ivp = replace(ivp, force=force)
    cfg = SolverConfig(h=h)
    warm = it.solve(ivp, cfg)
    warm_calls, calls[0] = calls[0], 0
    cold = cold_step_loop(ivp, cfg, lg.gauss2())
    cold_calls = calls[0]
    n_steps = len(warm.iterations)
    assert warm_calls / n_steps < cold_calls / n_steps
    assert warm.iterations.mean() <= cold[2].mean()


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    s=st.integers(1, 3),
    eigenvalues=st.lists(st.floats(0.0, 1e4), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 1.0),
    h=st.floats(1e-3, 0.1),
    n_steps=st.integers(2, 50),
)
def test_warm_start_agrees_with_cold_loop_on_random_spd(d, s, eigenvalues, seed, a, h, n_steps):
    ns = lg.gauss_nodes(s)
    assume(it.check_contraction(ns, h, a) < 1.0)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (basis * eigenvalues[:d]) @ basis.T
    M = 0.5 * (M + M.T)
    ivp = OscillatoryIVP(
        M=M, force=lambda t, q: -a * np.sin(q),
        q0=rng.standard_normal(d), p0=rng.standard_normal(d),
        t_end=n_steps * h, vectorized=True,
    )
    cfg = SolverConfig(h=h)
    traj = it.solve(ivp, cfg, node_set=ns)
    q, p, _ = cold_step_loop(ivp, cfg, ns)
    assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()
    for got, want in ((traj.q, q), (traj.p, p)):
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def residual_rule_solve(ivp, cfg, ns):
    """solve over full steps with the residual test alone, warm-started as
    solve is; returns (q, p) at t_end."""
    n_full, h_last = it._grid(ivp.t_end, cfg.h)
    assert not h_last
    d = ivp.dim
    table = cf.build_table(ns, ivp.M, cfg.h)
    t, q, p, start = 0.0, ivp.q0, ivp.p0, None
    for k in range(n_full):
        forces = per_sweep_stages(
            table, ivp, t, q, p, cfg, start=start, contraction=False
        )[3]
        y = table.propagator @ np.concatenate((q, p)) + table.force_matrix @ forces.ravel()
        t, q, p = k * cfg.h + cfg.h, y[:d], y[d:]
        start = ns.extrapolation @ forces
    return q, p


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    s=st.integers(1, 3),
    eigenvalues=st.lists(st.floats(1e-3, 1e4), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 20.0),
    h=st.floats(1e-3, 0.1),
    n_steps=st.integers(2, 50),
)
def test_contraction_test_agrees_with_residual_rule_on_random_spd(
    d, s, eigenvalues, seed, a, h, n_steps
):
    ns = lg.gauss_nodes(s)
    assume(it.check_contraction(ns, h, a) < 0.5)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (basis * eigenvalues[:d]) @ basis.T
    M = 0.5 * (M + M.T)
    rows = [0]

    def force(t, q):
        rows[0] += len(q) if q.ndim == 2 else 1
        return -a * np.sin(q)

    ivp = OscillatoryIVP(
        M=M, force=force, q0=rng.standard_normal(d), p0=rng.standard_normal(d),
        t_end=n_steps * h, vectorized=True,
    )
    cfg = SolverConfig(h=h)
    traj = it.solve(ivp, cfg, node_set=ns)
    solve_rows, rows[0] = rows[0], 0
    q, p = residual_rule_solve(ivp, cfg, ns)
    for got, want in ((traj.q[-1], q), (traj.p[-1], p)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # force calls per step, in stage rows so both loops count alike
    assert solve_rows <= rows[0]


def test_the_stage_iteration_converges_where_the_a_priori_factor_exceeds_one():
    # h^2 L abs_weight_bound is a sufficient condition only: here it is 2.8, while
    # 50 * stage_matrix has spectral radius 0.22, so the sweeps still contract
    ivp = OscillatoryIVP(
        M=np.array([[1.0]]),
        force=lambda t, q: 50.0 * q,
        q0=np.array([1.0]),
        p0=np.array([0.0]),
        t_end=2.0,
    )
    assert it.check_contraction(lg.gauss2(), 0.3, 50.0) > 2.5
    traj = it.solve(ivp, SolverConfig(h=0.3))
    assert traj.t[-1] == 2.0
    assert traj.iterations.max() < it.DEFAULT_MAX_ITER
    # no field turns a refusal on that factor back on
    with pytest.raises(TypeError):
        OscillatoryIVP(M=ivp.M, force=ivp.force, q0=ivp.q0, p0=ivp.p0, t_end=2.0,
                       lipschitz=50.0)


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


def test_solve_grid_times_are_k_h_plus_h_bit_for_bit():
    # 10 000 full steps: each time is formed as (k - 1) * h + h, not summed
    h = 0.01
    traj = it.solve(replace(build_problem("fpu").ivp, t_end=100.0), SolverConfig(h=h))
    assert traj.t.size == 10_001 and traj.t[0] == 0.0
    assert traj.t[1:].tolist() == [(k - 1) * h + h for k in range(1, 10_001)]
    # a trailing partial step ends on t_end exactly
    traj = it.solve(replace(build_problem("fpu").ivp, t_end=0.105), SolverConfig(h=h))
    assert traj.t.tolist() == [0.0] + [(k - 1) * h + h for k in range(1, 11)] + [0.105]


def test_solve_of_only_a_partial_step_is_one_cold_step():
    # t_end < h: the run of full steps is empty and the partial step is the
    # whole solve
    ivp = replace(build_problem("fpu").ivp, t_end=0.004)
    cfg = SolverConfig(h=0.01)
    traj = it.solve(ivp, cfg)
    assert traj.t.tolist() == [0.0, 0.004]
    assert traj.iterations.shape == (1,)
    table = cf.build_table(lg.gauss2(), ivp.M, 0.004)
    r = it.step(table, ivp, 0.0, ivp.q0, ivp.p0, replace(cfg, h=0.004))
    assert traj.iterations[0] == r.iterations
    assert np.array_equal(traj.q[-1], r.q) and np.array_equal(traj.p[-1], r.p)


@pytest.mark.parametrize("vectorized", [True, False])
def test_forces_see_the_stage_times_step_forms(vectorized):
    # every step's force calls get t_k + c_i h, formed as np.add(offsets, t_k)
    # from the grid time t_k, on the full steps and the trailing partial one
    spec = build_problem("fpu", t_end=0.105)
    seen = []

    def force(t, x):
        seen.append(tuple(np.ravel(t).tolist()))
        return spec.ivp.force(t, x)

    ivp = replace(spec.ivp, force=force, vectorized=vectorized)
    h, ns = 0.01, lg.gauss_nodes(3)
    it.solve(ivp, SolverConfig(h=h), node_set=ns)
    if not vectorized:  # one call per stage: regroup them by sweep
        seen = [sum(seen[i:i + ns.s], ()) for i in range(0, len(seen), ns.s)]
    per_step = [times for k, times in enumerate(seen) if k == 0 or times != seen[k - 1]]
    offsets = cf.build_table(ns, ivp.M, h).stage_offsets
    want = [np.add(offsets, 0.0 if k == 0 else (k - 1) * h + h) for k in range(10)]
    want.append(np.add(cf.build_table(ns, ivp.M, 0.105 - 10 * h).stage_offsets, 9 * h + h))
    assert per_step == [tuple(w.ravel().tolist()) for w in want]


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


def round_trip_defect(ns, M, force, q0, p0, h):
    """One step from (q0, p0), one back from (q1, -p1); returns the distance
    of the result from (q0, -p0) over max(1, |states|) * max(1, h |M|^(1/2)).
    The second factor is the round-off of the step's linear part: its block
    -h M phi1 = Q diag(-w sin(h w)) Q^T has entries up to the largest
    frequency w, so even with zero force the round trip misses by a few
    1e-15 * h w."""
    ivp = OscillatoryIVP(M=M, force=force, q0=q0, p0=p0, t_end=h, vectorized=True)
    table = cf.build_table(ns, M, h)
    cfg = SolverConfig(h=h)
    fwd = it.step(table, ivp, 0.0, q0, p0, cfg)
    back = it.step(table, ivp, 0.0, fwd.q, -fwd.p, cfg)
    defect = max(np.abs(back.q - q0).max(), np.abs(back.p + p0).max())
    size = max(1.0, np.abs(np.concatenate((q0, p0, fwd.q, fwd.p))).max())
    return defect / (size * max(1.0, h * np.sqrt(np.abs(M).sum(axis=1).max())))


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    s=st.sampled_from([2, 3]),
    eigenvalues=st.lists(st.floats(0.0, 1e4), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_symmetric_nodes_give_a_time_reversible_step(d, s, eigenvalues, seed):
    # Gauss nodes are symmetric about 1/2, which makes the step symmetric
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (basis * eigenvalues[:d]) @ basis.T
    M = 0.5 * (M + M.T)
    force = lambda t, q: -np.sin(q) - q**3
    q0, p0 = rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d)
    assert round_trip_defect(lg.gauss_nodes(s), M, force, q0, p0, 0.1) <= 1e-13


def test_asymmetric_nodes_are_not_time_reversible():
    # the property above fails for nodes (1/3, 1): the defect is 1.7e-5 here,
    # against 1.7e-15 for Gauss-2
    rng = np.random.default_rng(RNG_SEED)
    A = rng.standard_normal((3, 3))
    M = A @ A.T
    force = lambda t, q: -np.sin(q) - q**3
    q0, p0 = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    ns = lg.build_node_set([1.0 / 3.0, 1.0])
    assert round_trip_defect(ns, M, force, q0, p0, 0.1) > 1e-8


def linear_step_matrix(table, K):
    """The step map S of the force -K q: the stages solve
    Q = predictor @ y - stage_matrix @ (I x K) Q, and the update is
    propagator @ y - force_matrix @ (I x K) Q."""
    IK = np.kron(np.eye(table.node_set.s), K)
    coupled = np.eye(IK.shape[0]) + table.stage_matrix @ IK
    return table.propagator - table.force_matrix @ IK @ np.linalg.solve(coupled, table.predictor)


def symplecticity_defect(ns, M, K, h):
    d = M.shape[0]
    J = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    S = linear_step_matrix(cf.build_table(ns, M, h), K)
    return np.abs(S.T @ J @ S - J).max()


@pytest.mark.parametrize("s", [1, 2, 3])
def test_the_step_is_symplectic_only_to_order_2s_plus_1(s):
    # q'' + M q = -K q with M and K SPD is Hamiltonian, but for K that does
    # not commute with M the step's defect S^T J S - J is O(h^(2s+1)): the
    # halving from h = 0.1 to 0.05 divides it by 7.9, 31.6 and 126 for
    # s = 1, 2 and 3.  For K that commutes with M it is round-off (9.5e-16).
    rng = np.random.default_rng(RNG_SEED)
    d = 4
    A, B = rng.standard_normal((2, d, d))
    M = A @ A.T / d + np.eye(d)
    K = B @ B.T / d + np.eye(d)
    ns = lg.gauss_nodes(s)
    # S is the map a step makes
    y = rng.standard_normal(2 * d)
    ivp = OscillatoryIVP(M=M, force=lambda t, q: -K @ q, q0=y[:d], p0=y[d:], t_end=0.1)
    table = cf.build_table(ns, M, 0.1)
    r = it.step(table, ivp, 0.0, ivp.q0, ivp.p0, SolverConfig(h=0.1))
    assert np.abs(linear_step_matrix(table, K) @ y - np.concatenate((r.q, r.p))).max() <= 1e-13
    ratio = symplecticity_defect(ns, M, K, 0.1) / symplecticity_defect(ns, M, K, 0.05)
    assert ratio >= 0.75 * 2 ** (2 * s + 1)
    w, V = np.linalg.eigh(M)
    commuting = (V * (1.0 + w**2)) @ V.T
    assert symplecticity_defect(ns, M, commuting, 0.1) <= 1e-13


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


@pytest.mark.parametrize("h_omega", [1.5, 4.0, 8.0, 2.0 * math.pi], ids=["1.5", "4", "8", "2pi"])
def test_energy_error_off_and_at_numerical_resonance(h_omega):
    # fpu at omega = 50, Gauss-2.  Off resonance the energy error is bounded:
    # its largest value over t <= 200 is already reached by t = 100.  At
    # h omega = 2 pi it grows without bound, a known limitation of the
    # unfiltered method (numerical resonance of trigonometric integrators,
    # Hairer, Lubich & Wanner, Geometric Numerical Integration, XIII).
    ivp = build_problem("fpu", omega=50.0, t_end=200.0).ivp
    traj = it.solve(ivp, SolverConfig(h=h_omega / 50.0), node_set=lg.gauss2())
    drift = traj.energy_drift()
    first_half = drift[traj.t <= 100.0].max()
    if h_omega == 2.0 * math.pi:
        assert drift.max() >= 2.0 * first_half
    else:
        assert drift.max() == first_half


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


def test_a_reference_refused_at_the_cap_names_the_substeps_it_tried(monkeypatch):
    # every step-doubling check fails at tol 0; the one reference solve runs
    # at 8 / 0.0125 = 640 substeps per unit and is not retried
    monkeypatch.setattr(it, "REFERENCE_CHECK_TOL", 0.0)
    ivp = build_problem("fpu", t_end=0.1).ivp
    with pytest.raises(OracleUnreliableError) as err:
        it.endpoint_errors(
            ivp, [0.05, 0.025, 0.0125], None, lg.gauss2(), SolverConfig(h=0.05)
        )
    msg = str(err.value)
    assert "Gauss-4 reference refused at 640 substeps per unit" in msg
    assert "n_substeps_per_unit" not in msg
    # reference_solve's own refusal is chained, with its own message
    assert isinstance(err.value.__cause__, OracleUnreliableError)
    assert "increase n_substeps_per_unit" in str(err.value.__cause__)


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
    hs, errors = it.endpoint_errors(
        ivp, [0.1, 0.05, 0.025, 0.0125], None, ns, SolverConfig(h=0.1)
    )
    slope, _ = it.fit_order(hs, errors)
    assert 1.7 < slope < 2.3


def test_estimate_order_excludes_roundoff_errors():
    # a linear problem is integrated exactly: every error is round-off
    ivp = linear_ivp(np.diag([1.0, 16.0]), [1.0, 0.3], [0.0, 0.1], 2.0)
    hs, errors = it.endpoint_errors(
        ivp, [0.1, 0.05, 0.025], None, lg.gauss2(), SolverConfig(h=0.1)
    )
    slope, used = it.fit_order(hs, errors)
    assert slope is None
    assert used.tolist() == [False, False, False]


@pytest.mark.parametrize("step_sizes, message", [
    ([0.1, 0.05, 0.1], "step size 0.1 is given more than once"),
    ([0.1, 0.05, 0.0], "step size must be finite and > 0, got 0.0"),
], ids=["repeated", "zero"])
def test_endpoint_errors_refuses_a_bad_step_list_before_any_solve(
    monkeypatch, step_sizes, message
):
    # a repeated h once solved again, repeated its row and fit a garbage
    # slope; h = 0 once overflowed in the reference's substep count
    calls = []
    monkeypatch.setattr(it, "solve", lambda *args, **kwargs: calls.append(args))
    ivp = build_problem("fpu", omega=20.0, t_end=1.0).ivp
    with pytest.raises(ValueError, match=message):
        it.endpoint_errors(ivp, step_sizes, None, lg.gauss2(), SolverConfig(h=0.1))
    assert calls == []


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
    # NaN once failed only in the step grid, and inf overflowed there
    for t_end in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            OscillatoryIVP(
                M=np.zeros((2, 2)),
                force=lambda t, q: q,
                q0=np.zeros(2),
                p0=np.zeros(2),
                t_end=t_end,
            )


def test_coefficient_path_detection():
    ns = lg.gauss2()
    assert cf.build_table(ns, np.diag([1.0, 2.0]), 1.0).path == "spectral"
    assert cf.build_table(ns, np.array([[2.0, 1.0], [0.0, 2.0]]), 1.0).path == "series"


def test_one_symmetry_test_for_every_path_choice():
    # asymmetry just inside and just outside the shared relative tolerance
    ns = lg.gauss2()
    base = np.array([[2.0, 1.0], [1.0, 2.0]])
    for gap, sym in ((0.5 * mf.SYMMETRY_TOL, True), (4.0 * mf.SYMMETRY_TOL, False)):
        M = base.copy()
        M[0, 1] += gap * 2.0
        assert mf.is_symmetric(M) is sym
        assert cf.build_table(ns, M, 0.1).path == ("spectral" if sym else "series")
        if sym:
            mf.decompose_symmetric(M)
        else:
            with pytest.raises(AsymmetricMatrixError):
                mf.decompose_symmetric(M)


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_solver_config_rejects_a_step_that_is_not_positive(h):
    # a NaN step passes h <= 0 and once reached the coefficient layer
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(h=h)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_solver_config_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    # such a tol once ran max_iter sweeps and was reported as a solver failure
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(h=0.1, tol=tol)


@pytest.mark.parametrize("omega", [10.0, 1e2, 1e3, 1e4, 1e5])
def test_stage_iteration_count_does_not_grow_with_the_stiffness(omega):
    # the paper's central claim: the fixed-point iteration converges under a
    # condition on h and the nonlinearity alone, not on ||M|| = omega^2
    ivp = build_problem("fpu", omega=omega, t_end=2.0).ivp
    iterations = it.solve(ivp, SolverConfig(h=0.01)).iterations
    assert iterations.mean() <= 2.1
    assert iterations.max() <= 3


def test_stage_iteration_count_does_not_grow_under_grid_refinement():
    # the same claim as the grid is refined: klein-gordon's ||M||_inf =
    # 4 n^2 / 1.28^2 runs from 625 (n = 16) to 1.6e5 (n = 256)
    cfg = SolverConfig(h=0.05)
    norms = []
    for n in (16, 32, 64, 128, 256):
        ivp = build_problem("klein-gordon", n=n, t_end=1.0).ivp
        norms.append(np.abs(ivp.M).sum(axis=1).max())
        assert cf.build_table(lg.gauss2(), ivp.M, cfg.h).path == "spectral"
        # registry data: the cold first step takes 5 sweeps, every warm one 3
        assert it.solve(ivp, cfg).iterations.tolist() == [5] + [3] * 19
        rng = np.random.default_rng(n)
        rough = replace(ivp, q0=rng.uniform(-0.9, 0.9, n), p0=rng.uniform(-0.9, 0.9, n))
        iterations = it.solve(rough, cfg).iterations
        assert iterations.max() <= 5
        assert iterations.mean() <= 4
    assert norms[0] == pytest.approx(625.0)
    assert norms[-1] == pytest.approx(1.6e5)
