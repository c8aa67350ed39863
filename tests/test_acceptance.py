"""End-to-end acceptance gate.

One test per advertised guarantee, in order, each asserting its stated
tolerance and printing a single summary line once it holds.  Tolerances
live next to the asserts so the gate is readable as a checklist.
"""

import math

import numpy as np
import pytest

from trigcolloc import (
    OscillatoryIVP,
    SolverConfig,
    build_problem,
    build_table,
    solve,
)
from trigcolloc import cli
from trigcolloc import lagrange as lg
from trigcolloc import stability as st
from trigcolloc.coeffs import WeightKind, lifted_blocks, quadrature_weight, scalar_weight
from trigcolloc.integrator import (
    check_contraction,
    estimate_order,
    fixed_point_stages,
)

G2 = lg.gauss2()


def _report(capsys, number, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: PASS - {detail}")


def _endpoint_error(traj, ref_q, ref_p):
    return max(np.abs(traj.q[-1] - ref_q).max(), np.abs(traj.p[-1] - ref_p).max())


def test_acceptance_1_fourth_order_convergence(capsys):
    # Substitution oracle: the candidate reference of the wave problem
    # satisfies the semi-discrete system identically, so it is the exact
    # solution and serves as the error reference directly.
    wave = build_problem("wave")
    resid = 0.0
    for t in (0.0, 0.3, 1.7, 5.0):
        u, _ = wave.exact_solution(t)
        r = -100.0 * u + wave.ivp.M @ u - wave.ivp.force(t, u)
        resid = max(resid, np.abs(r).max())
    assert resid <= 1e-9

    uT, vT = wave.exact_solution(10.0)
    errors = []
    for k in (32, 64, 128, 256):
        traj = solve(wave.ivp, SolverConfig(h=1.0 / k), node_set=G2)
        errors.append(_endpoint_error(traj, uT, vT))
    # The linear part alone carries this solution (M a = 100 a exactly on
    # the grid) and the force vanishes along it, so the scheme reproduces
    # it to round-off at every step size.  All four errors sit on the
    # round-off plateau, below the fit floor, and no slope is readable
    # from them; exact reproduction is the stronger property.
    assert max(errors) <= 1e-10

    # The order statement is therefore measured on a configuration whose
    # force error does not vanish: the stiff spring chain at omega = 50.
    fpu = build_problem("fpu", omega=50.0, t_end=5.0)
    est = estimate_order(
        fpu.ivp, [1.0 / 40, 1.0 / 80, 1.0 / 160, 1.0 / 320], node_set=G2
    )
    assert est.used.all()
    assert 3.5 <= est.slope <= 4.5
    _report(
        capsys, 1,
        f"wave reproduced to round-off (max err {max(errors):.2e}, slope "
        f"unreadable); order on stiff chain {est.slope:.3f} in [3.5, 4.5]",
    )


def test_acceptance_2_linear_exactness(capsys):
    ivp = OscillatoryIVP(
        M=np.array([[100.0]]),
        force=lambda t, q: np.zeros(1),
        q0=np.array([1.0]),
        p0=np.array([0.0]),
        t_end=100.0,
    )
    traj = solve(ivp, SolverConfig(h=0.1), node_set=G2)
    assert len(traj.t) == 1001
    err = max(
        abs(traj.q[-1, 0] - math.cos(1000.0)),
        abs(traj.p[-1, 0] + 10.0 * math.sin(1000.0)),
    )
    assert err <= 1e-9

    base = build_problem("fpu", t_end=10.0)
    d, M = base.ivp.dim, base.ivp.M
    linear = OscillatoryIVP(
        M=M,
        force=lambda t, q: np.zeros(d),
        q0=base.ivp.q0,
        p0=base.ivp.p0,
        t_end=10.0,
        hamiltonian=lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ (M @ q)),
    )
    traj = solve(linear, SolverConfig(h=0.01), node_set=G2)
    assert len(traj.t) == 1001
    drift = traj.energy_drift().max()
    assert drift <= 1e-10
    _report(
        capsys, 2,
        f"scalar endpoint error {err:.2e} <= 1e-9 after 1000 steps; "
        f"zero-force chain energy drift {drift:.2e} <= 1e-10",
    )


def test_acceptance_3_energy_drift_order(capsys):
    drifts = []
    for h in (1.0 / 100, 1.0 / 200):
        spec = build_problem("fpu", omega=50.0, t_end=1.0)
        traj = solve(spec.ivp, SolverConfig(h=h), node_set=G2)
        drifts.append(traj.energy_drift().max())
    ratio = drifts[0] / drifts[1]
    assert ratio >= 11.0
    _report(
        capsys, 3,
        f"stiff chain drift {drifts[0]:.2e} -> {drifts[1]:.2e} on halving, "
        f"ratio {ratio:.2f} >= 11",
    )


def test_acceptance_4_quadratic_invariant_order(capsys):
    # Planar central-force motion: acceleration stays parallel to q, so
    # the flow conserves the angular momentum q^T D p for the rotation
    # generator D.
    D = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def central(m_factor):
        return OscillatoryIVP(
            M=m_factor * np.eye(2),
            force=lambda t, q: -(q @ q) * q,
            q0=np.array([1.0, 0.0]),
            p0=np.array([0.4, 1.1]),
            t_end=5.0,
        )

    def drift(traj):
        L = np.einsum("nk,kl,nl->n", traj.q, D, traj.p)
        return np.abs(L - L[0]).max()

    drifts = []
    for h in (0.1, 0.05, 0.025):
        traj = solve(central(4.0), SolverConfig(h=h), node_set=G2)
        drifts.append(drift(traj))
    ratios = [drifts[0] / drifts[1], drifts[1] / drifts[2]]
    floor = 2.0 ** 3.5
    assert min(ratios) >= floor

    # With M = 0 the two-stage tableau satisfies the algebraic
    # conservation conditions exactly, so the drift is pure round-off.
    traj0 = solve(central(0.0), SolverConfig(h=0.1), node_set=G2)
    exact_drift = drift(traj0)
    assert exact_drift <= 1e-12
    _report(
        capsys, 4,
        f"angular-momentum drift ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f">= 2^3.5; M = 0 drift {exact_drift:.1e} (exact conservation)",
    )


def test_acceptance_5_coefficient_three_path_agreement(capsys):
    worst = 0.0
    for lam in (1e-3, 1e-2, 0.1, 0.5, 1.0, 10.0, 100.0):
        for kind in WeightKind:
            stage_idx = [0, 1] if kind is WeightKind.STAGE else [None]
            for j in range(2):
                for i in stage_idx:
                    got = scalar_weight(G2, kind, j, lam, i)
                    ref = quadrature_weight(G2, kind, j, lam * lam, i)
                    worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-10

    # Zero matrix: the table must collapse to the classical point-value
    # tableau l_j(c_i/3)/2, l_j(1/3)/2, l_j(1/2) with unit phi factors,
    # which make the propagator [[phi0, h phi1], [-h M phi1, phi0]] at h = 1
    # the free flight [[1, 1], [0, 1]].
    table = build_table(G2, np.zeros((1, 1)), 1.0)
    _, _, (b_q, b_p, A, *_) = lifted_blocks(G2, np.zeros((1, 1)), 1.0)
    diff = np.abs(table.propagator - np.array([[1.0, 1.0], [0.0, 1.0]])).max()
    for j in range(2):
        diff = max(
            diff,
            abs(b_q[j, 0, 0] - lg.eval_basis(G2, j, 1.0 / 3.0) / 2.0),
            abs(b_p[j, 0, 0] - lg.eval_basis(G2, j, 0.5)),
        )
        for i in range(2):
            want = lg.eval_basis(G2, j, G2.nodes[i] / 3.0) / 2.0
            diff = max(diff, abs(A[i, j, 0, 0] - want))
    assert diff <= 1e-14
    _report(
        capsys, 5,
        f"kernel paths vs quadrature worst {worst:.2e} <= 1e-10; zero-matrix "
        f"tableau diff {diff:.2e} <= 1e-14",
    )


def test_acceptance_6_contraction_bound(capsys):
    # f = sin(q) has Lipschitz constant 1, so each fixed-point sweep must
    # shrink the residual by at least h^2 * bound once the iteration is
    # in its linear regime.
    lipschitz = 1.0
    checked = []
    for h in (0.5, 0.25, 0.1):
        bound = check_contraction(G2, h, lipschitz)
        assert bound < 1.0
        for omega in (1.0, 10.0):
            ivp = OscillatoryIVP(
                M=np.array([[omega * omega]]),
                force=lambda t, q: np.sin(q),
                q0=np.array([0.7]),
                p0=np.array([0.3]),
                t_end=1.0,
            )
            cfg = SolverConfig(h=h, iteration_mode="fixed", max_iter=8)
            table = build_table(G2, ivp.M, h)
            _, _, history = fixed_point_stages(table, ivp, 0.0, ivp.q0, ivp.p0, cfg)
            ratios = [
                history[k + 1] / history[k]
                for k in range(len(history) - 1)
                if history[k] > 1e-13
            ]
            assert len(ratios) >= 2
            assert max(ratios) <= bound + 1e-3
            checked.append((h, omega, max(ratios), bound))
    summary = "; ".join(
        f"h={h} w={w:g}: {r:.4f} <= {b:.4f}+1e-3" for h, w, r, b in checked
    )
    _report(capsys, 6, summary)


def test_acceptance_7_dispersion_dissipation_constants(capsys):
    # frequency pair (omega, eps) = (1, 0.5): the one-step map keeps the
    # amplitude to round-off, and its phase error is kappa zeta^5 with
    # kappa = 1/9720, as tests/make_phase_constant.py derives it
    kappa = 1.0 / 9720.0
    devs = []
    for zeta in (0.16, 0.08, 0.04, 0.02):
        h_sq = zeta**2 / 1.5
        phase, amp = st.dispersion_dissipation(G2, h_sq, 0.5 * h_sq)
        assert abs(amp) <= 1e-13
        devs.append((zeta, amp, abs(phase / zeta**5 - kappa) / kappa))
    for _, _, dev_phase in devs:
        assert dev_phase < 0.01
    # the deviation is O(zeta^2): at least 3x smaller per halving of zeta
    for k in range(len(devs) - 1):
        assert devs[k][2] >= 3.0 * devs[k + 1][2]
    _report(
        capsys, 7,
        "amplitude error and relative deviation of phase / zeta^5 from 1/9720: "
        + ", ".join(f"zeta={z:g}: ({a:.1e}, {p:.1e})" for z, a, p in devs),
    )


def test_acceptance_8_stability_scan_sanity(capsys, tmp_path):
    args = [
        "stability", "--v-range", "0,100", "--z-range=-5,5", "--grid", "201x201",
    ]
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (201 * 201, 7)
    zero_z = rows[np.abs(rows[:, 1]) < 1e-12]
    assert zero_z.shape[0] == 201
    rho_dev = np.abs(zero_z[:, 2] - 1.0).max()
    assert rho_dev <= 1e-10
    n_stable = int(rows[:, 5].sum())
    assert n_stable > 0
    _report(
        capsys, 8,
        f"z=0 row max |rho - 1| {rho_dev:.1e} <= 1e-10 over 201 V values; "
        f"{n_stable} of {rows.shape[0]} grid points stable; repeat run "
        f"byte-identical",
    )


def test_acceptance_9_nonsymmetric_series_path(capsys):
    spec = build_problem("wave")
    h = 1.0 / 32
    norm = np.abs(h * h * spec.ivp.M).sum(axis=1).max()
    assert norm <= 30.0
    table = build_table(G2, spec.ivp.M, h)
    assert table.path == "series"
    traj = solve(spec.ivp, SolverConfig(h=h), node_set=G2)
    assert traj.t[-1] == 10.0
    assert np.isfinite(traj.q).all() and np.isfinite(traj.p).all()
    uT, vT = spec.exact_solution(10.0)
    err = _endpoint_error(traj, uT, vT)
    assert err <= 1e-9
    _report(
        capsys, 9,
        f"series path with ||h^2 M||_inf = {norm:.2f} <= 30; full horizon "
        f"reached with endpoint error {err:.1e}",
    )
