import math

import numpy as np
import pytest

from trigcolloc import lagrange as lg
from trigcolloc.integrator import SolverConfig, solve
from trigcolloc.matfun import is_symmetric
from trigcolloc.problems import (
    GM_EARTH,
    PROBLEMS,
    SAT_ECC,
    SAT_R0,
    build_problem,
    quadratic_energy,
)

from oracles import fd_gradient

RNG_SEED = 90210
GRAD_TOL = 1e-5
# relative Hamiltonian drift allowed over one time unit at h = 1e-3
ENERGY_SANITY = 1e-8
SATELLITE_KAPPA = 26.384994447995595


def test_registry_contents():
    assert sorted(PROBLEMS) == ["fpu", "klein-gordon", "satellite", "wave"]
    dims = {"fpu": 6, "klein-gordon": 32, "satellite": 4, "wave": 39}
    for name, dim in dims.items():
        spec = build_problem(name)
        assert spec.name == name
        assert spec.ivp.q0.shape == (dim,)
        assert spec.ivp.M.shape == (dim, dim)


def test_unknown_problem_lists_known_names():
    with pytest.raises(KeyError) as err:
        build_problem("pendulum")
    msg = str(err.value)
    for name in PROBLEMS:
        assert name in msg


def test_overrides_reach_builders():
    fpu = build_problem("fpu", omega=77.0, m=4)
    assert fpu.params["omega"] == 77.0
    assert fpu.ivp.q0.shape == (8,)
    assert fpu.ivp.M[4, 4] == 77.0**2
    wave = build_problem("wave", n=20)
    assert wave.ivp.q0.shape == (19,)
    kg = build_problem("klein-gordon", n=16)
    assert kg.ivp.M.shape == (16, 16)
    sat = build_problem("satellite", t_end=1.0)
    assert sat.ivp.t_end == 1.0


@pytest.mark.parametrize("name, overrides", [
    ("fpu", {"m": 1}),
    ("klein-gordon", {"n": 0}),
    ("klein-gordon", {"n": -3}),
    ("wave", {"n": 1}),
    ("wave", {"n": 0}),
    ("fpu", {"omega": 0}),
    ("fpu", {"omega": -1}),
])
def test_too_small_problem_sizes_are_rejected_by_name(name, overrides):
    # klein-gordon once divided by zero or asked for negative dimensions,
    # wave built a 0-dimensional IVP, and fpu divided by omega = 0
    (key, value), = overrides.items()
    with pytest.raises(ValueError, match=f"{key}={value}"):
        build_problem(name, **overrides)


@pytest.mark.parametrize("name, key", [
    ("satellite", "omega"), ("satellite", "n"), ("fpu", "n"), ("klein-gordon", "omega"),
    ("wave", "m"),
])
def test_overrides_a_builder_lacks_are_rejected_by_name(name, key):
    # once a TypeError from the builder call
    with pytest.raises(ValueError, match=f"problem '{name}' takes no '{key}'"):
        build_problem(name, **{key: 5})


@pytest.mark.parametrize("name", ["satellite", "fpu", "klein-gordon"])
def test_force_is_negative_gradient_of_potential(name):
    spec = build_problem(name)
    rng = np.random.default_rng(RNG_SEED)
    base = spec.ivp.q0
    for _ in range(20):
        if name == "satellite":
            # stay near the orbital scale so r = |q|^2 is well separated
            # from the singularity at 0
            q = base * (1.0 + 0.1 * rng.standard_normal(base.size))
        else:
            q = rng.standard_normal(base.size)
        grad = fd_gradient(spec.potential, q)
        got = -spec.ivp.force(0.0, q)
        scale = 1.0 + np.abs(grad).max()
        assert np.abs(grad - got).max() <= GRAD_TOL * scale


def fpu_gaps_by_spring(x, m):
    g = np.empty(m + 1)
    g[0] = x[0] - x[m]
    for i in range(m - 1):
        g[i + 1] = x[i + 1] - x[m + i + 1] - x[i] - x[m + i]
    g[m] = x[m - 1] + x[2 * m - 1]
    return g


def fpu_force_by_spring(x, m):
    """Negative gradient of the soft-spring quartic, one spring at a time."""
    g3 = fpu_gaps_by_spring(x, m) ** 3
    grad = np.zeros(2 * m)
    grad[0] += g3[0]
    grad[m] -= g3[0]
    for i in range(m - 1):
        grad[i + 1] += g3[i + 1]
        grad[m + i + 1] -= g3[i + 1]
        grad[i] -= g3[i + 1]
        grad[m + i] -= g3[i + 1]
    grad[m - 1] += g3[m]
    grad[2 * m - 1] += g3[m]
    return -grad


@pytest.mark.parametrize("m", [2, 3, 5])
def test_fpu_force_matches_spring_by_spring_loop(m):
    spec = build_problem("fpu", m=m)
    rng = np.random.default_rng(RNG_SEED + m)
    for _ in range(20):
        x = rng.standard_normal(2 * m)
        want = fpu_force_by_spring(x, m)
        got = spec.ivp.force(0.0, x)
        assert got.shape == (2 * m,)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        pot = 0.25 * float((fpu_gaps_by_spring(x, m) ** 4).sum())
        assert abs(spec.potential(x) - pot) <= 1e-14 * pot


@pytest.mark.parametrize("n_rows", [2, 7])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_batched_callbacks_match_row_by_row(name, n_rows):
    spec = build_problem(name)
    ivp = spec.ivp
    assert ivp.vectorized
    rng = np.random.default_rng(RNG_SEED + n_rows)
    d = ivp.dim
    # near the initial data, which keeps satellite rows far from r = 0
    Q = ivp.q0 + 0.1 * (1.0 + np.abs(ivp.q0)) * rng.standard_normal((n_rows, d))
    P = ivp.p0 + 0.1 * (1.0 + np.abs(ivp.p0)) * rng.standard_normal((n_rows, d))
    T = rng.uniform(0.0, 2.0, (n_rows, 1))

    def check(batched, rows):
        rows = np.array(rows)
        assert np.shape(batched) == rows.shape
        assert np.abs(batched - rows).max() <= 1e-14 * np.abs(rows).max()

    check(ivp.force(T, Q), [ivp.force(float(T[k, 0]), Q[k]) for k in range(n_rows)])
    if spec.potential is not None:
        check(spec.potential(Q), [spec.potential(Q[k]) for k in range(n_rows)])
    if ivp.hamiltonian is not None:
        check(ivp.hamiltonian(Q, P), [ivp.hamiltonian(Q[k], P[k]) for k in range(n_rows)])


@pytest.mark.parametrize("name", ["satellite", "fpu", "klein-gordon"])
def test_hamiltonian_is_conserved_along_solve(name):
    spec = build_problem(name, t_end=1.0)
    traj = solve(spec.ivp, SolverConfig(h=1e-3), node_set=lg.gauss2())
    assert traj.energy is not None
    rel_drift = traj.energy_drift().max() / max(1.0, abs(traj.energy[0]))
    assert rel_drift <= ENERGY_SANITY


def test_satellite_initial_data_geometry():
    spec = build_problem("satellite")
    q0, p0 = spec.ivp.q0, spec.ivp.p0
    # radius variable starts at r0
    assert abs(float(q0 @ q0) / SAT_R0 - 1.0) < 1e-13
    # perigee: radial rate 2 q'p vanishes
    assert abs(float(q0 @ p0)) < 1e-9
    # regularization bilinear constraint
    bilinear = q0[3] * p0[0] - q0[2] * p0[1] + q0[1] * p0[2] - q0[0] * p0[3]
    assert abs(bilinear) < 1e-9
    # tangential speed matches the perigee value sqrt(k2 (1 + e) / r0):
    # |xdot| = 2 |p| |q| / r implies |p|^2 = k2 (1 + e) / 4
    assert abs(float(p0 @ p0) / (GM_EARTH * (1.0 + SAT_ECC) / 4.0) - 1.0) < 1e-13
    kappa = spec.params["kappa"]
    assert abs(kappa - SATELLITE_KAPPA) < 1e-10
    assert np.abs(spec.ivp.M - (kappa / 2.0) * np.eye(4)).max() == 0.0


def test_fpu_matrix_structure():
    spec = build_problem("fpu")
    m = spec.params["m"]
    omega = spec.params["omega"]
    want = np.diag([0.0] * m + [omega**2] * m)
    assert np.array_equal(spec.ivp.M, want)
    q0, p0 = spec.ivp.q0, spec.ivp.p0
    assert q0[0] == 1.0 and q0[m] == 1.0 / omega
    assert p0[0] == 1.0 and p0[m] == 1.0
    assert np.abs(q0).sum() == 1.0 + 1.0 / omega
    assert np.abs(p0).sum() == 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 32])
def test_klein_gordon_matrix_structure(n):
    # for n <= 2 both neighbours of a node are one node (itself at n = 1),
    # so their entries must add up, not overwrite each other
    spec = build_problem("klein-gordon", n=n)
    M = spec.ivp.M
    assert np.abs(M - M.T).max() == 0.0
    assert np.abs(M.sum(axis=1)).max() < 1e-9
    assert np.linalg.eigvalsh(M).min() > -1e-9
    eye = np.eye(n)
    dx = spec.params["length"] / n
    circulant = (2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)) / dx**2
    assert np.allclose(M, circulant, rtol=0.0, atol=1e-12 * np.abs(circulant).max())
    assert np.all(spec.ivp.q0 >= 0.0)
    assert np.all(spec.ivp.p0 == 0.0)


def test_wave_matrix_is_nonsymmetric():
    spec = build_problem("wave")
    M = spec.ivp.M
    assert np.abs(M - M.T).max() > 1.0
    assert not is_symmetric(M)


def test_wave_exact_solution_satisfies_system():
    spec = build_problem("wave")
    M = spec.ivp.M
    u0, v0 = spec.exact_solution(0.0)
    assert np.array_equal(u0, spec.ivp.q0)
    assert np.array_equal(v0, spec.ivp.p0)
    for t in (0.0, 0.123, 0.5, 1.7):
        u, _ = spec.exact_solution(t)
        # q'' + M q = f with q = a(x) cos(10 t), q'' = -100 q
        residual = -100.0 * u + M @ u - spec.ivp.force(t, u)
        assert np.abs(residual).max() < 1e-9


def test_only_wave_reports_an_exact_solution():
    for name in PROBLEMS:
        spec = build_problem(name)
        if name == "wave":
            assert spec.exact_solution is not None
        else:
            assert spec.exact_solution is None
            assert spec.ivp.hamiltonian is not None


def test_polynomial_forces_match_their_power_forms_to_a_few_ulp():
    # The registered forces form cubes and fifth powers by multiplication;
    # np.power rounds each power once, products two or three times.
    rng = np.random.default_rng(RNG_SEED)
    eps = np.finfo(float).eps
    t = rng.uniform(0.0, 2.0, (1000, 1))

    m = 3
    fpu = build_problem("fpu", m=m).ivp
    G = np.stack([fpu_gaps_by_spring(e, m) for e in np.eye(2 * m)], axis=1)
    x = 2.0 * rng.standard_normal((1000, 2 * m))
    e = x @ G.T
    got, want = fpu.force(t, x), (e**3) @ -G
    assert np.all(np.abs(got - want) <= 4 * eps * (np.abs(e) ** 3 @ np.abs(G)))

    kg = build_problem("klein-gordon", n=8).ivp
    u = 2.0 * rng.standard_normal((1000, 8))
    got, want = kg.force(t, u), -(u + u**3)
    assert np.all(np.abs(got - want) <= 4 * eps * (np.abs(u) + np.abs(u) ** 3))

    wave = build_problem("wave", n=9).ivp
    a = wave.q0
    u = 2.0 * rng.standard_normal((1000, 8))
    drive = 0.25 * a**5 * np.sin(20.0 * t) ** 2 * np.cos(10.0 * t)
    got, want = wave.force(t, u), u**5 - a**2 * u**3 + drive
    size = np.abs(u) ** 5 + a**2 * np.abs(u) ** 3 + np.abs(drive)
    assert np.all(np.abs(got - want) <= 4 * eps * size)


def test_potentials_match_their_power_forms_to_a_few_ulp():
    # fpu and klein-gordon form their fourth powers as squares of squares,
    # which round twice where ``** 4`` rounds once; on mixed-sign rows the
    # potentials and the energies agree with the power forms within
    # 4 eps times the sum of their terms' magnitudes.
    rng = np.random.default_rng(RNG_SEED)
    eps = np.finfo(float).eps

    def check(spec, power_potential, q, p):
        terms = power_potential(q)
        want = terms.sum(axis=-1)
        got = spec.potential(q)
        assert np.all(np.abs(got - want) <= 4 * eps * np.abs(terms).sum(axis=-1))
        M = spec.ivp.M
        want = quadratic_energy(M, lambda x: power_potential(x).sum(axis=-1))(q, p)
        size = (0.5 * np.vecdot(p, p) + 0.5 * np.abs(np.vecdot(q @ M, q))
                + np.abs(terms).sum(axis=-1))
        got = spec.ivp.hamiltonian(q, p)
        assert np.all(np.abs(got - want) <= 4 * eps * size)

    m = 3
    G = np.stack([fpu_gaps_by_spring(e, m) for e in np.eye(2 * m)], axis=1)
    GT = G.T.copy()
    x, p = 2.0 * rng.standard_normal((2, 1000, 2 * m))
    assert (x < 0).any() and (x > 0).any()
    check(build_problem("fpu", m=m), lambda x: 0.25 * (x @ GT) ** 4, x, p)

    u, p = 2.0 * rng.standard_normal((2, 1000, 8))
    check(build_problem("klein-gordon", n=8), lambda u: 0.5 * u**2 + 0.25 * u**4, u, p)


def test_wave_drive_is_bit_for_bit_the_unhoisted_expression():
    # at u = 0 the force is its drive alone, exactly
    wave = build_problem("wave", n=16).ivp
    a = wave.q0
    for t in (0.0, 0.123, 1.7, np.array([[0.05], [0.3], [2.9]])):
        u = np.zeros((np.size(t), a.size)) if np.ndim(t) else np.zeros(a.size)
        want = 0.25 * a**5 * np.sin(20.0 * t) ** 2 * np.cos(10.0 * t)
        assert np.array_equal(wave.force(t, u), want)
