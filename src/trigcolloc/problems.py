"""Benchmark oscillatory systems exposed through a small registry.

Each builder gives its M, force, initial data and, where one exists, the
potential U behind the force (forces are exact negative gradients of U,
which the tests verify by central differences) or the exact solution.
``_spec`` turns them into a ProblemSpec: it is the one place that builds a
registered OscillatoryIVP, and a problem with a potential gets the energy
H = |p|^2 / 2 + q'M q / 2 + U(q) of ``quadratic_energy``, the one copy of
that formula.

Every registered IVP is vectorized: force, potential and Hamiltonian act on
the last axis, so each serves a single d-vector as well as (n, d) rows
(with t a float or an (n, 1) column).  Their polynomial terms are
products: ``**`` calls libm pow per element, which on a negative base
took about 55-90 ns against 3 ns for a positive one and 4 ns for two
products (numpy 2.4): fpu's energy series over 10 001 rows took 2.7-3.1
ms with ``** 4``, 0.5 ms with products, in a solve of about 130 ms.  Powers
of satellite's positive r keep ``**``.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .integrator import OscillatoryIVP


@dataclass
class ProblemSpec:
    name: str
    params: dict
    ivp: OscillatoryIVP
    potential: Callable[[np.ndarray], float] | None = None
    exact_solution: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None


def quadratic_energy(M: np.ndarray, potential: Callable | None = None) -> Callable:
    """H(q, p) = |p|^2 / 2 + q'M q / 2, plus potential(q) when one is given,
    on the last axis."""
    def energy(q: np.ndarray, p: np.ndarray):
        quadratic = 0.5 * np.vecdot(p, p) + 0.5 * np.vecdot(q @ M, q)
        return quadratic if potential is None else quadratic + potential(q)

    return energy


def _spec(name, params, M, force, q0, p0, t_end, potential=None, exact_solution=None):
    """A registered problem: its vectorized IVP, with the energy of
    ``quadratic_energy`` when it has a potential."""
    hamiltonian = None if potential is None else quadratic_energy(M, potential)
    ivp = OscillatoryIVP(M=M, force=force, q0=q0, p0=p0, t_end=t_end,
                         hamiltonian=hamiltonian, vectorized=True)
    return ProblemSpec(name, params, ivp, potential, exact_solution)


# ---------------------------------------------------------------------------
# orbital problem in regularized coordinates (d = 4)

GM_EARTH = 3.98601e5          # gravitational parameter, km^3 / s^2
OBLATENESS_J2 = 1.08625e-3
EARTH_RADIUS = 6.37122e3      # km
SAT_R0 = 6.8e3                # initial radius variable, km
SAT_ECC = 0.1


def satellite_problem(t_end: float = 100.0) -> ProblemSpec:
    """Oblateness-perturbed Kepler motion in regularized 4-vector form.

    The quadratic part (kappa/2) I comes from the Kepler energy; the
    perturbation potential is
    U(q) = mu * ((q1 q3 + q2 q4)^2 / r^4 - 1 / (12 r^2)) with r = q'q.
    """
    k2 = GM_EARTH
    r0 = SAT_R0
    mu = 1.5 * k2 * OBLATENESS_J2 * EARTH_RADIUS**2
    # |q0|^2 = r0, so the radius variable starts at r0
    q0 = math.sqrt(r0 / 2.0) * np.array([-1.0, -math.sqrt(3.0) / 2.0, -0.5, 0.0])
    # Perigee start: p0 is orthogonal to q0 (radial rate 2 q'p = 0) and
    # satisfies the regularization constraint q4 p1 - q3 p2 + q2 p3 - q1 p4
    # = 0, giving a tangential velocity of the exact perigee speed
    # sqrt(k2 (1 + e) / r0).  A parallel choice would plunge to r = 0 in
    # finite time.
    p0 = 0.5 * math.sqrt(k2 * (1.0 + SAT_ECC) / 2.0) * np.array(
        [0.0, 0.5, -math.sqrt(3.0) / 2.0, -1.0]
    )
    v0 = -mu / (12.0 * r0**3)
    kappa = (k2 - 2.0 * float(p0 @ p0)) / r0 - v0
    M = (kappa / 2.0) * np.eye(4)

    def potential(q: np.ndarray):
        r = np.vecdot(q, q)
        w = q[..., 0] * q[..., 2] + q[..., 1] * q[..., 3]
        return mu * (w * w / r**4 - 1.0 / (12.0 * r * r))

    def force(t, q: np.ndarray) -> np.ndarray:
        r = np.vecdot(q, q)[..., None]
        w = (q[..., 0] * q[..., 2] + q[..., 1] * q[..., 3])[..., None]
        grad_w = q[..., [2, 3, 0, 1]]
        grad = mu * (
            2.0 * w / r**4 * grad_w - 8.0 * w * w / r**5 * q + q / (3.0 * r**3)
        )
        return -grad

    params = {"t_end": t_end, "kappa": kappa, "mu": mu, "r0": r0, "ecc": SAT_ECC}
    return _spec("satellite", params, M, force, q0, p0, t_end, potential=potential)


# ---------------------------------------------------------------------------
# stiff spring chain (d = 2 m): slow displacement block + fast block at omega

def fpu_problem(omega: float = 100.0, m: int = 3, t_end: float = 10.0) -> ProblemSpec:
    """Alternating soft/stiff spring chain in scaled variables.

    x[0:m] are scaled displacements, x[m:2m] scaled expansions;
    M = diag(0, omega^2 I) and the soft springs contribute the quartic

    U = 1/4 [ (x0 - x_m)^4
              + sum_i (x_{i+1} - x_{m+i+1} - x_i - x_{m+i})^4
              + (x_{m-1} + x_{2m-1})^4 ].
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"need a finite omega > 0, got omega={omega}")
    if m < 2:
        raise ValueError(f"need at least two spring pairs, got m={m}")
    d = 2 * m
    M = np.zeros((d, d))
    M[np.arange(m, d), np.arange(m, d)] = omega * omega

    # spring incidence: entry k of x @ G.T is the elongation of soft spring k
    # (first end, the m-1 interior couplings, last end)
    G = np.zeros((m + 1, d))
    G[0, [0, m]] = 1.0, -1.0
    for i in range(m - 1):
        G[i + 1, [i + 1, m + i + 1, i, m + i]] = 1.0, -1.0, -1.0, -1.0
    G[m, [m - 1, 2 * m - 1]] = 1.0, 1.0
    GT = G.T.copy()
    NG = -G

    def potential(x: np.ndarray):
        e = x @ GT
        e *= e
        return 0.25 * (e * e).sum(axis=-1)

    def force(t, x: np.ndarray) -> np.ndarray:
        e = x.dot(GT)
        cube = e * e
        cube *= e
        return cube.dot(NG)

    q0 = np.zeros(d)
    p0 = np.zeros(d)
    q0[0] = 1.0
    p0[0] = 1.0
    q0[m] = 1.0 / omega
    p0[m] = 1.0
    params = {"omega": omega, "m": m, "t_end": t_end}
    return _spec("fpu", params, M, force, q0, p0, t_end, potential=potential)


# ---------------------------------------------------------------------------
# periodic semilinear wave equation (d = N)

def klein_gordon_problem(n: int = 32, t_end: float = 20.0) -> ProblemSpec:
    """u_tt = u_xx - u - u^3 on a ring, second-order finite differences.

    Grid x_i = i * dx for i = 1..N with dx = L / N and L = 1.28;
    M is the periodic second-difference matrix / dx^2 (singular, PSD,
    for every N >= 1), the on-site potential contributes u^2/2 + u^4/4 per node.
    """
    if n < 1:
        raise ValueError(f"need at least one grid point, got n={n}")
    length = 1.28
    amp = 0.9
    dx = length / n
    # the two neighbours accumulate: for n = 1 they are the node itself, for
    # n = 2 the same node twice
    M = 2.0 * np.eye(n)
    for i in range(n):
        M[i, (i - 1) % n] -= 1.0
        M[i, (i + 1) % n] -= 1.0
    M /= dx * dx

    def potential(u: np.ndarray):
        u2 = u * u
        return (0.5 * u2 + 0.25 * (u2 * u2)).sum(axis=-1)

    def force(t, u: np.ndarray) -> np.ndarray:
        return -(u + u * u * u)

    x = dx * np.arange(1, n + 1)
    q0 = amp * (1.0 + np.cos(2.0 * math.pi * x / length))
    params = {"n": n, "t_end": t_end, "length": length, "amplitude": amp}
    return _spec("klein-gordon", params, M, force, q0, np.zeros(n), t_end, potential=potential)


# ---------------------------------------------------------------------------
# forced wave equation with variable coefficient (d = N - 1, nonsymmetric M)

def wave_problem(n: int = 40, t_end: float = 10.0) -> ProblemSpec:
    """u_tt - a(x) u_xx + 92 u = f on (0, 1), Dirichlet ends, a = 4x(1-x).

    Row i of the stiffness block scales the second difference by a(x_i),
    which makes M nonsymmetric, so only the series coefficient path
    applies.  Because a'' = -8 exactly and a vanishes at both ends,
    U_i(t) = a(x_i) cos(10 t) satisfies the semi-discrete system exactly
    and serves as the error reference.
    """
    if n < 2:
        raise ValueError(f"need at least two grid intervals, got n={n}")
    d = n - 1
    dx = 1.0 / n
    x = dx * np.arange(1, n)
    a = 4.0 * x * (1.0 - x)
    M = 92.0 * np.eye(d)
    for i in range(d):
        M[i, i] += 2.0 * a[i] / dx**2
        if i > 0:
            M[i, i - 1] -= a[i] / dx**2
        if i < d - 1:
            M[i, i + 1] -= a[i] / dx**2

    drive_amplitude = 0.25 * a**5
    a2 = a**2

    def force(t, u: np.ndarray) -> np.ndarray:
        drive = drive_amplitude * np.sin(20.0 * t) ** 2 * np.cos(10.0 * t)
        u2 = u * u
        u3 = u2 * u
        return u3 * u2 - a2 * u3 + drive

    def exact_solution(t: float) -> tuple[np.ndarray, np.ndarray]:
        return a * math.cos(10.0 * t), -10.0 * a * math.sin(10.0 * t)

    return _spec("wave", {"n": n, "t_end": t_end}, M, force, a.copy(), np.zeros(d), t_end,
                 exact_solution=exact_solution)


PROBLEMS: dict[str, Callable[..., ProblemSpec]] = {
    "satellite": satellite_problem,
    "fpu": fpu_problem,
    "klein-gordon": klein_gordon_problem,
    "wave": wave_problem,
}


def build_problem(name: str, **overrides) -> ProblemSpec:
    """Look up a registered problem and apply keyword overrides.

    Raises KeyError for an unknown name and ValueError, naming the problem
    and the keyword, for an override its builder does not take.
    """
    if name not in PROBLEMS:
        known = ", ".join(sorted(PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; known: {known}")
    builder = PROBLEMS[name]
    takes = _keywords(builder)
    for key in overrides:
        if key not in takes:
            raise ValueError(f"problem {name!r} takes no {key!r}; it takes {', '.join(takes)}")
    return builder(**overrides)


@functools.cache
def _keywords(builder) -> tuple:
    """The keywords a builder takes, read once per builder: inspect.signature
    costs about 15 us, as much as building fpu."""
    return tuple(inspect.signature(builder).parameters)
