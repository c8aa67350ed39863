"""Benchmark oscillatory systems exposed through a small registry.

Each builder returns a ProblemSpec wrapping an OscillatoryIVP plus the
potential behind its force (forces are exact negative gradients of the
potential, which the tests verify by central differences) and, where one
exists, the exact solution.
"""

from __future__ import annotations

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
    notes: str = ""


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

    def potential(q: np.ndarray) -> float:
        r = float(q @ q)
        w = q[0] * q[2] + q[1] * q[3]
        return mu * (w * w / r**4 - 1.0 / (12.0 * r * r))

    def force(t: float, q: np.ndarray) -> np.ndarray:
        r = float(q @ q)
        w = q[0] * q[2] + q[1] * q[3]
        grad_w = np.array([q[2], q[3], q[0], q[1]])
        grad = mu * (
            2.0 * w / r**4 * grad_w - 8.0 * w * w / r**5 * q + q / (3.0 * r**3)
        )
        return -grad

    def hamiltonian(q: np.ndarray, p: np.ndarray) -> float:
        return 0.5 * float(p @ p) + 0.5 * (kappa / 2.0) * float(q @ q) + potential(q)

    ivp = OscillatoryIVP(
        M=M, force=force, q0=q0, p0=p0, t_end=t_end,
        symmetric=True, hamiltonian=hamiltonian,
    )
    return ProblemSpec(
        name="satellite",
        params={"t_end": t_end, "kappa": kappa, "mu": mu, "r0": r0, "ecc": SAT_ECC},
        ivp=ivp,
        potential=potential,
        notes="|q0|^2 equals r0, so the radius variable starts at r0.",
    )


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
    if m < 2:
        raise ValueError(f"need at least two spring pairs, got m={m}")
    d = 2 * m
    M = np.zeros((d, d))
    M[np.arange(m, d), np.arange(m, d)] = omega * omega

    # spring incidence: row k of G @ x is the elongation of soft spring k
    # (first end, the m-1 interior couplings, last end)
    G = np.zeros((m + 1, d))
    G[0, [0, m]] = 1.0, -1.0
    for i in range(m - 1):
        G[i + 1, [i + 1, m + i + 1, i, m + i]] = 1.0, -1.0, -1.0, -1.0
    G[m, [m - 1, 2 * m - 1]] = 1.0, 1.0
    GT = G.T.copy()

    def potential(x: np.ndarray) -> float:
        return 0.25 * float(((G @ x) ** 4).sum())

    def force(t: float, x: np.ndarray) -> np.ndarray:
        return -(GT @ (G @ x) ** 3)

    def hamiltonian(x: np.ndarray, y: np.ndarray) -> float:
        return 0.5 * float(y @ y) + 0.5 * float(x @ (M @ x)) + potential(x)

    q0 = np.zeros(d)
    p0 = np.zeros(d)
    q0[0] = 1.0
    p0[0] = 1.0
    q0[m] = 1.0 / omega
    p0[m] = 1.0
    ivp = OscillatoryIVP(
        M=M, force=force, q0=q0, p0=p0, t_end=t_end,
        symmetric=True, hamiltonian=hamiltonian,
    )
    return ProblemSpec(
        name="fpu",
        params={"omega": omega, "m": m, "t_end": t_end},
        ivp=ivp,
        potential=potential,
    )


# ---------------------------------------------------------------------------
# periodic semilinear wave equation (d = N)

def klein_gordon_problem(n: int = 32, t_end: float = 20.0) -> ProblemSpec:
    """u_tt = u_xx - u - u^3 on a ring, second-order finite differences.

    Grid x_i = i * dx for i = 1..N with dx = L / N and L = 1.28;
    M is the periodic second-difference matrix / dx^2 (singular, PSD),
    the on-site potential contributes u^2/2 + u^4/4 per node.
    """
    length = 1.28
    amp = 0.9
    dx = length / n
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = 2.0
        M[i, (i - 1) % n] = -1.0
        M[i, (i + 1) % n] = -1.0
    M /= dx * dx

    def potential(u: np.ndarray) -> float:
        return float((0.5 * u**2 + 0.25 * u**4).sum())

    def force(t: float, u: np.ndarray) -> np.ndarray:
        return -(u + u**3)

    def hamiltonian(u: np.ndarray, v: np.ndarray) -> float:
        return 0.5 * float(v @ v) + 0.5 * float(u @ (M @ u)) + potential(u)

    x = dx * np.arange(1, n + 1)
    q0 = amp * (1.0 + np.cos(2.0 * math.pi * x / length))
    p0 = np.zeros(n)
    ivp = OscillatoryIVP(
        M=M, force=force, q0=q0, p0=p0, t_end=t_end,
        symmetric=True, hamiltonian=hamiltonian,
    )
    return ProblemSpec(
        name="klein-gordon",
        params={"n": n, "t_end": t_end, "length": length, "amplitude": amp},
        ivp=ivp,
        potential=potential,
    )


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

    def force(t: float, u: np.ndarray) -> np.ndarray:
        drive = 0.25 * a**5 * math.sin(20.0 * t) ** 2 * math.cos(10.0 * t)
        return u**5 - a**2 * u**3 + drive

    def exact_solution(t: float) -> tuple[np.ndarray, np.ndarray]:
        return a * math.cos(10.0 * t), -10.0 * a * math.sin(10.0 * t)

    ivp = OscillatoryIVP(
        M=M, force=force, q0=a.copy(), p0=np.zeros(d), t_end=t_end,
        symmetric=False,
    )
    return ProblemSpec(
        name="wave",
        params={"n": n, "t_end": t_end},
        ivp=ivp,
        exact_solution=exact_solution,
        notes="nonsymmetric M; exact solution a(x) cos(10 t).",
    )


PROBLEMS: dict[str, Callable[..., ProblemSpec]] = {
    "satellite": satellite_problem,
    "fpu": fpu_problem,
    "klein-gordon": klein_gordon_problem,
    "wave": wave_problem,
}


def build_problem(name: str, **overrides) -> ProblemSpec:
    """Look up a registered problem and apply keyword overrides."""
    if name not in PROBLEMS:
        known = ", ".join(sorted(PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; known: {known}")
    return PROBLEMS[name](**overrides)
