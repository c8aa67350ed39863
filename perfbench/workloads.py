"""Workload definitions and seeded input generation (standard library only).

The runner imports this module to turn ``--seed`` into concrete inputs; the
worker receives only those inputs.  Every perturbation is small enough that
the workload's correctness check stays valid and its cost stays put, so runs
with different seeds measure the same work.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1
# Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

WAVE_H_LIST = (0.015625, 0.0078125, 0.00390625)  # 1/64, 1/128, 1/256

WORKLOADS = {
    "fpu-chain": (
        "fpu problem, omega=100, d=6, h=0.01, 10k steps via solve: the step "
        "loop is bound by Python overhead, table work is negligible"
    ),
    "kg-lattice": (
        "klein-gordon n=512 (symmetric, spectral path), 150 steps via solve: "
        "the table build is about a third of the wall time"
    ),
    "wave-convergence": (
        "CLI convergence on wave n=160 (nonsymmetric, series path), three "
        "step sizes on the CLI thread pool, 2240 steps in all"
    ),
    "stability-scan": (
        "CLI stability scan on the default 201x201 grid: the stability layer "
        "and bulk CSV formatting run only here"
    ),
}


def _fpu(rng: random.Random, smoke: bool) -> dict:
    omega, m = 100.0, 3
    # The registry's initial data, with the slow block nudged by up to 0.003:
    # enough to change every trajectory, little enough to keep the energy
    # drift within a few percent of its seed-1 value.
    q0 = [0.0] * (2 * m)
    p0 = [0.0] * (2 * m)
    q0[0], p0[0] = 1.0, 1.0
    q0[m], p0[m] = 1.0 / omega, 1.0
    for k in range(m):
        q0[k] += 0.003 * rng.uniform(-1.0, 1.0)
        p0[k] += 0.003 * rng.uniform(-1.0, 1.0)
    return {
        "problem": "fpu",
        "overrides": {"omega": omega, "m": m, "t_end": 0.5 if smoke else 100.0},
        "h": 0.01,
        "q0": q0,
        "p0": p0,
        # max |H(t) - H(0)| / |H(0)|; about 7e-7 at h = 0.01
        "drift_tol": 1e-5,
    }


def _kg(rng: random.Random, smoke: bool) -> dict:
    n = 32 if smoke else 512
    length = 1.28
    amp = 0.9 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
    phase = 2.0 * math.pi * rng.random()
    dx = length / n
    q0 = [
        amp * (1.0 + math.cos(2.0 * math.pi * dx * (i + 1) / length + phase))
        for i in range(n)
    ]
    return {
        "problem": "klein-gordon",
        "overrides": {"n": n, "t_end": 0.02 if smoke else 0.3},
        "h": 0.002,
        "q0": q0,
        "p0": [0.0] * n,
        # the drift is round-off here (about 1e-11), so it is bounded, not compared
        "drift_tol": 1e-9,
    }


def _wave(rng: random.Random, smoke: bool) -> dict:
    n = 40 if smoke else 160
    # A multiple of 1/64 keeps every step size an exact divisor of t_end.
    t_end = 0.25 if smoke else 5.0 + rng.randint(-4, 4) / 64.0
    h_list = ",".join(repr(h) for h in WAVE_H_LIST)
    return {
        "argv": [
            "convergence", "--problem", "wave", "--n", str(n),
            "--h-list", h_list, "--t-end", repr(t_end),
        ],
        "problem": "wave",
        "overrides": {"n": n, "t_end": t_end},
        "h_list": list(WAVE_H_LIST),
        "error_tol": 1e-10,
    }


def _stability(rng: random.Random, smoke: bool) -> dict:
    grid = (21, 21) if smoke else (201, 201)
    v_hi = 100.0 + rng.choice((-5.0, -2.5, 0.0, 2.5, 5.0))
    # Every half-width here puts z = 0 exactly on the middle grid column.
    z_half = rng.choice((4.5, 4.75, 5.0, 5.25, 5.5))
    return {
        "argv": [
            "stability", f"--v-range=0,{v_hi!r}",
            f"--z-range={-z_half!r},{z_half!r}", f"--grid={grid[0]}x{grid[1]}",
        ],
        "v_range": [0.0, v_hi],
        "z_range": [-z_half, z_half],
        "grid": list(grid),
        "rho_tol": 1e-12,
    }


_MAKERS = {
    "fpu-chain": _fpu,
    "kg-lattice": _kg,
    "wave-convergence": _wave,
    "stability-scan": _stability,
}


def make_inputs(name: str, seed: int, smoke: bool = False) -> dict:
    """The same (name, seed, smoke) always gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    inputs = _MAKERS[name](rng, smoke)
    inputs["workload"] = name
    inputs["seed"] = seed
    inputs["smoke"] = smoke
    return inputs
