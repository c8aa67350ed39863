"""One-step map, fixed-point stage solver, grid driver, and order tools.

The scheme advances q'' + M q = f(t, q) by a variation-of-constants step:
stage values at t + c_i h solve a fixed-point system driven by the stage
coupling weights; the update combines phi-function rotations of (q, p)
with the q/p weight sums over stage forces.

Each step is a few matrix-vector products with the flat operators of its
CoefficientTable, applied to y = [q; p] and to the stacked stage forces
F = [f(t + c_1 h, Q_1); ...; f(t + c_s h, Q_s)]:

  stages  Q = predictor @ y + stage_matrix @ F(Q)     (fixed-point sweeps)
  update  [q_new; p_new] = propagator @ y + force_matrix @ F(Q)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import lagrange as lg
from .coeffs import CoefficientTable, build_table
from .errors import (
    ContractionGuardError,
    OracleUnreliableError,
    StageIterationError,
)
from .matfun import is_symmetric

DEFAULT_TOL = 1e-14
DEFAULT_MAX_ITER = 50

# Grid snapping: t_end/h within this relative distance of an integer is
# treated as an exact multiple.
_GRID_SNAP = 1e-9

# Order fits ignore errors below this floor (round-off plateau).
ERROR_FLOOR = 1e-12


@dataclass
class OscillatoryIVP:
    """Second-order IVP q'' + M q = f(t, q) with optional diagnostics.

    ``symmetric`` controls the coefficient path ("auto" detects it);
    ``lipschitz`` is a bound on the force Jacobian used by the contraction
    guard; ``hamiltonian`` (q, p) -> float and the skew ``invariant``
    matrix D (tracking q^T D p) enable the trajectory diagnostics.
    """

    M: np.ndarray
    force: Callable[[float, np.ndarray], np.ndarray]
    q0: np.ndarray
    p0: np.ndarray
    t_end: float
    symmetric: bool | None = None
    lipschitz: float | None = None
    hamiltonian: Callable[[np.ndarray, np.ndarray], float] | None = None
    invariant: np.ndarray | None = None

    def __post_init__(self):
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        self.q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        self.p0 = np.atleast_1d(np.asarray(self.p0, dtype=float))
        d = self.q0.size
        if self.M.shape != (d, d):
            raise ValueError(f"M must be {d}x{d}, got {self.M.shape}")
        if self.p0.size != d:
            raise ValueError("q0 and p0 must have equal length")
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.invariant is not None:
            D = np.atleast_2d(np.asarray(self.invariant, dtype=float))
            if D.shape != (d, d):
                raise ValueError(f"invariant matrix must be {d}x{d}")
            if np.abs(D + D.T).max() > 1e-12 * max(1.0, np.abs(D).max()):
                raise ValueError("invariant matrix must be skew-symmetric")
            self.invariant = D

    @property
    def dim(self) -> int:
        return self.q0.size

    def coefficient_path(self) -> str:
        sym = is_symmetric(self.M) if self.symmetric is None else self.symmetric
        return "spectral" if sym else "series"


@dataclass
class SolverConfig:
    """Step size plus fixed-point iteration policy.

    iteration_mode "tolerance" sweeps until the stage residual falls below
    tol * (1 + stage norm) (at most max_iter sweeps, else failure);
    "fixed" runs exactly max_iter sweeps with no convergence test.  In
    both modes a non-finite residual fails at once.
    """

    h: float
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    iteration_mode: str = "tolerance"
    enforce_contraction_guard: bool = False

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError(f"step size must be > 0, got {self.h}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.iteration_mode not in ("tolerance", "fixed"):
            raise ValueError(f"unknown iteration mode {self.iteration_mode!r}")


@dataclass
class StepResult:
    t: float
    q: np.ndarray
    p: np.ndarray
    iterations: int
    residual: float
    stages: np.ndarray


@dataclass
class Trajectory:
    """Uniform-grid solution samples plus per-step iteration diagnostics."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    energy: np.ndarray | None = None
    invariant: np.ndarray | None = None
    endpoint_error: float | None = None

    def energy_drift(self) -> np.ndarray:
        if self.energy is None:
            raise ValueError("trajectory has no energy series")
        return np.abs(self.energy - self.energy[0])

    def invariant_drift(self) -> np.ndarray:
        if self.invariant is None:
            raise ValueError("trajectory has no invariant series")
        return np.abs(self.invariant - self.invariant[0])


def check_contraction(ns: lg.NodeSet, h: float, lipschitz: float) -> float:
    """Contraction factor h^2 * L * max_ij int |l_j(c_i z)(1-z)| dz."""
    return h * h * lipschitz * ns.weight_bound


def fixed_point_stages(
    table: CoefficientTable,
    ivp: OscillatoryIVP,
    t: float,
    q: np.ndarray,
    p: np.ndarray,
    cfg: SolverConfig,
):
    """Solve the stage system; returns (stages, iterations, residual_history).

    stages is an (s, d) array.  The initial guess is the free-oscillation
    predictor phi0(c_i^2 V) q + c_i h phi1(c_i^2 V) p, i.e. predictor @ [q; p];
    each sweep evaluates the forces at the current stages into one (s, d)
    buffer F and sets the stages to predictor @ [q; p] + stage_matrix @ F.
    A sweep whose residual is not finite raises StageIterationError with the
    residual history.
    """
    ns = table.node_set
    h = cfg.h
    if cfg.enforce_contraction_guard and ivp.lipschitz is not None:
        factor = check_contraction(ns, h, ivp.lipschitz)
        if factor >= 1.0:
            raise ContractionGuardError(
                f"contraction factor {factor:.3g} >= 1 at h = {h:.3g};"
                " reduce the step"
            )
    s, d = ns.s, table.dim
    pred = table.predictor @ np.concatenate((q, p))
    stage_t = (t + ns.nodes * h).tolist()
    stages = pred.reshape(s, d)
    forces = np.empty((s, d))
    flat_forces = forces.reshape(s * d)
    history: list[float] = []
    fixed_mode = cfg.iteration_mode == "fixed"
    for sweep in range(1, cfg.max_iter + 1):
        for j in range(s):
            forces[j] = ivp.force(stage_t[j], stages[j])
        new = (pred + table.stage_matrix @ flat_forces).reshape(s, d)
        res = float(np.abs(new - stages).max())
        history.append(res)
        if not math.isfinite(res):
            raise StageIterationError(
                f"stage residual is not finite at sweep {sweep}"
                f" (residual history {', '.join(f'{r:.3g}' for r in history)})",
                residual=res,
                iterations=sweep,
            )
        stages = new
        if not fixed_mode and res <= cfg.tol * (1.0 + np.abs(stages).max()):
            return stages, sweep, history
    if fixed_mode:
        return stages, cfg.max_iter, history
    raise StageIterationError(
        f"stage iteration did not reach tol {cfg.tol:.3g} within "
        f"{cfg.max_iter} sweeps (last residual {history[-1]:.3g})",
        residual=history[-1],
        iterations=cfg.max_iter,
    )


def step(
    table: CoefficientTable,
    ivp: OscillatoryIVP,
    t: float,
    q: np.ndarray,
    p: np.ndarray,
    cfg: SolverConfig,
) -> StepResult:
    """Advance one step of size cfg.h from (t, q, p).

    The update evaluates the force once more at the accepted stages, into
    F, and returns [q_new; p_new] = propagator @ [q; p] + force_matrix @ F,
    so the map is the collocation update at the converged stage values.
    """
    if abs(table.h - cfg.h) > 1e-15 * max(1.0, cfg.h):
        raise ValueError(f"table step {table.h} does not match config step {cfg.h}")
    ns = table.node_set
    h = cfg.h
    stages, iters, history = fixed_point_stages(table, ivp, t, q, p, cfg)
    s, d = ns.s, table.dim
    stage_t = (t + ns.nodes * h).tolist()
    forces = np.empty((s, d))
    for j in range(s):
        forces[j] = ivp.force(stage_t[j], stages[j])
    y = np.concatenate((q, p))
    y_new = table.propagator @ y + table.force_matrix @ forces.ravel()
    return StepResult(
        t=t + h,
        q=y_new[:d],
        p=y_new[d:],
        iterations=iters,
        residual=history[-1] if history else 0.0,
        stages=stages,
    )


def _grid(t_end: float, h: float) -> tuple[int, float]:
    """Number of full steps and the trailing partial step (0.0 if none)."""
    ratio = t_end / h
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= _GRID_SNAP * max(1.0, ratio):
        return nearest, 0.0
    n_full = int(math.floor(ratio))
    rem = t_end - n_full * h
    if rem <= _GRID_SNAP * h:
        return n_full, 0.0
    return n_full, rem


def solve(
    ivp: OscillatoryIVP,
    cfg: SolverConfig,
    node_set: lg.NodeSet | None = None,
) -> Trajectory:
    """Integrate to t_end on a uniform grid (plus one trailing partial step).

    One coefficient table serves all full steps; a trailing partial step
    gets its own table.
    """
    ns = node_set if node_set is not None else lg.gauss2()
    path = ivp.coefficient_path()
    n_full, h_last = _grid(ivp.t_end, cfg.h)
    n_steps = n_full + (1 if h_last else 0)
    if n_steps == 0:
        raise ValueError("t_end shorter than a single step; reduce h")
    d = ivp.dim
    t_out = np.empty(n_steps + 1)
    q_out = np.empty((n_steps + 1, d))
    p_out = np.empty((n_steps + 1, d))
    iters = np.zeros(n_steps, dtype=int)
    resid = np.zeros(n_steps)
    t_out[0] = 0.0
    q_out[0] = ivp.q0
    p_out[0] = ivp.p0
    table = build_table(ns, ivp.M, cfg.h, path=path) if n_full else None
    t, q, p = 0.0, ivp.q0.copy(), ivp.p0.copy()
    k = 0
    try:
        for _ in range(n_full):
            r = step(table, ivp, t, q, p, cfg)
            t, q, p = k * cfg.h + cfg.h, r.q, r.p
            k += 1
            t_out[k], q_out[k], p_out[k] = t, q, p
            iters[k - 1], resid[k - 1] = r.iterations, r.residual
        if h_last:
            cfg_last = replace(cfg, h=h_last)
            table_last = build_table(ns, ivp.M, h_last, path=path)
            r = step(table_last, ivp, t, q, p, cfg_last)
            k += 1
            t_out[k], q_out[k], p_out[k] = ivp.t_end, r.q, r.p
            iters[k - 1], resid[k - 1] = r.iterations, r.residual
    except StageIterationError as exc:
        exc.step_index = k
        raise
    energy = None
    if ivp.hamiltonian is not None:
        energy = np.array([ivp.hamiltonian(q_out[n], p_out[n]) for n in range(n_steps + 1)])
    invariant = None
    if ivp.invariant is not None:
        invariant = np.einsum("nk,kl,nl->n", q_out, ivp.invariant, p_out)
    return Trajectory(
        t=t_out, q=q_out, p=p_out,
        iterations=iters, residuals=resid,
        energy=energy, invariant=invariant,
    )


def reference_solve(
    ivp: OscillatoryIVP,
    n_substeps_per_unit: int,
    node_set: lg.NodeSet | None = None,
    check_tol: float = 1e-10,
) -> Trajectory:
    """High-accuracy trajectory with a step-doubling self-check.

    Solves at h_ref = 1/n_substeps_per_unit and at h_ref/2; if the
    endpoints differ by more than check_tol the oracle is rejected.
    Returns the finer trajectory tagged with the Richardson error
    estimate.
    """
    if n_substeps_per_unit < 1:
        raise ValueError("n_substeps_per_unit must be >= 1")
    ns = node_set if node_set is not None else lg.gauss2()
    h_ref = 1.0 / n_substeps_per_unit
    coarse = solve(ivp, SolverConfig(h=h_ref), node_set=ns)
    fine = solve(ivp, SolverConfig(h=h_ref / 2.0), node_set=ns)
    diff = max(
        np.abs(coarse.q[-1] - fine.q[-1]).max(),
        np.abs(coarse.p[-1] - fine.p[-1]).max(),
    )
    if diff > check_tol:
        raise OracleUnreliableError(
            f"step doubling moved the endpoint by {diff:.3g} > {check_tol:.3g};"
            " increase n_substeps_per_unit"
        )
    order = 2 * ns.s
    fine.endpoint_error = diff / (2**order - 1)
    return fine


@dataclass
class OrderEstimate:
    slope: float
    step_sizes: np.ndarray
    errors: np.ndarray
    used: np.ndarray

    @property
    def excluded(self) -> list[float]:
        return [float(h) for h, u in zip(self.step_sizes, self.used) if not u]


def estimate_order(
    ivp: OscillatoryIVP,
    step_sizes,
    reference: Callable[[float], tuple[np.ndarray, np.ndarray]] | Trajectory | None = None,
    node_set: lg.NodeSet | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    error_floor: float = ERROR_FLOOR,
) -> OrderEstimate:
    """Least-squares slope of log(endpoint error) against log(h).

    ``reference`` may be a callable t -> (q, p), a Trajectory, or None
    (which builds a reference_solve at 8x the finest grid).  Errors at or
    below error_floor are excluded from the fit; at least two points must
    survive.
    """
    hs = np.asarray(sorted(step_sizes, reverse=True), dtype=float)
    if hs.size < 3:
        raise ValueError(f"need at least 3 step sizes, got {hs.size}")
    ns = node_set if node_set is not None else lg.gauss2()
    if reference is None:
        # The oracle grid is 8x finer than the finest measured grid and
        # uses at least the Gauss-2 pair so low-order node sets are
        # measured against something strictly more accurate.
        per_unit = int(math.ceil(8.0 / hs.min()))
        ref_nodes = ns if ns.s >= 2 else lg.gauss2()
        reference = reference_solve(ivp, per_unit, node_set=ref_nodes)
    if isinstance(reference, Trajectory):
        ref_q, ref_p = reference.q[-1], reference.p[-1]
    else:
        ref_q, ref_p = reference(ivp.t_end)
    errors = np.empty(hs.size)
    for n, h in enumerate(hs):
        traj = solve(ivp, SolverConfig(h=h, tol=tol, max_iter=max_iter), node_set=ns)
        errors[n] = max(
            np.abs(traj.q[-1] - ref_q).max(), np.abs(traj.p[-1] - ref_p).max()
        )
    used = errors > error_floor
    if used.sum() < 2:
        raise ValueError(
            f"only {int(used.sum())} errors above the floor {error_floor:.3g};"
            " cannot fit a slope"
        )
    slope = float(np.polyfit(np.log(hs[used]), np.log(errors[used]), 1)[0])
    return OrderEstimate(slope=slope, step_sizes=hs, errors=errors, used=used)
