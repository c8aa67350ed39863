"""One-step map, fixed-point stage solver, grid driver, and order tools.

The scheme advances q'' + M q = f(t, q) by a variation-of-constants step:
stage values at t + c_i h solve a fixed-point system driven by the stage
coupling weights; the update combines phi-function rotations of (q, p)
with the q/p weight sums over stage forces.

Each step is a few matrix-vector products with the flat operators of its
CoefficientTable, applied to y = [q; p] and to the stacked stage forces
F = [f(t + c_1 h, Q_1); ...; f(t + c_s h, Q_s)]:

  stages  Q = [stage_matrix | pred] @ [F(Q); 1]       (fixed-point sweeps)
            = stage_matrix @ F(Q) + pred,  pred = predictor @ y
  update  [q_new; p_new] = propagator @ y + force_matrix @ F = update @ [y; F]

Each sweep fills F with one force call on all s stages (a per-row force is
wrapped into that call, which calls it once per stage).  Tolerance mode
accepts the stages Q_k of sweep k on either of two tests, with
res_k = max |Q_k - Q_(k-1)| and bound = tol * (1 + max |Q_k|):

  residual test     res_k <= bound; the update reuses the F of that sweep,
                    F(Q_(k-1)), which costs no force call;
  contraction test  from sweep 2 on, with theta = res_k / res_(k-1) <
                    CONTRACTION_MAX, theta / (1 - theta) * res_k <= bound, the
                    classical estimate of |Q_k - Q*| for a contraction
                    (Hairer & Wanner, Solving ODEs II, IV.8); F is then
                    evaluated once more at Q_k for the update.

The contraction test saves the sweep that would only confirm convergence:
its matrix product, residual and tests, not its force call, because the
update needs F at converged stages and F(Q_(k-1)) is not (Q_(k-1) is
res_k away from them).  Fixed mode runs max_iter sweeps with no test and
evaluates F once more at the final stages.

The first iterate is the predictor, Q = pred, unless the stage iteration
gets a force guess ``start``: then it is a sweep's product with start for
F.  In tolerance mode ``solve`` passes start = E @ F_prev for every full
step after the first, where F_prev is the previous step's accepting forces
and E = NodeSet.extrapolation evaluates their interpolant at the new stage
times, the starting guess of Hairer, Lubich & Wanner, Geometric Numerical
Integration, VIII.6.1.  The extrapolated forces are O(h^s) off, so the
first iterate is O(h^(s+2)) off instead of the predictor's O(h^2), which
saves about a sweep.  The first step and a trailing partial step (whose h
differs) start from the predictor, and so does every step in fixed mode:
there the result depends on the first iterate, and a fixed number of
sweeps from the predictor is the map that mode promises.

Everything a step needs besides its arithmetic stays the same for a whole
solve: the operators, the buffers and their views, and the force in its
batched form.  A private _Stepper holds them for one (table, ivp, cfg), and
its ``run`` runs every step of a run in one loop:
the sweeps and both tests, the update as one product, the warm start, each
step's sweep count and last residual, and the step index a failure names.
``solve`` makes two runs, its full steps and a trailing partial step, each
with its own stepper.  The stage times are formed once per run too:
``solve`` fills the grid times t_k = (k - 1) h + h and every step's (s, 1)
column t_k + c_i h with one vector operation each, bit for bit as the
scalar forms.  ``step`` and ``fixed_point_stages`` are one-step runs of the
same loop that form their column from their t, so the sweep, both tests
and the update exist in one place.

No step tests its new state.  A non-finite one makes the next step's first
sweep fail, naming the step whose update made it; a run's last state is
tested once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import lagrange as lg
from .coeffs import CoefficientTable, build_table
from .errors import OracleUnreliableError, StageIterationError

DEFAULT_TOL = 1e-14
DEFAULT_MAX_ITER = 50

# The contraction test uses the ratio theta of successive residuals only
# below this value.  At theta >= 1 the iteration does not contract and the
# estimate theta / (1 - theta) * res is meaningless (negative); between 1/2
# and 1 it is at least res, so it cannot pass where the residual test failed.
CONTRACTION_MAX = 0.5

# Grid snapping: t_end/h within this relative distance of an integer is
# treated as an exact multiple.
_GRID_SNAP = 1e-9

# Order fits ignore errors below this floor (round-off plateau).
ERROR_FLOOR = 1e-12

# A reference solve is refused when step doubling moves its endpoint by more
# than REFERENCE_CHECK_TOL.
REFERENCE_CHECK_TOL = 1e-10


@dataclass
class OscillatoryIVP:
    """Second-order IVP q'' + M q = f(t, q) with optional diagnostics.

    ``hamiltonian`` (q, p) -> float gives the trajectory its energy series.

    ``vectorized`` declares the callbacks' signature.  False (default):
    ``force(t, q)`` gets a float t and a d-vector q and returns a d-vector,
    and ``hamiltonian(q, p)`` gets one pair of d-vectors.  True:
    ``force(t, Q)`` gets t as an (s, 1) column of stage times and Q as
    (s, d) rows and returns (s, d), and ``hamiltonian(Q, P)`` gets (n, d)
    rows and returns (n,).  It cannot be detected: a per-row callback such
    as -(q @ q) * q runs on rows without error and computes garbage.
    """

    M: np.ndarray
    force: Callable[[float, np.ndarray], np.ndarray]
    q0: np.ndarray
    p0: np.ndarray
    t_end: float
    hamiltonian: Callable[[np.ndarray, np.ndarray], float] | None = None
    vectorized: bool = False

    def __post_init__(self):
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        self.q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        self.p0 = np.atleast_1d(np.asarray(self.p0, dtype=float))
        d = self.q0.size
        if self.M.shape != (d, d):
            raise ValueError(f"M must be {d}x{d}, got {self.M.shape}")
        if self.p0.size != d:
            raise ValueError("q0 and p0 must have equal length")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")

    @property
    def dim(self) -> int:
        return self.q0.size


@dataclass
class SolverConfig:
    """Step size plus fixed-point iteration policy.

    iteration_mode "tolerance" sweeps until the stage residual, or from
    the second sweep on its contraction estimate theta / (1 - theta) *
    residual, falls below tol * (1 + stage norm) (at most max_iter sweeps,
    else failure); "fixed" runs exactly max_iter sweeps with no convergence
    test.  In both modes a non-finite residual fails at once.
    """

    h: float
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    iteration_mode: str = "tolerance"

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"step size must be finite and > 0, got {self.h}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
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
    forces: np.ndarray


@dataclass
class Trajectory:
    """Uniform-grid solution samples plus per-step iteration diagnostics."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    energy: np.ndarray | None = None
    endpoint_error: float | None = None

    def energy_drift(self) -> np.ndarray:
        if self.energy is None:
            raise ValueError("trajectory has no energy series")
        return np.abs(self.energy - self.energy[0])


def check_contraction(ns: lg.NodeSet, h: float, lipschitz: float) -> float:
    """Contraction factor h^2 * L * max_ij int |l_j(c_i z)(1-z)| dz.

    For a force whose Jacobian is bounded by L, a factor below 1 makes the
    stage iteration a contraction whatever M is.  The condition is
    sufficient, not necessary: for f = 50 q, M = 1 and Gauss-2 at h = 0.3
    the factor is 2.80, yet the iteration converges in about 18 sweeps per
    step, since 50 * stage_matrix has spectral radius 0.216 there.  No step
    is refused on it; a stage iteration that does not converge raises
    StageIterationError with the step index and the residual history.
    """
    return h * h * lipschitz * lg.abs_weight_bound(ns)


def _batched_force(force: Callable[[float, np.ndarray], np.ndarray]):
    """The vectorized form (t (s, 1), Q (s, d)) -> (s, d) of a per-row force:
    one call per row, with a float t and a d-vector."""

    def batched(stage_t: np.ndarray, stages: np.ndarray) -> np.ndarray:
        out = np.empty_like(stages)
        for j, tj in enumerate(stage_t.ravel().tolist()):
            out[j] = force(tj, stages[j])
        return out

    return batched


class _Stepper:
    """The steps of one (table, ivp, cfg): operators, buffers and checks.

    Everything that stays the same from step to step is done here once: the
    batched form of the force and the allocation of every buffer and view a
    step writes.  ``run`` then runs a whole run of steps in one loop that
    does only the arithmetic of the module docstring.
    The table must be built for cfg.h, as solve's are; step checks its
    caller's.

    The state y = [q; p] a step starts from and the (s, d) stage forces F
    that its sweeps fill lie next to each other in one buffer z = [y; F; 1],
    so that the update is the one product table.update @ [y; F] and a sweep
    W @ [F; 1], W = [stage_matrix | pred] being a private copy whose last
    column each step sets.  Two such buffers take turns: a step writes its
    new state into the y of the other, where the next step starts, its warm
    start into the other's F, and its halves into the output rows.  The
    stages and forces run returns are views into the buffers, which later
    runs overwrite: copy what must outlive the next run.
    """

    def __init__(self, table: CoefficientTable, ivp: OscillatoryIVP, cfg: SolverConfig):
        ns = table.node_set
        s, d = ns.s, table.dim
        n = s * d
        self.table = table
        self.cfg = cfg
        self._force = ivp.force if ivp.vectorized else _batched_force(ivp.force)
        self._fixed_mode = cfg.iteration_mode == "fixed"
        # Step j uses buffer j % 2: its ([y; F], y, [F; 1], F as (s, d)) and the other's
        # (y, q, p, F as (s, d)).  One (n + 1, 2d) output for the update would save
        # a row copy, but kept 1 MiB more resident on fpu-chain.
        zs = np.empty((2, 2 * d + n + 1))
        zs[:, -1] = 1.0
        bufs = [(z[:-1], z[: 2 * d], z[2 * d :], z[2 * d : -1].reshape(s, d)) for z in zs]
        self._turns = tuple(
            mine + (other[1], other[1][:d], other[1][d:], other[3])
            for mine, other in (bufs, bufs[::-1])
        )
        self._W = np.hstack((table.stage_matrix, np.empty((n, 1))))  # row-major, as the table
        self._pred, self._guess = np.empty((2, n))
        self._initial_sd = (self._pred.reshape(s, d), self._guess.reshape(s, d))
        # One work buffer.  Sweeps alternate between rows 0-1 and rows 2-3, each
        # pair holding (new - previous, new); rows 4-5 take their magnitudes,
        # whose row argmaxes go to _argmax and locate the residual and the size.
        # Each parity's rows, their two halves and new as (s, d) are prepared
        # here: a sweep indexes once.
        work = np.empty((6, n))
        self._sweep_bufs = tuple(
            (rows, rows[0], rows[1], rows[1].reshape(s, d)) for rows in (work[0:2], work[2:4])
        )
        self._magnitude = work[4:6]
        self._argmax = np.empty(2, np.intp)

    def run(self, stage_times, q_out, p_out, iterations, residuals, first=0, start=None):
        """Run one step per (s, 1) stage-time column t_k + table.stage_offsets
        in ``stage_times``, from the state (q_out[0], p_out[0]).

        Step j writes its new state into q_out[j + 1] and p_out[j + 1], its
        sweep count into iterations[j] and its last residual into
        residuals[j], and is step first + j of a solve in a
        StageIterationError.  The first step starts its stage iteration from
        the (s, d) force guess ``start`` (None: the predictor), later ones in
        tolerance mode from the step before's extrapolated forces.  Returns
        the last step's (stages, forces, residual_history), the forces being
        those its update used; fixed_point_stages documents the iteration.
        """
        table = self.table
        predictor_dot, update_dot = table.predictor.dot, table.update.dot
        extrapolation_dot = None if self._fixed_mode else table.node_set.extrapolation.dot
        turns = self._turns
        W_dot, pred_column = self._W.dot, self._W[:, -1]
        pred, guess = self._pred, self._guess
        pred_sd, guess_sd = self._initial_sd
        warm = start is not None
        if warm:  # step 0's first iterate is then the product a warm start makes
            turns[0][3][...] = np.reshape(start, turns[0][3].shape)
        sweep_bufs = self._sweep_bufs
        magnitude, argmax = self._magnitude, self._argmax
        row_argmax, magnitude_at, argmax_pair = magnitude.argmax, magnitude.item, argmax.tolist
        subtract, absolute = np.subtract, np.abs
        isfinite, contraction_max = math.isfinite, CONTRACTION_MAX
        force = self._force
        fixed_mode = self._fixed_mode
        tol = self.cfg.tol
        max_iter = self.cfg.max_iter
        sweeps = range(1, max_iter + 1)
        q0, p0 = turns[1][5:7]  # the halves of buffer 0's y, where step 0 starts
        q0[...], p0[...] = q_out[0], p_out[0]
        # A sweep is a few dozen numpy calls on arrays of s*d elements, so numpy's
        # dispatch, not arithmetic, sets its cost.  On a 12x12 operator
        # ndarray.dot(b, out) takes 0.45-0.65 us against 1.2-1.7 us for `@` or
        # np.matmul(..., out=), with the same bits, and a ufunc given out= or
        # axis= by keyword takes 0.1-0.2 us more than one given them by position
        # (numpy 2.4, one BLAS thread).  The residual and the size are read at
        # their rows' argmaxes: on fpu's (2, 12) magnitudes that takes 0.5 us
        # against 1.1-1.2 us for np.maximum.reduce and tolist (0.7 against 1.4 us
        # at 2 x 1024).  A maximum does not round and argmax returns the index of
        # the first NaN, so both forms give the same bits.  Keep these forms, and
        # the rule that a sweep looks up no global or attribute and builds no
        # view: everything it calls or writes is bound to a local above or
        # prepared in __init__.
        for j, (stage_t, q_row, p_row) in enumerate(zip(stage_times, q_out[1:], p_out[1:])):
            yf, y, f1, forces, y_new, q_new, p_new, next_forces = turns[j & 1]
            predictor_dot(y, pred)
            pred_column[...] = pred
            if warm:  # F holds the force guess
                stages, stages_sd = W_dot(f1, guess), guess_sd
            else:
                stages, stages_sd = pred, pred_sd
            history = []
            record = history.append
            prev = 0.0
            for sweep in sweeps:
                forces[...] = force(stage_t, stages_sd)
                rows, diff, new, new_sd = sweep_bufs[sweep & 1]
                W_dot(f1, new)
                subtract(new, stages, diff)
                absolute(rows, magnitude)
                row_argmax(1, argmax)
                i_res, i_size = argmax_pair()
                res, size = magnitude_at(0, i_res), magnitude_at(1, i_size)
                record(res)
                if not isfinite(res):
                    if sweep == 1 and j and not np.isfinite(y).all():
                        # the state this step starts from is already not finite
                        raise _update_error(first + j - 1, iterations[j - 1], residuals[j - 1])
                    raise StageIterationError(
                        f"stage residual is not finite at sweep {sweep}"
                        f" (residual history {', '.join(f'{r:.3g}' for r in history)})",
                        residual=res, iterations=sweep, step_index=first + j,
                    )
                stages, stages_sd = new, new_sd
                if fixed_mode:
                    continue
                bound = tol * (1.0 + size)
                if res <= bound:
                    break
                # prev = 0 fails this at sweep 1 and keeps it out of the division.
                if res < contraction_max * prev:
                    theta = res / prev
                    if theta / (1.0 - theta) * res <= bound:
                        forces[...] = force(stage_t, stages_sd)
                        break
                prev = res
            else:
                if not fixed_mode:
                    raise StageIterationError(
                        f"stage iteration did not reach tol {tol:.3g} within "
                        f"{max_iter} sweeps (last residual {res:.3g})",
                        residual=res, iterations=max_iter, step_index=first + j,
                    )
                forces[...] = force(stage_t, stages_sd)
            update_dot(yf, y_new)
            q_row[...] = q_new
            p_row[...] = p_new
            iterations[j] = sweep
            residuals[j] = res
            if extrapolation_dot is not None:
                warm = True
                extrapolation_dot(forces, next_forces)
        if not np.isfinite(y_new).all():
            raise _update_error(first + j, sweep, res)
        return stages_sd, forces, history


def _update_error(step_index, iterations, residual) -> StageIterationError:
    """The failure of a step whose update gave a non-finite state."""
    return StageIterationError(
        f"the update gave a non-finite state after {iterations} sweeps"
        f" (last residual {residual:.3g})",
        residual=float(residual), iterations=int(iterations), step_index=step_index,
    )


def _one_step(table, ivp, t, q, p, cfg, start):
    """A one-step run from (t, q, p): (q_new, p_new, stages, forces, history)."""
    q_out, p_out = np.empty((2, table.dim)), np.empty((2, table.dim))
    q_out[0], p_out[0] = q, p
    stage_times = (table.stage_offsets + t)[None]
    stages, forces, history = _Stepper(table, ivp, cfg).run(
        stage_times, q_out, p_out, np.empty(1, int), np.empty(1), 0, start
    )
    return q_out[1], p_out[1], stages, forces, history


def fixed_point_stages(
    table: CoefficientTable,
    ivp: OscillatoryIVP,
    t: float,
    q: np.ndarray,
    p: np.ndarray,
    cfg: SolverConfig,
    start: np.ndarray | None = None,
):
    """Solve the stage system; returns (stages, iterations, residual_history).

    stages is an (s, d) array.  Without ``start`` the initial guess is the
    free-oscillation predictor phi0(c_i^2 V) q + c_i h phi1(c_i^2 V) p, i.e.
    pred = predictor @ [q; p]; an (s, d) force guess ``start`` makes it
    stage_matrix @ start + pred.  Each sweep evaluates the forces at the
    current stages into one (s, d) buffer F and sets the stages to
    stage_matrix @ F + pred, one product (see _Stepper); the residual and
    the scaling size are the largest entries of |new - previous| and |new|,
    read at their argmaxes.
    In tolerance mode the stages are accepted by the residual test or the
    contraction test (see the module docstring).  A sweep whose residual is
    not finite raises StageIterationError with the residual history.  One
    call is a one-step run of _Stepper, the loop solve runs, so it makes
    that step's update too and fails as it does.
    """
    _, _, stages, _, history = _one_step(table, ivp, t, q, p, cfg, start)
    return stages, len(history), history


def step(
    table: CoefficientTable,
    ivp: OscillatoryIVP,
    t: float,
    q: np.ndarray,
    p: np.ndarray,
    cfg: SolverConfig,
    start: np.ndarray | None = None,
) -> StepResult:
    """Advance one step of size cfg.h from (t, q, p).

    Returns [q_new; p_new] = propagator @ [q; p] + force_matrix @ F, formed
    as the one product update @ [q; p; F], with the (s, d) stage forces F as
    ``forces``.  In tolerance mode F is the forces of the accepting sweep
    after the residual test (no extra force call), the forces at the
    returned stages after the contraction test; in fixed mode F is
    evaluated once more at the final stages, so the map is the collocation
    update at the returned stage values.  ``start`` (an (s, d) force guess)
    is copied into the stepper's F, so the first stage iterate is a sweep's
    product, stage_matrix @ start + pred.  Each call is a one-step run of
    _Stepper, the loop that solve runs for all its steps; a non-finite new
    state raises StageIterationError.
    """
    if abs(table.h - cfg.h) > 1e-15 * max(1.0, cfg.h):
        raise ValueError(f"table step {table.h} does not match config step {cfg.h}")
    q_new, p_new, stages, forces, history = _one_step(table, ivp, t, q, p, cfg, start)
    return StepResult(t + cfg.h, q_new, p_new, len(history), history[-1], stages, forces)


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

    The steps run in two runs, the full steps and a trailing partial step,
    each one _Stepper.run over its own coefficient table, with the stage
    times of all its steps formed before its first.  In tolerance mode
    every step of a run after its first starts its stage iteration from
    the previous step's force interpolant
    (start = node_set.extrapolation @ F_prev); the first step, a trailing
    partial step and fixed mode start from the predictor.
    """
    ns = node_set if node_set is not None else lg.gauss2()
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
    h = cfg.h
    t_out[0] = 0.0
    # the grid times k h + h, bit for bit as Python's k * h + h
    t_out[1:n_full + 1] = np.arange(n_full) * h + h
    if h_last:
        t_out[-1] = ivp.t_end
    q_out[0], p_out[0] = ivp.q0, ivp.p0
    for first, stop, h_run in ((0, n_full, h), (n_full, n_steps, h_last)):
        if first == stop:
            continue
        table = build_table(ns, ivp.M, h_run)
        # each step's (s, 1) stage times t_k + c_i h, formed as step forms them
        stage_times = t_out[first:stop, None, None] + table.stage_offsets
        _Stepper(table, ivp, replace(cfg, h=h_run)).run(
            stage_times, q_out[first:stop + 1], p_out[first:stop + 1],
            iters[first:stop], resid[first:stop], first,
        )
    energy = None
    if ivp.hamiltonian is not None:
        hamiltonian = ivp.hamiltonian
        if not ivp.vectorized:  # one call per row, as _batched_force makes
            hamiltonian = lambda Q, P: [ivp.hamiltonian(q, p) for q, p in zip(Q, P)]
        energy = np.asarray(hamiltonian(q_out, p_out), dtype=float)
    return Trajectory(
        t=t_out, q=q_out, p=p_out,
        iterations=iters, residuals=resid, energy=energy,
    )


def reference_solve(
    ivp: OscillatoryIVP,
    n_substeps_per_unit: int,
    node_set: lg.NodeSet | None = None,
) -> Trajectory:
    """High-accuracy trajectory with a step-doubling self-check.

    Solves at h_ref = 1/n_substeps_per_unit and at h_ref/2; if the
    endpoints differ by more than REFERENCE_CHECK_TOL the oracle is rejected.
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
    if diff > REFERENCE_CHECK_TOL:
        raise OracleUnreliableError(
            f"step doubling moved the endpoint by {diff:.3g} > {REFERENCE_CHECK_TOL:.3g};"
            " increase n_substeps_per_unit"
        )
    order = 2 * ns.s
    fine.endpoint_error = diff / (2**order - 1)
    return fine


def endpoint_errors(
    ivp: OscillatoryIVP,
    step_sizes,
    reference: Callable[[float], tuple[np.ndarray, np.ndarray]] | Trajectory | None,
    node_set: lg.NodeSet,
    config: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Step sizes, largest first, and the max-norm endpoint error over
    (q, p) of a solve with ``config`` at each h.

    ``reference`` is a callable t -> (q, p) or a Trajectory, used as is, or
    None for one reference_solve at ceil(8 / min h) substeps per unit with
    Gauss-max(4, s) nodes: its order 2 max(4, s) is never below the order
    2s of the s-node set under test.  A refused reference is not retried;
    its OracleUnreliableError is re-raised, naming the nodes and substeps.
    A step size that is not positive, or is given twice, is refused before
    any solve: a repeated one repeats a row and makes the log-log fit
    ill-conditioned.
    """
    hs = np.asarray(sorted(step_sizes, reverse=True), dtype=float)
    repeated = hs[1:][hs[1:] == hs[:-1]]
    if repeated.size:
        raise ValueError(f"step size {repeated[0]} is given more than once")
    configs = [replace(config, h=h) for h in hs]  # SolverConfig checks each h
    if reference is None:
        per_unit = int(math.ceil(8.0 / hs.min()))
        ref_nodes = lg.gauss_nodes(max(4, node_set.s))
        try:
            reference = reference_solve(ivp, per_unit, node_set=ref_nodes)
        except OracleUnreliableError as exc:
            # reference_solve's advice names its own argument, which this
            # policy sets; say which reference was refused instead
            raise OracleUnreliableError(
                f"Gauss-{ref_nodes.s} reference refused at {per_unit} substeps"
                " per unit: step doubling moved the endpoint by more than"
                f" {REFERENCE_CHECK_TOL:.3g}"
            ) from exc
    if isinstance(reference, Trajectory):
        ref_q, ref_p = reference.q[-1], reference.p[-1]
    else:
        ref_q, ref_p = reference(ivp.t_end)
    errors = np.empty(hs.size)
    for n, cfg in enumerate(configs):
        traj = solve(ivp, cfg, node_set=node_set)
        errors[n] = max(
            np.abs(traj.q[-1] - ref_q).max(), np.abs(traj.p[-1] - ref_p).max()
        )
    return hs, errors


def fit_order(step_sizes, errors) -> tuple[float | None, np.ndarray]:
    """Least-squares slope of log(error) against log(h) and the used mask.

    Errors at or below ERROR_FLOOR are round-off, not discretization
    error, and are left out; the slope is None when fewer than two errors
    remain.
    """
    hs = np.asarray(step_sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    used = errors > ERROR_FLOOR
    if used.sum() < 2:
        return None, used
    slope = float(np.polyfit(np.log(hs[used]), np.log(errors[used]), 1)[0])
    return slope, used
