"""Command-line interface: solve | convergence | energy | stability | coeffs.

All numeric output is CSV with 17-significant-digit scientific notation,
so identical runs produce byte-identical files.  Exit codes: 0 success,
2 usage or validation error, 3 solver failure (stage iteration did not
converge).

The parser is the one place where a flag is read: it refuses bad flag
syntax and non-finite numbers, naming the flag, before any work.  Defaults
are RunManifest's, and range rules are the library's own (node sets,
t_end, the step, tol, max_iter, problem sizes, scan windows): a broken one
is reported as ``error: ...`` with exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import lagrange as lg
from .coeffs import (  # noqa: F401 (perfbench/spans.py wraps build_table here)
    WeightKind, build_table, lifted_blocks, quadrature_weight)
from .errors import StageIterationError, TrigCollocError
from .integrator import (DEFAULT_MAX_ITER, DEFAULT_TOL, ERROR_FLOOR, SolverConfig,
                         endpoint_errors, fit_order, solve)
from .problems import PROBLEMS, ProblemSpec, build_problem, quadratic_energy
from .stability import scan_region

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3


def fmt(x: float) -> str:
    """17 significant digits, scientific; nan stays literal."""
    return f"{x:.16e}"


@dataclass
class RunManifest:
    """Everything a command needs; identical manifests give identical bytes.

    One field per parser dest; a flag left out, or one its command lacks,
    keeps the field's default.
    """

    command: str
    problem: str | None = None
    omega: float | None = None
    n: int | None = None
    nodes: tuple = ()
    h: float | None = None
    h_list: tuple = ()
    t_end: float | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    iteration_mode: str = "tolerance"
    zero_force: bool = False
    m_scalar: float | None = None
    path: str = "auto"
    v_range: tuple = (0.0, 100.0)
    z_range: tuple = (-5.0, 5.0)
    grid: tuple = (201, 201)
    out: str | None = None

    @property
    def overrides(self) -> dict:
        """The problem-size overrides given, as build_problem keywords."""
        return {k: v for k, v in (("omega", self.omega), ("n", self.n)) if v is not None}


def _node_set(manifest: RunManifest) -> lg.NodeSet:
    if manifest.nodes:
        return lg.build_node_set(manifest.nodes)
    return lg.gauss2()


def _problem(manifest: RunManifest) -> ProblemSpec:
    """The registered problem, built with the manifest's overrides and
    t_end, and with the force dropped under --zero-force."""
    t_end = {} if manifest.t_end is None else {"t_end": manifest.t_end}
    spec = build_problem(manifest.problem, **manifest.overrides, **t_end)
    ivp = spec.ivp
    if manifest.zero_force:
        # Row-wise, so it serves the vectorized IVP; the matching quadratic
        # energy keeps the drift meaningful.
        ivp.force = lambda t, q: np.zeros_like(q)
        ivp.hamiltonian = quadratic_energy(ivp.M)
    return spec


def _config(manifest: RunManifest, h: float) -> SolverConfig:
    return SolverConfig(h=h, tol=manifest.tol, max_iter=manifest.max_iter,
                        iteration_mode=manifest.iteration_mode)


def _write(out: str | None, pieces: list[str]) -> None:
    """Stream the CSV pieces to out, or to stdout; they are never joined."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", newline="") as fh:
            fh.writelines(pieces)


def cmd_solve(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    ivp = _problem(manifest).ivp
    traj = solve(ivp, _config(manifest, manifest.h), node_set=ns)
    d = ivp.dim
    cols = ["t"] + [f"q{k+1}" for k in range(d)] + [f"p{k+1}" for k in range(d)]
    cols.append("iterations")
    # one %-template per row over Python floats ("%d" prints the iteration
    # count, exact as a float, as an integer; "%.16e" matches fmt)
    columns = [traj.t[:, None], traj.q, traj.p, np.concatenate([[0], traj.iterations])[:, None]]
    if traj.energy is not None:
        cols.append("energy")
        columns.append(traj.energy[:, None])
    template = ",".join(["%.16e"] * (1 + 2 * d) + ["%d"] + ["%.16e"] * (len(columns) - 4)) + "\n"
    pieces = [",".join(cols) + "\n"]
    pieces += [template % tuple(row) for row in np.hstack(columns).tolist()]
    _write(manifest.out, pieces)
    return EXIT_OK


def cmd_energy(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    ivp = _problem(manifest).ivp
    if ivp.hamiltonian is None:
        raise TrigCollocError(f"problem {manifest.problem!r} defines no energy")
    traj = solve(ivp, _config(manifest, manifest.h), node_set=ns)
    drift = traj.energy_drift()
    pieces = ["t,energy_drift\n"]
    pieces += ["%.16e,%.16e\n" % row for row in zip(traj.t.tolist(), drift.tolist())]
    _write(manifest.out, pieces)
    print(f"max energy drift: {fmt(drift.max())}", file=sys.stderr)
    return EXIT_OK


def cmd_convergence(manifest: RunManifest) -> int:
    spec = _problem(manifest)
    # the closed form solves the forced problem only
    reference = None if manifest.zero_force else spec.exact_solution
    hs, errors = endpoint_errors(
        spec.ivp, manifest.h_list, reference, _node_set(manifest),
        _config(manifest, max(manifest.h_list)),
    )
    pieces = ["h,global_error\n"]
    pieces += [f"{fmt(h)},{fmt(e)}\n" for h, e in zip(hs, errors)]
    _write(manifest.out, pieces)
    slope, used = fit_order(hs, errors)
    if slope is None:
        print(
            f"least-squares order: n/a ({len(hs) - int(used.sum())} of {len(hs)}"
            f" errors at or below {ERROR_FLOOR:.3g})",
            file=sys.stderr,
        )
    else:
        print(f"least-squares order: {slope:.4f}", file=sys.stderr)
    return EXIT_OK


# The stable and periodic flags of a stability row as one cell, at 2 * stable + periodic.
_FLAG_CELLS = np.array([",0,0\n", ",0,1\n", ",1,0\n", ",1,1\n"], dtype=object)


def _stability_csv(rows: np.ndarray, n_z: int) -> list[str]:
    """scan_region's rows (z running fastest) as CSV pieces: the header,
    then one string per V row.

    rho and det repeat across a scan (det S = 1 to round-off for symmetric
    nodes), so each distinct value is formatted once.  Values are told apart
    by bit pattern, so -0.0 and 0.0 stay distinct and NaN matches itself.
    Each V row's cells are joined into one %-template, in which trace, a
    value that rarely repeats, stays "%.16e"; one format call fills it.
    No formatted number holds a "%".
    """
    n_v = len(rows) // n_z
    bits, inverse = np.unique(rows[:, [2, 4]].view(np.int64), return_inverse=True)
    distinct = ("%.16e," * bits.size % tuple(bits.view(np.float64).tolist())).split(",")
    # per point: V, ",z,", rho, ",trace,", det and the flags
    cells = np.empty((n_v, n_z, 6), dtype=object)
    cells[..., 0] = np.array([fmt(v) for v in rows[::n_z, 0].tolist()], dtype=object)[:, None]
    cells[..., 1] = np.array([f",{fmt(z)}," for z in rows[:n_z, 1].tolist()], dtype=object)
    # inverse has the input's shape on some numpy 2.0 releases, not others
    cells[..., 2::2] = np.array(distinct, dtype=object)[inverse.reshape(n_v, n_z, 2)]
    cells[..., 3] = ",%.16e,"
    cells[..., 5] = _FLAG_CELLS[(2 * rows[:, 5] + rows[:, 6]).astype(np.intp)].reshape(n_v, n_z)
    trace = rows[:, 3].reshape(n_v, n_z)
    return ["V,z,rho,trace,det,stable,periodic\n"] + [
        "".join(cells[i].ravel().tolist()) % tuple(trace[i].tolist()) for i in range(n_v)
    ]


def cmd_stability(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    rows = scan_region(ns, manifest.v_range, manifest.z_range, manifest.grid)
    # the per-cell arrays are freed when _stability_csv returns, before the
    # pieces are streamed; the CSV is never held as one joined string
    _write(manifest.out, _stability_csv(rows, manifest.grid[1]))
    return EXIT_OK


def cmd_coeffs(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    if manifest.m_scalar is not None:
        M = np.array([[manifest.m_scalar]])
    else:
        M = _problem(manifest).ivp.M
    path, _, (b_q, b_p, A, *_) = lifted_blocks(ns, M, manifest.h, manifest.path)
    # scalar M on the spectral path: weights are plain kernel values, compared
    # to quadrature in the last two cells (index2 stays empty)
    with_oracle = path == "spectral" and len(M) == 1
    v = manifest.h**2 * M[0, 0]
    pieces = ["kind,i,j,index1,index2,value,oracle,abs_err\n"]
    kinds = [(WeightKind.Q, b_q, False), (WeightKind.P, b_p, False), (WeightKind.STAGE, A, True)]
    for kind, arr, staged in kinds:
        for i in range(ns.s) if staged else [None]:
            for j in range(ns.s):
                mat = arr[i, j] if staged else arr[j]
                for r, col in np.ndindex(mat.shape):
                    cells = f"{kind.value},{'' if i is None else i},{j},{r},"
                    value = mat[r, col]
                    if with_oracle:
                        oracle = quadrature_weight(ns, kind, j, v, i)
                        cells += f",{fmt(value)},{fmt(oracle)},{fmt(abs(value - oracle))}\n"
                    else:
                        cells += f"{col},{fmt(value)},,\n"
                    pieces.append(cells)
    _write(manifest.out, pieces)
    return EXIT_OK


def _number(text: str) -> float:
    """type= of one finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _numbers(least: int, most: float, form: str):
    """type= of least..most comma-separated finite numbers, as a tuple."""

    def convert(text: str) -> tuple:
        values = tuple(map(_number, text.split(",")))
        if not least <= len(values) <= most:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return values

    return convert


def _grid(text: str) -> tuple:
    """type= of an 'NVxNZ' pair of integers."""
    try:
        n_v, n_z = map(int, text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'NVxNZ' with two integers, got {text!r}"
        ) from None
    return n_v, n_z


def _add_common(p: argparse.ArgumentParser, need_h: bool = False) -> None:
    p.add_argument("--nodes", type=_numbers(1, math.inf, "nodes"),
                   help="comma-separated collocation nodes in [0,1] (default Gauss-2)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    if need_h:
        p.add_argument("--h", type=_number, required=True, help="step size")


def _add_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=_number, help="frequency override (fpu)")
    p.add_argument("--n", type=int, help="grid size override (klein-gordon, wave)")


def _add_problem(p: argparse.ArgumentParser) -> None:
    """Problem and stage-iteration flags of the commands that integrate."""
    p.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    _add_overrides(p)
    p.add_argument("--t-end", type=_number)
    p.add_argument("--zero-force", action="store_true",
                   help="replace the force with 0 (linear variant)")
    p.add_argument("--tol", type=_number)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--iteration-mode", choices=("tolerance", "fixed"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigcolloc",
        description="Trigonometric collocation integrators for q'' + M q = f(t, q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str) -> argparse.ArgumentParser:
        # a flag left out sets no attribute, so RunManifest holds every default
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    p_solve = add_command("solve", "integrate a registered problem")
    _add_problem(p_solve)
    _add_common(p_solve, need_h=True)

    p_conv = add_command("convergence", "global error vs step size")
    _add_problem(p_conv)
    _add_common(p_conv)
    p_conv.add_argument("--h-list", type=_numbers(3, math.inf, "at least 3 step sizes"),
                        required=True, help="comma-separated step sizes (need at least 3)")

    p_energy = add_command("energy", "energy drift along a trajectory")
    _add_problem(p_energy)
    _add_common(p_energy, need_h=True)

    p_stab = add_command("stability", "scan the (V, z) stability region")
    p_stab.add_argument("--v-range", type=_numbers(2, 2, "'lo,hi'"))
    p_stab.add_argument("--z-range", type=_numbers(2, 2, "'lo,hi'"))
    p_stab.add_argument("--grid", type=_grid)
    _add_common(p_stab)

    p_coeffs = add_command("coeffs", "dump a coefficient table as CSV")
    source = p_coeffs.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", choices=sorted(PROBLEMS))
    source.add_argument("--m-scalar", type=_number,
                        help="use the 1x1 matrix [m] instead of a problem")
    _add_overrides(p_coeffs)
    p_coeffs.add_argument("--path", choices=("auto", "spectral", "series"))
    _add_common(p_coeffs, need_h=True)
    return parser


def manifest_from_args(args) -> RunManifest:
    return RunManifest(**vars(args))


_DISPATCH = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "energy": cmd_energy,
    "stability": cmd_stability,
    "coeffs": cmd_coeffs,
}


def main(argv=None) -> int:
    parser = build_parser()
    manifest = manifest_from_args(parser.parse_args(argv))
    try:
        return _DISPATCH[manifest.command](manifest)
    except StageIterationError as exc:
        print(f"solver failed at step {exc.step_index}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (TrigCollocError, OSError) as exc:
        # OSError: --out could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # a range rule of the library; each command writes only once its work is done
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
