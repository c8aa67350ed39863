"""Command-line interface: solve | convergence | energy | stability | coeffs.

All numeric output is CSV with 17-significant-digit scientific notation,
so identical runs produce byte-identical files.  Exit codes: 0 success,
2 usage or validation error, 3 solver failure (stage iteration did not
converge).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import lagrange as lg
from .coeffs import (
    WeightKind,
    build_table,
    quadrature_weight,
)
from .errors import StageIterationError, TrigCollocError
from .integrator import ERROR_FLOOR, SolverConfig, endpoint_errors, fit_order, solve
from .problems import PROBLEMS, ProblemSpec, build_problem
from .stability import check_scan_window, scan_region

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3


def fmt(x: float) -> str:
    """17 significant digits, scientific; nan stays literal."""
    return f"{x:.16e}"


@dataclass
class RunManifest:
    """Everything a command needs; identical manifests give identical bytes."""

    command: str
    problem: str | None = None
    overrides: dict = field(default_factory=dict)
    nodes: tuple = ()
    h: float | None = None
    h_list: tuple = ()
    t_end: float | None = None
    tol: float = 1e-14
    max_iter: int = 50
    iteration_mode: str = "tolerance"
    zero_force: bool = False
    m_scalar: float | None = None
    path: str = "auto"
    v_range: tuple = (0.0, 100.0)
    z_range: tuple = (-5.0, 5.0)
    grid: tuple = (201, 201)
    out: str | None = None


def _node_set(manifest: RunManifest) -> lg.NodeSet:
    if manifest.nodes:
        return lg.build_node_set(manifest.nodes)
    return lg.gauss2()


def _problem(manifest: RunManifest) -> ProblemSpec:
    """The registered problem with the manifest's t_end and force applied."""
    spec = build_problem(manifest.problem, **manifest.overrides)
    ivp = spec.ivp
    if manifest.t_end is not None:
        ivp.t_end = manifest.t_end
    if manifest.zero_force:
        M = ivp.M
        # Row-wise, so they serve a vectorized IVP as well as a per-row one;
        # the matching quadratic energy keeps the drift meaningful.
        ivp.force = lambda t, q: np.zeros_like(q)
        ivp.hamiltonian = lambda q, p: 0.5 * np.vecdot(p, p) + 0.5 * np.vecdot(q @ M, q)
    return spec


def _config(manifest: RunManifest, h: float) -> SolverConfig:
    return SolverConfig(
        h=h,
        tol=manifest.tol,
        max_iter=manifest.max_iter,
        iteration_mode=manifest.iteration_mode,
    )


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
    if traj.energy is not None:
        cols.append("energy")
    if traj.invariant is not None:
        cols.append("invariant")
    # one %-template per row over Python floats ("%d" prints the iteration
    # count, exact as a float, as an integer; "%.16e" matches fmt)
    columns = [traj.t[:, None], traj.q, traj.p, np.concatenate([[0], traj.iterations])[:, None]]
    columns += [x[:, None] for x in (traj.energy, traj.invariant) if x is not None]
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
        M = build_problem(manifest.problem, **manifest.overrides).ivp.M
    table = build_table(ns, M, manifest.h, path=manifest.path)
    pieces = ["kind,i,j,index1,index2,value,oracle,abs_err\n"]
    kinds = [
        (WeightKind.Q, table.weights_q, False),
        (WeightKind.P, table.weights_p, False),
        (WeightKind.STAGE, table.stage_weights, True),
    ]
    if table.path == "spectral" and table.dim == 1:
        # scalar M: weights are plain kernel values, compare to quadrature
        v = manifest.h**2 * M[0, 0]
        for kind, arr, staged in kinds:
            for i in range(ns.s) if staged else [None]:
                for j in range(ns.s):
                    value = arr[i, j, 0, 0] if staged else arr[j, 0, 0]
                    oracle = quadrature_weight(ns, kind, j, v, i)
                    pieces.append(
                        f"{kind.value},{'' if i is None else i},{j},0,,"
                        f"{fmt(value)},{fmt(oracle)},{fmt(abs(value - oracle))}\n"
                    )
    else:
        for kind, arr, staged in kinds:
            for i in range(ns.s) if staged else [None]:
                for j in range(ns.s):
                    mat = arr[i, j] if staged else arr[j]
                    for r in range(mat.shape[0]):
                        for cidx in range(mat.shape[1]):
                            pieces.append(
                                f"{kind.value},{'' if i is None else i},{j},"
                                f"{r},{cidx},{fmt(mat[r, cidx])},,\n"
                            )
    _write(manifest.out, pieces)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, need_h: bool = False) -> None:
    p.add_argument("--nodes", type=str, default=None,
                   help="comma-separated collocation nodes in [0,1] (default Gauss-2)")
    p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    if need_h:
        p.add_argument("--h", type=float, required=True, help="step size")


def _add_problem(p: argparse.ArgumentParser) -> None:
    """Problem and stage-iteration flags of the commands that integrate."""
    p.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    p.add_argument("--omega", type=float, default=None, help="frequency override (fpu)")
    p.add_argument("--n", type=int, default=None, help="grid size override (klein-gordon, wave)")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--zero-force", action="store_true",
                   help="replace the force with 0 (linear variant)")
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--iteration-mode", choices=("tolerance", "fixed"),
                   default="tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigcolloc",
        description="Trigonometric collocation integrators for q'' + M q = f(t, q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate a registered problem")
    _add_problem(p_solve)
    _add_common(p_solve, need_h=True)

    p_conv = sub.add_parser("convergence", help="global error vs step size")
    _add_problem(p_conv)
    _add_common(p_conv)
    p_conv.add_argument("--h-list", type=str, required=True,
                        help="comma-separated step sizes (need at least 3)")

    p_energy = sub.add_parser("energy", help="energy drift along a trajectory")
    _add_problem(p_energy)
    _add_common(p_energy, need_h=True)

    p_stab = sub.add_parser("stability", help="scan the (V, z) stability region")
    p_stab.add_argument("--v-range", type=str, default="0,100")
    p_stab.add_argument("--z-range", type=str, default="-5,5")
    p_stab.add_argument("--grid", type=str, default="201x201")
    _add_common(p_stab)

    p_coeffs = sub.add_parser("coeffs", help="dump a coefficient table as CSV")
    p_coeffs.add_argument("--problem", choices=sorted(PROBLEMS), default=None)
    p_coeffs.add_argument("--omega", type=float, default=None)
    p_coeffs.add_argument("--n", type=int, default=None)
    p_coeffs.add_argument("--m-scalar", type=float, default=None,
                          help="use the 1x1 matrix [m] instead of a problem")
    p_coeffs.add_argument("--path", choices=("auto", "spectral", "series"),
                          default="auto")
    _add_common(p_coeffs, need_h=True)
    return parser


def _overrides(args) -> dict:
    out = {}
    if getattr(args, "omega", None) is not None:
        out["omega"] = args.omega
    if getattr(args, "n", None) is not None:
        out["n"] = args.n
    return out


def _parse_pair(text: str, name: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{name} must be 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid(text: str):
    try:
        n_v, n_z = map(int, text.split("x"))
    except ValueError:
        raise ValueError(f"--grid must be 'NVxNZ' with two integers, got {text!r}") from None
    return n_v, n_z


def manifest_from_args(args) -> RunManifest:
    nodes = ()
    if getattr(args, "nodes", None):
        nodes = tuple(float(v) for v in args.nodes.split(","))
    manifest = RunManifest(
        command=args.command,
        problem=getattr(args, "problem", None),
        overrides=_overrides(args),
        nodes=nodes,
        h=getattr(args, "h", None),
        t_end=getattr(args, "t_end", None),
        tol=getattr(args, "tol", RunManifest.tol),
        max_iter=getattr(args, "max_iter", RunManifest.max_iter),
        iteration_mode=getattr(args, "iteration_mode", RunManifest.iteration_mode),
        zero_force=getattr(args, "zero_force", False),
        m_scalar=getattr(args, "m_scalar", None),
        path=getattr(args, "path", "auto"),
        out=args.out,
    )
    if args.command == "convergence":
        h_list = tuple(float(v) for v in args.h_list.split(","))
        if len(h_list) < 3:
            raise ValueError(f"need at least 3 step sizes, got {len(h_list)}")
        manifest.h_list = h_list
    for flag, values in (("--h", [manifest.h]), ("--m-scalar", [manifest.m_scalar]),
                         ("--h-list", manifest.h_list)):
        if not all(v is None or math.isfinite(v) for v in values):
            raise ValueError(f"{flag} must be finite, got {values}")
    if args.command == "stability":
        manifest.v_range, manifest.z_range, manifest.grid = check_scan_window(
            _parse_pair(args.v_range, "--v-range"),
            _parse_pair(args.z_range, "--z-range"),
            _parse_grid(args.grid),
        )
    return manifest


_DISPATCH = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "energy": cmd_energy,
    "stability": cmd_stability,
    "coeffs": cmd_coeffs,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "coeffs" and (args.problem is None) == (args.m_scalar is None):
        parser.error("coeffs needs exactly one of --problem or --m-scalar")
    try:
        manifest = manifest_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return _DISPATCH[args.command](manifest)
    except StageIterationError as exc:
        print(
            f"solver failed at step {exc.step_index}: {exc} ",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    except TrigCollocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
