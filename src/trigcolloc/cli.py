"""Command-line interface: solve | convergence | energy | stability | coeffs.

All numeric output is CSV with 17-significant-digit scientific notation,
so identical runs produce byte-identical files.  Exit codes: 0 success,
2 usage or validation error, 3 solver failure (stage iteration did not
converge).
"""

from __future__ import annotations

import argparse
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
from .integrator import SolverConfig, solve
from .problems import PROBLEMS, ProblemSpec, build_problem
from .stability import scan_region

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

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "problem": self.problem,
            "overrides": dict(self.overrides),
            "nodes": list(self.nodes),
            "h": self.h,
            "h_list": list(self.h_list),
            "t_end": self.t_end,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "iteration_mode": self.iteration_mode,
            "zero_force": self.zero_force,
            "m_scalar": self.m_scalar,
            "path": self.path,
            "v_range": list(self.v_range),
            "z_range": list(self.z_range),
            "grid": list(self.grid),
            "out": self.out,
        }


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
        d = ivp.dim
        M = ivp.M
        ivp.force = lambda t, q: np.zeros(d)
        # the matching quadratic energy, so drift stays meaningful
        ivp.hamiltonian = lambda q, p: 0.5 * float(p @ p) + 0.5 * float(q @ (M @ q))
    return spec


def _config(manifest: RunManifest, h: float) -> SolverConfig:
    return SolverConfig(
        h=h,
        tol=manifest.tol,
        max_iter=manifest.max_iter,
        iteration_mode=manifest.iteration_mode,
    )


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


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
    lines = [",".join(cols)]
    iters = np.concatenate([[0], traj.iterations])
    for row in range(len(traj.t)):
        cells = [fmt(traj.t[row])]
        cells += [fmt(v) for v in traj.q[row]]
        cells += [fmt(v) for v in traj.p[row]]
        cells.append(str(int(iters[row])))
        if traj.energy is not None:
            cells.append(fmt(traj.energy[row]))
        if traj.invariant is not None:
            cells.append(fmt(traj.invariant[row]))
        lines.append(",".join(cells))
    _write(manifest.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_energy(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    ivp = _problem(manifest).ivp
    if ivp.hamiltonian is None:
        raise TrigCollocError(f"problem {manifest.problem!r} defines no energy")
    traj = solve(ivp, _config(manifest, manifest.h), node_set=ns)
    drift = traj.energy_drift()
    lines = ["t,energy_drift"]
    lines += [f"{fmt(t)},{fmt(dr)}" for t, dr in zip(traj.t, drift)]
    _write(manifest.out, "\n".join(lines) + "\n")
    print(f"max energy drift: {fmt(drift.max())}", file=sys.stderr)
    return EXIT_OK


def cmd_convergence(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    spec = _problem(manifest)
    ivp = spec.ivp
    if spec.exact_solution is not None and not manifest.zero_force:
        ref_q, ref_p = spec.exact_solution(ivp.t_end)
    else:
        from .integrator import reference_solve

        per_unit = int(np.ceil(8.0 / min(manifest.h_list)))
        ref = reference_solve(ivp, per_unit, node_set=ns)
        ref_q, ref_p = ref.q[-1], ref.p[-1]

    hs = sorted(manifest.h_list, reverse=True)
    errors = []
    for h in hs:
        traj = solve(ivp, _config(manifest, h), node_set=ns)
        errors.append(
            max(np.abs(traj.q[-1] - ref_q).max(), np.abs(traj.p[-1] - ref_p).max())
        )
    lines = ["h,global_error"]
    lines += [f"{fmt(h)},{fmt(e)}" for h, e in zip(hs, errors)]
    _write(manifest.out, "\n".join(lines) + "\n")
    log_h = np.log(hs)
    log_e = np.log(errors)
    slope = float(np.polyfit(log_h, log_e, 1)[0])
    print(f"least-squares order: {slope:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_stability(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    rows = scan_region(ns, manifest.v_range, manifest.z_range, manifest.grid)
    lines = ["V,z,rho,trace,det,stable,periodic"]
    for V, z, rho, tr, det, stab, per in rows:
        lines.append(
            f"{fmt(V)},{fmt(z)},{fmt(rho)},{fmt(tr)},{fmt(det)},{int(stab)},{int(per)}"
        )
    _write(manifest.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_coeffs(manifest: RunManifest) -> int:
    ns = _node_set(manifest)
    if manifest.m_scalar is not None:
        M = np.array([[manifest.m_scalar]])
    else:
        M = build_problem(manifest.problem, **manifest.overrides).ivp.M
    table = build_table(ns, M, manifest.h, path=manifest.path)
    lines = ["kind,i,j,index1,index2,value,oracle,abs_err"]
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
                    lines.append(
                        f"{kind.value},{'' if i is None else i},{j},0,,"
                        f"{fmt(value)},{fmt(oracle)},{fmt(abs(value - oracle))}"
                    )
    else:
        for kind, arr, staged in kinds:
            for i in range(ns.s) if staged else [None]:
                for j in range(ns.s):
                    mat = arr[i, j] if staged else arr[j]
                    for r in range(mat.shape[0]):
                        for cidx in range(mat.shape[1]):
                            lines.append(
                                f"{kind.value},{'' if i is None else i},{j},"
                                f"{r},{cidx},{fmt(mat[r, cidx])},,"
                            )
    _write(manifest.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, need_h: bool = False) -> None:
    p.add_argument("--nodes", type=str, default=None,
                   help="comma-separated collocation nodes in [0,1] (default Gauss-2)")
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--iteration-mode", choices=("tolerance", "fixed"),
                   default="tolerance")
    p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    if need_h:
        p.add_argument("--h", type=float, required=True, help="step size")


def _add_problem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    p.add_argument("--omega", type=float, default=None, help="frequency override (fpu)")
    p.add_argument("--n", type=int, default=None, help="grid size override (klein-gordon, wave)")
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--zero-force", action="store_true",
                   help="replace the force with 0 (linear variant)")


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
        tol=args.tol,
        max_iter=args.max_iter,
        iteration_mode=args.iteration_mode,
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
    if args.command == "stability":
        manifest.v_range = _parse_pair(args.v_range, "--v-range")
        manifest.z_range = _parse_pair(args.z_range, "--z-range")
        gv, _, gz = args.grid.partition("x")
        manifest.grid = (int(gv), int(gz))
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
