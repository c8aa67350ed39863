"""Workload operations, their correctness checks, and the measuring loops.

Imported by worker.py after the timed import, so numpy and the package are
already loaded here.  Every workload calls the package's public entry points
from outside: ``solve``, ``build_table``, ``build_problem`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from trigcolloc import cli, coeffs, integrator, lagrange, problems, stability

import spans
from speed import NOMINAL_BLOCK_S, Bracket

# The modules whose attributes spans.TARGETS wraps.
MODULES = {
    "cli": cli,
    "coeffs": coeffs,
    "integrator": integrator,
    "lagrange": lagrange,
    "stability": stability,
}

MIN_TIMED_OPS = 3
MIN_TRACED_OPS = 2
# Spans of one fpu-chain operation take about 5 MB; cap what a run keeps.
MAX_TRACED_OPS = 4


class Failure(Exception):
    """An operation's output failed its workload check."""


def _relative_drift(energy: np.ndarray) -> float:
    return float(np.abs(energy - energy[0]).max() / abs(energy[0]))


class SolveWorkload:
    """``integrator.solve`` on a registered problem with seeded initial data."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.ns = lagrange.gauss2()
        spec = problems.build_problem(inputs["problem"], **inputs["overrides"])
        self.ivp = dataclasses.replace(
            spec.ivp, q0=np.array(inputs["q0"]), p0=np.array(inputs["p0"])
        )
        self.cfg = integrator.SolverConfig(h=inputs["h"])
        self.drift = 0.0

    def setup(self):
        spec = problems.build_problem(self.inputs["problem"], **self.inputs["overrides"])
        return coeffs.build_table(self.ns, spec.ivp.M, self.inputs["h"])

    def run(self):
        return integrator.solve(self.ivp, self.cfg, node_set=self.ns)

    def check(self, traj) -> None:
        for name in ("q", "p", "energy"):
            if not np.all(np.isfinite(getattr(traj, name))):
                raise Failure(f"non-finite values in the trajectory's {name}")
        drift = _relative_drift(traj.energy)
        if drift > self.inputs["drift_tol"]:
            raise Failure(f"energy drift {drift:.3g} above {self.inputs['drift_tol']:.3g}")
        self.drift = max(self.drift, drift)

    def trace_targets(self, tracer: spans.Tracer) -> None:
        tracer.wrap_ivp(self.ivp)

    def sizes(self) -> dict:
        steps = int(round(self.ivp.t_end / self.cfg.h))
        return {"d": self.ivp.dim, "steps": steps}


class CliWorkload:
    """``cli.main`` writing CSV to a file; repeats must give identical bytes."""

    def __init__(self, inputs: dict, tmpdir: Path):
        self.inputs = inputs
        self.out = tmpdir / "out.csv"
        self.argv = list(inputs["argv"]) + ["--out", str(self.out)]
        self.digest = None
        self.bytes_written = 0
        self.drift = 0.0
        self.stderr = ""

    def run(self):
        # The CLI reports to stderr; keep it for a failure message instead.
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                return cli.main(self.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code
        finally:
            self.stderr = err.getvalue()

    def check(self, rc) -> None:
        if rc != cli.EXIT_OK:
            raise Failure(f"cli.main returned {rc}: {self.stderr.strip()}")
        data = self.out.read_bytes()
        self.check_csv(data)
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise Failure("CSV differs from the first repeat")
        self.bytes_written = len(data)

    def trace_targets(self, tracer: spans.Tracer) -> None:
        pass


class WaveConvergence(CliWorkload):
    def setup(self):
        ns = lagrange.gauss2()
        spec = problems.build_problem("wave", **self.inputs["overrides"])
        return [coeffs.build_table(ns, spec.ivp.M, h) for h in self.inputs["h_list"]]

    def check_csv(self, data: bytes) -> None:
        lines = data.decode().splitlines()
        if lines[0] != "h,global_error" or len(lines) != 1 + len(self.inputs["h_list"]):
            raise Failure(f"unexpected convergence CSV layout: {lines[:2]}")
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        if [h for h, _ in rows] != sorted(self.inputs["h_list"], reverse=True):
            raise Failure("step sizes in the CSV differ from the request")
        for h, err in rows:
            if not (math.isfinite(err) and err <= self.inputs["error_tol"]):
                raise Failure(f"endpoint error {err:.3g} at h={h} above "
                              f"{self.inputs['error_tol']:.3g}")

    def sizes(self) -> dict:
        t_end = self.inputs["overrides"]["t_end"]
        steps = sum(int(round(t_end / h)) for h in self.inputs["h_list"])
        return {"d": self.inputs["overrides"]["n"] - 1, "steps": steps}


class StabilityScan(CliWorkload):
    def __init__(self, inputs: dict, tmpdir: Path):
        super().__init__(inputs, tmpdir)
        self.singular = 0

    def setup(self):
        # What a scan row pays before its z loop: the scalar data of one V
        # (here the top of the window) and one assembled matrix.
        return stability.stability_matrix(lagrange.gauss2(), self.inputs["v_range"][1], 0.0)

    def check_csv(self, data: bytes) -> None:
        n_v, n_z = self.inputs["grid"]
        header, _, body = data.partition(b"\n")
        if header != b"V,z,rho,trace,det,stable,periodic":
            raise Failure(f"unexpected stability CSV header {header[:60]!r}")
        rows = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        if rows.shape != (n_v * n_z, 7):
            raise Failure(f"stability CSV has shape {rows.shape}, want {(n_v * n_z, 7)}")
        rho = rows[:, 2]
        at_zero = rows[:, 1] == 0.0
        # z = 0 is the undisturbed oscillator: an exact rotation, rho = 1.
        if at_zero.sum() != n_v:
            raise Failure(f"{int(at_zero.sum())} rows at z = 0, want {n_v}")
        worst = float(np.abs(rho[at_zero] - 1.0).max())
        if not worst <= self.inputs["rho_tol"]:
            raise Failure(f"|rho - 1| = {worst:.3g} at z = 0")
        self.singular = int(np.isnan(rho).sum())

    def sizes(self) -> dict:
        n_v, n_z = self.inputs["grid"]
        return {"d": 1, "scan_points": n_v * n_z, "table_bytes": 0}


def make_workload(inputs: dict, tmpdir: Path):
    name = inputs["workload"]
    if name in ("fpu-chain", "kg-lattice"):
        return SolveWorkload(inputs)
    if name == "wave-convergence":
        return WaveConvergence(inputs, tmpdir)
    if name == "stability-scan":
        return StabilityScan(inputs, tmpdir)
    raise ValueError(f"unknown workload {name!r}")


class Runner:
    """Attempts operations, checks them, and keeps the count of failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def attempt(self):
        """Seconds the operation took, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run()
            elapsed = time.perf_counter() - t0
            self.wl.check(out)
        except Exception as exc:  # any failure of the program counts, and the run goes on
            self.failed += 1
            if self.failed <= 3:
                print(f"operation {self.attempted} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            return None
        return elapsed

    def loop(self, seconds: float, min_ops: int, max_ops: int | None = None, after=None):
        """Seconds taken by each operation that succeeded.

        ``after(n, dt)`` runs after operation n, which took ``dt`` seconds
        (None if it failed); its time is not part of the ``seconds`` budget.
        """
        times = []
        budget_end = time.perf_counter() + seconds
        n = 0
        last = 0.0
        # Start no operation that would likely end after the budget.
        while n < min_ops or time.perf_counter() + last < budget_end:
            if max_ops is not None and n >= max_ops:
                break
            t0 = time.perf_counter()
            dt = self.attempt()
            if dt is not None:
                times.append(dt)
            last = time.perf_counter() - t0
            if after is not None:
                t1 = time.perf_counter()
                after(n, dt)
                budget_end += time.perf_counter() - t1
            n += 1
        return times


class Samples:
    """Raw and scaled seconds of one kind of timed sample."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, raw: float | None, scaled: float | None) -> None:
        if raw is not None:
            self.raw.append(raw)
            self.scaled.append(scaled)


def import_probe(src: str) -> tuple[float, float]:
    """Seconds to ``import trigcolloc.cli`` in a fresh interpreter, raw and
    scaled by reference blocks run in that interpreter right after it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py"))],
        input=json.dumps({"mode": "import", "src": src}),
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe exited with {proc.returncode}: {proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["import_s"], res["import_s"] * NOMINAL_BLOCK_S / statistics.mean(res["blocks"])


def setup_batch(wl, reps: int) -> float:
    """Seconds per set-up, averaged over ``reps`` set-ups."""
    t0 = time.perf_counter()
    for _ in range(reps):
        wl.setup()
    return (time.perf_counter() - t0) / reps


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def layer_metrics(summary: dict, op_extra: dict, s: int) -> dict:
    """Per-layer numbers of one traced operation: name -> (value, unit)."""
    sp = summary["spans"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": np.empty(0)}

    def g(name):
        return sp.get(name, empty)

    step, fps, force = g("integrator.step"), g("integrator.fixed_point_stages"), g("problems.force")
    step_us = step["durations"] * 1e6
    sweep_forces = summary["child_calls"].get(
        ("integrator.fixed_point_stages", "problems.force"), 0)
    scan = g("stability.scan_region")
    m = {
        "integrator.step.calls": (step["calls"], "count"),
        "integrator.step.us_p50": (float(np.percentile(step_us, 50)) if step["calls"] else 0.0, "us"),
        "integrator.step.us_p99": (float(np.percentile(step_us, 99)) if step["calls"] else 0.0, "us"),
        "integrator.fixed_point_stages.self_s": (fps["self_s"], "s"),
        "integrator.fixed_point_stages.sweeps_per_step": (
            sweep_forces / (s * fps["calls"]) if fps["calls"] else 0.0, "count/step"),
        "integrator.update.self_s": (step["self_s"], "s"),
        "integrator.solve.self_s": (g("integrator.solve")["self_s"], "s"),
        "problems.force.calls": (force["calls"], "count"),
        "problems.force.per_step": (
            force["calls"] / step["calls"] if step["calls"] else 0.0, "count/step"),
        "problems.force.busy_s": (force["busy_s"], "s"),
        "problems.hamiltonian.calls": (g("problems.hamiltonian")["calls"], "count"),
        "problems.hamiltonian.busy_s": (g("problems.hamiltonian")["busy_s"], "s"),
        "coeffs.build_table.calls": (g("coeffs.build_table")["calls"], "count"),
        "coeffs.build_table.busy_s": (g("coeffs.build_table")["busy_s"], "s"),
        "coeffs.build_table.self_s": (g("coeffs.build_table")["self_s"], "s"),
        "coeffs.table_bytes": (op_extra["table_bytes"], "bytes"),
        "coeffs.scalar_weight.calls": (g("coeffs.scalar_weight")["calls"], "count"),
        "coeffs.scalar_weight.busy_s": (g("coeffs.scalar_weight")["busy_s"], "s"),
        "lagrange.eval_basis_derivative.calls": (g("lagrange.eval_basis_derivative")["calls"], "count"),
        "lagrange.eval_basis_derivative.busy_s": (g("lagrange.eval_basis_derivative")["busy_s"], "s"),
        "lagrange.weighted_moment.calls": (g("lagrange.weighted_moment")["calls"], "count"),
        "lagrange.weighted_moment.busy_s": (g("lagrange.weighted_moment")["busy_s"], "s"),
        "matfun.decompose_symmetric.busy_s": (g("matfun.decompose_symmetric")["busy_s"], "s"),
        "matfun.phi_pair_spectral.busy_s": (g("matfun.phi_pair_spectral")["busy_s"], "s"),
        "matfun.phi_pair_series.calls": (g("matfun.phi_pair_series")["calls"], "count"),
        "matfun.phi_pair_series.busy_s": (g("matfun.phi_pair_series")["busy_s"], "s"),
        "stability.scan_region.busy_s": (scan["busy_s"], "s"),
        "stability.scan_region.self_s": (scan["self_s"], "s"),
        "stability.points_per_s": (
            op_extra["scan_points"] / scan["busy_s"] if scan["calls"] else 0.0, "1/s"),
        "stability.singular_points": (op_extra["singular_points"], "count"),
        "cli.main.busy_s": (g("cli.main")["busy_s"], "s"),
        "cli.main.self_s": (g("cli.main")["self_s"], "s"),
        "cli.bytes_written": (op_extra["bytes_written"], "bytes"),
        "trace.spans": (sum(r["calls"] for r in sp.values()), "count"),
    }
    return m


def _traced(wl, runner: Runner, cfg: dict, out_dir: Path) -> tuple[dict, dict]:
    half = cfg["seconds"] / 2.0
    plain = runner.loop(half, MIN_TIMED_OPS)
    originals = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in spans.TARGETS}
    tracer = spans.Tracer()
    per_op = []
    n_stages = lagrange.gauss2().s

    def harvest(op: int, dt) -> None:
        bufs = tracer.harvest(op)
        extra = {
            "table_bytes": max(tracer.table_bytes, default=0),
            "scan_points": wl.sizes().get("scan_points", 0),
            "singular_points": getattr(wl, "singular", 0),
            "bytes_written": getattr(wl, "bytes_written", 0),
        }
        tracer.table_bytes.clear()
        per_op.append(layer_metrics(spans.summarize(tracer.names, bufs), extra, n_stages))

    tracer.install(MODULES)
    wl.trace_targets(tracer)
    try:
        traced = runner.loop(half, MIN_TRACED_OPS, MAX_TRACED_OPS, after=harvest)
    finally:
        tracer.uninstall()
    problems_found = []
    for (mod, attr), fn in originals.items():
        if getattr(MODULES[mod], attr) is not fn:
            problems_found.append(f"{mod}.{attr} still wrapped")
    if cfg.get("verify_unwrap"):
        runner.attempt()
        if tracer.span_count():
            problems_found.append(f"{tracer.span_count()} spans recorded after uninstall")
    tracer.write(out_dir / f"spans-{cfg['inputs']['workload']}-seed{cfg['inputs']['seed']}.npz")

    metrics = {}
    for name, (_, unit) in per_op[0].items():
        values = [op[name][0] for op in per_op]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                problems_found.append(f"{name} differs between traced operations: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (float(np.median(values)), unit)
    metrics["trace.overhead_s"] = (_median(traced) - _median(plain), "s")
    detail = {
        "plain_wall_s": _median(plain),
        "traced_wall_s": _median(traced),
        "traced_ops": len(per_op),
        "self_check_problems": problems_found,
    }
    return metrics, detail


def _manifest_versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def run_workload(cfg: dict) -> dict:
    inputs = cfg["inputs"]
    out_dir = Path(cfg["out_dir"])
    tmpdir = Path(tempfile.mkdtemp(prefix="worker-", dir=out_dir))
    try:
        wl = make_workload(inputs, tmpdir)
        runner = Runner(wl)
        runner.attempt()  # warm-up: caches fill, lazy imports finish
        table = wl.setup()  # also warms the set-up path
        sizes = wl.sizes()
        sizes.setdefault("table_bytes", spans.table_nbytes(table))
        result = {"sizes": sizes, "versions": _manifest_versions()}
        if cfg["trace"]:
            metrics, detail = _traced(wl, runner, cfg, out_dir)
            result["detail"] = detail
            correct_extra = not detail["self_check_problems"]
            for p in detail["self_check_problems"]:
                print(f"trace self-check: {p}", file=sys.stderr)
        else:
            # Set-up batches and import probes are taken one after each timed
            # operation rather than back to back, so that one slow phase of
            # the machine does not set all of them.  Every operation and
            # set-up batch sits between two reference blocks (speed.py); an
            # import probe runs its blocks in its own interpreter.
            batches, reps = cfg["setup"]
            bracket = Bracket()
            wall, setup, probes = Samples(), Samples(), Samples()

            def extras() -> None:
                if len(setup.raw) < batches:
                    dt = setup_batch(wl, reps)
                    setup.add(dt, bracket.scale(dt))
                if len(probes.raw) < cfg["import_probes"]:
                    probes.add(*import_probe(cfg["src"]))
                    bracket.restart()

            def after(n: int, dt) -> None:
                wall.add(dt, bracket.scale(dt))
                extras()

            start = time.perf_counter()
            runner.loop(cfg["seconds"], MIN_TIMED_OPS, after=after)
            while len(setup.raw) < batches or len(probes.raw) < cfg["import_probes"]:
                extras()
            if not wall.scaled:  # every operation failed; the run reports correct = false
                wall.scaled = [(time.perf_counter() - start) / runner.attempted]
            metrics = {
                "wall_s": (_median(wall.scaled), "s"),
                "setup_s": (_median(setup.scaled), "s"),
                "import_s": (_median(probes.scaled), "s"),
                "energy_drift_raw": (wl.drift, "1"),
            }
            result["detail"] = {
                "wall_samples": len(wall.scaled),
                "wall_s_q1_q3": [float(np.percentile(wall.scaled, 25)),
                                 float(np.percentile(wall.scaled, 75))],
                "setup_samples": len(setup.scaled),
                "setup_reps_per_sample": reps,
                "import_samples": len(probes.scaled),
                "raw_wall_s": _median(wall.raw),
                "raw_setup_s": _median(setup.raw),
                "raw_import_s": _median(probes.raw),
                "block_s_median": _median(bracket.blocks),
                "blocks": len(bracket.blocks),
            }
            correct_extra = True
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["attempted"] = runner.attempted
        result["failed"] = runner.failed
        result["correct"] = runner.failed == 0 and correct_extra
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
