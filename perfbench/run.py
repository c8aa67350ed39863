#!/usr/bin/env python3
"""Run one trigcolloc benchmark workload and print its metrics as JSON.

From the root of a checkout:

    python3 perfbench/run.py --workload fpu-chain --seed 1 --seconds 20 --trace 0

The runner makes the workload's inputs from ``--seed``, starts one fresh
worker interpreter on the checkout's ``src`` and waits for it (a closed loop:
one operation at a time, no concurrency of its own).  With ``--trace 0`` the
worker also times ``import trigcolloc.cli`` in more fresh interpreters, and
reports every time in seconds of a machine of fixed speed (speed.py).

Stdout ends with two JSON lines: the run manifest, then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Without the package sources the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, make_inputs  # noqa: E402

# Per workload (batches, reps): each set-up sample averages ``reps`` set-ups,
# and setup_s is the median of ``batches`` samples, one taken after each timed
# operation.
SETUP_SAMPLING = {
    "fpu-chain": (15, 40),
    "kg-lattice": (5, 1),
    "wave-convergence": (7, 1),
    "stability-scan": (15, 100),
}
SMOKE_SETUP_SAMPLING = (2, 1)

# Fresh interpreters timing the import.
IMPORT_PROBES = 13

# Below these values a metric is reported at the floor: energy drift under
# 1e-9 is round-off, and no run attempts a million operations.  A floor keeps
# the median nonzero, so a relative bound still means something.
ENERGY_DRIFT_FLOOR = 1e-9
FAILED_FRAC_FLOOR = 1e-6

# One thread per BLAS call, on both sides of any comparison: steadier on a
# small shared machine, and the step loop makes small calls anyway.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# A fixed hash seed and, where ``setarch`` exists, no address randomization:
# both change the interpreter's memory layout from process to process, which
# moved the Python-bound workloads by several percent between runs.
LAYOUT_PINS = {"PYTHONHASHSEED": "0"}
SETARCH = shutil.which("setarch")

WORKER_TIMEOUT_S = 170.0

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


class BenchError(Exception):
    pass


def _worker(root: Path, cfg: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_PINS, **LAYOUT_PINS)
    cmd = [sys.executable, str(HERE / "worker.py")]
    # Its own session, so a timeout also ends the import probes it started.
    with subprocess.Popen(
        [SETARCH, "-R", *cmd] if SETARCH else cmd,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=root, env=env, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(cfg), timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from exc
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    root = Path(args.root).resolve()
    src = root / "src"
    if not (src / "trigcolloc" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {src}")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    compileall.compile_dir(str(src), quiet=1)  # every run imports cached bytecode

    t_start = time.monotonic()
    inputs = make_inputs(args.workload, args.seed, smoke=args.smoke)
    cfg = {
        "mode": "run",
        "src": str(src),
        "out_dir": str(out_dir),
        "inputs": inputs,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setup": SMOKE_SETUP_SAMPLING if args.smoke else SETUP_SAMPLING[args.workload],
        "verify_unwrap": args.smoke,
        "import_probes": 1 if args.smoke else IMPORT_PROBES,
    }
    res = _worker(root, cfg)

    metrics = {k: _metric(v["value"], v["unit"]) for k, v in res["metrics"].items()}
    if not args.trace:
        drift = metrics.pop("energy_drift_raw")["value"]
        metrics = {
            "wall_s": metrics["wall_s"],
            "setup_s": metrics["setup_s"],
            "import_s": metrics["import_s"],
            "peak_rss_mib": _metric(res["peak_rss_mib"], "MiB"),
            "energy_drift": _metric(max(drift, ENERGY_DRIFT_FLOOR), "1"),
            "failed_frac": _metric(
                max(res["failed"] / res["attempted"], FAILED_FRAC_FLOOR), "1"),
        }
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": args.smoke,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(src),
        **res["versions"],
        "thread_pins": THREAD_PINS,
        "layout_pins": dict(LAYOUT_PINS, address_randomization="off" if SETARCH else "on"),
        "thread_env_outside": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "usable_cpus": affinity,
        "cpu_model": _cpu_model(),
        "sizes": res["sizes"],
        "worker_import_s": res["import_s"],
        "detail": res["detail"],
        "elapsed_s": time.monotonic() - t_start,
    }
    return manifest, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed loop runs (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=str(HERE.parent),
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--save", default=None,
                        help="also write manifest and result to a JSON file in this directory")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    try:
        manifest, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.save:
        save = Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
        (save / f"{stem}.json").write_text(
            json.dumps({"manifest": manifest, "result": result}, indent=1))
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
