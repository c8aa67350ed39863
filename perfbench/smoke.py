#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at a tiny size, including
those not listed in BENCHMARK.json.

    python3 perfbench/smoke.py

For each workload it makes one untraced and two traced runs and asserts that

* every metric named in BENCHMARK.json is emitted, with its unit;
* the results are correct and no operation failed;
* count metrics are identical across the two traced runs;
* tracing leaves no wrapper behind (the worker checks the module attributes
  and that an operation after uninstalling records no span).

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

EXACT_UNITS = ("count", "bytes")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(lines[-2])["manifest"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if trace and manifest["detail"]["self_check_problems"]:
        raise AssertionError(f"{workload}: {manifest['detail']['self_check_problems']}")
    return result


def _check_metrics(workload: str, result: dict, wanted: list[dict]) -> None:
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        raise AssertionError(f"{workload}: missing {sorted(names - set(got))}, "
                             f"extra {sorted(set(got) - names)}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{workload}: {m['name']} has unit "
                                 f"{got[m['name']]['unit']}, want {m['unit']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: correct={result['correct']} "
                             f"failed={result['failed']} attempted={result['attempted']}")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        _check_metrics(name, _run(name, 0), bench["end_to_end"])
        traced = [_run(name, 1) for _ in range(2)]
        for res in traced:
            _check_metrics(name, res, bench["per_layer"])
        for m in bench["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                a, b = (res["metrics"][m["name"]]["value"] for res in traced)
                if a != b:
                    raise AssertionError(f"{name}: {m['name']} is {a} then {b}")
        print(f"{name}: ok")
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
