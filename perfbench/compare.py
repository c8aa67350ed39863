#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Collect ten paired runs (seeds 1 to 10) at the benchmark's run length,
alternating which side goes first in each pair, with this checkout's
benchmark code measuring both source trees:

    python3 perfbench/compare.py collect --parent ../parent --change . \\
        --workload fpu-chain --out results/

Then report one row per workload and end-to-end metric:

    python3 perfbench/compare.py report results/parent results/change

Each row gives both sides' median and quartiles, the pair wins of the change
(runs paired by seed; ties count for neither side), the parent's own spread
(Q3 - Q1) and a verdict against the metric's bound in BENCHMARK.json:

* improved   -- there are at least 10 pairs, the change wins at least 9 in 10
                of them, and the medians differ by more than the parent's
                spread;
* worse      -- the change's median exceeds the parent's by more than the bound;
* unresolved -- the parent's spread is wider than the bound, and not every
                run of the change beats every run of the parent;
* unchanged  -- otherwise.

Pair wins mean something only for runs that ``collect`` made in alternating
order.  Runs saved at another time (such as ``baseline/``) give medians and
quartiles to compare with, but no pairs: do not read wins from them.

Traced runs (``--trace 1``) are checked for count metrics that differ between
repeats of the same seed on the same side; those must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
EXACT_UNITS = ("count", "bytes")
# Pairs needed before a gain can be claimed, and traced runs per side.
MIN_PAIRS = 10
TRACED_RUNS = 2


def load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if "manifest" in rec and "result" in rec:
            records.append(rec)
    return records


def _better(value: float, other: float, lower_is_better: bool) -> bool:
    return value < other if lower_is_better else value > other


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, dict]:
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    c_q = statistics.quantiles(change, n=4) if len(change) > 1 else [c_med] * 3
    spread = p_q[2] - p_q[0]
    wins = sum(_better(c, p, lower_is_better) for p, c in pairs)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(_better(c, p, lower_is_better) for c in change for p in parent)
    if worse_by > bound:
        v = "worse"
    elif len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > spread:
        v = "improved"
    elif spread > bound * abs(p_med) and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    row = {
        "parent_median": p_med, "parent_q1": p_q[0], "parent_q3": p_q[2],
        "change_median": c_med, "change_q1": c_q[0], "change_q3": c_q[2],
        "wins": wins, "pairs": len(pairs), "parent_spread": spread,
        "change_vs_parent": (c_med - p_med) / p_med if p_med else 0.0,
    }
    return v, row


def _by_workload(records: list[dict], trace: int) -> dict:
    out = defaultdict(list)
    for rec in records:
        m = rec["manifest"]
        if m["trace"] == trace:
            out[m["workload"]].append(rec)
    return out


def count_mismatches(records: list[dict]) -> list[str]:
    """Count metrics that differ between traced repeats of one seed."""
    seen: dict[tuple, dict] = {}
    problems = []
    for rec in records:
        m = rec["manifest"]
        key = (m["workload"], m["seed"])
        counts = {k: v["value"] for k, v in rec["result"]["metrics"].items()
                  if v["unit"] in EXACT_UNITS}
        if key in seen:
            for name, value in counts.items():
                if seen[key].get(name) != value:
                    problems.append(f"{key[0]} seed {key[1]}: {name} "
                                    f"{seen[key].get(name)} vs {value}")
        else:
            seen[key] = counts
    return problems


def report(args) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(args.parent)), load(Path(args.change))
    p_runs, c_runs = _by_workload(parent, 0), _by_workload(change, 0)
    print("| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] "
          "| change/parent - 1 | wins | parent Q3-Q1 | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in sorted(set(p_runs) & set(c_runs)):
        p_by_seed = {r["manifest"]["seed"]: r for r in p_runs[workload]}
        c_by_seed = {r["manifest"]["seed"]: r for r in c_runs[workload]}
        common = sorted(set(p_by_seed) & set(c_by_seed))
        for metric in bench["end_to_end"]:
            name = metric["name"]

            def value(rec):
                return rec["result"]["metrics"][name]["value"]

            pv = [value(r) for r in p_runs[workload]]
            cv = [value(r) for r in c_runs[workload]]
            pairs = [(value(p_by_seed[s]), value(c_by_seed[s])) for s in common]
            v, row = verdict(pv, cv, pairs, metric["bound"], metric["better"] == "lower")
            print(f"| {workload} | {name} ({metric['unit']}) "
                  f"| {row['parent_median']:.4g} [{row['parent_q1']:.4g}, {row['parent_q3']:.4g}] "
                  f"| {row['change_median']:.4g} [{row['change_q1']:.4g}, {row['change_q3']:.4g}] "
                  f"| {row['change_vs_parent']:+.3f} | {row['wins']}/{row['pairs']} "
                  f"| {row['parent_spread']:.3g} | {metric['bound']} | {v} |")
    status = 0
    for side, recs in (("parent", parent), ("change", change)):
        traced = [r for r in recs if r["manifest"]["trace"] == 1]
        problems = count_mismatches(traced)
        print(f"\n{side}: {len(traced)} traced runs; count metrics "
              + ("repeat exactly" if not problems else "DIFFER:"))
        for p in problems:
            print(f"  {p}")
            status = 1
    return status


def collect(args) -> int:
    out = Path(args.out)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for i in range(MIN_PAIRS):
        seed = 1 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _run(sides[side], out / side, args.workload, seed, 0)
    for side in ("parent", "change"):
        for _ in range(TRACED_RUNS):
            _run(sides[side], out / side, args.workload, 1, 1)
    return 0


def _run(root: Path, save: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--save", str(save)]
    print(" ".join(cmd[1:]), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_rep = sub.add_parser("report", help="compare two directories of saved results")
    p_rep.add_argument("parent")
    p_rep.add_argument("change")
    p_col = sub.add_parser("collect", help="run alternating pairs on two checkouts")
    p_col.add_argument("--parent", required=True, help="root of the parent checkout")
    p_col.add_argument("--change", required=True, help="root of the changed checkout")
    p_col.add_argument("--workload", required=True)
    p_col.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return report(args) if args.command == "report" else collect(args)


if __name__ == "__main__":
    sys.exit(main())
