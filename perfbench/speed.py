"""A fixed reference workload that measures how fast the machine runs.

On a shared machine the CPU's speed moves by tens of percent, in bursts of
under a second and in phases of seconds to minutes (other tenants; CPU time
tracks wall time, so nothing is stolen from the process itself).  A longer
run does not average the phases out: raw run medians of the same code spread
by up to a quarter between runs.  So the worker brackets every timed sample
with blocks of this reference work and reports it as

    sample * NOMINAL_BLOCK_S / mean(block just before, block just after)

that is, in seconds of a machine on which one block takes NOMINAL_BLOCK_S.
An import probe, which runs in a fresh interpreter, is scaled by two blocks
run in that interpreter right after the import instead.  Time metrics are
medians of scaled samples; the raw medians stay in the run manifest.

A block mixes the two kinds of work the workloads do: interpreter-bound
Python and small numpy calls (2x2 solves, tiny arrays).  Either kind alone
tracked one workload and not the other: over 10-45 s windows the log-log
slope of the raw operation time on the block time came out at 0.7-1.0 for
the mix on both fpu-chain and stability-scan, against 0.5-0.8 for pure
Python on stability-scan (perfbench/README.md, "Machine speed").  The block
runs with the garbage collector off, so the program's heap does not enter
it, and it never changes with the program under test.
"""

import gc
import math
import time

import numpy as np

# About one block's time on the machine the baseline was measured on (2-core
# Intel Xeon, Python 3.11.7).  Any constant would do; this one keeps the
# reported values close to raw seconds there.
NOMINAL_BLOCK_S = 0.1

PY_RUNS = 4
NP_RUNS = 12


def _python_work() -> None:
    acc = 0.0
    items = [float(i) for i in range(64)]
    for rep in range(2000):
        for x in items:
            acc += x * 1.0001 - rep
        acc = acc % 1e6
        acc += sum(items[rep % 7::3])
        acc += len({i: x for i, x in enumerate(items[:16])})
    if acc == -1.0:  # keeps the loop's result live
        print(acc)


def _numpy_work() -> None:
    a = np.array([[2.0, 0.3], [0.1, 1.5]])
    b = np.array([1.0, 2.0])
    out = np.empty((300, 3))
    acc = 0.0
    for i in range(300):
        y = np.linalg.solve(np.eye(2) + (i * 1e-3) * a, b)
        acc += float(b @ y) + math.cos(i * 0.01)
        out[i] = (acc, i, 1.0)
    if acc == -1.0:
        print(out)


def block() -> float:
    """Seconds taken by one block of reference work (about 0.1 s)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PY_RUNS):
            _python_work()
        for _ in range(NP_RUNS):
            _numpy_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Bracket:
    """Scales consecutive samples, each by the blocks on either side of it."""

    def __init__(self):
        self.before = block()
        self.blocks = [self.before]

    def scale(self, raw: float | None) -> float | None:
        """Nominal seconds of a sample that just ended (None stays None).

        Call it right after every sample, failed ones too, so that each
        sample sits between two blocks.
        """
        after = block()
        self.blocks.append(after)
        factor = 2.0 * NOMINAL_BLOCK_S / (self.before + after)
        self.before = after
        return None if raw is None else raw * factor

    def restart(self) -> None:
        """Measure afresh before a sample that does not directly follow the
        last block."""
        self.before = block()
        self.blocks.append(self.before)
