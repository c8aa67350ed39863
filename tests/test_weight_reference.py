"""The weight evaluator against tests/weight_reference.csv.

The file (written by tests/make_weight_reference.py) holds, for Gauss-1 to
Gauss-6, S3 and Z01, every weight at frequencies from 0 to 100 including
both sides of each switch point: the bits the per-frequency scalar kernels
returned when the file was written, and a 30-digit mpmath value of the
defining integral.  Nothing here runs a quadrature.
"""

import collections
import csv
import math
import pathlib
from decimal import Decimal

import numpy as np
import pytest

from trigcolloc import coeffs as cf
from trigcolloc import lagrange as lg

REFERENCE = pathlib.Path(__file__).with_name("weight_reference.csv")

NODE_SETS = {
    **{f"g{s}": lambda s=s: lg.gauss_nodes(s) for s in range(1, 7)},
    "s3": lambda: lg.build_node_set((0.2, 0.5, 0.9)),
    "z01": lambda: lg.build_node_set((0.0, 0.4, 1.0)),
}

# Worst absolute error against the 30-digit value, about 1.25 times the
# measured one.  All sit just above the switch on the by-parts branch, whose
# sum cancels there; the series floor is near 1e-16 (s <= 3) to 3e-14 (s = 6).
WORST_ABS_ERROR = {
    "g1": 1.4e-16,
    "g2": 8.3e-16,
    "g3": 9.6e-15,
    "g4": 2.6e-13,
    "g5": 8.4e-12,
    "g6": 3.9e-10,
    "s3": 1.8e-14,
    "z01": 7.0e-15,
}


def _rows_by_set():
    by_set = collections.defaultdict(list)
    with REFERENCE.open(newline="") as fh:
        for row in csv.DictReader(fh):
            by_set[row["set"]].append(row)
    return by_set


ROWS = _rows_by_set()


def _batched(tag):
    """(row, evaluator value) for every row of tag, from one weights call."""
    ns = NODE_SETS[tag]()
    rows = ROWS[tag]
    lams = sorted({float.fromhex(r["lam"]) for r in rows})
    column = {lam: k for k, lam in enumerate(lams)}
    b_q, b_p, A = cf.weights(ns, np.array(lams))
    for r in rows:
        k, j = column[float.fromhex(r["lam"])], int(r["j"])
        if r["kind"] == "stage":
            yield r, A[int(r["i"]), j, k]
        else:
            yield r, (b_q if r["kind"] == "q" else b_p)[j, k]


def test_reference_covers_every_set_kind_and_switch_side():
    assert set(ROWS) == set(NODE_SETS)
    for tag, rows in ROWS.items():
        ns = NODE_SETS[tag]()
        kinds = collections.Counter(r["kind"] for r in rows)
        n_lam = len({r["lam"] for r in rows})
        assert kinds == {"q": ns.s * n_lam, "p": ns.s * n_lam, "stage": ns.s * ns.s * n_lam}
        lams = {float.fromhex(r["lam"]) for r in rows}
        assert 0.0 in lams and max(lams) == 100.0
        for c in ns.scales[ns.scales > 0.0]:
            at = cf.LAMBDA_SWITCH / c
            assert {math.nextafter(at, 0.0), math.nextafter(at, math.inf)} <= lams


@pytest.mark.parametrize("tag", sorted(NODE_SETS))
def test_weights_reproduce_the_reference_bits(tag):
    for r, value in _batched(tag):
        assert float(value).hex() == r["bits"], r


@pytest.mark.parametrize("tag", sorted(NODE_SETS))
def test_worst_error_against_30_digit_references(tag):
    worst = max(abs(Decimal(float(value)) - Decimal(r["ref"])) for r, value in _batched(tag))
    assert worst <= Decimal(WORST_ABS_ERROR[tag])
