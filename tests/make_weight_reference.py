"""Write tests/weight_reference.csv: weight-kernel bits and 30-digit references.

Run from the repository root:

    PYTHONPATH=src python tests/make_weight_reference.py

Each row is one weight (node-set tag, kind, i, j, lam) with two values:

  bits  coeffs.scalar_weight at the time the file was written, as
        float.hex, so a later kernel can be held to the same bits;
  ref   the defining integral by mpmath quadrature at 30 digits:

          q, stage (scale c):  int_0^1 l_j(c z) sin((1-z) c lam) / (c lam) dz
          p:                   int_0^1 l_j(z) cos((1-z) lam) dz

        with l_j in Lagrange product form on the exact float nodes (the
        q-kind integrand is l_j(c z) (1-z) at c lam = 0).

Node sets: Gauss-1 to Gauss-6, S3 = (0.2, 0.5, 0.9) and Z01 = (0, 0.4, 1).
Frequencies: 0, the two floats on either side of each switch point
lam = LAMBDA_SWITCH / c (c = 1 and every nonzero node), and a grid up to 100.
Every (kind, j, i) is written at every frequency of its node set.

The file name does not start with test_, so pytest does not collect it;
tests/test_weight_reference.py reads the CSV and never runs mp.quad.
"""

from __future__ import annotations

import csv
import math
import pathlib

import mpmath as mp

from trigcolloc import coeffs as cf
from trigcolloc import lagrange as lg

OUT = pathlib.Path(__file__).with_name("weight_reference.csv")
DIGITS = 30
BASE_GRID = (0.0, 0.3, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)


def node_sets():
    sets = {f"g{s}": lg.gauss_nodes(s) for s in range(1, 7)}
    sets["s3"] = lg.build_node_set((0.2, 0.5, 0.9))
    sets["z01"] = lg.build_node_set((0.0, 0.4, 1.0))
    return sets


def frequencies(ns):
    lams = set(BASE_GRID)
    for c in {1.0, *map(float, ns.nodes)}:
        if c > 0.0:
            at = cf.LAMBDA_SWITCH / c
            lams.update((math.nextafter(at, 0.0), math.nextafter(at, math.inf)))
    return sorted(lams)


def entries(ns):
    for kind in cf.WeightKind:
        for i in range(ns.s) if kind is cf.WeightKind.STAGE else [None]:
            for j in range(ns.s):
                yield kind, i, j


def reference(ns, kind, j, lam, i):
    nodes = [mp.mpf(float(c)) for c in ns.nodes]

    def basis(x):
        out = mp.mpf(1)
        for k, ck in enumerate(nodes):
            if k != j:
                out *= (x - ck) / (nodes[j] - ck)
        return out

    lam = mp.mpf(lam)
    if kind is cf.WeightKind.P:
        f = lambda z: basis(z) * mp.cos((1 - z) * lam)
    else:
        c = mp.mpf(1) if kind is cf.WeightKind.Q else nodes[i]
        w = c * lam
        if w == 0:
            f = lambda z: basis(c * z) * (1 - z)
        else:
            f = lambda z: basis(c * z) * mp.sin((1 - z) * w) / w
    # one panel per half period keeps the Gauss-Legendre rule exact enough
    panels = max(1, int(mp.ceil(lam / mp.pi)) * 2)
    return mp.quad(f, mp.linspace(0, 1, panels + 1), method="gauss-legendre")


def main():
    mp.mp.dps = DIGITS + 10
    rows = []
    for tag, ns in node_sets().items():
        for lam in frequencies(ns):
            for kind, i, j in entries(ns):
                bits = cf.scalar_weight(ns, kind, j, lam, i)
                ref = reference(ns, kind, j, lam, i)
                rows.append(
                    (tag, kind.value, "" if i is None else i, j, lam.hex(),
                     float(bits).hex(), mp.nstr(ref, DIGITS, min_fixed=1, max_fixed=0))
                )
    with OUT.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("set", "kind", "i", "j", "lam", "bits", "ref"))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
