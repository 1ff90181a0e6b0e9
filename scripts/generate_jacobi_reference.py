#!/usr/bin/env python3
"""Regenerate the frozen Gauss-Jacobi reference rules.

Writes ``tests/data/jacobi_reference.csv``: the nodes and weights of
mpmath's 40-digit Gauss-Jacobi rule for the weight
``(1+x)**p`` on (-1, 1), rounded to float64, for every ``n`` in {1, 2,
6, 12, 16, 24, 32, 48} and ``p`` in {-0.95, -0.7, -0.5, -0.2, 0, 0.3,
0.7, 1.5}, nodes in increasing order.  The ``q`` column, the exponent
of ``(1-x)``, is 0 on every row.  ``tests/test_quadrature.py`` compares the package's Golub-Welsch
rule against this file at 1e-15 absolute (nodes) and 2e-13 relative
(weights); regenerating must be a no-op unless mpmath itself changed.
Requires mpmath; run from the repository root:

    python3 scripts/generate_jacobi_reference.py
"""

from __future__ import annotations

import os
import sys

import mpmath as mp

SIZES = (1, 2, 6, 12, 16, 24, 32, 48)
LEFT = (-0.95, -0.7, -0.5, -0.2, 0.0, 0.3, 0.7, 1.5)
OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                   "jacobi_reference.csv")


def main() -> int:
    rows = 0
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("n,p,q,node,weight\n")
        for n in SIZES:
            for p in LEFT:
                # mpmath's (alpha, beta) weights (1-x)**alpha (1+x)**beta
                with mp.workdps(40):
                    nodes, weights = mp.gauss_quadrature(n, "jacobi", 0, p)
                    rule = sorted(zip(nodes, weights))
                for x, w in rule:
                    handle.write(f"{n},{p:.17g},0,"
                                 f"{float(x):.17g},{float(w):.17g}\n")
                    rows += 1
    print(f"wrote {rows} rows to {os.path.normpath(OUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
