#!/usr/bin/env python3
"""Calibration sweep behind the Mittag-Leffler band crossovers.

The evaluator in ``fracstep.special`` switches algorithms on the rescaled
magnitude ``y = (-z)**(1/alpha)``:

* ``y <= ML_SERIES_YMAX`` : defining Taylor series in float64,
* ``y >= ML_ASYM_YMIN``   : divergent tail expansion at optimal truncation,
* in between             : Chebyshev interpolant of an integral
                            representation.

Both outer algorithms degrade smoothly in ``y``.  The alternating Taylor
series cancels down from a largest term of size ``exp(y)``, so roughly
``y / ln(10)`` digits are lost; the tail expansion truncated at its
smallest term leaves a remainder of order ``exp(-y)``.  This script
measures both error curves against a 50-digit reference and prints the
largest usable ``y`` for the series and the smallest usable ``y`` for the
expansion at the package's 1e-10 accuracy target, which is how the
defaults of 8 and 30 were chosen (with margin on both sides).

Requires mpmath; run from the repository root:

    python3 scripts/calibrate_ml_crossovers.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from fracstep.special import _ml_asymptotic_vec, _ml_series_vec  # noqa: E402
from oracles import ml_oracle  # noqa: E402

TARGET = 1e-10
ALPHAS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.99)
Y_GRID = np.arange(2.0, 61.0, 2.0)


def band_errors(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    x = Y_GRID ** alpha
    ref = np.array([float(ml_oracle(alpha, beta, -xi)) for xi in x])
    try:
        series_err = np.abs(_ml_series_vec(alpha, beta, -x) - ref)
    except ArithmeticError:
        series_err = np.full(x.shape, math.inf)
    # the asymptotic band marks arguments it cannot certify with NaN
    asym_err = np.nan_to_num(np.abs(_ml_asymptotic_vec(alpha, beta, x) - ref),
                             nan=math.inf)
    return series_err, asym_err


def main() -> int:
    worst_series = np.zeros(len(Y_GRID))
    worst_asym = np.zeros(len(Y_GRID))
    for alpha in ALPHAS:
        for beta in (alpha, 1.0, alpha + 1.0):
            e_s, e_a = band_errors(alpha, beta)
            worst_series = np.maximum(worst_series, e_s)
            worst_asym = np.maximum(worst_asym, e_a)

    print(f"{'y':>6} {'series err':>12} {'asym err':>12}")
    for y, es, ea in zip(Y_GRID, worst_series, worst_asym):
        print(f"{y:6.1f} {es:12.3e} {ea:12.3e}")

    ok_series = Y_GRID[worst_series < TARGET]
    ok_asym = Y_GRID[worst_asym < TARGET]
    y_series = ok_series.max() if ok_series.size else float("nan")
    y_asym = ok_asym.min() if ok_asym.size else float("nan")
    print()
    print(f"largest y with series error  < {TARGET:g}: {y_series:.1f}")
    print(f"smallest y with asym error   < {TARGET:g}: {y_asym:.1f}")
    print("shipped crossovers: ML_SERIES_YMAX = 8, ML_ASYM_YMIN = 30")
    print("(the asymptotic routine falls back to the integral form when")
    print(" its optimal-truncation bound cannot certify the target)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
