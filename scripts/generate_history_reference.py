#!/usr/bin/env python3
"""Reference values of the memory integral at times just past its limit.

Prints, for each offset ``t - b`` of 1e-10, 1e-6 and 1e-3 of ``b - a``
and each kernel exponent in {0.45, 0.95, 1.45, 1.9},

    int_a^b (t-s)**-kappa (s-a)**-0.55 E_{0.45,0.45}(-9 (s-a)**0.45) ds

with a = 0 and b = 0.4, as the float literals of ``SCALED_REFS`` in
``tests/test_quadrature.py``.  The limit and the time enter as the
doubles the tests pass (``mp.mpf(0.4)``, not the decimal 0.4), so the
offset is the tests' own.  The integral is split at the midpoint: the
left half in ``w = (s-a)**0.45``, which absorbs the weight, and the
right half in ``e = b - s`` on subintervals that grow tenfold from the
offset, so tanh-sinh sees no near singularity.  The Mittag-Leffler
factor is ``oracles.ml_oracle`` at 40 digits, each argument evaluated
once.  The twelve values take tens of minutes; run from the repository
root, optionally on a subset of the exponents:

    python3 scripts/generate_history_reference.py [kappa ...]
"""

from __future__ import annotations

import functools
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from oracles import ml_oracle  # noqa: E402

DPS = 40
A, B = 0.0, 0.4
ORDER, LAM = 0.45, 9.0
OFFSETS = (1e-10, 1e-6, 1e-3)
EXPONENTS = (0.45, 0.95, 1.45, 1.9)


@functools.lru_cache(maxsize=None)
def _ml(z: float):
    # tanh-sinh takes the same nodes for every exponent, and on the left
    # half for every time, so most arguments repeat
    return ml_oracle(ORDER, ORDER, z, DPS)


def history(t: float, kappa: float):
    """The integral at time ``t`` and exponent ``kappa``, and the sum of
    mpmath's error estimates over its pieces."""
    with mp.workdps(DPS):
        a, b, tm = mp.mpf(A), mp.mpf(B), mp.mpf(t)
        k, p = mp.mpf(kappa), mp.mpf(ORDER)
        mid = (a + b) / 2
        delta = tm - b

        def profile(w):
            return _ml(float(-LAM * w))

        left, err_left = mp.quad(
            lambda w: (tm - a - w ** (1 / p)) ** -k * profile(w),
            [0, (mid - a) ** p], error=True)
        edges = [mp.mpf(0)]
        while edges[-1] * 10 < b - mid:
            edges.append(delta if len(edges) == 1 else edges[-1] * 10)
        edges.append(b - mid)
        right, err_right = mp.quad(
            lambda e: (delta + e) ** -k * (b - a - e) ** (p - 1)
            * profile((b - a - e) ** p), edges, error=True)
        return left / p + right, err_left / p + err_right


def main(argv) -> int:
    exponents = [float(k) for k in argv] or EXPONENTS
    for kappa in exponents:
        for offset in OFFSETS:
            t = B + offset * (B - A)
            value, error = history(t, kappa)
            print(f"    ({t!r}, {kappa!r}): {mp.nstr(value, 19)},"
                  f"  # error estimate {mp.nstr(error, 2)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
