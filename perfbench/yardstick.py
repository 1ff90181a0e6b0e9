"""Fixed reference work that tells how fast the machine runs right now.

On a shared machine the same work takes 10-20% longer or shorter from
one minute to the next, and every phase slows together.  The worker times
this kernel before every phase of every pass; a run scales each pass's
phase times by ``NOMINAL_S`` over that pass's mean kernel time, so the
reported seconds are seconds at the kernel's nominal speed and move
when the work changes, not when the machine does.  The kernel calls no fracstep
code, so no change to the package can move it.  Its mix follows
fracstep's hot paths: short vectorised series in a Python loop, dot
products, scalar special functions.
"""

import math
import time

import numpy as np

#: Repeats of the kernel mix in one sample; one repeat takes 20-40 ms,
#: and a single time switches between those two speeds, so a sample
#: spans two repeats.
ROUNDS = 2

#: Sample time on a quiet 2-core Xeon VM with Python 3.11.7 and numpy
#: 2.4.6 (twice the 37 ms one repeat took); reported times are seconds
#: at that speed.
NOMINAL_S = 0.074

_Z = -np.linspace(0.05, 6.0, 48)
_COEFFS = [1.0 / math.gamma(0.3 * k + 1.0) for k in range(40)]
_HISTORY = np.linspace(1.0, 2.0, 4096)


def sample():
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(ROUNDS):
        for _ in range(100):
            total = np.full(_Z.shape, _COEFFS[0])
            power = np.ones_like(_Z)
            largest = np.abs(total)
            for c in _COEFFS[1:]:
                power = power * _Z
                term = power * c
                total = np.where(largest > 0.0, total + term, total)
                np.maximum(largest, np.abs(term), out=largest)
            acc += float(total.sum())
        for m in range(1, 100):
            acc += float(np.dot(_HISTORY[:40 * m], _HISTORY[-40 * m:]))
        for k in range(1, 5000):
            acc += math.lgamma(1.0 + k * 1e-4)
    return time.perf_counter() - start
