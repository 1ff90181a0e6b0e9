"""Gamma and Mittag-Leffler evaluation on the negative real axis.

The two-parameter Mittag-Leffler function is the workhorse: relaxation
profiles, convolution kernels, and exact kernel primitives all go through
one array evaluator, ``ml_values``, whose result depends on
``(alpha, beta, z)`` alone; ``ml`` is that evaluator at one point.

For ``0 < alpha < 1`` and ``x >= 0`` the function is the inverse Laplace
transform at ``t = 1``,

    E_{alpha,beta}(-x) = (1/2 pi i) int_C e**s s**(alpha-beta)
                         / (s**alpha + x) ds,

whose integrand has only the branch cut on the negative real axis: the
poles ``s**alpha = -x`` lie off the principal sheet.  ``C`` is the
parabolic Hankel contour ``s(u) = mu (1 + i u)**2`` of Weideman and
Trefethen, "Parabolic and hyperbolic contours for computing the Bromwich
integral", Math. Comp. 76 (2007), with their optimal step ``h = 3/N`` and
``mu = pi N / 12``; R. Garrappa, "Numerical evaluation of two and three
parameter Mittag-Leffler functions", SIAM J. Numer. Anal. 53 (2015),
applies such contours to Mittag-Leffler functions.  The trapezoidal rule
with ``N = 20`` on ``u_k = k h``, folded by conjugate symmetry onto
``k = 0..N``, turns the integral into ``Re sum_k c_k / (d_k + x)``, with
weights ``c_k`` and poles ``d_k = s(u_k)**alpha`` that depend on
``(alpha, beta)`` only (the poles on ``alpha`` alone, so one pass can
serve several ``beta`` at the same arguments).

The sum is evaluated in real arithmetic in one of two ways, chosen by
the number of points.  Calls of at most ``_BROADCAST_POINTS`` points,
the many small calls of sampling, form all 21 terms as one (nodes x
points) array expression, so their cost is a handful of numpy calls
rather than seven per node; larger calls loop over the nodes with work
arrays of at most ``_LOOP_POINTS`` points, which is faster once the
(nodes x points) arrays grow large.  Both add the terms one after
another in node order, the array form through a running sum along the
node axis, because a numpy reduction would sum a one-point call's
contiguous node axis pairwise.  So every value is the same bit for bit
whichever way, and in whatever call, it is evaluated.

The accuracy contract is absolute: about 2e-14 or better against a
big-float reference over ``alpha`` in [0.001, 0.9999], ``beta`` up to
``alpha + 2`` and ``x`` up to 1e7.  More nodes lose digits to the
``e**mu`` growth of the weights, fewer to the discretization.  Relative
accuracy where the value is tiny, such as ``E_{alpha,alpha}(-x)`` for
``x`` beyond about 1e10, is not claimed.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "gamma_fn",
    "ml",
    "ml_values",
    "measured_envelope",
]

# trapezoidal nodes per half-contour; h = 3/N and mu = pi N / 12
_CONTOUR_NODES = 20

# Calls of at most this many points evaluate every contour node at once;
# larger ones loop over the nodes.  Near the crossover measured on a
# 2-core Xeon: the array form was faster up to about 450 points with
# one beta and about 400 with two
_BROADCAST_POINTS = 512

# Points the node loop works through at a time, so that its work arrays
# stay in cache.  On a 2-core Xeon a 250k-point, two-beta call took 102
# ns per point in 32,768-point slices, against 105 ns in 16,384, 117 ns
# in 65,536 and 157 ns in one pass (medians of 9 alternated calls)
_LOOP_POINTS = 32768

# Arguments beyond this are evaluated here, so that the squares in the
# rule cannot overflow; every value past it is below 1e-149 in size.
_X_CAP = 1e150


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half-line."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def ml(params, z: float) -> float:
    """Two-parameter Mittag-Leffler function ``E_{alpha,beta}(z)``, z <= 0.

    ``params`` is the pair ``(alpha, beta)``.  The value is
    :func:`ml_values` at a one-element array, bit for bit.
    """
    alpha, beta = params
    z = float(z)
    if not math.isfinite(z) or z > 0.0:
        raise DomainError(f"ml is restricted to finite z <= 0, got {z}")
    return float(ml_values(alpha, beta, np.array([z]))[0])


@functools.lru_cache(maxsize=128)
def _contour_rule(alpha: float, beta: float) -> tuple:
    """Weights and poles ``(Re c, Im c, Re d, Im d)`` of the folded rule.

    ``E_{alpha,beta}(-x) ~ Re sum_k c_k / (d_k + x)`` over ``k = 0..N``;
    the ``k = 0`` node is on the real axis, the others stand for
    themselves and their conjugates.
    """
    n = _CONTOUR_NODES
    h = 3.0 / n
    mu = math.pi * n / 12.0
    rule = []
    for k in range(n + 1):
        w = 1.0 + 1j * k * h
        s = mu * w * w
        c = (1.0 if k == 0 else 2.0) * h * mu / math.pi \
            * cmath.exp(s) * s ** (alpha - beta) * w
        d = s ** alpha
        rule.append((c.real, c.imag, d.real, d.imag))
    return tuple(rule)


def ml_values(alpha: float, beta, z: np.ndarray) -> np.ndarray:
    """``E_{alpha,beta}`` over an array of non-positive arguments.

    ``alpha`` must lie in ``(0, 1)``, the range of the solver's orders,
    and ``beta`` must be positive.  One fixed contour rule serves every
    argument, so each entry depends on ``(alpha, beta)`` and its own
    argument only, whatever the size or shape of ``z``.  ``z == 0`` gives
    ``1/Gamma(beta)`` exactly.

    ``beta`` may also be a 1-d sequence of parameters that share
    ``alpha`` and ``z``: the result then has one row per entry, shape
    ``(len(beta),) + z.shape``, and each row equals the call for its
    ``beta`` alone, bit for bit.  The poles depend on ``alpha`` only, so
    the shifted poles and the denominators are formed once for all rows.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    single = np.ndim(beta) == 0
    betas = (float(beta),) if single else tuple(float(b) for b in beta)
    if not betas:
        raise DomainError("ml_values needs at least one beta")
    for b in betas:
        if not (math.isfinite(b) and b > 0.0):
            raise DomainError(f"beta must be positive, got {b}")
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all() or (z > 0.0).any():
        raise DomainError("ml_values is restricted to finite z <= 0")
    x = np.minimum(-z.reshape(-1), _X_CAP)
    if x.size <= _BROADCAST_POINTS:
        out = _nodes_at_once(alpha, betas, x)
    else:
        out = _node_loop(alpha, betas, x)
    out[:, x == 0.0] = [[1.0 / math.gamma(b)] for b in betas]
    return out.reshape(z.shape if single else (len(betas),) + z.shape)


@functools.lru_cache(maxsize=128)
def _rule_columns(alpha: float, betas: tuple) -> tuple:
    """The folded rules of ``betas`` as columns for :func:`_nodes_at_once`.

    Returns ``Re d`` and ``(Im d)**2`` as (nodes x 1) arrays, shared by
    every beta, and ``Re c`` and ``Im c * Im d`` as (betas x nodes x 1)
    arrays, formed from the same floats as :func:`_node_loop` uses.
    """
    rules = [_contour_rule(alpha, b) for b in betas]
    poles = rules[0]
    dr = np.array([[d] for _, _, d, _ in poles])
    didi = np.array([[di * di] for _, _, _, di in poles])
    cr = np.array([[[c] for c, _, _, _ in rule] for rule in rules])
    cidi = np.array([[[ci * di] for _, ci, _, di in rule]
                     for rule in rules])
    return dr, didi, cr, cidi


def _nodes_at_once(alpha: float, betas: tuple, x: np.ndarray) -> np.ndarray:
    """``Re sum_k c_k / (d_k + x)`` as one (betas x nodes x points)
    expression, for calls small enough that numpy's per-operation cost,
    not the work per point, sets the time."""
    dr, didi, cr, cidi = _rule_columns(alpha, betas)
    re = x + dr
    den = re * re
    den += didi
    num = re * cr
    num += cidi
    num /= den
    # a running sum adds the nodes one after another in node order, as
    # the node loop does; a reduction would sum a one-point call, whose
    # node axis is contiguous, pairwise and round differently.  The copy
    # keeps the caller's result from pinning the (nodes x points) sums
    return np.cumsum(num, axis=1)[:, -1].copy()


def _node_loop(alpha: float, betas: tuple, x: np.ndarray) -> np.ndarray:
    """``Re sum_k c_k / (d_k + x)`` with one pass over the nodes, in
    place, for calls large enough that the work per point sets the time:
    there the (nodes x points) arrays of :func:`_nodes_at_once` would
    cost more in memory traffic than the loop does in numpy calls.  The
    points are taken ``_LOOP_POINTS`` at a time, so the work arrays stay
    in cache; each point still adds its nodes in node order."""
    out = np.zeros((len(betas), x.size))
    work = np.empty((3, min(x.size, _LOOP_POINTS)))
    rules = [_contour_rule(alpha, b) for b in betas]
    for lo in range(0, x.size, _LOOP_POINTS):
        part = x[lo:lo + _LOOP_POINTS]
        re, num, den = work[:, :part.size]
        rows = list(out[:, lo:lo + part.size])
        for nodes in zip(*rules):
            _, _, dr, di = nodes[0]
            np.add(part, dr, out=re)
            np.multiply(re, re, out=den)
            den += di * di
            for row, (cr, ci, _, _) in zip(rows, nodes):
                np.multiply(re, cr, out=num)
                num += ci * di
                num /= den
                row += num
    return out


def measured_envelope(params, z_max: float = 1e6,
                      n_points: int = 200) -> float:
    """Largest value of ``|E_{alpha,beta}(-x)| * (1 + x)`` on a log grid.

    ``params`` is the pair ``(alpha, beta)``.  The theoretical bound
    guarantees this is finite for any admissible pair; the measured
    constant is what the verification suite compares against.
    """
    alpha, beta = params
    grid = np.concatenate([[0.0], np.logspace(-6, math.log10(z_max),
                                              n_points - 1)])
    values = ml_values(alpha, beta, -grid)
    return float(np.max(np.abs(values) * (1.0 + grid)))
