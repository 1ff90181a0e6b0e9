"""Quadrature rules for integrands with endpoint power singularities.

Every integral in the segment recursion has one of three shapes and each
gets a dedicated rule here:

* ``int_a^b (s-a)**p * (t-s)**(-kappa) * g(s) ds`` with ``t >= b``: the
  memory integral of a past segment's impulse part, for an array of
  times at once, each with the same ``b`` or with its own.
  When ``t`` is well clear of ``b`` the kernel factor is smooth and
  composite Gauss in a scaled variable suffices; when ``t`` approaches
  ``b`` the interval is split and the nearly singular right part is
  integrated on an exponentially stretched grid (or with a Gauss-Jacobi
  rule for the endpoint weight when ``t == b``).
* ``int (t-s)**(-kappa) * g(s) ds`` for tabulated ``g``: the memory of a
  past segment's forced tail, exact for the piecewise-linear interpolant
  and computed as one (times x cells) array per block of times.
  The first two rules take one row per mode: the rows share every node
  set and kernel factor, and differ only in the profile's values or the
  tabulated samples.
* ``int_a^t K(t-s) * g(s) ds`` with the subdiffusive impulse response
  ``K``: product integration against samples of ``g`` on a mesh, using
  exact cell masses of ``K`` obtained from its closed-form antiderivative.
  The kernel is never evaluated pointwise, so its blow-up at ``s = t``
  costs nothing.  One call serves every eigenvalue that shares the order
  and the mesh, one row each.

Every rule evaluates the integrand's smooth factor once, on the nodes
of every cell, every time and every row, forms each node's contribution
elementwise and reduces each time's own nodes and cells with numpy sums
along the last axis, whose summation order depends on the node and cell
counts alone.  So a batched result equals the one-row, one-time result
bit for bit.  No BLAS product is used: BLAS fixes no summation order, so
its last bits may depend on the batch's shape or the data's memory
layout.

Graded meshes concentrate nodes near an endpoint with algebraic rate and
guard against node collapse in double precision.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .special import ml_values

__all__ = [
    "graded_mesh",
    "scaled_power_history",
    "power_kernel_convolve",
    "duhamel_convolve",
    "composite_graded_integral",
]

#: Past-segment kernel is treated as smooth once the evaluation time is at
#: least this fraction of the segment width beyond the segment's end.
FAR_FIELD_FRACTION = 0.1

#: Cap on the first-cell compression of a graded mesh: the smallest cell
#: never drops below this fraction of the interval, which bounds the
#: grading strength actually applied for any requested exponent.
MIN_CELL_FRACTION = 1e-14

_EXP_CELL_SPAN = 1.5  # cell length in log coordinates for stretched grids

#: Graded-mesh cells of each ``scaled_power_history`` scaled-variable part.
HISTORY_CELLS = 8

# power_kernel_convolve and duhamel_convolve evaluate their times in blocks
# of about this many quadrature or mesh nodes, so their memory stays
# bounded (a few MB) however many times are asked for
_BLOCK_NODES = 1 << 16


@functools.lru_cache(maxsize=256)
def _jacobi_rule(n: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight ``(1+x)**p (1-x)**q`` on (-1, 1).

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the three-term recurrence,
    polished by one Newton step on the orthonormal polynomial ``p_n``;
    the weights are ``mu0 / sum_{k<n} p_k(x_i)**2`` with ``p_0 = 1`` and
    ``mu0`` the weight's total mass.  Against 40-digit mpmath rules for
    n <= 48, p in [-0.95, 1.5] and q in {0, -0.5}, nodes are within
    2.2e-16 absolute and weights within 9.9e-14 relative (scipy's
    ``roots_jacobi``: 3.3e-16 and 5.2e-11).
    """
    # a = q multiplies (1-x), b = p multiplies (1+x): the left exponent p
    # of (s-a) becomes the (1+x) exponent after the map to (-1, 1)
    a, b = float(q), float(p)
    s = a + b
    k = np.arange(n + 1, dtype=float)
    # diagonal (b**2 - a**2) / (m (m+2)) with m = 2k+s; at k = 0 the
    # (b+a)/m factor is 1, written out so that s == 0 never divides by 0
    m = 2.0 * k[:n] + s
    diag = (np.where(k[:n] == 0, b - a, (b - a) * (b + a))
            / (np.where(k[:n] == 0, 1.0, m) * (m + 2.0)))
    # squared off-diagonal 4k(k+a)(k+b)(k+s) / (m**2 (m+1)(m-1)) for
    # k = 1..n; at k = 1 the (k+s)/(m-1) factor is 1, so p+q == -1
    # never divides by 0 either
    k = k[1:]
    m = 2.0 * k + s
    off2 = (4.0 * k * (k + a) * (k + b) * np.where(k == 1, 1.0, k + s)
            / (m * m * (m + 1.0) * np.where(k == 1, 1.0, m - 1.0)))
    off = np.sqrt(off2)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1)
                           + np.diag(off[:-1], -1))

    def recurrence(x):
        # orthonormal off[j] p_{j+1} = (x - diag[j]) p_j - off[j-1] p_{j-1}
        # from p_0 = 1, with its derivative: (p_n, p_n', sum_{k<n} p_k**2)
        prev, cur = np.zeros_like(x), np.ones_like(x)
        dprev, dcur = np.zeros_like(x), np.zeros_like(x)
        total = np.zeros_like(x)
        for j in range(n):
            total += cur * cur
            back = off[j - 1] if j else 0.0
            nxt = ((x - diag[j]) * cur - back * prev) / off[j]
            dnxt = (cur + (x - diag[j]) * dcur - back * dprev) / off[j]
            prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
        return cur, dcur, total

    value, slope, _ = recurrence(x)
    x = x - value / slope
    _, _, total = recurrence(x)
    mu0 = math.exp((s + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(s + 2.0))
    return x, mu0 / total


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def graded_mesh(a: float, b: float, n: int,
                grading: float = 2.0) -> np.ndarray:
    """Nodes of a mesh on ``[a, b]`` algebraically refined toward ``a``.

    The nodes are ``a + (b-a) * (i/n)**grading``.  The effective grading
    is reduced if the requested one would compress the smallest cell
    below ``MIN_CELL_FRACTION`` of the interval, which keeps all nodes
    distinct in double precision.
    """
    a, b = float(a), float(b)
    n = int(n)
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise DomainError(f"need a finite interval with a < b, got [{a}, {b}]")
    if n < 1:
        raise DomainError(f"need at least one cell, got n={n}")
    if grading < 1.0:
        raise DomainError(f"grading must be >= 1, got {grading}")

    if n > 1:
        # n**(-r) >= MIN_CELL_FRACTION  <=>  r <= log(1/frac) / log(n)
        grading = min(grading, math.log(1.0 / MIN_CELL_FRACTION) / math.log(n))
    frac = (np.arange(n + 1) / n) ** grading
    nodes = a + (b - a) * frac
    nodes[0], nodes[-1] = a, b
    return nodes


def _stretched_cells(lo: np.ndarray, hi: np.ndarray):
    """Cell edges of stretched grids on ``[lo[k], hi[k]]``, ``0 < lo < hi``.

    Substituting ``u = lo * exp(v)`` moves the origin singularity of
    ``u**(-kappa)`` to ``v -> -inf``; composite Gauss-Legendre on cells of
    bounded span in ``v`` then converges rapidly even when ``lo`` is tiny.
    Yields ``(index, edges)`` per cell count, with one row of edges for
    each grid in ``index``.
    """
    span = np.log(hi / lo)
    cells = np.maximum(1, np.ceil(span / _EXP_CELL_SPAN)).astype(int)
    for c in np.unique(cells).tolist():
        index = np.flatnonzero(cells == c)
        edges = lo[index, None] * np.exp(np.arange(c + 1)
                                         * (span[index, None] / c))
        edges[:, -1] = hi[index]
        yield index, edges


def _cell_nodes(edges: np.ndarray, x: np.ndarray):
    """Gauss nodes ``mid + half * x`` of the cells along ``edges``' last
    axis, one row per cell."""
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * x, half


def scaled_power_history(profile, a: float, b, times,
                         kernel_exponent: float, power: float,
                         n: int = 24):
    """Memory integral of a fractional impulse response shape.

    Computes ``int_a^b (t-s)**(-kappa) * (s-a)**(power-1)
    * profile((s-a)**power) ds`` for every ``t`` in ``times``, with
    analytic ``profile`` (typically a Mittag-Leffler factor).  The
    profile's argument scales like ``(s-a)**power``, so after peeling the
    algebraic weight the remaining factor still has a branch point at
    ``s = a`` and a plain Jacobi rule stalls at low accuracy.
    Substituting ``w = (s-a)**power`` absorbs the weight exactly and
    removes the branch:

        (1/power) * int_0^{(b-a)**power}
            (t - a - w**(1/power))**(-kappa) * profile(w) dw.

    Composite Gauss on a mildly left-graded mesh of ``HISTORY_CELLS``
    cells (the map ``w**(1/power)`` has limited smoothness at zero)
    integrates this to near machine accuracy in the far field,
    ``t - b >= FAR_FIELD_FRACTION * (b - a)``.
    Nearer to ``b`` the integral is split at the midpoint: the left half
    is done the same way, and the right half in the kernel variable
    ``u = t - s``, where the peeled weight is smooth, on a stretched grid
    reaching down to ``u = t - b`` or with an exact Jacobi weight
    ``u**(-kappa)`` when ``t == b``.

    ``b`` is one upper limit for every time or an array of limits that
    broadcasts against ``times``, ``a < b <= t``.  Times that share a
    limit share its far-field and left-half node sets, so a scalar ``b``
    builds one of each for all times.

    ``profile`` must act elementwise.  It may return one row per
    integrand, for example one per eigenvalue in a Mittag-Leffler
    argument; the result then has shape ``rows + times.shape``, and a
    1-d profile with a scalar ``times`` gives a float, and an empty
    ``times`` gives an empty ``rows + (0,)`` result.  ``profile`` is
    called once, on every limit's far-field and left-half nodes and
    every near time's right-half nodes together.  Each part is reduced
    by an elementwise product and one numpy sum along the nodes of each
    cell, then one along the cells, in an order fixed by the node and
    cell counts, so each row and each time equals a call with that row,
    that time and its limit alone, bit for bit.
    """
    a = float(a)
    kappa = float(kernel_exponent)
    power = float(power)
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    b = np.asarray(b, dtype=float)
    if np.any(b <= a):
        raise DomainError(f"need a < b, got [{a}, {np.min(b)}]")
    limits = np.broadcast_to(b, times.shape).reshape(-1)
    early = flat < limits
    if early.any():
        raise DomainError(f"evaluation time {flat[early][0]} precedes its "
                          f"upper limit {limits[early][0]}")
    if not 0.0 < kappa < 2.0:
        raise DomainError(f"kernel exponent must be in (0, 2), got {kappa}")
    if kappa >= 1.0 and np.any(flat == limits):
        raise DomainError(
            f"kernel exponent {kappa} is not integrable up to t == b")
    if not 0.0 < power < 1.0:
        raise DomainError(f"power must be in (0, 1), got {power}")

    inv = 1.0 / power
    x, w = _legendre_rule(int(n))
    mid = 0.5 * (a + limits)
    near = flat - limits < FAR_FIELD_FRACTION * (limits - a)

    # parts (times, profile nodes, kernel factor with the Gauss weights
    # folded in, cell half-widths, final factor): the left parts in the
    # scaled variable share one node set per limit b, [a, b] for far
    # times and [a, mid] for near ones
    parts = []
    for lim in np.unique(limits).tolist():
        for s_hi, here in ((lim, ~near), (0.5 * (a + lim), near)):
            index = np.flatnonzero(here & (limits == lim))
            if index.size:
                edges = graded_mesh(0.0, (s_hi - a) ** power, HISTORY_CELLS,
                                    3.0)
                xi, half = _cell_nodes(edges, x)
                kern = (flat[index, None, None] - a - xi ** inv) ** (-kappa)
                parts.append((index, xi[None], w * kern,
                              np.broadcast_to(half, (index.size, half.size)),
                              inv))

    def right(index, u, kern, weights, scale):
        # the near times' right halves in u = t - s, the peeled weight
        # (s-a)**(power-1) folded into the kernel factor
        ds = (flat[index, None, None] - u) - a
        parts.append((index, ds ** power,
                      weights * kern * ds ** (power - 1.0), scale, 1.0))

    index = np.flatnonzero(near & (flat == limits))
    if index.size:  # one cell with the exact Jacobi weight u**(-kappa)
        xj, wj = _jacobi_rule(int(n), -kappa, 0.0)
        half = 0.5 * (flat[index] - mid[index])
        right(index, half[:, None, None] * (xj + 1.0), 1.0, wj,
              half[:, None] ** (1.0 - kappa))
    index = np.flatnonzero(near & (flat > limits))
    for group, edges in _stretched_cells(flat[index] - limits[index],
                                         flat[index] - mid[index]):
        u, scale = _cell_nodes(edges, x)
        right(index[group], u, u ** (-kappa), w, scale)

    values = np.asarray(profile(np.concatenate(
        [part[1].ravel() for part in parts] or [np.empty(0)])), dtype=float)
    rows = values.shape[:-1]
    values = values.reshape(math.prod(rows), -1)
    out = np.zeros((values.shape[0], flat.size))
    start = 0
    for index, nodes, factor, scale, post in parts:
        piece = np.broadcast_to(
            values[:, start:start + nodes.size].reshape(
                (-1,) + nodes.shape), (values.shape[0],) + factor.shape)
        start += nodes.size
        # blocks of times hold about _BLOCK_NODES products over all rows
        step = max(1, _BLOCK_NODES // (piece.shape[0] * factor[0].size))
        for lo in range(0, index.size, step):
            block = slice(lo, lo + step)
            cells = (piece[:, block] * factor[block]).sum(axis=-1)
            out[:, index[block]] += (cells * scale[block]).sum(axis=-1) \
                * post
    out = out.reshape(rows + times.shape)
    return float(out) if out.ndim == 0 else out


def power_kernel_convolve(nodes: np.ndarray, samples: np.ndarray, times,
                          kernel_exponent: float):
    """``int (t-s)**(-kappa) * g(s) ds`` for tabulated ``g``, every ``t``.

    ``g`` is the piecewise-linear interpolant of ``samples`` on ``nodes``
    and the integral runs over the full node range, which must end at or
    before every ``t`` in ``times`` (strictly before for ``kappa >= 1``).
    Cells close to the kernel singularity use the closed-form kernel
    moments, which are stable there; cells far from it use a short Gauss
    rule, which is exact to machine accuracy at that separation and
    avoids the subtractive cancellation the moment differences would
    suffer.  The result is exact for the interpolant, so the only error
    is the interpolation error of the tabulation itself.

    ``samples`` may hold one row per density on the same nodes; the
    result then has shape ``rows + times.shape``, and 1-d ``samples``
    with a scalar ``times`` give a float.  The kernel moments and Gauss
    kernel values are formed once per block of times, holding about
    ``_BLOCK_NODES`` Gauss nodes over all rows, as (times x cells)
    arrays shared by every row.  Each cell is reduced elementwise and
    each row and time sums its own cells with one numpy sum, so a
    batched result equals the one-row, one-time result bit for bit.
    """
    nodes = np.asarray(nodes, dtype=float)
    samples = np.asarray(samples, dtype=float)
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    kappa = float(kernel_exponent)
    if nodes.ndim != 1 or nodes.size < 2:
        raise DomainError("need at least two mesh nodes")
    if samples.ndim not in (1, 2) or samples.shape[-1] != nodes.size:
        raise DomainError("samples must align with nodes, one row per "
                          "density")
    widths = np.diff(nodes)
    if np.any(widths <= 0.0):
        raise DomainError("mesh nodes must be strictly increasing")
    early = flat < nodes[-1]
    if early.any():
        raise DomainError(f"evaluation time {flat[early][0]} precedes "
                          f"the last node {nodes[-1]}")
    if not 0.0 < kappa < 2.0:
        raise DomainError(f"kernel exponent must be in (0, 2), got {kappa}")
    if kappa >= 1.0 and np.any(flat == nodes[-1]):
        raise DomainError(
            f"kernel exponent {kappa} is not integrable up to t == end")

    rows = samples.shape[:-1]
    samples = samples.reshape(-1, nodes.size)
    g0 = samples[:, None, :-1]
    slope = (np.diff(samples) / widths)[:, None]
    x, w = _legendre_rule(8)
    s, half = _cell_nodes(nodes, x)
    # the interpolant at the Gauss nodes, weights folded in: (rows, 1,
    # cells, 8)
    lin = w * (g0[..., None] + slope[..., None] * (s - nodes[:-1, None]))
    step = max(1, _BLOCK_NODES // (samples.shape[0] * s.size))
    out = np.empty((samples.shape[0], flat.size))
    for lo in range(0, flat.size, step):
        t = flat[lo:lo + step, None]
        u0 = t - nodes[:-1]
        u1 = t - nodes[1:]
        m0 = (u0 ** (1.0 - kappa) - u1 ** (1.0 - kappa)) / (1.0 - kappa)
        m1 = u0 * m0 - (u0 ** (2.0 - kappa) - u1 ** (2.0 - kappa)) \
            / (2.0 - kappa)
        gauss = half * (lin * (t[:, :, None] - s) ** (-kappa)).sum(axis=-1)
        out[:, lo:lo + step] = np.where(u1 <= 3.0 * widths,
                                        g0 * m0 + slope * m1,
                                        gauss).sum(axis=-1)
    out = out.reshape(rows + times.shape)
    return float(out) if out.ndim == 0 else out


def _kernel_antiderivatives(alpha: float, lam: np.ndarray,
                            tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second antiderivatives of the impulse response at ``tau``.

    ``IK(tau) = tau**a * E_{a,a+1}(-lam tau**a)`` integrates the kernel
    from zero and ``IK2(tau) = tau**(a+1) * E_{a,a+2}(-lam tau**a)``
    integrates ``IK``; both follow from term-by-term integration of the
    defining series and both are exactly zero at ``tau == 0``.  ``tau``
    must be non-negative.  ``lam`` is a column of eigenvalues: row ``m``
    of each result belongs to ``lam[m]``, and one ``ml_values`` call
    evaluates both functions for all rows.
    """
    power = tau ** alpha
    e1, e2 = ml_values(alpha, (alpha + 1.0, alpha + 2.0),
                       -lam[:, None] * power)
    return power * e1, tau ** (alpha + 1.0) * e2


def duhamel_convolve(alpha: float, lam, nodes: np.ndarray,
                     samples: np.ndarray, times):
    """``int_{nodes[0]}^{t} K(t-s) g(s) ds`` for every ``t`` in ``times``.

    ``K(u) = u**(alpha-1) * E_{alpha,alpha}(-lam * u**alpha)`` is the
    subdiffusive impulse response and ``g`` is known through ``samples``
    taken at ``nodes``.  Product integration against the piecewise-linear
    interpolant of the samples: the zeroth and first kernel moments of
    every cell are exact differences of the closed-form antiderivatives,
    so affine densities are integrated exactly, the kernel is never
    evaluated pointwise, and the global error is second order in the mesh
    width for twice-differentiable densities.

    ``lam`` may be a 1-d array of eigenvalues sharing the order and the
    nodes, with one row of ``samples`` each; the result then has shape
    ``lam.shape + times.shape``.  A scalar ``lam`` takes 1-d ``samples``
    and a scalar ``times`` with it gives a float.

    Each ``t`` in ``(nodes[0], nodes[-1]]`` gets the nodes below it and
    ``t`` itself, with the density interpolated there.  The meshes of
    consecutive times are laid end to end in blocks of about
    ``_BLOCK_NODES`` nodes over all rows, so memory stays bounded however
    many times and rows are asked for; one ``ml_values`` call serves each
    block.  Every cell's contribution is an elementwise expression of its
    own mesh, and each time sums its own cells with one numpy reduction
    along the row, in an order fixed by the number of cells.  So each
    result depends on its own eigenvalue, samples and ``t`` alone, bit
    for bit, whatever the other rows, times or blocks.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"kernel order must be in (0, 1), got {alpha}")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1 or (lam < 0.0).any():
        raise DomainError(
            f"modal eigenvalues must be a scalar or 1-d, all >= 0, got {lam}")
    nodes = np.asarray(nodes, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise DomainError("need at least two mesh nodes")
    if samples.shape != lam.shape + nodes.shape:
        raise DomainError("samples must align with nodes, one row per "
                          "eigenvalue")
    if (nodes[1:] - nodes[:-1] <= 0.0).any():
        raise DomainError("mesh nodes must be strictly increasing")
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    if not ((nodes[0] < flat) & (flat <= nodes[-1])).all():
        raise DomainError(
            f"evaluation times must lie in ({nodes[0]}, {nodes[-1]}]")

    rows = lam.reshape(-1)
    samples = samples.reshape(rows.size, nodes.size)
    below = np.searchsorted(nodes, flat)
    if (int(below.sum()) + flat.size) * rows.size <= _BLOCK_NODES:
        cuts = [0, flat.size]   # the common case: one block
    else:
        # a block holds the times whose meshes, over all rows, end in the
        # same multiple of the node budget, so it exceeds the budget by
        # at most one mesh per row
        block = (np.cumsum(below + 1) * rows.size - 1) // _BLOCK_NODES
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(),
                flat.size]
    parts = [_duhamel_block(alpha, rows, nodes, samples, flat[lo:hi],
                            below[lo:hi])
             for lo, hi in zip(cuts, cuts[1:])]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    out = out.reshape(lam.shape + times.shape)
    return float(out) if out.ndim == 0 else out


def _duhamel_block(alpha: float, lam: np.ndarray, nodes: np.ndarray,
                   samples: np.ndarray, flat: np.ndarray,
                   below: np.ndarray) -> np.ndarray:
    """``duhamel_convolve`` for validated times, ``below`` nodes under
    each, one row per eigenvalue; returns (rows, times)."""
    # mesh k is nodes[:below[k]] then flat[k], from starts[k] to ends[k];
    # np.interp returns a node's own sample exactly, as slicing would
    counts = below + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    ends -= 1
    pos = np.arange(counts.sum()) - np.repeat(starts, counts)
    mesh = nodes[pos]
    mesh[ends] = flat
    u = np.repeat(flat, counts) - mesh  # zero at the end of each mesh
    ik, ik2 = _kernel_antiderivatives(alpha, lam, u)
    # cell i spans [u[i+1], u[i]] in the kernel variable, width
    # h = u[i] - u[i+1]: mass is int K(u) du over it, and the weight of
    # the density's step across it is (1/h) int (u[i] - u) K(u) du, by
    # parts (ik2[i] - ik2[i+1]) / h - ik[i+1].  These and contrib are
    # formed in place, and the density only after the antiderivatives,
    # so fewer (rows x nodes) arrays are alive at once
    mass = ik[:, :-1] - ik[:, 1:]
    right_weight = ik2[:, :-1] - ik2[:, 1:]
    right_weight /= mesh[1:] - mesh[:-1]
    right_weight -= ik[:, 1:]
    density = samples[:, pos]
    density[:, ends] = [np.interp(flat, nodes, row) for row in samples]
    contrib = np.multiply(density[:, :-1], mass, out=mass)
    step = density[:, 1:] - density[:, :-1]
    step *= right_weight
    contrib += step
    out = np.empty((lam.size, flat.size))
    for k, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        out[:, k] = contrib[:, lo:hi].sum(axis=-1)
    return out


def composite_graded_integral(smooth, a: float, b: float,
                              left_exponent: float = 0.0, n_cells: int = 32,
                              grading: float = 3.0, n_gauss: int = 12) -> float:
    """``int_a^b (s-a)**p * smooth(s) ds`` on a left-graded mesh.

    The first cell is handled with an exact Jacobi weight for the endpoint
    factor; the remaining cells use plain Gauss-Legendre on the full
    integrand, which the grading keeps accurate.  ``smooth`` must act
    elementwise: it is called once, on the nodes of every cell.
    """
    p = float(left_exponent)
    if p <= -1.0:
        raise DomainError(f"left exponent must exceed -1, got {p}")
    nodes = graded_mesh(a, b, n_cells, grading)
    xj, wj = _jacobi_rule(int(n_gauss), p, 0.0)
    x, w = _legendre_rule(int(n_gauss))
    first = 0.5 * (float(nodes[1]) - float(nodes[0]))
    s, half = _cell_nodes(nodes[1:], x)
    values = np.asarray(smooth(np.concatenate(
        [nodes[0] + first * (xj + 1.0), s.ravel()])), dtype=float)
    total = first ** (p + 1.0) * float((wj * values[:xj.size]).sum())
    rest = (s - a) ** p * values[xj.size:].reshape(s.shape)
    return total + float((half * (w * rest).sum(axis=-1)).sum())
