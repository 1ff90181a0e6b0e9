"""Quadrature rules for integrands with endpoint power singularities.

Every integral in the segment recursion has one of two shapes:

* ``int_a^b (s-a)**p * (t-s)**(-kappa) * g(s) ds`` with ``t >= b`` and
  analytic ``g``: the memory of a past segment's impulse part, for many
  times at once.  Composite Gauss in a scaled variable where ``t`` is
  well clear of ``b``; nearer, the right part of a split interval goes
  on one geometric ladder of cells toward ``b`` (Gauss-Jacobi when
  ``t == b``).
* ``int (t-s)**(-kappa) * g(s) ds`` and ``int_a^t K(t-s) * g(s) ds``,
  ``K`` the subdiffusive impulse response, for tabulated ``g``: the
  memory of a past segment's forced tail and the Duhamel convolution.
  Both are product integration of the piecewise-linear interpolant
  against exact cell moments of the kernel (Diethelm, The Analysis of
  Fractional Differential Equations, 2010), in one shared layout.

Each rule takes one row per mode, sharing every node set and kernel
factor.  Contributions are formed elementwise and reduced by numpy sums
whose order depends on the node and cell counts alone, so a batched
result equals the one-row, one-time result bit for bit.  No BLAS
product is used: BLAS fixes no summation order.  Graded meshes
concentrate nodes near an endpoint and guard against node collapse.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, check_count
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

_EXP_CELL_SPAN = 1.5  # log-span of a cell of the near right halves' ladder

#: Graded-mesh cells of each ``scaled_power_history`` scaled-variable part.
HISTORY_CELLS = 8

# blocks of times hold about this many mesh or quadrature nodes over all
# rows, so memory stays bounded (a few MB) however many times are asked for
_BLOCK_NODES = 1 << 16

# terms of each far-cell moment series of power_kernel_convolve
_FAR_TERMS = 10


@functools.lru_cache(maxsize=256)
def _jacobi_rule(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight ``(1+x)**p`` on (-1, 1).

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the three-term recurrence,
    polished by one Newton step on the orthonormal polynomial ``p_n``;
    the weights are ``mu0 / sum_{k<n} p_k(x_i)**2`` with ``p_0 = 1`` and
    ``mu0`` the weight's total mass.  Against 40-digit mpmath rules for
    n <= 48 and p in [-0.95, 1.5], nodes are within 2.2e-16 absolute and
    weights within 9.9e-14 relative (scipy's ``roots_jacobi``: 3.3e-16
    and 2.4e-11).
    """
    # the left exponent p of (s-a) becomes the (1+x) exponent after the
    # map to (-1, 1); the Jacobi recurrence's (1-x) exponent is 0
    b = float(p)
    k = np.arange(n + 1, dtype=float)
    # diagonal b**2 / (m (m+2)) with m = 2k+b; at k = 0 the b/m factor
    # is 1, written out so that b == 0 never divides by 0
    m = 2.0 * k[:n] + b
    diag = (np.where(k[:n] == 0, b, b * b)
            / (np.where(k[:n] == 0, 1.0, m) * (m + 2.0)))
    # squared off-diagonal 4 k**2 (k+b)**2 / (m**2 (m+1)(m-1)) for
    # k = 1..n; at k = 1 the (k+b)/(m-1) factor is 1, so p == -1
    # never divides by 0 either
    k = k[1:]
    m = 2.0 * k + b
    off2 = (4.0 * k * k * (k + b) * np.where(k == 1, 1.0, k + b)
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
    mu0 = math.exp((b + 1.0) * math.log(2.0) + math.lgamma(b + 1.0)
                   - math.lgamma(b + 2.0))
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
    distinct in double precision.  ``n`` is an integer of at least 1.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise DomainError(f"need a finite interval with a < b, got [{a}, {b}]")
    check_count(n, 1, "mesh cells")
    if grading < 1.0:
        raise DomainError(f"grading must be >= 1, got {grading}")

    if n > 1:
        # n**(-r) >= MIN_CELL_FRACTION  <=>  r <= log(1/frac) / log(n)
        grading = min(grading, math.log(1.0 / MIN_CELL_FRACTION) / math.log(n))
    frac = (np.arange(n + 1) / n) ** grading
    nodes = a + (b - a) * frac
    nodes[0], nodes[-1] = a, b
    return nodes


def _cell_nodes(edges: np.ndarray, x: np.ndarray):
    """Gauss nodes ``mid + half * x`` of the cells along ``edges``' last
    axis, one row per cell."""
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * x, half


def _times(times):
    """Float ``times`` and their flat view, each of them finite."""
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        raise DomainError(f"evaluation time {flat[~finite][0]} is not finite")
    return times, flat


def _exponents(kernel_exponent, times, at_end, end: str):
    """Kernel exponents, one per time of ``times`` (flat), each in (0, 2)
    and below 1 where ``at_end`` marks a time on the integral's ``end``;
    and their distinct values as floats."""
    kappa = np.asarray(kernel_exponent, dtype=float)
    bad = ~((0.0 < kappa) & (kappa < 2.0))   # NaN fails both
    if bad.any():
        raise DomainError(
            f"kernel exponent must be in (0, 2), got {kappa[bad][0]}")
    distinct = sorted(set(kappa.ravel().tolist()))
    kappa = np.broadcast_to(kappa, times.shape).reshape(-1)
    heavy = at_end & (kappa >= 1.0)
    if heavy.any():
        raise DomainError(f"kernel exponent {kappa[heavy][0]} is not "
                          f"integrable up to t == {end}")
    return kappa, distinct


def scaled_power_history(profile, a: float, b, times, kernel_exponent,
                         power: float, n: int = 24):
    """Memory integral of a fractional impulse response shape.

    Computes ``int_a^b (t-s)**(-kappa) * (s-a)**(power-1)
    * profile((s-a)**power) ds`` for every ``t`` in ``times``, with
    analytic ``profile`` (typically a Mittag-Leffler factor), whose
    argument gives the integrand a branch point at ``s = a`` that stalls
    a plain Jacobi rule.  Substituting ``w = (s-a)**power`` absorbs the
    weight and the branch: ``(1/power) int_0^{(b-a)**power} (t - a -
    w**(1/power))**(-kappa) profile(w) dw``.  Composite Gauss on a mildly
    left-graded mesh of ``HISTORY_CELLS`` cells (``w**(1/power)`` has
    limited smoothness at zero) integrates this to near machine accuracy
    for ``t - b >= FAR_FIELD_FRACTION * (b - a)``.  Nearer to ``b`` the
    integral is split at the midpoint: the left half is done the same
    way, the right half in ``e = b - s``, where the peeled weight is
    smooth and the kernel is ``(t - b + e)**(-kappa)``.  Each limit has
    one geometric ladder of rungs ``e_k = (b - mid) exp(-k *
    _EXP_CELL_SPAN)``; a time at ``t - b = delta`` takes Gauss cells
    between the rungs down to ``e_K``, the first at or below ``delta``,
    and one closing cell ``[0, e_K]``, so the kernel's singularity stays
    at least ``(r + 1) / (r - 1)`` half-widths (``r = exp(
    _EXP_CELL_SPAN)``) from every cell's centre.  At ``t == b`` the
    right half is one cell with the exact Jacobi weight ``u**(-kappa)``
    in ``u = t - s``.

    ``b`` and ``kernel_exponent`` are each one value for every time or
    an array that broadcasts against ``times``: a limit ``a < b <= t``
    and an exponent in (0, 2), below 1 where ``t == b``.  Times that
    share a limit share its far-field and left-half node sets whatever
    their exponents, so a scalar ``b`` builds one of each for all times,
    and near times above it that stop at the same rung share that
    rung's right half: one node set, profile evaluation and peeled
    weight, each time applying its own kernel factor.  A time at
    ``t == b`` takes one Jacobi cell per exponent.  ``n``, the nodes of
    each Gauss rule, is an integer of at least 1.

    ``profile`` must act elementwise; it is called once, on every node
    set together.  It may return one row per integrand, for example one
    per eigenvalue; the result then has shape ``rows + times.shape`` (a
    float for a 1-d profile and a scalar ``times``, empty for an empty
    ``times``).  Each part is summed along the nodes of each cell, then
    along the cells, so each row and time equals its call alone, with a
    scalar limit and exponent, bit for bit.
    """
    a = float(a)
    power = float(power)
    times, flat = _times(times)
    b = np.asarray(b, dtype=float)
    if not (a < b).all():   # NaN fails too
        raise DomainError(f"need a < b, got [{a}, {b[~(a < b)][0]}]")
    limits = np.broadcast_to(b, times.shape).reshape(-1)
    early = flat < limits
    if early.any():
        raise DomainError(f"evaluation time {flat[early][0]} precedes its "
                          f"upper limit {limits[early][0]}")
    kappa, exponents = _exponents(kernel_exponent, times, flat == limits,
                                  "b")
    if not 0.0 < power < 1.0:
        raise DomainError(f"power must be in (0, 1), got {power}")
    check_count(n, 1, "quadrature nodes")

    def kernel(base, index):
        # base ** -kappa, row i of base at time index[i], one float power
        # per exponent: numpy takes some float powers as sqrt or
        # reciprocal, which pow need not equal bit for bit
        if len(exponents) == 1:
            return base ** -exponents[0]
        here = kappa[index]
        if (here == here.flat[0]).all():
            return base ** -float(here.flat[0])
        # C order, whatever the base's, so the node sums follow the layout
        out = np.empty(base.shape)
        for k in exponents:
            mask = here == k
            out[mask] = base[mask] ** -k
        return out

    inv = 1.0 / power
    x, w = _legendre_rule(n)
    near = flat - limits < FAR_FIELD_FRACTION * (limits - a)

    # parts (times, profile nodes, kernel factor with the Gauss weights
    # and any peeled weight folded in, cell half-widths, final factor),
    # each node set shared by times of one limit b: in the scaled
    # variable [a, b] for far times and [a, mid] for near ones, in
    # e = b - s one per rung of b's ladder
    parts = []
    for lim in sorted(set(b.ravel().tolist())):
        mid = 0.5 * (a + lim)
        mine = limits == lim
        for s_hi, here in ((lim, ~near), (mid, near)):
            index = np.flatnonzero(here & mine)
            if index.size:
                edges = graded_mesh(0.0, (s_hi - a) ** power, HISTORY_CELLS,
                                    3.0)
                xi, half = _cell_nodes(edges, x)
                kern = kernel(flat[index, None, None] - a - xi ** inv, index)
                parts.append((index, xi[None], w * kern,
                              np.broadcast_to(half, (index.size, half.size)),
                              inv))
        # near times above b by delta: a time's cells, and so its nodes,
        # depend on its rung K alone; its kernel base is delta + e, as
        # t - s would lose digits at small delta
        index = np.flatnonzero(near & (flat > lim) & mine)
        delta = flat[index] - lim
        rung = np.maximum(1, np.ceil(np.log((lim - mid) / delta)
                                     / _EXP_CELL_SPAN)).astype(int)
        for k in sorted(set(rung.tolist())):
            on = rung == k
            here = index[on]
            e, half = _cell_nodes(np.append(0.0, (lim - mid) * np.exp(
                np.arange(-k, 1) * _EXP_CELL_SPAN)), x)
            ds = (lim - a) - e
            kern = kernel(delta[on, None, None] + e, here)
            parts.append((here, ds[None] ** power,
                          w * kern * ds ** (power - 1.0),
                          np.broadcast_to(half, (here.size, k + 1)), 1.0))

    # t == b: one cell in u = t - s with the exact Jacobi weight
    # u**(-kappa) per exponent, the peeled weight in the kernel factor
    at_b = near & (flat == limits)
    for k in exponents:
        index = np.flatnonzero(at_b & (kappa == k))
        if index.size:
            xj, wj = _jacobi_rule(n, -k)
            half = 0.5 * (flat[index] - 0.5 * (a + limits[index]))
            ds = (flat[index, None, None] - half[:, None, None]
                  * (xj + 1.0)) - a
            parts.append((index, ds ** power, wj * ds ** (power - 1.0),
                          half[:, None] ** (1.0 - k), 1.0))

    values = np.asarray(profile(np.concatenate(
        [part[1].ravel() for part in parts] or [np.empty(0)])), dtype=float)
    rows = values.shape[:-1]
    values = values.reshape(math.prod(rows), values.shape[-1])
    out = np.zeros((values.shape[0], flat.size))
    start = 0
    for index, nodes, factor, scale, post in parts:
        piece = np.broadcast_to(
            values[:, start:start + nodes.size].reshape(
                (-1,) + nodes.shape), (values.shape[0],) + factor.shape)
        start += nodes.size
        # blocks of about _BLOCK_NODES products over all (or one) rows
        step = max(1, _BLOCK_NODES // (max(1, len(piece)) * factor[0].size))
        for lo in range(0, len(index), step):
            block = slice(lo, lo + step)
            cells = (piece[:, block] * factor[block]).sum(axis=-1)
            out[:, index[block]] += (cells * scale[block]).sum(axis=-1) \
                * post
    out = out.reshape(rows + times.shape)
    return float(out) if out.ndim == 0 else out


def _product_integrate(moments, nodes: np.ndarray, samples: np.ndarray,
                       flat: np.ndarray, below: np.ndarray, last=None,
                       last_samples=None) -> np.ndarray:
    """Product integration of piecewise-linear densities, every time at once.

    Time ``flat[k]``'s mesh is ``nodes[:below[k] + 1]``, with the last
    node and its ``samples`` (rows, nodes) replaced by ``last[k]`` and
    ``last_samples[:, k]`` if given.  ``moments(u, h)`` maps ``u = t - s``
    at the nodes and the widths ``h`` to each cell's mass ``int K(u) du``
    and right weight ``(1/h) int (u[i] - u) K(u) du`` over ``[u[i+1],
    u[i]]``, shared by every row or one row each.  Cell ``i`` adds ``g_i
    mass_i + (g_{i+1} - g_i) right_weight_i``.  Returns (rows, times).

    The meshes lie end to end in blocks of about ``_BLOCK_NODES`` nodes
    over all rows, one ``moments`` call each; a block of one time slices
    its mesh and samples.  One ``np.add.reduceat`` per block sums each
    mesh's cells, and apart from them the cell that bridges two meshes,
    in an order fixed by the cell count: each result depends on its own
    row and ``t`` alone, bit for bit.
    """
    rows = samples.shape[0]
    if not flat.size or not rows:
        return np.empty((rows, flat.size))
    counts = below + 1
    if int(counts.sum()) * rows <= _BLOCK_NODES:
        cuts = [0, flat.size]   # the common case: one block
    else:
        # a block's meshes, over all rows, end in one multiple of the
        # budget, which it exceeds by at most one mesh per row
        block = (np.cumsum(counts) * rows - 1) // _BLOCK_NODES
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(),
                flat.size]
    out = np.empty((rows, flat.size))
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo == 1:   # one time: slices, one sum and no bridge
            n = int(below[lo])
            mesh, density = nodes[:n + 1], samples[:, :n + 1]
            if last is not None:
                mesh = np.concatenate((nodes[:n], last[lo:hi]))
                density = np.concatenate(
                    (samples[:, :n], last_samples[:, lo:hi]), axis=1)
            u = flat[lo] - mesh
            bounds = [0]
        else:
            ends = np.cumsum(counts[lo:hi])
            starts = ends - counts[lo:hi]
            ends -= 1
            pos = np.arange(ends[-1] + 1) - np.repeat(starts, counts[lo:hi])
            mesh = nodes[pos]
            density = samples[:, pos]
            if last is not None:
                mesh[ends] = last[lo:hi]
                density[:, ends] = last_samples[:, lo:hi]
            u = np.repeat(flat[lo:hi], counts[lo:hi]) - mesh
            bounds = np.empty(2 * starts.size - 1, dtype=int)
            bounds[0::2], bounds[1::2] = starts, ends[:-1]  # odd: bridges
        mass, right_weight = moments(u, mesh[1:] - mesh[:-1])
        # density is F-ordered, as is a product of it formed without
        # out=, and reduceat along the rows of an F-ordered array sums in
        # an order that changes with the row count: contrib is C-ordered
        contrib = np.subtract(density[:, 1:], density[:, :-1],
                              out=np.empty((rows, mesh.size - 1)))
        contrib *= right_weight
        contrib += density[:, :-1] * mass
        out[:, lo:hi] = np.add.reduceat(contrib, bounds, axis=1)[:, ::2]
    return out


def _tabulation(nodes, samples: np.ndarray, rows: tuple):
    """Float ``nodes``, and ``samples`` (``rows + nodes.shape``) 2-d."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise DomainError("need at least two mesh nodes")
    if samples.shape != rows + nodes.shape:
        raise DomainError("samples must align with nodes, one row per "
                          "density")
    if (nodes[1:] - nodes[:-1] <= 0.0).any():
        raise DomainError("mesh nodes must be strictly increasing")
    return nodes, samples.reshape(-1, nodes.size)


@functools.lru_cache(maxsize=64)
def _far_series(kappa: float) -> np.ndarray:
    """Moment series of ``u**(-kappa)`` about a cell midpoint ``m``.

    ``(m (1+y))**(-kappa) = m**(-kappa) sum_j C(-kappa, j) y**j``; over
    ``|y| <= rho`` the even terms give ``A = sum_i C(-kappa, 2i) x**i /
    (2i+1)`` and the odd ones ``B = sum_i C(-kappa, 2i+1) x**i / (2i+3)``,
    ``x = rho**2``.  ``|C(-kappa, j)| <= j + 1`` for ``kappa < 2``, so at
    ``rho < 1/7`` the truncation is below ``49**-_FAR_TERMS``.  Pair ``k``
    of the result holds the ``x**(2k)``, ``x**(2k+1)`` terms of A and B.
    """
    binomial = [1.0]
    for j in range(2 * _FAR_TERMS - 1):
        binomial.append(binomial[-1] * (-kappa - j) / (j + 1))
    i = np.arange(_FAR_TERMS)
    coef = np.array([binomial[0::2] / (2 * i + 1),
                     binomial[1::2] / (2 * i + 3)]).T.reshape(-1, 2, 2, 1)
    coef.setflags(write=False)   # one cached array serves every call
    return coef


def power_kernel_convolve(nodes: np.ndarray, samples: np.ndarray, times,
                          kernel_exponent):
    """``int (t-s)**(-kappa) * g(s) ds`` for tabulated ``g``, every ``t``.

    ``g`` is the piecewise-linear interpolant of ``samples`` on ``nodes``
    and the integral runs over the full node range, which must end at or
    before every ``t`` in ``times`` (strictly before for ``kappa >= 1``).
    ``kernel_exponent`` is one exponent in (0, 2) or an array of them
    that broadcasts against ``times``; the times of each exponent take
    one product integration with its moments.  The result is exact for
    the interpolant.  Cells within three widths of the singularity take
    the closed-form moments; on farther cells those differences cancel,
    so they sum the series of ``_far_series``, whose terms all add.  The
    moments are shared by every row.

    ``samples`` may hold one row per density; the result then has shape
    ``rows + times.shape``, and 1-d ``samples`` with a scalar ``times``
    give a float.  Rows and times equal their one-row, one-time calls
    with a scalar exponent bit for bit (``_product_integrate``).
    """
    samples = np.asarray(samples, dtype=float)
    rows = samples.shape[:-1][:1]   # a 3-d array fails the alignment
    nodes, samples = _tabulation(nodes, samples, rows)
    times, flat = _times(times)
    early = flat < nodes[-1]
    if early.any():
        raise DomainError(f"evaluation time {flat[early][0]} precedes "
                          f"the last node {nodes[-1]}")
    per_time, exponents = _exponents(kernel_exponent, times,
                                     flat == nodes[-1], "end")

    def moments(kappa, u, h):
        # every cell takes the series first: mass = 2 rho m**(1-kappa) A
        # and right weight = rho m**(1-kappa) (A - rho B), rho = h / 2m
        # below 1/7 once u_near > 3h; the bridges (h < 0) stay finite
        coef = _far_series(kappa)
        u_far, u_near = u[:-1], u[1:]
        span = u_far + u_near
        rho = h / span
        x = rho * rho
        pairs = coef[:, 0] + coef[:, 1] * x   # Horner in x**2 over pairs
        x *= x
        even, odd = series = pairs[-1]
        for pair in pairs[-2::-1]:
            series *= x
            series += pair
        scale = (0.5 * span) ** (1.0 - kappa)
        scale *= rho
        mass = 2.0 * scale * even
        odd *= rho
        right_weight = np.subtract(even, odd, out=even)
        right_weight *= scale
        # cells within three widths, u_near == 0 among them: closed forms.
        # (pa - pb) / (1 - kappa) cancels near kappa = 1, so where b > 0
        # the mass is pb L exprel((1 - kappa) L), L = log(a / b)
        near = (u_near <= 3.0 * h).nonzero()[0]
        a, b = u_far[near], u_near[near]
        pa, pb = a ** (1.0 - kappa), b ** (1.0 - kappa)
        inner = b > 0.0
        m0 = np.divide(pa, 1.0 - kappa, out=np.empty_like(a), where=~inner)
        log_ratio = np.log(a[inner] / b[inner])
        x = (1.0 - kappa) * log_ratio
        m0[inner] = pb[inner] * log_ratio * np.divide(
            np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
        mass[near] = m0
        right_weight[near] = (a * m0 - (a * pa - b * pb) / (2.0 - kappa)) \
            / h[near]
        return mass, right_weight

    out = np.empty((samples.shape[0], flat.size))
    for k in exponents:
        here = per_time == k if len(exponents) > 1 else slice(None)
        part = flat[here]
        out[:, here] = _product_integrate(
            functools.partial(moments, k), nodes, samples, part,
            np.full(part.size, nodes.size - 1))
    out = out.reshape(rows + times.shape)
    return float(out) if out.ndim == 0 else out


def duhamel_convolve(alpha: float, lam, nodes: np.ndarray,
                     samples: np.ndarray, times):
    """``int_{nodes[0]}^{t} K(t-s) g(s) ds`` for every ``t`` in ``times``.

    ``K(u) = u**(alpha-1) * E_{alpha,alpha}(-lam * u**alpha)`` is the
    subdiffusive impulse response; ``g`` is the piecewise-linear
    interpolant of ``samples`` on ``nodes``, cut at each ``t`` in
    ``(nodes[0], nodes[-1]]``.  The cell moments are exact differences of
    the closed-form antiderivatives, one ``ml_values`` call per block of
    times, so affine densities are integrated exactly and the error is
    second order in the mesh width for smooth densities.

    ``lam`` may be a 1-d array of eigenvalues with one row of ``samples``
    each; the result then has shape ``lam.shape + times.shape``.  A
    scalar ``lam`` takes 1-d ``samples``, and with a scalar ``times``
    gives a float.  Rows and times equal their one-row, one-time calls
    bit for bit (``_product_integrate``).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"kernel order must be in (0, 1), got {alpha}")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise DomainError(
            f"modal eigenvalues must be a scalar or 1-d, got {lam.ndim}-d")
    bad = np.flatnonzero(~(np.isfinite(lam) & (lam >= 0.0)))   # NaN too
    if bad.size:
        raise DomainError(f"modal eigenvalue {lam.flat[bad[0]]} (row "
                          f"{bad[0]}) must be finite and >= 0")
    nodes, samples = _tabulation(nodes, np.asarray(samples, dtype=float),
                                 lam.shape)
    times, flat = _times(times)
    outside = ~((nodes[0] < flat) & (flat <= nodes[-1]))
    if outside.any():
        raise DomainError(f"evaluation time {flat[outside][0]} outside "
                          f"({nodes[0]}, {nodes[-1]}]")
    out = _duhamel(alpha, lam.reshape(-1, 1), nodes, samples,
                   flat).reshape(lam.shape + times.shape)
    return float(out) if out.ndim == 0 else out


def _duhamel(alpha: float, column: np.ndarray, nodes: np.ndarray,
             samples: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """:func:`duhamel_convolve` on checked arrays, eigenvalues as a column
    and 1-d times, to (rows, times); the solver's sampling calls it."""

    def moments(u, h):
        # IK(u) = u**a E_{a,a+1}(-lam u**a) integrates the kernel from 0
        # and IK2(u) = u**(a+1) E_{a,a+2}(-lam u**a) integrates IK (term
        # by term in the series), both 0 at u = 0, from one ml_values
        # call; formed in place, so fewer (rows x nodes) arrays are alive
        power = u ** alpha
        ik, ik2 = ml_values(alpha, (alpha + 1.0, alpha + 2.0),
                            -column * power)
        ik *= power
        ik2 *= u ** (alpha + 1.0)
        mass = ik[:, :-1] - ik[:, 1:]
        right_weight = ik2[:, :-1] - ik2[:, 1:]
        right_weight /= h
        right_weight -= ik[:, 1:]
        return mass, right_weight

    # np.interp returns a node's own sample exactly, as slicing would
    return _product_integrate(
        moments, nodes, samples, flat, nodes.searchsorted(flat), flat,
        np.array([np.interp(flat, nodes, row) for row in samples]))


def composite_graded_integral(smooth, a: float, b: float,
                              left_exponent: float = 0.0, n_cells: int = 32,
                              grading: float = 3.0, n_gauss: int = 12) -> float:
    """``int_a^b (s-a)**p * smooth(s) ds`` on a left-graded mesh.

    The first cell is handled with an exact Jacobi weight for the endpoint
    factor; the remaining cells use plain Gauss-Legendre on the full
    integrand, which the grading keeps accurate.  ``smooth`` must act
    elementwise: it is called once, on the nodes of every cell.
    ``n_cells`` and ``n_gauss`` are integers of at least 1.
    """
    p = float(left_exponent)
    if p <= -1.0:
        raise DomainError(f"left exponent must exceed -1, got {p}")
    check_count(n_gauss, 1, "quadrature nodes")
    nodes = graded_mesh(a, b, n_cells, grading)
    xj, wj = _jacobi_rule(n_gauss, p)
    x, w = _legendre_rule(n_gauss)
    first = 0.5 * (float(nodes[1]) - float(nodes[0]))
    s, half = _cell_nodes(nodes[1:], x)
    values = np.asarray(smooth(np.concatenate(
        [nodes[0] + first * (xj + 1.0), s.ravel()])), dtype=float)
    total = first ** (p + 1.0) * float((wj * values[:xj.size]).sum())
    rest = (s - a) ** p * values[xj.size:].reshape(s.shape)
    return total + float((half * (w * rest).sum(axis=-1)).sum())
