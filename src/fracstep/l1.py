"""Independent L1 time-stepping oracle for the variable-order problem.

The L1 scheme replaces the solution by its piecewise-linear interpolant
in time and integrates the memory kernel against it exactly, which turns
the fractional derivative at ``t_m`` into a weighted sum of increments,

    D^b u(t_m) ~ sum_k b_{m-1-k} (u_{k+1} - u_k),
    b_j = ((j+1)**(1-b) - j**(1-b)) * tau**(-b) / Gamma(2-b).

At step ``m`` the exponent is the order at the *current* time ``t_m``,
so crossing a breakpoint reweights the entire history - exactly the
operator the segment recursion solves.  One grid check puts every
breakpoint on a node, so the order jumps where the schedule says.
While the order is constant the implicit steps of one scalar equation
form a lower-triangular Toeplitz system, so ``solve_mode_l1`` solves
each run of equal order with a few series products (Hairer, Lubich and
Schlichte 1985), for a whole column of eigenvalues at once.  One
product routine makes them all: it forms a product by direct sums where
the fixed cost of a transform would exceed the arithmetic and by FFT
convolution past that, and transforms a factor used twice only once.
A run that passes a power of two by a small overhang is solved as the
overhang and then the power of two, so its transforms are sized by the
power of two.  The series reciprocal of each distinct order's Toeplitz
column is computed once per call, by Newton's iteration (Kung 1974),
and one stacking test decides whether the orders share one chain.  The
finite-difference field solve ``solve_full_l1_fd`` reduces to the same
engine exactly: the discrete sine vectors diagonalize the three-point
stencil, so the sine-transformed field obeys one scalar L1 equation
per discrete mode.  The oracle uses no Mittag-Leffler value and no
quadrature, so it stays independent of the spectral construction it
cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, check_count
from .operator import GridOperator, ModalBasis
from .schedule import OrderSchedule
from .solver import ProblemSpec

__all__ = [
    "L1Grid",
    "solve_mode_l1",
    "solve_full_l1_fd",
]

#: Largest admissible distance of a breakpoint from its grid node
#: (``_grid_steps``).
ALIGNMENT_TOLERANCE = 1e-12

#: Most elements one stacked reciprocal chain holds: the orders times
#: the rows times the longest piece.  On a 2-core Xeon one chain for
#: three orders of 1,536 steps was 2.5x faster than three chains.
#: Stacking two orders whose pieces are 8,191 and 8,192 steps took a
#: one-row call from 6.4 to 6.1 ms, but moved the benchmark's L1 phase
#: by less than its spread (7 of 10 alternated runs faster).
STACK_ELEMENTS = 8192

#: A run whose steps pass a power of two by at most this share of it is
#: solved as the overhang and the power of two (``_run_pieces``).  On a
#: 2-core Xeon, one-row calls on a later run of 2**p + 2**p / 8 steps
#: were 18% (p = 11) and 42% (p = 13) faster split, and 5-14% slower at
#: p = 9 and 7; with a one-step overhang, 14% and 26% faster at p = 10
#: and 11, and 2-7% slower at p = 5 to 7.
OVERHANG_SHARE = 8

#: Outputs times terms up to which a series product is formed by direct
#: sums rather than FFTs, whatever its transform size
#: (``_series_product``).  On a 2-core Xeon, one row: a Newton pass from
#: 45 to 90 coefficients took 45 us direct against 53 us by FFT, and
#: from 64 to 128 took 74 against 56; a Toeplitz solve of 45 steps 69-76
#: against 92, of 64 steps 113-117 against 59-92.
DIRECT_TERMS = 2048


@dataclass(frozen=True)
class L1Grid:
    """Uniform time grid ``t_m = m * step`` for the L1 march."""

    step: float
    num_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise DomainError(f"step must be positive, got {self.step}")
        check_count(self.num_steps, 1, "steps")

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.num_steps + 1)

    @classmethod
    def for_schedule(cls, schedule: OrderSchedule, step: float) -> "L1Grid":
        """Grid over the schedule's horizon, every breakpoint a node."""
        step = float(step)
        if not step > 0.0:
            raise DomainError(f"step must be positive, got {step}")
        return cls(step=step, num_steps=_grid_steps(schedule, step))


def _grid_steps(schedule: OrderSchedule, step: float,
                num_steps: int | None = None) -> int:
    """Steps of ``step`` to the horizon of ``schedule``, an
    ``OrderSchedule`` whose every breakpoint, horizon included, must lie
    on a node (and the horizon on node ``num_steps``, if given); a step
    straddling a breakpoint would move the order jump to the nearest
    node.  The one grid check: anything else raises ``DomainError``."""
    if not isinstance(schedule, OrderSchedule):
        raise DomainError("schedule must be an OrderSchedule")
    for t in schedule.breakpoints:
        if abs(round(t / step) * step - t) > ALIGNMENT_TOLERANCE:
            raise DomainError(f"step {step} does not hit breakpoint {t} "
                              f"within {ALIGNMENT_TOLERANCE}")
    steps = round(schedule.horizon / step)
    if num_steps not in (None, steps):
        raise DomainError(f"grid of {num_steps} steps does not end at the "
                          f"schedule's horizon {schedule.horizon}")
    return steps


def _segment_of_step(grid: L1Grid, schedule: OrderSchedule) -> np.ndarray:
    """Schedule segment index of each grid node, order-evaluation view.

    A node on a breakpoint belongs to the segment starting there (the
    order is right-continuous); the horizon end belongs to the final
    segment.
    """
    marks = [round(t / grid.step) for t in schedule.breakpoints]
    out = np.searchsorted(np.asarray(marks), np.arange(grid.num_steps + 1),
                          side="right") - 1
    return np.minimum(out, schedule.num_segments - 1)


def _moments(orders, n: int, tau: float) -> np.ndarray:
    """Kernel moments ``b_0 .. b_{n-1}`` of the L1 sum, one row per order.

    ``b_j`` multiplies the increment ``j`` steps back from the current
    one; the moments are the exact kernel integrals of the
    piecewise-linear reconstruction, positive and decreasing.
    """
    # (j + 1)**a - j**a without cancelling: j**a expm1(a log1p(1/j)),
    # formed in each order's row
    j = np.arange(1, n, dtype=float)
    log_step = np.log1p(1.0 / j)
    out = np.empty((len(orders), n))
    out[:, 0] = 1.0
    for row, b in zip(out, orders):
        a = 1.0 - b
        diffs = np.multiply(log_step, a, out=row[1:])
        np.expm1(diffs, out=diffs)
        diffs *= j ** a
        row *= tau ** -b / math.gamma(2.0 - b)
    return out


def _series_product(a: np.ndarray, b: np.ndarray, n: int, skip: int = 0,
                    spectra: dict | None = None) -> np.ndarray:
    """Coefficients ``skip .. n-1`` of the power-series product ``a * b``.

    Coefficient ``k`` is ``sum_j a_{k-j} b_j`` over the terms of ``b``.
    The one product routine, and the one place that chooses its form.
    The FFT form is one real FFT convolution along the last axis,
    zero-padded to a power of two just long enough that the wrapped tail
    lands below ``skip``, where no coefficient is returned; it multiplies
    in place in the spectrum of ``a``.  Where the outputs times the terms
    stay within ``DIRECT_TERMS`` or that transform size, the sums are
    formed directly: ``a`` is gathered into one row per output,
    multiplied by ``b``, and the last entry of a running sum taken, so
    the terms add in a fixed order whatever the leading shape.  Calls
    that share a ``spectra`` dict multiply by one series ``b`` and
    transform it once per size and number of terms.  Rows of series
    multiply row by row; the leading axes of ``b`` must broadcast into
    those of ``a``, else numpy raises a ``ValueError``.
    """
    a, b = a[..., :n], b[..., :n]
    length, terms = a.shape[-1], b.shape[-1]
    work = (n - skip) * terms
    if work <= DIRECT_TERMS or work <= (
            size := _fft_size(length + terms - 1 - skip, n)):
        index, pad = _product_index(skip, n, length, terms)
        if pad:
            a = np.concatenate([a, np.zeros(a.shape[:-1] + (1,))], axis=-1)
        rows = np.take(a, index, axis=-1)
        rows *= b[..., None, :]
        return np.add.accumulate(rows, axis=-1, out=rows)[..., -1]
    if spectra is None:
        prod = np.fft.rfft(a, size)
        prod *= np.fft.rfft(b, size)
    else:
        key = size, terms
        if key not in spectra:
            spectra[key] = np.fft.rfft(b, size)
        prod = np.fft.rfft(a, size)
        prod *= spectra[key]
    return np.fft.irfft(prod, size)[..., skip:n]


@functools.lru_cache(maxsize=128)
def _product_index(skip: int, n: int, length: int,
                   terms: int) -> tuple[np.ndarray, bool]:
    """Where coefficient ``k - j`` of a series of ``length`` sits, for
    outputs ``k`` in ``skip .. n-1`` and terms ``j``; out-of-range
    entries point one past the end, at a zero the caller appends when
    the flag says so."""
    index = np.arange(skip, n)[:, None] - np.arange(terms)
    outside = (index < 0) | (index >= length)
    index[outside] = length
    index.flags.writeable = False   # one cached array serves every call
    return index, bool(outside.any())


def _fft_size(*lengths: int) -> int:
    """Smallest power of two that holds every length."""
    return 1 << (max(lengths) - 1).bit_length()


def _series_reciprocal(a: np.ndarray) -> np.ndarray:
    """Coefficients of ``1 / a(z)`` to the length of ``a``, ``a[0] != 0``.

    Newton's iteration ``g <- g - g (a g - 1)`` doubles the number of
    correct coefficients per pass (Kung 1974) and leaves the earlier
    ones as they are.  A pass from ``n`` to ``k`` coefficients takes the
    defect ``a g`` at ``n .. k-1`` and its product with ``g``; when both
    are FFT products they share the transform of ``g`` (five transforms
    per pass).  When the length of ``a`` is a power of two every pass
    doubles, so the first ``m`` coefficients are those of a call on
    ``a[..., :m]`` bit for bit, for every power of two ``m``.  Each row
    of ``a``, along any number of leading axes, is one series and equals
    a one-row call bit for bit.
    """
    g = np.empty(a.shape)
    np.divide(1.0, a[..., :1], out=g[..., :1])
    n = 1
    while n < a.shape[-1]:
        k = min(2 * n, a.shape[-1])
        head, spectra = g[..., :n], {}
        defect = _series_product(a, head, k, n, spectra)
        np.negative(_series_product(defect, head, k - n, 0, spectra),
                    out=g[..., n:k])
        n = k
    return g


def _toeplitz_solve(col: np.ndarray, recip: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve ``sum_{j<=k} col_j x_{k-j} = rhs_k`` for ``k < rhs.shape[-1]``.

    ``recip`` holds at least as many coefficients of ``1 / col(z)`` as
    ``rhs`` has entries.  The product with it solves the lower-triangular
    Toeplitz system; one refinement step with the residual removes most
    of the rounding, whose size follows the norms of the factors rather
    than the entries.  When the products are FFT products, both with the
    reciprocal share its transform (eight transforms per solve).  Each
    row is one system.
    """
    n, spectra = rhs.shape[-1], {}
    x = _series_product(rhs, recip, n, 0, spectra)
    residual = rhs - _series_product(col, x, n)
    return x + _series_product(residual, recip, n, 0, spectra)


def _run_pieces(start: int, stop: int) -> list[tuple[int, int]]:
    """The step ranges one run of equal order is solved in.

    A run of ``2**p + r`` steps with ``0 < r <= 2**p / OVERHANG_SHARE``
    is a leading ``r``-step piece and a ``2**p``-step piece, which
    subtracts the first piece's history like that of any earlier run;
    its chain then runs to ``2**p``, not ``2**(p+1)``, and no solve
    transform is larger than ``2**(p+1)``.  Any other run is one piece.
    """
    body = 1 << ((stop - start).bit_length() - 1)
    overhang = stop - start - body
    if 0 < overhang * OVERHANG_SHARE <= body:
        return [(start, start + overhang), (start + overhang, stop)]
    return [(start, stop)]


def solve_mode_l1(lam, f_n, schedule: OrderSchedule, u0_n,
                  grid: L1Grid) -> np.ndarray:
    """Solve mode equations with the L1 scheme; values at grid times.

    Step ``m`` is the implicit balance
    ``sum_k b_{m-1-k} (u_{k+1} - u_k) + lam u_m = f(t_m)`` with the
    moments taken at the order of the current time.  In the increments
    ``w_k = u_{k+1} - u_k`` it reads
    ``sum_k (b_{m-1-k} + lam) w_k = f(t_m) - lam u0``, so a run of steps
    with one order is a lower-triangular Toeplitz system whose column
    ``b_j + lam`` is positive and decreasing.  The moments of every
    distinct order are built once.  The orders' series reciprocals come
    from one stacked Newton chain while orders times rows times the
    longest piece stay within ``STACK_ELEMENTS``, and from one chain per
    order past that, where one large transform costs more than several
    small ones; each chain runs to a power of two, so an order's
    coefficients do not depend on whether it is stacked.  Each maximal
    run of equal order is solved in one piece, or, when it passes a power
    of two ``2**p`` by a small overhang, as the overhang and then
    ``2**p`` steps (``_run_pieces``).  For each piece the earlier steps'
    history is subtracted in one series product, and the piece's system
    is solved with its order's reciprocal cut to its length.  The values
    are ``u0`` plus the running sum of the increments, so a zero
    right-hand side gives exactly ``u0``.  A non-finite load or initial
    value, checked before any product, or a non-finite value after the
    solve raises a ``NumericError`` that names the first such row, its
    eigenvalue and the first time at which it is not finite.

    ``lam`` is one eigenvalue or a 1-d column of them; ``u0_n`` has its
    shape, and ``f_n(times)`` returns ``lam.shape + times.shape`` loads.
    Each row is solved along the last axis with the same operations as a
    one-row call, so every row equals that call bit for bit.  The result
    has shape ``lam.shape + times.shape``.
    """
    if not isinstance(grid, L1Grid):
        raise DomainError("grid must be an L1Grid")
    _grid_steps(schedule, grid.step, grid.num_steps)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise DomainError(f"eigenvalues must be a scalar or 1-d, got "
                          f"shape {lam.shape}")
    if not np.all(lam >= 0.0):
        raise DomainError(
            f"modal eigenvalue must be >= 0, got {lam[~(lam >= 0.0)][0]}")
    u0 = np.asarray(u0_n, dtype=float)
    if u0.shape != lam.shape:
        raise DomainError(f"initial values of shape {u0.shape} do not "
                          f"match eigenvalues of shape {lam.shape}")

    times = grid.times
    loads = np.asarray(f_n(times), dtype=float)
    if loads.shape != lam.shape + times.shape:
        raise DomainError("source callable must map times to one row of "
                          "loads per eigenvalue")
    # a non-finite load would spread over its piece and raise numpy
    # warnings; name its row and time before any product
    bad = ~np.isfinite(loads)
    bad[..., 0] = ~np.isfinite(u0)
    _check_finite(bad, lam, times)
    seg = _segment_of_step(grid, schedule)
    step_orders = np.asarray(schedule.orders)[seg[1:]]

    # maximal runs of equal order, as step ranges with stop exclusive,
    # each cut into the pieces it is solved in
    cuts = np.flatnonzero(step_orders[1:] != step_orders[:-1]) + 1
    edges = [0, *cuts.tolist(), grid.num_steps]
    pieces = [piece for run in zip(edges[:-1], edges[1:])
              for piece in _run_pieces(*run)]
    first_orders = step_orders[[start for start, _ in pieces]].tolist()
    orders = sorted(set(first_orders))
    piece_order = [orders.index(b) for b in first_orders]
    longest = max(stop - start for start, stop in pieces)
    stack = len(orders) * max(lam.size, 1) * longest <= STACK_ELEMENTS
    moments = _moments(orders, max(grid.num_steps, _fft_size(longest)),
                       grid.step)

    # w[..., k] = u_{k+1} - u_k, filled piece by piece.  A chain runs at
    # the first piece that needs it, to the power of two that holds its
    # longest piece, and each order's column is dropped after its last
    # piece, so a large call holds few of them at a time.
    lam_col, u0_col = lam[..., None], u0[..., None]
    rhs = loads[..., 1:] - lam_col * u0_col
    del loads   # a large call keeps one copy of the loads
    w = np.zeros(lam.shape + (grid.num_steps,))
    recips = {}
    last_piece = {o: k for k, o in enumerate(piece_order)}
    for k, ((start, stop), o) in enumerate(zip(pieces, piece_order)):
        if o not in recips:
            chain = list(range(len(orders))) if stack else [o]
            size = _fft_size(max(end - begin for (begin, end), p
                                 in zip(pieces, piece_order) if p in chain))
            cols = moments[chain, :size].reshape(
                (len(chain),) + (1,) * lam.ndim + (size,))
            recips.update(zip(chain, _series_reciprocal(cols + lam_col)))
        part = rhs[..., start:stop]
        if start > 0:
            part = part - _series_product(moments[o, :stop] + lam_col,
                                          w[..., :start], stop, skip=start)
        w[..., start:stop] = _toeplitz_solve(
            moments[o, :stop - start] + lam_col, recips[o], part)
        if last_piece[o] == k:
            del recips[o]
    u = np.concatenate([u0_col, u0_col + np.cumsum(w, axis=-1)], axis=-1)
    _check_finite(~np.isfinite(u), lam, times)
    return u


def _check_finite(bad: np.ndarray, lam: np.ndarray,
                  times: np.ndarray) -> None:
    """Raise ``NumericError`` for the first row with a ``bad`` entry,
    naming its eigenvalue and the time of its first bad entry."""
    bad = bad.reshape(-1, times.size)
    if bad.any():
        row, m = np.argwhere(bad)[0]
        eigenvalue, t = float(lam.reshape(-1)[row]), float(times[m])
        raise NumericError(f"non-finite L1 trajectory in row {row} "
                           f"(eigenvalue {eigenvalue!r}) from t = {t!r}")


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis; it is its own inverse.

    ``X_k = sqrt(2/(P+1)) sum_i x_i sin(pi i k/(P+1))`` for ``i, k`` in
    ``1 .. P``.  Entry ``k`` of the real FFT of the odd extension
    ``(0, x_1 .. x_P, 0, -x_P .. -x_1)`` has the imaginary part
    ``-2 sum_i x_i sin(pi i k/(P+1))``, so one ``rfft`` gives the whole
    transform.
    """
    p = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.fft.rfft(odd)[..., 1:p + 1].imag * -math.sqrt(0.5 / (p + 1))


def solve_full_l1_fd(spec: ProblemSpec, grid: L1Grid,
                     spatial_points: int) -> np.ndarray:
    """Full finite-difference space-time L1 solve on the tensor grid.

    Returns ``u[i, m]`` with ``i`` over all ``spatial_points + 2`` grid
    abscissae (Dirichlet rows exactly zero) and ``m`` over grid times.
    The spatial operator is the symmetric second-order stencil, whose
    orthonormal eigenvectors are the discrete sine vectors.  The L1
    equations of the whole field are therefore, exactly, one scalar L1
    equation per discrete sine mode at the stencil eigenvalue: the
    initial data and the loads at all grid times are synthesized on the
    grid (one ``ModalBasis.synthesize`` call each), sine-transformed,
    solved in one ``solve_mode_l1`` call for all modes, and transformed
    back.  No step is marched and no matrix is factored.
    """
    if not isinstance(spec, ProblemSpec):
        raise DomainError("spec must be a ProblemSpec")
    if not isinstance(grid, L1Grid):
        raise DomainError("grid must be an L1Grid")
    check_count(spatial_points, 16, "interior points")
    _grid_steps(spec.schedule, grid.step, grid.num_steps)

    op = GridOperator(spec.operator, spatial_points)
    times = grid.times

    # data synthesized from the analytic eigenfunctions: this is input
    # data, not solver output, so no spectral machinery is borrowed
    basis = ModalBasis(spec.operator, spec.num_modes)
    initial = basis.synthesize(spec.initial_coefficients, op.x)
    loads = basis.synthesize(spec.source.values(times), op.x).T
    modal = solve_mode_l1(op.eigenvalues(), lambda t: _dst(loads).T,
                          spec.schedule, _dst(initial), grid)
    out = np.zeros((spatial_points + 2, times.size))
    out[1:-1] = _dst(modal.T).T
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite L1 field")
    return out
