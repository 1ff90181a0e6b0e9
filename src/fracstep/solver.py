"""Segment recursion for diffusion with a piecewise-constant time order.

Expanding in the operator's eigenbasis decouples the problem into scalar
fractional relaxation equations, one per mode.  On each segment of the
order schedule the mode obeys a constant-order equation whose effective
load is the physical load minus the weighted memory of all earlier
segments; its solution is the classical two-term form
``entry * E_{b,1}(-lam dt**b) + int K_b(t - s) * effective_load(s) ds``
with ``dt = t - t_j`` and ``K_b`` the impulse response of order ``b``.
The identity ``E_{b,1}(-x) = 1 - x * E_{b,b+1}(-x)`` folds the
relaxation into the convolution:

    value(t) = entry + int K_b(t - s) * (effective_load(s) - lam * entry) ds.

This form makes steady states exact: a load equal to ``lam * entry`` is a
zero density, so the value is ``entry`` bit for bit, not two rounded
terms that cancel.  The recursion per segment does three things:

* assemble the effective load on a graded mesh by subtracting the memory
  integrals of earlier segments from the physical load;
* hand the exit value to the next segment, which makes the composite
  trajectory continuous by construction;
* tabulate the time derivative through its own closed formula, an
  impulse term plus a forced tail, never by differencing values.  The
  derivative is what later segments integrate against their memory
  kernels, and its leading blow-up ``(s - t_j)**(b-1)`` as well as the
  memory rate's ``(s - t_j)**(-b)`` are peeled off analytically so that
  all quadratures see smooth factors only.

The solved field is stored as it is built and read: one :class:`Segment`
record per schedule segment, holding one row per live mode (a mode
with zero data and no forcing stays zero and has none) in each of its
arrays.  Every evaluator takes a record and a selection of rows and
works on those arrays directly.  The load is one
:class:`SeparableSource`, a time profile times a vector of modal
coefficients, sampled for every mode in one array call; its ``forced``
mask marks the modes with a nonzero coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError, check_count
from .operator import ModalBasis, OperatorSpec
from .quadrature import (
    _duhamel,
    _times,
    duhamel_convolve,
    graded_mesh,
    power_kernel_convolve,
    scaled_power_history,
)
from .schedule import OrderSchedule
from .special import ml_values

__all__ = [
    "SeparableSource",
    "ProblemSpec",
    "Segment",
    "SolutionField",
    "solve",
]

#: Mesh cells per segment and nodes per singular quadrature rule.
DEFAULT_CELLS = 256
DEFAULT_QUAD = 32
_MESH_GRADING = 4.0


class SeparableSource:
    """Load of the form ``time_value(t) * sum_n coefficients[n] X_n(x)``.

    Every load the package takes is one time profile times a vector of
    modal coefficients; no forcing is a zero vector.  ``time_value`` and
    ``time_derivative`` map a time array to an array of its shape; the
    derivative must be the exact derivative of the value profile, since
    it feeds the closed-form derivative of the solution and is never
    replaced by a finite difference.
    """

    def __init__(self, coefficients, time_value, time_derivative):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size < 1 or not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be a finite 1-d sequence")
        self.coefficients = c
        self.num_modes = c.size
        #: modes with a nonzero coefficient; the others are unforced
        self.forced = c != 0.0
        self.time_value = time_value
        self.time_derivative = time_derivative

    def _profile(self, name: str, times) -> np.ndarray:
        """The profile ``name`` at ``times``, checked to keep their shape."""
        t = np.asarray(times, dtype=float)
        p = np.asarray(getattr(self, name)(t), dtype=float)
        if p.shape != t.shape:
            raise DomainError(f"{name} returned shape {p.shape} for "
                              f"times of shape {t.shape}")
        return p

    def values(self, times) -> np.ndarray:
        """Modal load coefficients at ``times``: one profile call, one row
        per mode, then the shape of ``times``."""
        return np.multiply.outer(self.coefficients,
                                 self._profile("time_value", times))

    def derivatives(self, times) -> np.ndarray:
        """Exact time derivatives of :meth:`values`, shaped alike."""
        return np.multiply.outer(self.coefficients,
                                 self._profile("time_derivative", times))

    def mode_values(self, n: int, times) -> np.ndarray:
        """Row ``n - 1`` of :meth:`values`, bit for bit, for the mode
        ``n``, an integer in ``[1, num_modes]``; kept for the benchmark
        worker in ``perfbench/worker.py``, which samples the load mode by
        mode."""
        check_count(n, 1, "mode index")
        if n > self.num_modes:
            raise DomainError(
                f"mode index {n} outside [1, {self.num_modes}]")
        return self.coefficients[n - 1] * self._profile("time_value", times)


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that defines one initial-boundary value problem.

    ``initial_coefficients`` are the modal coefficients of the initial
    state; their length fixes the number of modes carried throughout.
    A ``source`` of ``None`` becomes a :class:`SeparableSource` with zero
    coefficients.
    ``regularity_margins`` hold one exponent reserve per segment, each in
    ``(0, 1 - order)``; they parameterize how close to the worst case the
    load derivative is allowed to blow up at the segment start and
    default to half the available room.
    """

    schedule: OrderSchedule
    operator: OperatorSpec
    initial_coefficients: tuple[float, ...]
    source: SeparableSource | None = None
    regularity_margins: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.schedule, OrderSchedule):
            raise DomainError("schedule must be an OrderSchedule")
        if not isinstance(self.operator, OperatorSpec):
            raise DomainError("operator must be an OperatorSpec")
        coeffs = tuple(float(c) for c in self.initial_coefficients)
        object.__setattr__(self, "initial_coefficients", coeffs)
        if len(coeffs) < 1:
            raise DomainError("need at least one initial mode coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("initial coefficients must be finite")
        if self.source is None:
            object.__setattr__(self, "source", SeparableSource(
                np.zeros(len(coeffs)), np.zeros_like, np.zeros_like))
        if not isinstance(self.source, SeparableSource):
            raise DomainError("source must be a SeparableSource")
        if self.source.num_modes != len(coeffs):
            raise DomainError(
                f"source carries {self.source.num_modes} modes, "
                f"expected {len(coeffs)}")
        orders = self.schedule.orders
        if self.regularity_margins is None:
            margins = tuple(0.5 * (1.0 - b) for b in orders)
        else:
            margins = tuple(float(e) for e in self.regularity_margins)
            if len(margins) != len(orders):
                raise DomainError(
                    f"got {len(margins)} margins for {len(orders)} segments")
            for e, b in zip(margins, orders):
                if not 0.0 < e < 1.0 - b:
                    raise DomainError(
                        f"margin {e} outside (0, {1.0 - b:g}) for order {b}")
        object.__setattr__(self, "regularity_margins", margins)

    @property
    def num_modes(self) -> int:
        return len(self.initial_coefficients)


@dataclass(frozen=True, eq=False)
class Segment:
    """Every live mode's solution on one segment of the order schedule.

    One row per live mode, in mode order, in each row array; the mesh is
    shared.  ``density`` is the effective load minus ``eigenvalue *
    entry``, the integrand of :func:`_values`.  The exit values and
    derivatives are evaluated from the rest of the record, so they are
    filled in last.
    """

    order: float
    start: float
    end: float
    nodes: np.ndarray              # graded sample mesh, nodes[0] == start
    eigenvalues: np.ndarray
    entry_values: np.ndarray
    density: np.ndarray            # one row of node samples per mode
    tails: np.ndarray              # forced part of the derivative
    exit_values: np.ndarray | None = None
    exit_derivatives: np.ndarray | None = None

    @property
    def impulse_strengths(self) -> np.ndarray:
        """Coefficients of the derivative's ``(t - start)**(order - 1)``
        blow-up: the density at the segment start."""
        return self.density[:, 0]

    def impulse_profile(self, rows, xi):
        """The impulse part of the derivative of ``rows`` over ``(t -
        start)**(order - 1)``, at ``xi = (t - start)**order``."""
        return self.impulse_strengths[rows, None] * ml_values(
            self.order, self.order, -self.eigenvalues[rows, None] * xi)


def _values(seg: Segment, rows, t: np.ndarray) -> np.ndarray:
    """Values of the modes in ``rows`` of one schedule segment.

    ``rows`` is a slice or a list of row indices.  Evaluated as ``entry +
    int K(t - s) * density(s) ds`` with one ``quadrature._duhamel`` call
    for all rows, each of which depends on its own mode alone, bit for bit.
    The convolution integrates affine densities exactly, so a steady
    state, whose density is zero, returns ``entry`` exactly.  Valid on
    the closed segment; the result has one row per selected mode, then
    the shape of ``t``.
    """
    flat = t.reshape(-1)
    inside = (seg.start <= flat) & (flat <= seg.end)
    if not inside.all():
        raise DomainError(f"time {flat[~inside][0]} outside segment "
                          f"[{seg.start}, {seg.end}]")
    entry = seg.entry_values[rows, None]
    later = flat > seg.start
    if later.all():   # the common case needs no mask
        out = entry + _duhamel(seg.order, seg.eigenvalues[rows, None],
                               seg.nodes, seg.density[rows], flat)
    else:   # a time at the start takes its entry value alone
        out = np.repeat(entry, flat.size, axis=1)
        out[:, later] = _values(seg, rows, flat[later])
    return out.reshape(entry.shape[:1] + t.shape)


def _derivatives(seg: Segment, rows, t: np.ndarray) -> np.ndarray:
    """Closed-form time derivatives of the modes in ``rows`` of a segment.

    The impulse part carries the exact ``(t - start)**(order - 1)``
    blow-up, with one ``ml_values`` call for all rows; the forced tail is
    interpolated from its tabulation.  Valid on the half-open segment:
    the start is rejected because the derivative is unbounded there
    whenever the impulse strength is nonzero.  Shaped as :func:`_values`.
    """
    flat = t.reshape(-1)
    inside = (seg.start < flat) & (flat <= seg.end)
    if not inside.all():
        raise DomainError(f"time {flat[~inside][0]} outside half-open "
                          f"segment ({seg.start}, {seg.end}]")
    lam = seg.eigenvalues[rows]
    dt = flat - seg.start
    impulse = seg.impulse_strengths[rows, None] * dt ** (seg.order - 1.0) \
        * ml_values(seg.order, seg.order, -lam[:, None] * dt ** seg.order)
    tails = seg.tails[rows]   # all zero on an unforced first segment
    tail = [np.interp(flat, seg.nodes, row) for row in tails] \
        if tails.any() else 0.0   # the 0.0 that np.interp would add
    return (impulse + tail).reshape(lam.shape + t.shape)


def _memory(seg: Segment, times: np.ndarray, kernel_exponent,
            n_quad: int) -> np.ndarray:
    """Memory kernel applied to every mode's derivative on a past segment.

    The result has one row per mode of ``seg`` and one column per time;
    ``kernel_exponent`` is one exponent or one per time.  The impulse
    part is ``strength * (s - start)**(order - 1)`` times a
    Mittag-Leffler factor whose argument scales like ``(s - start)**
    order``; the scaled-variable rule resolves that combination exactly,
    with one profile evaluation for all rows and times.  The tabulated
    forced tails go through one ``power_kernel_convolve`` call.  Rows
    with a zero impulse strength skip the impulse part, and unforced
    rows, whose tails are exactly zero, skip the tail.  Each row and
    time equals a call with that mode, time and exponent alone, bit for
    bit.
    """
    out = np.zeros((seg.eigenvalues.size, times.size))
    forced = seg.tails.any(axis=1)
    if forced.any():
        out[forced] = power_kernel_convolve(seg.nodes, seg.tails[forced],
                                            times, kernel_exponent)
    hit = seg.impulse_strengths != 0.0
    if hit.any():
        out[hit] += scaled_power_history(
            lambda xi: seg.impulse_profile(hit, xi), seg.start, seg.end,
            times, kernel_exponent, seg.order, n=n_quad)
    return out


def _segment_load(nodes: np.ndarray, beta: float, past: list[Segment],
                  values: np.ndarray, rates: np.ndarray,
                  n_quad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective loads, memory amplitudes and smooth rates of modes.

    ``values`` and ``rates`` hold the physical load and its derivative at
    ``nodes``, the mesh of the segment starting at ``nodes[0]``, one row
    per mode; ``past`` holds the earlier schedule segments, with rows in
    the same order.  One array pass serves every mode: each past
    segment's memory is one ``_memory`` call, with kernel exponent
    ``beta`` at every node for the load and ``1 + beta`` at ``nodes[1:]``
    for the memory rate.
    """
    a = nodes[0]
    inv_gamma = 1.0 / math.gamma(1.0 - beta)
    load = values.copy()
    memory_amplitude = np.zeros(values.shape[0])
    rate_remainder = np.zeros_like(values)
    if past:
        times = np.concatenate([nodes, nodes[1:]])
        exponents = np.repeat([beta, 1.0 + beta],
                              [nodes.size, nodes.size - 1])
        memory = sum(_memory(seg, times, exponents, n_quad) for seg in past)
        load -= inv_gamma * memory[:, :nodes.size]
        # memory rate: amplitude of its (s - a)**(-beta) blow-up plus a
        # bounded remainder; the first node gets its neighbor's value,
        # which only the vanishing first cell mass ever weights
        memory_amplitude = past[-1].exit_derivatives * inv_gamma
        rate = beta * inv_gamma * memory[:, nodes.size:]
        rate_remainder[:, 1:] = rate - memory_amplitude[:, None] \
            * (nodes[1:] - a) ** (-beta)
        rate_remainder[:, 0] = rate_remainder[:, 1]

    smooth_rate = rates + rate_remainder
    # admissible loads may carry an integrable derivative blow-up at the
    # segment start; the graded first cell is a ~1e-10 sliver of the
    # segment, so giving it its neighbor's density only perturbs the
    # forced derivative at that cell's scale
    blowup = ~np.isfinite(smooth_rate[:, 0])
    smooth_rate[blowup, 0] = smooth_rate[blowup, 1]
    return load, memory_amplitude, smooth_rate


def _build_segment(j: int, schedule: OrderSchedule, source: SeparableSource,
                   live: list[int], lam: np.ndarray, entry: np.ndarray,
                   past: list[Segment], n_cells: int,
                   n_quad: int) -> Segment:
    """Segment ``j`` of the zero-based modes ``live``, from their entry
    values and the earlier segments ``past``.

    The loads of all modes are one array pass, and the forced tails,
    exit values and exit derivatives take one batched call each; every
    row equals a one-mode call bit for bit.
    """
    beta = schedule.orders[j]
    a, b = schedule.segment(j)
    nodes = graded_mesh(a, b, n_cells, _MESH_GRADING)
    loads, amplitudes, rates = _segment_load(
        nodes, beta, past, source.values(nodes)[live],
        source.derivatives(nodes)[live], n_quad)

    # the blow-up's forced response int_0^dt K_b(dt - u) u**(-b) du is
    # Gamma(1 - b) * E_{b,1}(-lam dt**b) in closed form
    tails = np.zeros((len(live), nodes.size))
    hit = amplitudes != 0.0
    if hit.any():
        tails[hit] = amplitudes[hit, None] * math.gamma(1.0 - beta) \
            * ml_values(beta, 1.0, -lam[hit, None] * (nodes - a) ** beta)
    # rows with no load rate, such as every row of an unforced first
    # segment, have no Duhamel part
    moving = rates.any(axis=1)
    if moving.any():
        tails[moving, 1:] += duhamel_convolve(beta, lam[moving], nodes,
                                              rates[moving], nodes[1:])

    seg = Segment(order=beta, start=a, end=b, nodes=nodes,
                  eigenvalues=lam, entry_values=entry,
                  density=loads - lam[:, None] * entry[:, None], tails=tails)
    end = np.asarray(b, dtype=float)
    return replace(seg, exit_values=_values(seg, slice(None), end),
                   exit_derivatives=_derivatives(seg, slice(None), end))


def _sample(field: SolutionField, rows, t, side: str,
            evaluate) -> np.ndarray:
    """The one sampling entry: ``evaluate(segment, rows, times)`` on the
    rows ``rows`` of each segment that holds some of ``t``, converted and
    checked once (a time that is not finite is named as such).  A
    breakpoint goes to the segment on its ``side``; finite times outside
    the horizon reach an end segment, which rejects them.  A segment
    holding every time takes them with no mask.  The result has one row
    per selected row (none for no row or live mode), then ``t``'s shape.
    """
    t, flat = _times(t)
    if not field.segments or rows == []:
        return np.empty((0,) + t.shape)
    index = field.problem.schedule.segment_of(flat, side)
    j = int(index[0]) if flat.size else 0
    if flat.size < 2 or (index == j).all():
        out = evaluate(field.segments[j], rows, flat)
    else:
        out = np.empty((field.segments[0].eigenvalues[rows].size, flat.size))
        for j in sorted(set(index.tolist())):
            here = index == j
            out[:, here] = evaluate(field.segments[j], rows, flat[here])
    return out.reshape(out.shape[:1] + t.shape)


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Full modal solution with spatial synthesis.

    ``segments`` holds one :class:`Segment` per schedule segment, each
    with one row per live mode; ``live`` lists those modes, zero-based
    and ascending.  The other modes have zero data and no forcing, so
    they stay zero and have no rows (and with no live mode there are no
    segments).
    """

    problem: ProblemSpec
    basis: ModalBasis
    segments: tuple[Segment, ...]
    live: tuple[int, ...]

    def _all_modes(self, t, side: str, evaluate) -> np.ndarray:
        """Every mode at ``t``: the live rows sampled, the others zero."""
        sampled = _sample(self, slice(None), t, side, evaluate)
        if len(self.live) == self.problem.num_modes:
            return sampled
        out = np.zeros((self.problem.num_modes,) + sampled.shape[1:])
        out[list(self.live)] = sampled
        return out

    def mode_values(self, t) -> np.ndarray:
        """Mode coefficients at ``t``, one column per time for an array.

        At interior junctions the later segment's entry.  Each segment
        evaluates every live mode at its times with one Duhamel call;
        row ``n - 1`` equals ``mode_trajectory(n, t)`` bit for bit.
        """
        return self._all_modes(t, "right", _values)

    def mode_derivatives(self, t) -> np.ndarray:
        """Mode derivatives at ``t``, as :meth:`mode_values` is to values.

        At interior junctions the left limit; each segment makes one
        ``ml_values`` call for every live mode.
        """
        return self._all_modes(t, "left", _derivatives)

    def mode_trajectory(self, n: int, times):
        """Values of mode ``n``, an integer, from its row alone; a scalar
        time gives a float."""
        check_count(n, 1, "mode index")
        if n > self.problem.num_modes:
            raise DomainError(
                f"mode index {n} outside [1, {self.problem.num_modes}]")
        live = n - 1 in self.live
        out = _sample(self, [self.live.index(n - 1)] if live else [], times,
                      "right", _values)
        out = out[0] if live else np.zeros(out.shape[1:])
        return float(out) if out.ndim == 0 else out

    def evaluate_grid(self, xs, ts) -> np.ndarray:
        """Matrix ``u[i, k] = u(xs[i], ts[k])``: one ``synthesize`` call
        for all times, whose column ``k`` equals the synthesis of
        ``mode_values(ts[k])`` bit for bit."""
        return self.basis.synthesize(self.mode_values(np.ravel(ts)),
                                     np.ravel(xs))

    def junction_gaps(self) -> np.ndarray:
        """Trajectory mismatch at each interior breakpoint, per junction.

        Each gap re-evaluates the earlier segment of every live mode at
        its endpoint, in one call, and compares with the entry values the
        later segment was built from; the construction hands those exact
        floats across, so the gaps are zero not merely small.
        """
        interior = self.problem.schedule.breakpoints[1:-1]
        gaps = np.zeros(len(interior))
        for i, t in enumerate(interior if self.live else ()):
            left = _values(self.segments[i], slice(None), np.asarray(t))
            gaps[i] = np.max(np.abs(left - self.segments[i + 1].entry_values))
        return gaps


def solve(problem: ProblemSpec, n_cells: int = DEFAULT_CELLS,
          n_quad: int = DEFAULT_QUAD) -> SolutionField:
    """Run the segment recursion, segment by segment, for all modes.

    Modes with zero initial data and no forcing stay zero and are
    skipped; every other mode is built on segment ``j`` before any mode
    moves on to segment ``j + 1``.  ``n_cells``, at least 8, and
    ``n_quad``, at least 4, are integers.
    """
    if not isinstance(problem, ProblemSpec):
        raise DomainError("problem must be a ProblemSpec")
    check_count(n_cells, 8, "mesh cells")
    check_count(n_quad, 4, "quadrature nodes")

    schedule = problem.schedule
    basis = ModalBasis(problem.operator, problem.num_modes)
    source = problem.source
    initial = problem.initial_coefficients
    live = np.flatnonzero((np.array(initial) != 0.0)
                          | source.forced).tolist()
    lam = basis.eigenvalues[live]
    entry = np.array(initial)[live]
    segments: list[Segment] = []
    for j in range(schedule.num_segments if live else 0):
        seg = _build_segment(j, schedule, source, live, lam, entry,
                             segments, n_cells, n_quad)
        finite = (np.isfinite(seg.density).all(axis=1)
                  & np.isfinite(seg.tails).all(axis=1)
                  & np.isfinite(seg.exit_values)
                  & np.isfinite(seg.exit_derivatives))
        if not finite.all():
            raise NumericError("non-finite segment state",
                               mode=live[int(np.argmin(finite))] + 1,
                               segment=j)
        segments.append(seg)
        entry = seg.exit_values
    return SolutionField(problem=problem, basis=basis,
                         segments=tuple(segments), live=tuple(live))
