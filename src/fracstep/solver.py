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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .operator import ModalBasis, OperatorSpec
from .quadrature import (
    duhamel_convolve,
    graded_mesh,
    power_kernel_convolve,
    scaled_power_history,
)
from .schedule import OrderSchedule
from .special import gamma_fn, ml_values

__all__ = [
    "ModalSource",
    "ZeroSource",
    "SeparableSource",
    "ProblemSpec",
    "ModeSegment",
    "ModeSolution",
    "SolutionField",
    "solve",
]

#: Mesh cells per segment and nodes per singular quadrature rule.
DEFAULT_CELLS = 256
DEFAULT_QUAD = 32
_MESH_GRADING = 4.0


class ModalSource:
    """Time profiles of the load's modal coefficients.

    Subclasses provide the coefficient of each eigenmode as a function of
    time together with its exact time derivative; the derivative feeds
    the closed-form derivative of the solution and is never replaced by
    a finite difference.
    """

    num_modes: int

    def mode_values(self, n: int, times) -> np.ndarray:
        raise NotImplementedError

    def mode_derivative(self, n: int, times) -> np.ndarray:
        raise NotImplementedError

    def is_zero_mode(self, n: int) -> bool:
        """True when mode ``n`` is identically unforced."""
        return False


class ZeroSource(ModalSource):
    """No forcing at all."""

    def __init__(self, num_modes: int):
        if num_modes < 1:
            raise DomainError(f"need at least one mode, got {num_modes}")
        self.num_modes = int(num_modes)

    def mode_values(self, n, times):
        return np.zeros_like(np.asarray(times, dtype=float))

    def mode_derivative(self, n, times):
        return np.zeros_like(np.asarray(times, dtype=float))

    def is_zero_mode(self, n):
        return True


class SeparableSource(ModalSource):
    """Load of the form ``time_value(t) * sum_n coefficients[n] X_n(x)``.

    ``time_value`` and ``time_derivative`` must accept node arrays; the
    derivative must be the exact derivative of the value profile.
    """

    def __init__(self, coefficients, time_value, time_derivative):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size < 1 or not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be a finite 1-d sequence")
        self.coefficients = c
        self.num_modes = c.size
        self.time_value = time_value
        self.time_derivative = time_derivative

    def mode_values(self, n, times):
        t = np.asarray(times, dtype=float)
        return self.coefficients[n - 1] * np.asarray(self.time_value(t),
                                                     dtype=float)

    def mode_derivative(self, n, times):
        t = np.asarray(times, dtype=float)
        return self.coefficients[n - 1] * np.asarray(self.time_derivative(t),
                                                     dtype=float)

    def is_zero_mode(self, n):
        return self.coefficients[n - 1] == 0.0


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that defines one initial-boundary value problem.

    ``initial_coefficients`` are the modal coefficients of the initial
    state; their length fixes the number of modes carried throughout.
    A ``source`` of ``None`` becomes a :class:`ZeroSource`.
    ``regularity_margins`` hold one exponent reserve per segment, each in
    ``(0, 1 - order)``; they parameterize how close to the worst case the
    load derivative is allowed to blow up at the segment start and
    default to half the available room.
    """

    schedule: OrderSchedule
    operator: OperatorSpec
    initial_coefficients: tuple[float, ...]
    source: ModalSource | None = None
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
            object.__setattr__(self, "source", ZeroSource(len(coeffs)))
        if not isinstance(self.source, ModalSource):
            raise DomainError("source must be a ModalSource")
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
class ModeSegment:
    """One mode's solution on one segment of the order schedule."""

    index: int
    order: float
    eigenvalue: float
    start: float
    end: float
    entry_value: float
    impulse_strength: float     # load(start) - eigenvalue * entry_value
    memory_amplitude: float     # coefficient of the memory rate's blow-up
    nodes: np.ndarray           # graded sample mesh, nodes[0] == start
    load_samples: np.ndarray    # effective load at the nodes
    tail_samples: np.ndarray    # forced part of the derivative at the nodes
    exit_value: float
    exit_derivative: float

    def value(self, t):
        """Trajectory value, valid on the closed segment.

        The one-row case of :func:`_values`; ``t`` may be an array,
        evaluated with one ``duhamel_convolve`` call, and a scalar gives
        a float.
        """
        out = _values([self], np.asarray(t, dtype=float))[0]
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        """Closed-form time derivative, valid on the half-open segment.

        The one-row case of :func:`_derivatives`; ``t`` may be an array,
        evaluated with one ``ml_values`` call, and a scalar gives a float.
        """
        out = _derivatives([self], np.asarray(t, dtype=float))[0]
        return float(out) if out.ndim == 0 else out


def _values(segs: list[ModeSegment], t: np.ndarray) -> np.ndarray:
    """Values of modes on one schedule segment, one row per segment.

    Evaluated as ``entry + int K(t - s) * (load(s) - lam * entry) ds``
    with one ``duhamel_convolve`` call for all rows, each of which
    depends on its own mode alone, bit for bit.  The convolution
    integrates affine densities exactly, so a steady state, whose load
    is the constant ``lam * entry``, returns ``entry`` exactly.  Valid on
    the closed segment; the result has shape ``(len(segs),) + t.shape``.
    """
    first = segs[0]
    flat = t.reshape(-1)
    inside = (first.start <= flat) & (flat <= first.end)
    if not inside.all():
        raise DomainError(f"time {flat[~inside][0]} outside segment "
                          f"[{first.start}, {first.end}]")
    lam = np.array([seg.eigenvalue for seg in segs])
    entry = np.array([[seg.entry_value] for seg in segs])
    density = np.array([seg.load_samples for seg in segs]) \
        - lam[:, None] * entry
    later = flat > first.start
    if later.all():   # the common case needs no mask
        out = entry + duhamel_convolve(first.order, lam, first.nodes,
                                       density, flat)
    else:
        out = np.repeat(entry, flat.size, axis=1)
        if later.any():
            out[:, later] += duhamel_convolve(first.order, lam, first.nodes,
                                              density, flat[later])
    return out.reshape((len(segs),) + t.shape)


def _derivatives(segs: list[ModeSegment], t: np.ndarray) -> np.ndarray:
    """Closed-form time derivatives of modes on one schedule segment.

    The impulse part carries the exact ``(t - start)**(order - 1)``
    blow-up, with one ``ml_values`` call for all rows; the forced tail is
    interpolated from its tabulation.  Valid on the half-open segment:
    the start is rejected because the derivative is unbounded there
    whenever the impulse strength is nonzero.  The result has shape
    ``(len(segs),) + t.shape``.
    """
    first = segs[0]
    flat = t.reshape(-1)
    inside = (first.start < flat) & (flat <= first.end)
    if not inside.all():
        raise DomainError(f"time {flat[~inside][0]} outside half-open "
                          f"segment ({first.start}, {first.end}]")
    lam = np.array([seg.eigenvalue for seg in segs])
    strength = np.array([seg.impulse_strength for seg in segs])
    dt = flat - first.start
    impulse = strength[:, None] * dt ** (first.order - 1.0) \
        * ml_values(first.order, first.order,
                    -lam[:, None] * dt ** first.order)
    tail = [np.interp(flat, seg.nodes, seg.tail_samples) for seg in segs]
    return (impulse + tail).reshape((len(segs),) + t.shape)


def _memory(segs: list[ModeSegment], times: np.ndarray,
            kernel_exponent: float, n_quad: int) -> np.ndarray:
    """Memory kernel applied to modes' derivatives on one past segment.

    ``segs`` are the modes' segments on that schedule segment, and the
    result has one row per segment and one column per time.  The
    impulse part is ``strength * (s - start)**(order - 1)`` times a
    Mittag-Leffler factor whose argument scales like ``(s - start)**
    order``; the scaled-variable rule resolves that combination exactly,
    with one profile evaluation for all rows and times.  The tabulated
    forced tails go through one ``power_kernel_convolve`` call.  Rows
    with a zero impulse strength skip the impulse part, and unforced
    rows, whose tails are exactly zero, skip the tail.  Each row equals
    a call with that segment alone, bit for bit.
    """
    first = segs[0]
    out = np.zeros((len(segs), times.size))
    tails = np.array([seg.tail_samples for seg in segs])
    forced = tails.any(axis=1)
    if forced.any():
        out[forced] = power_kernel_convolve(first.nodes, tails[forced],
                                            times, kernel_exponent)
    strength = np.array([seg.impulse_strength for seg in segs])
    hit = strength != 0.0
    if hit.any():
        lam = np.array([seg.eigenvalue for seg in segs])[hit, None]

        def profile(xi):
            return strength[hit, None] * ml_values(first.order, first.order,
                                                   -lam * xi)

        out[hit] += scaled_power_history(profile, first.start, first.end,
                                         times, kernel_exponent,
                                         first.order, n=n_quad)
    return out


def _segment_load(nodes: np.ndarray, beta: float,
                  past: list[list[ModeSegment]], values: np.ndarray,
                  rates: np.ndarray,
                  n_quad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective loads, memory amplitudes and smooth rates of modes.

    ``values`` and ``rates`` hold the physical load and its derivative at
    ``nodes``, the mesh of the segment starting at ``nodes[0]``, one row
    per mode; ``past`` holds the modes' segments on each earlier
    schedule segment, in the same order.  One array pass serves every
    mode: each memory integral is one ``_memory`` call per past segment
    and kernel exponent.
    """
    a = nodes[0]
    inv_gamma = 1.0 / gamma_fn(1.0 - beta)
    load = values.copy()
    memory_amplitude = np.zeros(values.shape[0])
    rate_remainder = np.zeros_like(values)
    if past:
        load -= inv_gamma * sum(_memory(segs, nodes, beta, n_quad)
                                for segs in past)
        # memory rate: amplitude of its (s - a)**(-beta) blow-up plus a
        # bounded remainder; the first node gets its neighbor's value,
        # which only the vanishing first cell mass ever weights
        memory_amplitude = np.array(
            [seg.exit_derivative for seg in past[-1]]) * inv_gamma
        rate = beta * inv_gamma * sum(
            _memory(segs, nodes[1:], 1.0 + beta, n_quad) for segs in past)
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


def _build_segments(j: int, schedule: OrderSchedule, source: ModalSource,
                    modes: list[int], lam: np.ndarray, entry: np.ndarray,
                    past: list[list[ModeSegment]], n_cells: int,
                    n_quad: int) -> list[ModeSegment]:
    """Segment ``j`` of every listed mode, from its entry and history.

    ``past[k]`` holds the listed modes' segments on schedule segment
    ``k``.  The loads of all modes are one array pass, and the forced
    tails, exit values and exit derivatives take one batched call each;
    every row equals a one-mode call bit for bit.
    """
    beta = schedule.orders[j]
    a, b = schedule.segment(j)
    nodes = graded_mesh(a, b, n_cells, _MESH_GRADING)
    values = np.array([source.mode_values(n, nodes) for n in modes],
                      dtype=float)
    rates = np.array([source.mode_derivative(n, nodes) for n in modes],
                     dtype=float)
    loads, amplitudes, rates = _segment_load(nodes, beta, past, values,
                                             rates, n_quad)

    # the blow-up's forced response int_0^dt K_b(dt - u) u**(-b) du is
    # Gamma(1 - b) * E_{b,1}(-lam dt**b) in closed form
    tails = np.zeros((len(modes), nodes.size))
    hit = amplitudes != 0.0
    if hit.any():
        tails[hit] = amplitudes[hit, None] * gamma_fn(1.0 - beta) \
            * ml_values(beta, 1.0, -lam[hit, None] * (nodes - a) ** beta)
    tails[:, 1:] += duhamel_convolve(beta, lam, nodes, rates, nodes[1:])

    segments = [
        ModeSegment(index=j, order=beta, eigenvalue=float(lam[k]), start=a,
                    end=b, entry_value=float(entry[k]),
                    impulse_strength=float(load[0] - lam[k] * entry[k]),
                    memory_amplitude=float(amplitudes[k]), nodes=nodes,
                    load_samples=load, tail_samples=tails[k],
                    exit_value=math.nan, exit_derivative=math.nan)
        for k, load in enumerate(loads)]
    end = np.asarray(b, dtype=float)
    for seg, value, slope in zip(segments, _values(segments, end),
                                 _derivatives(segments, end)):
        object.__setattr__(seg, "exit_value", float(value))
        object.__setattr__(seg, "exit_derivative", float(slope))
    return segments


def _sample(modes, t, side: str, evaluate) -> np.ndarray:
    """``evaluate(segments, times)`` once per schedule segment, over the
    segments of the nonzero modes; zero modes give zero rows.

    A breakpoint goes to the segment on its ``side``; times outside the
    horizon reach an end segment, which rejects them.  The result has
    shape ``(len(modes),) + t.shape``.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((len(modes),) + t.shape)
    live = [i for i, m in enumerate(modes) if not m.is_zero]
    if live:
        flat = t.reshape(-1)
        # a time's segment is the number of interior breakpoints below it
        # (or at it, on the right side)
        index = np.searchsorted(modes[live[0]].breakpoints[1:-1], flat,
                                side)
        parts = sorted(set(index.tolist()))
        rows = np.empty((len(live), flat.size))
        for j in parts:
            # a segment that holds every time takes them without a mask
            here = index == j if len(parts) > 1 else slice(None)
            rows[:, here] = evaluate([modes[i].segments[j] for i in live],
                                     flat[here])
        out.reshape(len(modes), -1)[live] = rows
    return out


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """Composite trajectory of one mode across all segments."""

    mode: int
    eigenvalue: float
    breakpoints: tuple[float, ...]
    segments: tuple[ModeSegment, ...]

    @property
    def is_zero(self) -> bool:
        return not self.segments

    def value(self, t):
        """Trajectory value; at interior junctions the later segment's entry.

        ``t`` may be an array; each segment evaluates its points with one
        ``duhamel_convolve`` call.  A scalar gives a float.
        """
        out = _sample([self], t, "right", _values)[0]
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        """Closed-form derivative; at interior junctions the left limit.

        ``t`` may be an array; each segment evaluates its points with one
        ``ml_values`` call.  A scalar gives a float.
        """
        out = _sample([self], t, "left", _derivatives)[0]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Full modal solution with spatial synthesis."""

    problem: ProblemSpec
    basis: ModalBasis
    modes: tuple[ModeSolution, ...]

    def mode_values(self, t) -> np.ndarray:
        """Mode coefficients at ``t``, one column per time for an array.

        Each segment evaluates every nonzero mode at its times with one
        ``duhamel_convolve`` call; row ``n - 1`` equals
        ``modes[n - 1].value(t)`` bit for bit.
        """
        return _sample(self.modes, t, "right", _values)

    def mode_derivatives(self, t) -> np.ndarray:
        """Mode derivatives at ``t``, as :meth:`mode_values` is to values.

        At interior junctions the left limit; each segment makes one
        ``ml_values`` call for every nonzero mode.
        """
        return _sample(self.modes, t, "left", _derivatives)

    def mode_trajectory(self, n: int, times) -> np.ndarray:
        if not 1 <= n <= len(self.modes):
            raise DomainError(f"mode index {n} outside [1, {len(self.modes)}]")
        return self.modes[n - 1].value(times)

    def evaluate(self, x, t: float):
        """Field value ``u(x, t)``; ``x`` may be a scalar or an array."""
        return self.basis.synthesize(self.mode_values(float(t)), x)

    def evaluate_grid(self, xs, ts) -> np.ndarray:
        """Matrix ``u[i, k] = u(xs[i], ts[k])``."""
        values = self.mode_values(np.ravel(ts))
        # synthesize per time, as evaluate does; one matmul rounds differently
        return np.column_stack([self.basis.synthesize(c, np.ravel(xs))
                                for c in values.T])

    def junction_gaps(self) -> np.ndarray:
        """Trajectory mismatch at each interior breakpoint, per junction.

        Each gap re-evaluates the earlier segment of every nonzero mode at
        its endpoint, in one call, and compares with the entry value the
        later segment was built from; the construction hands that exact
        float across, so the gaps are zero not merely small.
        """
        interior = self.problem.schedule.breakpoints[1:-1]
        live = [m for m in self.modes if not m.is_zero]
        gaps = np.zeros(len(interior))
        for i, t in enumerate(interior if live else ()):
            left = _values([m.segments[i] for m in live], np.asarray(t))
            right = [m.segments[i + 1].entry_value for m in live]
            gaps[i] = np.max(np.abs(left - right))
        return gaps


def solve(problem: ProblemSpec, n_cells: int = DEFAULT_CELLS,
          n_quad: int = DEFAULT_QUAD) -> SolutionField:
    """Run the segment recursion, segment by segment, for all modes.

    Modes with zero initial data and no forcing stay zero and are
    skipped; every other mode is built on segment ``j`` before any mode
    moves on to segment ``j + 1``.
    """
    if not isinstance(problem, ProblemSpec):
        raise DomainError("problem must be a ProblemSpec")
    if n_cells < 8:
        raise DomainError(f"need at least 8 mesh cells, got {n_cells}")
    if n_quad < 4:
        raise DomainError(f"need at least 4 quadrature nodes, got {n_quad}")

    schedule = problem.schedule
    basis = ModalBasis(problem.operator, problem.num_modes)
    source = problem.source
    initial = problem.initial_coefficients
    live = [n for n in range(1, problem.num_modes + 1)
            if initial[n - 1] != 0.0 or not source.is_zero_mode(n)]
    lam = np.array([basis.eigenvalues[n - 1] for n in live])
    entry = np.array([initial[n - 1] for n in live])
    past: list[list[ModeSegment]] = []
    for j in range(schedule.num_segments if live else 0):
        built = _build_segments(j, schedule, source, live, lam, entry,
                                past, n_cells, n_quad)
        for n, seg in zip(live, built):
            if not (np.isfinite(seg.load_samples).all()
                    and np.isfinite(seg.tail_samples).all()
                    and math.isfinite(seg.exit_value)
                    and math.isfinite(seg.exit_derivative)):
                raise NumericError("non-finite segment state",
                                   mode=n, segment=j)
        past.append(built)
        entry = np.array([seg.exit_value for seg in built])

    segments = dict(zip(live, zip(*past)))
    modes = tuple(ModeSolution(n, basis.eigenvalues[n - 1],
                               schedule.breakpoints,
                               tuple(segments.get(n, ())))
                  for n in range(1, problem.num_modes + 1))
    return SolutionField(problem=problem, basis=basis, modes=modes)
