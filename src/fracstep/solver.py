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

        Evaluated as ``entry + int K(t - s) * (load(s) - lam * entry) ds``.
        The convolution integrates affine densities exactly, so a steady
        state, whose load is the constant ``lam * entry``, returns
        ``entry`` exactly.  ``t`` may be an array, evaluated with one
        ``duhamel_convolve`` call; a scalar gives a float.
        """
        t = np.asarray(t, dtype=float)
        outside = ~((self.start <= t) & (t <= self.end))
        if outside.any():
            raise DomainError(
                f"time {t[outside].flat[0]} outside segment "
                f"[{self.start}, {self.end}]")
        out = np.full(t.shape, self.entry_value)
        later = t > self.start
        if later.any():
            out[later] += duhamel_convolve(
                self.order, self.eigenvalue, self.nodes,
                self.load_samples - self.eigenvalue * self.entry_value,
                t[later])
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        """Closed-form time derivative, valid on the half-open segment.

        The impulse part carries the exact ``(t - start)**(order - 1)``
        blow-up; the forced tail is interpolated from its tabulation.
        The segment start itself is rejected because the derivative is
        unbounded there whenever the impulse strength is nonzero.  ``t``
        may be an array, evaluated with one ``ml_values`` call; a scalar
        gives a float.
        """
        t = np.asarray(t, dtype=float)
        outside = ~((self.start < t) & (t <= self.end))
        if outside.any():
            raise DomainError(
                f"time {t[outside].flat[0]} outside half-open segment "
                f"({self.start}, {self.end}]")
        dt = t - self.start
        impulse = self.impulse_strength * dt ** (self.order - 1.0) \
            * ml_values(self.order, self.order,
                        -self.eigenvalue * dt ** self.order)
        out = impulse + np.interp(t, self.nodes, self.tail_samples)
        return float(out) if out.ndim == 0 else out


def _memory(seg: ModeSegment, times: np.ndarray, kernel_exponent: float,
            n_quad: int) -> np.ndarray:
    """Memory kernel applied to a past segment's derivative at ``times``.

    The impulse part is ``strength * (s - start)**(order - 1)`` times a
    Mittag-Leffler factor whose argument scales like ``(s - start)**
    order``; the scaled-variable rule resolves that combination exactly,
    from one profile evaluation for all times.  The tabulated forced tail
    goes through ``power_kernel_convolve``, also for all times at once;
    an unforced segment's tail is exactly zero and is skipped.
    """
    tail = np.zeros(np.shape(times))
    if seg.tail_samples.any():
        tail = power_kernel_convolve(seg.nodes, seg.tail_samples, times,
                                     kernel_exponent)
    if seg.impulse_strength == 0.0:
        return tail

    def profile(xi):
        arg = -seg.eigenvalue * np.asarray(xi, dtype=float)
        return seg.impulse_strength * ml_values(seg.order, seg.order, arg)

    return scaled_power_history(profile, seg.start, seg.end, times,
                                kernel_exponent, seg.order, n=n_quad) + tail


def _build_mode_segment(j: int, schedule: OrderSchedule, lam: float,
                        entry_value: float, previous: list[ModeSegment],
                        base_values, base_derivative, n_cells: int,
                        n_quad: int) -> ModeSegment:
    beta = schedule.orders[j]
    a, b = schedule.segment(j)
    nodes = graded_mesh(a, b, n_cells, _MESH_GRADING, "left")
    inv_gamma = 1.0 / gamma_fn(1.0 - beta)

    load = np.asarray(base_values(nodes), dtype=float).copy()
    memory_amplitude = 0.0
    rate_remainder = np.zeros_like(nodes)
    if previous:
        load -= inv_gamma * sum(_memory(seg, nodes, beta, n_quad)
                                for seg in previous)
        # memory rate: amplitude of its (s - a)**(-beta) blow-up plus a
        # bounded remainder; the first node gets its neighbor's value,
        # which only the vanishing first cell mass ever weights
        memory_amplitude = previous[-1].exit_derivative * inv_gamma
        rate = beta * inv_gamma * sum(
            _memory(seg, nodes[1:], 1.0 + beta, n_quad) for seg in previous)
        rate_remainder[1:] = rate \
            - memory_amplitude * (nodes[1:] - a) ** (-beta)
        rate_remainder[0] = rate_remainder[1]

    impulse_strength = load[0] - lam * entry_value

    smooth_rate = np.asarray(base_derivative(nodes), dtype=float) \
        + rate_remainder
    if not np.isfinite(smooth_rate[0]):
        # admissible loads may carry an integrable derivative blow-up at
        # the segment start; the graded first cell is a ~1e-10 sliver of
        # the segment, so giving it its neighbor's density only perturbs
        # the forced derivative at that cell's scale
        smooth_rate[0] = smooth_rate[1]

    # the blow-up's forced response int_0^dt K_b(dt - u) u**(-b) du is
    # Gamma(1 - b) * E_{b,1}(-lam dt**b) in closed form
    tail = np.zeros_like(nodes)
    if memory_amplitude != 0.0:
        tail = memory_amplitude * gamma_fn(1.0 - beta) \
            * ml_values(beta, 1.0, -lam * (nodes - a) ** beta)
    tail[1:] += duhamel_convolve(beta, lam, nodes, smooth_rate, nodes[1:])

    segment = ModeSegment(
        index=j, order=beta, eigenvalue=lam, start=a, end=b,
        entry_value=entry_value, impulse_strength=impulse_strength,
        memory_amplitude=memory_amplitude, nodes=nodes, load_samples=load,
        tail_samples=tail, exit_value=math.nan, exit_derivative=math.nan)
    object.__setattr__(segment, "exit_value", segment.value(b))
    object.__setattr__(segment, "exit_derivative", segment.derivative(b))
    return segment


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

    def _by_segment(self, t, side: str, evaluate):
        """``evaluate(segment, times)`` once per segment, zeros if no
        segments.  A breakpoint goes to the segment on its ``side``; times
        outside the horizon reach an end segment, which rejects them.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        if not self.is_zero:
            flat = t.reshape(-1)
            res = out.reshape(-1)
            index = np.clip(np.searchsorted(self.breakpoints, flat, side) - 1,
                            0, len(self.segments) - 1)
            for seg in self.segments:
                here = index == seg.index
                if here.any():
                    res[here] = evaluate(seg, flat[here])
        return float(out) if out.ndim == 0 else out

    def value(self, t):
        """Trajectory value; at interior junctions the later segment's entry.

        ``t`` may be an array; each segment evaluates its points with one
        ``duhamel_convolve`` call.  A scalar gives a float.
        """
        return self._by_segment(t, "right", ModeSegment.value)

    def derivative(self, t):
        """Closed-form derivative; at interior junctions the left limit.

        ``t`` may be an array; each segment evaluates its points with one
        ``ml_values`` call.  A scalar gives a float.
        """
        return self._by_segment(t, "left", ModeSegment.derivative)


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Full modal solution with spatial synthesis."""

    problem: ProblemSpec
    basis: ModalBasis
    modes: tuple[ModeSolution, ...]

    def mode_values(self, t) -> np.ndarray:
        """Mode coefficients at ``t``, one column per time for an array."""
        return np.array([m.value(t) for m in self.modes])

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

        Each gap re-evaluates the earlier segment at its endpoint and
        compares with the entry value the later segment was built from;
        the construction hands that exact float across, so the gaps are
        zero not merely small.
        """
        interior = self.problem.schedule.breakpoints[1:-1]
        gaps = np.zeros(len(interior))
        for i, t in enumerate(interior):
            worst = 0.0
            for m in self.modes:
                if m.is_zero:
                    continue
                left = m.segments[i].value(t)
                right = m.segments[i + 1].entry_value
                worst = max(worst, abs(left - right))
            gaps[i] = worst
        return gaps


def solve(problem: ProblemSpec, n_cells: int = DEFAULT_CELLS,
          n_quad: int = DEFAULT_QUAD) -> SolutionField:
    """Run the segment recursion for every mode of the problem."""
    if not isinstance(problem, ProblemSpec):
        raise DomainError("problem must be a ProblemSpec")
    if n_cells < 8:
        raise DomainError(f"need at least 8 mesh cells, got {n_cells}")
    if n_quad < 4:
        raise DomainError(f"need at least 4 quadrature nodes, got {n_quad}")

    schedule = problem.schedule
    basis = ModalBasis(problem.operator, problem.num_modes)
    source = problem.source

    modes = []
    for n in range(1, problem.num_modes + 1):
        lam = basis.eigenvalues[n - 1]
        entry = problem.initial_coefficients[n - 1]
        if entry == 0.0 and source.is_zero_mode(n):
            modes.append(ModeSolution(n, lam, schedule.breakpoints, ()))
            continue
        segments: list[ModeSegment] = []
        for j in range(schedule.num_segments):
            seg = _build_mode_segment(
                j, schedule, lam, entry, segments,
                lambda ts, n=n: source.mode_values(n, ts),
                lambda ts, n=n: source.mode_derivative(n, ts),
                n_cells, n_quad)
            if not (np.isfinite(seg.load_samples).all()
                    and np.isfinite(seg.tail_samples).all()
                    and math.isfinite(seg.exit_value)
                    and math.isfinite(seg.exit_derivative)):
                raise NumericError("non-finite segment state",
                                   mode=n, segment=j)
            segments.append(seg)
            entry = seg.exit_value
        modes.append(ModeSolution(n, lam, schedule.breakpoints,
                                  tuple(segments)))
    return SolutionField(problem=problem, basis=basis, modes=tuple(modes))
