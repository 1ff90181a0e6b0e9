"""Numerical verification of the solution's regularity structure.

Everything here treats a solved field as an object under test: norms are
recomputed by quadrature, blow-up rates are measured by log-log fits,
and the equation itself is re-evaluated pointwise through an independent
quadrature of the variable-order memory integral.  Estimates whose
constants are existential are checked as exponent fits or measured
ratios, never as fixed-constant assertions.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, NumericError, RegularityError, check_count
from .operator import ModalBasis
from .quadrature import composite_graded_integral, graded_mesh, \
    scaled_power_history
from .schedule import OrderSchedule
from .solver import ProblemSpec, SolutionField

__all__ = [
    "RegularityReport",
    "blowup_fit_samples",
    "blowup_rate_fit",
    "build_report",
    "c0_dL_norm",
    "data_functional",
    "default_probe_times",
    "default_space_time_probes",
    "initial_limit_check",
    "residual_check",
    "segment_load_norm",
    "source_fit_samples",
    "w11_norm",
]

#: Log-log fits drop their two largest offsets when the rms log-residual
#: exceeds this fraction (transition-region contamination).
FIT_RESIDUAL_LIMIT = 0.05

#: Offsets below/above these fractions of the segment width bound the
#: probe range of every rate fit.
FIT_OFFSET_RANGE = (1e-6, 1e-2)

#: Everything smaller than this is treated as an exact zero when a fit
#: would otherwise try to take its logarithm.
UNDERFLOW_FLOOR = 1e-13

#: Fractions of the horizon at which the initial limit is probed.
INITIAL_LIMIT_FRACTIONS = (1e-3, 1e-4, 1e-5, 1e-6)


@dataclasses.dataclass(frozen=True)
class RegularityReport:
    """Measured regularity summary of one solved problem.

    Rate entries are fitted exponents, ``None`` standing for "nothing to
    fit" (equilibrium or unforced data); every other entry must be
    finite.  ``fit_samples`` holds each segment's probe offsets and the
    derivative and load-rate norms fitted there.
    """

    derivative_rates: tuple
    source_rates: tuple
    c0_dL: float
    w11: float
    segment_load_norms: tuple
    data_functionals: tuple
    residual_max: float
    junction_gaps: tuple
    fit_samples: tuple = dataclasses.field(default=(), compare=False)

    def __post_init__(self) -> None:
        for name in ("c0_dL", "w11", "residual_max"):
            if not np.isfinite(getattr(self, name)):
                raise NumericError(f"report field {name} is not finite")
        for name in ("derivative_rates", "source_rates",
                     "segment_load_norms", "data_functionals",
                     "junction_gaps"):
            for entry in getattr(self, name):
                if entry is not None and not np.isfinite(entry):
                    raise NumericError(
                        f"report field {name} holds a non-finite entry")

    def as_dict(self) -> dict:
        """The compared fields, tuples as lists, in declaration order."""
        values = ((f.name, getattr(self, f.name))
                  for f in dataclasses.fields(self) if f.compare)
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in values}


def _fit_slope(offsets: np.ndarray, values: np.ndarray):
    """Least-squares log-log slope, or ``None`` for numerically zero data.

    When the fit residual exceeds the 5% limit the two largest offsets
    are excluded and the fit repeated on the remainder.
    """
    values = np.asarray(values, dtype=float)
    if np.max(np.abs(values)) < UNDERFLOW_FLOOR:
        return None
    logs = np.log(offsets)
    logv = np.log(np.maximum(np.abs(values), UNDERFLOW_FLOOR))
    slope, intercept = np.polyfit(logs, logv, 1)
    resid = float(np.sqrt(np.mean((logv - slope * logs - intercept) ** 2)))
    if resid > FIT_RESIDUAL_LIMIT and logs.size > 4:
        slope = np.polyfit(logs[:-2], logv[:-2], 1)[0]
    return float(slope)


# nine offsets per unit of segment width, spread geometrically
_FIT_UNIT = np.geomspace(*FIT_OFFSET_RANGE, 9)


def _fit_offsets(width: float) -> np.ndarray:
    return width * _FIT_UNIT


# ---------------------------------------------------------------------------
# data-side functional


def data_functional(spec: ProblemSpec, j: int) -> float:
    """Cumulative data size controlling the solution up to segment ``j``.

    Sums the graph norm of the initial data with, per segment through
    ``j``, the load's W11-in-time norm and the sup of its derivative
    weighted by the declared blow-up power of the distance to the
    segment start.  A load whose derivative grows steeper near a segment
    start than the declared power structure admits is rejected.  Equal
    bit for bit to the report's ``data_functionals[j]``.
    """
    spec.schedule.segment(j)   # rejects an index out of range
    norms = [segment_load_norm(spec, k) for k in range(j + 1)]
    return _data_functionals(spec, norms)[j]


def _data_functionals(spec: ProblemSpec, load_norms) -> tuple:
    """The data functional through each segment of ``load_norms``: the
    initial data's graph norm plus the running sum of the load norms."""
    basis = ModalBasis(spec.operator, spec.num_modes)
    initial = basis.fractional_norm(np.asarray(spec.initial_coefficients),
                                    1.0)
    return tuple(float(initial + r) for r in np.cumsum(load_norms))


def segment_load_norm(spec: ProblemSpec, k: int) -> float:
    """One segment's summand of the data functional.

    W11 time integrals use graded quadrature pre-whitened by the fitted
    power of the derivative's blow-up; the weighted sup is a dense max
    over a strongly graded mesh.
    """
    schedule = spec.schedule
    a, b = schedule.segment(k)
    width = b - a
    order = schedule.orders[k]
    margin = spec.regularity_margins[k]
    if not spec.source.forced.any():
        return 0.0

    basis = ModalBasis(spec.operator, spec.num_modes)
    rate_norm = lambda t: basis.fractional_norm(
        spec.source.derivatives(np.atleast_1d(t)))
    offsets = _fit_offsets(width)
    sigma = _fit_slope(offsets, rate_norm(a + offsets))
    if sigma is not None and sigma <= order + margin - 2.0 + 0.05:
        raise RegularityError(
            f"load derivative grows like offset**{sigma:.3f} near segment "
            f"{k}, steeper than the declared power {order + margin - 2.0:.3f} "
            "allows for an integrable derivative")

    value_part = composite_graded_integral(
        lambda s: basis.fractional_norm(spec.source.values(s)), a, b,
        left_exponent=0.0, n_cells=48, grading=2.0, n_gauss=16)
    if sigma is None:
        rate_part = 0.0
        weighted_sup = 0.0
    else:
        whiten = min(max(sigma, -0.95), 4.0)
        rate_part = composite_graded_integral(
            lambda s: rate_norm(s) * (s - a) ** (-whiten), a, b,
            left_exponent=whiten, n_cells=48, grading=3.0, n_gauss=16)
        sample = graded_mesh(a, b, 512, 4.0)[1:]
        weighted_sup = float(np.max(
            (sample - a) ** (order + margin) * rate_norm(sample)))
    return float(value_part + rate_part + weighted_sup)


# ---------------------------------------------------------------------------
# solution-side norms


def default_probe_times(schedule: OrderSchedule) -> np.ndarray:
    """Time probes: breakpoints plus graded clusters flanking each one."""
    probes = [np.asarray(schedule.breakpoints)]
    for j in range(schedule.num_segments):
        a, b = schedule.segment(j)
        width = b - a
        cluster = width * np.geomspace(1e-6, 0.5, 8)
        probes.append(a + cluster)
        probes.append(b - cluster)
        probes.append(np.linspace(a, b, 24))
    times = np.unique(np.concatenate(probes))
    return times[(times >= 0.0) & (times <= schedule.horizon)]


def c0_dL_norm(field: SolutionField) -> float:
    """Sup over the default probe times of the graph norm of the mode
    vector."""
    values = field.mode_values(default_probe_times(field.problem.schedule))
    return float(np.max(field.basis.fractional_norm(values, 1.0)))


def w11_norm(field: SolutionField) -> float:
    """Time integral of the mode-vector norm of the derivative.

    Direct graded quadrature stalls on the mixed endpoint powers the
    norm couples, so each segment is split: the norm of the impulse
    parts alone is a smooth function of ``(t - t_j)**order`` and is
    integrated in that variable to near machine precision, while the
    remainder of the norm is bounded at the segment start and a plain
    graded rule absorbs its mild kink.
    """
    schedule = field.problem.schedule
    total = 0.0
    # a field without live modes has a zero derivative and no segments
    for j in range(schedule.num_segments if field.live else 0):
        a, b = schedule.segment(j)
        order = schedule.orders[j]
        seg = field.segments[j]
        hit = seg.impulse_strengths != 0.0

        def impulse_norm_y(y):
            rows = seg.impulse_profile(hit, y)
            return np.sqrt(np.sum(np.square(rows), axis=0))

        span = (b - a) ** order
        part = composite_graded_integral(
            impulse_norm_y, 0.0, span, left_exponent=0.0,
            n_cells=8, grading=1.0, n_gauss=24) / order

        def correction(s):
            s = np.atleast_1d(s)
            dt = s - a
            base = dt ** (order - 1.0) * impulse_norm_y(dt ** order)
            return field.basis.fractional_norm(
                field.mode_derivatives(s)) - base

        part += composite_graded_integral(
            correction, a, b, left_exponent=0.0,
            n_cells=48, grading=3.0, n_gauss=16)
        total += part
    if not np.isfinite(total):
        raise NumericError("derivative norm quadrature produced "
                           "a non-finite value")
    return float(total)


# ---------------------------------------------------------------------------
# rate fits


def blowup_fit_samples(field: SolutionField, j: int):
    """Probe offsets and derivative norms feeding the blow-up fit."""
    schedule = field.problem.schedule
    a, b = schedule.segment(j)
    offsets = _fit_offsets(b - a)
    return offsets, field.basis.fractional_norm(
        field.mode_derivatives(a + offsets))


def blowup_rate_fit(field: SolutionField, j: int):
    """Fitted power of the derivative blow-up entering segment ``j``.

    Returns ``None`` when the derivative is at numerical zero across the
    probe offsets (equilibrium data), which is a result, not an error.
    """
    offsets, values = blowup_fit_samples(field, j)
    return _fit_slope(offsets, values)


def _history(field: SolutionField, rows: list[int], k: int, times,
             kernel_exponent, n_quad: int) -> np.ndarray:
    """Kernel integrals of modes' derivatives over segment ``k``.

    ``rows`` are zero-based mode indices; the result has one row per
    mode, then the shape of ``times``.  Each time, which must lie beyond
    the segment's start, integrates up to the earlier of the segment's
    end and itself, with its own exponent where ``kernel_exponent``
    gives one per time.  Independent of the solver's internal
    tabulations: the derivatives are re-evaluated through the public
    ``mode_derivatives``, with the segment's own power scaled out so the
    transformed profile is smooth.  All rows and times share one
    ``scaled_power_history`` call, and each row and time equals a call
    for its mode and time alone, bit for bit.
    """
    schedule = field.problem.schedule
    a, b = schedule.segment(k)
    order = schedule.orders[k]
    inv = 1.0 / order

    def profile(w):
        w = np.atleast_1d(w)
        return field.mode_derivatives(a + w ** inv)[rows] \
            * w ** (inv - 1.0) * order

    # profile(w) = order * w**(1/order - 1) * u'(a + w**(1/order)) makes
    # (s-a)**(order-1) * profile((s-a)**order) equal u'(s) exactly
    return scaled_power_history(profile, a, np.minimum(b, times), times,
                                kernel_exponent, order, n=n_quad) / order


def _with_memory(out, field, rows, segments, times, kernel_exponent,
                 n_quad, scale=1.0):
    # one segment at a time, so every caller adds in the same order
    kappa = np.broadcast_to(kernel_exponent, times.shape)
    for k in segments:
        past = times > field.problem.schedule.breakpoints[k]
        out[:, past] += scale * _history(field, rows, k, times[past],
                                         kappa[past], n_quad)
    return out


def source_fit_samples(spec: ProblemSpec, field: SolutionField, j: int,
                       n_quad: int = 24):
    """Probe offsets and assembled-load derivative norms for segment ``j``.

    The segment load is the base load minus the memory of all earlier
    segments; its derivative adds the differentiated memory kernel,
    which is what carries the blow-up for ``j >= 1``.  Each earlier
    segment's memory is one history call for all nonzero modes.
    ``n_quad``, the nodes per history rule, is an integer of at least 4,
    as in ``solve``.
    """
    check_count(n_quad, 4, "quadrature nodes")
    a, b = spec.schedule.segment(j)
    order = spec.schedule.orders[j]
    offsets = _fit_offsets(b - a)
    prefac = order / math.gamma(1.0 - order)
    times = a + offsets

    per_mode = spec.source.derivatives(times)
    live = list(field.live)
    if live:
        per_mode[live] = _with_memory(per_mode[live], field, live, range(j),
                                      times, order + 1.0, n_quad, prefac)
    return offsets, field.basis.fractional_norm(per_mode)


# ---------------------------------------------------------------------------
# equation residual and initial limit


def _vo_caputo_rows(field: SolutionField, rows: list[int], t: np.ndarray,
                    n_quad: int) -> np.ndarray:
    """Variable-order memory derivatives of the zero-based modes ``rows``.

    Quadrature of the defining integral with the exponent frozen at each
    time's order, using only the public derivative evaluator; this is
    the independent path the residual check relies on.  Each segment is
    one history call for all rows and for every time beyond its start,
    each time with its own segment's order, the time's own segment
    integrated up to the time; a time on its segment's start has no
    current-segment part.  Times must lie in ``(0, T]``, which the
    caller checks; the result has shape ``(len(rows),) + t.shape``.
    """
    schedule = field.problem.schedule
    flat = t.reshape(-1)
    current = schedule.segment_of(flat)
    out = _with_memory(np.zeros((len(rows), flat.size)), field, rows,
                       range(current.max(initial=-1) + 1), flat,
                       np.asarray(schedule.orders)[current], n_quad)
    out /= np.array([math.gamma(1.0 - b) for b in schedule.orders])[current]
    return out.reshape((len(rows),) + t.shape)


def residual_check(field: SolutionField, spec: ProblemSpec, probes,
                   n_quad: int = 24) -> float:
    """Max absolute equation defect over space-time probe points.

    ``probes`` holds ``(x, t)`` rows with ``x`` in ``[0, length]`` and
    ``t`` in ``(0, T]``; times must keep 1e-3 of the shortest segment
    away from every breakpoint, where the derivative's blow-up would
    poison the quadrature.  Bad probes are rejected before any
    evaluation.  The memory derivatives of all live modes are evaluated
    together, one history call per segment for all probe times; a mode
    that is not live has a zero defect, because ``solve`` makes every
    forced mode live.  Each probe sums its ``evaluation_matrix`` row
    against its time's modal defect, all probes at once.  ``n_quad`` is
    an integer of at least 4, as in ``solve``.
    """
    check_count(n_quad, 4, "quadrature nodes")
    schedule = spec.schedule
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != 2 or probes.shape[0] == 0:
        raise DomainError("probes must be a nonempty array of (x, t) rows")
    ts, horizon = probes[:, 1], schedule.horizon
    # NaN fails every comparison, so it is caught here and not below
    outside = ~((0.0 < ts) & (ts <= horizon))
    if outside.any():
        raise DomainError(f"probe time {ts[outside][0]} outside "
                          f"(0, {horizon}]")
    floor = 1e-3 * float(np.min(schedule.widths()))
    marks = np.asarray(schedule.breakpoints)
    close = np.min(np.abs(marks[:, None] - ts), axis=0) < floor
    if close.any():
        raise DomainError(f"probe time {ts[close][0]} closer than "
                          f"{floor} to a breakpoint")
    xs, length = probes[:, 0], spec.operator.length
    outside = ~((0.0 <= xs) & (xs <= length))
    if outside.any():
        raise DomainError(f"probe x {xs[outside][0]} outside [0, {length}]")
    times, which = np.unique(probes[:, 1], return_inverse=True)
    values = field.mode_values(times)

    # rows are times, so each probe takes its time's modal vector as a row
    defect = np.zeros((times.size, spec.num_modes))
    rows = list(field.live)
    if rows:
        defect[:, rows] = (_vo_caputo_rows(field, rows, times, n_quad)
                           + field.basis.eigenvalues[rows, None] * values[rows]
                           - spec.source.values(times)[rows]).T
    synthesized = np.sum(field.basis.evaluation_matrix(xs) * defect[which],
                         axis=1)
    return float(np.max(np.abs(synthesized)))


def initial_limit_check(field: SolutionField) -> np.ndarray:
    """Distance to the initial data at a shrinking sequence of times.

    Returns the mode-vector norms of ``u(t) - u0`` at the
    ``INITIAL_LIMIT_FRACTIONS`` of the horizon; the caller judges whether
    the sequence decreases and lands small enough.
    """
    u0 = np.asarray(field.problem.initial_coefficients, dtype=float)
    horizon = field.problem.schedule.horizon
    times = horizon * np.array(INITIAL_LIMIT_FRACTIONS)
    return field.basis.fractional_norm(field.mode_values(times) - u0[:, None])


# ---------------------------------------------------------------------------
# assembled report


def default_space_time_probes(spec: ProblemSpec) -> np.ndarray:
    """Interior (x, t) probe grid respecting the breakpoint offset floor:
    five points in space, at sixths of the domain length, at each of
    four times per segment."""
    xs = spec.operator.length * np.linspace(0.0, 1.0, 7)[1:-1]
    rows = []
    for j in range(spec.schedule.num_segments):
        a, b = spec.schedule.segment(j)
        for t in np.linspace(a, b, 6)[1:-1]:
            rows.extend((x, t) for x in xs)
    return np.asarray(rows)


def build_report(field: SolutionField, n_quad: int = 24) -> RegularityReport:
    """Run every check against one solved field and collect the results;
    ``n_quad`` is an integer of at least 4, as in ``solve``."""
    check_count(n_quad, 4, "quadrature nodes")
    spec = field.problem
    segs = range(spec.schedule.num_segments)
    load_norms = tuple(segment_load_norm(spec, k) for k in segs)
    samples = tuple((*blowup_fit_samples(field, j),
                     source_fit_samples(spec, field, j, n_quad)[1])
                    for j in segs)
    return RegularityReport(
        derivative_rates=tuple(_fit_slope(t, d) for t, d, _ in samples),
        source_rates=tuple(_fit_slope(t, r) for t, _, r in samples),
        c0_dL=c0_dL_norm(field),
        w11=w11_norm(field),
        segment_load_norms=load_norms,
        data_functionals=_data_functionals(spec, load_norms),
        residual_max=residual_check(field, spec,
                                    default_space_time_probes(spec),
                                    n_quad=n_quad),
        junction_gaps=tuple(field.junction_gaps()),
        fit_samples=samples,
    )
