"""Numerical verification of the solution's regularity structure.

Everything here treats a solved field as an object under test: norms are
recomputed by quadrature, blow-up rates are measured by log-log fits,
and the equation itself is re-evaluated pointwise through an independent
quadrature of the variable-order memory integral.  Estimates whose
constants are existential are checked as exponent fits or measured
ratios, never as fixed-constant assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, RegularityError
from .operator import ModalBasis
from .quadrature import composite_graded_integral, graded_mesh, \
    scaled_power_history
from .schedule import OrderSchedule
from .solver import ProblemSpec, SolutionField
from .special import gamma_fn, ml_values

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
    "source_rate_fit",
    "vo_caputo_derivative",
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


@dataclass(frozen=True)
class RegularityReport:
    """Measured regularity summary of one solved problem.

    Rate entries are fitted exponents, ``None`` standing for "nothing to
    fit" (equilibrium or unforced data); every other entry must be
    finite.
    """

    derivative_rates: tuple
    source_rates: tuple
    c0_dL: float
    w11: float
    segment_load_norms: tuple
    data_functionals: tuple
    residual_max: float
    junction_gaps: tuple

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
        return {
            "derivative_rates": list(self.derivative_rates),
            "source_rates": list(self.source_rates),
            "c0_dL": self.c0_dL,
            "w11": self.w11,
            "segment_load_norms": list(self.segment_load_norms),
            "data_functionals": list(self.data_functionals),
            "residual_max": self.residual_max,
            "junction_gaps": list(self.junction_gaps),
        }


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


def _fit_offsets(width: float, count: int = 9) -> np.ndarray:
    lo, hi = FIT_OFFSET_RANGE
    return width * np.geomspace(lo, hi, count)


def _derivative_norms(field: SolutionField, times: np.ndarray) -> np.ndarray:
    """l2 norm across modes of the time derivative at each of ``times``."""
    rows = field.mode_derivatives(times)
    return np.sqrt(np.sum(np.square(rows), axis=0))


# ---------------------------------------------------------------------------
# data-side functional


def _load_derivative_norms(spec: ProblemSpec, times: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(spec.source.derivatives(times)), axis=0))


def _load_value_norms(spec: ProblemSpec, times: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(spec.source.values(times)), axis=0))


def data_functional(spec: ProblemSpec, j: int, n_cells: int = 48,
                    n_gauss: int = 16) -> float:
    """Cumulative data size controlling the solution up to segment ``j``.

    Sums the graph norm of the initial data with, per segment through
    ``j``, the load's W11-in-time norm and the sup of its derivative
    weighted by the declared blow-up power of the distance to the
    segment start.  A load whose derivative grows steeper near a segment
    start than the declared power structure admits is rejected.
    """
    schedule = spec.schedule
    if not 0 <= j < schedule.num_segments:
        raise DomainError(
            f"segment index {j} out of range [0, {schedule.num_segments})")
    basis = ModalBasis(spec.operator, spec.num_modes)
    total = basis.fractional_norm(np.asarray(spec.initial_coefficients), 1.0)
    for k in range(j + 1):
        total += segment_load_norm(spec, k, n_cells=n_cells, n_gauss=n_gauss)
    return float(total)


def segment_load_norm(spec: ProblemSpec, k: int, n_cells: int = 48,
                      n_gauss: int = 16) -> float:
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

    rate_norm = lambda t: _load_derivative_norms(spec, np.atleast_1d(t))
    offsets = _fit_offsets(width)
    sigma = _fit_slope(offsets, rate_norm(a + offsets))
    if sigma is not None and sigma <= order + margin - 2.0 + 0.05:
        raise RegularityError(
            f"load derivative grows like offset**{sigma:.3f} near segment "
            f"{k}, steeper than the declared power {order + margin - 2.0:.3f} "
            "allows for an integrable derivative")

    value_part = composite_graded_integral(
        lambda s: _load_value_norms(spec, s), a, b,
        left_exponent=0.0, n_cells=n_cells, grading=2.0, n_gauss=n_gauss)
    if sigma is None:
        rate_part = 0.0
        weighted_sup = 0.0
    else:
        whiten = min(max(sigma, -0.95), 4.0)
        rate_part = composite_graded_integral(
            lambda s: rate_norm(s) * (s - a) ** (-whiten), a, b,
            left_exponent=whiten, n_cells=n_cells, grading=3.0,
            n_gauss=n_gauss)
        sample = graded_mesh(a, b, 512, 4.0)[1:]
        weighted_sup = float(np.max(
            (sample - a) ** (order + margin) * rate_norm(sample)))
    return float(value_part + rate_part + weighted_sup)


# ---------------------------------------------------------------------------
# solution-side norms


def default_probe_times(schedule: OrderSchedule,
                        per_segment: int = 24) -> np.ndarray:
    """Time probes: breakpoints plus graded clusters flanking each one."""
    probes = [np.asarray(schedule.breakpoints)]
    for j in range(schedule.num_segments):
        a, b = schedule.segment(j)
        width = b - a
        cluster = width * np.geomspace(1e-6, 0.5, 8)
        probes.append(a + cluster)
        probes.append(b - cluster)
        probes.append(np.linspace(a, b, per_segment))
    times = np.unique(np.concatenate(probes))
    return times[(times >= 0.0) & (times <= schedule.horizon)]


def c0_dL_norm(field: SolutionField, probes=None) -> float:
    """Sup over probe times of the graph norm of the mode vector."""
    if probes is None:
        probes = default_probe_times(field.problem.schedule)
    probes = np.asarray(probes, dtype=float)
    if probes.size == 0:
        raise DomainError("need at least one probe time")
    values = field.mode_values(probes)
    return max(field.basis.fractional_norm(column, 1.0)
               for column in values.T)


def w11_norm(field: SolutionField, n_cells: int = 48,
             n_gauss: int = 16) -> float:
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
        amps = seg.impulse_strengths[hit, None]
        lams = seg.eigenvalues[hit, None]

        def impulse_norm_y(y):
            y = np.atleast_1d(y)
            if not amps.size:
                return np.zeros(y.size)
            rows = amps * ml_values(order, order, -lams * y)
            return np.sqrt(np.sum(np.square(rows), axis=0))

        span = (b - a) ** order
        part = composite_graded_integral(
            impulse_norm_y, 0.0, span, left_exponent=0.0,
            n_cells=8, grading=1.0, n_gauss=24) / order

        def correction(s):
            s = np.atleast_1d(s)
            dt = s - a
            base = dt ** (order - 1.0) * impulse_norm_y(dt ** order)
            return _derivative_norms(field, s) - base

        part += composite_graded_integral(
            correction, a, b, left_exponent=0.0,
            n_cells=n_cells, grading=3.0, n_gauss=n_gauss)
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
    return offsets, _derivative_norms(field, a + offsets)


def blowup_rate_fit(field: SolutionField, j: int):
    """Fitted power of the derivative blow-up entering segment ``j``.

    Returns ``None`` when the derivative is at numerical zero across the
    probe offsets (equilibrium data), which is a result, not an error.
    """
    offsets, values = blowup_fit_samples(field, j)
    return _fit_slope(offsets, values)


def _history(field: SolutionField, rows: list[int], k: int, times,
             kernel_exponent: float, n_quad: int) -> np.ndarray:
    """Kernel integrals of modes' derivatives over segment ``k``.

    ``rows`` are zero-based mode indices; the result has one row per
    mode, then the shape of ``times``.  The segment is cut at the
    earliest of ``times``, so a scalar time inside segment ``k``
    integrates its part up to that time, and times past the segment end
    share one call.  Independent of the solver's internal tabulations:
    the derivatives are re-evaluated through the public
    ``mode_derivatives``, with the segment's own power scaled out so the
    transformed profile is smooth.  All rows share one
    ``scaled_power_history`` call, and each equals a call for its mode
    alone, bit for bit.
    """
    schedule = field.problem.schedule
    a, b = schedule.segment(k)
    b = min(b, float(np.min(times)))
    order = schedule.orders[k]
    inv = 1.0 / order

    def profile(w):
        w = np.atleast_1d(w)
        return field.mode_derivatives(a + w ** inv)[rows] \
            * w ** (inv - 1.0) * order

    # profile(w) = order * w**(1/order - 1) * u'(a + w**(1/order)) makes
    # (s-a)**(order-1) * profile((s-a)**order) equal u'(s) exactly
    return scaled_power_history(profile, a, b, times, kernel_exponent, order,
                                n=n_quad) / order


def source_fit_samples(spec: ProblemSpec, field: SolutionField, j: int,
                       n_quad: int = 24):
    """Probe offsets and assembled-load derivative norms for segment ``j``.

    The segment load is the base load minus the memory of all earlier
    segments; its derivative adds the differentiated memory kernel,
    which is what carries the blow-up for ``j >= 1``.  Each earlier
    segment's memory is one history call for all nonzero modes.
    """
    schedule = spec.schedule
    if not 0 <= j < schedule.num_segments:
        raise DomainError(
            f"segment index {j} out of range [0, {schedule.num_segments})")
    a, b = schedule.segment(j)
    order = schedule.orders[j]
    offsets = _fit_offsets(b - a)
    prefac = order / gamma_fn(1.0 - order)
    times = a + offsets

    # rows are offsets, so each norm sums its modes in mode order
    per_mode = np.ascontiguousarray(spec.source.derivatives(times).T)
    live = list(field.live)
    for k in range(j) if live else ():
        per_mode[:, live] = per_mode[:, live] + prefac * _history(
            field, live, k, times, order + 1.0, n_quad).T
    return offsets, np.sqrt(np.sum(per_mode ** 2, axis=1))


def source_rate_fit(spec: ProblemSpec, field: SolutionField, j: int,
                    n_quad: int = 24):
    """Fitted power of the assembled segment load's derivative."""
    offsets, values = source_fit_samples(spec, field, j, n_quad)
    return _fit_slope(offsets, values)


# ---------------------------------------------------------------------------
# equation residual and initial limit


def vo_caputo_derivative(field: SolutionField, n: int, t,
                         n_quad: int = 24):
    """Variable-order memory derivative of mode ``n`` at time ``t``.

    Quadrature of the defining integral with the exponent frozen at the
    current time's order, using only the public derivative evaluator;
    this is the independent path the residual check relies on.  ``t``
    may be an array: times on the same segment share one call per past
    segment.  A scalar gives a float.  The one-row case of the residual
    check's evaluation of all modes at once, and equal to its row bit
    for bit.
    """
    num_modes = field.problem.num_modes
    if not 1 <= n <= num_modes:
        raise DomainError(f"mode index {n} outside [1, {num_modes}]")
    t = np.asarray(t, dtype=float)
    out = _vo_caputo_rows(field, [n - 1], t, n_quad)[0]
    return float(out) if out.ndim == 0 else out


def _vo_caputo_rows(field: SolutionField, rows: list[int], t: np.ndarray,
                    n_quad: int) -> np.ndarray:
    """:func:`vo_caputo_derivative` of the zero-based modes ``rows``.

    Every history integral is one call for all rows: one per past
    segment for the times on each segment, and one per time for the
    current segment, which is cut at each time separately.  The result
    has shape ``(len(rows),) + t.shape``.
    """
    schedule = field.problem.schedule
    flat = t.reshape(-1)
    outside = ~((0.0 < flat) & (flat <= schedule.horizon))
    if outside.any():
        raise DomainError(
            f"time {flat[outside][0]} outside the half-open horizon "
            f"(0, {schedule.horizon}]")
    # a time's segment is the number of interior breakpoints at or below
    # it, so the final time falls in the last segment
    current = np.searchsorted(schedule.breakpoints[1:-1], flat, "right")
    out = np.empty((len(rows), flat.size))
    for j in np.unique(current).tolist():
        here = np.flatnonzero(current == j)
        kappa = schedule.orders[j]
        total = np.zeros((len(rows), here.size))
        for k in range(j):
            total += _history(field, rows, k, flat[here], kappa, n_quad)
        a, _ = schedule.segment(j)
        for i, s in enumerate(flat[here].tolist()):
            if s > a:
                total[:, i] += _history(field, rows, j, s, kappa, n_quad)
        out[:, here] = total / gamma_fn(1.0 - kappa)
    return out.reshape((len(rows),) + t.shape)


def residual_check(field: SolutionField, spec: ProblemSpec, probes,
                   floor_fraction: float = 1e-3,
                   n_quad: int = 24) -> float:
    """Max absolute equation defect over space-time probe points.

    ``probes`` holds ``(x, t)`` rows; times must keep the configured
    fraction of the shortest segment away from every breakpoint, where
    the derivative's blow-up would poison the quadrature.  The memory
    derivatives of all modes are evaluated together, one history call
    per segment and group of times.
    """
    schedule = spec.schedule
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != 2 or probes.shape[0] == 0:
        raise DomainError("probes must be a nonempty array of (x, t) rows")
    floor = floor_fraction * float(np.min(schedule.widths()))
    marks = np.asarray(schedule.breakpoints)
    for t in probes[:, 1]:
        if np.min(np.abs(marks - t)) < floor:
            raise DomainError(
                f"probe time {t} closer than {floor} to a breakpoint")
    times = np.unique(probes[:, 1])
    values = field.mode_values(times)

    # rows are times, so each row is one contiguous modal vector
    defect = np.zeros((times.size, spec.num_modes))
    rows = np.flatnonzero(np.isin(np.arange(spec.num_modes), field.live)
                          | spec.source.forced).tolist()
    if rows:
        defect[:, rows] = (_vo_caputo_rows(field, rows, times, n_quad)
                           + field.basis.eigenvalues[rows, None] * values[rows]
                           - spec.source.values(times)[rows]).T

    worst = 0.0
    for t, row in zip(times, defect):
        xs = probes[probes[:, 1] == t, 0]
        vals = np.atleast_1d(field.basis.synthesize(row, xs))
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def initial_limit_check(field: SolutionField, u0=None) -> np.ndarray:
    """Distance to the initial data at a shrinking sequence of times.

    Returns the mode-vector norms of ``u(t) - u0`` at ``10**-3`` through
    ``10**-6`` of the horizon; the caller judges whether the sequence
    decreases and lands small enough.
    """
    if u0 is None:
        u0 = np.asarray(field.problem.initial_coefficients, dtype=float)
    else:
        u0 = np.asarray(u0, dtype=float)
    horizon = field.problem.schedule.horizon
    times = horizon * np.array([1e-3, 1e-4, 1e-5, 1e-6])
    values = field.mode_values(times)
    return np.array([float(np.linalg.norm(column - u0))
                     for column in values.T])


# ---------------------------------------------------------------------------
# assembled report


def default_space_time_probes(spec: ProblemSpec, n_space: int = 5,
                              n_time: int = 4) -> np.ndarray:
    """Interior (x, t) probe grid respecting the breakpoint offset floor."""
    xs = np.linspace(0.0, 1.0, n_space + 2)[1:-1]
    rows = []
    for j in range(spec.schedule.num_segments):
        a, b = spec.schedule.segment(j)
        for t in np.linspace(a, b, n_time + 2)[1:-1]:
            rows.extend((x, t) for x in xs)
    return np.asarray(rows)


def build_report(field: SolutionField, probes=None,
                 n_quad: int = 24) -> RegularityReport:
    """Run every check against one solved field and collect the results."""
    spec = field.problem
    schedule = spec.schedule
    if probes is None:
        probes = default_space_time_probes(spec)
    segs = range(schedule.num_segments)
    load_norms = tuple(segment_load_norm(spec, k) for k in segs)
    basis_norm = field.basis.fractional_norm(
        np.asarray(spec.initial_coefficients), 1.0)
    running = np.cumsum((0.0,) + load_norms)[1:]
    return RegularityReport(
        derivative_rates=tuple(blowup_rate_fit(field, j) for j in segs),
        source_rates=tuple(source_rate_fit(spec, field, j, n_quad)
                           for j in segs),
        c0_dL=c0_dL_norm(field),
        w11=w11_norm(field),
        segment_load_norms=load_norms,
        data_functionals=tuple(float(basis_norm + r) for r in running),
        residual_max=residual_check(field, spec, probes, n_quad=n_quad),
        junction_gaps=tuple(field.junction_gaps()),
    )
