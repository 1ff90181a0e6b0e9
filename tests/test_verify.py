"""Tests for the regularity verification module.

Oracle notes: the W11 cross-check integrates the derivative norm by a
dense trapezoid rule in the variable ``y = (t - t_j)**order``, in which
the impulse part of the norm is smooth; the data-functional oracle uses
adaptive quadrature plus the closed-form weighted sup of a power load.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from fracstep.config import build_run_config, load_config
from fracstep.errors import DomainError, NumericError, RegularityError
from fracstep.operator import OperatorSpec
from fracstep.schedule import OrderSchedule
from fracstep.solver import ProblemSpec, SeparableSource, solve
from fracstep.special import ml_values
import fracstep.solver as S
import fracstep.verify as V


@pytest.fixture(scope="module")
def relax_run():
    sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.5,))
    spec = ProblemSpec(schedule=sched, operator=OperatorSpec(),
                       initial_coefficients=(1.0,))
    return spec, solve(spec, n_cells=128)


@pytest.fixture(scope="module")
def mixed_run():
    sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))
    spec = ProblemSpec(schedule=sched, operator=OperatorSpec(),
                       initial_coefficients=(1.0, 0.5))
    return spec, solve(spec, n_cells=96)


@pytest.fixture(scope="module")
def rate_run():
    # moderate eigenvalues keep the Mittag-Leffler factor flat across
    # the fit window, so the endpoint powers dominate both fits
    sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.5, 0.8))
    spec = ProblemSpec(schedule=sched, operator=OperatorSpec(diffusion=0.1),
                       initial_coefficients=(1.0, 0.5))
    return spec, solve(spec, n_cells=64)


def forced_problem(num_modes):
    sched = OrderSchedule(breakpoints=(0.0, 0.25, 0.625, 1.0),
                          orders=(0.3, 0.8, 0.5))
    coeffs = (1.0, 0.5, 0.25)[:num_modes]
    return ProblemSpec(
        schedule=sched, operator=OperatorSpec(), initial_coefficients=coeffs,
        source=SeparableSource(np.ones(num_modes), lambda t: 1.0 + 0.5 * t,
                               lambda t: 0.5 + 0.0 * t))


@pytest.fixture(scope="module")
def forced_run():
    spec = forced_problem(3)
    return spec, solve(spec, n_cells=16, n_quad=16)


@pytest.fixture(scope="module")
def equilibrium_run():
    sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))
    op = OperatorSpec()
    lams = op.eigenvalues(2)
    spec = ProblemSpec(
        schedule=sched, operator=op, initial_coefficients=(0.8, -0.3),
        source=SeparableSource((0.8 * lams[0], -0.3 * lams[1]),
                               lambda t: np.ones_like(t),
                               lambda t: np.zeros_like(t)))
    return spec, solve(spec, n_cells=48)


@pytest.fixture(scope="module")
def zero_run():
    sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.4, 0.6))
    spec = ProblemSpec(schedule=sched, operator=OperatorSpec(),
                       initial_coefficients=(0.0, 0.0))
    return spec, solve(spec, n_cells=16)


def trapezoid_w11(field):
    """Independent derivative-norm integral: dense graded trapezoid."""
    schedule = field.problem.schedule
    total = 0.0
    for j in range(schedule.num_segments):
        a, b = schedule.segment(j)
        order = schedule.orders[j]
        span = (b - a) ** order
        y = span * (np.arange(1, 8001) / 8000.0) ** 2
        t = np.minimum(a + y ** (1.0 / order), b)
        vals = np.linalg.norm(field.mode_derivatives(t), axis=0)
        integrand = vals * y ** (1.0 / order - 1.0) / order
        amps = field.segments[j].impulse_strengths
        start = np.linalg.norm(amps) / (order * math.gamma(order))
        total += np.trapezoid(np.concatenate(([start], integrand)),
                              np.concatenate(([0.0], y)))
    return total


class TestDataFunctional:
    def test_unforced_functional_is_initial_graph_norm(self, mixed_run):
        spec, _ = mixed_run
        lam = spec.operator.eigenvalues(2)
        expected = float(np.sqrt(lam[0] ** 2 + 0.25 * lam[1] ** 2))
        for j in (0, 1):
            assert V.data_functional(spec, j) == pytest.approx(
                expected, rel=1e-13)

    def test_single_mode_functional_is_eigenvalue(self, relax_run):
        spec, _ = relax_run
        assert V.data_functional(spec, 0) == pytest.approx(
            spec.operator.eigenvalues(1)[0], rel=1e-13)

    def test_power_load_pieces_match_quadrature_oracle(self):
        # f = X_1 t^0.2 with order 0.5 and margin 0.25: the W11 pieces
        # have closed forms and the weighted sup is attained at the
        # smallest node of the sampling mesh
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.5,))
        spec = ProblemSpec(
            schedule=sched, operator=OperatorSpec(),
            initial_coefficients=(0.0,),
            source=SeparableSource((1.0,), lambda t: t ** 0.2,
                                   lambda t: 0.2 * t ** -0.8))
        assert spec.regularity_margins == (0.25,)
        value_part = quad(lambda t: t ** 0.2, 0.0, 1.0)[0]
        rate_part = 1.0  # int_0^1 0.2 t^-0.8 dt
        from fracstep.quadrature import graded_mesh
        mesh = graded_mesh(0.0, 1.0, 512, 4.0)[1:]
        weighted_sup = float(np.max(0.2 * mesh ** -0.05))
        got = V.segment_load_norm(spec, 0)
        assert got == pytest.approx(value_part + rate_part + weighted_sup,
                                    abs=1e-6)

    def test_steep_derivative_violates_declaration(self):
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.5,))
        spec = ProblemSpec(
            schedule=sched, operator=OperatorSpec(),
            initial_coefficients=(0.0,),
            source=SeparableSource((1.0,), lambda t: t ** -0.5,
                                   lambda t: -0.5 * t ** -1.5))
        with pytest.raises(RegularityError):
            V.segment_load_norm(spec, 0)
        with pytest.raises(RegularityError):
            V.data_functional(spec, 0)

    def test_rejects_bad_segment_index(self, relax_run):
        spec, _ = relax_run
        with pytest.raises(DomainError):
            V.data_functional(spec, 1)
        with pytest.raises(DomainError):
            V.data_functional(spec, -1)


class TestSupNorm:
    def test_single_mode_maximum_at_start(self, relax_run):
        spec, field = relax_run
        assert V.c0_dL_norm(field) == pytest.approx(
            spec.operator.eigenvalues(1)[0], rel=1e-13)

    def test_zero_data_zero_norm(self, zero_run):
        _, field = zero_run
        assert V.c0_dL_norm(field) == 0.0

    def test_default_probes_cover_breakpoints(self, mixed_run):
        spec, _ = mixed_run
        probes = V.default_probe_times(spec.schedule)
        for t in spec.schedule.breakpoints:
            assert t in probes
        assert np.all(np.diff(probes) > 0.0)
        assert probes[0] == 0.0 and probes[-1] == spec.schedule.horizon


class TestW11Norm:
    def test_single_mode_closed_form(self, relax_run):
        spec, field = relax_run
        lam = spec.operator.eigenvalues(1)[0]
        # monotone decay: the total variation telescopes
        exact = 1.0 - float(ml_values(0.5, 1.0, -lam))
        assert V.w11_norm(field) == pytest.approx(exact, abs=1e-10)

    def test_matches_trapezoid_second_path(self, mixed_run):
        _, field = mixed_run
        assert V.w11_norm(field) == pytest.approx(
            trapezoid_w11(field), abs=1e-4)

    def test_equilibrium_has_no_variation(self, equilibrium_run):
        _, field = equilibrium_run
        assert V.w11_norm(field) == 0.0

    def test_near_classical_limit(self):
        # order close to one: the heat semigroup total variation
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.999,))
        spec = ProblemSpec(schedule=sched, operator=OperatorSpec(),
                           initial_coefficients=(1.0,))
        field = solve(spec, n_cells=48)
        lam = spec.operator.eigenvalues(1)[0]
        classical = 1.0 - np.exp(-lam)
        assert V.w11_norm(field) == pytest.approx(classical, rel=0.02)


def source_rate(spec, field, j):
    return V._fit_slope(*V.source_fit_samples(spec, field, j))


class TestRateFits:
    def test_first_segment_blowup_rate(self, rate_run):
        _, field = rate_run
        assert V.blowup_rate_fit(field, 0) == pytest.approx(-0.5, abs=0.05)

    def test_second_segment_blowup_rate(self, rate_run):
        _, field = rate_run
        assert V.blowup_rate_fit(field, 1) == pytest.approx(-0.2, abs=0.05)

    def test_mixed_problem_second_segment_rate(self, mixed_run):
        _, field = mixed_run
        assert V.blowup_rate_fit(field, 1) == pytest.approx(-0.2, abs=0.05)

    def test_equilibrium_reports_sentinel(self, equilibrium_run):
        spec, field = equilibrium_run
        assert V.blowup_rate_fit(field, 0) is None
        assert V.blowup_rate_fit(field, 1) is None
        assert source_rate(spec, field, 1) is None

    def test_smooth_source_first_segment_rate_flat(self):
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.5,))
        spec = ProblemSpec(
            schedule=sched, operator=OperatorSpec(),
            initial_coefficients=(0.3,),
            source=SeparableSource((1.0,), lambda t: 1.0 + np.sin(t),
                                   np.cos))
        field = solve(spec, n_cells=64)
        assert abs(source_rate(spec, field, 0)) < 0.05

    def test_memory_rate_respects_one_sided_bound(self, mixed_run):
        spec, field = mixed_run
        fit = source_rate(spec, field, 1)
        order, margin = 0.8, spec.regularity_margins[1]
        assert fit is not None
        assert fit >= -order - margin - 0.05
        assert fit < -0.4  # the memory correction does blow up

    def test_unforced_first_segment_source_sentinel(self, mixed_run):
        spec, field = mixed_run
        assert source_rate(spec, field, 0) is None

    def test_rejects_bad_segment_index(self, mixed_run):
        spec, field = mixed_run
        with pytest.raises(DomainError):
            V.source_fit_samples(spec, field, 2)


class TestResidual:
    def test_memory_derivative_identity_single_mode(self, relax_run):
        # D^b u = -lam u pointwise for the pure relaxation mode
        spec, field = relax_run
        lam = spec.operator.eigenvalues(1)[0]
        times = np.array([0.11, 0.37, 0.93])
        mem = V._vo_caputo_rows(field, [0], times, 24)[0]
        np.testing.assert_allclose(
            mem, -lam * field.mode_trajectory(1, times), rtol=0.0, atol=1e-9)

    def test_single_mode_residual_tiny(self, relax_run):
        spec, field = relax_run
        probes = V.default_space_time_probes(spec)
        assert V.residual_check(field, spec, probes) <= 1e-5

    def test_mixed_problem_residual(self, mixed_run):
        spec, field = mixed_run
        probes = V.default_space_time_probes(spec)
        assert V.residual_check(field, spec, probes) <= 1e-3

    def test_zero_data_zero_residual(self, zero_run):
        spec, field = zero_run
        probes = V.default_space_time_probes(spec)
        assert V.residual_check(field, spec, probes) == 0.0

    def test_rejects_probe_near_breakpoint(self, relax_run):
        spec, field = relax_run
        with pytest.raises(DomainError):
            V.residual_check(field, spec, np.array([[0.5, 1e-7]]))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -0.25, 1.5])
    def test_rejects_probe_time_outside_horizon(self, mixed_run, monkeypatch,
                                                t):
        # NaN passes the breakpoint-distance check, whose comparisons are
        # false; every such time is named before anything is evaluated
        spec, field = mixed_run

        def evaluate(*args, **kwargs):
            raise AssertionError("a bad probe time reached evaluation")

        monkeypatch.setattr(type(field), "mode_values", evaluate)
        with pytest.raises(DomainError,
                           match=rf"probe time {t} outside \(0, 1.0\]"):
            V.residual_check(field, spec, np.array([[0.5, 0.3], [0.5, t]]))

    @pytest.mark.parametrize("length", [2.0, 0.5])
    def test_default_probes_span_the_domain(self, length):
        # the x grid sits at sixths of the domain, whatever its length
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.5,))
        spec = ProblemSpec(schedule=sched,
                           operator=OperatorSpec(length=length),
                           initial_coefficients=(1.0,))
        probes = V.default_space_time_probes(spec)
        np.testing.assert_allclose(np.unique(probes[:, 0]),
                                   length * np.arange(1, 6) / 6.0,
                                   rtol=1e-15)
        field = solve(spec, n_cells=64)
        assert V.residual_check(field, spec, probes) <= 1e-5

    @pytest.mark.parametrize("x", [-0.1, 1.0 + 1e-9, np.nan])
    def test_rejects_probe_outside_domain(self, relax_run, x):
        spec, field = relax_run
        with pytest.raises(DomainError):
            V.residual_check(field, spec, np.array([[0.5, 0.3], [x, 0.3]]))

    def test_rejects_malformed_probes(self, relax_run):
        spec, field = relax_run
        with pytest.raises(DomainError):
            V.residual_check(field, spec, np.array([0.5, 0.3]))
        with pytest.raises(DomainError):
            V.residual_check(field, spec, np.empty((0, 2)))

    def test_caputo_array_matches_scalar_calls(self, mixed_run):
        # times on both segments, the breakpoint and the horizon; each
        # past segment is one call over all later times, bit for bit,
        # and a time alone on its segment's start has no current part
        _, field = mixed_run
        times = np.array([[0.05, 0.3, 0.5], [0.5 + 1e-6, 0.77, 1.0]])
        got = V._vo_caputo_rows(field, [0, 1], times, 24)
        assert got.shape == (2,) + times.shape
        for n in (1, 2):
            want = [[V._vo_caputo_rows(field, [n - 1], np.array(t), 24)[0]
                     for t in row] for row in times]
            np.testing.assert_array_equal(got[n - 1], want)


class TestModeBatchedHistory:
    """Verification evaluates every memory integral for all modes at once."""

    def test_rows_equal_one_mode_calls(self, forced_run):
        # past segments, the current segment, a breakpoint and the horizon
        _, field = forced_run
        times = np.array([0.1, 0.25, 0.3, 0.625 + 1e-6, 0.8, 1.0])
        got = V._vo_caputo_rows(field, [0, 1, 2], times, 12)
        assert got.shape == (3, times.size)
        for n in (1, 2, 3):
            np.testing.assert_array_equal(
                got[n - 1], V._vo_caputo_rows(field, [n - 1], times, 12)[0])
        for k in range(3):
            rows = V._history(field, [0, 2], k, times[times >= 0.625], 0.5,
                              12)
            for i, n in enumerate((1, 3)):
                np.testing.assert_array_equal(rows[i], V._history(
                    field, [n - 1], k, times[times >= 0.625], 0.5, 12)[0])

    def test_history_calls_do_not_grow_with_modes(self, monkeypatch):
        # one scaled_power_history call per past segment in the solve,
        # for both kernel exponents, and as many in the report for any
        # number of modes
        counts = []

        def count(module):
            real = module.scaled_power_history

            def counting(*args, **kwargs):
                counts[-1][module.__name__] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "scaled_power_history", counting)

        count(S)
        count(V)
        for num_modes in (1, 3):
            counts.append({S.__name__: 0, V.__name__: 0})
            spec = forced_problem(num_modes)
            field = solve(spec, n_cells=8, n_quad=8)
            V.build_report(field, n_quad=8)
        segments = 3
        past = sum(range(segments))
        # the report: the source fits once per (segment, past segment),
        # and the residual once per segment for the probe times of every
        # segment from it on, each time with its own segment's order
        report = past + segments
        assert counts == [{S.__name__: past, V.__name__: report}] * 2


class TestInitialLimit:
    def test_single_mode_matches_relaxation_deficit(self, relax_run):
        spec, field = relax_run
        lam = spec.operator.eigenvalues(1)[0]
        devs = V.initial_limit_check(field)
        ts = np.array([1e-3, 1e-4, 1e-5, 1e-6])
        exact = 1.0 - ml_values(0.5, 1.0, -lam * ts ** 0.5)
        np.testing.assert_allclose(devs, exact, rtol=1e-9)
        assert np.all(np.diff(devs) < 0.0)

    def test_mixed_problem_sequence_decreases(self, mixed_run):
        _, field = mixed_run
        devs = V.initial_limit_check(field)
        assert np.all(np.diff(devs) < 0.0)

    def test_zero_data_is_exact(self, zero_run):
        _, field = zero_run
        assert np.all(V.initial_limit_check(field) == 0.0)


class TestQuadratureNodes:
    """Verify takes ``n_quad`` by the rule ``solve`` does: an integer of
    at least 4."""

    @pytest.mark.parametrize("n_quad", [0, 1, 3, 4.5, 24.0, True])
    def test_residual_check(self, relax_run, n_quad):
        spec, field = relax_run
        with pytest.raises(DomainError, match="quadrature nodes"):
            V.residual_check(field, spec, np.array([[0.5, 0.3]]),
                             n_quad=n_quad)

    @pytest.mark.parametrize("n_quad", [1, 3.9])
    def test_build_report(self, relax_run, n_quad):
        _, field = relax_run
        with pytest.raises(DomainError, match="quadrature nodes"):
            V.build_report(field, n_quad=n_quad)

    @pytest.mark.parametrize("n_quad", [2, 8.0])
    def test_source_fit_samples(self, mixed_run, n_quad):
        spec, field = mixed_run
        with pytest.raises(DomainError, match="quadrature nodes"):
            V.source_fit_samples(spec, field, 1, n_quad)

    def test_four_nodes_are_enough(self, relax_run):
        spec, field = relax_run
        assert np.isfinite(V.residual_check(field, spec,
                                            np.array([[0.5, 0.3]]),
                                            n_quad=np.int64(4)))


class TestReport:
    def test_build_report_mixed(self, mixed_run):
        spec, field = mixed_run
        report = V.build_report(field)
        assert report.junction_gaps == (0.0,)
        assert report.residual_max <= 1e-3
        assert report.source_rates[0] is None
        assert report.derivative_rates[1] == pytest.approx(-0.2, abs=0.05)
        assert report.w11 > 0.0 and report.c0_dL > 0.0
        assert report.segment_load_norms == (0.0, 0.0)
        assert report.data_functionals[0] == report.data_functionals[1]
        payload = json.dumps(report.as_dict())
        assert "junction_gaps" in payload

    def test_data_functional_is_the_report_sum(self):
        # the forced_modes benchmark problem, whose load norms add up to
        # different last bits in a sequential and a running sum
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "workloads", "forced_modes.json")
        cfg = build_run_config(load_config(path))
        spec = cfg.problem
        field = solve(spec, n_cells=cfg.run["cells"], n_quad=cfg.run["quad"])
        report = V.build_report(field, n_quad=cfg.run["verify_quad"])
        for j in range(spec.schedule.num_segments):
            assert V.data_functional(spec, j) == report.data_functionals[j]

    def test_report_rejects_non_finite_entries(self):
        with pytest.raises(NumericError):
            V.RegularityReport(
                derivative_rates=(None,), source_rates=(None,),
                c0_dL=float("nan"), w11=0.0, segment_load_norms=(0.0,),
                data_functionals=(1.0,), residual_max=0.0,
                junction_gaps=())
        with pytest.raises(NumericError):
            V.RegularityReport(
                derivative_rates=(float("inf"),), source_rates=(None,),
                c0_dL=1.0, w11=0.0, segment_load_norms=(0.0,),
                data_functionals=(1.0,), residual_max=0.0,
                junction_gaps=())

    def test_estimate_ratio_scale_invariant(self):
        # (sup norm + variation) / data functional is the structural
        # form of the well-posedness estimate; it must not move under
        # joint scaling of the data
        sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0),
                              orders=(0.5, 0.8))
        op = OperatorSpec(diffusion=0.1)

        def ratio(scale):
            spec = ProblemSpec(schedule=sched, operator=op,
                               initial_coefficients=(scale, 0.5 * scale))
            field = solve(spec, n_cells=48)
            j = sched.num_segments - 1
            return ((V.c0_dL_norm(field) + V.w11_norm(field))
                    / V.data_functional(spec, j))

        r1, r2 = ratio(1.0), ratio(2.0)
        assert r2 == pytest.approx(r1, rel=1e-9)
