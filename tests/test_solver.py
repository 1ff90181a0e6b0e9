"""Behavioral tests of the per-mode segment recursion.

The two closed-form anchors are the constant-order relaxation
``E_{b,1}(-lam t**b)`` and manufactured smooth trajectories; the
multi-segment runs must reproduce the former through the memory
machinery whenever all segment orders coincide.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import CubicTrajectory, ml_oracle

from fracstep import quadrature, solver as solver_module
from fracstep.errors import DomainError, NumericError
from fracstep.operator import OperatorSpec
from fracstep.schedule import OrderSchedule
from fracstep.solver import ProblemSpec, SeparableSource, solve
from fracstep.special import (
    ml,
    ml_values,
)

OP = OperatorSpec()
LAM1 = math.pi ** 2
BETA = 0.5
TIMES = np.linspace(0.0, 1.0, 101)


def _relax_reference(lam):
    return ml_values(BETA, 1.0, -lam * TIMES ** BETA)


def _segment_value(seg, t):
    """Value of the first row of one segment record alone."""
    return solver_module._values(seg, [0], np.asarray(t, dtype=float))[0]


@pytest.fixture(scope="module")
def single_run():
    sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))
    prob = ProblemSpec(schedule=sched, operator=OP,
                       initial_coefficients=(1.0,))
    return solve(prob, n_cells=128, n_quad=24)


@pytest.fixture(scope="module")
def split_run():
    sched = OrderSchedule(breakpoints=(0.0, 0.4, 1.0), orders=(BETA, BETA))
    prob = ProblemSpec(schedule=sched, operator=OP,
                       initial_coefficients=(1.0,))
    return solve(prob, n_cells=256, n_quad=24)


@pytest.fixture(scope="module")
def mixed_run():
    sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))
    prob = ProblemSpec(schedule=sched, operator=OP,
                       initial_coefficients=(1.0,))
    return solve(prob, n_cells=96, n_quad=24)


class TestSources:
    def test_zero_source(self):
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))
        src = ProblemSpec(schedule=sched, operator=OP,
                          initial_coefficients=(1.0, 0.5, 0.0),
                          source=None).source
        ts = np.linspace(0.0, 1.0, 7)
        # truthy, so a ``spec.source or fallback`` keeps it
        assert src
        assert src.num_modes == 3
        assert np.all(src.values(ts) == 0.0)
        assert np.all(src.derivatives(ts) == 0.0)
        assert not src.forced.any()
        with pytest.raises(DomainError):
            SeparableSource(np.zeros(0), np.zeros_like, np.zeros_like)

    def test_separable_source_routes_coefficients(self):
        coefficients = (2.0, 0.0, -0.3)
        value = lambda t: np.asarray(t) ** 2 + np.sin(np.asarray(t))
        rate = lambda t: 2.0 * np.asarray(t) + np.cos(np.asarray(t))
        src = SeparableSource(coefficients, value, rate)
        assert src.forced.tolist() == [True, False, True]
        for ts in (0.5, np.array([0.5, 1.0]),
                   np.array([[0.0, 0.25, 0.3], [0.5, 0.7, 1.0]])):
            t = np.asarray(ts, dtype=float)
            values, rates = src.values(ts), src.derivatives(ts)
            assert values.shape == rates.shape == (3,) + t.shape
            np.testing.assert_allclose(values[0], 2.0 * value(t))
            np.testing.assert_allclose(rates[0], 2.0 * rate(t))
            assert np.all(values[1] == 0.0)
            for n, c in enumerate(coefficients, start=1):
                # each row is the one-mode product, bit for bit
                np.testing.assert_array_equal(values[n - 1], c * value(t))
                np.testing.assert_array_equal(rates[n - 1], c * rate(t))
                np.testing.assert_array_equal(src.mode_values(n, ts),
                                              values[n - 1])

    def test_separable_source_validation(self):
        good = lambda t: np.asarray(t)
        with pytest.raises(DomainError):
            SeparableSource((), good, good)
        with pytest.raises(DomainError):
            SeparableSource(((1.0, 2.0),), good, good)
        with pytest.raises(DomainError):
            SeparableSource((math.nan,), good, good)
        # a profile must return an array of its times' shape; a scalar
        # constant load used to crash solve with a bare IndexError
        ts = np.array([0.5, 1.0])
        with pytest.raises(DomainError, match="time_value returned shape"):
            SeparableSource((1.0,), lambda t: 1.0, good).values(ts)
        too_long = SeparableSource((1.0,), good, lambda t: np.zeros(3))
        with pytest.raises(DomainError, match="time_derivative"):
            too_long.derivatives(ts)
        for breakpoints, orders in (((0.0, 1.0), (BETA,)),
                                    ((0.0, 0.5, 1.0), (0.3, 0.8))):
            for initial in ((1.0,), (1.0, 0.5)):
                prob = ProblemSpec(
                    schedule=OrderSchedule(breakpoints, orders), operator=OP,
                    initial_coefficients=initial,
                    source=SeparableSource(np.ones(len(initial)),
                                           lambda t: 1.0, lambda t: 0.0))
                with pytest.raises(DomainError, match="time_value"):
                    solve(prob, n_cells=8, n_quad=8)


class TestProblemSpec:
    SCHED = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))

    def test_default_margins_take_half_the_room(self):
        prob = ProblemSpec(schedule=self.SCHED, operator=OP,
                           initial_coefficients=(1.0,))
        assert prob.regularity_margins == pytest.approx((0.35, 0.1))

    def test_margin_validation(self):
        with pytest.raises(DomainError):
            ProblemSpec(schedule=self.SCHED, operator=OP,
                        initial_coefficients=(1.0,),
                        regularity_margins=(0.35,))
        with pytest.raises(DomainError):
            ProblemSpec(schedule=self.SCHED, operator=OP,
                        initial_coefficients=(1.0,),
                        regularity_margins=(0.8, 0.1))
        with pytest.raises(DomainError):
            ProblemSpec(schedule=self.SCHED, operator=OP,
                        initial_coefficients=(1.0,),
                        regularity_margins=(0.0, 0.1))

    def test_initial_coefficient_validation(self):
        with pytest.raises(DomainError):
            ProblemSpec(schedule=self.SCHED, operator=OP,
                        initial_coefficients=())
        with pytest.raises(DomainError):
            ProblemSpec(schedule=self.SCHED, operator=OP,
                        initial_coefficients=(1.0, math.inf))

    def test_source_mode_count_must_match(self):
        with pytest.raises(DomainError):
            ProblemSpec(schedule=self.SCHED, operator=OP,
                        initial_coefficients=(1.0, 0.0),
                        source=SeparableSource(np.zeros(3), np.zeros_like,
                                               np.zeros_like))

    def test_num_modes(self):
        prob = ProblemSpec(schedule=self.SCHED, operator=OP,
                           initial_coefficients=(1.0, 0.5, 0.0))
        assert prob.num_modes == 3


class TestConstantOrder:
    def test_matches_relaxation_closed_form(self, single_run):
        lam = single_run.basis.eigenvalues[0]
        got = single_run.mode_trajectory(1, TIMES)
        assert np.abs(got - _relax_reference(lam)).max() <= 1e-8

    def test_initial_value_exact(self, single_run):
        assert single_run.mode_trajectory(1, 0.0) == 1.0

    def test_derivative_closed_form(self, single_run):
        lam = single_run.basis.eigenvalues[0]
        par = (BETA, BETA)
        for t in (0.01, 0.2, 0.7, 1.0):
            want = -lam * t ** (BETA - 1.0) * ml(par, -lam * t ** BETA)
            got = single_run.mode_derivatives(t)[0]
            assert got == pytest.approx(want, rel=1e-9)

    def test_derivative_rejected_at_initial_time(self, single_run):
        with pytest.raises(DomainError):
            single_run.mode_derivatives(0.0)

    def test_monotone_decay(self, single_run):
        vals = single_run.mode_trajectory(1, TIMES)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_times_outside_horizon(self, single_run):
        with pytest.raises(DomainError):
            single_run.mode_trajectory(1, 1.5)
        with pytest.raises(DomainError):
            single_run.mode_trajectory(1, -0.1)

    def test_trajectory_preserves_shape(self, single_run):
        grid = TIMES[:10].reshape(2, 5)
        out = single_run.mode_trajectory(1, grid)
        assert out.shape == (2, 5)


class TestEqualOrderSplit:
    def test_segmentation_invariance(self, split_run):
        # splitting at 0.4 with equal orders must not disturb the
        # constant-order trajectory; the memory integrals carry the load
        lam = split_run.basis.eigenvalues[0]
        got = split_run.mode_trajectory(1, TIMES)
        assert np.abs(got - _relax_reference(lam)).max() <= 1e-6

    def test_junction_gap_exactly_zero(self, split_run):
        gaps = split_run.junction_gaps()
        assert gaps.shape == (1,)
        assert gaps[0] == 0.0

    def test_entry_value_is_handed_exactly(self, split_run):
        first, second = split_run.segments
        assert second.entry_values[0] == first.exit_values[0]
        assert _segment_value(second, 0.4) == first.exit_values[0]
        assert split_run.mode_trajectory(1, 0.4) == first.exit_values[0]

    def test_derivative_continues_smoothly(self, split_run):
        # equal orders leave the true derivative smooth across the
        # junction; the representation reproduces it to mesh accuracy
        lam = split_run.basis.eigenvalues[0]
        par = (BETA, BETA)
        for t in (0.45, 0.6, 0.9):
            want = -lam * t ** (BETA - 1.0) * ml(par, -lam * t ** BETA)
            got = split_run.mode_derivatives(t)[0]
            assert got == pytest.approx(want, rel=1e-4)

    def test_derivative_at_junction_is_left_limit(self, split_run):
        first = split_run.segments[0]
        got = split_run.mode_derivatives(0.4)[0]
        assert got == first.exit_derivatives[0]

    def test_array_derivative_matches_pointwise(self, split_run):
        ts = np.array([[0.1, 0.4], [0.7, 1.0]])
        got = split_run.mode_derivatives(ts)[0]
        assert got.shape == ts.shape
        assert got[0, 1] == split_run.segments[0].exit_derivatives[0]
        want = [[split_run.mode_derivatives(float(t))[0] for t in row]
                for row in ts]
        np.testing.assert_array_equal(got, want)
        with pytest.raises(DomainError):
            split_run.mode_derivatives(np.array([0.5, 0.0]))

    def test_array_value_matches_pointwise(self, split_run):
        first, second = split_run.segments
        ts = np.array([[0.0, 0.1, 0.4], [0.4 + 1e-9, 0.7, 1.0]])
        got = split_run.mode_trajectory(1, ts)
        assert got.shape == ts.shape
        assert got[0, 0] == 1.0
        assert got[0, 2] == second.entry_values[0]
        assert got[1, 2] == second.exit_values[0]
        want = [[split_run.mode_trajectory(1, float(t)) for t in row]
                for row in ts]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            _segment_value(first, ts[0]),
            [_segment_value(first, float(t)) for t in ts[0]])
        np.testing.assert_array_equal(
            _segment_value(second, ts[1]),
            [_segment_value(second, float(t)) for t in ts[1]])
        with pytest.raises(DomainError):
            split_run.mode_trajectory(1, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            _segment_value(second, np.array([0.5, 0.3]))


class TestThreeSegmentChain:
    def test_double_split_still_invariant(self):
        sched = OrderSchedule(breakpoints=(0.0, 0.3, 0.6, 1.0),
                              orders=(BETA, BETA, BETA))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0,))
        field = solve(prob, n_cells=96, n_quad=24)
        lam = field.basis.eigenvalues[0]
        got = field.mode_trajectory(1, TIMES)
        assert np.abs(got - _relax_reference(lam)).max() <= 1e-5
        assert np.all(field.junction_gaps() == 0.0)


class TestMixedOrders:
    def test_decay_and_positivity(self, mixed_run):
        tr = mixed_run.mode_trajectory(1, TIMES)
        assert np.all(tr > 0.0)
        assert np.all(np.diff(tr) <= 0.0)

    def test_junction_gap_exactly_zero(self, mixed_run):
        assert np.all(mixed_run.junction_gaps() == 0.0)

    def test_blowup_exponent_after_order_jump(self, mixed_run):
        # the derivative right of the jump blows up like dt**(b1 - 1)
        offsets = np.array([1e-6, 1e-5, 1e-4, 1e-3])
        logs = np.log([abs(mixed_run.mode_derivatives(0.5 + d)[0])
                       for d in offsets])
        slope = np.polyfit(np.log(offsets), logs, 1)[0]
        assert slope == pytest.approx(0.8 - 1.0, abs=0.05)

    def test_value_routing_at_horizon_end(self, mixed_run):
        # t == T belongs to the final segment
        end = mixed_run.segments[-1]
        assert mixed_run.mode_trajectory(1, 1.0) == end.exit_values[0]


class TestBlowupResponse:
    """Forced response of the memory rate's ``(s - a)**(-b)`` blow-up.

    The solver tabulates ``int_0^dt K_b(dt - u) u**(-b) du`` as
    ``Gamma(1 - b) * E_{b,1}(-lam dt**b)``.  The references are
    ``oracles.blowup_response_oracle`` at 30 digits and dt = 0.5, frozen
    here because the big-float quadrature takes about 20 s.
    """

    @pytest.mark.parametrize("order,lam,want", [
        (0.3, math.pi ** 2, 0.11594385151841722724),
        (0.8, 4.0 * math.pi ** 2, 0.046673773356054863598),
        (0.5, 1024.0 * math.pi ** 2, 0.00013993143619123458813),
        (0.8, 0.0, 4.5908437119988030532),
    ])
    def test_closed_form_matches_quadrature(self, order, lam, want):
        dt = 0.5
        got = math.gamma(1.0 - order) \
            * ml_values(order, 1.0, np.array([-lam * dt ** order]))[0]
        assert got == pytest.approx(want, rel=1e-13)


class TestAwkwardOrders:
    """Orders whose ``E_{b,b+2}`` values once failed to build, checked
    over the window ``y = x**(1/b)`` in [8, 30] where that happened."""

    @pytest.mark.parametrize("order", [0.34, 0.51])
    def test_solves_and_mid_band_matches_oracle(self, order):
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(order,))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0,))
        field = solve(prob, n_cells=16, n_quad=16)
        assert np.all(np.isfinite(field.mode_values(np.linspace(0, 1, 9))))
        xs = np.geomspace(1.01 * 8.0 ** order, 0.99 * 30.0 ** order, 7)
        want = [float(ml_oracle(order, order + 2.0, -x)) for x in xs]
        np.testing.assert_allclose(ml_values(order, order + 2.0, -xs), want,
                                   rtol=0.0, atol=1e-12)


class TestLinearity:
    SCHED = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))

    def _solve_scaled(self, s):
        prob = ProblemSpec(schedule=self.SCHED, operator=OP,
                           initial_coefficients=(s,))
        return solve(prob, n_cells=64, n_quad=16)

    def test_doubling_is_exact(self):
        base = self._solve_scaled(1.0).mode_trajectory(1, TIMES)
        twice = self._solve_scaled(2.0).mode_trajectory(1, TIMES)
        assert np.array_equal(twice, 2.0 * base)

    def test_superposition(self):
        a = self._solve_scaled(1.0).mode_trajectory(1, TIMES)
        b = self._solve_scaled(0.5).mode_trajectory(1, TIMES)
        c = self._solve_scaled(1.5).mode_trajectory(1, TIMES)
        np.testing.assert_allclose(a + b, c, rtol=1e-9, atol=1e-15)


class TestForcedProblems:
    def test_manufactured_linear_trajectory(self):
        # source chosen so the mode solution is exactly 1 + t
        lam = LAM1
        c = 1.0 / math.gamma(2.0 - BETA)

        def tv(t):
            t = np.asarray(t, dtype=float)
            return c * t ** (1.0 - BETA) + lam * (1.0 + t)

        def td(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return c * (1.0 - BETA) * t ** (-BETA) + lam

        src = SeparableSource((1.0,), tv, td)
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0,), source=src)
        field = solve(prob, n_cells=128, n_quad=24)
        got = field.mode_trajectory(1, TIMES)
        assert np.abs(got - (1.0 + TIMES)).max() <= 1e-5
        for t in (0.3, 0.8):
            assert field.mode_derivatives(t)[0] == pytest.approx(1.0,
                                                                 abs=1e-3)

    def test_constant_source_closed_form(self):
        # f == q constant: v = E_{b,1} + q t**b E_{b,b+1}
        q = 3.0
        src = SeparableSource(
            (1.0,),
            lambda t: np.full_like(np.asarray(t, dtype=float), q),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0,), source=src)
        field = solve(prob, n_cells=128, n_quad=24)
        lam = field.basis.eigenvalues[0]
        p1, p2 = (BETA, 1.0), (BETA, BETA + 1.0)
        for t in (0.25, 0.5, 1.0):
            want = ml(p1, -lam * t ** BETA) \
                + q * t ** BETA * ml(p2, -lam * t ** BETA)
            assert field.mode_trajectory(1, t) == pytest.approx(want,
                                                                abs=1e-9)

    def test_nan_source_names_the_subproblem(self):
        src = SeparableSource(
            (1.0,),
            lambda t: np.full_like(np.asarray(t, dtype=float), math.nan),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0,), source=src)
        with pytest.raises(NumericError) as info:
            solve(prob, n_cells=64, n_quad=16)
        assert info.value.mode == 1
        assert info.value.segment == 0

    def test_nan_source_names_the_mode_past_a_skipped_one(self):
        # mode 1 has zero data and no forcing, so it has no row; the
        # error must name mode 2, not the row index
        src = SeparableSource(
            (0.0, 1.0, 0.0),
            lambda t: np.full_like(np.asarray(t, dtype=float), math.nan),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(0.0, 0.0, 1.0), source=src)
        with pytest.raises(NumericError) as info:
            solve(prob, n_cells=16, n_quad=16)
        assert (info.value.mode, info.value.segment) == (2, 0)
        assert "mode=2, segment=0" in str(info.value)


class TestExactVariableOrder:
    """A manufactured trajectory across a breakpoint, against its exact
    load: the solver's own error, not a self-difference."""

    def test_cubic_trajectory_error_falls_with_cells(self):
        # u = 1 + t + c2 t**2 + c3 t**3 on orders 0.3/0.8, one mode with
        # lam = pi**2; the bounds are the measured 64-512 cell errors
        # (3.0e-4, 6.9e-5, 1.8e-5, 4.5e-6), 5% above their two digits
        u = CubicTrajectory((0.3, 0.8), 0.5, LAM1)
        sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0,),
                           source=SeparableSource((1.0,), u.load,
                                                  u.load_slope))
        ts = np.linspace(0.01, 1.0, 100)
        errors = []
        for cells, bound in ((64, 3.0e-4), (128, 6.9e-5), (256, 1.8e-5),
                             (512, 4.5e-6)):
            field = solve(prob, n_cells=cells, n_quad=32)
            errors.append(np.abs(field.mode_values(ts)[0]
                                 - u.value(ts)).max())
            assert errors[-1] <= 1.05 * bound, cells
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_linear_trajectory_order_08_error_falls_with_cells(self):
        # u = 1 + t on one order-0.8 segment: D^0.8 t = t**0.2 / Gamma(1.2),
        # so the load rate blows up like t**-0.8 at the start.  The bounds
        # are the measured 64-512 cell errors; mode_derivatives is not
        # bounded, because it grows with the cells past 128
        c = 1.0 / math.gamma(1.2)

        def load(t):
            t = np.asarray(t, dtype=float)
            return c * t ** 0.2 + LAM1 * (1.0 + t)

        def slope(t):
            with np.errstate(divide="ignore"):
                return 0.2 * c * np.asarray(t, dtype=float) ** -0.8 + LAM1

        prob = ProblemSpec(schedule=OrderSchedule((0.0, 1.0), (0.8,)),
                           operator=OP, initial_coefficients=(1.0,),
                           source=SeparableSource((1.0,), load, slope))
        ts = np.linspace(0.01, 1.0, 100)
        errors = []
        for cells, bound in ((64, 1.07e-5), (128, 2.64e-6), (256, 6.57e-7),
                             (512, 1.63e-7)):
            field = solve(prob, n_cells=cells, n_quad=32)
            errors.append(np.abs(field.mode_values(ts)[0] - (1.0 + ts)).max())
            assert errors[-1] <= 1.05 * bound, cells
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestZeroModes:
    def test_unforced_zero_mode_short_circuits(self):
        sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0),
                              orders=(0.3, 0.8))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0, 0.0))
        field = solve(prob, n_cells=64, n_quad=16)
        assert 1 not in field.live
        assert field.mode_trajectory(2, 0.7) == 0.0
        assert field.mode_derivatives(0.7)[1] == 0.0
        assert np.all(field.mode_trajectory(2, TIMES) == 0.0)

    def test_unforced_tails_skip_the_power_kernel(self, monkeypatch):
        # an unforced segment's tail samples are exactly zero, so its
        # memory is the impulse part alone, bit for bit
        real = solver_module.power_kernel_convolve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "power_kernel_convolve", counting)
        sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0),
                              orders=(0.3, 0.8))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(1.0, 0.5))
        skipped = solve(prob, n_cells=16, n_quad=16).mode_values(TIMES)
        assert calls == []

        memory = solver_module._memory

        def always_convolved(seg, times, kernel_exponent, n_quad):
            return memory(seg, times, kernel_exponent, n_quad) + counting(
                seg.nodes, seg.tails, times, kernel_exponent)

        monkeypatch.setattr(solver_module, "_memory", always_convolved)
        convolved = solve(prob, n_cells=16, n_quad=16).mode_values(TIMES)
        # one call per past segment for both modes and both exponents
        assert len(calls) == 1
        assert np.array_equal(skipped, convolved)

    def test_all_zero_data_gives_zero_field(self):
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=(0.0, 0.0))
        field = solve(prob, n_cells=64, n_quad=16)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.all(field.evaluate_grid(xs, TIMES[:5]) == 0.0)


def _scalar_limit_nodes(a, b, times, kappa, power, n):
    """Profile nodes of a history call with one scalar limit ``b`` and
    per-time exponents ``kappa``, in the order it evaluates them: the
    far-field and left-half node sets in the scaled variable, shared by
    every exponent, then each near time's right half in ``u = t - s``
    (one Jacobi cell at ``t == b`` per exponent, ascending, stretched
    cells above it)."""
    x = quadrature._legendre_rule(n)[0]
    flat = np.ravel(times)
    kappa = np.broadcast_to(kappa, flat.shape)
    mid = 0.5 * (a + b)
    near = flat - b < quadrature.FAR_FIELD_FRACTION * (b - a)
    parts = []
    for s_hi, here in ((b, ~near), (mid, near)):
        if here.any():
            edges = quadrature.graded_mesh(0.0, (s_hi - a) ** power,
                                           quadrature.HISTORY_CELLS, 3.0)
            parts.append(quadrature._cell_nodes(edges, x)[0])
    on = near & (flat == b)
    for k in np.unique(kappa[on]):
        xj = quadrature._jacobi_rule(n, -float(k))[0]
        t = flat[on & (kappa == k)]
        u = 0.5 * (t - mid)[:, None] * (xj + 1.0)
        parts.append((t[:, None] - u - a) ** power)
    index = np.flatnonzero(near & (flat > b))
    for group, edges in quadrature._stretched_cells(flat[index] - b,
                                                    flat[index] - mid):
        u = quadrature._cell_nodes(edges, x)[0]
        parts.append((flat[index[group], None, None] - u - a) ** power)
    return np.concatenate([part.ravel() for part in parts])


class TestHistoryNodes:
    def test_solver_history_calls_use_scalar_limit_node_sets(
            self, monkeypatch):
        # the solver integrates every past segment up to its end, one
        # scalar limit per call, so per-time limits leave the nodes its
        # profiles are evaluated on as they were; one call per past
        # segment takes the load's exponent beta at every node and the
        # rate's 1 + beta past the first, on the same left node sets
        real = solver_module.scaled_power_history
        calls = []

        def recording(profile, a, b, times, kappa, power, n):
            def spy(w):
                calls.append(((a, b, times, kappa, power, n), w))
                return profile(w)
            return real(spy, a, b, times, kappa, power, n=n)

        monkeypatch.setattr(solver_module, "scaled_power_history",
                            recording)
        sched = OrderSchedule(breakpoints=(0.0, 0.25, 0.625, 1.0),
                              orders=(0.3, 0.8, 0.5))
        prob = ProblemSpec(
            schedule=sched, operator=OP, initial_coefficients=(1.0, 0.5),
            source=SeparableSource((1.0, 1.0), lambda t: 1.0 + 0.5 * t,
                                   lambda t: np.full_like(t, 0.5)))
        solve(prob, n_cells=8, n_quad=8)
        assert len(calls) == 3
        for (a, b, times, kappa, *rest), w in calls:
            assert np.ndim(b) == 0
            # the times are the current segment's mesh, then all its
            # nodes but the first
            m = times.size // 2 + 1
            assert np.array_equal(times[1:m], times[m:])
            beta = sched.orders[sched.segment_of(times[0])]
            np.testing.assert_array_equal(
                kappa, [beta] * m + [1.0 + beta] * (m - 1))
            np.testing.assert_array_equal(
                w, _scalar_limit_nodes(a, b, times, kappa, *rest))
        # the calls hold t == b, near times above b and far times
        gaps = np.concatenate([(np.ravel(times) - b) / (b - a)
                               for (a, b, times, *_), _ in calls])
        far = quadrature.FAR_FIELD_FRACTION
        assert (gaps == 0.0).any() and (gaps >= far).any()
        assert ((0.0 < gaps) & (gaps < far)).any()


class TestSolutionField:
    def test_evaluate_vanishes_on_boundary(self, single_run):
        out = single_run.evaluate_grid([0.0, 1.0], [0.5])
        assert np.all(np.abs(out) < 1e-12)

    def test_evaluate_grid_shape(self, single_run):
        xs = np.linspace(0.0, 1.0, 7)
        out = single_run.evaluate_grid(xs, TIMES[:5])
        assert out.shape == (7, 5)

    def test_evaluate_matches_mode_synthesis(self, single_run):
        x = 0.37
        got = single_run.evaluate_grid(x, 0.6)[0, 0]
        want = single_run.mode_trajectory(1, 0.6) \
            * math.sqrt(2.0) * math.sin(math.pi * x)
        assert got == pytest.approx(want, rel=1e-12)

    def test_evaluate_grid_columns_are_time_syntheses(self):
        sched = OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))
        prob = ProblemSpec(schedule=sched, operator=OP,
                           initial_coefficients=1.0 / np.arange(1, 9))
        field = solve(prob, n_cells=16, n_quad=8)
        xs = np.linspace(0.0, 1.0, 9)
        ts = TIMES[::10]
        out = field.evaluate_grid(xs, ts)
        for k, t in enumerate(ts):
            np.testing.assert_array_equal(
                out[:, k], field.basis.synthesize(field.mode_values(t), xs))

    def test_mode_index_validation(self, single_run):
        with pytest.raises(DomainError):
            single_run.mode_trajectory(2, TIMES)
        # a non-integer index names no mode: rejected, not read as a mode
        # without a row
        for n in (1.5, 1.0, True, np.float64(1.0)):
            with pytest.raises(DomainError, match="must be an integer"):
                single_run.mode_trajectory(n, TIMES)
        np.testing.assert_array_equal(
            single_run.mode_trajectory(np.int64(1), TIMES),
            single_run.mode_trajectory(1, TIMES))

    def test_zero_tails_are_not_interpolated(self, single_run, mixed_run,
                                             monkeypatch):
        # an unforced first segment's tails are all zero, so its
        # derivatives add 0.0 with no np.interp call; a later segment's
        # tails hold the earlier one's memory: one call per row
        interp, calls = np.interp, []

        def spy(*args):
            calls.append(args)
            return interp(*args)

        ts = np.linspace(0.05, 1.0, 9)
        monkeypatch.setattr(np, "interp", spy)
        single_run.mode_derivatives(ts)
        assert calls == []
        mixed_run.mode_derivatives(ts)
        assert len(calls) == 1


class TestJunctionGapsAfterSampling:
    def test_forced_three_segment_gaps_stay_zero(self):
        # each gap re-evaluates a segment's end and compares it with the
        # entry the next segment was built from, so sampling the field
        # first must not move it.  The amplitudes are the forced_modes
        # benchmark workload's at seed 10; a fresh interpreter keeps
        # evaluations made by earlier tests out of the check
        code = """
import numpy as np
from fracstep.operator import OperatorSpec
from fracstep.schedule import OrderSchedule
from fracstep.solver import ProblemSpec, SeparableSource, solve
spec = ProblemSpec(
    schedule=OrderSchedule((0.0, 0.25, 0.625, 1.0), (0.3, 0.8, 0.5)),
    operator=OperatorSpec(),
    initial_coefficients=(0.8935513157715842, 0.4863796638501986,
                          0.2211551787031044),
    source=SeparableSource(
        (1.0539097901660093, 0.8543537578972036, 1.0637802198761999),
        lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float),
        lambda t: np.full_like(np.asarray(t, dtype=float), 0.5)))
field = solve(spec, n_cells=8, n_quad=16)
field.evaluate_grid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 65))
print(field.junction_gaps().tolist())
"""
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0.0, 0.0]"


class TestSolveValidation:
    SCHED = OrderSchedule(breakpoints=(0.0, 1.0), orders=(BETA,))

    def test_rejects_bad_resolutions(self):
        prob = ProblemSpec(schedule=self.SCHED, operator=OP,
                           initial_coefficients=(1.0,))
        with pytest.raises(DomainError):
            solve(prob, n_cells=4)
        with pytest.raises(DomainError):
            solve(prob, n_quad=2)

    @pytest.mark.parametrize("counts", [
        {"n_cells": 8.5}, {"n_cells": 32.0}, {"n_quad": 4.7},
        {"n_quad": True}])
    def test_counts_are_integers(self, counts):
        # 8.5 cells would run 8 and 4.7 nodes 4, without a word
        prob = ProblemSpec(schedule=self.SCHED, operator=OP,
                           initial_coefficients=(1.0,))
        with pytest.raises(DomainError, match="must be an integer"):
            solve(prob, **counts)

    def test_rejects_non_problem(self):
        with pytest.raises(DomainError):
            solve("not a problem")


@st.composite
def batched_problems(draw):
    """1-4 segments, 1-8 modes, some of them zero, optionally forced."""
    num_segments = draw(st.integers(1, 4))
    marks = sorted(draw(st.lists(st.integers(1, 63),
                                 min_size=num_segments - 1,
                                 max_size=num_segments - 1, unique=True)))
    orders = draw(st.lists(st.floats(0.05, 0.95), min_size=num_segments,
                           max_size=num_segments))
    sched = OrderSchedule(breakpoints=(0.0, *(m / 64 for m in marks), 1.0),
                          orders=tuple(orders))
    num_modes = draw(st.integers(1, 8))
    amplitudes = st.lists(st.just(0.0) | st.floats(-2.0, 2.0),
                          min_size=num_modes, max_size=num_modes)
    initial = tuple(draw(amplitudes))
    source = None
    if draw(st.booleans()):
        source = SeparableSource(
            draw(amplitudes),
            lambda t: 1.0 + np.sin(3.0 * np.asarray(t, dtype=float)),
            lambda t: 3.0 * np.cos(3.0 * np.asarray(t, dtype=float)))
    spec = ProblemSpec(schedule=sched, operator=OP,
                       initial_coefficients=initial, source=source)
    return spec, draw(st.integers(8, 32))


def _map_data(spec, f):
    """``spec`` with ``f`` applied to its initial and source coefficients."""
    src = spec.source
    return ProblemSpec(schedule=spec.schedule, operator=spec.operator,
                       initial_coefficients=f(
                           np.asarray(spec.initial_coefficients)),
                       source=SeparableSource(f(src.coefficients),
                                              src.time_value,
                                              src.time_derivative))


def _only_mode(spec, n):
    """``spec`` with every mode but ``n`` zeroed, so it is solved alone."""
    keep = np.arange(1, spec.num_modes + 1) == n
    return _map_data(spec, lambda c: np.where(keep, c, 0.0))


def _probe_times(spec):
    ts = np.unique(np.concatenate([spec.schedule.breakpoints,
                                   np.linspace(0.0, 1.0, 11) + 0.01]))
    return ts[ts <= 1.0]


class TestBatchIndependence:
    """Segment-major batched evaluation against one mode at a time."""

    @settings(max_examples=10, deadline=None, derandomize=True,
              database=None)
    @given(batched_problems())
    def test_rows_equal_one_mode_at_a_time(self, problem):
        spec, cells = problem
        field = solve(spec, n_cells=cells, n_quad=8)
        ts = _probe_times(spec)
        values = field.mode_values(ts)
        slopes = field.mode_derivatives(ts[1:])
        assert values.shape == (spec.num_modes, ts.size)
        assert slopes.shape == (spec.num_modes, ts.size - 1)
        for n in range(1, spec.num_modes + 1):
            np.testing.assert_array_equal(values[n - 1],
                                          field.mode_trajectory(n, ts))
            np.testing.assert_array_equal(
                values[n - 1], [field.mode_trajectory(n, float(t))
                                for t in ts])
            np.testing.assert_array_equal(
                slopes[n - 1], [field.mode_derivatives(float(t))[n - 1]
                                for t in ts[1:]])
            if n - 1 not in field.live:
                assert not slopes[n - 1].any()
            else:
                # the mode's row evaluated alone
                row = [field.live.index(n - 1)]
                np.testing.assert_array_equal(
                    slopes[n - 1], solver_module._sample(
                        field, row, ts[1:], "left",
                        solver_module._derivatives)[0])
                alone = solve(_only_mode(spec, n), n_cells=cells, n_quad=8)
                np.testing.assert_array_equal(
                    values[n - 1], alone.mode_values(ts)[n - 1])
                np.testing.assert_array_equal(
                    slopes[n - 1], alone.mode_derivatives(ts[1:])[n - 1])
        assert np.all(field.junction_gaps() == 0.0)

    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None)
    @given(batched_problems())
    def test_scaled_data_scale_the_field_exactly(self, problem):
        """The solution is linear in the data; scaling by a power of two
        commutes with every rounding, so it holds bit for bit.  Not
        where a product underflows to a subnormal, whose spacing does
        not scale, so the data keep far from that range."""
        spec, cells = problem
        data = np.concatenate([spec.initial_coefficients,
                               spec.source.coefficients])
        assume(np.all((data == 0.0) | (np.abs(data) >= 1e-100)))
        ts = _probe_times(spec)
        field = solve(spec, n_cells=cells, n_quad=8)
        values = field.mode_values(ts)
        slopes = field.mode_derivatives(ts[1:])
        for factor in (2.0, 0.25):
            scaled = solve(_map_data(spec, lambda c: factor * c),
                           n_cells=cells, n_quad=8)
            np.testing.assert_array_equal(scaled.mode_values(ts),
                                          factor * values)
            np.testing.assert_array_equal(scaled.mode_derivatives(ts[1:]),
                                          factor * slopes)
