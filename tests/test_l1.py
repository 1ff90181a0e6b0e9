"""Tests for the L1 time-stepping oracle.

The frozen weight values below were computed with 40-digit mpmath from
the closed-form kernel moments of the piecewise-linear reconstruction,

    b_k = ((m - k)**(1 - b) - (m - k - 1)**(1 - b)) * tau**(-b) / Gamma(2 - b).
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracstep import l1
from fracstep.errors import DomainError, NumericError
from fracstep.l1 import (STACK_ELEMENTS, L1Grid, _moments, _run_pieces,
                         _series_reciprocal, _stack_blocks, solve_full_l1_fd,
                         solve_mode_l1)
from fracstep.operator import GridOperator, ModalBasis, OperatorSpec
from fracstep.schedule import OrderSchedule
from fracstep.solver import ProblemSpec, SeparableSource
from fracstep.special import gamma_fn, ml_values

from oracles import fd_march_oracle, l1_march_oracle

# mpmath, 40 digits: order 0.5, step 0.25, fourth step (m = 4)
WEIGHTS_HALF_M4 = np.array([
    0.60469657315869092289,
    0.71728185201189794917,
    0.93477990902043627573,
    2.2567583341910251478,
])
# mpmath, 40 digits: order 0.3, step 0.1, first step (m = 1)
WEIGHT_03_M1 = 2.1958807640781435631


def two_segment_schedule():
    return OrderSchedule(breakpoints=(0.0, 0.5, 1.0), orders=(0.3, 0.8))


def weights(order, m, tau):
    """Increment weights of the L1 sum at step ``m``, in time order.

    Entry ``k`` multiplies ``u_{k+1} - u_k``, so the last entry is ``b_0``.
    """
    return _moments([order], m, tau)[0, ::-1]


class TestL1Grid:
    def test_times_and_horizon(self):
        grid = L1Grid(step=0.25, num_steps=4)
        np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0],
                                   rtol=0.0, atol=0.0)
        assert grid.horizon == 1.0

    def test_for_schedule_hits_breakpoints(self):
        grid = L1Grid.for_schedule(two_segment_schedule(), 2.0 ** -4)
        assert grid.num_steps == 16
        assert 0.5 in grid.times

    def test_for_schedule_rejects_misaligned_step(self):
        sched = OrderSchedule(breakpoints=(0.0, 0.3, 1.0), orders=(0.4, 0.6))
        with pytest.raises(DomainError):
            L1Grid.for_schedule(sched, 0.25)

    def test_for_schedule_rejects_non_schedule(self):
        with pytest.raises(DomainError):
            L1Grid.for_schedule((0.0, 1.0), 0.25)

    @pytest.mark.parametrize("step,num", [(0.0, 4), (-0.1, 4), (0.25, 0)])
    def test_rejects_degenerate_grid(self, step, num):
        with pytest.raises(DomainError):
            L1Grid(step=step, num_steps=num)


class TestWeights:
    def test_first_step_single_weight(self):
        w = weights(0.3, 1, 0.1)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(WEIGHT_03_M1, rel=1e-14)

    def test_frozen_fourth_step(self):
        w = weights(0.5, 4, 0.25)
        np.testing.assert_allclose(w, WEIGHTS_HALF_M4, rtol=1e-14)

    @pytest.mark.parametrize("order,m,tau",
                             [(0.3, 7, 0.125), (0.5, 4, 0.25),
                              (0.85, 12, 0.03125)])
    def test_telescoping_sum(self, order, m, tau):
        # the depth differences telescope, so the sum is the weight of a
        # single increment spanning the whole interval
        w = weights(order, m, tau)
        total = m ** (1.0 - order) * tau ** (-order) / gamma_fn(2.0 - order)
        assert w.sum() == pytest.approx(total, rel=1e-13)

    @pytest.mark.parametrize("order", [0.05, 0.5, 0.95])
    def test_deep_moments_keep_full_precision(self, order):
        # far back the two powers agree in most digits; the moments must
        # not inherit that cancellation
        depths = [1, 37, 1000, 16383]
        b = _moments([order], 16384, 2.0 ** -14)[0]
        a = mp.mpf(1.0 - order)  # the exponent as the ladder rounds it
        with mp.workdps(40):
            scale = (mp.mpf(2) ** 14) ** mp.mpf(order) / mp.gamma(1 + a)
            expected = [float(((j + 1) ** a - mp.mpf(j) ** a) * scale)
                        for j in depths]
        np.testing.assert_allclose(b[depths], expected, rtol=1e-14)

    def test_positive_and_loaded_toward_present(self):
        w = weights(0.4, 9, 0.1)
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) > 0.0)
        assert w[-1] == pytest.approx(
            0.1 ** -0.4 / gamma_fn(1.6), rel=1e-14)


class TestSingleModeMarch:
    def test_matches_relaxation_profile(self):
        # constant order: the march must converge to the Mittag-Leffler
        # relaxation; at 2^-12 the gap is ~3.4e-6 (order tau^(2-b) away
        # from the initial layer)
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.5,))
        grid = L1Grid.for_schedule(sched, 2.0 ** -12)
        lam = float(np.pi ** 2)
        u = solve_mode_l1(lam, np.zeros_like, sched, 1.0, grid)
        exact = float(ml_values(0.5, 1.0, -lam))
        assert abs(u[-1] - exact) < 1e-5

    def test_linear_solution_reproduced_exactly(self):
        # u(t) = t has a piecewise-linear graph, which the scheme
        # integrates exactly, even across the order jump
        sched = two_segment_schedule()
        grid = L1Grid.for_schedule(sched, 2.0 ** -6)
        lam = 3.7

        def load(times):
            t = np.asarray(times, dtype=float)
            out = np.empty_like(t)
            for i, ti in enumerate(t):
                b = sched.orders[sched.segment_of(ti)]
                drift = 0.0 if ti == 0.0 else ti ** (1.0 - b) / gamma_fn(2.0 - b)
                out[i] = drift + lam * ti
            return out

        u = solve_mode_l1(lam, load, sched, 0.0, grid)
        np.testing.assert_allclose(u, grid.times, rtol=0.0, atol=1e-12)

    def test_equal_order_breakpoint_is_invisible(self):
        # same order on both sides: the weights see only the current
        # order, so the split march is bit-identical to the plain one
        plain = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.6,))
        split = OrderSchedule(breakpoints=(0.0, 0.375, 1.0),
                              orders=(0.6, 0.6))
        grid = L1Grid.for_schedule(plain, 2.0 ** -5)
        u_plain = solve_mode_l1(4.0, np.zeros_like, plain, 1.0, grid)
        u_split = solve_mode_l1(4.0, np.zeros_like, split, 1.0, grid)
        assert np.array_equal(u_plain, u_split)

    def test_decay_is_positive_and_monotone(self):
        sched = two_segment_schedule()
        grid = L1Grid.for_schedule(sched, 2.0 ** -7)
        u = solve_mode_l1(9.0, np.zeros_like, sched, 1.0, grid)
        assert np.all(u > 0.0)
        assert np.all(np.diff(u) < 0.0)

    def test_self_convergence_across_order_jump(self):
        sched = two_segment_schedule()
        finals = []
        for k in (6, 7, 8, 9):
            grid = L1Grid.for_schedule(sched, 2.0 ** -k)
            u = solve_mode_l1(float(np.pi ** 2), np.zeros_like, sched,
                              1.0, grid)
            finals.append(u[-1])
        gaps = np.abs(np.diff(finals))
        assert np.all(np.diff(gaps) < 0.0)

    def test_zero_eigenvalue_zero_load_is_constant(self):
        sched = two_segment_schedule()
        grid = L1Grid.for_schedule(sched, 2.0 ** -4)
        u = solve_mode_l1(0.0, np.zeros_like, sched, 0.75, grid)
        assert np.array_equal(u, np.full(grid.num_steps + 1, 0.75))

    def test_balanced_load_is_steady(self):
        # a load equal to the float lam * u0 leaves a zero right-hand
        # side, so every step must return u0 itself
        sched = OrderSchedule(breakpoints=(0.0, 0.25, 0.625, 1.0),
                              orders=(0.3, 0.8, 0.55))
        grid = L1Grid.for_schedule(sched, 2.0 ** -7)
        u = solve_mode_l1(7.3, lambda t: np.full_like(t, 7.3 * 0.61),
                          sched, 0.61, grid)
        assert np.array_equal(u, np.full(grid.num_steps + 1, 0.61))

    def test_single_step_grid(self):
        # one step: (b_0 + lam) u_1 = f(t_1) + b_0 u_0
        sched = OrderSchedule(breakpoints=(0.0, 1.0), orders=(0.4,))
        grid = L1Grid.for_schedule(sched, 1.0)
        assert grid.num_steps == 1
        u = solve_mode_l1(2.5, lambda t: 3.0 * t, sched, 0.8, grid)
        b0 = 1.0 / gamma_fn(1.6)
        assert u[0] == 0.8
        assert u[1] == pytest.approx((3.0 + b0 * 0.8) / (b0 + 2.5),
                                     rel=1e-15)

    def test_non_finite_row_is_named(self):
        # row 1's load is infinite at the breakpoint, t = 0.5, the first
        # step of the order-0.8 run; row 0 stays finite
        sched = two_segment_schedule()
        grid = L1Grid.for_schedule(sched, 2.0 ** -4)
        loads = np.ones((2, grid.num_steps + 1))
        loads[1, 8] = np.inf
        lams = np.array([1.0, float(np.pi ** 2)])
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError,
                match=r"^non-finite L1 trajectory in row 1 \(eigenvalue "
                      r"9\.869604401089358\) from t = 0\.5$"):
            solve_mode_l1(lams, lambda t: loads, sched, np.ones(2), grid)
        u = solve_mode_l1(lams[0], lambda t: loads[0], sched, 1.0, grid)
        assert np.all(np.isfinite(u))

    def test_rejects_bad_inputs(self):
        sched = two_segment_schedule()
        grid = L1Grid.for_schedule(sched, 2.0 ** -4)
        with pytest.raises(DomainError):
            solve_mode_l1(-1.0, np.zeros_like, sched, 1.0, grid)
        with pytest.raises(DomainError):
            solve_mode_l1(1.0, np.zeros_like, sched, 1.0, "grid")
        short = L1Grid(step=2.0 ** -4, num_steps=8)
        with pytest.raises(DomainError):
            solve_mode_l1(1.0, np.zeros_like, sched, 1.0, short)
        with pytest.raises(DomainError):
            solve_mode_l1(1.0, lambda t: np.zeros(3), sched, 1.0, grid)


@st.composite
def march_problems(draw):
    """1-4 segments on the 2^-10 grid, sometimes with a one-step first."""
    num_segments = draw(st.integers(1, 4))
    one_step = num_segments > 1 and draw(st.booleans())
    marks = draw(st.lists(st.integers(2 if one_step else 1, 1023),
                          min_size=num_segments - 1 - one_step,
                          max_size=num_segments - 1 - one_step,
                          unique=True))
    marks = sorted(marks + [1] * one_step)
    orders = draw(st.lists(st.floats(0.05, 0.95),
                           min_size=num_segments, max_size=num_segments))
    sched = OrderSchedule(
        breakpoints=(0.0, *(m / 1024 for m in marks), 1.0),
        orders=tuple(orders))
    lam = draw(st.sampled_from([0.0, float(np.pi ** 2), 1e4]))
    amplitude = draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(-3, 3))
    u0 = draw(st.floats(-2, 2))
    return sched, lam, amplitude, u0


class TestAgreesWithMarch:
    @settings(max_examples=12, deadline=None, derandomize=True,
              database=None)
    @given(march_problems())
    def test_matches_long_double_march(self, problem):
        # the Toeplitz solves against the step-by-step march carried in
        # long double: same equations, so only rounding may differ
        sched, lam, amplitude, u0 = problem
        grid = L1Grid.for_schedule(sched, 2.0 ** -10)

        def load(t):
            return amplitude * (1.0 + np.sin(3.0 * t))

        u = solve_mode_l1(lam, load, sched, u0, grid)
        ref = l1_march_oracle(lam, load, sched, u0, grid, np.longdouble)
        err = float(np.max(np.abs(u - ref)))
        assert err <= 5e-14 * max(1.0, abs(u0))


class TestRepeatedAndSplitOrders:
    """Stacked reciprocal chains against the long-double march."""

    @staticmethod
    def assert_matches_march(sched, lam, u0):
        grid = L1Grid.for_schedule(sched, 2.0 ** -10)

        def load(t):
            return 1.5 * (1.0 + np.sin(3.0 * t))

        u = solve_mode_l1(lam, load, sched, u0, grid)
        ref = l1_march_oracle(lam, load, sched, u0, grid, np.longdouble)
        assert float(np.max(np.abs(u - ref))) <= 5e-14 * max(1.0, abs(u0))

    @pytest.mark.parametrize("lam", [0.0, float(np.pi ** 2), 1e4])
    def test_repeated_order(self, lam):
        # 0.3 comes back: one reciprocal serves both of its runs
        sched = OrderSchedule(breakpoints=(0.0, 0.25, 0.625, 1.0),
                              orders=(0.3, 0.7, 0.3))
        self.assert_matches_march(sched, lam, 1.0)

    @pytest.mark.parametrize("budget", [STACK_ELEMENTS, 0])
    @pytest.mark.parametrize("lam", [0.0, float(np.pi ** 2), 1e4])
    def test_long_run_then_short_distinct_orders(self, lam, budget,
                                                 monkeypatch):
        # 768 steps of one order, then four 64-step runs: stacked, the
        # short orders share the long order's 1,024-coefficient chain, cut
        # to 64; with no budget every order has a chain of its own
        monkeypatch.setattr("fracstep.l1.STACK_ELEMENTS", budget)
        sched = OrderSchedule(
            breakpoints=(0.0, 0.75, 0.8125, 0.875, 0.9375, 1.0),
            orders=(0.5, 0.2, 0.4, 0.6, 0.9))
        self.assert_matches_march(sched, lam, -0.75)


class TestOverhangPieces:
    """The README schedule at 2^-10: runs of 511 and 513 steps."""

    def test_piece_rule(self):
        assert _run_pieces(511, 1024) == [(511, 512), (512, 1024)]
        assert _run_pieces(0, 511) == [(0, 511)]
        assert _run_pieces(0, 512) == [(0, 512)]
        assert _run_pieces(3, 3 + 512 + 64) == [(3, 67), (67, 579)]
        assert _run_pieces(3, 3 + 512 + 65) == [(3, 580)]
        # forced_modes at 2^-12: 1,536 and 1,537 steps stay whole
        assert _run_pieces(1023, 2559) == [(1023, 2559)]
        assert _run_pieces(2559, 4096) == [(2559, 4096)]

    @staticmethod
    def solve_rows(rows):
        """One batched call and the one-row calls of its rows."""
        sched = two_segment_schedule()
        grid = L1Grid.for_schedule(sched, 2.0 ** -10)
        lams = np.array(TestRows.LAMS[:rows])
        u0 = np.array(TestRows.U0[:rows])
        loads = TestRows.loads(grid.times, rows)
        batch = solve_mode_l1(lams, lambda t: loads, sched, u0, grid)
        return batch, [solve_mode_l1(lams[k], lambda t: loads[k], sched,
                                     u0[k], grid) for k in range(rows)]

    def test_chains_and_transforms_stay_at_the_power_of_two(
            self, monkeypatch):
        chains, sizes = [], []
        recip, rfft = l1._series_reciprocal, np.fft.rfft

        def spy_recip(a):
            chains.append(a.shape[-1])
            return recip(a)

        def spy_rfft(a, n=None, *args, **kwargs):
            sizes.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(l1, "_series_reciprocal", spy_recip)
        monkeypatch.setattr(np.fft, "rfft", spy_rfft)
        self.solve_rows(3)
        assert chains and max(chains) <= 512
        assert sizes and max(sizes) <= 1024

    @pytest.mark.parametrize("lam", [0.0, float(np.pi ** 2), 1e4])
    def test_matches_long_double_march(self, lam):
        TestRepeatedAndSplitOrders.assert_matches_march(
            two_segment_schedule(), lam, -1.25)

    def test_rows_equal_one_row_calls_bit_for_bit(self):
        batch, ones = self.solve_rows(4)
        for row, one in zip(batch, ones):
            assert np.array_equal(row, one)


class TestStackedReciprocal:
    @staticmethod
    def columns(length):
        moments = _moments([0.2, 0.5, 0.9], length, 2.0 ** -10)
        lams = np.array([0.0, float(np.pi ** 2)])
        return moments[:, None, :] + lams[:, None]   # (orders, rows, len)

    def test_rows_equal_one_row_calls_bit_for_bit(self):
        cols = self.columns(200)
        stacked = _series_reciprocal(cols)
        assert stacked.shape == cols.shape
        for o in range(cols.shape[0]):
            for r in range(cols.shape[1]):
                assert np.array_equal(stacked[o, r],
                                      _series_reciprocal(cols[o, r]))

    def test_power_of_two_prefix_is_the_shorter_chain(self):
        # a chain run to a longer power of two keeps the shorter chain's
        # coefficients, so a block's length never shows in a row
        cols = self.columns(512)
        long = _series_reciprocal(cols)
        for m in (1, 2, 64, 256):
            assert np.array_equal(long[..., :m],
                                  _series_reciprocal(cols[..., :m]))

    def test_inverts_the_series(self):
        cols = self.columns(300)
        recip = _series_reciprocal(cols)
        prod = np.array([[np.convolve(c, g)[:300] for c, g in zip(cr, gr)]
                         for cr, gr in zip(cols, recip)])
        expected = np.zeros(300)
        expected[0] = 1.0
        np.testing.assert_allclose(prod, np.broadcast_to(expected,
                                                         prod.shape),
                                   rtol=0.0, atol=1e-13)

    def test_block_rule(self):
        # forced_modes at 2^-12: three orders fit one block for one row
        assert _stack_blocks([1024, 1536, 1536], 1) == [[0, 1, 2]]
        # 128 rows: each order alone
        assert _stack_blocks([1024, 1536, 1536], 128) == [[0], [1], [2]]
        # two 8192-step runs: too large to stack
        assert _stack_blocks([8192, 8192], 1) == [[0], [1]]
        assert 3 * 1536 <= STACK_ELEMENTS < 2 * 8192

    def test_blocking_does_not_change_the_solve(self, monkeypatch):
        sched = OrderSchedule(
            breakpoints=(0.0, 0.125, 0.3125, 0.5, 0.75, 1.0),
            orders=(0.3, 0.8, 0.5, 0.8, 0.65))
        grid = L1Grid.for_schedule(sched, 2.0 ** -9)
        lams = np.array([0.0, float(np.pi ** 2), 1e4])
        loads = np.vstack([np.cos(k * grid.times) for k in range(3)])

        def solve():
            return solve_mode_l1(lams, lambda t: loads, sched,
                                 np.array([1.0, -0.5, 2.0]), grid)

        stacked = solve()
        monkeypatch.setattr("fracstep.l1.STACK_ELEMENTS", 0)
        assert np.array_equal(solve(), stacked)


class TestRows:
    """A column of eigenvalues solves one row per mode in one call."""

    # repeated order: the adjacent 0.7 runs merge, and 0.3 comes back
    SCHEDULE = OrderSchedule(breakpoints=(0.0, 0.125, 0.5, 0.75, 1.0),
                             orders=(0.3, 0.7, 0.7, 0.3))
    LAMS = (float(np.pi ** 2), 0.0, 1e4, 37.5)
    U0 = (1.0, -0.25, 2.0, 0.0)

    @staticmethod
    def loads(times, rows):
        t = np.asarray(times, dtype=float)
        return np.vstack([(k - 1.5) * (1.0 + np.sin((k + 2) * t))
                          for k in range(rows)])

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_rows_equal_one_row_calls_bit_for_bit(self, rows):
        grid = L1Grid.for_schedule(self.SCHEDULE, 2.0 ** -9)
        lams = np.array(self.LAMS[:rows])
        u0 = np.array(self.U0[:rows])
        loads = self.loads(grid.times, rows)
        batch = solve_mode_l1(lams, lambda t: loads, self.SCHEDULE, u0, grid)
        assert batch.shape == (rows, grid.num_steps + 1)
        for k in range(rows):
            one = solve_mode_l1(lams[k], lambda t: loads[k], self.SCHEDULE,
                                u0[k], grid)
            assert one.shape == (grid.num_steps + 1,)
            assert np.array_equal(batch[k], one)

    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_forced_schedule_rows_equal_one_row_calls(self, rows):
        # three distinct orders, stacked in one reciprocal chain
        sched = forced_three_segments().schedule
        grid = L1Grid.for_schedule(sched, 2.0 ** -10)
        lams = np.array(self.LAMS[:rows])
        u0 = np.array(self.U0[:rows])
        loads = self.loads(grid.times, rows)
        batch = solve_mode_l1(lams, lambda t: loads, sched, u0, grid)
        for k in range(rows):
            one = solve_mode_l1(lams[k], lambda t: loads[k], sched, u0[k],
                                grid)
            assert np.array_equal(batch[k], one)

    def test_zero_row_stays_exactly_zero(self):
        grid = L1Grid.for_schedule(self.SCHEDULE, 2.0 ** -8)
        loads = self.loads(grid.times, 3)
        loads[1] = 0.0
        u = solve_mode_l1(np.array([4.0, 9.0, 16.0]), lambda t: loads,
                          self.SCHEDULE, np.array([1.0, 0.0, -1.0]), grid)
        assert np.all(u[1] == 0.0)
        assert np.all(u[[0, 2], 1:] != 0.0)

    def test_rejects_mismatched_shapes(self):
        grid = L1Grid.for_schedule(self.SCHEDULE, 2.0 ** -4)
        lams = np.array([1.0, 2.0])
        loads = np.zeros((2, grid.num_steps + 1))
        with pytest.raises(DomainError):
            solve_mode_l1(lams, lambda t: loads, self.SCHEDULE, 1.0, grid)
        with pytest.raises(DomainError):
            solve_mode_l1(lams, lambda t: loads[0], self.SCHEDULE,
                          np.ones(2), grid)
        with pytest.raises(DomainError):
            solve_mode_l1(np.ones((2, 1)), lambda t: loads[:, None],
                          self.SCHEDULE, np.ones((2, 1)), grid)
        with pytest.raises(DomainError):
            solve_mode_l1(np.array([1.0, -1.0]), lambda t: loads,
                          self.SCHEDULE, np.ones(2), grid)


def forced_three_segments():
    """Three segments, three modes, a linear-in-time load on each."""
    return ProblemSpec(
        schedule=OrderSchedule(breakpoints=(0.0, 0.25, 0.625, 1.0),
                               orders=(0.3, 0.8, 0.5)),
        operator=OperatorSpec(),
        initial_coefficients=(1.0, 0.5, 0.25),
        source=SeparableSource((1.0, 1.0, 1.0),
                               lambda t: 1.0 + 0.5 * t,
                               lambda t: np.full_like(t, 0.5)))


def aliased_modes():
    """20 analytic modes on 16 interior points: modes 17 and up alias."""
    n = np.arange(1, 21)
    return ProblemSpec(
        schedule=two_segment_schedule(),
        operator=OperatorSpec(diffusion=0.5, reaction=2.0, length=2.0),
        initial_coefficients=tuple((-1.0) ** n / n),
        source=SeparableSource(tuple(1.0 / n ** 2),
                               lambda t: np.cos(4.0 * t),
                               lambda t: -4.0 * np.sin(4.0 * t)))


class TestFullFiniteDifference:
    def test_pure_eigenmode_matches_scalar_march(self):
        # the sampled sine is an exact eigenvector of the stencil, so
        # the field march must reduce to the scalar march at the
        # discrete eigenvalue
        spec = ProblemSpec(schedule=two_segment_schedule(),
                           operator=OperatorSpec(),
                           initial_coefficients=(1.0,))
        grid = L1Grid.for_schedule(spec.schedule, 2.0 ** -6)
        points = 64
        field = solve_full_l1_fd(spec, grid, points)

        op = GridOperator(spec.operator, points)
        lam_h = op.eigenvalues()[0]
        scalar = solve_mode_l1(lam_h, np.zeros_like, spec.schedule, 1.0,
                               grid)
        shape = ModalBasis(spec.operator, 1).evaluation_matrix(op.x)[:, 0]
        np.testing.assert_allclose(field[1:-1, :],
                                   np.outer(shape, scalar),
                                   rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("problem,points", [
        (forced_three_segments, 32), (aliased_modes, 16)])
    def test_matches_step_march(self, problem, points):
        # the sine transform is an identity of the discrete system, so
        # it must reproduce the banded-Cholesky march up to rounding
        spec = problem()
        grid = L1Grid.for_schedule(spec.schedule, 2.0 ** -8)
        field = solve_full_l1_fd(spec, grid, points)
        ref = fd_march_oracle(spec, grid, points)
        assert np.max(np.abs(field)) > 0.1
        np.testing.assert_allclose(field, ref, rtol=0.0, atol=1e-12)

    def test_boundary_rows_exactly_zero(self):
        spec = ProblemSpec(schedule=two_segment_schedule(),
                           operator=OperatorSpec(),
                           initial_coefficients=(1.0, -0.5))
        grid = L1Grid.for_schedule(spec.schedule, 2.0 ** -5)
        field = solve_full_l1_fd(spec, grid, 32)
        assert field.shape == (34, grid.num_steps + 1)
        assert np.all(field[0, :] == 0.0)
        assert np.all(field[-1, :] == 0.0)

    def test_zero_data_gives_zero_field(self):
        spec = ProblemSpec(schedule=two_segment_schedule(),
                           operator=OperatorSpec(),
                           initial_coefficients=(0.0, 0.0))
        grid = L1Grid.for_schedule(spec.schedule, 2.0 ** -4)
        field = solve_full_l1_fd(spec, grid, 24)
        assert np.all(field == 0.0)

    def test_manufactured_linear_growth(self):
        # load chosen so (1 + t) times the sampled sine solves the
        # discrete-in-space problem exactly; only roundoff remains
        sched = two_segment_schedule()
        op_spec = OperatorSpec()
        op = GridOperator(op_spec, 48)
        lam_h = op.eigenvalues()[0]

        def mode_load(times):
            t = np.asarray(times, dtype=float)
            out = np.empty_like(t)
            for i, ti in enumerate(t):
                b = sched.orders[sched.segment_of(ti)]
                drift = 0.0 if ti == 0.0 else ti ** (1.0 - b) / gamma_fn(2.0 - b)
                out[i] = drift + lam_h * (1.0 + ti)
            return out

        def mode_load_rate(times):
            t = np.asarray(times, dtype=float)
            out = np.empty_like(t)
            for i, ti in enumerate(t):
                b = sched.orders[sched.segment_of(ti)]
                drift = np.inf if ti == 0.0 else (
                    (1.0 - b) * ti ** (-b) / gamma_fn(2.0 - b))
                out[i] = drift + lam_h
            return out

        spec = ProblemSpec(schedule=sched, operator=op_spec,
                           initial_coefficients=(1.0,),
                           source=SeparableSource((1.0,), mode_load,
                                                  mode_load_rate))
        grid = L1Grid.for_schedule(sched, 2.0 ** -6)
        field = solve_full_l1_fd(spec, grid, 48)

        shape = ModalBasis(op_spec, 1).evaluation_matrix(op.x)[:, 0]
        expected = np.outer(shape, 1.0 + grid.times)
        np.testing.assert_allclose(field[1:-1, :], expected,
                                   rtol=0.0, atol=1e-10)

    def test_rejects_bad_inputs(self):
        spec = ProblemSpec(schedule=two_segment_schedule(),
                           operator=OperatorSpec(),
                           initial_coefficients=(1.0,))
        grid = L1Grid.for_schedule(spec.schedule, 2.0 ** -4)
        with pytest.raises(DomainError):
            solve_full_l1_fd(spec, grid, 8)
        with pytest.raises(DomainError):
            solve_full_l1_fd("spec", grid, 32)
        with pytest.raises(DomainError):
            solve_full_l1_fd(spec, "grid", 32)
        short = L1Grid(step=2.0 ** -4, num_steps=8)
        with pytest.raises(DomainError):
            solve_full_l1_fd(spec, short, 32)
