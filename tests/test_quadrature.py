"""Tests for the singular-endpoint quadrature toolbox.

Reference values are 40-digit adaptive integrals computed with mpmath and
frozen here; the Duhamel references additionally agree with an adaptive
scipy integral of the independently verified kernel to ~1e-12.
"""

import ast
import glob
import math
import os
import warnings

import mpmath as mp
import numpy as np
import pytest

from oracles import integrated_kernel_oracle

from fracstep import quadrature
from fracstep.errors import DomainError
from fracstep.quadrature import (
    composite_graded_integral,
    duhamel_convolve,
    graded_mesh,
    power_kernel_convolve,
    scaled_power_history,
)
from fracstep.special import ml_values

# int_0^1 s**-0.4 exp(s) ds
GRADED_REF = 2.541056465464061297

# int_0^0.4 (t-s)**-kappa s**-0.55 E_{0.45,0.45}(-9 s**0.45) ds
# keyed by (t, kappa): far field, strong rate kernel, coincident endpoint
SCALED_REFS = {
    (0.9, 0.45): 0.1065907604275569161,
    (0.41, 1.45): 0.5675946040807083259,
    (0.4, 0.45): 0.1613633757348885794,
}
SCALED_ORDER = 0.45
SCALED_LAM = 9.0

# int_0^0.8 K_{0.4,9}(0.8-s) cos(3 s) ds  (scipy, cross-checked vs mpmath)
DUHAMEL_SMOOTH_REF = -0.065977219389160
DUHAMEL_ALPHA, DUHAMEL_LAM, DUHAMEL_T = 0.4, 9.0, 0.8

# mpmath's 40-digit Gauss-Jacobi rules (n, p, q = 0, node, weight)
JACOBI_REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                                "jacobi_reference.csv")


class TestGradedMesh:
    def test_left_grading_shape(self):
        nodes = graded_mesh(1.0, 3.0, 8, 2.0)
        assert nodes[0] == 1.0 and nodes[-1] == 3.0
        widths = np.diff(nodes)
        assert np.all(widths > 0)
        assert np.all(np.diff(widths) > 0)  # cells grow away from a

    def test_collapse_guard_keeps_nodes_distinct(self):
        nodes = graded_mesh(0.0, 1.0, 4096, 50.0)
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("kwargs", [
        dict(a=1.0, b=1.0, n=4), dict(a=0.0, b=-1.0, n=4),
        dict(a=0.0, b=1.0, n=0), dict(a=0.0, b=1.0, n=4, grading=0.5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            graded_mesh(**kwargs)


class TestJacobiIntegral:
    @staticmethod
    def _integral(smooth, p, n):
        # int_0^1 s**p smooth(s) ds with the cached Jacobi rule
        x, w = quadrature._jacobi_rule(n, p)
        return 0.5 ** (p + 1.0) * float(np.dot(w, smooth(0.5 * (x + 1.0))))

    def test_polynomial_exactness(self):
        # s**1.5 weight against a cubic: exact beta-function value
        got = self._integral(lambda s: s ** 3, 1.5, 6)
        assert got == pytest.approx(1.0 / 5.5, rel=1e-14)


class TestJacobiRule:
    """Golub-Welsch rule against mpmath's 40-digit Gauss-Jacobi rule,
    frozen in ``tests/data`` by ``scripts/generate_jacobi_reference.py``."""

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 16, 24, 32, 48])
    def test_matches_mpmath(self, n):
        table = np.loadtxt(JACOBI_REFERENCE, delimiter=",", skiprows=1)
        for p in (-0.95, -0.7, -0.5, -0.2, 0.0, 0.3, 0.7, 1.5):
            rows = table[(table[:, 0] == n) & (table[:, 1] == p)]
            assert rows.shape[0] == n, p
            x, w = quadrature._jacobi_rule(n, p)
            assert np.max(np.abs(x - rows[:, 3])) <= 1e-15, p
            assert np.max(np.abs(w / rows[:, 4] - 1.0)) <= 2e-13, p


class TestScaledPowerHistory:
    """Impulse-response memory integrals with the scaled-variable rule."""

    @staticmethod
    def _profile(xi):
        return ml_values(SCALED_ORDER, SCALED_ORDER,
                         -SCALED_LAM * np.asarray(xi, dtype=float))

    @pytest.mark.parametrize("t,kappa", sorted(SCALED_REFS))
    def test_reference_values(self, t, kappa):
        got = scaled_power_history(self._profile, 0.0, 0.4, t, kappa,
                                   SCALED_ORDER)
        assert got == pytest.approx(SCALED_REFS[(t, kappa)], abs=1e-11)

    def test_constant_profile_is_beta_integral(self):
        # profile == 1 turns the far-field integral into
        # int_a^b (t-s)**-k (s-a)**(p-1) ds, checked against mpmath's
        # tanh-sinh rule in x = s - a; its nodes stop near 10**-dps, and
        # the neglected x**(p-1) mass is that to the power p, so 60 digits
        a, b, t, kappa, p = 0.1, 0.5, 2.0, 0.7, 0.3
        got = scaled_power_history(lambda xi: np.ones_like(xi),
                                   a, b, t, kappa, p)
        with mp.workdps(60):
            width = mp.mpf(t) - mp.mpf(a)
            want = mp.quad(lambda x: (width - x) ** (-kappa)
                           * x ** (p - 1.0), [0, mp.mpf(b) - mp.mpf(a)])
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_rule_refinement_is_converged(self, monkeypatch):
        # defaults must already sit at the refined value
        coarse = scaled_power_history(self._profile, 0.0, 0.4, 0.401,
                                      1.45, SCALED_ORDER)
        monkeypatch.setattr(quadrature, "HISTORY_CELLS", 24)
        fine = scaled_power_history(self._profile, 0.0, 0.4, 0.401,
                                    1.45, SCALED_ORDER, n=48)
        assert coarse == pytest.approx(fine, rel=1e-11)

    def test_batch_matches_one_time_at_a_time(self):
        # the batch holds far times, near times with t > b and t == b;
        # each time is reduced on the same values as a call of its own
        b = 0.4
        for kappa in (0.45, 1.45):
            times = np.array([[0.9, b + 1e-9, 0.41],
                              [b + 0.04, b + 0.0399, b]])
            if kappa > 1.0:
                times[1, 2] = 0.5
            got = scaled_power_history(self._profile, 0.0, b, times, kappa,
                                       SCALED_ORDER)
            assert got.shape == times.shape
            want = [[scaled_power_history(self._profile, 0.0, b, float(t),
                                          kappa, SCALED_ORDER)
                     for t in row] for row in times]
            np.testing.assert_array_equal(got, want)
            assert isinstance(want[0][0], float)
        # one exponent per time, each time equal to its scalar-exponent
        # call: far and near times alternate 0.45 with kappa = 1, whose
        # float power numpy takes as a reciprocal (pow differs in the
        # last bit for some bases, and so would two of these results),
        # 0.41 twice with two exponents, and t == b on kappa = 0.5
        times = np.append(b + np.geomspace(1e-9, 2.6, 40), [0.41, 0.41, b])
        kappa = np.append(np.resize([0.45, 1.0], 40), [0.45, 1.45, 0.5])
        got = scaled_power_history(self._profile, 0.0, b,
                                   times.reshape(-1, 1), kappa[:, None],
                                   SCALED_ORDER)
        np.testing.assert_array_equal(got[:, 0], [
            scaled_power_history(self._profile, 0.0, b, t, k, SCALED_ORDER)
            for t, k in zip(times, kappa)])

    def test_rows_match_one_row_calls(self, monkeypatch):
        # one profile row per eigenvalue, one of them a zero row; far
        # times, near times with t > b, t == b and scalar times, and a
        # budget small enough to split the times into many blocks
        lams = np.array([9.0, 0.0, 2.5, 40.0])
        scale = np.array([[1.0], [0.0], [-0.7], [1.3]])

        def rows(xi):
            return scale * ml_values(SCALED_ORDER, SCALED_ORDER,
                                     -lams[:, None] * xi)

        def one(m):
            return lambda xi: scale[m, 0] * ml_values(
                SCALED_ORDER, SCALED_ORDER, -lams[m] * xi)

        b = 0.4
        for budget in (quadrature._BLOCK_NODES, 700):
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
            for kappa in (0.45, 1.45):
                times = np.array([[0.9, b + 1e-9, 0.41],
                                  [b + 0.04, 2.0, b]])
                if kappa > 1.0:
                    times[1, 2] = 0.5
                got = scaled_power_history(rows, 0.0, b, times, kappa,
                                           SCALED_ORDER)
                assert got.shape == (4,) + times.shape
                for m in range(4):
                    want = scaled_power_history(one(m), 0.0, b, times,
                                                kappa, SCALED_ORDER)
                    np.testing.assert_array_equal(got[m], want)
                assert np.all(got[1] == 0.0)
                for t in (0.9, b + 1e-9, b + 0.04):
                    at = scaled_power_history(rows, 0.0, b, t, kappa,
                                              SCALED_ORDER)
                    assert at.shape == (4,)
                    np.testing.assert_array_equal(at, [
                        scaled_power_history(one(m), 0.0, b, t, kappa,
                                             SCALED_ORDER)
                        for m in range(4)])
            at_b = scaled_power_history(rows, 0.0, b, b, 0.45, SCALED_ORDER)
            np.testing.assert_array_equal(at_b, [
                scaled_power_history(one(m), 0.0, b, b, 0.45, SCALED_ORDER)
                for m in range(4)])
            # one exponent per time: row by row and time by time
            times = np.array([0.9, b + 1e-9, 0.41, 0.41, b, 2.0])
            kappa = np.array([1.45, 0.45, 0.45, 1.45, 0.45, 1.0])
            got = scaled_power_history(rows, 0.0, b, times, kappa,
                                       SCALED_ORDER)
            for m in range(4):
                np.testing.assert_array_equal(got[m], [
                    scaled_power_history(one(m), 0.0, b, t, k,
                                         SCALED_ORDER)
                    for t, k in zip(times, kappa)])

    def test_per_time_limits_match_scalar_limit_calls(self, monkeypatch):
        # each time with its own limit equals a call with that limit as
        # a scalar and that time alone: limits equal to t (the Jacobi
        # cell), near and far limits below t, shared and distinct limits
        # in one call, three profile rows, and budgets small enough to
        # split the times into many blocks
        lams = np.array([9.0, 0.0, 2.5])

        def rows(xi):
            return ml_values(SCALED_ORDER, SCALED_ORDER, -lams[:, None] * xi)

        times = np.array([[0.3, 0.9, 0.41, 0.41, 2.0],
                          [0.4, 0.4 + 1e-9, 0.5, 0.2, 0.41]])
        on_time = np.array([[0.3, 0.4, 0.4, 0.405, 0.47],
                            [0.4, 0.4, 0.47, 0.2, 0.4]])
        for budget in (quadrature._BLOCK_NODES, 700, 50):
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
            for kappa in (0.45, 1.45):
                limits = on_time if kappa < 1.0 else \
                    np.where(on_time == times, 0.9 * on_time, on_time)
                got = scaled_power_history(rows, 0.0, limits, times, kappa,
                                           SCALED_ORDER)
                assert got.shape == (3,) + times.shape
                for i in np.ndindex(times.shape):
                    np.testing.assert_array_equal(
                        got[(slice(None),) + i],
                        scaled_power_history(rows, 0.0, limits[i], times[i],
                                             kappa, SCALED_ORDER))
                # and with one exponent per time as well
                mixed = np.where(limits == times, 0.45, 1.45)
                mixed[0, 1] = kappa
                got = scaled_power_history(rows, 0.0, limits, times, mixed,
                                           SCALED_ORDER)
                for i in np.ndindex(times.shape):
                    np.testing.assert_array_equal(
                        got[(slice(None),) + i],
                        scaled_power_history(rows, 0.0, limits[i], times[i],
                                             mixed[i], SCALED_ORDER))
                # one limit given per time is the scalar limit's call
                above = times[times > 0.4]
                shared = np.full(above.shape, 0.4)
                np.testing.assert_array_equal(
                    scaled_power_history(rows, 0.0, shared, above, kappa,
                                         SCALED_ORDER),
                    scaled_power_history(rows, 0.0, 0.4, above, kappa,
                                         SCALED_ORDER))

    def test_repeated_times_share_their_right_halves(self, monkeypatch):
        # a (t, b) pair asked for under several exponents builds its
        # stretched right half and evaluates the profile on it once:
        # the call takes as many profile nodes as one with each pair
        # once, plus one Jacobi cell of n = 24 nodes per further exponent
        # at t == b; each result equals its one-time, one-exponent call
        lams = np.array([9.0, 2.5])
        counts = []

        def rows(xi):
            counts.append(np.size(xi))
            return ml_values(SCALED_ORDER, SCALED_ORDER, -lams[:, None] * xi)

        def nodes(b, times, kappa):
            counts.clear()
            got = scaled_power_history(rows, 0.0, b, times, kappa,
                                       SCALED_ORDER)
            return got, counts[0]

        b, near = 0.4, 0.4 + 1e-6
        cases = [
            # every near time above b under the same two exponents, the
            # far time and t == b once
            (b, [0.41, near, 0.41, near, 0.9, b],
             [0.45, 0.45, 1.45, 1.45, 1.0, 0.45], 0),
            # near times above b thrice, twice and once, t == b under
            # two exponents, a far time twice
            (b, [0.41, 0.41, 0.41, near, near, 0.43, b, b, 0.9, 0.9],
             [0.45, 1.45, 1.0, 1.45, 0.45, 0.45, 0.45, 0.5, 1.45, 0.45], 1),
            # per-time limits: a time with two limits, a pair twice, t
            # == b under two exponents, a far time twice
            ([0.4, 0.4, 0.405, 0.47, 0.47, 0.4, 0.4, 0.4, 0.4, 0.4],
             [0.41, 0.41, 0.41, 0.5, 0.5, 0.43, 0.4, 0.4, 2.0, 2.0],
             [0.45, 1.45, 0.45, 1.0, 0.45, 1.45, 0.45, 0.5, 0.45, 1.45], 1),
        ]
        for limits, times, kappa, jacobi in cases:
            pairs = sorted(set(zip(np.broadcast_to(limits, len(times)),
                                   times)))
            once = nodes(np.array([p[0] for p in pairs]),
                         np.array([p[1] for p in pairs]), 0.45)[1]
            for budget in (quadrature._BLOCK_NODES, 50):
                monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
                got, count = nodes(np.array(limits), np.array(times),
                                   np.array(kappa))
                assert count == once + 24 * jacobi
                for i, (lim, t, k) in enumerate(zip(
                        np.broadcast_to(limits, len(times)), times, kappa)):
                    np.testing.assert_array_equal(
                        got[:, i], scaled_power_history(
                            rows, 0.0, lim, t, k, SCALED_ORDER))

    def test_empty_times(self):
        # no times give an empty result with the profile's rows, shaped
        # as the times are, and no error
        lams = np.array([9.0, 2.5])

        def rows(xi):
            return ml_values(SCALED_ORDER, SCALED_ORDER, -lams[:, None] * xi)

        for times in (np.empty(0), np.empty((0, 3))):
            for kappa in (0.45, 1.45):
                one = scaled_power_history(self._profile, 0.0, 0.4, times,
                                           kappa, SCALED_ORDER)
                assert one.shape == times.shape
                two = scaled_power_history(rows, 0.0, 0.4, times, kappa,
                                           SCALED_ORDER)
                assert two.shape == (2,) + times.shape

    def test_no_rows_give_an_empty_result(self):
        # a profile with no rows gives (0,) + times.shape, as the
        # tabulated convolutions do, with or without times
        def none(xi):
            return np.ones((0,) + np.shape(xi))

        for times in (np.array([0.41, 0.6, 0.4]), np.empty(0)):
            got = scaled_power_history(none, 0.0, 0.4, times, 0.45,
                                       SCALED_ORDER)
            assert got.shape == (0,) + times.shape

    def test_validation(self):
        one = lambda xi: np.ones_like(xi)
        for a, b, t, kappa, power in [
                (0.0, 0.4, 0.3, 0.5, 0.5),   # t < b
                (0.4, 0.4, 0.5, 0.5, 0.5),   # empty
                (0.0, 0.4, 0.4, 1.5, 0.5),   # t == b
                (0.0, 0.4, 0.5, 2.5, 0.5),   # kappa
                (0.0, 0.4, 0.5, 0.5, 1.5)]:  # power
            with pytest.raises(DomainError):
                scaled_power_history(one, a, b, t, kappa, power)
            # an array with this time among good ones is rejected too
            with pytest.raises(DomainError):
                scaled_power_history(one, a, b, np.array([0.9, t, 0.6]),
                                     kappa, power)
        times = np.array([0.5, 0.9])
        for limits, kappa in [
                ([0.4, 0.0], 0.5),    # a limit at a
                ([0.4, -0.1], 0.5),   # a limit below a
                ([0.4, 0.95], 0.5),   # a time below its limit
                ([0.5, 0.6], 1.5)]:   # t == its limit with kappa >= 1
            with pytest.raises(DomainError):
                scaled_power_history(one, 0.0, np.array(limits), times,
                                     kappa, 0.5)
        # t == its limit is integrable for kappa < 1
        got = scaled_power_history(one, 0.0, np.array([0.5, 0.6]), times,
                                   0.5, 0.5)
        assert np.all(np.isfinite(got))
        # per-time exponents are checked time by time, the first bad one
        # named: kappa >= 1 on t == b, outside (0, 2), or NaN
        for kappa, named in [([0.5, 1.5, 1.25], "1.25"),
                             ([0.5, 2.0, 0.5], "2.0"),
                             ([0.5, np.nan, 0.5], "nan")]:
            with pytest.raises(DomainError, match=rf"exponent.* {named}"):
                scaled_power_history(one, 0.0, 0.4,
                                     np.array([0.6, 0.9, 0.4]),
                                     np.array(kappa), 0.5)

    @pytest.mark.parametrize("b,t,named", [
        (0.4, math.nan, "time nan"),
        (0.4, math.inf, "time inf"),
        (math.nan, 0.5, "nan"),
        (np.array([0.4, math.nan]), 0.5, "nan")])
    def test_rejects_non_finite_times_and_limits(self, b, t, named):
        # NaN fails every comparison, so each is rejected by name, alone
        # or among good times, not integrated to NaN or 0.0
        one = lambda xi: np.ones_like(xi)
        for times in (t, np.array([0.9, t])):
            with pytest.raises(DomainError, match=named):
                scaled_power_history(one, 0.0, b, times, 0.5, 0.5)


class TestPowerKernelConvolve:
    """Exact weakly singular convolution of tabulated densities."""

    A, B = 0.2, 0.7

    def _affine_reference(self, t, kappa):
        # int_a^b (t-s)**-k (c0 + c1 s) ds via exact kernel moments
        c0, c1 = 0.4, -1.3
        ua, ub = t - self.A, t - self.B
        m0 = (ua ** (1 - kappa) - ub ** (1 - kappa)) / (1 - kappa)
        m1 = (ua ** (2 - kappa) - ub ** (2 - kappa)) / (2 - kappa)
        return (c0 + c1 * t) * m0 - c1 * m1

    @pytest.mark.parametrize("kappa", [0.35, 0.45, 1.3, 1.7])
    @pytest.mark.parametrize("t", [0.7 + 1e-9, 0.71, 1.5])
    def test_affine_density_is_exact(self, kappa, t):
        nodes = graded_mesh(self.A, self.B, 37, 3.0)
        got = power_kernel_convolve(nodes, 0.4 - 1.3 * nodes, t, kappa)
        assert got == pytest.approx(self._affine_reference(t, kappa),
                                    rel=1e-13)

    def test_coincident_weak_kernel(self):
        nodes = graded_mesh(self.A, self.B, 37, 3.0)
        got = power_kernel_convolve(nodes, 0.4 - 1.3 * nodes, 0.7, 0.45)
        assert got == pytest.approx(self._affine_reference(0.7, 0.45),
                                    rel=1e-12)

    def test_smooth_density_converges_with_tabulation(self):
        errs = []
        for n in (64, 256, 1024):
            nodes = np.linspace(self.A, self.B, n + 1)
            got = power_kernel_convolve(nodes, np.cos(3.0 * nodes),
                                        1.2, 1.45)
            errs.append(got)
        # successive refinements must settle at second order
        assert abs(errs[1] - errs[2]) < abs(errs[0] - errs[1]) / 8.0

    def test_batch_matches_one_time_at_a_time(self, monkeypatch):
        # near times (t == end included, kappa < 1) and far ones; each
        # time is summed on its own row, so batching changes no bit
        nodes = graded_mesh(self.A, self.B, 37, 3.0)
        samples = np.cos(3.0 * nodes)
        for kappa in (0.45, 1.45):
            times = np.array([[self.B + 1e-9, 0.71, 1.5],
                              [self.B + 0.002, 0.9, self.B]])
            if kappa > 1.0:
                times[1, 2] = 0.75
            got = power_kernel_convolve(nodes, samples, times, kappa)
            assert got.shape == times.shape
            want = [[power_kernel_convolve(nodes, samples, float(t), kappa)
                     for t in row] for row in times]
            np.testing.assert_array_equal(got, want)
            assert isinstance(want[0][0], float)
        # one exponent per time, 0.71 twice with two of them, kappa = 1
        # and t == end on kappa = 0.5, whose float power 1 - kappa numpy
        # takes as a square root: each time equals its scalar-exponent
        # call
        times = np.array([[self.B + 1e-9, 0.71, 1.5],
                          [0.71, 0.9, self.B]])
        kappa = np.array([[0.45, 1.45, 1.0], [0.45, 1.45, 0.5]])
        got = power_kernel_convolve(nodes, samples, times, kappa)
        np.testing.assert_array_equal(got, [
            [power_kernel_convolve(nodes, samples, float(t), float(k))
             for t, k in zip(*row)] for row in zip(times, kappa)])
        # a budget of 600 mesh nodes holds 15 or 16 meshes of 38 nodes,
        # so 51 times make four blocks, the last one short
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 600)
        times = np.concatenate([[self.B], np.geomspace(1e-9, 2.0, 50)
                                + self.B])
        got = power_kernel_convolve(nodes, samples, times, 0.45)
        np.testing.assert_array_equal(got, [
            power_kernel_convolve(nodes, samples, float(t), 0.45)
            for t in times])

    @pytest.mark.parametrize("kappa", [0.45, 1.45])
    def test_rows_match_one_row_calls(self, kappa, monkeypatch):
        # (M, N) samples, a zero row among them; near and far times, and
        # a budget that splits the six times, four rows of 38-node
        # meshes each, into two blocks of three
        nodes = graded_mesh(self.A, self.B, 37, 3.0)
        samples = np.vstack([np.cos(3.0 * nodes), np.zeros_like(nodes),
                             0.4 - 1.3 * nodes, np.exp(-nodes)])
        times = np.array([[self.B + 1e-9, 0.71, 1.5],
                          [self.B + 0.002, 0.9, self.B]])
        if kappa > 1.0:
            times[1, 2] = 0.75
        for budget in (quadrature._BLOCK_NODES, 600):
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
            got = power_kernel_convolve(nodes, samples, times, kappa)
            assert got.shape == (4,) + times.shape
            for row, values in zip(samples, got):
                np.testing.assert_array_equal(
                    values, power_kernel_convolve(nodes, row, times, kappa))
            assert np.all(got[1] == 0.0)
            at = power_kernel_convolve(nodes, samples, 0.9, kappa)
            assert at.shape == (4,)
            np.testing.assert_array_equal(at, [
                power_kernel_convolve(nodes, row, 0.9, kappa)
                for row in samples])
            # one exponent per time: the times past 0.8 take the other one
            mixed = np.where(times > 0.8, 1.45 if kappa < 1.0 else 0.45,
                             kappa)
            got = power_kernel_convolve(nodes, samples, times, mixed)
            for row, values in zip(samples, got):
                np.testing.assert_array_equal(values, [
                    [power_kernel_convolve(nodes, row, t, k)
                     for t, k in zip(*pair)] for pair in zip(times, mixed)])

    @staticmethod
    def _check_cell_moments(kappa, ratios):
        # one cell at h = r * u_near from t: samples (1, 1) give its mass
        # and (0, 1) its right weight alone, each to 1e-14 of mpmath
        t, u_near = 1.0, 0.6
        for r in ratios:
            nodes = np.array([t - u_near - r * u_near, t - u_near])
            with mp.workdps(30):
                uf, un = mp.mpf(t) - nodes[0], mp.mpf(t) - nodes[1]
                h = uf - un
                mass = mp.quad(lambda u: u ** -kappa, [un, uf])
                weight = mp.quad(lambda u: (uf - u) / h * u ** -kappa,
                                 [un, uf])
            for samples, want in (([1.0, 1.0], mass), ([0.0, 1.0], weight)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = power_kernel_convolve(nodes, np.array(samples), t,
                                                kappa)
                assert abs(got - want) <= 1e-14 * abs(want), (r, samples)

    @pytest.mark.parametrize("kappa", [0.3, 0.8, 0.95, 1.05, 1.3, 1.8,
                                       1.95])
    def test_far_cell_moments_match_mpmath(self, kappa):
        # r up to the near threshold 1/3: far from t the closed-form
        # differences cancel, and near kappa = 1 they also divide by
        # 1 - kappa
        self._check_cell_moments(kappa, np.geomspace(1e-12, 0.333, 12))

    @pytest.mark.parametrize("kappa", [0.95, 0.999, 1.0, 1.001, 1.05])
    def test_near_cell_moments_match_mpmath(self, kappa):
        # r from just past the near threshold out: (pa - pb) / (1 - kappa)
        # would cancel here, and at kappa = 1 be 0 / 0
        self._check_cell_moments(kappa, (0.34, 1.0, 10.0, 1e3))

    def test_validation(self):
        nodes = np.linspace(0.0, 1.0, 9)
        ones = np.ones(9)
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, np.ones((2, 8)), 1.1, 0.5)
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, np.ones((2, 2, 9)), 1.1, 0.5)
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, ones, 0.9, 0.5)   # t short
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, ones, 1.0, 1.5)   # t == end
        # an array with one bad time among good ones is rejected too
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, ones, np.array([1.1, 0.9, 2.0]),
                                  0.5)
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, ones, np.array([1.1, 1.0, 2.0]),
                                  1.5)
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, ones, 1.1, 2.5)   # kappa
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes, np.ones(8), 1.1, 0.5)
        with pytest.raises(DomainError):
            power_kernel_convolve(nodes[::-1], ones, 1.1, 0.5)
        # per-time exponents are checked time by time, the first bad one
        # named: kappa >= 1 on t == end, outside (0, 2), or NaN
        for kappa, named in [([0.5, 1.5, 1.25], "1.25"),
                             ([0.5, 0.0, 0.5], "0.0"),
                             ([0.5, np.nan, 0.5], "nan")]:
            with pytest.raises(DomainError, match=rf"exponent.* {named}"):
                power_kernel_convolve(nodes, ones, np.array([1.1, 2.0, 1.0]),
                                      np.array(kappa))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, t):
        # NaN fails every comparison and inf overflows the moments: each
        # is rejected by name, alone or among good times
        nodes = np.linspace(0.0, 1.0, 9)
        for times in (t, np.array([1.1, t])):
            with pytest.raises(DomainError, match=f"time {t}"):
                power_kernel_convolve(nodes, np.ones(9), times, 0.5)


class TestDuhamelConvolve:
    def test_constant_density_is_exact(self):
        nodes = np.linspace(0.0, 0.7, 23)
        got = duhamel_convolve(0.35, 5.0, nodes, np.full(23, 2.5),
                               times=nodes[-1])
        want = 2.5 * float(integrated_kernel_oracle(0.35, 5.0, 0.7))
        assert got == pytest.approx(want, abs=1e-13)

    def test_affine_density_is_exact(self):
        nodes = graded_mesh(0.1, 0.9, 17, 3.0)
        got = duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes,
                               2.0 - 3.0 * nodes, times=nodes[-1])
        fine = graded_mesh(0.1, 0.9, 4096, 3.0)
        want = duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, fine,
                                2.0 - 3.0 * fine, times=fine[-1])
        assert got == pytest.approx(want, abs=1e-12)

    def test_smooth_density_reference(self):
        nodes = np.linspace(0.0, DUHAMEL_T, 257)
        got = duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes,
                               np.cos(3.0 * nodes), times=nodes[-1])
        assert got == pytest.approx(DUHAMEL_SMOOTH_REF, abs=5e-6)

    def test_second_order_convergence(self):
        errs = []
        for n in (32, 64, 128, 256):
            nodes = np.linspace(0.0, DUHAMEL_T, n + 1)
            got = duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes,
                                   np.cos(3.0 * nodes), times=nodes[-1])
            errs.append(abs(got - DUHAMEL_SMOOTH_REF))
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(rates) > 1.5

    def test_batch_matches_one_time_at_a_time(self, monkeypatch):
        # each time's mesh is the nodes below it plus the time itself, so
        # batching must not change a single bit; the batch holds a time
        # on a node, times between nodes and the last node
        nodes = graded_mesh(0.1, 0.9, 40, 3.0)
        samples = np.cos(3.0 * nodes)
        times = np.array([[0.1 + 1e-9, nodes[7], 0.3],
                          [0.55, 0.8999, nodes[-1]]])
        got = duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes, samples,
                               times)
        assert got.shape == times.shape
        want = [[duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes,
                                  samples, float(t)) for t in row]
                for row in times]
        np.testing.assert_array_equal(got, want)
        assert isinstance(want[0][0], float)
        # a budget of 60 mesh nodes splits 50 times into many blocks,
        # some holding one mesh longer than the budget
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 60)
        times = np.linspace(0.1 + 1e-9, 0.9, 50)
        got = duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes, samples,
                               times)
        np.testing.assert_array_equal(got, [
            duhamel_convolve(DUHAMEL_ALPHA, DUHAMEL_LAM, nodes, samples,
                             float(t)) for t in times])

    def test_rows_match_one_row_calls(self, monkeypatch):
        # meshes of up to 300 nodes cross numpy's 128-element pairwise
        # summation blocks; each row must still equal its one-row call
        # and each time alone its value inside the batch, bit for bit
        nodes = graded_mesh(0.1, 0.9, 299, 3.0)
        lam = np.array([0.0, 9.0, 1e3, 9.0, 2.5])
        samples = np.array([np.cos(3.0 * nodes), np.cos(3.0 * nodes),
                            1.0 + nodes ** 2, 2.0 - 3.0 * nodes,
                            np.exp(-nodes)])
        times = np.array([0.1 + 1e-9, nodes[127], nodes[128], 0.5,
                          nodes[200], 0.8999, nodes[-1]])
        for budget in (1 << 16, 700):
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
            got = duhamel_convolve(DUHAMEL_ALPHA, lam, nodes, samples, times)
            assert got.shape == (lam.size, times.size)
            for m in range(lam.size):
                np.testing.assert_array_equal(got[m], duhamel_convolve(
                    DUHAMEL_ALPHA, lam[m], nodes, samples[m], times))
            for k, t in enumerate(times):
                np.testing.assert_array_equal(got[:, k], duhamel_convolve(
                    DUHAMEL_ALPHA, lam, nodes, samples, float(t)))
        with pytest.raises(DomainError):
            duhamel_convolve(DUHAMEL_ALPHA, lam, nodes, samples[:4], times)
        with pytest.raises(DomainError):
            duhamel_convolve(DUHAMEL_ALPHA, -lam, nodes, samples, times)

    def test_validation(self):
        nodes = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            duhamel_convolve(1.0, 1.0, nodes, np.ones(5), 1.0)
        with pytest.raises(DomainError):
            duhamel_convolve(0.5, -1.0, nodes, np.ones(5), 1.0)
        with pytest.raises(DomainError):
            duhamel_convolve(0.5, 1.0, nodes, np.ones(4), 1.0)
        with pytest.raises(DomainError):
            duhamel_convolve(0.5, 1.0, nodes[::-1], np.ones(5), 1.0)
        # times must lie in (nodes[0], nodes[-1]]
        for times in (0.0, -0.5, 1.0 + 1e-12, np.array([0.5, 2.0])):
            with pytest.raises(DomainError):
                duhamel_convolve(0.5, 1.0, nodes, np.ones(5), times)

    def test_no_rows_give_an_empty_result(self):
        # no eigenvalues, or no densities, give (0, times) as any row
        # count does, from both tabulated convolutions
        nodes = np.linspace(0.0, 1.0, 5)
        times = np.array([0.3, 0.7, 1.0])
        got = duhamel_convolve(0.5, np.array([]), nodes, np.zeros((0, 5)),
                               times)
        assert got.shape == (0, 3)
        got = power_kernel_convolve(nodes, np.zeros((0, 5)), times + 1.0,
                                    0.5)
        assert got.shape == (0, 3)


class TestCompositeGraded:
    def test_reference(self):
        got = composite_graded_integral(np.exp, 0.0, 1.0, -0.4, n_cells=32)
        assert got == pytest.approx(GRADED_REF, abs=1e-10)

    def test_calls_smooth_once(self):
        calls = []

        def smooth(s):
            calls.append(np.size(s))
            return np.exp(s)

        got = composite_graded_integral(smooth, 0.0, 1.0, -0.4, n_cells=32)
        assert calls == [32 * 12]
        assert got == composite_graded_integral(np.exp, 0.0, 1.0, -0.4,
                                                n_cells=32)

    def test_plain_weight_reduces_to_smooth_integral(self):
        got = composite_graded_integral(np.sin, 0.0, math.pi,
                                        left_exponent=0.0, n_cells=16)
        assert got == pytest.approx(2.0, rel=1e-10)


_BLAS_NAMES = ("dot", "matmul", "einsum", "inner", "tensordot", "vdot",
               "norm", "convolve", "correlate")


_PACKAGE = os.path.dirname(quadrature.__file__)


# every module of the package, so that a new one cannot escape the check
@pytest.mark.parametrize("module", sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(_PACKAGE, "*.py"))))
def test_quadrature_module_uses_no_blas_product(module):
    # BLAS fixes no summation order, so a product there could make a
    # batched row differ from a one-row call, or the contour sum of one
    # call size differ from another's, in its last bits
    path = os.path.join(_PACKAGE, module)
    with open(path) as handle:
        tree = ast.parse(handle.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        if isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append(f".{node.attr} at line {node.lineno}")
        if isinstance(node, ast.ImportFrom) and any(
                alias.name in _BLAS_NAMES for alias in node.names):
            found.append(f"import at line {node.lineno}")
    assert found == []
