"""Accuracy and contract tests for the Mittag-Leffler machinery.

Frozen reference values were produced by the big-float routines in
``tests/oracles.py`` at 50 significant digits and pasted here, so the
production code is tested against an independent implementation rather
than against itself.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from oracles import ml_oracle

from fracstep import special
from fracstep.errors import DomainError
from fracstep.special import (
    measured_envelope,
    ml,
    ml_values,
)

# (alpha, beta, z) -> E_{alpha,beta}(z), from small to large arguments
ML_REFERENCE = {
    (0.5, 1.0, -1.0): 0.42758357615580700441,
    (0.3, 1.0, -1.5): 0.35538165657360314498,
    (0.3, 0.3, -2.2): 0.02788379171608883374,
    (0.3, 1.3, -50.0): 0.019695435969963706099,
    (0.9, 0.9, -12.0): 0.00091508415994729330783,
}

RELAX_0_7_5_0_3 = 0.19798766099663128277
DKER_0_6_3_0_2 = 0.27798540607258802782
IKER_0_4_2_0_7 = 0.34751140580717904992
IKER_0_5_10_9 = 0.09812041111385832485


def assert_same_bits(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def duhamel_kernel(alpha, lam, s):
    """Convolution kernel ``s**(alpha-1) * E_{alpha,alpha}(-lam s**alpha)``."""
    return s ** (alpha - 1.0) * ml((alpha, alpha), -lam * s ** alpha)


def integrated_kernel(alpha, lam, tau):
    """Its primitive ``tau**alpha * E_{alpha,alpha+1}(-lam tau**alpha)``."""
    return tau ** alpha * ml((alpha, alpha + 1.0), -lam * tau ** alpha)


class TestMLParams:
    """``ml_values`` rejects an ``(alpha, beta)`` pair outside its range."""

    @pytest.mark.parametrize("alpha,beta", [
        (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (-0.3, 1.0), (0.5, 0.0),
        (0.5, -2.0), (math.nan, 1.0), (0.5, math.inf), (0.5, math.nan),
        (math.inf, 1.0), (-math.inf, 1.0), (0.5, -math.inf),
    ])
    def test_rejects_bad_parameters(self, alpha, beta):
        with pytest.raises(DomainError):
            ml_values(alpha, beta, np.array([-1.0]))
        with pytest.raises(DomainError):
            ml_values(alpha, (1.0, beta), np.array([-1.0]))

    def test_accepts_open_ranges(self):
        ml_values(1e-3, 1e-3, np.array([-1.0]))
        ml_values(0.999, 10.0, np.array([-1.0]))


class TestMLPointValues:
    @pytest.mark.parametrize("key", sorted(ML_REFERENCE))
    def test_frozen_references(self, key):
        alpha, beta, z = key
        assert ml((alpha, beta), z) == pytest.approx(
            ML_REFERENCE[key], abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.7, 0.7)])
    def test_value_at_origin(self, alpha, beta):
        assert ml((alpha, beta), 0.0) == 1.0 / math.gamma(beta)

    @pytest.mark.parametrize("z", [1e-8, 1.0, math.nan])
    def test_rejects_positive_or_nonfinite(self, z):
        with pytest.raises(DomainError):
            ml((0.5, 1.0), z)


class TestMLAccuracy:
    """Randomized comparison against the independent big-float oracle."""

    def test_sweep_below_one(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for alpha in (0.05, 0.2, 0.6, 0.95, 0.99):
            for beta in (alpha, 1.0, alpha + 1.0, alpha + 2.0):
                for z in -10.0 ** rng.uniform(-2, 7, size=12):
                    err = abs(ml((alpha, beta), float(z))
                              - float(ml_oracle(alpha, beta, float(z))))
                    worst = max(worst, err)
        assert worst < 1e-13


class TestMLShapeProperties:
    def test_completely_monotone_profile(self):
        # E_{alpha,1}(-x) must decrease from 1 and stay positive
        params = (0.4, 1.0)
        xs = np.logspace(-3, 5, 60)
        vals = [ml(params, -float(x)) for x in xs]
        assert vals[0] < 1.0
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,beta", [(0.4, 1.0), (0.7, 0.7),
                                            (0.95, 1.95)])
    def test_uniform_envelope(self, alpha, beta):
        assert measured_envelope((alpha, beta)) <= 5.0


class TestMLArray:
    def test_matches_scalar_across_bands(self):
        rng = np.random.default_rng(7)
        for alpha, beta in [(0.25, 1.0), (0.6, 0.6), (0.95, 1.95)]:
            z = -np.concatenate([[0.0], 10.0 ** rng.uniform(-3, 5.5, 48)])
            params = (alpha, beta)
            vals = ml_values(alpha, beta, z)
            scalars = np.array([ml(params, float(zi)) for zi in z])
            np.testing.assert_array_equal(vals, scalars)

    @pytest.mark.parametrize("alpha", [0.25, 0.6, 0.95])
    def test_every_call_size_and_shape_gives_the_same_bits(self, alpha):
        # calls up to the cutoff sum all contour nodes at once, larger
        # ones loop over the nodes, in slices past _LOOP_POINTS; a probe
        # must not see the difference
        n = special._BROADCAST_POINTS
        sliced = special._LOOP_POINTS + 1
        rng = np.random.default_rng(13)
        probes = -np.array([0.0, 1e-300, 1e-9, 0.3, 2.0, 75.0, 4e4, 3e7,
                            special._X_CAP, 1e200, 1.7e308])
        filler = -10.0 ** rng.uniform(-6.0, 9.0, sliced)
        for beta in (alpha, alpha + 1.0, alpha + 2.0):
            alone = np.concatenate([ml_values(alpha, beta, probes[i:i + 1])
                                    for i in range(probes.size)])
            for size in (n, n + 1, 4096, sliced):
                z = filler[:size].copy()
                # the last probe takes the last point, past every slice
                at = np.append(rng.choice(size - 1, probes.size - 1,
                                          replace=False), size - 1)
                z[at] = probes
                assert_same_bits(ml_values(alpha, beta, z)[at], alone)
                flat = ml_values(alpha, beta, z)
                # a row, or a strided (points x 8) view of the array
                layout = (lambda a: a.reshape(1, -1)) if size % 8 \
                    else (lambda a: a.reshape(8, -1).T)
                assert_same_bits(ml_values(alpha, beta, layout(z)),
                                 layout(flat))
            assert_same_bits(ml_values(alpha, beta, probes[3]), alone[3])

    @pytest.mark.parametrize("alpha", [0.25, 0.6, 0.95])
    def test_rows_of_several_betas_match_one_beta_calls(self, alpha):
        betas = (alpha, alpha + 1.0, alpha + 2.0)
        sliced = special._LOOP_POINTS + 1
        z = -np.concatenate([[0.0, special._X_CAP, 1e300],
                             10.0 ** np.linspace(-6.0, 9.0, sliced - 3)])
        for size in (1, 3, special._BROADCAST_POINTS,
                     special._BROADCAST_POINTS + 1, 4096, sliced):
            for shape in ((size,), (1, size)):
                part = z[:size].reshape(shape)
                rows = ml_values(alpha, betas, part)
                assert rows.shape == (3,) + shape
                for row, beta in zip(rows, betas):
                    assert_same_bits(row, ml_values(alpha, beta, part))

    @pytest.mark.parametrize("betas", [(1.0, 0.0), ()])
    def test_rejects_bad_or_no_betas(self, betas):
        with pytest.raises(DomainError):
            ml_values(0.5, betas, np.array([-1.0]))

    def test_mid_band_value_does_not_depend_on_history(self):
        # a fresh interpreter, so nothing has been evaluated before the
        # first call
        code = (
            "import numpy as np\n"
            "from fracstep.special import ml_values\n"
            "z = np.array([-2.2])\n"
            "cold = ml_values(0.3, 0.3, z).tobytes()\n"
            "ml_values(0.3, 0.3, -np.linspace(1.9, 2.6, 40))\n"
            "print(cold == ml_values(0.3, 0.3, z).tobytes())\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_empty_input(self):
        out = ml_values(0.5, 1.0, np.array([]))
        assert out.shape == (0,)

    def test_rejects_positive_entries(self):
        with pytest.raises(DomainError):
            ml_values(0.5, 1.0, np.array([-1.0, 0.5]))

    def test_huge_arguments_stay_finite(self):
        out = ml_values(0.5, 1.0, np.array([-1e307, -1.7e308]))
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) < 1e-149)

    def test_preserves_shape(self):
        z = -np.linspace(0.0, 3.0, 6).reshape(2, 3)
        out = ml_values(0.5, 1.0, z)
        assert out.shape == (2, 3)
        assert out[0, 0] == pytest.approx(1.0)


class TestRelaxation:
    """The relaxation profile ``E_{a,1}(-lam t**a)`` through ``ml_values``."""

    def test_starts_at_one(self):
        assert ml_values(0.4, 1.0, -7.0 * 0.0 ** 0.4) == 1.0

    def test_frozen_reference(self):
        got = ml_values(0.7, 1.0, -5.0 * 0.3 ** 0.7)
        assert got == pytest.approx(RELAX_0_7_5_0_3, abs=1e-12)

    def test_monotone_decay(self):
        ts = np.linspace(0.0, 4.0, 30)
        vals = ml_values(0.55, 1.0, -3.0 * ts ** 0.55)
        assert np.all(np.diff(vals) < 0.0)


class TestDuhamelKernel:
    def test_frozen_reference(self):
        assert duhamel_kernel(0.6, 3.0, 0.2) == pytest.approx(DKER_0_6_3_0_2,
                                                              abs=1e-12)

    def test_undamped_power_law(self):
        s = 0.37
        expected = s ** (-0.3) / math.gamma(0.7)
        assert duhamel_kernel(0.7, 0.0, s) == pytest.approx(expected,
                                                            rel=1e-12)


class TestIntegratedKernel:
    def test_zero_at_origin(self):
        assert integrated_kernel(0.5, 4.0, 0.0) == 0.0

    def test_frozen_references(self):
        assert integrated_kernel(0.4, 2.0, 0.7) == pytest.approx(
            IKER_0_4_2_0_7, abs=1e-11)
        assert integrated_kernel(0.5, 10.0, 9.0) == pytest.approx(
            IKER_0_5_10_9, abs=1e-11)

    def test_long_time_limit(self):
        # the full mass of the kernel is 1/lam
        assert integrated_kernel(0.5, 10.0, 1e8) == pytest.approx(0.1,
                                                                  rel=1e-3)

    def test_is_antiderivative_of_kernel(self):
        alpha, lam, tau, h = 0.6, 3.0, 0.8, 1e-4
        slope = (integrated_kernel(alpha, lam, tau + h)
                 - integrated_kernel(alpha, lam, tau - h)) / (2.0 * h)
        assert slope == pytest.approx(duhamel_kernel(alpha, lam, tau),
                                      rel=1e-6)

    def test_monotone_in_tau(self):
        taus = np.linspace(0.0, 5.0, 40)
        vals = [integrated_kernel(0.45, 2.0, float(t)) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
