"""Tests for the Dirichlet interval operator and its two backends."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from fracstep.errors import DomainError
from fracstep.operator import GridOperator, ModalBasis, OperatorSpec


class TestOperatorSpec:
    def test_eigenvalue_formula(self):
        spec = OperatorSpec(diffusion=2.0, reaction=1.0, length=3.0)
        assert spec.eigenvalues(3)[2] == pytest.approx(
            2.0 * math.pi ** 2 + 1.0, rel=1e-14)

    def test_eigenvalues_match_scalar(self):
        spec = OperatorSpec(diffusion=0.7, reaction=-1.0, length=2.0)
        vals = spec.eigenvalues(6)
        assert vals.shape == (6,)
        for n in range(1, 7):
            want = 0.7 * (n * math.pi / 2.0) ** 2 - 1.0
            assert vals[n - 1] == pytest.approx(want, rel=1e-15)

    def test_negative_reaction_allowed_while_coercive(self):
        spec = OperatorSpec(diffusion=1.0, reaction=-9.8, length=1.0)
        assert spec.eigenvalues(1)[0] > 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(diffusion=0.0), dict(diffusion=-1.0), dict(length=0.0),
        dict(reaction=-math.pi ** 2),           # kills the first eigenvalue
        dict(reaction=-12.0),                   # past it
        dict(diffusion=math.nan),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            OperatorSpec(**kwargs)

    def test_rejects_bad_mode_index(self):
        with pytest.raises(DomainError):
            OperatorSpec().eigenvalues(0)


@pytest.fixture(scope="module")
def basis():
    return ModalBasis(OperatorSpec(), 24)


@pytest.fixture(scope="module")
def grid():
    return GridOperator(OperatorSpec(), 256)


class TestModalBasis:

    def test_fractional_norm_powers(self, basis):
        c = np.zeros(24)
        c[0], c[3] = 3.0, 4.0
        assert basis.fractional_norm(c) == pytest.approx(5.0, rel=1e-13)
        lam = basis.eigenvalues
        want = math.sqrt(lam[0] ** 2 * 9.0 + lam[3] ** 2 * 16.0)
        assert basis.fractional_norm(c, power=1.0) == pytest.approx(
            want, rel=1e-13)
        # eigenvalues exceed one, so the norm grows with the power
        assert basis.fractional_norm(c, 1.0) > basis.fractional_norm(c, 0.5)

    @pytest.mark.parametrize("size", [1, 8])
    @pytest.mark.parametrize("x", [0.37, np.linspace(0.0, 1.0, 33),
                                   np.linspace(0.1, 0.9, 6).reshape(2, 3)])
    def test_batched_synthesis_equals_column_calls(self, size, x):
        # each column is summed over the modes in the same order as a
        # call of its own, bit for bit, at any number of columns
        small = ModalBasis(OperatorSpec(length=1.5), size)
        c = np.random.default_rng(size).standard_normal((size, 5))
        got = small.synthesize(c, x)
        assert got.shape == np.shape(x) + (5,)
        for k in range(5):
            one = small.synthesize(c[:, k], x)
            assert np.shape(one) == np.shape(x)
            np.testing.assert_array_equal(got[..., k], one)
        if np.ndim(x) == 0:
            assert isinstance(small.synthesize(c[:, 0], x), float)
        want = np.sum(small.evaluation_matrix(x) * c[:, 0], axis=1)
        np.testing.assert_allclose(np.ravel(small.synthesize(c[:, 0], x)),
                                   want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("length", [1.0, 1.5])
    def test_dirichlet_boundary_is_exactly_zero(self, length):
        # sin(n pi) is about 1.2e-16 n in doubles: the boundary rows are
        # set to the Dirichlet value, and no interior entry moves
        small = ModalBasis(OperatorSpec(length=length), 24)
        c = np.random.default_rng(3).standard_normal((24, 5))
        assert not small.synthesize(c, length).any()
        assert small.synthesize(c[:, 0], 0.0) == 0.0
        x = np.linspace(0.0, length, 9)
        matrix = small.evaluation_matrix(x)
        assert not matrix[[0, -1]].any()
        np.testing.assert_array_equal(matrix[1:-1], math.sqrt(2.0 / length)
                                      * np.sin(np.outer(x[1:-1], np.arange(
                                          1, 25)) * math.pi / length))

    @pytest.mark.parametrize("size", [1, 8])
    @pytest.mark.parametrize("power", [0.0, 0.5, 1.0])
    def test_batched_norm_equals_column_calls(self, size, power):
        small = ModalBasis(OperatorSpec(reaction=-1.0), size)
        c = np.random.default_rng(size).standard_normal((size, 3, 4))
        got = small.fractional_norm(c, power)
        assert got.shape == (3, 4)
        for i in range(3):
            for k in range(4):
                one = small.fractional_norm(c[:, i, k], power)
                assert isinstance(one, float)
                assert got[i, k] == one
        want = np.sqrt(np.sum(small.eigenvalues[:, None, None]
                              ** (2.0 * power) * c ** 2, axis=0))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_validation(self, basis):
        with pytest.raises(DomainError):
            basis.synthesize(np.ones(7), 0.5)
        with pytest.raises(DomainError):
            basis.synthesize(np.ones((7, 3)), 0.5)
        with pytest.raises(DomainError):
            basis.fractional_norm(1.0)
        with pytest.raises(DomainError):
            ModalBasis(OperatorSpec(), 0)


def stencil(grid):
    """Main and off diagonal of tridiag(-a/h**2, 2a/h**2 + c, -a/h**2)."""
    a, c, h = grid.spec.diffusion, grid.spec.reaction, grid.h
    return (np.full(grid.interior_points, 2.0 * a / h ** 2 + c),
            np.full(grid.interior_points - 1, -a / h ** 2))


class TestGridOperator:
    def test_discrete_eigenvalue_closed_form(self, grid):
        h = grid.h
        vals = grid.eigenvalues()
        for n in (1, 2, 7):
            want = 2.0 / h ** 2 * (1.0 - math.cos(n * math.pi * h))
            assert vals[n - 1] == pytest.approx(want, rel=1e-10)
        # every eigenvalue, also with a reaction term and another length,
        # against a symmetric tridiagonal eigensolver on the stencil
        shifted = GridOperator(
            OperatorSpec(diffusion=0.7, reaction=-1.0, length=2.0), 37)
        for g in (grid, shifted):
            np.testing.assert_allclose(g.eigenvalues(),
                                       eigvalsh_tridiagonal(*stencil(g)),
                                       rtol=1e-10)

    def test_discrete_eigenvalue_below_continuous(self, grid):
        vals = grid.eigenvalues()
        for n in (1, 2, 3):
            lam_h = vals[n - 1]
            lam = grid.spec.eigenvalues(3)[n - 1]
            assert lam_h < lam
            assert lam - lam_h < 1e-3 * lam

    def test_eigenvectors_approximate_sine_modes(self, grid):
        # every sampled sine mode is an exact eigenvector of the stencil,
        # with the closed-form discrete eigenvalue
        d, e = stencil(grid)
        for n in (1, 5, grid.interior_points):
            mode = math.sqrt(2.0) * np.sin(n * math.pi * grid.x)
            image = d * mode
            image[:-1] += e * mode[1:]
            image[1:] += e * mode[:-1]
            lam_h = grid.eigenvalues()[n - 1]
            np.testing.assert_allclose(image, lam_h * mode, rtol=0.0,
                                       atol=1e-9 * lam_h)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridOperator(OperatorSpec(), 1)
