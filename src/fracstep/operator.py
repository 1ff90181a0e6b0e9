"""Self-adjoint spatial operator on an interval with Dirichlet ends.

The operator is ``-a u'' + c u`` on ``(0, L)`` with homogeneous Dirichlet
boundary values.  Two representations serve the two solution paths:

* :class:`ModalBasis` uses the closed-form eigensystem, sine modes with
  eigenvalues ``a (n pi / L)**2 + c``, to synthesize fields from modal
  coefficients and to measure fractional-power norms.
* :class:`GridOperator` discretizes with second-order central differences
  on a uniform interior grid.  The stencil matrix is diagonalized by the
  discrete sine vectors, and its closed-form eigenvalues are all the
  finite-difference L1 solve needs: it sine-transforms the sampled data
  and solves one scalar L1 equation per discrete mode.  Those
  eigenvalues differ from the continuous ones, so the modal route is
  still cross-checked against a discretization of its own.

Coercivity is enforced at construction: the smallest eigenvalue must be
positive, i.e. the reaction coefficient may be negative but not reach
``-a (pi / L)**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count

__all__ = ["OperatorSpec", "ModalBasis", "GridOperator"]


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients of ``-a u'' + c u`` on ``(0, length)``."""

    diffusion: float = 1.0
    reaction: float = 0.0
    length: float = 1.0

    def __post_init__(self) -> None:
        for name in ("diffusion", "reaction", "length"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.diffusion <= 0.0:
            raise DomainError(
                f"diffusion must be positive, got {self.diffusion}")
        if self.length <= 0.0:
            raise DomainError(f"length must be positive, got {self.length}")
        if self.eigenvalues(1)[0] <= 0.0:
            raise DomainError(
                "operator is not coercive: reaction "
                f"{self.reaction} cancels the principal eigenvalue "
                f"{self.diffusion * (math.pi / self.length) ** 2:.6g}")

    def eigenvalues(self, count: int) -> np.ndarray:
        """Eigenvalues ``a (n pi / L)**2 + c`` of the first ``count`` sine
        modes, ``n = 1 .. count``, an integer of at least 1."""
        check_count(count, 1, "modes")
        n = np.arange(1, count + 1)
        return self.diffusion * (n * math.pi / self.length) ** 2 \
            + self.reaction


class ModalBasis:
    """Closed-form Dirichlet eigensystem of an :class:`OperatorSpec`."""

    def __init__(self, spec: OperatorSpec, size: int):
        if not isinstance(spec, OperatorSpec):
            raise DomainError("spec must be an OperatorSpec")
        check_count(size, 1, "basis modes")
        self.spec = spec
        self.size = size
        self.eigenvalues = spec.eigenvalues(size)

    def evaluation_matrix(self, x) -> np.ndarray:
        """Matrix ``B[i, n-1] = X_n(x_i)`` for synthesis at many points,
        each in ``[0, length]``: the first one outside, NaN included, is
        named in a ``DomainError``.  The package's one check of x."""
        L = self.spec.length
        x = np.asarray(x, dtype=float).reshape(-1)
        outside = ~((0.0 <= x) & (x <= L))   # NaN fails both
        if outside.any():
            raise DomainError(f"x {x[outside][0]} outside [0, {L}]")
        n = np.arange(1, self.size + 1)
        out = math.sqrt(2.0 / L) * np.sin(np.outer(x, n) * math.pi / L)
        out[x == L] = 0.0   # the Dirichlet value, which sin(n pi) misses
        return out

    def _modal(self, coefficients) -> np.ndarray:
        c = np.asarray(coefficients, dtype=float)
        if c.shape[:1] != (self.size,):
            raise DomainError(f"expected {self.size} coefficients on axis "
                              f"0, got shape {c.shape}")
        return c

    def synthesize(self, coefficients, x) -> np.ndarray:
        """Evaluate ``sum_n coefficients[n-1] X_n(x)``.

        The modes are on axis 0 of ``coefficients``, and each trailing
        column (one per time, say) is one field; the result has the shape
        of ``x``, then the trailing shape, or is a float for a scalar
        ``x`` and one modal vector.  The modes are summed in order, one
        elementwise outer product each and no BLAS product, so each
        column equals its one-column call bit for bit, on any BLAS build.
        """
        c = self._modal(coefficients)
        out = sum(map(np.multiply.outer, self.evaluation_matrix(x).T, c))
        out = np.reshape(out, np.shape(x) + c.shape[1:])
        return float(out) if out.ndim == 0 else out

    def fractional_norm(self, coefficients, power: float = 0.0):
        """Norm ``(sum_n lam_n**(2 p) c_n**2)**0.5`` of modal vectors.

        ``power = 0`` is the plain L2 norm, ``power = 0.5`` the energy
        norm, ``power = 1`` the graph norm of the operator.  The modes are
        on axis 0, as for :meth:`synthesize`: one modal vector gives a
        float, more give one norm per trailing column, each summed over
        the modes in order and equal to its one-column call bit for bit.
        """
        c = self._modal(coefficients)
        weights = self.eigenvalues ** (2.0 * power)
        norm = np.sqrt(sum(w * column ** 2 for w, column in zip(weights, c)))
        return float(norm) if norm.ndim == 0 else norm


class GridOperator:
    """Central-difference discretization on a uniform Dirichlet grid."""

    def __init__(self, spec: OperatorSpec, interior_points: int):
        if not isinstance(spec, OperatorSpec):
            raise DomainError("spec must be an OperatorSpec")
        check_count(interior_points, 2, "interior points")
        self.spec = spec
        self.interior_points = interior_points
        self.h = spec.length / (interior_points + 1)
        self.x = self.h * np.arange(1, interior_points + 1)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues ``mu_k``, ``k = 1 .. P``, of the stencil matrix.

        The matrix ``tridiag(-a/h**2, 2a/h**2 + c, -a/h**2)`` has the
        sampled sines ``sin(k pi i/(P+1))`` as eigenvectors, with
        ``mu_k = 2a/h**2 (1 - cos(k pi/(P+1))) + c``, written here as
        ``4a/h**2 sin(k pi/(2(P+1)))**2 + c`` to keep the small ones
        free of cancellation.
        """
        a, c = self.spec.diffusion, self.spec.reaction
        k = np.arange(1, self.interior_points + 1)
        half = np.sin(k * math.pi / (2 * (self.interior_points + 1)))
        return 4.0 * a / self.h ** 2 * half ** 2 + c
