"""Independent L1 time-stepping oracle for the variable-order problem.

The L1 scheme replaces the solution by its piecewise-linear interpolant
in time and integrates the memory kernel against it exactly, which turns
the fractional derivative at ``t_m`` into a weighted sum of increments,

    D^b u(t_m) ~ sum_k b_{m-1-k} (u_{k+1} - u_k),
    b_j = ((j+1)**(1-b) - j**(1-b)) * tau**(-b) / Gamma(2-b).

At step ``m`` the exponent is the order at the *current* time ``t_m``,
so crossing a breakpoint reweights the entire history - exactly the
operator the segment recursion solves.  While the order is constant the
implicit steps of one scalar equation form a lower-triangular Toeplitz
system, so ``solve_mode_l1`` solves each run of equal order with a few
FFT convolutions (Hairer, Lubich and Schlichte 1985), for a whole column
of eigenvalues at once.  It is the module's one L1 engine.  The
finite-difference field solve ``solve_full_l1_fd`` reduces to it
exactly: the discrete sine vectors diagonalize the three-point stencil,
so the sine-transformed field obeys one scalar L1 equation per discrete
mode.  The oracle uses no Mittag-Leffler value and no quadrature, so it
stays independent of the spectral construction it cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .operator import GridOperator, ModalBasis
from .schedule import OrderSchedule
from .solver import ProblemSpec
from .special import gamma_fn

__all__ = [
    "L1Grid",
    "solve_mode_l1",
    "solve_full_l1_fd",
]

#: Largest admissible defect when checking that the step divides every
#: segment length.
ALIGNMENT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class L1Grid:
    """Uniform time grid ``t_m = m * step`` for the L1 march."""

    step: float
    num_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise DomainError(f"step must be positive, got {self.step}")
        if self.num_steps < 1:
            raise DomainError(
                f"need at least one step, got {self.num_steps}")

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.num_steps + 1)

    @property
    def horizon(self) -> float:
        return self.step * self.num_steps

    @classmethod
    def for_schedule(cls, schedule: OrderSchedule, step: float) -> "L1Grid":
        """Grid over the schedule's horizon, breakpoint-aligned.

        Every breakpoint must fall on a grid node: the order jump happens
        exactly there, and a step straddling it would smear the jump.
        """
        if not isinstance(schedule, OrderSchedule):
            raise DomainError("schedule must be an OrderSchedule")
        step = float(step)
        if not step > 0.0:
            raise DomainError(f"step must be positive, got {step}")
        for t in schedule.breakpoints:
            if abs(round(t / step) * step - t) > ALIGNMENT_TOLERANCE:
                raise DomainError(
                    f"step {step} does not hit breakpoint {t} "
                    f"within {ALIGNMENT_TOLERANCE}")
        return cls(step=step, num_steps=round(schedule.horizon / step))


def _segment_of_step(grid: L1Grid, schedule: OrderSchedule) -> np.ndarray:
    """Schedule segment index of each grid node, order-evaluation view.

    A node on a breakpoint belongs to the segment starting there (the
    order is right-continuous); the horizon end belongs to the final
    segment.
    """
    marks = [round(t / grid.step) for t in schedule.breakpoints]
    out = np.searchsorted(np.asarray(marks), np.arange(grid.num_steps + 1),
                          side="right") - 1
    return np.minimum(out, schedule.num_segments - 1)


class _IncrementLadder:
    """Per-order cache of the power differences behind the L1 weights."""

    def __init__(self, num_steps: int):
        self.num_steps = num_steps
        self._diffs: dict[float, np.ndarray] = {}
        self._scales: dict[float, float] = {}

    def moments(self, order: float, n: int, tau: float) -> np.ndarray:
        """Kernel moments ``b_0 .. b_{n-1}`` of the L1 sum, by depth.

        ``b_j`` multiplies the increment ``j`` steps back from the
        current one; the moments are the exact kernel integrals of the
        piecewise-linear reconstruction, positive and decreasing.
        """
        if order not in self._diffs:
            # (j + 1)**a - j**a without cancelling: j**a expm1(a log1p(1/j))
            a = 1.0 - order
            j = np.arange(1, self.num_steps, dtype=float)
            self._diffs[order] = np.concatenate(
                [[1.0], j ** a * np.expm1(a * np.log1p(1.0 / j))])
            self._scales[order] = tau ** (-order) / gamma_fn(2.0 - order)
        return self._diffs[order][:n] * self._scales[order]


def _series_product(a: np.ndarray, b: np.ndarray, n: int,
                    skip: int = 0) -> np.ndarray:
    """Coefficients ``skip .. n-1`` of the power-series product ``a * b``.

    One real FFT convolution along the last axis, zero-padded to a power
    of two just long enough that the wrapped-around tail of the product
    lands below ``skip``, where no coefficient is returned.  Leading axes
    broadcast, so rows of series multiply row by row.
    """
    a, b = a[..., :n], b[..., :n]
    size = 1 << (max(a.shape[-1] + b.shape[-1] - 1 - skip, n)
                 - 1).bit_length()
    prod = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
    return prod[..., skip:n]


def _series_reciprocal(a: np.ndarray) -> np.ndarray:
    """Coefficients of ``1 / a(z)`` to the length of ``a``, ``a[0] != 0``.

    Newton's iteration ``g <- g - g (a g - 1)`` doubles the number of
    correct coefficients per pass (Kung 1974); each pass costs two
    series products.  Each row of ``a`` is one series.
    """
    g = 1.0 / a[..., :1]
    while g.shape[-1] < a.shape[-1]:
        n = g.shape[-1]
        k = min(2 * n, a.shape[-1])
        defect = _series_product(a, g, k, skip=n)
        g = np.concatenate([g, -_series_product(g, defect, k - n)], axis=-1)
    return g


def _toeplitz_solve(col: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``sum_{j<=k} col_j x_{k-j} = rhs_k`` for ``k < rhs.shape[-1]``.

    The product with the series ``1 / col(z)`` solves the lower-triangular
    Toeplitz system; one refinement step with the residual removes most
    of the FFT rounding, whose size follows the norms of the factors
    rather than the entries.  Each row is one system.
    """
    n = rhs.shape[-1]
    g = _series_reciprocal(col[..., :n])
    x = _series_product(g, rhs, n)
    return x + _series_product(g, rhs - _series_product(col, x, n), n)


def solve_mode_l1(lam, f_n, schedule: OrderSchedule, u0_n,
                  grid: L1Grid) -> np.ndarray:
    """Solve mode equations with the L1 scheme; values at grid times.

    Step ``m`` is the implicit balance
    ``sum_k b_{m-1-k} (u_{k+1} - u_k) + lam u_m = f(t_m)`` with the
    moments taken at the order of the current time.  In the increments
    ``w_k = u_{k+1} - u_k`` it reads
    ``sum_k (b_{m-1-k} + lam) w_k = f(t_m) - lam u0``, so a run of steps
    with one order is a lower-triangular Toeplitz system whose column
    ``b_j + lam`` is positive and decreasing.  Each maximal run of equal
    order is solved at once: the earlier steps' history is subtracted in
    one FFT convolution, and the run's system is solved with the series
    reciprocal of its column.  The values are ``u0`` plus the running sum
    of the increments, so a zero right-hand side gives exactly ``u0``.

    ``lam`` is one eigenvalue or a 1-d column of them; ``u0_n`` has its
    shape, and ``f_n(times)`` returns ``lam.shape + times.shape`` loads.
    Each row is solved along the last axis with the same operations as a
    one-row call, so every row equals that call bit for bit.  The result
    has shape ``lam.shape + times.shape``.
    """
    if not isinstance(grid, L1Grid):
        raise DomainError("grid must be an L1Grid")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise DomainError(f"eigenvalues must be a scalar or 1-d, got "
                          f"shape {lam.shape}")
    if not np.all(lam >= 0.0):
        raise DomainError(
            f"modal eigenvalue must be >= 0, got {lam[~(lam >= 0.0)][0]}")
    u0 = np.asarray(u0_n, dtype=float)
    if u0.shape != lam.shape:
        raise DomainError(f"initial values of shape {u0.shape} do not "
                          f"match eigenvalues of shape {lam.shape}")
    if abs(grid.horizon - schedule.horizon) > ALIGNMENT_TOLERANCE:
        raise DomainError("grid horizon does not match the schedule")

    times = grid.times
    loads = np.asarray(f_n(times), dtype=float)
    if loads.shape != lam.shape + times.shape:
        raise DomainError("source callable must map times to one row of "
                          "loads per eigenvalue")
    seg = _segment_of_step(grid, schedule)
    step_orders = np.asarray(schedule.orders)[seg[1:]]
    ladder = _IncrementLadder(grid.num_steps)

    # maximal runs of equal order, as step ranges with stop exclusive
    cuts = np.flatnonzero(step_orders[1:] != step_orders[:-1]) + 1
    edges = [0, *cuts.tolist(), grid.num_steps]

    # w[..., k] = u_{k+1} - u_k, filled run by run
    lam_col, u0_col = lam[..., None], u0[..., None]
    rhs = loads[..., 1:] - lam_col * u0_col
    w = np.zeros(lam.shape + (grid.num_steps,))
    for start, stop in zip(edges[:-1], edges[1:]):
        c = ladder.moments(step_orders[start], stop, grid.step) + lam_col
        run = rhs[..., start:stop]
        if start > 0:
            run = run - _series_product(c, w[..., :start], stop, skip=start)
        w[..., start:stop] = _toeplitz_solve(c, run)
    u = np.concatenate([u0_col, u0_col + np.cumsum(w, axis=-1)], axis=-1)
    if not np.all(np.isfinite(u)):
        raise NumericError("non-finite L1 trajectory")
    return u


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis; it is its own inverse.

    ``X_k = sqrt(2/(P+1)) sum_i x_i sin(pi i k/(P+1))`` for ``i, k`` in
    ``1 .. P``.  Entry ``k`` of the real FFT of the odd extension
    ``(0, x_1 .. x_P, 0, -x_P .. -x_1)`` has the imaginary part
    ``-2 sum_i x_i sin(pi i k/(P+1))``, so one ``rfft`` gives the whole
    transform.
    """
    p = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.fft.rfft(odd)[..., 1:p + 1].imag * -math.sqrt(0.5 / (p + 1))


def solve_full_l1_fd(spec: ProblemSpec, grid: L1Grid,
                     spatial_points: int) -> np.ndarray:
    """Full finite-difference space-time L1 solve on the tensor grid.

    Returns ``u[i, m]`` with ``i`` over all ``spatial_points + 2`` grid
    abscissae (Dirichlet rows exactly zero) and ``m`` over grid times.
    The spatial operator is the symmetric second-order stencil, whose
    orthonormal eigenvectors are the discrete sine vectors.  The L1
    equations of the whole field are therefore, exactly, one scalar L1
    equation per discrete sine mode at the stencil eigenvalue: the
    sampled initial data and loads are sine-transformed, all modes are
    solved in one ``solve_mode_l1`` call, and the result is transformed
    back.  No step is marched and no matrix is factored.
    """
    if not isinstance(spec, ProblemSpec):
        raise DomainError("spec must be a ProblemSpec")
    if not isinstance(grid, L1Grid):
        raise DomainError("grid must be an L1Grid")
    if spatial_points < 16:
        raise DomainError(
            f"need at least 16 interior points, got {spatial_points}")
    if abs(grid.horizon - spec.schedule.horizon) > ALIGNMENT_TOLERANCE:
        raise DomainError("grid horizon does not match the schedule")

    op = GridOperator(spec.operator, spatial_points)
    times = grid.times

    # data synthesized from the analytic eigenfunctions: this is input
    # data, not solver output, so no spectral machinery is borrowed.
    # Elementwise products summed mode by mode, never a BLAS product, so
    # the field cannot depend on the BLAS build or its thread count.
    shapes = ModalBasis(spec.operator, spec.num_modes).evaluation_matrix(
        op.x).T  # (N, P)
    initial = np.zeros(spatial_points)
    loads = np.zeros((times.size, spatial_points))
    for n, (shape, c) in enumerate(zip(shapes, spec.initial_coefficients)):
        initial += c * shape
        loads += np.asarray(spec.source.mode_values(n + 1, times),
                            dtype=float)[:, None] * shape

    modal = solve_mode_l1(op.eigenvalues(), lambda t: _dst(loads).T,
                          spec.schedule, _dst(initial), grid)
    out = np.zeros((spatial_points + 2, times.size))
    out[1:-1] = _dst(modal.T).T
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite L1 field")
    return out
