"""Big-float reference implementations used to pin expected test values.

Everything here is deliberately independent of the package's own numerics:
sums are carried in mpmath arbitrary precision (the L1 march in long
double) and integrals use mpmath's adaptive quadrature.  The
Mittag-Leffler reference switches from the defining Taylor series to the
algebraic asymptotic series only where the truncation error of the latter
is provably below 1e-60, far under any tolerance used by the tests; the
seam between the two is cross-checked in the test suite.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

# Above this value of y = (-z)**(1/alpha) the Taylor series needs more than
# ~90 digits of cancellation headroom; the asymptotic remainder there is
# below exp(-200).
_ORACLE_SEAM_Y = 200.0


def ml_oracle(alpha: float, beta: float, z: float, dps: int = 60) -> mp.mpf:
    """Reference E_{alpha,beta}(z) for z <= 0 as an mpmath float."""
    if z > 0:
        raise ValueError("oracle is restricted to z <= 0")
    alpha = mp.mpf(repr(float(alpha)))
    beta = mp.mpf(repr(float(beta)))
    zm = mp.mpf(repr(float(z)))
    if zm == 0:
        with mp.workdps(dps):
            return 1 / mp.gamma(beta)
    x = -zm
    y = float(x ** (1 / alpha))
    if y <= _ORACLE_SEAM_Y:
        return _ml_oracle_series(alpha, beta, zm, dps, y)
    return _ml_oracle_asymptotic(alpha, beta, x, dps)


def _ml_oracle_series(alpha: mp.mpf, beta: mp.mpf, z: mp.mpf,
                      dps: int, y: float) -> mp.mpf:
    # The largest series term is about exp(y), so that many extra digits
    # are needed to survive the cancellation.
    guard = int(y / math.log(10)) + 30
    with mp.workdps(dps + guard):
        total = mp.mpf(0)
        term_peak = mp.mpf(0)
        k = 0
        while True:
            term = mp.power(z, k) / mp.gamma(alpha * k + beta)
            total += term
            size = abs(term)
            term_peak = max(term_peak, size)
            if k > 2 and size < term_peak * mp.mpf(10) ** (-(dps + guard)) \
                    and alpha * k > y:
                break
            k += 1
            if k > 2_000_000:
                raise RuntimeError("oracle series did not terminate")
    with mp.workdps(dps):
        return +total


def _ml_oracle_asymptotic(alpha: mp.mpf, beta: mp.mpf, x: mp.mpf,
                          dps: int) -> mp.mpf:
    # Optimally truncated at the minimum of the sine-free term envelope
    # (term magnitudes themselves dip spuriously at near-poles of gamma).
    # The remainder at the optimum is about exp(-x**(1/alpha)), below
    # exp(-_ORACLE_SEAM_Y) wherever this branch is taken.
    with mp.workdps(dps + 25):
        terms = []
        log_envs = []
        log_x = mp.log(x)
        log_pi = mp.log(mp.pi)
        best = mp.inf
        log_tol = -mp.mpf(dps + 12) * mp.log(10)
        for k in range(1, 200000):
            g = beta - alpha * k
            terms.append(-mp.power(-x, -k) * mp.rgamma(g))
            if g >= 0.5:
                log_env = -k * log_x - mp.loggamma(g)
            else:
                log_env = -k * log_x + mp.loggamma(1 - g) - log_pi
            log_envs.append(log_env)
            best = min(best, log_env)
            if log_env < log_tol - 10 or log_env > best + 6:
                break
        k_star = min(range(len(log_envs)), key=log_envs.__getitem__)
        if log_envs[k_star] > log_tol:
            raise RuntimeError(
                "oracle asymptotic branch cannot reach the requested digits; "
                "lower dps or use the series branch")
        total = mp.fsum(terms[:k_star + 1])
        if float(alpha) > 1:
            yv = x ** (1 / alpha)
            phase = mp.pi / alpha
            total += (2 / alpha) * yv ** (1 - beta) * mp.exp(yv * mp.cos(phase)) \
                * mp.cos(yv * mp.sin(phase) + (1 - beta) * phase)
    with mp.workdps(dps):
        return +total


def relaxation_oracle(alpha: float, lam: float, t: float, dps: int = 60) -> mp.mpf:
    return ml_oracle(alpha, 1.0, -float(lam) * float(t) ** float(alpha), dps)


def duhamel_kernel_oracle(alpha: float, lam: float, s: float,
                          dps: int = 60) -> mp.mpf:
    a = mp.mpf(repr(float(alpha)))
    sv = mp.mpf(repr(float(s)))
    with mp.workdps(dps):
        return sv ** (a - 1) * ml_oracle(alpha, alpha,
                                         -float(lam) * float(s) ** float(alpha), dps)


def integrated_kernel_oracle(alpha: float, lam: float, tau: float,
                             dps: int = 60) -> mp.mpf:
    a = mp.mpf(repr(float(alpha)))
    tv = mp.mpf(repr(float(tau)))
    with mp.workdps(dps):
        return tv ** a * ml_oracle(alpha, float(alpha) + 1.0,
                                   -float(lam) * float(tau) ** float(alpha), dps)


def duhamel_convolution_oracle(alpha: float, lam: float, source, t0: float,
                               t: float, dps: int = 40) -> mp.mpf:
    """Adaptive big-float evaluation of the Duhamel integral.

    Computes ``int_{t0}^{t} (t-s)**(alpha-1) E_{alpha,alpha}(-lam (t-s)**alpha)
    * source(s) ds`` with the endpoint singularity absorbed by mpmath's
    tanh-sinh rule.
    """
    a = float(alpha)

    def f(u):
        uf = float(u)
        if uf <= 0:
            return mp.mpf(0)
        kern = mp.mpf(repr(uf)) ** (a - 1) * ml_oracle(a, a, -lam * uf ** a, dps)
        return kern * mp.mpf(repr(float(source(t - uf))))

    with mp.workdps(dps):
        return mp.quad(f, [0, mp.mpf(repr(float(t - t0)))])


def weighted_integral_oracle(func, a: float, b: float, dps: int = 40) -> mp.mpf:
    """Adaptive big-float integral of a scalar callable over [a, b]."""
    with mp.workdps(dps):
        return mp.quad(lambda s: mp.mpf(repr(float(func(float(s))))),
                       [mp.mpf(repr(a)), mp.mpf(repr(b))])


def blowup_response_oracle(order: float, lam: float, dt: float,
                           dps: int = 30) -> mp.mpf:
    """``int_0^dt K(dt-u) u**(-order) du`` with the impulse response ``K``.

    ``K(v) = v**(order-1) * E_{order,order}(-lam v**order)``.  The range
    is split at ``dt/2``; ``u = w**(1/(1-order))`` absorbs ``u**(-order)``
    on the left half and ``v = dt - u = w**(1/order)`` absorbs
    ``v**(order-1)`` on the right, so tanh-sinh sees bounded integrands.
    The Mittag-Leffler argument is rounded to a double, which limits the
    result to about 1e-16 relative.
    """
    b = float(order)
    with mp.workdps(dps):
        bm = mp.mpf(repr(b))
        dtm = mp.mpf(repr(float(dt)))
        half = dtm / 2

        def ml_factor(w):
            return ml_oracle(b, b, float(-lam * w), dps)

        left = mp.quad(lambda w: ml_factor((dtm - w ** (1 / (1 - bm))) ** bm)
                       * (dtm - w ** (1 / (1 - bm))) ** (bm - 1),
                       [0, half ** (1 - bm)]) / (1 - bm)
        right = mp.quad(lambda w: ml_factor(w)
                        * (dtm - w ** (1 / bm)) ** (-bm),
                        [0, half ** bm]) / bm
        return left + right


def _step_segments(schedule, grid) -> np.ndarray:
    """Segment of each grid node; a breakpoint node starts its segment."""
    marks = [round(t / grid.step) for t in schedule.breakpoints]
    return np.minimum(
        np.searchsorted(marks, np.arange(grid.num_steps + 1),
                        side="right") - 1,
        schedule.num_segments - 1)


def l1_march_oracle(lam: float, f_n, schedule, u0_n: float, grid,
                    dtype=float) -> np.ndarray:
    """Step-by-step L1 march in ``dtype``: one implicit solve per step.

    Step ``m`` solves
    ``(b_0 + lam) u_m = f(t_m) + b_0 u_{m-1} - sum_{k<m-1} b_{m-1-k} du_k``
    with the moments ``b_j`` at the order of ``t_m``, the plain march
    that ``fracstep.l1.solve_mode_l1`` replaces by Toeplitz solves.  With
    ``np.longdouble`` the powers, moments and history sums carry about
    three more digits than doubles; ``Gamma(2 - b)`` comes from mpmath.
    """
    n = grid.num_steps
    seg = _step_segments(schedule, grid)
    loads = np.asarray(f_n(grid.times), dtype=float).astype(dtype)
    lam = dtype(lam)
    step = dtype(grid.step)
    diffs, scales = {}, {}

    u = np.empty(n + 1, dtype=dtype)
    u[0] = dtype(u0_n)
    du = np.empty(n, dtype=dtype)
    for m in range(1, n + 1):
        order = schedule.orders[seg[m]]
        if order not in diffs:
            p = np.arange(n + 1, dtype=dtype) ** (1 - dtype(order))
            diffs[order] = np.diff(p)
            with mp.workdps(40):
                gamma = dtype(mp.nstr(mp.gamma(2 - mp.mpf(repr(order))), 30))
            scales[order] = step ** (-dtype(order)) / gamma
        w = diffs[order][:m][::-1] * scales[order]
        hist = np.dot(w[:-1], du[:m - 1]) if m > 1 else dtype(0)
        u[m] = (loads[m] + w[-1] * u[m - 1] - hist) / (w[-1] + lam)
        du[m - 1] = u[m] - u[m - 1]
    return u


def fd_march_oracle(spec, grid, spatial_points: int) -> np.ndarray:
    """Finite-difference L1 field, marched one time level at a time.

    Step ``m`` solves the stencil system
    ``(A + b_0) u_m = F_m + b_0 u_{m-1} - sum_{k<m-1} b_{m-1-k} du_k``
    with ``A = tridiag(-a/h**2, 2a/h**2 + c, -a/h**2)``, the loads ``F``
    and initial data sampled from the analytic modes, and the moments
    ``b_j`` at the order of ``t_m``.  scipy's banded Cholesky factors
    ``A + b_0`` once per order.  This is the plain march that
    ``fracstep.l1.solve_full_l1_fd`` replaces by a sine transform and
    Toeplitz solves; the field is returned on all ``spatial_points + 2``
    abscissae with zero Dirichlet rows.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded

    op, p, n = spec.operator, spatial_points, grid.num_steps
    h = op.length / (p + 1)
    modes = np.arange(1, spec.num_modes + 1)
    shapes = math.sqrt(2.0 / op.length) * np.sin(
        np.outer(h * np.arange(1, p + 1), modes) * math.pi / op.length)
    loads = shapes @ spec.source.values(grid.times)
    u_now = shapes @ np.asarray(spec.initial_coefficients, dtype=float)
    seg = _step_segments(spec.schedule, grid)
    moments, factors = {}, {}

    out = np.zeros((p + 2, n + 1))
    out[1:-1, 0] = u_now
    du = np.empty((n, p))
    for m in range(1, n + 1):
        order = spec.schedule.orders[seg[m]]
        if order not in moments:
            # (j + 1)**a - j**a = j**a expm1(a log1p(1/j)), no cancellation
            a = 1.0 - order
            j = np.arange(1, n, dtype=float)
            moments[order] = np.concatenate(
                [[1.0], j ** a * np.expm1(a * np.log1p(1.0 / j))]) \
                * grid.step ** (-order) / math.gamma(2.0 - order)
            band = np.zeros((2, p))
            band[0, 1:] = -op.diffusion / h ** 2
            band[1] = (2.0 * op.diffusion / h ** 2 + op.reaction
                       + moments[order][0])
            factors[order] = cholesky_banded(band)
        b = moments[order]
        rhs = loads[:, m] + b[0] * u_now
        if m > 1:
            rhs -= np.dot(b[m - 1:0:-1], du[:m - 1])
        u_next = cho_solve_banded((factors[order], False), rhs)
        du[m - 1] = u_next - u_now
        u_now = u_next
        out[1:-1, m] = u_now
    return out


class CubicTrajectory:
    """Exact mode trajectory ``u(t) = 1 + t + c2 t**2 + c3 t**3`` across
    one order breakpoint, with the load that produces it.

    On segment ``j`` the whole-history Caputo derivative of ``t**k`` of
    order ``beta_j`` is ``Gamma(k+1)/Gamma(k+1-beta_j) * t**(k-beta_j)``
    (Podlubny 1999, ch. 2), so ``f = D^{beta(t)} u + lam u`` is known in
    closed form.  ``c2`` and ``c3`` solve, in mpmath, the two linear
    conditions that make ``f`` and ``f'`` continuous at the breakpoint:
    the solver reads one load profile on both sides of it.  ``value``,
    ``slope``, ``load`` and ``load_slope`` map a time array to an array
    of its shape; ``load_slope`` is infinite at ``t = 0``.
    """

    def __init__(self, orders, breakpoint: float, lam: float,
                 dps: int = 40):
        self.orders = tuple(float(b) for b in orders)
        self.breakpoint = float(breakpoint)
        self.lam = float(lam)
        with mp.workdps(dps):
            t = mp.mpf(repr(self.breakpoint))

            def jump(k, d):
                # the d-th derivative of D^{beta} t**k at the breakpoint,
                # right order minus left order
                left, right = (mp.gamma(k + 1) / mp.gamma(e + 1)
                               * (e if d else 1) * t ** (e - d)
                               for e in (k - mp.mpf(repr(b))
                                         for b in self.orders))
                return right - left

            matrix = mp.matrix([[jump(2, d), jump(3, d)] for d in (0, 1)])
            rhs = mp.matrix([-jump(1, d) for d in (0, 1)])
            c2, c3 = mp.lu_solve(matrix, rhs)
        self.coefficients = (1.0, float(c2), float(c3))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        c1, c2, c3 = self.coefficients
        return 1.0 + t * (c1 + t * (c2 + t * c3))

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        c1, c2, c3 = self.coefficients
        return c1 + t * (2.0 * c2 + 3.0 * t * c3)

    def _caputo(self, t, d):
        # the d-th time derivative (d = 0 or 1) of D^{beta(t)} u
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        sides = (t < self.breakpoint, t >= self.breakpoint)
        for beta, here in zip(self.orders, sides):
            for k, c in enumerate(self.coefficients, start=1):
                e = k - beta
                g = math.gamma(k + 1) / math.gamma(e + 1) * (e if d else 1)
                with np.errstate(divide="ignore"):
                    out[here] += c * g * t[here] ** (e - d)
        return out

    def load(self, t):
        return self._caputo(t, 0) + self.lam * self.value(t)

    def load_slope(self, t):
        return self._caputo(t, 1) + self.lam * self.slope(t)
