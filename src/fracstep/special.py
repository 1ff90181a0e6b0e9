"""Gamma and Mittag-Leffler evaluation on the negative real axis.

The two-parameter Mittag-Leffler function is the workhorse: relaxation
profiles, convolution kernels, and exact kernel primitives all go through
one array evaluator, ``ml_values``, whose result depends on
``(alpha, beta, z)`` alone; ``ml`` is that evaluator at one point.
Evaluation is split into three bands chosen by the size of
``y = x**(1/alpha)`` with ``x = -z``:

* small arguments: the defining Taylor series in double precision.  The
  alternating series loses roughly ``x**(1/alpha)`` / ln(10) digits to
  cancellation, so the band is capped where the loss stays under five
  digits.
* large arguments: the algebraic asymptotic series in powers of ``1/x``,
  truncated once terms drop below the target or start to diverge.  For
  ``alpha > 1`` the exponentially small oscillatory contribution is added;
  on the negative axis it decays but is not always negligible.
* intermediate band (``alpha < 1``): a Chebyshev interpolant in ``log x``
  of a real integral representation, obtained by collapsing the Hankel
  contour and evaluated adaptively at the interpolation nodes.  The
  interpolant is built the first time a parameter pair needs it and also
  serves the low end of the asymptotic band, where it is cheaper than
  optimal truncation.

Crossover constants were fixed with ``scripts/calibrate_ml_crossovers.py``,
which sweeps each band edge against a big-float reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.integrate import quad as _quad
from scipy.special import hyp1f1 as _hyp1f1
from scipy.special import rgamma as _rgamma

from .errors import AccuracyError, DomainError

__all__ = [
    "MLParams",
    "gamma_fn",
    "ml",
    "ml_values",
    "relaxation",
    "measured_envelope",
]

# Band edges in terms of y = x**(1/alpha).  Below ML_SERIES_YMAX the double
# precision Taylor series keeps absolute error under ~2e-11 (cancellation
# costs a factor ~exp(y)); above ML_ASYM_YMIN the truncated asymptotic
# series reaches ~2e-14.  The integral representation covers the gap for
# alpha in (0, 1); see scripts/calibrate_ml_crossovers.py for the
# measured error curves behind these values.
ML_SERIES_YMAX = 8.0
ML_ASYM_YMIN = 30.0

_SERIES_MAX_TERMS = 4000
_ASYM_MAX_TERMS = 800
_ASYM_TOL = 1e-13

# Tail cut for the integral representation: exp(-chi**(1/alpha)) is below
# 1e-19 once chi**(1/alpha) exceeds this.
_QUAD_TAIL_Y = 44.0
_QUAD_ABS_TOL = 1e-12
_QUAD_ACCEPT = 5e-11

# Intermediate-band interpolant: degree, and its domain in x as multiples
# of the band edges ML_SERIES_YMAX**alpha and ML_ASYM_YMIN**alpha.
_CHEB_DEGREE = 128
_CHEB_LOWER = 0.5
_CHEB_UPPER = 2.0


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half-line."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


@dataclass(frozen=True)
class MLParams:
    """Parameter pair ``(alpha, beta)`` of the Mittag-Leffler function.

    ``alpha`` must lie in ``(0, 2)`` and ``beta`` must be positive; this is
    the range on which the uniform algebraic decay bound on the negative
    axis holds.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        b = float(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not (math.isfinite(a) and 0.0 < a < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {a}")
        if not (math.isfinite(b) and b > 0.0):
            raise DomainError(f"beta must be positive, got {b}")


def ml(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function ``E_{alpha,beta}(z)``, z <= 0.

    Absolute accuracy is 1e-10 or better on ``z in [-1e6, 0]`` for
    ``alpha in (0, 1]``; for ``alpha in (1, 2)`` the same holds outside a
    mid-range band where no real-arithmetic algorithm is implemented and an
    :class:`AccuracyError` is raised instead of degrading silently.  The
    value is :func:`ml_values` at a one-element array, bit for bit.
    """
    if not isinstance(params, MLParams):
        params = MLParams(*params)
    z = float(z)
    if not math.isfinite(z) or z > 0.0:
        raise DomainError(f"ml is restricted to finite z <= 0, got {z}")
    return float(ml_values(params.alpha, params.beta, np.array([z]))[0])


def _band_error(alpha: float, beta: float, band: str, z: float,
                reason: str) -> AccuracyError:
    return AccuracyError(
        f"E_({alpha},{beta})({z}) in the {band} band: {reason}")


def _reduce_beta(alpha: float, beta: float, x: float) -> tuple[float, float, float]:
    """Lower beta to at most 1 via E_{a,b}(z) = (E_{a,b-a}(z) - 1/G(b-a))/z.

    Returns ``(shift, factor, beta_reduced)`` so that the original value is
    ``shift + factor * E_{alpha,beta_reduced}(-x)``.  Only used off the
    origin, where the division by z is well conditioned.  The integral
    representation's integrand behaves like ``chi**((1 - beta)/alpha)`` at
    the origin: bounded for ``beta <= 1``, but singular for ``beta`` in
    ``(1, 1 + alpha)``, and nearly non-integrable as ``beta`` nears
    ``1 + alpha``, where the adaptive rule can fail.
    """
    shift = 0.0
    factor = 1.0
    b = beta
    z = -x
    while b > 1.0 + 1e-12:
        b_next = b - alpha
        shift += factor * (-float(_rgamma(b_next)) / z)
        factor /= z
        b = b_next
    return shift, factor, b


def _ml_integrand(alpha: float, beta: float, x: float) -> Callable[[float], float]:
    inv_alpha = 1.0 / alpha
    expo = (1.0 - beta) * inv_alpha
    sin_b = math.sin(math.pi * beta)
    sin_ba = math.sin(math.pi * (beta - alpha))
    cos_a = math.cos(math.pi * alpha)
    pref = 1.0 / (alpha * math.pi)

    def kernel(chi: float) -> float:
        if chi <= 0.0:
            return 0.0
        num = chi * sin_b + x * sin_ba
        den = chi * chi + 2.0 * chi * x * cos_a + x * x
        return pref * chi ** expo * math.exp(-chi ** inv_alpha) * num / den

    return kernel


def _ml_quad(alpha: float, beta: float, x: float, band: str) -> float:
    shift, factor, b = _reduce_beta(alpha, beta, x)
    kernel = _ml_integrand(alpha, b, x)
    upper = 1.05 * _QUAD_TAIL_Y ** alpha
    points = [x] if 0.0 < x < upper else None
    val, abserr, *rest = _quad(
        kernel, 0.0, upper, points=points, limit=400,
        epsabs=_QUAD_ABS_TOL, epsrel=1e-11, full_output=1)
    if rest and len(rest) > 1:
        raise _band_error(alpha, beta, band, -x,
                          f"integral representation failed: {rest[1]}")
    if abserr > _QUAD_ACCEPT:
        raise _band_error(alpha, beta, band, -x,
                          f"integral representation reached only "
                          f"{abserr:.2e} estimated absolute error")
    return shift + factor * val


@functools.lru_cache(maxsize=128)
def _mid_interpolant(alpha: float, beta: float) -> Chebyshev:
    """Chebyshev interpolant of ``(1 + x) * E_{alpha,beta}(-x)`` in ``log x``.

    Covers ``x`` in ``[_CHEB_LOWER, _CHEB_UPPER]`` times the band edges
    for ``alpha < 1``.  Interpolating the (1+x)-normalized value keeps the
    dynamic range of the interpolated quantity near one across the band.
    """
    lo = _CHEB_LOWER * ML_SERIES_YMAX ** alpha
    hi = _CHEB_UPPER * ML_ASYM_YMIN ** alpha
    return Chebyshev.interpolate(
        lambda w: np.array(
            [(1.0 + math.exp(wi))
             * _ml_quad(alpha, beta, math.exp(wi), "intermediate")
             for wi in np.atleast_1d(w)]),
        _CHEB_DEGREE, domain=[math.log(lo), math.log(hi)])


def ml_values(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """``E_{alpha,beta}`` over an array of non-positive arguments.

    Each entry depends on ``(alpha, beta)`` and its own argument only: the
    band is a fixed function of ``z``, and the intermediate band's
    interpolant is the same whenever it is built.  For ``alpha < 1`` the
    interpolant serves every argument with ``y > ML_SERIES_YMAX`` up to
    the top of its domain.  Failures raise :class:`AccuracyError` naming
    the parameters, the band and the first offending argument.
    """
    MLParams(alpha, beta)
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return np.zeros_like(z)
    if not np.all(np.isfinite(z)) or np.any(z > 0.0):
        raise DomainError("ml_values is restricted to finite z <= 0")
    out = np.empty_like(z)
    flat = z.reshape(-1)
    res = out.reshape(-1)
    x = -flat
    y = np.where(x > 0, x, 1.0) ** (1.0 / alpha)
    ser = (x == 0) | (y <= ML_SERIES_YMAX)
    if alpha < 1.0:
        # the interpolant also covers the low end of the asymptotic band,
        # where it is much cheaper than optimal truncation
        mid = ~ser & (x <= _CHEB_UPPER * ML_ASYM_YMIN ** alpha)
    else:
        mid = ~ser & (y < ML_ASYM_YMIN)
    asy = ~ser & ~mid
    if np.any(ser):
        res[ser] = _ml_series_vec(alpha, beta, flat[ser])
    if np.any(asy):
        vals = _ml_asymptotic_vec(alpha, beta, x[asy])
        bad = ~np.isfinite(vals)
        if np.any(bad):
            if alpha > 1.0:
                raise _band_error(
                    alpha, beta, "asymptotic", flat[asy][bad][0],
                    "the series did not reach the tolerance within the "
                    "term budget")
            vals[bad] = [_ml_quad(alpha, beta, xi, "asymptotic")
                         for xi in x[asy][bad]]
        res[asy] = vals
    if np.any(mid):
        if alpha < 1.0:
            res[mid] = _mid_interpolant(alpha, beta)(np.log(x[mid])) \
                / (1.0 + x[mid])
        elif alpha == 1.0:
            # E_{1,beta}(z) = M(1, beta, z) / Gamma(beta)
            res[mid] = _hyp1f1(1.0, beta, flat[mid]) * _rgamma(beta)
        else:
            raise _band_error(
                alpha, beta, "intermediate", flat[mid][0],
                f"no certified algorithm for alpha in (1, 2) with "
                f"{ML_SERIES_YMAX} < (-z)**(1/alpha) < {ML_ASYM_YMIN}")
    return out


def _ml_series_vec(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Defining power series; only safe when cancellation is mild.

    All gamma arguments are positive, so term magnitudes are unimodal in k
    and each entry stops at its first small term past the peak.
    """
    total = np.full(z.shape, float(_rgamma(beta)))
    power = np.ones_like(z)
    largest = np.abs(total)
    prev = largest.copy()
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, _SERIES_MAX_TERMS):
        power = power * z
        term = power * float(_rgamma(alpha * k + beta))
        total = np.where(active, total + term, total)
        size = np.abs(term)
        np.maximum(largest, size, out=largest)
        active &= ~((size <= prev) & (size < 1e-18 * np.maximum(1.0, largest)))
        if not active.any():
            return total
        prev = size
    raise _band_error(alpha, beta, "Taylor", z[active][0],
                      f"the series needed more than {_SERIES_MAX_TERMS} "
                      "terms")


def _ml_asymptotic_vec(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Algebraic expansion in 1/x, plus the oscillatory term for alpha > 1.

    The series is divergent, so it is summed to its optimal truncation
    point.  Term magnitudes oscillate through the sine factor of the
    reflection formula, which makes them useless for deciding where the
    optimum lies; the decision uses the sine-free envelope
    ``x**-k * Gamma(1 + alpha*k - beta) / pi`` instead, which is unimodal
    in k.  Entries whose smallest envelope value misses the tolerance come
    back as NaN, signalling that x is too small for this band.
    """
    log_x = np.log(x)
    log_tol = math.log(_ASYM_TOL)
    power = np.ones_like(x)
    inv = -1.0 / x
    total = np.zeros_like(x)
    best_env = np.full(x.shape, np.inf)
    best_sum = np.zeros_like(x)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, _ASYM_MAX_TERMS):
        power = power * inv
        g = beta - alpha * k
        if g >= 0.5:
            c_k = -math.lgamma(g)
        else:
            c_k = math.lgamma(1.0 - g) - math.log(math.pi)
        total = np.where(active, total - power * float(_rgamma(g)), total)
        log_env = c_k - k * log_x
        better = active & (log_env < best_env)
        best_env = np.where(better, log_env, best_env)
        best_sum = np.where(better, total, best_sum)
        active &= (log_env >= log_tol - 7.0) & (log_env <= best_env + 2.5)
        if not active.any():
            break
    out = np.where(best_env <= log_tol, best_sum, np.nan)
    if alpha > 1.0:
        y = x ** (1.0 / alpha)
        phase = math.pi / alpha
        # conjugate pair of exponential contributions, combined real
        out = out + (2.0 / alpha) * y ** (1.0 - beta) \
            * np.exp(y * math.cos(phase)) \
            * np.cos(y * math.sin(phase) + (1.0 - beta) * phase)
    return out


def relaxation(alpha: float, lam: float, t: float) -> float:
    """Single-mode relaxation profile ``E_{alpha,1}(-lam * t**alpha)``."""
    alpha = float(alpha)
    lam = float(lam)
    t = float(t)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"relaxation requires alpha in (0, 1], got {alpha}")
    if lam < 0.0 or t < 0.0:
        raise DomainError("relaxation requires lam >= 0 and t >= 0")
    return ml(MLParams(alpha, 1.0), -lam * t ** alpha)


def measured_envelope(params: MLParams, z_max: float = 1e6,
                      n_points: int = 200) -> float:
    """Largest value of ``|E_{alpha,beta}(-x)| * (1 + x)`` on a log grid.

    The theoretical bound guarantees this is finite for any admissible
    parameter pair; the measured constant is what the verification suite
    compares against.
    """
    if not isinstance(params, MLParams):
        params = MLParams(*params)
    grid = np.concatenate([[0.0], np.logspace(-6, math.log10(z_max),
                                              n_points - 1)])
    values = ml_values(params.alpha, params.beta, -grid)
    return float(np.max(np.abs(values) * (1.0 + grid)))
