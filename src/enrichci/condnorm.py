"""Conditional distribution of the pooled two-stage estimate.

``ConditionalNormal`` models the precision-weighted pool of two Gaussian
estimates of a common effect, conditioned on the stage 1 estimate falling
in an interval. Density, CDF, quantile, mean and truncated first moments
are exposed with two evaluation paths: fast closed forms (default) and an
adaptive-quadrature reference path used as the slow authoritative oracle.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate
from scipy.optimize import brentq

from . import _kernels
from ._normal import log_norm_prob_range

_MIN_LOG_SELECTION_PROB = math.log(1e-300)

#: Methods accepted by cdf/partial_moment/quantile.
_METHODS = ("closed", "quadrature")


class NumericalError(RuntimeError):
    """A root-finder or quadrature failed to meet its tolerance."""


def _check_method(method):
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")


@dataclass(frozen=True)
class ConditionalNormal:
    """Pooled estimate given an interval constraint on the stage 1 estimate.

    Parameters
    ----------
    delta : float
        True effect; common mean of both stage estimates.
    sigma1, sigma2 : float
        Std devs of the stage 1 and stage 2 estimates.
    lower, upper : float
        Truncation interval for the stage 1 estimate; may be +/-inf.
    """

    delta: float
    sigma1: float
    sigma2: float
    lower: float = -math.inf
    upper: float = math.inf

    tau1: float = field(init=False, repr=False)
    tau2: float = field(init=False, repr=False)
    sigma12: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.delta)):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if not (self.sigma1 > 0.0 and math.isfinite(self.sigma1)):
            raise ValueError(f"sigma1 must be a positive real, got {self.sigma1}")
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be a positive real, got {self.sigma2}")
        if not self.lower < self.upper:
            raise ValueError(
                f"truncation interval is empty: lower={self.lower}, upper={self.upper}"
            )
        log_p = float(
            log_norm_prob_range(
                (self.lower - self.delta) / self.sigma1,
                (self.upper - self.delta) / self.sigma1,
            )
        )
        if not log_p >= _MIN_LOG_SELECTION_PROB:
            raise ValueError(
                "selection probability underflows "
                f"(log prob {log_p:.1f}); the conditioning event has numerical "
                "measure zero"
            )
        object.__setattr__(self, "tau1", 1.0 / self.sigma1**2)
        object.__setattr__(self, "tau2", 1.0 / self.sigma2**2)
        object.__setattr__(
            self, "sigma12", _kernels.pooled_sd(self.sigma1, self.sigma2)
        )

    # -- convenience ----------------------------------------------------

    @property
    def truncated(self):
        return math.isfinite(self.lower) or math.isfinite(self.upper)

    def at(self, delta):
        """Same truncation geometry with a different true effect."""
        return replace(self, delta=float(delta))

    def _args(self):
        return (self.delta, self.sigma1, self.sigma2, self.lower, self.upper)

    # -- density --------------------------------------------------------

    def pdf(self, x):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        d, s1, s2, l, u = self._args()
        return float(_kernels.cond_pdf(x, d, s1, s2, l, u))

    def logpdf(self, x):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        d, s1, s2, l, u = self._args()
        return float(_kernels.cond_logpdf(x, d, s1, s2, l, u))

    # -- CDF ------------------------------------------------------------

    def _support(self):
        # Interval carrying all but ~1e-25 of the conditional mass.
        center = self.mean()
        return center - 12.0 * self.sigma12, center + 12.0 * self.sigma12

    def cdf(self, x, method="closed"):
        _check_method(method)
        x = float(x)
        if math.isnan(x):
            raise ValueError("x must not be NaN")
        d, s1, s2, l, u = self._args()
        if method == "closed":
            if x == math.inf:
                return 1.0
            if x == -math.inf:
                return 0.0
            return float(_kernels.cond_cdf(x, d, s1, s2, l, u))
        lo, hi = self._support()
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        val, err = integrate.quad(
            self.pdf, lo, x, epsabs=1e-12, epsrel=1e-10, limit=200
        )
        if err > 1e-9:
            raise NumericalError(f"cdf quadrature error estimate {err:.2e} too large")
        return min(max(val, 0.0), 1.0)

    # -- quantile -------------------------------------------------------

    def quantile(self, q, method="closed"):
        _check_method(method)
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        cdf = lambda x: self.cdf(x, method=method)
        # Geometric bracket expansion from the untruncated mean.
        step = self.sigma12
        lo, hi = self.delta - step, self.delta + step
        for _ in range(60):
            if cdf(lo) <= q:
                break
            lo -= step
            step *= 2.0
        else:
            raise NumericalError("quantile bracket expansion failed (lower)")
        step = self.sigma12
        for _ in range(60):
            if cdf(hi) >= q:
                break
            hi += step
            step *= 2.0
        else:
            raise NumericalError("quantile bracket expansion failed (upper)")
        return brentq(lambda x: cdf(x) - q, lo, hi, xtol=1e-13, rtol=8.9e-16)

    # -- moments --------------------------------------------------------

    def mean(self):
        d, s1, s2, l, u = self._args()
        return float(_kernels.cond_mean(d, s1, s2, l, u))

    def partial_moment(self, a, b, method="closed"):
        """Integral of t * pdf(t) over (a, b); extended reals allowed."""
        _check_method(method)
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            raise ValueError("bounds must not be NaN")
        if a > b:
            raise ValueError(f"need a <= b, got a={a}, b={b}")
        if a == b:
            return 0.0
        d, s1, s2, l, u = self._args()
        if method == "closed":
            return float(_kernels.cond_partial_moment(a, b, d, s1, s2, l, u))
        lo, hi = self._support()
        a_eff, b_eff = max(a, lo), min(b, hi)
        if a_eff >= b_eff:
            return 0.0
        val, err = integrate.quad(
            lambda t: t * self.pdf(t), a_eff, b_eff,
            epsabs=1e-12, epsrel=1e-10, limit=200,
        )
        if err > 1e-10:
            raise NumericalError(
                f"partial moment quadrature error estimate {err:.2e} too large"
            )
        return val
