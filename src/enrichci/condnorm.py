"""Conditional distribution of the pooled two-stage estimate.

``ConditionalNormal`` models the precision-weighted pool of two Gaussian
estimates of a common effect, conditioned on the stage 1 estimate falling
in an interval. Density, CDF, quantile, mean and truncated first moments
are size-1 calls of the array kernels in ``_kernels``.
"""

import math
from copy import copy
from dataclasses import dataclass, field

from . import _kernels
from ._normal import log_norm_prob_range

_MIN_LOG_SELECTION_PROB = math.log(1e-300)


class NumericalError(RuntimeError):
    """A root-finder or quadrature failed to meet its tolerance."""


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
        """Same truncation geometry with a different true effect; the
        selection-probability floor holds for the geometry as given, not at
        every effect (an interval endpoint's may be far lower)."""
        if not math.isfinite(delta := float(delta)):
            raise ValueError(f"delta must be finite, got {delta}")
        object.__setattr__(moved := copy(self), "delta", delta)
        return moved

    def _args(self):
        return (self.delta, self.sigma1, self.sigma2, self.lower, self.upper)

    # -- density --------------------------------------------------------

    def pdf(self, x):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        return float(_kernels.cond_pdf(x, *self._args()))

    def logpdf(self, x):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        return float(_kernels.cond_logpdf(x, *self._args()))

    # -- CDF and quantile -----------------------------------------------

    def cdf(self, x):
        x = float(x)
        if math.isnan(x):
            raise ValueError("x must not be NaN")
        return float(_kernels.cond_cdf(x, *self._args()))

    def quantile(self, q):
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        x = float(_kernels.cond_quantile(q, *self._args()))
        if math.isnan(x):
            raise NumericalError(f"quantile {q} did not converge for {self}")
        return x

    # -- moments --------------------------------------------------------

    def mean(self):
        return float(_kernels.cond_mean(*self._args()))

    def partial_moment(self, a, b):
        """Integral of t * pdf(t) over (a, b); extended reals allowed."""
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            raise ValueError("bounds must not be NaN")
        if a > b:
            raise ValueError(f"need a <= b, got a={a}, b={b}")
        if a == b:
            return 0.0
        return float(_kernels.cond_partial_moment(a, b, *self._args()))
