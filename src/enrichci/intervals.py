"""Exact conditional confidence intervals for the pooled estimate.

Three constructions:

* ``umau_ci`` inverts the two-sided exact conditional test whose
  acceptance region satisfies the size and first-moment (unbiasedness)
  constraints — the optimal conditional interval.
* ``ctost_ci`` inverts two one-sided conditional tests at level alpha/2.
* ``naive_ci`` is the usual z-interval that ignores the selection.
"""

import math
from dataclasses import dataclass

from scipy.special import ndtri

from . import batch
from .condnorm import ConditionalNormal, NumericalError


@dataclass(frozen=True)
class CriticalPair:
    """Acceptance region [c1, c2] of the two-sided conditional test."""

    c1: float
    c2: float

    def __post_init__(self):
        if not self.c1 < self.c2:
            raise ValueError(f"need c1 < c2, got ({self.c1}, {self.c2})")


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    method: str
    alpha: float
    target: str = "delta"

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(
                f"interval endpoints must be finite, got ({self.lower}, {self.upper})"
            )
        if not self.lower < self.upper:
            raise ValueError(
                f"need lower < upper, got ({self.lower}, {self.upper})"
            )

    @property
    def width(self):
        return self.upper - self.lower


def _check_alpha_umau(alpha):
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")


def solve_umpu(model: ConditionalNormal, alpha: float) -> CriticalPair:
    """Critical pair (c1, c2) of the two-sided conditional test at ``model.delta``.

    A size-1 call of the batch Newton solve on the two defining
    constraints; raises ``NumericalError`` if it does not converge.
    """
    _check_alpha_umau(alpha)
    c1, c2, ok = batch.batch_solve_umpu(
        model.delta, alpha, model.sigma1, model.sigma2, model.lower, model.upper
    )
    if not ok:
        raise NumericalError(
            f"acceptance region did not converge at alpha={alpha}, model={model}"
        )
    return CriticalPair(float(c1), float(c2))


def model_intervals(model: ConditionalNormal, observed: float, alpha: float,
                    methods, target: str = "delta") -> list:
    """The intervals named in ``methods``, in that order, at one observation.

    tost is solved at most once, as a size-1 batch call, and seeds the
    umau solve; a solve that does not converge raises ``NumericalError``.
    Without truncation umau and tost collapse to the naive interval.
    """
    if "umau" in methods:
        _check_alpha_umau(alpha)
    elif not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    observed = float(observed)
    if not math.isfinite(observed):
        raise ValueError(f"observed must be finite, got {observed}")
    solved = {}
    if model.truncated and set(methods) - {"naive"}:
        geometry = (observed, alpha, model.sigma1, model.sigma2, model.lower,
                    model.upper)
        solved["tost"] = batch.batch_ctost_ci(*geometry)
        if "umau" in methods:
            solved["umau"] = batch.batch_umau_ci(*geometry,
                                                 seeds=solved["tost"])
    out = []
    for method in methods:
        if method not in solved:
            out.append(naive_ci(observed, model.sigma12, alpha, target=target,
                                method=method))
            continue
        lo, hi, ok = solved[method]
        if not ok:
            raise NumericalError(
                f"{method} interval did not converge at "
                f"observed={observed:.6g}, model={model}"
            )
        out.append(IntervalEstimate(float(lo), float(hi), method, alpha, target))
    return out


def umau_ci(model: ConditionalNormal, observed: float, alpha: float,
            target: str = "delta") -> IntervalEstimate:
    """Invert the two-sided conditional test at the observed pooled value.

    ``model`` fixes the truncation geometry; its ``delta`` is irrelevant
    (the inversion sweeps delta).
    """
    return model_intervals(model, observed, alpha, ("umau",), target)[0]


def ctost_ci(model: ConditionalNormal, observed: float, alpha: float,
             target: str = "delta") -> IntervalEstimate:
    """Invert two one-sided conditional tests at level alpha/2 each."""
    return model_intervals(model, observed, alpha, ("tost",), target)[0]


def naive_ci(observed: float, se: float, alpha: float, target: str = "delta",
             method: str = "naive") -> IntervalEstimate:
    """z-interval around the pooled estimate, ignoring the selection."""
    if not se > 0.0:
        raise ValueError(f"se must be positive, got {se}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    half = float(ndtri(1.0 - 0.5 * alpha)) * se
    return IntervalEstimate(observed - half, observed + half, method, alpha, target)
