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


def interval_estimates(rows, alpha, methods) -> list:
    """The intervals named in ``methods`` for each (target, model, observed)
    row, in row order then method order.

    All rows are one ``batch.batch_intervals`` call; a solve that does not
    converge raises ``NumericalError``.
    """
    if "umau" in methods:
        _check_alpha_umau(alpha)
    elif not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _, models, observed = zip(*rows)
    if not all(math.isfinite(x) for x in observed):
        raise ValueError(f"observed must be finite, got {observed}")
    geometry = ([getattr(m, a) for m in models]
                for a in ("sigma1", "sigma2", "lower", "upper"))
    solved = batch.batch_intervals(observed, alpha, *geometry, methods)
    out = []
    for i, (target, model, x) in enumerate(rows):
        for method in methods:
            lo, hi, ok = (v[i] for v in solved[method])
            if not ok:
                raise NumericalError(
                    f"{method} interval did not converge at "
                    f"observed={x:.6g}, model={model}"
                )
            out.append(IntervalEstimate(float(lo), float(hi), method, alpha,
                                        target))
    return out


def umau_ci(model: ConditionalNormal, observed: float, alpha: float,
            target: str = "delta") -> IntervalEstimate:
    """Invert the two-sided conditional test at the observed pooled value.

    ``model`` fixes the truncation geometry; its ``delta`` is irrelevant
    (the inversion sweeps delta).
    """
    return interval_estimates([(target, model, observed)], alpha, ("umau",))[0]


def ctost_ci(model: ConditionalNormal, observed: float, alpha: float,
             target: str = "delta") -> IntervalEstimate:
    """Invert two one-sided conditional tests at level alpha/2 each."""
    return interval_estimates([(target, model, observed)], alpha, ("tost",))[0]


def naive_ci(observed: float, se: float, alpha: float,
             target: str = "delta") -> IntervalEstimate:
    """z-interval around the pooled estimate, ignoring the selection."""
    if not se > 0.0:
        raise ValueError(f"se must be positive, got {se}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    half = float(ndtri(1.0 - 0.5 * alpha)) * se
    return IntervalEstimate(observed - half, observed + half, "naive", alpha,
                            target)
