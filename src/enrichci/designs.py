"""Two-stage enrichment designs and interim decision rules.

A trial splits patients across ``k`` subpopulations with known prevalences.
After stage 1 an interim rule keeps the full population, restricts
enrollment to a subset, or stops for futility. Each realized decision is
an interval constraint on one stage 1 statistic; this module evaluates
the rules, records those truncation bounds per estimation target, and
pools stage summaries into the final estimates and intervals.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .condnorm import ConditionalNormal
from .intervals import interval_estimates


class ConfigurationError(ValueError):
    """Design, rule and data are inconsistent (wrong k, missing target...)."""


METHODS = ("naive", "umau", "tost")


def check_methods(methods):
    """``methods`` as a tuple of distinct names from ``METHODS``."""
    methods = tuple(methods)
    if not methods or not set(methods) <= set(METHODS):
        raise ConfigurationError(
            f"methods must be a non-empty subset of {METHODS}, got {methods}"
        )
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigurationError(
            f"methods must not repeat, got {', '.join(repeated)} twice or more"
        )
    return methods


@dataclass(frozen=True)
class TrialDesign:
    """Static trial parameters.

    Parameters
    ----------
    k : int
        Number of subpopulations.
    p : tuple of float
        Subpopulation prevalences, positive and summing to one.
    n1, n2 : int
        Patients enrolled in stage 1 and stage 2.
    sigma : float
        Common outcome standard deviation (both arms).
    alpha : float
        Two-sided error level for intervals.
    """

    k: int
    p: tuple
    n1: int
    n2: int
    sigma: float
    alpha: float = 0.05

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if len(p) != self.k:
            raise ConfigurationError(f"p has {len(p)} entries, expected k={self.k}")
        if any(v <= 0.0 for v in p):
            raise ConfigurationError(f"prevalences must be positive, got {p}")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ConfigurationError(f"prevalences must sum to 1, got {sum(p)}")
        if not (self.n1 > 0 and self.n2 > 0):
            raise ConfigurationError(
                f"stage sizes must be positive, got n1={self.n1}, n2={self.n2}"
            )
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigurationError(
                f"alpha must lie in (0, 0.5), got {self.alpha}"
            )

    def prevalence(self, members):
        return sum(self.p[m - 1] for m in members)

    def stage1_se(self, members):
        """SE of the stage 1 mean difference over ``members`` (1-based)."""
        return 2.0 * self.sigma / math.sqrt(self.prevalence(members) * self.n1)

    def stage2_se_selected(self):
        # All of stage 2 enrolls from the selected population.
        return 2.0 * self.sigma / math.sqrt(self.n2)

    def stage2_se_coprimary(self, m):
        return 2.0 * self.sigma / math.sqrt(self.p[m - 1] * self.n2)


@dataclass(frozen=True)
class Stage1Summary:
    """Per-subpopulation stage 1 mean differences."""

    means: tuple

    def __post_init__(self):
        means = tuple(float(v) for v in self.means)
        object.__setattr__(self, "means", means)
        if not all(math.isfinite(v) for v in means):
            raise ValueError(f"stage 1 means must be finite, got {means}")

    def pooled_mean(self, design, members=None):
        """Prevalence-weighted mean over ``members`` (default: everyone)."""
        if members is None:
            members = range(1, design.k + 1)
        num = sum(design.p[m - 1] * self.means[m - 1] for m in members)
        return num / design.prevalence(members)


@dataclass(frozen=True)
class Stage2Summary:
    """Stage 2 mean differences: selected population, plus per-subpopulation
    components in co-primary mode."""

    selected_mean: float
    sub_means: Optional[tuple] = None

    def __post_init__(self):
        if not math.isfinite(self.selected_mean):
            raise ValueError(
                f"stage 2 mean must be finite, got {self.selected_mean}"
            )
        if self.sub_means is not None:
            object.__setattr__(
                self, "sub_means", tuple(float(v) for v in self.sub_means)
            )


@dataclass(frozen=True)
class TruncationTarget:
    """One estimand with its realized selection constraint.

    ``coprimary`` is None for the selected-population effect (the stage 1
    statistic is the pooled mean over ``members``); otherwise it names the
    subpopulation whose effect is estimated alongside full continuation.
    Infinite ``lower`` and ``upper`` leave the target's law untruncated. In
    a ``BatchDecision`` the bounds are per-draw arrays, checked by the
    engine.
    """

    name: str
    members: tuple
    lower: float
    upper: float
    se1: float
    se2: float
    coprimary: Optional[int] = None

    def __post_init__(self):
        if np.ndim(self.lower) == 0 and not self.lower < self.upper:
            raise ConfigurationError(
                f"target {self.name}: empty constraint "
                f"({self.lower}, {self.upper})"
            )
        if not (self.se1 > 0.0 and self.se2 > 0.0):
            raise ConfigurationError(
                f"target {self.name}: SEs must be positive "
                f"({self.se1}, {self.se2})"
            )

    def stage1_value(self, design, s1):
        if self.coprimary is not None:
            return s1.means[self.coprimary - 1]
        return s1.pooled_mean(design, self.members)

    def stage2_value(self, s2):
        if self.coprimary is not None:
            if s2.sub_means is None:
                raise ConfigurationError(
                    f"target {self.name}: co-primary estimate requires "
                    "per-subpopulation stage 2 means"
                )
            return s2.sub_means[self.coprimary - 1]
        return s2.selected_mean

    def true_value(self, design, deltas):
        if self.coprimary is not None:
            return float(deltas[self.coprimary - 1])
        num = sum(design.p[m - 1] * deltas[m - 1] for m in self.members)
        return num / design.prevalence(self.members)


@dataclass(frozen=True)
class InterimDecision:
    """Selected index set (empty = futility) and its estimation targets."""

    selected: tuple
    targets: tuple

    @property
    def stopped(self):
        return len(self.selected) == 0

    @property
    def label(self):
        if self.stopped:
            return "stop"
        return self.targets[0].name


def _selection_label(members, k):
    if len(members) == k:
        return "full"
    if len(members) == 1:
        return f"sub{members[0]}"
    return f"sub1-{members[-1]}"  # a leading block of the nested rule


@dataclass(frozen=True)
class BatchDecision:
    """An interim rule applied to N stage 1 draws at once.

    ``branch[i]`` indexes ``outcomes`` for draw ``i``. Each outcome is an
    InterimDecision whose targets hold (N,) ``lower``/``upper`` arrays;
    an outcome's bounds are meaningful on the draws that take it.
    """

    branch: np.ndarray
    outcomes: tuple

    def decision(self, i):
        """The InterimDecision of draw ``i``, with scalar bounds."""
        outcome = self.outcomes[self.branch[i]]
        return InterimDecision(outcome.selected, tuple(
            replace(t, lower=float(t.lower[i]), upper=float(t.upper[i]))
            for t in outcome.targets
        ))


def _outcome(design, members, lower, upper, coprimary_lower=()):
    """Outcome selecting ``members``; ``coprimary_lower`` holds, per
    subpopulation, the lower bound of its co-primary target under full
    continuation (the upper bound is infinite)."""
    targets = [
        TruncationTarget(
            name=_selection_label(members, design.k),
            members=members,
            lower=lower,
            upper=upper,
            se1=design.stage1_se(members),
            se2=design.stage2_se_selected(),
        )
    ]
    for m, sub_lower in enumerate(coprimary_lower, start=1):
        targets.append(
            TruncationTarget(
                name=f"delta{m}",
                members=(m,),
                lower=sub_lower,
                upper=np.full_like(sub_lower, math.inf),
                se1=design.stage1_se((m,)),
                se2=design.stage2_se_coprimary(m),
                coprimary=m,
            )
        )
    return InterimDecision(members, tuple(targets))


def _check_means(design, means, rule_name=None):
    if means.shape[1] != design.k:
        raise ConfigurationError(f"stage 1 summary has {means.shape[1]} "
                                 f"means, expected k={design.k}")
    if rule_name and design.k != 2:
        raise ConfigurationError(f"{rule_name} requires k=2, got k={design.k}")


# The batch rules evaluate every statistic elementwise, in a fixed order
# of operations (the pooled mean as (p1*m1 + p2*m2)/(p1 + p2), like
# Stage1Summary.pooled_mean; Z as mean/SE; block sums as running sums), so
# a draw's branch and bounds do not depend on the batch it is decided in.


def batch_d1(design, means, z_star, co_primary=False):
    """Standardized-mean rule over an (N, 2) matrix of stage 1 means:
    keep everyone if the pooled Z-statistic clears ``z_star``, otherwise
    enrich to the higher-Z subpopulation (ties favor subpopulation 1)."""
    _check_means(design, means, "the Z-threshold rule")
    n = len(means)
    p1, p2 = design.p
    m1, m2 = means[:, 0], means[:, 1]
    full_se = design.stage1_se((1, 2))
    threshold = full_se * z_star
    bounds1 = (math.sqrt(p2 / p1) * m2, threshold / p1 - (p2 / p1) * m2)
    bounds2 = (math.sqrt(p1 / p2) * m1, threshold / p2 - (p1 / p2) * m1)
    outcomes = (
        _outcome(design, (1, 2), np.full(n, threshold), np.full(n, math.inf),
                 ((threshold - p2 * m2) / p1, (threshold - p1 * m1) / p2)
                 if co_primary else ()),
        _outcome(design, (1,), *bounds1),
        _outcome(design, (2,), *bounds2),
    )
    first = m1 / design.stage1_se((1,)) >= m2 / design.stage1_se((2,))
    best, lower, upper = np.where(first, (m1, *bounds1), (m2, *bounds2))
    # The pooled Z clears z_star iff the higher-Z mean exceeds its own
    # enrichment upper bound; testing that, and continuing where the bounds
    # cross by rounding, leaves every enriched draw a non-empty constraint.
    branch = np.where((best > upper) | (lower >= upper), 0,
                      np.where(first, 1, 2))
    return BatchDecision(branch, outcomes)


def batch_d2(design, means, delta_star, co_primary=False):
    """Raw-mean rule over an (N, 2) matrix of stage 1 means: keep
    everyone if the pooled mean clears ``delta_star``; otherwise enrich to
    the best subpopulation (ties favor subpopulation 1) if it clears the
    threshold; otherwise stop for futility."""
    _check_means(design, means, "the mean-threshold rule")
    n = len(means)
    p1, p2 = design.p
    m1, m2 = means[:, 0], means[:, 1]
    threshold = np.full(n, delta_star)
    # Subpopulation m's enrichment upper bound is also the lower bound of
    # its co-primary target under full continuation.
    upper1 = (delta_star - p2 * m2) / p1
    upper2 = (delta_star - p1 * m1) / p2
    outcomes = (
        _outcome(design, (1, 2), threshold, np.full(n, math.inf),
                 (upper1, upper2) if co_primary else ()),
        _outcome(design, (1,), threshold, upper1),
        _outcome(design, (2,), threshold, upper2),
        InterimDecision((), ()),
    )
    # The pooled mean clears delta_star iff the best mean exceeds its own
    # enrichment upper bound; testing it on that bound leaves every
    # enriched draw the non-empty constraint delta_star < mean <= upper.
    second = m1 < m2
    best = np.maximum(m1, m2)
    enrich = np.where(best > delta_star, 1 + second, 3)
    branch = np.where(best > np.where(second, upper2, upper1), 0, enrich)
    return BatchDecision(branch, outcomes)


def batch_kimani2015(design, means, delta_star):
    """Enrich to subpopulation 1 when its stage 1 advantage over the full
    population clears ``delta_star``; otherwise continue with everyone.

    The continuation event constrains only the difference statistic,
    which is independent of the pooled full-population estimator, so the
    full-population target has infinite bounds.
    """
    _check_means(design, means, "the subgroup-advantage rule")
    n = len(means)
    p1, p2 = design.p
    m1, m2 = means[:, 0], means[:, 1]
    advantage = m1 - (p1 * m1 + p2 * m2) / (p1 + p2)  # equals p2 * (m1 - m2)
    outcomes = (
        _outcome(design, (1, 2), np.full(n, -math.inf), np.full(n, math.inf)),
        _outcome(design, (1,), m2 + delta_star / p2, np.full(n, math.inf)),
    )
    return BatchDecision(np.where(advantage > delta_star, 1, 0), outcomes)


def batch_kimani2018(design, means, delta_star):
    """Nested-subgroup rule: order subpopulations by presumed effect and
    select the largest leading block {1..m} whose pooled stage 1 mean
    clears ``delta_star`` while every larger block fails; stop if no
    block qualifies. Outcome ``m`` selects block {1..m}; outcome 0 stops."""
    _check_means(design, means)
    n, k = len(means), design.k
    cum_p = list(itertools.accumulate(design.p))
    cum_pm = np.cumsum(np.asarray(design.p) * means, axis=1)
    qualifies = cum_pm / np.asarray(cum_p) > delta_star
    outcomes = [InterimDecision((), ())]
    for m in range(1, k + 1):
        # Rearranged block-mean constraints for m' > m: block [j] fails
        # iff the [m] statistic is at most
        # (p_[j] delta* - sum_{m+1..j} p_i mean_i) / p_[m].
        upper = np.full(n, math.inf)
        for j in range(m + 1, k + 1):
            beyond = cum_pm[:, j - 1] - cum_pm[:, m - 1]
            bound = (cum_p[j - 1] * delta_star - beyond) / cum_p[m - 1]
            upper = np.minimum(upper, bound)
            # A block that qualifies by this rearranged form qualifies,
            # so no selected block's constraint is empty by rounding.
            qualifies[:, j - 1] |= qualifies[:, m - 1] & (bound <= delta_star)
        outcomes.append(_outcome(
            design, tuple(range(1, m + 1)), np.full(n, delta_star), upper
        ))
    largest = k - np.argmax(qualifies[:, ::-1], axis=1)
    branch = np.where(qualifies.any(axis=1), largest, 0)
    return BatchDecision(branch, tuple(outcomes))


_RULES = {"d1": batch_d1, "d2": batch_d2, "kimani2015": batch_kimani2015,
          "kimani2018": batch_kimani2018}


@dataclass(frozen=True)
class DecisionRule:
    """Interim rule variant plus its threshold.

    ``co_primary`` adds per-subpopulation targets under full-population
    continuation; only the Z- and mean-threshold rules (d1, d2) define them.
    """

    variant: str
    threshold: float
    co_primary: bool = False

    def __post_init__(self):
        if self.variant not in _RULES:
            raise ConfigurationError(
                f"rule variant must be one of {tuple(_RULES)}, "
                f"got {self.variant!r}"
            )
        if not math.isfinite(self.threshold):
            raise ConfigurationError(
                f"rule threshold must be finite, got {self.threshold}"
            )
        if self.co_primary and self.variant not in ("d1", "d2"):
            raise ConfigurationError(
                f"co_primary targets are defined for d1 and d2 only, "
                f"not {self.variant!r}"
            )

    def decide_batch(self, design, means):
        """BatchDecision for an (N, k) matrix of stage 1 means."""
        co_primary = (self.co_primary,) if self.variant in ("d1", "d2") else ()
        return _RULES[self.variant](design, means, self.threshold, *co_primary)

    def decide(self, design, s1):
        """InterimDecision for one stage 1 summary."""
        return self.decide_batch(design, np.array([s1.means])).decision(0)


def pooled_estimate(design, decision, s1, s2, target):
    """Precision-weighted pool of the two stage estimates for ``target``.

    Coincides with the patient-count-weighted mean under the enrollment
    scheme (stage 2 enrolls proportionally within the selected set).
    """
    if target not in decision.targets:
        raise ConfigurationError(f"target {target.name} not in decision")
    tau1 = 1.0 / target.se1**2
    tau2 = 1.0 / target.se2**2
    v1 = target.stage1_value(design, s1)
    v2 = target.stage2_value(s2)
    return (tau1 * v1 + tau2 * v2) / (tau1 + tau2)


def confidence_intervals(design, decision, s1, s2, methods, alpha=None):
    """Intervals for every target of a realized (non-futility) decision.

    Returns a list of IntervalEstimate, one per (target, method), in
    target order then method order, from one batch solve over all targets.
    """
    if decision.stopped:
        raise ConfigurationError(
            "a futility stop has no estimand; no intervals are defined"
        )
    methods = check_methods(methods)
    alpha = design.alpha if alpha is None else alpha
    rows = [
        (target.name,
         ConditionalNormal(0.0, target.se1, target.se2, lower=target.lower,
                           upper=target.upper),
         pooled_estimate(design, decision, s1, s2, target))
        for target in decision.targets
    ]
    return interval_estimates(rows, alpha, methods)
