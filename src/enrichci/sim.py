"""Seeded Monte Carlo engine for coverage and width experiments.

Replicates are simulated at the sufficient-statistic level: stage-wise
sample mean differences are Gaussian with known SEs, and every decision
and estimator is a deterministic function of them. Uniform variates come
from a counter-based generator in fixed-size per-replicate blocks, so any
single replicate can be reproduced in isolation and results do not depend
on worker count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import batch
from .condnorm import NumericalError
from .designs import (
    METHODS,
    ConfigurationError,
    Stage1Summary,
    Stage2Summary,
    batch_d1,
    batch_d2,
    batch_kimani2015,
    batch_kimani2018,
    check_methods,
)

_VARIANTS = ("d1", "d2", "kimani2015", "kimani2018")

_CHUNK = 4000


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
        if self.variant not in _VARIANTS:
            raise ConfigurationError(
                f"rule variant must be one of {_VARIANTS}, got {self.variant!r}"
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
        if self.variant == "d1":
            return batch_d1(design, means, self.threshold, self.co_primary)
        if self.variant == "d2":
            return batch_d2(design, means, self.threshold, self.co_primary)
        if self.variant == "kimani2015":
            return batch_kimani2015(design, means, self.threshold)
        return batch_kimani2018(design, means, self.threshold)

    def decide(self, design, s1):
        """InterimDecision for one stage 1 summary."""
        return self.decide_batch(design, np.array([s1.means])).decision(0)


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration."""

    design: object
    rule: DecisionRule
    true_deltas: tuple
    replicates: int
    seed: int
    methods: tuple = METHODS

    def __post_init__(self):
        deltas = tuple(float(v) for v in self.true_deltas)
        object.__setattr__(self, "true_deltas", deltas)
        if len(deltas) != self.design.k:
            raise ConfigurationError(
                f"true_deltas has {len(deltas)} entries, expected k={self.design.k}"
            )
        if self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be >= 1, got {self.replicates}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError(f"seed must be a u64, got {self.seed}")
        object.__setattr__(self, "methods", check_methods(self.methods))


@dataclass(frozen=True)
class MethodStats:
    method: str
    coverage: float
    mean_width: float
    width_ratio: float
    mc_halfwidth: float


@dataclass(frozen=True)
class BranchResult:
    """Aggregates for one decision branch and one estimation target.

    ``target`` equals the branch label for the selected-population effect
    and ``delta<m>`` for co-primary rows; futility rows carry no stats.
    """

    branch: str
    target: str
    count: int
    proportion: float
    proportion_halfwidth: float
    stats: tuple


@dataclass(frozen=True)
class SimResult:
    replicates: int
    seed: int
    branches: tuple
    overall: tuple

    def branch(self, branch, target=None):
        for b in self.branches:
            if b.branch == branch and (target is None or b.target == target):
                return b
        raise KeyError(f"no branch {branch!r} / target {target!r}")


def mc_error_band(coverage, n):
    """Symmetric 95% binomial band around an estimated proportion."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must lie in [0, 1], got {coverage}")
    half = 1.96 * math.sqrt(coverage * (1.0 - coverage) / n)
    return coverage - half, coverage + half


def _mc_halfwidth(coverage, n):
    lo, hi = mc_error_band(coverage, n)
    return 0.5 * (hi - lo)


def _stride(k):
    # Per-replicate uniform budget: k stage 1 draws, one selected-set
    # stage 2 draw, k co-primary stage 2 draws; padded to a whole number
    # of 4-draw counter blocks so replicates start on block boundaries.
    return 4 * ((2 * k + 1 + 3) // 4)


def _uniform_block(seed, start, count, stride):
    """Uniforms for replicates [start, start+count), shaped (count, stride)."""
    bitgen = np.random.Philox(key=int(seed))
    bitgen.advance(int(start) * stride // 4)  # advance unit = 4 raw draws
    u = np.random.Generator(bitgen).random((count, stride))
    # Guard the measure-zero u=0 draw away from ndtri's pole.
    return np.clip(u, 1e-300, 1.0)


def _stage1_matrix(scenario, start, count):
    design = scenario.design
    k = design.k
    u = _uniform_block(scenario.seed, start, count, _stride(k))
    z = ndtri(u[:, :k])
    ses = np.array([design.stage1_se((m,)) for m in range(1, k + 1)])
    return np.asarray(scenario.true_deltas) + ses * z, u


def draw_stage1(scenario, index=0):
    """Stage 1 summary for one replicate, reproducible in isolation."""
    means, _ = _stage1_matrix(scenario, index, 1)
    return Stage1Summary(tuple(means[0]))


def draw_stage2(scenario, decision, index=0):
    """Stage 2 summary for one replicate given its realized decision."""
    if decision.stopped:
        raise ConfigurationError("a stopped trial has no stage 2")
    design = scenario.design
    k = design.k
    u = _uniform_block(scenario.seed, index, 1, _stride(k))[0]
    sub = None
    if any(t.coprimary is not None for t in decision.targets):
        z = ndtri(u[k + 1:2 * k + 1])
        ses = np.array(
            [design.stage2_se_coprimary(m) for m in range(1, k + 1)]
        )
        sub = np.asarray(scenario.true_deltas) + ses * z
        selected = float(
            sum(design.p[m - 1] * sub[m - 1] for m in decision.selected)
            / design.prevalence(decision.selected)
        )
        return Stage2Summary(selected, tuple(sub))
    true_sel = sum(
        design.p[m - 1] * scenario.true_deltas[m - 1]
        for m in decision.selected
    ) / design.prevalence(decision.selected)
    z = float(ndtri(u[k]))
    return Stage2Summary(true_sel + design.stage2_se_selected() * z)


def _n_threads():
    env = os.environ.get("ENRICH_CI_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigurationError(
                f"ENRICH_CI_THREADS must be an integer, got {env!r}"
            )
        return max(1, n)
    return min(8, os.cpu_count() or 1)


def _branch_key(label):
    if label == "stop":
        return (2, label)
    if label == "full":
        return (0, label)
    return (1, label)


def _target_sums(scenario, target, idx, observed, lower, upper, pool):
    """Covered-count and width sums per method for one target over the
    replicates ``idx`` of its branch, and the naive width sum."""
    alpha = scenario.design.alpha
    se1, se2 = target.se1, target.se2
    truth = target.true_value(scenario.design, scenario.true_deltas)
    truncated = not target.unaltered and (
        np.isfinite(lower).any() or np.isfinite(upper).any()
    )
    naive_lo, naive_hi = batch.batch_naive_ci(observed, alpha, se1, se2)
    solved = [m for m in scenario.methods if m != "naive"] if truncated else []

    def run(s):
        # tost is solved once per chunk: it is a method and umau's seed.
        chunk = slice(s, s + _CHUNK)
        args = (observed[chunk], alpha, se1, se2, lower[chunk], upper[chunk])
        tost = batch.batch_ctost_ci(*args)
        if "umau" not in solved:
            return {"tost": tost}
        return {"tost": tost, "umau": batch.batch_umau_ci(*args, seeds=tost)}

    chunks = range(0, idx.size, _CHUNK) if solved else ()
    # Only several chunks gain from the pool; one runs in this thread.
    results = list((pool.map if pool and len(chunks) > 1 else map)(run, chunks))

    sums = {}
    for method in scenario.methods:
        if method in solved:
            lo, hi, ok = (
                np.concatenate([r[method][i] for r in results])
                for i in range(3)
            )
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise NumericalError(
                    f"{method} interval for target {target.name} did not "
                    f"converge at replicate {idx[bad[0]]} "
                    f"(seed {scenario.seed}); {bad.size} replicate(s) failed"
                )
        else:
            lo, hi = naive_lo, naive_hi
        sums[method] = (
            float(np.sum((lo <= truth) & (truth <= hi))),
            float(np.sum(hi - lo)),
        )
    return sums, float(np.sum(naive_hi - naive_lo))


def _method_stats(methods, sums, naive_width_sum, count):
    naive_width = naive_width_sum / count
    stats = []
    for method in methods:
        coverage = sums[method][0] / count
        width = sums[method][1] / count
        stats.append(
            MethodStats(
                method=method,
                coverage=coverage,
                mean_width=width,
                width_ratio=width / naive_width,
                mc_halfwidth=_mc_halfwidth(coverage, count),
            )
        )
    return tuple(stats)


def run_scenario(scenario):
    """Simulate, decide, estimate and aggregate one scenario.

    Deterministic given (scenario, seed); independent of thread count.
    """
    design = scenario.design
    k = design.k
    n_total = scenario.replicates
    stage1, u = _stage1_matrix(scenario, 0, n_total)
    decided = scenario.rule.decide_batch(design, stage1)
    outcomes = decided.outcomes
    counts = np.bincount(decided.branch, minlength=len(outcomes))

    sel_se2 = design.stage2_se_selected()
    branch_results = []
    # Covered and width sums of the selected-population targets.
    totals = {m: (0.0, 0.0) for m in scenario.methods}
    total_naive_width = 0.0
    total_count = 0

    threads = _n_threads()
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for j in sorted(np.flatnonzero(counts),
                        key=lambda j: _branch_key(outcomes[j].label)):
            outcome = outcomes[j]
            idx = np.flatnonzero(decided.branch == j)
            count = idx.size
            proportion = count / n_total
            prop_half = _mc_halfwidth(proportion, n_total)
            if outcome.stopped:
                branch_results.append(BranchResult(
                    "stop", "stop", count, proportion, prop_half, ()
                ))
                continue
            selected = outcome.selected
            p_sel = design.prevalence(selected)
            true_sel = sum(
                design.p[m - 1] * scenario.true_deltas[m - 1] for m in selected
            ) / p_sel

            # Stage 2 draws for this branch.
            if any(t.coprimary is not None for t in outcome.targets):
                z = ndtri(u[idx, k + 1:2 * k + 1])
                ses2 = np.array(
                    [design.stage2_se_coprimary(m) for m in range(1, k + 1)]
                )
                subs2 = np.asarray(scenario.true_deltas) + ses2 * z
                sel2 = subs2 @ np.asarray(design.p) / p_sel
            else:
                subs2 = None
                sel2 = true_sel + sel_se2 * ndtri(u[idx, k])

            for t in outcome.targets:
                lower, upper = t.lower[idx], t.upper[idx]
                bad = np.flatnonzero(~(lower < upper))
                if bad.size:
                    raise ConfigurationError(
                        f"target {t.name}: empty constraint "
                        f"({lower[bad[0]]}, {upper[bad[0]]}) at replicate "
                        f"{idx[bad[0]]} (seed {scenario.seed})"
                    )
                if t.coprimary is None:
                    members = np.asarray(t.members) - 1
                    w = np.asarray(design.p)[members] / p_sel
                    v1 = stage1[idx][:, members] @ w
                    v2 = sel2
                else:
                    v1 = stage1[idx, t.coprimary - 1]
                    v2 = subs2[:, t.coprimary - 1]
                tau1 = 1.0 / t.se1**2
                tau2 = 1.0 / t.se2**2
                observed = (tau1 * v1 + tau2 * v2) / (tau1 + tau2)
                sums, naive_width = _target_sums(
                    scenario, t, idx, observed, lower, upper, pool
                )
                branch_results.append(BranchResult(
                    outcome.label, t.name, count, proportion, prop_half,
                    _method_stats(scenario.methods, sums, naive_width, count),
                ))
                if t is outcome.targets[0]:  # selected population
                    total_count += count
                    total_naive_width += naive_width
                    for m, (covered, width) in sums.items():
                        totals[m] = (
                            totals[m][0] + covered, totals[m][1] + width
                        )
    finally:
        if pool:
            pool.shutdown()

    overall = _method_stats(
        scenario.methods, totals, total_naive_width, total_count
    ) if total_count else ()
    result = SimResult(
        replicates=n_total,
        seed=scenario.seed,
        branches=tuple(branch_results),
        overall=overall,
    )
    _check_proportions(result)
    return result


def _check_proportions(result):
    seen = {}
    for b in result.branches:
        seen[b.branch] = b.proportion
    total = sum(seen.values())
    if abs(total - 1.0) > 1e-12:
        raise NumericalError(
            f"branch proportions sum to {total!r}, expected 1"
        )
