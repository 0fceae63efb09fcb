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
    DecisionRule,
    Stage1Summary,
    Stage2Summary,
    check_methods,
)

_CHUNK = 4000


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
    # Guard the measure-zero u=0 draw away from ndtri's pole (random()
    # never draws 1).
    return np.maximum(u, 1e-300, out=u)


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


def _stage2_means(scenario, decision, u, rows):
    """Stage 2 mean differences for the uniform ``rows`` of ``u``, whose
    replicates took ``decision``: the selected-population means, and the
    per-subpopulation means (None without co-primary targets)."""
    design = scenario.design
    k = design.k
    if any(t.coprimary is not None for t in decision.targets):
        z = ndtri(u[rows, k + 1:2 * k + 1])
        ses = np.array([design.stage2_se_coprimary(m) for m in range(1, k + 1)])
        subs = np.asarray(scenario.true_deltas) + ses * z
        p_sel = design.prevalence(decision.selected)
        return subs @ np.asarray(design.p) / p_sel, subs
    truth = decision.targets[0].true_value(design, scenario.true_deltas)
    return truth + design.stage2_se_selected() * ndtri(u[rows, k]), None


def draw_stage2(scenario, decision, index=0):
    """Stage 2 summary for one replicate given its realized decision: the
    engine's draw for that replicate."""
    if decision.stopped:
        raise ConfigurationError("a stopped trial has no stage 2")
    u = _uniform_block(scenario.seed, index, 1, _stride(scenario.design.k))
    selected, subs = _stage2_means(scenario, decision, u, [0])
    return Stage2Summary(
        float(selected[0]), None if subs is None else tuple(subs[0])
    )


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


def _solve_rows(scenario, rows):
    """``batch_intervals`` over the ``rows`` (observed, se1, se2, lower,
    upper), one call per ``_CHUNK`` of them; several share a pool."""
    # Chunks bound the solvers' working arrays; naive intervals need none.
    size = _CHUNK if set(scenario.methods) - {"naive"} else rows[0].size + 1
    starts = range(0, rows[0].size or 1, size)

    def solve(s):
        observed, *geometry = (r[s:s + size] for r in rows)
        return batch.batch_intervals(observed, scenario.design.alpha,
                                     *geometry, scenario.methods)

    threads = _n_threads()
    several = threads > 1 and len(starts) > 1
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list((pool.map if several else map)(solve, starts))
    return results[0] if len(results) == 1 else {
        m: [np.concatenate([r[m][i] for r in results]) for i in range(3)]
        for m in results[0]
    }


def run_scenario(scenario):
    """Simulate, decide, estimate and aggregate one scenario.

    Deterministic given (scenario, seed); independent of thread count.
    """
    design = scenario.design
    n_total = scenario.replicates
    stage1, u = _stage1_matrix(scenario, 0, n_total)
    decided = scenario.rule.decide_batch(design, stage1)
    outcomes = decided.outcomes
    counts = np.bincount(decided.branch, minlength=len(outcomes))
    order = sorted(np.flatnonzero(counts),
                   key=lambda j: _branch_key(outcomes[j].label))
    replicates = {j: np.flatnonzero(decided.branch == j) for j in order}

    parts = [[np.empty(0)] * 5]  # so that a scenario that always stops works
    for j in order:
        outcome, idx = outcomes[j], replicates[j]
        if outcome.stopped:
            continue
        p_sel = design.prevalence(outcome.selected)
        sel2, subs2 = _stage2_means(scenario, outcome, u, idx)
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
            parts.append(np.broadcast_arrays(observed, t.se1, t.se2, lower,
                                             upper))
    rows = [np.concatenate(column) for column in zip(*parts)]
    solved = _solve_rows(scenario, rows)
    naive_lo, naive_hi, _ = solved["naive"]

    branch_results = []
    # Covered and width sums of the selected-population targets.
    totals = {m: (0.0, 0.0) for m in scenario.methods}
    total_naive_width = 0.0
    total_count = 0
    start = 0
    for j in order:
        outcome, idx = outcomes[j], replicates[j]
        count = idx.size
        proportion = count / n_total
        prop_half = _mc_halfwidth(proportion, n_total)
        if outcome.stopped:
            branch_results.append(BranchResult(
                "stop", "stop", count, proportion, prop_half, ()
            ))
        for t in outcome.targets:
            rows_t = slice(start, start + count)
            start += count
            truth = t.true_value(design, scenario.true_deltas)
            sums = {}
            for method in scenario.methods:
                lo, hi, ok = (v[rows_t] for v in solved[method])
                bad = np.flatnonzero(~ok)
                if bad.size:
                    raise NumericalError(
                        f"{method} interval for target {t.name} did not "
                        f"converge at replicate {idx[bad[0]]} "
                        f"(seed {scenario.seed}); {bad.size} replicate(s) "
                        "failed"
                    )
                sums[method] = (
                    float(np.sum((lo <= truth) & (truth <= hi))),
                    float(np.sum(hi - lo)),
                )
            naive_width = float(np.sum(naive_hi[rows_t] - naive_lo[rows_t]))
            branch_results.append(BranchResult(
                outcome.label, t.name, count, proportion, prop_half,
                _method_stats(scenario.methods, sums, naive_width, count),
            ))
            if t is outcome.targets[0]:  # selected population
                total_count += count
                total_naive_width += naive_width
                for m, (covered, width) in sums.items():
                    totals[m] = (totals[m][0] + covered, totals[m][1] + width)

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
