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
    ConfigurationError,
    Stage1Summary,
    Stage2Summary,
    apply_d1,
    apply_d2,
    apply_kimani2015,
    apply_kimani2018,
)

_VARIANTS = ("d1", "d2", "kimani2015", "kimani2018")
_METHODS = ("naive", "umau", "tost")

#: Loosened root tolerance for simulation solves; endpoint error stays
#: around 1e-8 pooled SDs, far below any coverage resolution.
_SIM_TOL_SCALE = 100.0

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

    def decide(self, design, s1):
        if self.variant == "d1":
            return apply_d1(design, s1, self.threshold, self.co_primary)
        if self.variant == "d2":
            return apply_d2(design, s1, self.threshold, self.co_primary)
        if self.variant == "kimani2015":
            return apply_kimani2015(design, s1, self.threshold)
        return apply_kimani2018(design, s1, self.threshold)


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration."""

    design: object
    rule: DecisionRule
    true_deltas: tuple
    replicates: int
    seed: int
    methods: tuple = _METHODS

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
        methods = tuple(self.methods)
        if not methods:
            raise ConfigurationError("methods must be non-empty")
        for m in methods:
            if m not in _METHODS:
                raise ConfigurationError(
                    f"methods must be among {_METHODS}, got {m!r}"
                )
        object.__setattr__(self, "methods", methods)


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


def _solve_method(method, observed, alpha, se1, se2, lower, upper):
    """Endpoint arrays and ok mask for umau or tost over one chunk."""
    if method == "tost":
        return batch.batch_ctost_ci(observed, alpha, se1, se2, lower, upper)
    return batch.batch_umau_ci(
        observed, alpha, se1, se2, lower, upper, tol_scale=_SIM_TOL_SCALE
    )


def _group_stats(scenario, group, n_total, pool):
    """BranchResult list for one decision branch."""
    design = scenario.design
    alpha = design.alpha
    seed = scenario.seed
    idx = np.asarray(group["idx"])
    count = idx.size
    proportion = count / n_total
    prop_half = _mc_halfwidth(proportion, n_total)
    out = []
    for tgt in group["targets"]:
        observed = tgt["observed"]
        lower, upper = tgt["lower"], tgt["upper"]
        se1, se2 = tgt["se1"], tgt["se2"]
        truth = tgt["truth"]
        truncated = not tgt["unaltered"] and (
            np.isfinite(lower).any() or np.isfinite(upper).any()
        )
        naive_lo, naive_hi = batch.batch_naive_ci(observed, alpha, se1, se2)
        naive_width = float(np.mean(naive_hi - naive_lo))

        def solve(method):
            if method == "naive" or not truncated:
                return naive_lo.copy(), naive_hi.copy()
            chunks = range(0, count, _CHUNK)

            def run(s):
                e = min(s + _CHUNK, count)
                return _solve_method(
                    method, observed[s:e], alpha, se1, se2,
                    lower[s:e], upper[s:e],
                )
            results = list(pool.map(run, chunks)) if pool else [
                run(s) for s in chunks
            ]
            lo = np.concatenate([r[0] for r in results])
            hi = np.concatenate([r[1] for r in results])
            bad = np.flatnonzero(~np.concatenate([r[2] for r in results]))
            if bad.size:
                raise NumericalError(
                    f"{method} interval for target {tgt['name']} did not "
                    f"converge at replicate {idx[bad[0]]} (seed {seed}); "
                    f"{bad.size} replicate(s) failed"
                )
            return lo, hi

        stats = []
        endpoints = {}
        sums = {}
        for method in scenario.methods:
            lo, hi = solve(method)
            endpoints[method] = (lo, hi)
            covered = float(np.mean((lo <= truth) & (truth <= hi)))
            width = float(np.mean(hi - lo))
            sums[method] = (
                float(np.sum((lo <= truth) & (truth <= hi))),
                float(np.sum(hi - lo)),
            )
            stats.append(
                MethodStats(
                    method=method,
                    coverage=covered,
                    mean_width=width,
                    width_ratio=width / naive_width,
                    mc_halfwidth=_mc_halfwidth(covered, count),
                )
            )
        out.append(
            BranchResult(
                branch=group["label"],
                target=tgt["name"],
                count=count,
                proportion=proportion,
                proportion_halfwidth=prop_half,
                stats=tuple(stats),
            )
        )
        tgt["sums"] = sums
        tgt["naive_width_sum"] = float(np.sum(naive_hi - naive_lo))
    return out


def run_scenario(scenario):
    """Simulate, decide, estimate and aggregate one scenario.

    Deterministic given (scenario, seed); independent of thread count.
    """
    design = scenario.design
    k = design.k
    n_total = scenario.replicates
    stage1, u = _stage1_matrix(scenario, 0, n_total)

    co_primary = scenario.rule.co_primary
    groups = {}
    for i in range(n_total):
        s1 = Stage1Summary(tuple(stage1[i]))
        decision = scenario.rule.decide(design, s1)
        label = decision.label
        g = groups.get(label)
        if g is None:
            g = {"label": label, "idx": [], "decisions": []}
            groups[label] = g
        g["idx"].append(i)
        g["decisions"].append(decision)

    sel_se2 = design.stage2_se_selected()
    branch_results = []
    agg = {m: [0.0, 0.0] for m in scenario.methods}  # covered, width sums
    agg_naive_width = 0.0
    agg_count = 0

    threads = _n_threads()
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for label in sorted(groups, key=_branch_key):
            g = groups[label]
            idx = np.asarray(g["idx"])
            if label == "stop":
                proportion = idx.size / n_total
                branch_results.append(
                    BranchResult(
                        branch="stop",
                        target="stop",
                        count=idx.size,
                        proportion=proportion,
                        proportion_halfwidth=_mc_halfwidth(proportion, n_total),
                        stats=(),
                    )
                )
                continue
            decisions = g["decisions"]
            proto = decisions[0]
            selected = proto.selected
            p_sel = design.prevalence(selected)
            true_sel = sum(
                design.p[m - 1] * scenario.true_deltas[m - 1] for m in selected
            ) / p_sel

            # Stage 2 draws for this branch.
            use_subs = any(t.coprimary is not None for t in proto.targets)
            if use_subs:
                z = ndtri(u[idx, k + 1:2 * k + 1])
                ses2 = np.array(
                    [design.stage2_se_coprimary(m) for m in range(1, k + 1)]
                )
                subs2 = np.asarray(scenario.true_deltas) + ses2 * z
                sel2 = subs2 @ np.asarray(design.p) / p_sel
            else:
                subs2 = None
                sel2 = true_sel + sel_se2 * ndtri(u[idx, k])

            g["targets"] = []
            for j, t0 in enumerate(proto.targets):
                lower = np.array([d.targets[j].lower for d in decisions])
                upper = np.array([d.targets[j].upper for d in decisions])
                if t0.coprimary is None:
                    members = np.asarray(t0.members) - 1
                    w = np.asarray(design.p)[members] / p_sel
                    v1 = stage1[idx][:, members] @ w
                    v2 = sel2
                else:
                    v1 = stage1[idx, t0.coprimary - 1]
                    v2 = subs2[:, t0.coprimary - 1]
                tau1 = 1.0 / t0.se1**2
                tau2 = 1.0 / t0.se2**2
                observed = (tau1 * v1 + tau2 * v2) / (tau1 + tau2)
                g["targets"].append({
                    "name": t0.name,
                    "observed": observed,
                    "lower": lower,
                    "upper": upper,
                    "se1": t0.se1,
                    "se2": t0.se2,
                    "unaltered": t0.unaltered,
                    "truth": t0.true_value(design, scenario.true_deltas),
                })
            branch_results.extend(_group_stats(scenario, g, n_total, pool))
            # Selected-population target feeds the overall row.
            main = g["targets"][0]
            agg_count += idx.size
            agg_naive_width += main["naive_width_sum"]
            for m in scenario.methods:
                cov_sum, width_sum = main["sums"][m]
                agg[m][0] += cov_sum
                agg[m][1] += width_sum
    finally:
        if pool:
            pool.shutdown()

    overall = []
    if agg_count:
        for m in scenario.methods:
            coverage = agg[m][0] / agg_count
            width = agg[m][1] / agg_count
            overall.append(
                MethodStats(
                    method=m,
                    coverage=coverage,
                    mean_width=width,
                    width_ratio=width / (agg_naive_width / agg_count),
                    mc_halfwidth=_mc_halfwidth(coverage, agg_count),
                )
            )

    result = SimResult(
        replicates=n_total,
        seed=scenario.seed,
        branches=tuple(branch_results),
        overall=tuple(overall),
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
