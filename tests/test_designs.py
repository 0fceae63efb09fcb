"""Tests for trial designs, interim decision rules, and the trial-level
interval assembly.

Decision rules are cross-checked three ways: against hand-evaluated bound
formulas on fixed inputs, against an independent reimplementation of
each rule's primary (statistic-threshold) form on random draws, and, for
the batch rules, against per-draw scalar references grouped one replicate
at a time.
"""

import math

import numpy as np
import pytest

from enrichci import (
    ConditionalNormal,
    ConfigurationError,
    DecisionRule,
    Stage1Summary,
    Stage2Summary,
    TrialDesign,
    apply_d1,
    apply_d2,
    apply_kimani2015,
    apply_kimani2018,
    confidence_intervals,
    ctost_ci,
    pooled_estimate,
    umau_ci,
)
from enrichci import batch
from enrichci.designs import (
    batch_d1,
    batch_d2,
    batch_kimani2015,
    batch_kimani2018,
)

SIM_DESIGN = TrialDesign(k=2, p=(0.5, 0.5), n1=244, n2=244, sigma=8.0)
EXAMPLE_DESIGN = TrialDesign(k=2, p=(0.5, 0.5), n1=200, n2=100, sigma=0.36)


class TestTrialDesign:
    def test_valid_construction(self):
        d = SIM_DESIGN
        assert d.stage1_se((1,)) == pytest.approx(16 / math.sqrt(122))
        assert d.stage1_se((1, 2)) == pytest.approx(16 / math.sqrt(244))
        assert d.stage2_se_selected() == pytest.approx(16 / math.sqrt(244))
        assert d.stage2_se_coprimary(2) == pytest.approx(16 / math.sqrt(122))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=2, p=(0.5, 0.6), n1=10, n2=10, sigma=1.0),
            dict(k=2, p=(0.5,), n1=10, n2=10, sigma=1.0),
            dict(k=2, p=(1.2, -0.2), n1=10, n2=10, sigma=1.0),
            dict(k=2, p=(0.5, 0.5), n1=0, n2=10, sigma=1.0),
            dict(k=2, p=(0.5, 0.5), n1=10, n2=10, sigma=0.0),
            dict(k=2, p=(0.5, 0.5), n1=10, n2=10, sigma=1.0, alpha=0.7),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrialDesign(**kwargs)


class TestZThresholdRule:
    def test_enrich_to_first_subpopulation(self):
        s1 = Stage1Summary((2.0, 0.0))
        dec = apply_d1(SIM_DESIGN, s1, z_star=1.0)
        assert dec.selected == (1,)
        (t,) = dec.targets
        assert t.lower == pytest.approx(0.0, abs=1e-12)
        assert t.upper == pytest.approx(2.0486, abs=1e-3)

    def test_full_population_continuation(self):
        # Pooled mean 1.5 gives a pooled Z above the threshold.
        s1 = Stage1Summary((1.5, 1.5))
        dec = apply_d1(SIM_DESIGN, s1, z_star=1.0)
        assert dec.selected == (1, 2)
        (t,) = dec.targets
        assert t.lower == pytest.approx(16 / math.sqrt(244), abs=1e-12)
        assert t.upper == math.inf

    def test_tie_selects_first(self):
        dec = apply_d1(SIM_DESIGN, Stage1Summary((0.0, 0.0)), z_star=1.0)
        assert dec.selected == (1,)

    def test_requires_two_subpopulations(self):
        d3 = TrialDesign(k=3, p=(0.4, 0.3, 0.3), n1=30, n2=30, sigma=1.0)
        with pytest.raises(ConfigurationError):
            apply_d1(d3, Stage1Summary((0.0, 0.0, 0.0)), z_star=1.0)


class TestMeanThresholdRule:
    def test_worked_example_continues_full(self):
        dec = apply_d2(EXAMPLE_DESIGN, Stage1Summary((0.113, 0.013)), 0.025)
        assert dec.selected == (1, 2)
        assert dec.label == "full"

    def test_enrichment_bounds(self):
        dec = apply_d2(EXAMPLE_DESIGN, Stage1Summary((0.06, -0.06)), 0.025)
        assert dec.selected == (1,)
        (t,) = dec.targets
        assert t.lower == pytest.approx(0.025, abs=1e-12)
        assert t.upper == pytest.approx(0.11, abs=1e-12)

    def test_futility_stop(self):
        dec = apply_d2(EXAMPLE_DESIGN, Stage1Summary((0.01, 0.02)), 0.025)
        assert dec.stopped
        assert dec.selected == ()
        assert dec.targets == ()

    def test_co_primary_targets_under_full_continuation(self):
        dec = apply_d2(
            EXAMPLE_DESIGN, Stage1Summary((0.113, 0.013)), 0.025, co_primary=True
        )
        names = [t.name for t in dec.targets]
        assert names == ["full", "delta1", "delta2"]
        t1 = dec.targets[1]
        assert t1.lower == pytest.approx((0.025 - 0.5 * 0.013) / 0.5, abs=1e-12)
        assert t1.upper == math.inf
        t2 = dec.targets[2]
        assert t2.lower == pytest.approx((0.025 - 0.5 * 0.113) / 0.5, abs=1e-12)
        assert t2.upper == math.inf


class TestAuxiliaryDifferenceRule:
    DESIGN = TrialDesign(k=2, p=(0.5, 0.5), n1=100, n2=100, sigma=1.0)

    def test_enrichment_bound(self):
        dec = apply_kimani2015(self.DESIGN, Stage1Summary((1.0, 0.5)), 0.1)
        assert dec.selected == (1,)
        (t,) = dec.targets
        assert t.lower == pytest.approx(0.5 + 0.1 / 0.5, abs=1e-12)
        assert t.upper == math.inf

    def test_zero_difference_continues_unaltered(self):
        dec = apply_kimani2015(self.DESIGN, Stage1Summary((0.5, 0.5)), 0.1)
        assert dec.selected == (1, 2)
        (t,) = dec.targets
        assert t.lower == -math.inf and t.upper == math.inf

    def test_negative_difference_never_enriches(self):
        dec = apply_kimani2015(self.DESIGN, Stage1Summary((0.5, 1.0)), 0.1)
        assert dec.selected == (1, 2)


class TestNestedBlockRule:
    DESIGN = TrialDesign(k=3, p=(1 / 3, 1 / 3, 1 / 3), n1=90, n2=90, sigma=1.0)

    def test_leading_block_bounds(self):
        dec = apply_kimani2018(self.DESIGN, Stage1Summary((1.0, -2.0, -0.5)), 0.0)
        assert dec.selected == (1,)
        (t,) = dec.targets
        assert t.lower == pytest.approx(0.0, abs=1e-12)
        assert t.upper == pytest.approx(2.0, abs=1e-12)

    def test_full_block_selected(self):
        dec = apply_kimani2018(self.DESIGN, Stage1Summary((1.0, 0.5, 0.4)), 0.0)
        assert dec.selected == (1, 2, 3)
        (t,) = dec.targets
        assert t.lower == pytest.approx(0.0, abs=1e-12)
        assert t.upper == math.inf

    def test_no_block_qualifies(self):
        dec = apply_kimani2018(self.DESIGN, Stage1Summary((-1.0, -1.0, -1.0)), 0.0)
        assert dec.stopped


class TestPooledEstimate:
    def test_worked_example_full_population(self):
        dec = apply_d2(EXAMPLE_DESIGN, Stage1Summary((0.113, 0.013)), 0.025)
        s1 = Stage1Summary((0.113, 0.013))
        s2 = Stage2Summary(0.045)
        est = pooled_estimate(EXAMPLE_DESIGN, dec, s1, s2, dec.targets[0])
        assert est == pytest.approx(0.057, abs=1e-3)

    def test_worked_example_first_subgroup(self):
        dec = apply_d2(
            EXAMPLE_DESIGN, Stage1Summary((0.113, 0.013)), 0.025, co_primary=True
        )
        s1 = Stage1Summary((0.113, 0.013))
        s2 = Stage2Summary(0.045, sub_means=(0.155, -0.064))
        est = pooled_estimate(EXAMPLE_DESIGN, dec, s1, s2, dec.targets[1])
        assert est == pytest.approx(0.127, abs=1e-3)

    def test_idempotence_on_equal_means(self):
        dec = apply_d2(SIM_DESIGN, Stage1Summary((1.7, 1.7)), 1.0)
        est = pooled_estimate(
            SIM_DESIGN, dec, Stage1Summary((1.7, 1.7)), Stage2Summary(1.7),
            dec.targets[0],
        )
        assert est == pytest.approx(1.7, abs=1e-12)

    def test_patient_count_weighting_identity(self):
        # Precision weights equal patient-count weights under proportional
        # stage 2 enrollment.
        rng = np.random.default_rng(8)
        for _ in range(20):
            means = tuple(rng.normal(1.0, 1.0, size=2))
            s1 = Stage1Summary(means)
            dec = apply_d2(SIM_DESIGN, s1, 0.2)
            if dec.stopped:
                continue
            s2_mean = float(rng.normal(1.0, 1.0))
            target = dec.targets[0]
            est = pooled_estimate(SIM_DESIGN, dec, s1, Stage2Summary(s2_mean), target)
            m1 = SIM_DESIGN.prevalence(dec.selected) * SIM_DESIGN.n1
            m2 = SIM_DESIGN.n2
            stage1_val = s1.pooled_mean(SIM_DESIGN, dec.selected)
            ref = (m1 * stage1_val + m2 * s2_mean) / (m1 + m2)
            assert est == pytest.approx(ref, abs=1e-12)

    def test_missing_target_rejected(self):
        dec = apply_d2(SIM_DESIGN, Stage1Summary((1.7, 1.7)), 1.0)
        other = apply_d2(SIM_DESIGN, Stage1Summary((-0.5, 1.8)), 1.0)
        with pytest.raises(ConfigurationError):
            pooled_estimate(
                SIM_DESIGN, dec, Stage1Summary((1.7, 1.7)), Stage2Summary(0.0),
                other.targets[0],
            )


class TestConfidenceIntervals:
    #: Published endpoints for the worked example, (target, method) keyed.
    EXPECTED = {
        ("full", "naive"): (-0.024, 0.138),
        ("full", "umau"): (-0.079, 0.131),
        ("full", "tost"): (-0.078, 0.132),
        ("delta1", "naive"): (0.012, 0.242),
        ("delta1", "umau"): (-0.028, 0.240),
        ("delta1", "tost"): (-0.025, 0.240),
        ("delta2", "naive"): (-0.128, 0.102),
        ("delta2", "umau"): (-0.200, 0.093),
        ("delta2", "tost"): (-0.198, 0.094),
    }

    def test_worked_example_reproduces_published_table(self):
        s1 = Stage1Summary((0.113, 0.013))
        dec = apply_d2(EXAMPLE_DESIGN, s1, 0.025, co_primary=True)
        s2 = Stage2Summary(0.045, sub_means=(0.155, -0.064))
        cis = confidence_intervals(
            EXAMPLE_DESIGN, dec, s1, s2, ("naive", "umau", "tost")
        )
        assert len(cis) == 9
        for ci in cis:
            lo, hi = self.EXPECTED[(ci.target, ci.method)]
            assert ci.lower == pytest.approx(lo, abs=1e-3), (ci.target, ci.method)
            assert ci.upper == pytest.approx(hi, abs=1e-3), (ci.target, ci.method)

    def test_one_tost_solve_per_truncated_target(self, monkeypatch):
        # tost is solved once, for all targets in one call, and seeds
        # umau; the intervals match the scalar constructions.
        solve = batch.batch_ctost_ci
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(batch, "batch_ctost_ci", counted)
        s1 = Stage1Summary((0.113, 0.013))
        dec = apply_d2(EXAMPLE_DESIGN, s1, 0.025, co_primary=True)
        s2 = Stage2Summary(0.045, sub_means=(0.155, -0.064))
        cis = confidence_intervals(
            EXAMPLE_DESIGN, dec, s1, s2, ("naive", "umau", "tost")
        )
        assert len(dec.targets) == 3
        assert len(calls) == 1
        scalar = {"umau": umau_ci, "tost": ctost_ci}
        for ci in cis:
            if ci.method == "naive":
                continue
            target = next(t for t in dec.targets if t.name == ci.target)
            model = ConditionalNormal(0.0, target.se1, target.se2,
                                      lower=target.lower, upper=target.upper)
            observed = pooled_estimate(EXAMPLE_DESIGN, dec, s1, s2, target)
            ref = scalar[ci.method](model, observed, EXAMPLE_DESIGN.alpha)
            assert abs(ci.lower - ref.lower) <= 1e-9 * model.sigma12
            assert abs(ci.upper - ref.upper) <= 1e-9 * model.sigma12

    def test_unaltered_targets_collapse_to_naive(self):
        design = TestAuxiliaryDifferenceRule.DESIGN
        s1 = Stage1Summary((0.5, 0.5))
        dec = apply_kimani2015(design, s1, 0.1)
        cis = confidence_intervals(
            design, dec, s1, Stage2Summary(0.6), ("naive", "umau", "tost")
        )
        naive, umau, tost = sorted(cis, key=lambda c: c.method)
        assert umau.lower == pytest.approx(naive.lower, abs=1e-6)
        assert umau.upper == pytest.approx(naive.upper, abs=1e-6)
        assert tost.lower == pytest.approx(naive.lower, abs=1e-6)

    def test_repeated_methods_rejected(self):
        s1 = Stage1Summary((0.113, 0.013))
        dec = apply_d2(EXAMPLE_DESIGN, s1, 0.025)
        with pytest.raises(ConfigurationError, match="naive"):
            confidence_intervals(
                EXAMPLE_DESIGN, dec, s1, Stage2Summary(0.045),
                ("naive", "tost", "naive"),
            )

    def test_futility_decision_rejected(self):
        dec = apply_d2(EXAMPLE_DESIGN, Stage1Summary((0.01, 0.02)), 0.025)
        with pytest.raises(ConfigurationError):
            confidence_intervals(
                EXAMPLE_DESIGN, dec, Stage1Summary((0.01, 0.02)),
                Stage2Summary(0.0), ("naive",),
            )


class TestPartitionProperties:
    N = 100_000

    def _draws(self, design, seed):
        rng = np.random.default_rng(seed)
        se = np.array([design.stage1_se((m,)) for m in (1, 2)])
        return rng.normal(0.3, se, size=(self.N, 2))

    def test_z_rule_partition_and_equivalence(self):
        design = SIM_DESIGN
        z_star = 1.0
        draws = self._draws(design, 1)
        se = np.array([design.stage1_se((m,)) for m in (1, 2)])
        se_pool = design.stage1_se((1, 2))
        for row in draws[:2000]:
            s1 = Stage1Summary(tuple(row))
            dec = apply_d1(design, s1, z_star)
            # Primary form, reimplemented from the Z-statistic definitions.
            z = row / se
            z_pool = (0.5 * row[0] + 0.5 * row[1]) / se_pool
            if z_pool > z_star:
                expected = (1, 2)
            elif z[0] >= z[1]:
                expected = (1,)
            else:
                expected = (2,)
            assert dec.selected == expected
            # Realized stage 1 statistic lies inside the realized bounds.
            t = dec.targets[0]
            v = t.stage1_value(design, s1)
            assert t.lower <= v <= t.upper

    def test_mean_rule_partition_and_equivalence(self):
        design = SIM_DESIGN
        delta_star = 1.0
        draws = self._draws(design, 2)
        counts = {"full": 0, "sub1": 0, "sub2": 0, "stop": 0}
        for row in draws[:2000]:
            s1 = Stage1Summary(tuple(row))
            dec = apply_d2(design, s1, delta_star)
            pooled = 0.5 * row[0] + 0.5 * row[1]
            if pooled > delta_star:
                expected = (1, 2)
            elif max(row) > delta_star:
                expected = (1,) if row[0] >= row[1] else (2,)
            else:
                expected = ()
            assert dec.selected == expected
            counts[dec.label if not dec.stopped else "stop"] += 1
            if not dec.stopped:
                t = dec.targets[0]
                v = t.stage1_value(design, s1)
                assert t.lower <= v <= t.upper
        assert sum(counts.values()) == 2000

    def test_mean_rule_partition_is_exhaustive_vectorized(self):
        # Every draw lands in exactly one of the four analytic regions.
        draws = self._draws(SIM_DESIGN, 3)
        pooled = draws.mean(axis=1)
        full = pooled > 1.0
        best = draws.max(axis=1)
        enrich = ~full & (best > 1.0)
        stop = ~full & ~enrich
        assert np.all(full.astype(int) + enrich.astype(int) + stop.astype(int) == 1)

    def test_nested_block_rule_equivalence(self):
        design = TestNestedBlockRule.DESIGN
        rng = np.random.default_rng(4)
        p = np.array(design.p)
        draws = rng.normal(0.1, 1.0, size=(2000, 3))
        for row in draws:
            s1 = Stage1Summary(tuple(row))
            dec = apply_kimani2018(design, s1, 0.0)
            expected = ()
            for m in range(3, 0, -1):
                block = (p[:m] * row[:m]).sum() / p[:m].sum()
                if block > 0.0:
                    expected = tuple(range(1, m + 1))
                    break
            assert dec.selected == expected
            if expected:
                t = dec.targets[0]
                v = t.stage1_value(design, s1)
                assert t.lower <= v <= t.upper


# Per-draw references: each rule evaluated in Python floats, one stage 1
# summary at a time, with the arithmetic the batch rules must reproduce bit
# for bit. They return the branch label and, per target, the (lower,
# upper) truncation bounds.


def _reference_d1_full(design, means, z_star, co_primary):
    p1, p2 = design.p
    m1, m2 = means
    threshold = design.stage1_se((1, 2)) * z_star
    bounds = {"full": (threshold, math.inf)}
    if co_primary:
        bounds["delta1"] = ((threshold - p2 * m2) / p1, math.inf)
        bounds["delta2"] = ((threshold - p1 * m1) / p2, math.inf)
    return "full", bounds


def _reference_d1(design, means, z_star, co_primary):
    """Full continuation where the higher-Z mean exceeds its enrichment
    upper bound, or where that constraint is empty."""
    p1, p2 = design.p
    m1, m2 = means
    z1, z2 = (means[m - 1] / design.stage1_se((m,)) for m in (1, 2))
    if z1 >= z2:
        label, best = "sub1", m1
        lower = math.sqrt(p2 / p1) * m2
        upper = design.stage1_se((1, 2)) * z_star / p1 - (p2 / p1) * m2
    else:
        label, best = "sub2", m2
        lower = math.sqrt(p1 / p2) * m1
        upper = design.stage1_se((1, 2)) * z_star / p2 - (p1 / p2) * m1
    if best > upper or lower >= upper:
        return _reference_d1_full(design, means, z_star, co_primary)
    return label, {label: (lower, upper)}


def _reference_d2(design, means, delta_star, co_primary):
    """Full continuation where the best mean exceeds its enrichment upper
    bound."""
    p1, p2 = design.p
    m1, m2 = means
    upper1 = (delta_star - p2 * m2) / p1
    upper2 = (delta_star - p1 * m1) / p2
    label, best, upper = (
        ("sub1", m1, upper1) if m1 >= m2 else ("sub2", m2, upper2)
    )
    if best > upper:
        bounds = {"full": (delta_star, math.inf)}
        if co_primary:
            bounds["delta1"] = (upper1, math.inf)
            bounds["delta2"] = (upper2, math.inf)
        return "full", bounds
    if best > delta_star:
        return label, {label: (delta_star, upper)}
    return "stop", {}


def _reference_kimani2015(design, means, delta_star):
    p2 = design.p[1]
    m1, m2 = means
    advantage = m1 - Stage1Summary(means).pooled_mean(design)
    if advantage > delta_star:
        return "sub1", {"sub1": (m2 + delta_star / p2, math.inf)}
    return "full", {"full": (-math.inf, math.inf)}


def _reference_kimani2018(design, means, delta_star):
    """A block also qualifies where a smaller qualifying block's
    rearranged bound for it is at most the threshold."""
    p = design.p
    k = design.k
    cum_p = [0.0]
    cum_pm = [0.0]
    for m in range(1, k + 1):
        cum_p.append(cum_p[-1] + p[m - 1])
        cum_pm.append(cum_pm[-1] + p[m - 1] * means[m - 1])

    def bound(m, j):
        return (cum_p[j] * delta_star - (cum_pm[j] - cum_pm[m])) / cum_p[m]

    qualifies = [None]
    for j in range(1, k + 1):
        qualifies.append(cum_pm[j] / cum_p[j] > delta_star or any(
            qualifies[m] and bound(m, j) <= delta_star for m in range(1, j)
        ))
    for m in range(k, 0, -1):
        if qualifies[m]:
            if m == k:
                return "full", {"full": (delta_star, math.inf)}
            upper = min(bound(m, j) for j in range(m + 1, k + 1))
            label = "sub1" if m == 1 else f"sub1-{m}"
            return label, {label: (delta_star, upper)}
    return "stop", {}


def _reference_groups(reference, design, means, *args):
    """Per-replicate grouping loop: label -> (replicate ids, target ->
    (lowers, uppers)), filled one draw at a time."""
    groups = {}
    for i, row in enumerate(means):
        label, bounds = reference(design, tuple(float(v) for v in row), *args)
        idx, targets = groups.setdefault(label, ([], {}))
        idx.append(i)
        for name, (lower, upper) in bounds.items():
            lowers, uppers = targets.setdefault(name, ([], []))
            lowers.append(lower)
            uppers.append(upper)
    return groups


def _batch_groups(decided):
    groups = {}
    for j, outcome in enumerate(decided.outcomes):
        idx = np.flatnonzero(decided.branch == j)
        if idx.size:
            groups[outcome.label] = (list(idx), {
                t.name: (list(t.lower[idx]), list(t.upper[idx]))
                for t in outcome.targets
            })
    return groups


def _tie_draws(design, unit, seed, n=2000):
    """Normal draws around ``unit`` (the rule's threshold on the stage 1
    mean scale), draws from a coarse grid of its multiples, and draws
    within a few ulps of it. These hit exact ties: equal means, equal Z,
    pooled and block means equal to the threshold, and means just above
    it whose pooled mean rounds onto it."""
    rng = np.random.default_rng(seed)
    k = design.k
    se = np.array([design.stage1_se((m,)) for m in range(1, k + 1)])
    normal = unit + rng.normal(0.0, 1.0, size=(n, k)) * se
    grid = rng.integers(-2, 5, size=(n, k)) * (0.5 * unit)
    near = unit + np.arange(-3, 4) * np.spacing(unit)
    return np.concatenate([
        normal, grid, rng.choice(near, size=(n, k)),
        np.repeat(near[:, None], k, axis=1),
    ])


EQUAL = TrialDesign(k=2, p=(0.5, 0.5), n1=244, n2=244, sigma=8.0)
UNEQUAL = TrialDesign(k=2, p=(0.3, 0.7), n1=244, n2=244, sigma=8.0)
NESTED = {
    3: TrialDesign(k=3, p=(0.4, 0.35, 0.25), n1=90, n2=90, sigma=1.0),
    4: TrialDesign(k=4, p=(0.1, 0.2, 0.3, 0.4), n1=90, n2=90, sigma=1.0),
}
# name -> (batch rule, per-draw reference, design, rule arguments, the
# threshold on the stage 1 mean scale)
BATCH_CASES = {}
for d_name, design in [("equal", EQUAL), ("unequal", UNEQUAL)]:
    z_unit = design.stage1_se((1, 2))
    for cp in (False, True):
        suffix = f"{d_name}{'-coprimary' if cp else ''}"
        BATCH_CASES[f"d1-{suffix}"] = (
            batch_d1, _reference_d1, design, (1.0, cp), z_unit
        )
        BATCH_CASES[f"d2-{suffix}"] = (
            batch_d2, _reference_d2, design, (1.0, cp), 1.0
        )
    BATCH_CASES[f"kimani2015-{d_name}"] = (
        batch_kimani2015, _reference_kimani2015, design, (0.5,), 0.5
    )
for k, design in [(2, UNEQUAL), *NESTED.items()]:
    BATCH_CASES[f"kimani2018-k{k}"] = (
        batch_kimani2018, _reference_kimani2018, design, (0.3,), 0.3
    )


class TestBatchRules:
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_matches_per_draw_reference(self, case):
        batch, reference, design, args, unit = BATCH_CASES[case]
        means = _tie_draws(design, unit, seed=len(case))
        decided = batch(design, means, *args)
        expected = _reference_groups(reference, design, means, *args)
        assert _batch_groups(decided) == expected
        assert len(expected) >= 2

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_every_constraint_is_non_empty(self, case):
        # The ulp draws put pooled and block means onto the threshold; a
        # draw must still land inside a non-empty constraint.
        batch, _, design, args, unit = BATCH_CASES[case]
        decided = batch(design, _tie_draws(design, unit, seed=len(case)),
                        *args)
        for j, outcome in enumerate(decided.outcomes):
            rows = decided.branch == j
            for t in outcome.targets:
                lower = np.broadcast_to(t.lower, rows.shape)[rows]
                upper = np.broadcast_to(t.upper, rows.shape)[rows]
                assert bool(np.all(lower < upper)), (case, t.name)

    @pytest.mark.parametrize("rule,args", [
        (apply_d1, (1.0,)), (apply_d2, (0.1,)), (apply_kimani2015, (0.1,)),
        (apply_kimani2018, (0.1,)), (DecisionRule("d1", 1.0).decide, ()),
    ])
    def test_stage1_length_must_match_k(self, rule, args):
        # Three means on a k=2 design used to decide from the first two,
        # or to fail in a numpy broadcast.
        with pytest.raises(ConfigurationError, match="expected k=2"):
            rule(SIM_DESIGN, Stage1Summary((0.1, 0.2, 0.3)), *args)

    def test_one_ulp_means_decide(self):
        means = Stage1Summary((1.0000000000000002,) * 2)
        dec = apply_d2(UNEQUAL, means, 1.0)
        assert dec.selected == (1, 2)

    def test_scalar_rules_are_size_one_batches(self):
        means = np.random.default_rng(5).normal(1.0, 1.5, size=(20, 2))
        decided = batch_d2(UNEQUAL, means, 1.0, co_primary=True)
        for i, row in enumerate(means):
            dec = apply_d2(UNEQUAL, Stage1Summary(tuple(row)), 1.0, True)
            assert dec == decided.decision(i)
