"""Tests for the seeded Monte Carlo engine.

Determinism is checked against thread-count changes, and the
sufficient-statistic sampler is checked against a brute-force
patient-level oracle on a tiny design.
"""

import math
import os
import threading
from unittest import mock

import numpy as np
import pytest

from enrichci import (
    ConfigurationError,
    DecisionRule,
    NumericalError,
    Scenario,
    Stage1Summary,
    TrialDesign,
    batch,
    draw_stage1,
    draw_stage2,
    mc_error_band,
    run_scenario,
    sim,
)

DESIGN = TrialDesign(k=2, p=(0.5, 0.5), n1=244, n2=244, sigma=8.0)
D2 = DecisionRule("d2", 1.0)


def scenario(replicates=2000, seed=42, rule=D2, deltas=(0.0, 0.0), **kw):
    return Scenario(DESIGN, rule, deltas, replicates, seed, **kw)


class TestScenarioValidation:
    def test_wrong_delta_count(self):
        with pytest.raises(ConfigurationError):
            Scenario(DESIGN, D2, (0.0,), 10, 1)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            Scenario(DESIGN, D2, (0.0, 0.0), 10, 1, methods=("bayes",))

    def test_repeated_method(self):
        # A repeated method used to add its sums to the overall row twice.
        with pytest.raises(ConfigurationError, match="naive"):
            Scenario(DESIGN, D2, (0.0, 0.0), 10, 1, methods=("naive", "naive"))


class TestDrawStage1:
    def test_unbiased_and_correct_spread(self):
        sc = scenario(replicates=100_000)
        means = np.array(
            [draw_stage1(sc, i).means for i in range(0, 100_000, 37)]
        )
        n = means.shape[0]
        se = 2 * 8 / math.sqrt(0.5 * 244)
        assert abs(means[:, 0].mean()) < 3 * se / math.sqrt(n)
        assert means[:, 0].var() == pytest.approx(se**2, rel=0.1)

    def test_deterministic_per_seed(self):
        sc = scenario(seed=42)
        assert draw_stage1(sc, 5) == draw_stage1(sc, 5)

    def test_replicates_reproducible_in_isolation(self):
        # Drawing replicate i alone matches drawing 0..n in order.
        from enrichci.sim import _stage1_matrix

        sc = scenario(seed=9)
        block, _ = _stage1_matrix(sc, 0, 200)
        for i in (0, 1, 137, 199):
            np.testing.assert_array_equal(draw_stage1(sc, i).means, block[i])


class TestDrawStage2:
    def test_selected_population_mean(self):
        sc = scenario(deltas=(1.8, 0.0), replicates=1)
        dec = sc.rule.decide(DESIGN, Stage1Summary((2.5, 2.5)))
        assert dec.selected == (1, 2)
        draws = np.array(
            [draw_stage2(sc, dec, i).selected_mean for i in range(4000)]
        )
        se = 16 / math.sqrt(244)
        assert draws.mean() == pytest.approx(0.9, abs=3 * se / math.sqrt(4000))

    def test_enriched_mean(self):
        sc = scenario(deltas=(1.8, 0.0), replicates=1)
        dec = sc.rule.decide(DESIGN, Stage1Summary((1.8, 0.0)))
        assert dec.selected == (1,)
        draws = np.array(
            [draw_stage2(sc, dec, i).selected_mean for i in range(4000)]
        )
        se = 16 / math.sqrt(244)
        assert draws.mean() == pytest.approx(1.8, abs=3 * se / math.sqrt(4000))

    def test_co_primary_aggregation_identity(self):
        rule = DecisionRule("d2", 1.0, co_primary=True)
        sc = scenario(rule=rule, deltas=(0.5, 0.0), replicates=1)
        dec = rule.decide(DESIGN, Stage1Summary((2.5, 2.5)))
        for i in range(50):
            s2 = draw_stage2(sc, dec, i)
            agg = 0.5 * s2.sub_means[0] + 0.5 * s2.sub_means[1]
            assert s2.selected_mean == pytest.approx(agg, abs=1e-12)

    @pytest.mark.parametrize("co_primary", [False, True])
    def test_is_the_engine_draw_of_that_replicate(self, co_primary):
        rule = DecisionRule("d2", 1.0, co_primary=co_primary)
        sc = scenario(replicates=300, rule=rule, deltas=(0.5, 0.0))
        stage1, u = sim._stage1_matrix(sc, 0, 300)
        decided = rule.decide_batch(DESIGN, stage1)
        checked = 0
        for j, outcome in enumerate(decided.outcomes):
            idx = np.flatnonzero(decided.branch == j)
            if outcome.stopped or not idx.size:
                continue
            selected, subs = sim._stage2_means(sc, outcome, u, idx)
            for row, i in enumerate(idx):
                s2 = draw_stage2(sc, decided.decision(i), i)
                assert s2.selected_mean == selected[row]
                assert s2.sub_means == (
                    None if subs is None else tuple(subs[row]))
                checked += 1
        assert checked > 100

    def test_futility_rejected(self):
        sc = scenario(replicates=1)
        dec = sc.rule.decide(DESIGN, Stage1Summary((0.0, 0.0)))
        assert dec.stopped
        with pytest.raises(ConfigurationError):
            draw_stage2(sc, dec, 0)


class TestMcErrorBand:
    def test_published_halfwidths(self):
        lo, hi = mc_error_band(0.95, 100_000)
        assert (hi - lo) / 2 == pytest.approx(0.00135, abs=1e-5)
        lo, hi = mc_error_band(0.95, 20_000)
        assert (hi - lo) / 2 == pytest.approx(0.00302, abs=1e-5)

    def test_degenerate_proportions(self):
        assert mc_error_band(0.0, 100) == (0.0, 0.0)
        assert mc_error_band(1.0, 100) == (1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            mc_error_band(0.5, 0)
        with pytest.raises(ValueError):
            mc_error_band(1.5, 10)


class TestRunScenario:
    def test_single_replicate(self):
        res = run_scenario(scenario(replicates=1, deltas=(5.0, 5.0)))
        assert res.replicates == 1
        assert len(res.branches) == 1
        assert res.branches[0].proportion == 1.0

    def test_proportions_sum_to_one(self):
        res = run_scenario(scenario(replicates=3000))
        total = sum(
            b.proportion for b in res.branches if b.target == b.branch
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_across_thread_counts(self):
        # 100-row chunks split every solved branch of 3000 replicates
        # (390 to 498 rows each) into several pool tasks.
        sc = scenario(replicates=3000)
        with mock.patch.object(sim, "_CHUNK", 100):
            with mock.patch.dict(os.environ, {"ENRICH_CI_THREADS": "1"}):
                res1 = run_scenario(sc)
            with mock.patch.dict(os.environ, {"ENRICH_CI_THREADS": "7"}):
                res7 = run_scenario(sc)
        assert min(b.count for b in res1.branches if b.stats) > 300
        assert res1 == res7

    @pytest.mark.parametrize("chunk,in_pool", [(100, True), (4000, False)])
    def test_single_chunk_solves_in_calling_thread(
        self, monkeypatch, chunk, in_pool
    ):
        # Only targets split into several chunks go to the pool; a target
        # that is one chunk is solved in the thread that runs the scenario.
        solver = batch.batch_ctost_ci
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return solver(*args, **kwargs)

        monkeypatch.setattr(batch, "batch_ctost_ci", recording)
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        monkeypatch.setenv("ENRICH_CI_THREADS", "2")
        run_scenario(scenario(replicates=3000))
        assert threads
        main = threading.current_thread()
        assert all((t is not main) == in_pool for t in threads)

    def test_one_tost_solve_per_scenario(self, monkeypatch):
        # Every branch x target of a single-chunk scenario is one stacked
        # solve; three d1 branches used to make three.
        solver = batch.batch_ctost_ci
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(batch, "batch_ctost_ci", counted)
        res = run_scenario(scenario(replicates=500, rule=DecisionRule("d1", 1.0)))
        assert {b.branch for b in res.branches} == {"full", "sub1", "sub2"}
        assert len(calls) == 1
        assert calls[0][0].size == 500

    @pytest.mark.parametrize(
        "method,name", [("umau", "batch_umau_ci"), ("tost", "batch_ctost_ci")]
    )
    def test_non_convergence_names_replicate_and_seed(
        self, monkeypatch, method, name
    ):
        # The batch solver reports its third row as failed. Branches are
        # solved full-population first, so the error names the third
        # replicate that continued with everyone.
        solver = getattr(batch, name)

        def failing(*args, **kwargs):
            lo, hi, ok = solver(*args, **kwargs)
            ok = ok.copy()
            ok[2] = False
            return lo, hi, ok

        monkeypatch.setattr(batch, name, failing)
        sc = scenario(replicates=300, seed=31, methods=(method,))
        full = [
            i for i in range(300)
            if D2.decide(DESIGN, draw_stage1(sc, i)).label == "full"
        ]
        with pytest.raises(NumericalError) as info:
            run_scenario(sc)
        assert f"replicate {full[2]} (seed 31)" in str(info.value)

    def test_empty_constraint_names_replicate_and_seed(self, monkeypatch):
        # An interim rule that yields lower == upper for one replicate of a
        # branch is rejected before any interval is built.
        decide_batch = DecisionRule.decide_batch

        def collapsing(rule, design, means):
            decided = decide_batch(rule, design, means)
            target = decided.outcomes[decided.branch[7]].targets[0]
            target.upper[7] = target.lower[7]
            return decided

        monkeypatch.setattr(DecisionRule, "decide_batch", collapsing)
        with pytest.raises(ConfigurationError) as info:
            run_scenario(scenario(
                replicates=50, seed=5, deltas=(5.0, 5.0), methods=("naive",)
            ))
        assert "empty constraint" in str(info.value)
        assert "replicate 7 (seed 5)" in str(info.value)

    def test_coverage_decomposition_identity(self):
        # The overall row is the proportion-weighted average of the
        # selected-population branch rows.
        res = run_scenario(scenario(replicates=4000, seed=3))
        rows = [
            b for b in res.branches
            if b.branch == b.target and b.branch != "stop"
        ]
        for j, _ in enumerate(rows[0].stats):
            num = sum(b.count * b.stats[j].coverage for b in rows)
            den = sum(b.count for b in rows)
            assert res.overall[j].coverage == pytest.approx(
                num / den, abs=1e-12
            )

    def test_never_adapting_rule_naive_coverage_nominal(self):
        # A threshold far below any draw keeps the full population in
        # every replicate with a vacuous truncation bound, so the naive
        # interval must cover at its nominal level.
        rule = DecisionRule("d2", -1e9)
        res = run_scenario(
            scenario(replicates=20_000, rule=rule, methods=("naive",))
        )
        (branch,) = [b for b in res.branches if b.branch == "full"]
        assert branch.proportion == 1.0
        cov = branch.stats[0].coverage
        lo, hi = mc_error_band(0.95, 20_000)
        assert lo <= cov <= hi

    def test_sufficient_statistics_match_patient_level(self):
        # Patient-level oracle on a tiny design: stage 1 enrolls 8
        # patients (4 per subpopulation, half treated), decisions from
        # subpopulation mean differences.
        design = TrialDesign(k=2, p=(0.5, 0.5), n1=8, n2=8, sigma=1.0)
        rule = DecisionRule("d2", 0.5)
        deltas = (0.8, 0.2)
        n = 50_000
        sc = Scenario(design, rule, deltas, n, 77, methods=("naive",))

        rng = np.random.default_rng(123)
        labels = {"full": 0, "sub1": 0, "sub2": 0, "stop": 0}
        # Per subpopulation: 2 treated, 2 control outcomes.
        treat = rng.normal(
            np.array(deltas)[:, None, None], 1.0, size=(2, n, 2)
        )
        control = rng.normal(0.0, 1.0, size=(2, n, 2))
        diff = treat.mean(axis=2) - control.mean(axis=2)  # (2, n)
        pooled = 0.5 * (diff[0] + diff[1])
        full = pooled > 0.5
        best = np.maximum(diff[0], diff[1])
        enrich1 = ~full & (best > 0.5) & (diff[0] >= diff[1])
        enrich2 = ~full & (best > 0.5) & ~enrich1
        stop = ~full & ~(best > 0.5)
        oracle = {
            "full": full.mean(), "sub1": enrich1.mean(),
            "sub2": enrich2.mean(), "stop": stop.mean(),
        }

        res = run_scenario(sc)
        for b in res.branches:
            if b.target != b.branch:
                continue
            se = math.sqrt(oracle[b.branch] * (1 - oracle[b.branch]) / n)
            # Both estimates carry MC error; allow 3 combined SEs.
            assert abs(b.proportion - oracle[b.branch]) < 3 * se * math.sqrt(2)

    def test_result_lookup(self):
        res = run_scenario(scenario(replicates=2000))
        assert res.branch("stop").stats == ()
        with pytest.raises(KeyError):
            res.branch("nonexistent")
