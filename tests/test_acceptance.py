"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
primary deliverable criterion.

Simulation criteria run a fast tier of 20,000 replicates with tolerance
bands widened to +/-1.0 percentage points. Set
``ENRICH_CI_ACCEPTANCE_REPLICATES=100000`` to run the full tier with the
published +/-0.5 pp bands.

Known deviation: the published naive-interval coverage for the
co-primary (0.5, 0) scenario (90.59/90.92%, "below 92%") is not
attainable under the stated data-generating model; the model-exact value
is 92.41% (closed-form bivariate-normal computation, reproduced by
simulation; see test_naive_coverage_matches_model_exact_value). That
single check is marked xfail; every other criterion is enforced.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from enrichci import (
    ConditionalNormal,
    DecisionRule,
    Scenario,
    Stage1Summary,
    Stage2Summary,
    TrialDesign,
    apply_d2,
    confidence_intervals,
    ctost_ci,
    naive_ci,
    run_scenario,
    solve_umpu,
    umau_ci,
)

from oracle import brentq_quantile, quad_cdf, quad_partial_moment

REPLICATES = int(os.environ.get("ENRICH_CI_ACCEPTANCE_REPLICATES", "20000"))
FULL_TIER = REPLICATES >= 100_000
PP = 0.005 if FULL_TIER else 0.010  # coverage/proportion band
RATIO_TOL = 0.02 if FULL_TIER else 0.03
SEED = 7

SIM_DESIGN = TrialDesign(k=2, p=(0.5, 0.5), n1=244, n2=244, sigma=8.0)


def run(rule, deltas, methods=("naive", "umau", "tost")):
    return run_scenario(
        Scenario(SIM_DESIGN, rule, deltas, REPLICATES, SEED, methods=methods)
    )


@pytest.fixture(scope="module")
def table2_result():
    return run(DecisionRule("d1", 1.0), (0.0, 0.0))


@pytest.fixture(scope="module")
def table3_result():
    return run(DecisionRule("d2", 1.0), (0.0, 0.0))


@pytest.fixture(scope="module")
def table4_results():
    rule = DecisionRule("d2", 1.0, co_primary=True)
    return {
        deltas: run(rule, deltas)
        for deltas in [(0.5, 0.5), (0.5, 0.2), (0.5, 0.0)]
    }


def stat(branch_result, method):
    (s,) = [s for s in branch_result.stats if s.method == method]
    return s


class TestWorkedExample:
    """Criterion: the nine published intervals within +/-0.001, under 1 s."""

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

    def test_table1_nine_intervals_within_tolerance_under_one_second(self):
        design = TrialDesign(k=2, p=(0.5, 0.5), n1=200, n2=100, sigma=0.36)
        s1 = Stage1Summary((0.113, 0.013))
        s2 = Stage2Summary(0.045, sub_means=(0.155, -0.064))
        start = time.perf_counter()
        decision = apply_d2(design, s1, 0.025, co_primary=True)
        cis = confidence_intervals(
            design, decision, s1, s2, ("naive", "umau", "tost")
        )
        elapsed = time.perf_counter() - start
        assert len(cis) == 9
        for ci in cis:
            lo, hi = self.EXPECTED[(ci.target, ci.method)]
            assert abs(ci.lower - lo) <= 1e-3, (ci.target, ci.method, ci.lower)
            assert abs(ci.upper - hi) <= 1e-3, (ci.target, ci.method, ci.upper)
        assert elapsed < 1.0, f"nine intervals took {elapsed:.2f}s"


class TestTable2Scenario3:
    """Criterion: D1 rule, no effect; proportions, exact-interval coverage,
    width ratios, and naive under-coverage on the full branch."""

    TARGET_PROPS = {"full": 0.1590, "sub1": 0.4200, "sub2": 0.4210}
    TARGET_RATIOS = {"full": 1.27, "sub1": 1.12, "sub2": 1.12}

    def test_decision_proportions(self, table2_result):
        for branch, target in self.TARGET_PROPS.items():
            got = table2_result.branch(branch).proportion
            assert abs(got - target) <= PP, (branch, got)

    @pytest.mark.parametrize("method", ["umau", "tost"])
    def test_conditional_coverage(self, table2_result, method):
        for branch in self.TARGET_PROPS:
            cov = stat(table2_result.branch(branch), method).coverage
            assert abs(cov - 0.95) <= PP, (branch, method, cov)

    def test_width_ratios(self, table2_result):
        for branch, target in self.TARGET_RATIOS.items():
            ratio = stat(table2_result.branch(branch), "umau").width_ratio
            assert abs(ratio - target) <= RATIO_TOL, (branch, ratio)

    def test_naive_full_branch_undercovers(self, table2_result):
        cov = stat(table2_result.branch("full"), "naive").coverage
        assert cov < 0.90, cov


class TestTable3Scenario3:
    """Criterion: D2 rule with futility, no effect; stop proportion and
    continuation-overall exact coverage and width ratio."""

    def test_stop_proportion(self, table3_result):
        got = table3_result.branch("stop").proportion
        assert abs(got - 0.5726) <= PP, got

    def test_continuation_overall_umau_coverage(self, table3_result):
        (s,) = [s for s in table3_result.overall if s.method == "umau"]
        assert abs(s.coverage - 0.9492) <= PP, s.coverage

    def test_continuation_overall_width_ratio(self, table3_result):
        (s,) = [s for s in table3_result.overall if s.method == "umau"]
        assert abs(s.width_ratio - 1.22) <= RATIO_TOL, s.width_ratio


class TestTable4CoPrimary:
    """Criterion: exact-interval coverage for both subpopulation effects
    under full continuation, across the three listed effect scenarios;
    plus the published naive under-coverage claim (xfail, see module
    docstring)."""

    @pytest.mark.parametrize("method", ["umau", "tost"])
    @pytest.mark.parametrize(
        "deltas", [(0.5, 0.5), (0.5, 0.2), (0.5, 0.0)], ids=str
    )
    def test_coprimary_exact_coverage(self, table4_results, deltas, method):
        result = table4_results[deltas]
        for target in ("delta1", "delta2"):
            cov = stat(result.branch("full", target), method).coverage
            assert abs(cov - 0.95) <= PP, (deltas, target, method, cov)

    @pytest.mark.xfail(
        reason=(
            "published value (90.59/90.92%) is inconsistent with the stated "
            "model: conditioning on the one-sided full-continuation event "
            "gives an exact naive coverage of 92.41% for both subpopulation "
            "effects (bivariate-normal closed form; see "
            "test_naive_coverage_matches_model_exact_value)"
        ),
        strict=False,
    )
    def test_naive_coverage_below_92_in_null_second_subpopulation(
        self, table4_results
    ):
        result = table4_results[(0.5, 0.0)]
        for target in ("delta1", "delta2"):
            cov = stat(result.branch("full", target), "naive").coverage
            assert cov < 0.92, (target, cov)

    def test_naive_coverage_matches_model_exact_value(self, table4_results):
        # Reproducible counterpart of the xfail above: the simulated naive
        # coverage agrees with the closed-form value 92.41% and clearly
        # under-covers the nominal 95%.
        result = table4_results[(0.5, 0.0)]
        n_branch = result.branch("full").count
        band = 2.576 * math.sqrt(0.9241 * 0.0759 / n_branch)
        for target in ("delta1", "delta2"):
            cov = stat(result.branch("full", target), "naive").coverage
            assert abs(cov - 0.9241) <= band, (target, cov)


def random_truncated_model(rng):
    delta = rng.uniform(-1.5, 1.5)
    s1 = rng.uniform(0.4, 1.6)
    s2 = rng.uniform(0.4, 1.6)
    kind = rng.integers(3)
    lo = delta + rng.uniform(-1.5, 1.0) * s1
    width = rng.uniform(0.8, 3.0) * s1
    if kind == 0:
        return ConditionalNormal(delta, s1, s2, lower=lo)
    if kind == 1:
        return ConditionalNormal(delta, s1, s2, upper=lo + width)
    return ConditionalNormal(delta, s1, s2, lower=lo, upper=lo + width)


class TestPropertySuite:
    """Criterion: the standalone property battery (no published numbers)."""

    def test_interior_moment_and_critical_function_monotonicity(self):
        rng = np.random.default_rng(100)
        alpha = 0.05
        for _ in range(50):
            m = random_truncated_model(rng)
            # Truncated first moment of the acceptance interval rises in c1.
            c1_grid = np.linspace(
                brentq_quantile(m, 1e-6),
                brentq_quantile(m, alpha * (1 - 1e-6)), 6
            )
            vals = [
                m.partial_moment(
                    c1, brentq_quantile(m, m.cdf(c1) + 1 - alpha)
                )
                for c1 in c1_grid
            ]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            # Both acceptance-region edges rise in the hypothesized effect.
            deltas = m.delta + m.sigma12 * np.linspace(-2, 2, 6)
            pairs = [solve_umpu(m.at(d), alpha) for d in deltas]
            assert all(q.c1 > p.c1 for p, q in zip(pairs, pairs[1:]))
            assert all(q.c2 > p.c2 for p, q in zip(pairs, pairs[1:]))

    def test_umpu_defining_equation_residuals(self):
        rng = np.random.default_rng(101)
        alpha = 0.05
        for _ in range(20):
            m = random_truncated_model(rng)
            pair = solve_umpu(m, alpha)
            size = (
                quad_cdf(m, pair.c2) - quad_cdf(m, pair.c1) - (1 - alpha)
            )
            moment = quad_partial_moment(
                m, pair.c1, pair.c2
            ) - (1 - alpha) * m.mean()
            assert abs(size) <= 1e-7 and abs(moment) <= 1e-7

    def test_interval_duality(self):
        rng = np.random.default_rng(102)
        for _ in range(10):
            m = random_truncated_model(rng)
            observed = m.delta + rng.uniform(-1.0, 1.0) * m.sigma12
            est = umau_ci(m, observed, 0.05)
            for d in np.linspace(
                est.lower - 2 * m.sigma12, est.upper + 2 * m.sigma12, 15
            ):
                if min(abs(d - est.lower), abs(d - est.upper)) < 1e-6:
                    continue
                pair = solve_umpu(m.at(d), 0.05)
                assert (est.lower <= d <= est.upper) == (
                    pair.c1 <= observed <= pair.c2
                )

    def test_untruncated_reduction(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            m = ConditionalNormal(
                rng.uniform(-2, 2), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
            )
            observed = m.delta + rng.normal() * m.sigma12
            ref = naive_ci(observed, m.sigma12, 0.05)
            for est in (umau_ci(m, observed, 0.05), ctost_ci(m, observed, 0.05)):
                assert abs(est.lower - ref.lower) <= 1e-6
                assert abs(est.upper - ref.upper) <= 1e-6

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_conditional_coverage_accept_reject(self, idx):
        from enrichci.batch import batch_ctost_ci, batch_umau_ci

        models = [
            ConditionalNormal(0.0, 1.0, 1.0, lower=0.0),
            ConditionalNormal(0.5, 0.8, 1.2, lower=0.2, upper=1.6),
            ConditionalNormal(-0.3, 1.2, 0.7, upper=0.4),
        ]
        m = models[idx]
        n = 20_000
        rng = np.random.default_rng(500 + idx)
        draws = np.empty(0)
        while draws.size < n:
            d1 = rng.normal(m.delta, m.sigma1, size=4 * n)
            d1 = d1[(d1 > m.lower) & (d1 < m.upper)]
            d2 = rng.normal(m.delta, m.sigma2, size=d1.size)
            pool = (m.tau1 * d1 + m.tau2 * d2) / (m.tau1 + m.tau2)
            draws = np.concatenate([draws, pool])
        draws = draws[:n]
        seeds = batch_ctost_ci(draws, 0.05, m.sigma1, m.sigma2, m.lower, m.upper)
        u_lo, u_hi, ok = batch_umau_ci(
            draws, 0.05, m.sigma1, m.sigma2, m.lower, m.upper,
            seeds=seeds,
        )
        assert bool(np.all(ok)) and bool(np.all(seeds[2]))
        band = 2.576 * math.sqrt(0.95 * 0.05 / n)
        for lo, hi in ((seeds[0], seeds[1]), (u_lo, u_hi)):
            cov = np.mean((lo <= m.delta) & (m.delta <= hi))
            assert abs(cov - 0.95) <= band, cov

    def test_decision_partition_and_form_equivalence(self):
        from enrichci import apply_d1

        rng = np.random.default_rng(104)
        n = 100_000
        se = np.array([SIM_DESIGN.stage1_se((m,)) for m in (1, 2)])
        draws = rng.normal(0.3, se, size=(n, 2))
        pooled = draws.mean(axis=1)
        # D2 analytic partition: regions are disjoint and exhaustive.
        full = pooled > 1.0
        best = draws.max(axis=1)
        enrich = ~full & (best > 1.0)
        stop = ~full & ~enrich
        assert np.all(full.astype(int) + enrich.astype(int) + stop.astype(int) == 1)
        # D1 analytic partition via Z-statistics likewise covers all draws.
        z_pool = pooled / SIM_DESIGN.stage1_se((1, 2))
        d1_full = z_pool > 1.0
        assert np.all(d1_full | ~d1_full)
        # Form equivalence on a subsample: rule output matches the primary
        # threshold forms, and the realized statistic obeys its bounds.
        for row in draws[:2000]:
            s1 = Stage1Summary(tuple(row))
            d2 = apply_d2(SIM_DESIGN, s1, 1.0)
            pooled_v = 0.5 * (row[0] + row[1])
            if pooled_v > 1.0:
                expect = (1, 2)
            elif max(row) > 1.0:
                expect = (1,) if row[0] >= row[1] else (2,)
            else:
                expect = ()
            assert d2.selected == expect
            if d2.selected:
                t = d2.targets[0]
                assert t.lower <= t.stage1_value(SIM_DESIGN, s1) <= t.upper
            d1 = apply_d1(SIM_DESIGN, s1, 1.0)
            z = row / se
            if pooled_v / SIM_DESIGN.stage1_se((1, 2)) > 1.0:
                expect = (1, 2)
            else:
                expect = (1,) if z[0] >= z[1] else (2,)
            assert d1.selected == expect

    def test_sufficient_statistics_match_patient_level(self):
        design = TrialDesign(k=2, p=(0.5, 0.5), n1=8, n2=8, sigma=1.0)
        rule = DecisionRule("d2", 0.5)
        deltas = (0.8, 0.2)
        n = 50_000
        res = run_scenario(
            Scenario(design, rule, deltas, n, 77, methods=("naive",))
        )
        rng = np.random.default_rng(123)
        treat = rng.normal(np.array(deltas)[:, None, None], 1.0, size=(2, n, 2))
        control = rng.normal(0.0, 1.0, size=(2, n, 2))
        diff = treat.mean(axis=2) - control.mean(axis=2)
        pooled = 0.5 * (diff[0] + diff[1])
        full = pooled > 0.5
        best = np.maximum(diff[0], diff[1])
        enrich1 = ~full & (best > 0.5) & (diff[0] >= diff[1])
        enrich2 = ~full & (best > 0.5) & ~enrich1
        oracle = {
            "full": full.mean(),
            "sub1": enrich1.mean(),
            "sub2": enrich2.mean(),
            "stop": 1.0 - full.mean() - enrich1.mean() - enrich2.mean(),
        }
        for b in res.branches:
            if b.target != b.branch:
                continue
            p = oracle[b.branch]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(b.proportion - p) < 3 * se * math.sqrt(2), b.branch
