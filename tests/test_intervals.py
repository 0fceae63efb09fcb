"""Tests for the exact conditional intervals and the naive z-interval.

The UMPU critical pair is validated against its two defining moment
constraints via the quadrature oracle, and interval coverage is
validated with an accept-reject oracle that never touches the solvers.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from enrichci import (
    ConditionalNormal,
    CriticalPair,
    IntervalEstimate,
    NumericalError,
    batch,
    ctost_ci,
    naive_ci,
    solve_umpu,
    umau_ci,
)

from oracle import quad_cdf, quad_partial_moment


Z975 = norm.ppf(0.975)


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


def residuals(model, pair, alpha):
    """Residuals of the two defining equations of the critical pair."""
    size = quad_cdf(model, pair.c2) - quad_cdf(model, pair.c1) - (1 - alpha)
    moment = quad_partial_moment(
        model, pair.c1, pair.c2
    ) - (1 - alpha) * model.mean()
    return size, moment


class TestTypes:
    def test_critical_pair_ordering(self):
        with pytest.raises(ValueError):
            CriticalPair(1.0, 1.0)

    def test_interval_estimate_validation(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.0, math.inf, "umau", 0.05)
        with pytest.raises(ValueError):
            IntervalEstimate(1.0, 0.0, "umau", 0.05)

    def test_width(self):
        est = IntervalEstimate(-1.0, 3.0, "naive", 0.05)
        assert est.width == pytest.approx(4.0)


class TestSolveUmpu:
    def test_untruncated_equal_tails(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        pair = solve_umpu(m, 0.05)
        assert pair.c1 == pytest.approx(-1.38590, abs=1e-4)
        assert pair.c2 == pytest.approx(1.38590, abs=1e-4)

    def test_location_equivariance_untruncated(self):
        m = ConditionalNormal(3.0, 1.0, 1.0)
        pair = solve_umpu(m, 0.05)
        assert pair.c1 == pytest.approx(3.0 - 1.38590, abs=1e-4)
        assert pair.c2 == pytest.approx(3.0 + 1.38590, abs=1e-4)

    def test_half_line_truncation_satisfies_defining_equations(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        pair = solve_umpu(m, 0.05)
        size, moment = residuals(m, pair, 0.05)
        assert abs(size) < 1e-7
        assert abs(moment) < 1e-7

    def test_residuals_on_random_models(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m = random_truncated_model(rng)
            pair = solve_umpu(m, 0.05)
            size, moment = residuals(m, pair, 0.05)
            assert abs(size) < 1e-7
            assert abs(moment) < 1e-7

    def test_alpha_domain(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        for alpha in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                solve_umpu(m, alpha)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_critical_functions_increase_in_delta(self, alpha):
        # Both acceptance-region edges rise strictly with the hypothesized
        # effect; this is what makes the interval inversion well posed.
        geom = ConditionalNormal(0.0, 1.0, 0.8, lower=-0.3, upper=1.2)
        deltas = np.linspace(-2.0, 2.0, 17)
        pairs = [solve_umpu(geom.at(d), alpha) for d in deltas]
        c1s = [p.c1 for p in pairs]
        c2s = [p.c2 for p in pairs]
        assert all(b > a for a, b in zip(c1s, c1s[1:]))
        assert all(b > a for a, b in zip(c2s, c2s[1:]))


class TestUmauCi:
    def test_worked_example_full_population(self):
        sigma = 0.36
        m = ConditionalNormal(
            0.0, 2 * sigma / math.sqrt(200), 2 * sigma / math.sqrt(100), lower=0.025
        )
        est = umau_ci(m, 0.057, 0.05)
        assert est.lower == pytest.approx(-0.079, abs=1e-3)
        assert est.upper == pytest.approx(0.131, abs=1e-3)

    def test_worked_example_second_subgroup(self):
        sigma = 0.36
        # Full continuation puts the stage 1 subgroup value above the
        # realized bound, so the truncation is a lower bound.
        m = ConditionalNormal(
            0.0, 2 * sigma / math.sqrt(100), 2 * sigma / math.sqrt(50), lower=-0.063
        )
        est = umau_ci(m, -0.012667, 0.05)
        assert est.lower == pytest.approx(-0.200, abs=1e-3)
        assert est.upper == pytest.approx(0.093, abs=1e-3)

    def test_untruncated_equals_naive(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        est = umau_ci(m, 0.0, 0.05)
        assert est.lower == pytest.approx(-1.38590, abs=1e-4)
        assert est.upper == pytest.approx(1.38590, abs=1e-4)

    def test_duality_with_acceptance_region(self):
        # Delta is inside the interval iff the observed value is inside
        # the acceptance region at that delta.
        rng = np.random.default_rng(2)
        for _ in range(8):
            m = random_truncated_model(rng)
            observed = m.delta + rng.uniform(-1.0, 1.0) * m.sigma12
            est = umau_ci(m, observed, 0.05)
            span = np.linspace(
                est.lower - 2 * m.sigma12, est.upper + 2 * m.sigma12, 23
            )
            for d in span:
                pair = solve_umpu(m.at(d), 0.05)
                inside_ci = est.lower <= d <= est.upper
                inside_region = pair.c1 <= observed <= pair.c2
                if abs(d - est.lower) < 1e-6 or abs(d - est.upper) < 1e-6:
                    continue  # endpoint: either verdict is acceptable
                assert inside_ci == inside_region

    def test_endpoints_increase_in_observed(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.2)
        lowers, uppers = [], []
        for obs in np.linspace(-0.5, 1.5, 9):
            est = umau_ci(m, obs, 0.05)
            lowers.append(est.lower)
            uppers.append(est.upper)
        assert all(b > a for a, b in zip(lowers, lowers[1:]))
        assert all(b > a for a, b in zip(uppers, uppers[1:]))


class TestCtostCi:
    def test_worked_example_full_population(self):
        sigma = 0.36
        m = ConditionalNormal(
            0.0, 2 * sigma / math.sqrt(200), 2 * sigma / math.sqrt(100), lower=0.025
        )
        est = ctost_ci(m, 0.057, 0.05)
        assert est.lower == pytest.approx(-0.078, abs=1e-3)
        assert est.upper == pytest.approx(0.132, abs=1e-3)

    def test_worked_example_first_subgroup(self):
        sigma = 0.36
        m = ConditionalNormal(
            0.0, 2 * sigma / math.sqrt(100), 2 * sigma / math.sqrt(50), lower=0.037
        )
        est = ctost_ci(m, 0.127, 0.05)
        assert est.lower == pytest.approx(-0.025, abs=1e-3)
        assert est.upper == pytest.approx(0.240, abs=1e-3)

    def test_untruncated_equals_naive(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        est = ctost_ci(m, 0.4, 0.05)
        ref = naive_ci(0.4, m.sigma12, 0.05)
        assert est.lower == pytest.approx(ref.lower, abs=1e-6)
        assert est.upper == pytest.approx(ref.upper, abs=1e-6)

    def test_bound_is_conditional_quantile_roundtrip(self):
        # At the lower bound, the observed value sits at the 1 - alpha/2
        # conditional quantile.
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        observed, alpha = 0.9, 0.05
        est = ctost_ci(m, observed, alpha)
        assert m.at(est.lower).cdf(observed) == pytest.approx(
            1 - alpha / 2, abs=1e-7
        )
        assert m.at(est.upper).cdf(observed) == pytest.approx(
            alpha / 2, abs=1e-7
        )

    def test_endpoints_increase_in_observed(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=-0.4, upper=0.9)
        lowers, uppers = [], []
        for obs in np.linspace(-1.0, 1.0, 9):
            est = ctost_ci(m, obs, 0.05)
            lowers.append(est.lower)
            uppers.append(est.upper)
        assert all(b > a for a, b in zip(lowers, lowers[1:]))
        assert all(b > a for a, b in zip(uppers, uppers[1:]))

    def test_deep_tail_endpoints_beyond_seed_bracket(self):
        # The endpoints lie 43 and 23 pooled SDs below the observation,
        # outside the seed bracket; at the lower one the selection
        # log-probability is -927. A 40-digit mpmath quadrature of the
        # density gives F(1.0; delta) = 0.975 and 0.025 at these values.
        m = ConditionalNormal(0.0, 0.4, 2.0, lower=1.5)
        est = ctost_ci(m, 1.0, 0.05)
        assert est.lower == pytest.approx(-15.681879, abs=1e-6)
        assert est.upper == pytest.approx(-7.931500, abs=1e-6)


class TestNonConvergence:
    """A batch solve that reports ok=False surfaces as NumericalError."""

    MODEL = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)

    @staticmethod
    def _fail(solver):
        def failing(*args, **kwargs):
            *values, ok = solver(*args, **kwargs)
            return (*values, np.zeros_like(ok))
        return failing

    def test_solve_umpu(self, monkeypatch):
        monkeypatch.setattr(
            batch, "batch_solve_umpu", self._fail(batch.batch_solve_umpu)
        )
        with pytest.raises(NumericalError):
            solve_umpu(self.MODEL, 0.05)

    @pytest.mark.parametrize(
        "name,construct",
        [("batch_umau_ci", umau_ci), ("batch_ctost_ci", ctost_ci)],
    )
    def test_intervals(self, monkeypatch, name, construct):
        monkeypatch.setattr(batch, name, self._fail(getattr(batch, name)))
        with pytest.raises(NumericalError, match="observed=0.7"):
            construct(self.MODEL, 0.7, 0.05)


class TestNaiveCi:
    def test_worked_example_full_population(self):
        sigma = 0.36
        se = 2 * sigma / math.sqrt(300)
        est = naive_ci(0.057, se, 0.05)
        assert est.lower == pytest.approx(-0.024, abs=1e-3)
        assert est.upper == pytest.approx(0.138, abs=1e-3)

    def test_worked_example_second_subgroup(self):
        se = 2 * 0.36 / math.sqrt(150)
        est = naive_ci(-0.012667, se, 0.05)
        assert est.lower == pytest.approx(-0.128, abs=1e-3)
        assert est.upper == pytest.approx(0.102, abs=1e-3)

    def test_standard_normal_quantile(self):
        est = naive_ci(0.0, 1.0, 0.05)
        assert est.lower == pytest.approx(-1.95996, abs=1e-5)
        assert est.upper == pytest.approx(1.95996, abs=1e-5)

    def test_invalid_se(self):
        with pytest.raises(ValueError):
            naive_ci(0.0, 0.0, 0.05)


class TestConditionalCoverage:
    """Accept-reject oracle: simulate the two-stage pair, keep draws whose
    stage 1 value lands in the truncation interval, and check the fraction
    of intervals covering the true effect."""

    MODELS = [
        ConditionalNormal(0.0, 1.0, 1.0, lower=0.0),
        ConditionalNormal(0.5, 0.8, 1.2, lower=0.2, upper=1.6),
        ConditionalNormal(-0.3, 1.2, 0.7, upper=0.4),
    ]

    @staticmethod
    def _conditioned_draws(m, n, seed):
        rng = np.random.default_rng(seed)
        out = np.empty(0)
        while out.size < n:
            d1 = rng.normal(m.delta, m.sigma1, size=4 * n)
            d1 = d1[(d1 > m.lower) & (d1 < m.upper)]
            d2 = rng.normal(m.delta, m.sigma2, size=d1.size)
            pool = (m.tau1 * d1 + m.tau2 * d2) / (m.tau1 + m.tau2)
            out = np.concatenate([out, pool])
        return out[:n]

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_exact_conditional_coverage(self, idx):
        from enrichci.batch import batch_ctost_ci, batch_umau_ci

        m = self.MODELS[idx]
        n = 20_000
        draws = self._conditioned_draws(m, n, seed=100 + idx)
        t_lo, t_hi, t_ok = batch_ctost_ci(
            draws, 0.05, m.sigma1, m.sigma2, m.lower, m.upper
        )
        u_lo, u_hi, u_ok = batch_umau_ci(
            draws, 0.05, m.sigma1, m.sigma2, m.lower, m.upper,
            seeds=(t_lo, t_hi, t_ok),
        )
        assert bool(np.all(t_ok)) and bool(np.all(u_ok))
        band = 2.576 * math.sqrt(0.95 * 0.05 / n)  # 99% binomial band
        for lo, hi in ((t_lo, t_hi), (u_lo, u_hi)):
            coverage = np.mean((lo <= m.delta) & (m.delta <= hi))
            assert abs(coverage - 0.95) < band
            # False coverage of shifted effects stays near or below nominal
            # (conditional unbiasedness).
            for wrong in (m.delta - m.sigma12, m.delta + m.sigma12):
                false_cov = np.mean((lo <= wrong) & (wrong <= hi))
                se = math.sqrt(false_cov * (1 - false_cov) / n + 1e-12)
                assert false_cov <= 0.95 + 3 * se
