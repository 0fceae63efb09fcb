"""Tests for the conditional law of the pooled two-stage estimate.

Oracles used here are independent of the implementation under test:
accept-reject Monte Carlo on the underlying pair of Gaussian stages,
dense-grid / adaptive quadrature of the density formula written out
longhand with scipy primitives, and the quadrature and ``brentq``
references of ``oracle``.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import enrichci
from enrichci import ConditionalNormal, NumericalError, _kernels
from enrichci._kernels import CondLaw, pooled_sd
from enrichci._normal import bvn_cdf, norm_prob_range

from oracle import brentq_quantile, quad_cdf, quad_partial_moment


def reference_pdf(x, delta, s1, s2, lower, upper):
    """Conditional density written directly from its defining formula."""
    s12 = s1 * s2 / math.hypot(s1, s2)
    s = s12 * s1 / s2
    num = norm.cdf((upper - x) / s) - norm.cdf((lower - x) / s)
    den = norm.cdf((upper - delta) / s1) - norm.cdf((lower - delta) / s1)
    return norm.pdf(x, loc=delta, scale=s12) * num / den


def pooled(d1, d2, s1, s2):
    t1, t2 = 1.0 / s1**2, 1.0 / s2**2
    return (t1 * d1 + t2 * d2) / (t1 + t2)


def accept_reject(delta, s1, s2, lower, upper, n, seed):
    """Draw pooled estimates conditioned on the stage 1 truncation."""
    rng = np.random.default_rng(seed)
    d1 = rng.normal(delta, s1, size=n)
    keep = (d1 > lower) & (d1 < upper)
    d2 = rng.normal(delta, s2, size=int(keep.sum()))
    return pooled(d1[keep], d2, s1, s2)


def random_model(rng, truncated=True):
    delta = rng.uniform(-2.0, 2.0)
    s1 = rng.uniform(0.3, 2.0)
    s2 = rng.uniform(0.3, 2.0)
    if not truncated:
        return ConditionalNormal(delta, s1, s2)
    kind = rng.integers(3)
    lo = delta + rng.uniform(-2.0, 1.5) * s1
    width = rng.uniform(0.5, 3.0) * s1
    if kind == 0:
        return ConditionalNormal(delta, s1, s2, lower=lo)
    if kind == 1:
        return ConditionalNormal(delta, s1, s2, upper=lo + width)
    return ConditionalNormal(delta, s1, s2, lower=lo, upper=lo + width)


class TestConstruction:
    def test_derived_quantities(self):
        m = ConditionalNormal(0.5, 0.8, 1.2, lower=0.2, upper=1.0)
        assert m.sigma12**2 == pytest.approx(1 / (1 / 0.64 + 1 / 1.44),
                                             rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(delta=0.0, sigma1=0.0, sigma2=1.0),
            dict(delta=0.0, sigma1=1.0, sigma2=-1.0),
            dict(delta=0.0, sigma1=1.0, sigma2=1.0, lower=1.0, upper=1.0),
            dict(delta=0.0, sigma1=1.0, sigma2=1.0, lower=2.0, upper=-2.0),
            dict(delta=math.nan, sigma1=1.0, sigma2=1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConditionalNormal(**kwargs)

    def test_degenerate_truncation_fails_loudly(self):
        # Selection probability below 1e-300 is numerical measure zero.
        with pytest.raises(ValueError, match="selection probability"):
            ConditionalNormal(0.0, 1.0, 1.0, lower=40.0, upper=41.0)

    def test_at_rebuilds_with_new_delta(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        m2 = m.at(1.5)
        assert m2.delta == 1.5
        assert (m2.sigma1, m2.sigma2, m2.lower, m2.upper) == (1.0, 1.0, 0.0, math.inf)

    @pytest.mark.parametrize("d0,d,lower,upper", [
        (0.0, 0.7, 0.2, math.inf),
        (-0.3, 0.4, -0.5, 1.0),
        (3.0, 0.0, 4.5, math.inf),  # deep at d: quadrature over stage 1
    ], ids=["one-sided", "two-sided", "deep"])
    def test_at_equals_a_fresh_law(self, d0, d, lower, upper):
        # The law at d0 is built and used before the move; the moved copy
        # must not read it.
        def values(m):
            x = m.mean() + np.array([-1.0, 0.0, 0.5, 2.0]) * m.sigma12
            return ([m.mean()] + [m.cdf(v) for v in x] + [m.pdf(v) for v in x]
                    + [m.logpdf(v) for v in x]
                    + [m.partial_moment(x[0], x[2]),
                       m.partial_moment(-math.inf, x[3])]
                    + [m.quantile(q) for q in (0.025, 0.5, 0.975)])

        before = ConditionalNormal(d0, 0.8, 1.3, lower=lower, upper=upper)
        values(before)
        moved = before.at(d)
        assert moved == ConditionalNormal(d, 0.8, 1.3, lower=lower, upper=upper)
        assert values(moved) == values(
            ConditionalNormal(d, 0.8, 1.3, lower=lower, upper=upper))


class TestPdf:
    def test_untruncated_reduces_to_pooled_normal(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        assert m.pdf(0.0) == pytest.approx(0.564190, abs=1e-6)

    def test_normalizes_to_one(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        total, _ = integrate.quad(m.pdf, -8.0, 8.0, epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_accept_reject_histogram(self):
        # 1e7 raw draws, histogram density at the cell containing x=0.5.
        delta, s1, s2, lower, upper = 0.5, 0.8, 1.2, 0.2, 1.0
        draws = accept_reject(delta, s1, s2, lower, upper, 10_000_000, seed=11)
        width = 0.02
        lo, hi = 0.5 - width / 2, 0.5 + width / 2
        inside = np.count_nonzero((draws >= lo) & (draws < hi))
        p_cell = inside / draws.size
        mc_density = p_cell / width
        mc_se = math.sqrt(p_cell * (1 - p_cell) / draws.size) / width
        m = ConditionalNormal(delta, s1, s2, lower=lower, upper=upper)
        cell_avg, _ = integrate.quad(m.pdf, lo, hi)
        assert abs(cell_avg / width - mc_density) < 3 * mc_se

    def test_matches_reference_formula_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_model(rng)
            for x in np.linspace(m.delta - 3, m.delta + 3, 7):
                assert m.pdf(x) == pytest.approx(
                    reference_pdf(x, *_args(m)), rel=1e-9, abs=1e-12
                )

    def test_rejects_nonfinite_x(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            m.pdf(math.inf)
        with pytest.raises(ValueError):
            m.pdf(math.nan)


def _args(m):
    return m.delta, m.sigma1, m.sigma2, m.lower, m.upper


class TestCdf:
    def test_symmetric_untruncated_median(self):
        m = ConditionalNormal(1.0, 1.0, 1.0)
        assert m.cdf(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_roundtrip(self):
        m = ConditionalNormal(0.3, 0.9, 1.1, lower=-0.2, upper=1.4)
        x = m.quantile(0.3)
        assert m.cdf(x) == pytest.approx(0.3, abs=1e-7)

    def test_matches_dense_grid_oracle(self):
        # Trapezoid rule on a 1e6-point grid of the reference density.
        delta, s1, s2 = 0.0, 1.0, 1.0
        m = ConditionalNormal(delta, s1, s2, lower=0.0)
        grid = np.linspace(-10.0, 0.3989, 1_000_000)
        vals = reference_pdf(grid, delta, s1, s2, 0.0, math.inf)
        oracle = np.trapezoid(vals, grid)
        assert m.cdf(0.3989) == pytest.approx(oracle, abs=1e-6)

    def test_closed_and_quadrature_paths_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = random_model(rng)
            x = m.delta + rng.uniform(-2.0, 2.0) * m.sigma12
            assert m.cdf(x) == pytest.approx(quad_cdf(m, x), abs=1e-9)

    def test_limits_and_monotonicity(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=-1.0, upper=0.5)
        assert m.cdf(-math.inf) == 0.0
        assert m.cdf(math.inf) == 1.0
        xs = np.linspace(-4, 4, 41)
        cs = [m.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(cs, cs[1:]))


class TestQuantile:
    def test_untruncated_gaussian_quantile(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        assert m.quantile(0.975) == pytest.approx(1.96 / math.sqrt(2), abs=1e-4)

    def test_symmetric_truncation_median_is_delta(self):
        m = ConditionalNormal(0.7, 1.0, 1.3, lower=-0.3, upper=1.7)
        assert m.quantile(0.5) == pytest.approx(0.7, abs=1e-9)

    def test_against_empirical_quantile(self):
        delta, s1, s2 = 0.0, 1.0, 1.0
        draws = accept_reject(delta, s1, s2, 0.0, math.inf, 2_000_000, seed=5)
        q = 0.9
        m = ConditionalNormal(delta, s1, s2, lower=0.0)
        x = m.quantile(q)
        # Invert through the empirical CDF: MC se of the CDF at x.
        emp = np.mean(draws <= x)
        mc_se = math.sqrt(q * (1 - q) / draws.size)
        assert abs(emp - q) < 3 * mc_se

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, q):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            m.quantile(q)

    def test_matches_bracketed_oracle_on_random_geometries(self):
        # One- and two-sided bounds up to 5 sigma1 beyond delta, so the
        # deep-tail kernels carry part of the draws.
        rng = np.random.default_rng(0)
        for _ in range(300):
            delta = rng.uniform(-2.0, 2.0)
            s1, s2 = rng.uniform(0.2, 3.0, size=2)
            kind = rng.integers(3)
            bound = delta + rng.uniform(-2.0, 5.0) * s1
            if kind == 0:
                lower, upper = bound, math.inf
            elif kind == 1:
                lower, upper = -math.inf, 2.0 * delta - bound
            else:
                lower, upper = bound, bound + rng.uniform(0.1, 3.0) * s1
            m = ConditionalNormal(delta, s1, s2, lower=lower, upper=upper)
            for q in (1e-6, 0.025, 0.3, 0.5, 0.975, 1.0 - 1e-6):
                ref = brentq_quantile(m, q)
                x = m.quantile(q)
                assert math.isfinite(x)
                assert abs(m.cdf(x) - q) <= 1e-11, (q, m)
                assert abs(x - ref) <= 1e-6 * m.sigma12, (q, m)

    def test_unconverged_root_raises(self, monkeypatch):
        monkeypatch.setattr(_kernels, "cond_quantile",
                            lambda q, *args: np.array(np.nan))
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        with pytest.raises(NumericalError, match="quantile 0.3"):
            m.quantile(0.3)


class TestMean:
    def test_untruncated_is_delta(self):
        m = ConditionalNormal(2.5, 0.7, 1.9)
        assert m.mean() == pytest.approx(2.5, abs=1e-14)

    def test_symmetric_truncation_is_delta(self):
        m = ConditionalNormal(-1.0, 1.1, 0.6, lower=-3.0, upper=1.0)
        assert m.mean() == pytest.approx(-1.0, abs=1e-12)

    def test_half_line_closed_form_and_quadrature(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        expected = norm.pdf(0.0) / 0.5 * 1.0 * 0.5  # phi(0)/Phi-bar * sigma1 * tau-weight
        assert m.mean() == pytest.approx(expected, abs=1e-12)
        quad_mean, _ = integrate.quad(
            lambda t: t * m.pdf(t), -10, 10, epsabs=1e-12
        )
        assert m.mean() == pytest.approx(quad_mean, abs=1e-8)


class TestPartialMoment:
    def test_empty_interval_is_zero(self):
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0)
        assert m.partial_moment(0.4, 0.4) == 0.0

    def test_full_line_untruncated_equals_delta(self):
        m = ConditionalNormal(2.0, 1.0, 1.0)
        assert m.partial_moment(-math.inf, math.inf) == pytest.approx(2.0, abs=1e-9)

    def test_matches_riemann_oracle(self):
        delta, s1, s2 = 0.0, 1.0, 1.0
        m = ConditionalNormal(delta, s1, s2, lower=0.0)
        grid = np.linspace(-1.0, 1.0, 1_000_001)
        vals = grid * reference_pdf(grid, delta, s1, s2, 0.0, math.inf)
        oracle = np.trapezoid(vals, grid)
        assert m.partial_moment(-1.0, 1.0) == pytest.approx(oracle, abs=1e-6)

    def test_closed_matches_quadrature_path(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            m = random_model(rng)
            a = m.delta - rng.uniform(0.2, 2.0) * m.sigma12
            b = m.delta + rng.uniform(0.2, 2.0) * m.sigma12
            assert m.partial_moment(a, b) == pytest.approx(
                quad_partial_moment(m, a, b), abs=1e-9
            )

    def test_reversed_bounds_rejected(self):
        m = ConditionalNormal(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            m.partial_moment(1.0, -1.0)


class TestSecondPartialMoment:
    """order=2 against adaptive quadrature of t^2 * pdf."""

    @staticmethod
    def _quad(m, a, b):
        center = m.mean()
        a = max(a, center - 14.0 * m.sigma12)
        b = min(b, center + 14.0 * m.sigma12)
        pts = [p for p in (m.lower, m.upper) if a < p < b]
        val, _ = integrate.quad(
            lambda t: t * t * m.pdf(t), a, b, points=pts or None,
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        return val

    @pytest.mark.parametrize("delta,s1,s2,lower,upper,a,b", [
        (0.0, 1.0, 1.0, 0.0, math.inf, -1.0, 2.0),
        (0.3, 0.7, 1.5, -0.5, 0.8, -0.4, 1.1),
        (-1.0, 2.0, 0.5, -math.inf, 0.2, -3.0, -0.5),
        (0.5, 0.4, 2.0, 0.1, 1.4, -math.inf, math.inf),
        (1.2, 1.0, 1.0, 0.0, math.inf, 0.5, math.inf),
        (0.0, 1.0, 1.0, -math.inf, math.inf, -math.inf, 0.7),
    ])
    def test_closed_form(self, delta, s1, s2, lower, upper, a, b):
        m = ConditionalNormal(delta, s1, s2, lower=lower, upper=upper)
        law = CondLaw(delta, s1, s2, lower, upper)
        got = float(law.partial_moments(a, b, order=2)[-1])
        assert got == pytest.approx(self._quad(m, a, b), abs=1e-10)

    @pytest.mark.parametrize("lower,upper,a,b", [
        (4.1, math.inf, 2.0, 4.5),
        (4.1, math.inf, -math.inf, math.inf),
        (-math.inf, -4.3, -5.0, -3.6),
        (4.1, 4.6, 3.0, 3.9),
    ])
    def test_deep_tail(self, lower, upper, a, b):
        # Selection probability below 1e-4: the quadrature branch.
        m = ConditionalNormal(0.0, 1.0, 1.0, lower=lower, upper=upper)
        law = CondLaw(0.0, 1.0, 1.0, lower, upper)
        got = float(law.partial_moments(a, b, order=2)[-1])
        assert got == pytest.approx(self._quad(m, a, b), abs=1e-10)


class TestConditionalVariance:
    """The closed-form variance against adaptive quadrature of
    (t - mean)^2 * pdf, on one- and two-sided bounds, at selection
    log-probability down to -50 and delta up to 1000 sigma12."""

    @staticmethod
    def _quad(m):
        center = m.mean()
        a, b = center - 14.0 * m.sigma12, center + 14.0 * m.sigma12
        pts = [p for p in (m.lower, m.upper) if a < p < b]
        val, _ = integrate.quad(
            lambda t: (t - center) ** 2 * m.pdf(t), a, b, points=pts or None,
            epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        return val

    # Bound offsets from delta in units of sigma1; 9.77 and 9.6 put the
    # selection log-probability near -50.
    @pytest.mark.parametrize("lo,hi", [
        (0.5, math.inf), (-math.inf, -0.5), (9.77, math.inf),
        (-math.inf, -9.77), (-0.3, 0.9), (9.6, 10.1), (-10.1, -9.6),
    ])
    @pytest.mark.parametrize("s1,s2", [(1.0, 1.0), (0.2, 1.0), (5.0, 1.0)])
    @pytest.mark.parametrize("delta", [0.0, 30.0, 1000.0])
    def test_matches_quadrature(self, delta, s1, s2, lo, hi):
        delta *= pooled_sd(s1, s2)
        m = ConditionalNormal(delta, s1, s2, lower=delta + lo * s1,
                              upper=delta + hi * s1)
        got = float(CondLaw(*_args(m)).var)
        assert got == pytest.approx(self._quad(m), rel=0,
                                    abs=1e-10 * m.sigma12**2)

    @pytest.mark.parametrize("s1,s2", [(1.0, 1.0), (0.2, 1.0)])
    def test_untruncated_is_pooled_variance(self, s1, s2):
        # Both bounds infinite: no inf - inf, so no RuntimeWarning (an
        # error in this suite).
        law = CondLaw(0.0, s1, s2, -math.inf, math.inf)
        assert float(law.var) == pytest.approx(pooled_sd(s1, s2)**2,
                                               rel=1e-15)


def _cdf_both_bivariate_terms(x, delta, s1, s2, lower, upper):
    """The conditional CDF's closed form with both bivariate-normal terms
    evaluated, infinite bounds included."""
    s12 = pooled_sd(s1, s2)
    rho = s2 / math.hypot(s1, s2)
    zx = (x - delta) / s12
    a1, b1 = (lower - delta) / s1, (upper - delta) / s1
    num = bvn_cdf(zx, b1, rho) - bvn_cdf(zx, a1, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / norm_prob_range(a1, b1)
    out = np.where(zx == np.inf, 1.0, out)
    out = np.where(zx == -np.inf, 0.0, out)
    return np.clip(out, 0.0, 1.0)


class TestInfiniteBoundShortcut:
    """CondLaw.cdf skips the bivariate term of a bound that is infinite for
    every element; the result must not change in any bit."""

    X = np.concatenate([np.linspace(-7.0, 7.0, 281), [-np.inf, np.inf]])

    @pytest.mark.parametrize("lower,upper", [
        (0.0, math.inf),
        (-math.inf, 0.4),
        (-0.3, 0.9),
        (-math.inf, math.inf),
        (np.array([0.0, -math.inf, -0.3]), np.array([math.inf, 0.4, 0.9])),
    ])
    def test_bit_identical(self, lower, upper):
        x = self.X[:, None] if np.ndim(lower) else self.X
        for s1, s2, delta in ((1.0, 1.0, 0.0), (0.8, 1.3, 0.2),
                              (3.0, 0.5, -0.4)):
            got = CondLaw(delta, s1, s2, lower, upper).cdf(x)
            ref = _cdf_both_bivariate_terms(x, delta, s1, s2, lower, upper)
            assert np.array_equal(got, ref)


class TestSubnormalBound:
    """A bound a subnormal distance from delta: Owen's T ratio overflows
    and must take its den -> 0 limit, the value at the bound itself."""

    def test_equals_the_zero_bound_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bvn_cdf(0.3, 2.2250738585e-313, 0.7) == bvn_cdf(0.3, 0.0, 0.7)
            assert CondLaw(0.0, 1.0, 1.0, 1e-310, math.inf).cdf(0.3) == (
                CondLaw(0.0, 1.0, 1.0, 0.0, math.inf).cdf(0.3))


class TestImports:
    def test_no_quadrature_or_root_finder_modules(self):
        # The quadrature and brentq references live in the tests only.
        code = (
            "import sys, enrichci; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.optimize'))))"
        )
        src = Path(enrichci.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestProperties:
    def test_normalization_on_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = random_model(rng)
            lo = m.mean() - 10 * m.sigma12
            hi = m.mean() + 10 * m.sigma12
            total, _ = integrate.quad(m.pdf, lo, hi, epsabs=1e-10, limit=200)
            assert total == pytest.approx(1.0, abs=1e-7)

    def test_untruncated_reduction_closed_forms(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_model(rng, truncated=False)
            ref = norm(loc=m.delta, scale=m.sigma12)
            for x in np.linspace(m.delta - 3 * m.sigma12, m.delta + 3 * m.sigma12, 50):
                assert m.pdf(x) == pytest.approx(ref.pdf(x), abs=1e-9)
                assert m.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-9)
            for q in (0.05, 0.3, 0.8):
                assert m.quantile(q) == pytest.approx(ref.ppf(q), abs=1e-9)

    def test_mean_equals_full_partial_moment(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = random_model(rng)
            assert m.mean() == pytest.approx(
                m.partial_moment(-math.inf, math.inf), abs=1e-7
            )

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_truncated_moment_function_is_increasing(self, alpha):
        # I(c1) = partial_moment(c1, F^{-1}(F(c1)+1-alpha)) must rise
        # strictly while cdf(c1) < alpha.
        m = ConditionalNormal(0.2, 1.0, 0.8, lower=-0.5, upper=2.0)
        c1_hi = brentq_quantile(m, alpha * (1 - 1e-6))
        c1_grid = np.linspace(brentq_quantile(m, 1e-6), c1_hi, 25)
        values = []
        for c1 in c1_grid:
            c2 = brentq_quantile(m, m.cdf(c1) + 1 - alpha)
            values.append(m.partial_moment(c1, c2))
        diffs = np.diff(values)
        assert np.all(diffs > 0)

    def test_tail_stability_far_from_truncation(self):
        # Finite bounds, model center pushed up to 12 sigma1 away.
        lower, upper = -0.5, 0.5
        for shift in (4.0, 8.0, 12.0):
            m = ConditionalNormal(shift, 1.0, 1.0, lower=lower, upper=upper)
            assert math.isfinite(m.pdf(m.mean()))
            # Mean is pulled from delta toward the truncation region.
            assert lower <= m.mean() <= shift

    def test_cdf_strictly_decreasing_in_delta(self):
        base = ConditionalNormal(0.0, 1.0, 1.0, lower=0.0, upper=2.0)
        x = 0.8
        deltas = np.linspace(-1.5, 1.5, 13)
        cs = [base.at(d).cdf(x) for d in deltas]
        assert all(b < a for a, b in zip(cs, cs[1:]))
