"""Vectorized solver paths must agree with scalar reference solves.

The references are bracketed scalar ``brentq`` solves: on the truncated
first moment for the acceptance region, and on the conditional CDF or
the critical values for the interval endpoints. The umau endpoints are
also held against the nested solve they replaced: a root-finder in delta
whose every evaluation is an acceptance-pair Newton solve. The tost
endpoints and the quantiles, now probit-scale Newton roots, are held
against the Chandrupatla root-finder they replaced (``monotone_root``).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.optimize.elementwise import bracket_root, find_root
from scipy.special import ndtr, ndtri

from enrichci import (
    ConditionalNormal,
    CriticalPair,
    IntervalEstimate,
    NumericalError,
    ctost_ci,
    solve_umpu,
    umau_ci,
)
from enrichci._kernels import (
    cond_cdf,
    cond_mean,
    cond_partial_moment,
    cond_quantile,
    flat_broadcast,
    pooled_sd,
    probit_newton,
)
from enrichci._normal import log_norm_prob_range, norm_pdf
from enrichci.batch import (
    batch_ctost_ci,
    batch_naive_ci,
    batch_solve_umpu,
    batch_umau_ci,
)


GEOMETRIES = [
    (1.0, 1.0, 0.0, math.inf),
    (0.8, 1.2, 0.2, 1.0),
    (1.2, 0.7, -math.inf, 0.4),
]


def monotone_root(f, lo, hi, xatol, fatol=None):
    """Reference root in x of each element of a monotone ``f(x, i)``.

    ``lo``/``hi`` are flat arrays seeding one bracket per element; ``f``
    receives the abscissae together with the indices ``i`` of the elements
    they belong to. Chandrupatla's method (``find_root``) runs on the seed
    brackets; elements whose seed bracket holds no sign change are grown
    by ``bracket_root`` and solved again. Returns (root, ok); ``ok`` is
    False where the solve failed or ``f`` returned a non-finite value.
    """
    finite = np.ones(lo.shape, dtype=bool)

    def g(x, i):
        fx = f(x, i)
        finite[i[~np.isfinite(fx)]] = False
        return fx

    tol = {"xatol": xatol, "fatol": fatol}
    res = find_root(g, (lo, hi), args=(np.arange(lo.size),), tolerances=tol)
    root, ok = res.x, res.success
    redo = np.flatnonzero(res.status == -1)
    if redo.size:
        grown = bracket_root(g, lo[redo], hi[redo], args=(redo,))
        redo = redo[grown.success]
        xl, xr = (b[grown.success] for b in grown.bracket)
        res = find_root(g, (xl, xr), args=(redo,), tolerances=tol)
        root[redo], ok[redo] = res.x, res.success
    return root, ok & finite


def reference_ctost_ci(observed, alpha, sigma1, sigma2, lower, upper):
    """Reference tost endpoints: Chandrupatla roots in delta of the
    conditional CDF at the observation, to 1e-12 pooled sd."""
    shape, (observed, lower, upper) = flat_broadcast(observed, lower, upper)
    sigma12 = pooled_sd(sigma1, sigma2)
    n = observed.size
    q = np.repeat([1.0 - 0.5 * alpha, 0.5 * alpha], n)
    observed, lower, upper = (np.tile(a, 2) for a in (observed, lower, upper))

    def excess(delta, i):
        cdf = cond_cdf(observed[i], delta, sigma1, sigma2, lower[i], upper[i])
        return cdf - q[i]

    root, ok = monotone_root(
        excess, observed - 10.0 * sigma12, observed + 10.0 * sigma12,
        xatol=1e-12 * sigma12,
    )
    return root[:n].reshape(shape), root[n:].reshape(shape), (
        ok[:n] & ok[n:]).reshape(shape)


def _solve_umpu_bracketed(model: ConditionalNormal, alpha: float) -> CriticalPair:
    """Reference solve: bracketed root-finding on the strictly increasing
    truncated first moment of the acceptance interval."""
    beta = 1.0 - alpha
    target = beta * model.mean()

    def upper_cut(c1):
        return model.quantile(min(model.cdf(c1) + beta, 1.0 - 1e-15))

    def residual(c1):
        return model.partial_moment(c1, upper_cut(c1)) - target

    lo = model.quantile(1e-8)
    hi = model.quantile(alpha * (1.0 - 1e-8))
    r_lo, r_hi = residual(lo), residual(hi)
    if not r_lo < 0.0 < r_hi:
        raise NumericalError(
            "acceptance-region bracket shows no sign change: "
            f"residual({lo:.6g})={r_lo:.3e}, residual({hi:.6g})={r_hi:.3e}, "
            f"model={model}"
        )
    c1 = brentq(residual, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return CriticalPair(c1, upper_cut(c1))


def _critical_value(delta, alpha, sigma1, sigma2, lower, upper, side, warm,
                    tol):
    """C1 (side='upper') or C2 (side='lower') at ``delta``, warm-started."""
    c1, c2, ok = batch_solve_umpu(
        delta, alpha, sigma1, sigma2, lower, upper, c1=warm[0], c2=warm[1],
        tol=tol,
    )
    bad = ~ok
    if bad.any():
        # Cold restart from equal-tail quantiles for stragglers.
        c1b, c2b, ok2 = batch_solve_umpu(
            delta[bad], alpha, sigma1, sigma2, lower[bad], upper[bad], tol=tol
        )
        c1[bad], c2[bad] = c1b, c2b
        ok[bad] = ok2
    warm[0], warm[1] = c1, c2
    val = c2 if side == "lower" else c1
    return val, ok


def nested_umau_endpoint(observed, alpha, sigma1, sigma2, lower, upper, side,
                         center, xatol=1e-12, newton_tol=1e-11):
    """Reference endpoint: a Chandrupatla root in delta of C2(delta) =
    observed (lower) or C1(delta) = observed (upper), where each evaluation
    solves the acceptance pair by Newton. ``center`` seeds a bracket of
    +/-0.75 pooled sd; ``xatol`` is in pooled sds. Returns (endpoint, ok).
    """
    shape, (observed, lower, upper, center) = flat_broadcast(
        observed, lower, upper, center
    )
    sigma12 = pooled_sd(sigma1, sigma2)
    warm = [observed - 2.0 * sigma12, observed + 2.0 * sigma12]

    def excess(delta, i):
        sub = [warm[0][i], warm[1][i]]
        val, ok = _critical_value(
            delta, alpha, sigma1, sigma2, lower[i], upper[i], side, sub,
            tol=newton_tol,
        )
        warm[0][i], warm[1][i] = sub
        return np.where(ok, val - observed[i], np.nan)

    root, ok = monotone_root(
        excess, center - 0.75 * sigma12, center + 0.75 * sigma12,
        xatol=xatol * sigma12, fatol=0.1 * xatol * sigma12,
    )
    return root.reshape(shape), ok.reshape(shape)


def nested_umau_ci(observed, alpha, sigma1, sigma2, lower, upper):
    """Both reference endpoints, seeded by the equal-tailed ones."""
    seed_lo, seed_hi, seed_ok = batch_ctost_ci(
        observed, alpha, sigma1, sigma2, lower, upper
    )
    assert bool(np.all(seed_ok))
    lo, ok_lo = nested_umau_endpoint(
        observed, alpha, sigma1, sigma2, lower, upper, "lower", seed_lo
    )
    hi, ok_hi = nested_umau_endpoint(
        observed, alpha, sigma1, sigma2, lower, upper, "upper", seed_hi
    )
    return lo, hi, ok_lo & ok_hi


def _scalar_endpoints(excess, observed, sigma12):
    """brentq roots in delta of excess(delta, side), side lower then upper."""
    span = 10.0 * sigma12
    return [
        brentq(lambda d: excess(d, side), observed - span, observed + span,
               xtol=1e-12)
        for side in ("lower", "upper")
    ]


def umau_reference(geom, observed, alpha):
    """C2(delta) = observed (lower) and C1(delta) = observed (upper)."""
    def excess(delta, side):
        pair = solve_umpu(geom.at(delta), alpha)
        return (pair.c2 if side == "lower" else pair.c1) - observed

    return _scalar_endpoints(excess, observed, geom.sigma12)


def ctost_reference(geom, observed, alpha):
    """The conditional CDF at observed equals 1 - alpha/2, then alpha/2."""
    def excess(delta, side):
        q = 1.0 - 0.5 * alpha if side == "lower" else 0.5 * alpha
        return q - geom.at(delta).cdf(observed)

    return _scalar_endpoints(excess, observed, geom.sigma12)


class TestBatchSolveUmpu:
    @pytest.mark.parametrize("s1,s2,lo,up", GEOMETRIES)
    def test_matches_scalar_bracketed_solver(self, s1, s2, lo, up):
        deltas = np.array([-0.8, 0.0, 0.6, 1.4])
        c1, c2, ok = batch_solve_umpu(deltas, 0.05, s1, s2, lo, up)
        assert bool(np.all(ok))
        for d, a, b in zip(deltas, c1, c2):
            ref = _solve_umpu_bracketed(
                ConditionalNormal(d, s1, s2, lower=lo, upper=up), 0.05
            )
            assert a == pytest.approx(ref.c1, abs=1e-7)
            assert b == pytest.approx(ref.c2, abs=1e-7)

    def test_scalar_shape_passthrough(self):
        c1, c2, ok = batch_solve_umpu(0.3, 0.05, 1.0, 1.0, 0.0, np.inf)
        assert np.shape(c1) == () and bool(ok)


class TestBatchIntervals:
    @pytest.mark.parametrize("s1,s2,lo,up", GEOMETRIES)
    def test_umau_matches_scalar(self, s1, s2, lo, up):
        geom = ConditionalNormal(0.0, s1, s2, lower=lo, upper=up)
        observed = np.array([-0.4, 0.1, 0.7, 1.3])
        blo, bhi, ok = batch_umau_ci(observed, 0.05, s1, s2, lo, up)
        assert bool(np.all(ok))
        for x, a, b in zip(observed, blo, bhi):
            ref_lo, ref_hi = umau_reference(geom, x, 0.05)
            assert a == pytest.approx(ref_lo, abs=1e-6)
            assert b == pytest.approx(ref_hi, abs=1e-6)

    @pytest.mark.parametrize("s1,s2,lo,up", GEOMETRIES)
    def test_ctost_matches_scalar(self, s1, s2, lo, up):
        geom = ConditionalNormal(0.0, s1, s2, lower=lo, upper=up)
        observed = np.array([-0.4, 0.1, 0.7, 1.3])
        blo, bhi, ok = batch_ctost_ci(observed, 0.05, s1, s2, lo, up)
        assert bool(np.all(ok))
        for x, a, b in zip(observed, blo, bhi):
            ref_lo, ref_hi = ctost_reference(geom, x, 0.05)
            assert a == pytest.approx(ref_lo, abs=1e-6)
            assert b == pytest.approx(ref_hi, abs=1e-6)

    def test_umau_with_elementwise_bounds(self):
        # Per-element truncation bounds, as produced by simulation branches.
        observed = np.array([0.3, 0.5])
        lower = np.array([0.0, 0.2])
        upper = np.array([np.inf, 1.4])
        blo, bhi, ok = batch_umau_ci(observed, 0.05, 1.0, 1.0, lower, upper)
        assert bool(np.all(ok))
        for i in range(2):
            geom = ConditionalNormal(
                0.0, 1.0, 1.0, lower=float(lower[i]), upper=float(upper[i])
            )
            ref = umau_ci(geom, float(observed[i]), 0.05)
            assert blo[i] == pytest.approx(ref.lower, abs=1e-6)
            assert bhi[i] == pytest.approx(ref.upper, abs=1e-6)

    def test_naive_closed_form(self):
        lo, hi = batch_naive_ci(np.array([0.0, 1.0]), 0.05, 1.0, 1.0)
        half = 1.959964 / math.sqrt(2)
        assert lo == pytest.approx([-half, 1 - half], abs=1e-5)
        assert hi == pytest.approx([half, 1 + half], abs=1e-5)

    def test_deep_truncation_still_converges(self):
        # Selection probability ~1e-5: the closed-form CDF is unusable
        # there, the quadrature fallback must carry the solve.
        blo, bhi, ok = batch_umau_ci(
            np.array([2.3]), 0.05, 1.0, 1.0, 4.1, np.inf
        )
        assert bool(np.all(ok))
        assert blo[0] < bhi[0]


class TestJointUmau:
    """The joint Newton in (delta, c) against the nested reference."""

    OBSERVED = np.array([-0.9, -0.4, 0.1, 0.7, 1.3, 2.2])

    @staticmethod
    def _assert_agree(observed, alpha, s1, s2, lower, upper):
        lo, hi, ok = batch_umau_ci(observed, alpha, s1, s2, lower, upper)
        ref_lo, ref_hi, ref_ok = nested_umau_ci(
            observed, alpha, s1, s2, lower, upper
        )
        assert bool(np.all(ok)) and bool(np.all(ref_ok))
        sigma12 = pooled_sd(s1, s2)
        assert np.max(np.abs(lo - ref_lo)) <= 1e-9 * sigma12
        assert np.max(np.abs(hi - ref_hi)) <= 1e-9 * sigma12

    @pytest.mark.parametrize("s1,s2,lo,up", GEOMETRIES)
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_matches_nested_reference(self, s1, s2, lo, up, alpha):
        self._assert_agree(self.OBSERVED, alpha, s1, s2, lo, up)

    def test_matches_nested_reference_elementwise_bounds(self):
        observed = np.array([0.3, 0.5, -0.2, 1.1])
        lower = np.array([0.0, 0.2, -np.inf, -0.5])
        upper = np.array([np.inf, 1.4, 0.4, 0.5])
        self._assert_agree(observed, 0.05, 1.0, 1.0, lower, upper)

    def test_matches_nested_reference_deep_truncation(self):
        # Selection probability ~1e-5 at delta=0: the deep-tail quadrature
        # carries both solves.
        observed = np.array([2.3, 2.9, 3.6])
        self._assert_agree(observed, 0.05, 1.0, 1.0, 4.1, np.inf)

    def test_scalar_shape_passthrough(self):
        lo, hi, ok = batch_umau_ci(0.4, 0.05, 1.0, 1.0, 0.0, np.inf)
        assert np.shape(lo) == () and np.shape(hi) == () and bool(ok)

    @pytest.mark.parametrize("s1,s2,lo,up", GEOMETRIES)
    def test_duality_with_acceptance_region(self, s1, s2, lo, up):
        # At the lower endpoint the acceptance region ends at the
        # observation, at the upper endpoint it starts there.
        geom = ConditionalNormal(0.0, s1, s2, lower=lo, upper=up)
        blo, bhi, ok = batch_umau_ci(self.OBSERVED, 0.05, s1, s2, lo, up)
        assert bool(np.all(ok))
        for x, d_lo, d_hi in zip(self.OBSERVED, blo, bhi):
            assert solve_umpu(geom.at(d_lo), 0.05).c2 == pytest.approx(
                x, abs=1e-7
            )
            assert solve_umpu(geom.at(d_hi), 0.05).c1 == pytest.approx(
                x, abs=1e-7
            )


def _plausible_observations(s1, s2, lower, upper):
    """Observations whose conditional CDF at delta=0 spans [1e-4, 1-1e-4]."""
    q = np.array([1e-4, 1e-3, 0.01, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95,
                  0.99, 0.999, 1.0 - 1e-4])
    return cond_quantile(q, 0.0, s1, s2, lower, upper)


def _umau_equation_error(geom, observed, est, alpha, quadrature=False):
    """Why ``est`` misses the size or first-moment equation, or None.

    At the lower endpoint the acceptance region is [c1, observed], at the
    upper one [observed, c2]. The cut c solves the size equation on its
    side of the observation, and the first-moment residual is checked
    relative to sigma12 + |mean|. The kernels are called directly, because
    an endpoint's selection probability may lie below what
    ``ConditionalNormal`` accepts. ``quadrature=True`` evaluates the CDF
    and the moment by ``ConditionalNormal``'s adaptive quadrature instead,
    which does not share the kernels' loss of accuracy as rho nears 1.
    """
    beta = 1.0 - alpha
    args = (geom.sigma1, geom.sigma2, geom.lower, geom.upper)
    span = 40.0 * geom.sigma12
    for delta, side in ((est.lower, "lower"), (est.upper, "upper")):
        law = geom.at(delta) if quadrature else None

        def cdf(t):
            if quadrature:
                return law.cdf(t, method="quadrature")
            return float(cond_cdf(t, delta, *args))

        def moment(a, b):
            if quadrature:
                return law.partial_moment(a, b, method="quadrature")
            return float(cond_partial_moment(a, b, delta, *args))

        f_obs = cdf(observed)
        if side == "lower" and f_obs > beta:
            cut = brentq(lambda c: f_obs - cdf(c) - beta,
                         observed - span, observed, xtol=1e-15 * span)
            a, b = cut, observed
        elif side == "upper" and f_obs < alpha:
            cut = brentq(lambda c: cdf(c) - f_obs - beta,
                         observed, observed + span, xtol=1e-15 * span)
            a, b = observed, cut
        else:
            return f"no acceptance region at the {side} endpoint"
        mean = float(cond_mean(delta, *args))
        resid = moment(a, b) - beta * mean
        if not abs(resid) <= 1e-6 * (geom.sigma12 + abs(mean)):
            return f"moment residual {resid:.3e} at the {side} endpoint"
    return None


def _bounds(s1, kind):
    return (0.0, math.inf) if kind == "one-sided" else (-0.5 * s1, 0.5 * s1)


class TestSigmaRatios:
    """umau across sigma1/sigma2, with one- and two-sided bounds."""

    @pytest.mark.parametrize("kind", ["one-sided", "two-sided"])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 2.0, 10.0, 100.0])
    def test_every_plausible_observation_converges(self, ratio, kind):
        s1, s2 = ratio, 1.0
        lower, upper = _bounds(s1, kind)
        observed = _plausible_observations(s1, s2, lower, upper)
        lo, hi, ok = batch_umau_ci(observed, 0.05, s1, s2, lower, upper)
        assert bool(np.all(ok))
        model = ConditionalNormal(0.0, s1, s2, lower=lower, upper=upper)
        for x in observed:
            est = umau_ci(model, x, 0.05)
            assert _umau_equation_error(model, x, est, 0.05) is None

    @pytest.mark.parametrize("kind", ["one-sided", "two-sided"])
    @pytest.mark.parametrize("ratio", [0.05, 0.1])
    def test_near_degenerate_converges_or_raises(self, ratio, kind):
        # rho >= 0.995: the closed-form kernels lose accuracy, so some
        # elements may fail; none may return an interval that misses its
        # defining equations, by the kernels or by quadrature.
        s1, s2 = ratio, 1.0
        lower, upper = _bounds(s1, kind)
        model = ConditionalNormal(0.0, s1, s2, lower=lower, upper=upper)
        for x in _plausible_observations(s1, s2, lower, upper):
            try:
                est = umau_ci(model, x, 0.05)
            except NumericalError:
                continue
            assert _umau_equation_error(model, x, est, 0.05) is None
            assert _umau_equation_error(
                model, x, est, 0.05, quadrature=True
            ) is None


class TestTostGuard:
    """tost at sigma1/sigma2 where the kernels lose accuracy."""

    @pytest.mark.parametrize("kind", ["one-sided", "two-sided"])
    @pytest.mark.parametrize("ratio", [0.05, 0.1])
    def test_near_degenerate_meets_equations_or_raises(self, ratio, kind):
        # An endpoint whose CDF slope disagrees with the density fails;
        # every returned endpoint meets its tail probability by quadrature,
        # wherever its selection probability lets that law be built.
        s1, s2 = ratio, 1.0
        lower, upper = _bounds(s1, kind)
        model = ConditionalNormal(0.0, s1, s2, lower=lower, upper=upper)
        checked = 0
        for x in _plausible_observations(s1, s2, lower, upper):
            try:
                est = ctost_ci(model, x, 0.05)
            except NumericalError:
                continue
            for delta, tail in ((est.lower, 0.975), (est.upper, 0.025)):
                try:
                    law = model.at(delta)
                except ValueError:
                    continue
                cdf = law.cdf(x, method="quadrature")
                assert abs(cdf - tail) <= 1e-7, (x, delta, cdf)
                checked += 1
        assert checked > 0


#: Fixed example sequence, so the suite stays deterministic.
PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=100, deadline=None, database=None
)


@st.composite
def umau_problems(draw):
    """A geometry with sigma1/sigma2 in [0.2, 100] and selection
    log-probability down to about -20 at delta=0, plus two observations
    at increasing conditional quantiles."""
    s1, s2 = 10.0 ** draw(st.floats(math.log10(0.2), 2.0)), 1.0
    kind = draw(st.sampled_from(["lower", "upper", "two-sided"]))
    start = draw(st.floats(-2.0, 5.9)) * s1
    if kind == "lower":
        lower, upper = start, math.inf
    elif kind == "upper":
        lower, upper = -math.inf, -start
    else:
        lower = start
        upper = start + draw(st.floats(0.1, 3.0)) * s1
    assume(log_norm_prob_range(lower / s1, upper / s1) >= -20.0)
    q1 = draw(st.floats(1e-3, 0.9))
    q2 = q1 + draw(st.floats(0.01, 1.0 - 1e-3 - q1))
    observed = cond_quantile(np.array([q1, q2]), 0.0, s1, s2, lower, upper)
    return s1, s2, lower, upper, observed


class TestUmauProperties:
    """Random geometries and observations: the endpoints solve their
    defining equations, are ordered, and move up with the observation."""

    @PROPERTY_SETTINGS
    @given(umau_problems())
    def test_equations_order_and_monotonicity(self, problem):
        s1, s2, lower, upper, observed = problem
        lo, hi, ok = batch_umau_ci(observed, 0.05, s1, s2, lower, upper)
        assert bool(np.all(ok))
        assert bool(np.all(lo < hi))
        slack = 1e-9 * pooled_sd(s1, s2)
        assert lo[1] >= lo[0] - slack and hi[1] >= hi[0] - slack
        geom = ConditionalNormal(0.0, s1, s2, lower=lower, upper=upper)
        for x, d_lo, d_hi in zip(observed, lo, hi):
            est = IntervalEstimate(d_lo, d_hi, "umau", 0.05)
            assert _umau_equation_error(geom, x, est, 0.05) is None


#: GEOMETRIES plus deep one- and two-sided truncations and extreme
#: sigma1/sigma2.
ROOT_GEOMETRIES = GEOMETRIES + [
    (1.0, 1.0, 4.1, math.inf),
    (1.0, 1.0, 10.0, math.inf),
    (1.0, 1.0, 30.0, math.inf),
    (1.0, 1.0, -math.inf, -25.0),
    (1.0, 1.0, 20.0, 20.5),
    (0.5, 1.0, 12.0, 13.0),
    (0.2, 1.0, 0.0, math.inf),
    (0.2, 1.0, -0.1, 0.1),
    (5.0, 1.0, 0.0, math.inf),
    (5.0, 1.0, -2.5, 2.5),
]


class TestProbitNewton:
    """Quantiles and tost endpoints from the probit-scale Newton."""

    Q = np.array([1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
                  1.0 - 1e-4])

    @pytest.mark.parametrize("s1,s2,lo,up", ROOT_GEOMETRIES)
    def test_quantile_meets_its_probability(self, s1, s2, lo, up):
        x = cond_quantile(self.Q, 0.0, s1, s2, lo, up)
        assert np.max(np.abs(cond_cdf(x, 0.0, s1, s2, lo, up) - self.Q)) <= 1e-13

    @pytest.mark.parametrize("s1,s2,lo,up", ROOT_GEOMETRIES)
    def test_tost_matches_chandrupatla_reference(self, s1, s2, lo, up):
        observed = cond_quantile(self.Q, 0.0, s1, s2, lo, up)
        lo_, hi_, ok = batch_ctost_ci(observed, 0.05, s1, s2, lo, up)
        ref_lo, ref_hi, ref_ok = reference_ctost_ci(
            observed, 0.05, s1, s2, lo, up
        )
        assert bool(np.all(ok)) and bool(np.all(ref_ok))
        sigma12 = pooled_sd(s1, s2)
        assert np.max(np.abs(lo_ - ref_lo)) <= 2e-10 * sigma12
        assert np.max(np.abs(hi_ - ref_hi)) <= 2e-10 * sigma12


class TestProbitNewtonSafeguards:
    """One case per safeguard; each fails with that safeguard taken out."""

    def test_saturated_cdf_steps_towards_the_root(self):
        # The untruncated start of the 0.999 quantile lies where the CDF
        # rounds to 1, so the probit step is undefined there.
        q = np.array([1e-3, 0.999])
        args = (0.0, 0.2, 1.0, 2.0, np.inf)
        start = cond_mean(*args) + ndtri(q) * pooled_sd(0.2, 1.0)
        assert cond_cdf(start[1], *args) == 1.0
        x = cond_quantile(q, *args)
        assert np.max(np.abs(cond_cdf(x, *args) - q)) <= 1e-13

    def test_wrong_sign_slope_bisects(self):
        # Near F = 1 the slope M(-inf, x) - F mu cancels and flips sign;
        # plain Newton cycles between two points.
        observed = np.linspace(-15.0, -13.0, 9)
        lo, hi, ok = batch_ctost_ci(observed, 0.05, 1.0, 1.0, -np.inf, -25.0)
        ref_lo, ref_hi, _ = reference_ctost_ci(
            observed, 0.05, 1.0, 1.0, -np.inf, -25.0
        )
        assert bool(np.all(ok))
        assert np.max(np.abs(lo - ref_lo)) <= 2e-10 * pooled_sd(1.0, 1.0)
        assert np.max(np.abs(hi - ref_hi)) <= 2e-10 * pooled_sd(1.0, 1.0)

    def test_step_onto_a_bracket_end_bisects(self):
        # From saturation the iterates move one pooled sd at a time, and a
        # clipped Newton step then lands exactly on an earlier iterate;
        # accepting it repeats the same two points forever.
        q = np.array([1e-3, 0.999])
        x = cond_quantile(q, 0.0, 0.05, 1.0, -0.025, 0.025)
        assert np.max(np.abs(cond_cdf(x, 0.0, 0.05, 1.0, -0.025, 0.025) - q)) <= 1e-13

    def test_convergence_needs_a_small_residual(self):
        # A misreported slope makes the first Newton step tiny and the
        # next one large; the large step is no stall at the rounding floor.
        def cdf_and_pdf(x, i):
            return ndtr(x), np.where(x == 3.0, 1e9, norm_pdf(x))

        root, ok = probit_newton(cdf_and_pdf, np.array([3.0]), np.array([0.5]),
                                 1.0, 1.0, xtol=1e-13)
        assert bool(ok[0]) and abs(root[0]) <= 1e-12
