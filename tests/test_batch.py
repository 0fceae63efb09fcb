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
from enrichci import _kernels, batch
from enrichci._kernels import (
    CondLaw,
    cond_quantile,
    flat_broadcast,
    pooled_sd,
    probit_newton,
)
from enrichci._normal import bvn_cdf, log_norm_prob_range, norm_pdf
from enrichci.batch import (
    batch_ctost_ci,
    batch_intervals,
    batch_naive_ci,
    batch_solve_umpu,
    batch_umau_ci,
)

from oracle import brentq_quantile, quad_cdf, quad_partial_moment


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
        law = CondLaw(delta, sigma1, sigma2, lower[i], upper[i])
        return law.cdf(observed[i]) - q[i]

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
        return brentq_quantile(model, min(model.cdf(c1) + beta, 1.0 - 1e-15))

    def residual(c1):
        return model.partial_moment(c1, upper_cut(c1)) - target

    lo = brentq_quantile(model, 1e-8)
    hi = brentq_quantile(model, alpha * (1.0 - 1e-8))
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

    @pytest.mark.parametrize("warm", ["c1", "c2"])
    def test_lone_warm_start_rejected(self, warm):
        with pytest.raises(ValueError, match="both cuts"):
            batch_solve_umpu(0.0, 0.05, 1.0, 1.0, 0.5, np.inf, **{warm: 0.6})


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
    and the moment by the adaptive quadrature of ``oracle`` instead,
    which does not share the kernels' loss of accuracy as rho nears 1.
    """
    beta = 1.0 - alpha
    args = (geom.sigma1, geom.sigma2, geom.lower, geom.upper)
    span = 40.0 * geom.sigma12
    for delta, side in ((est.lower, "lower"), (est.upper, "upper")):
        law = geom.at(delta) if quadrature else None
        kernel = CondLaw(delta, *args)

        def cdf(t):
            if quadrature:
                return quad_cdf(law, t)
            return float(kernel.cdf(t))

        def moment(a, b):
            if quadrature:
                return quad_partial_moment(law, a, b)
            return float(kernel.partial_moments(a, b)[0])

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
        mean = float(kernel.mean)
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
                cdf = quad_cdf(law, x)
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


def _start_problems(n, seed=0):
    """``n`` fixed problems: sigma1/sigma2 log-uniform in [0.03, 30];
    lower-only, upper-only and two-sided bounds starting from 2 sigma1
    below to 5 sigma1 above delta = 0; one observation each at a
    conditional quantile in [1e-3, 1 - 1e-3]. Returns (sigma1, lower,
    upper, observed) with sigma2 = 1."""
    rng = np.random.default_rng(seed)
    s1 = 10.0 ** rng.uniform(math.log10(0.03), math.log10(30.0), n)
    kind = rng.integers(0, 3, n)  # lower-only, upper-only, two-sided
    start = rng.uniform(-2.0, 5.0, n) * s1
    width = rng.uniform(0.1, 3.0, n) * s1
    lower = np.where(kind == 1, -np.inf, start)
    upper = np.where(kind == 0, np.inf,
                     np.where(kind == 1, -start, start + width))
    q = rng.uniform(1e-3, 1.0 - 1e-3, n)
    return s1, lower, upper, cond_quantile(q, 0.0, s1, 1.0, lower, upper)


class TestUmauStart:
    """The cut starts at a normal quantile of the conditional law, with
    its steps clipped to the law's sd: every endpoint of 200 fixed
    problems converges and meets its defining equations."""

    def test_every_endpoint_converges(self):
        s1, lower, upper, observed = _start_problems(200)
        lo, hi, ok = batch_umau_ci(observed, 0.05, s1, 1.0, lower, upper)
        assert bool(np.all(ok))
        for row in zip(s1, lower, upper, observed, lo, hi):
            geom = ConditionalNormal(0.0, row[0], 1.0, lower=row[1],
                                     upper=row[2])
            est = IntervalEstimate(row[4], row[5], "umau", 0.05)
            assert _umau_equation_error(geom, row[3], est, 0.05) is None, row


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
        law = CondLaw(0.0, s1, s2, lo, up)
        assert np.max(np.abs(law.cdf(x) - self.Q)) <= 1e-13

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
        # The untruncated start of the 0.9999 quantile lies where the CDF
        # rounds to 1 (1 - F is 2e-19), so the probit step is undefined
        # there. At the 0.999 start 1 - F is 8.9e-16, which an exact law
        # does not round away.
        q = np.array([1e-3, 0.9999])
        args = (0.0, 0.2, 1.0, 2.0, np.inf)
        law = CondLaw(*args)
        start = law.mean + ndtri(q) * pooled_sd(0.2, 1.0)
        assert law.cdf(start[1]) == 1.0
        x = cond_quantile(q, *args)
        assert np.max(np.abs(law.cdf(x) - q)) <= 1e-13

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
        law = CondLaw(0.0, 0.05, 1.0, -0.025, 0.025)
        assert np.max(np.abs(law.cdf(x) - q)) <= 1e-13

    @pytest.mark.parametrize("q,delta,s1,s2,lower,upper", [
        (1e-06, 1.2894953101722817, 1.5439661866619299, 0.8506441749900506,
         6.6388921236636556, 8.211501562161601),
        (0.999999, -0.5774516544728563, 2.7623321216911125, 2.304311125303496,
         9.273533616544212, math.inf),
        (1e-06, 1.4409098222708607, 2.340936365604448, 1.118514370879216,
         9.715529873412555, math.inf),
    ])
    def test_collapsed_bracket_converges(self, q, delta, s1, s2, lower, upper):
        # Deep in the tail the CDF is noisy at the rounding level: the
        # bracket shrinks to a few ulps while Newton keeps pointing out of
        # it, and bisection revisits the same point.
        args = (delta, s1, s2, lower, upper)
        x = cond_quantile(q, *args)
        assert np.isfinite(x)
        assert abs(CondLaw(*args).cdf(x) - q) <= 1e-11

    def test_convergence_needs_a_small_residual(self):
        # A misreported slope makes the first Newton step tiny and the
        # next one large; the large step is no stall at the rounding floor.
        def cdf_and_pdf(x, i):
            return ndtr(x), np.where(x == 3.0, 1e9, norm_pdf(x))

        root, ok = probit_newton(cdf_and_pdf, np.array([3.0]), np.array([0.5]),
                                 1.0, 1.0, xtol=1e-13)
        assert bool(ok[0]) and abs(root[0]) <= 1e-12


class TestOneEvaluationPerIteration:
    """Each solver iteration evaluates the conditional law once: one
    ``CondLaw`` whose CDF is one call, at every point the iteration needs,
    and one ``bvn_cdf`` call for one or two finite bounds. Besides the
    iterations, a solver may build one law for its starting mean and one
    for each slope check."""

    @pytest.fixture(params=[np.inf, 3.0], ids=["one-sided", "two-sided"])
    def args(self, request):
        return (1.0, 1.0, 0.5, request.param)

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"laws": 0, "cdf": 0, "bvn": 0, "newton": 0, "points": set()}
        law, bvn, newton = _kernels.CondLaw, _kernels.bvn_cdf, probit_newton
        init, cdf = law.__init__, law.cdf

        def counted_init(self, *args):
            counts["laws"] += 1
            init(self, *args)

        def counted_cdf(self, x):
            # The stacking axes in front of the law's element axis.
            counts["cdf"] += 1
            counts["points"].add(np.shape(x)[:np.ndim(x) - self.delta.ndim])
            return cdf(self, x)

        def counted_bvn(*args):
            counts["bvn"] += 1
            return bvn(*args)

        def counted_newton(f, *args, **kwargs):
            def step(x, i):
                counts["newton"] += 1
                return f(x, i)
            return newton(step, *args, **kwargs)

        monkeypatch.setattr(law, "__init__", counted_init)
        monkeypatch.setattr(law, "cdf", counted_cdf)
        monkeypatch.setattr(_kernels, "bvn_cdf", counted_bvn)
        for module in (_kernels, batch):
            monkeypatch.setattr(module, "probit_newton", counted_newton)
        return counts

    def _assert_one_per_iteration(self, counts, starts):
        assert counts["cdf"] > 0
        assert counts["laws"] == counts["cdf"] + starts
        assert counts["bvn"] == counts["cdf"]

    def test_cond_quantile(self, counts, args):
        cond_quantile(np.array([0.025, 0.5, 0.975]), 0.0, *args)
        self._assert_one_per_iteration(counts, starts=1)
        assert counts["cdf"] == counts["newton"]

    def test_batch_ctost_ci(self, counts, args):
        assert bool(np.all(batch_ctost_ci(np.array([0.4, 1.2]), 0.05,
                                          *args)[2]))
        self._assert_one_per_iteration(counts, starts=0)
        assert counts["cdf"] == counts["newton"] + 1

    def test_batch_umau_ci(self, counts, args):
        seeds = batch_ctost_ci(np.array([0.4, 1.2]), 0.05, *args)
        counts.update(laws=0, cdf=0, bvn=0, newton=0, points=set())
        ok = batch_umau_ci(np.array([0.4, 1.2]), 0.05, *args,
                           seeds=seeds)[2]
        assert bool(np.all(ok))
        # The joint Newton (the CDF at the cut and the observation), whose
        # first iteration reuses the law the cut starts from, then the
        # slope check at both. No quantile is solved.
        self._assert_one_per_iteration(counts, starts=0)
        assert counts["cdf"] > 1 and counts["newton"] == 0
        assert counts["points"] == {(2,), (2, 2)}

    def test_batch_solve_umpu(self, counts, args):
        ok = batch_solve_umpu(np.array([0.0, 0.7]), 0.05, *args,
                              c1=np.array([-0.4, -0.1]), c2=1.8)[2]
        assert bool(np.all(ok))
        self._assert_one_per_iteration(counts, starts=1)
        assert counts["points"] == {(2,)}


class TestPerElementGeometry:
    """Each element carries its own sigma1, sigma2 and bounds: one stacked
    call returns, bit for bit, what one call per geometry returns."""

    SIGMAS = [(1.0, 1.0), (0.6, 1.3)]
    # (lower, upper, observations): one- and two-sided, untruncated, a
    # bound 3 sigma1 out, whose endpoint solves reach the deep-tail path,
    # and deep one- and two-sided bounds, where umau's F, M1 and M2 come
    # from one deep-tail quadrature per point.
    CASES = [
        (0.0, math.inf, (0.1, 0.8, 1.7)),
        (-math.inf, 0.4, (-1.1, 0.0, 0.3)),
        (-0.3, 0.9, (-0.2, 0.3, 0.8)),
        (-math.inf, math.inf, (-0.5, 2.0)),
        (3.0, math.inf, (2.3, 3.1, 3.8)),
        (4.1, math.inf, (3.6,)),
        (4.1, 4.6, (3.9,)),
    ]

    def test_stacked_call_equals_per_geometry_calls(self, monkeypatch):
        rows = [(x, s1, s2, lo, up) for s1, s2 in self.SIGMAS
                for lo, up, xs in self.CASES for x in xs]
        order = np.random.default_rng(11).permutation(len(rows))
        columns = np.array([rows[i] for i in order]).T

        # Kernel elements on the closed-form and on the deep-tail path, and
        # deep (element, point) pairs whose quadrature the CDF and the
        # partial moments of one iteration share.
        paths = np.zeros(2, dtype=int)
        shared = np.zeros(1, dtype=int)
        deep_moments = _kernels.CondLaw._deep_moments
        deep_rule = _kernels._deep_partial_moment

        def counted(law, x, shape):
            deep = np.broadcast_to(law.deep, shape)
            paths[:] += np.bincount(deep.ravel(), minlength=2)
            shared[:] += np.count_nonzero(np.broadcast_to(x, shape)[deep]
                                          != -np.inf)
            return deep_moments(law, x, shape)

        def counted_rule(x, *args):
            shared[:] -= x.size
            return deep_rule(x, *args)

        monkeypatch.setattr(_kernels.CondLaw, "_deep_moments", counted)
        monkeypatch.setattr(_kernels, "_deep_partial_moment", counted_rule)
        methods = ("naive", "umau", "tost")
        stacked = batch_intervals(columns[0], 0.05, *columns[1:], methods)
        monkeypatch.undo()
        assert paths.min() > 0 and shared[0] > 0
        for m in methods:
            assert bool(np.all(stacked[m][2])), m

        for s1, s2 in self.SIGMAS:
            for lo, up, _ in self.CASES:
                at = np.flatnonzero((columns[1] == s1) & (columns[3] == lo)
                                    & (columns[4] == up))
                alone = batch_intervals(columns[0][at], 0.05, s1, s2, lo, up,
                                        methods)
                for m in methods:
                    for got, want in zip(stacked[m], alone[m]):
                        assert np.array_equal(got[at], want), (s1, lo, up, m)

    def test_untruncated_elements_are_naive(self):
        out = batch_intervals([0.2, 0.2], 0.05, 1.0, 1.0, [-np.inf, 0.0],
                              np.inf, ("naive", "umau", "tost"))
        for m in ("umau", "tost"):
            assert out[m][0][0] == out["naive"][0][0]
            assert out[m][1][0] == out["naive"][1][0]
            assert out[m][0][1] < out["naive"][0][1]

    def test_bvn_cdf_array_rho(self):
        rng = np.random.default_rng(4)
        h = np.concatenate([rng.normal(0.0, 2.0, 40), [0.0, -np.inf, np.inf]])
        k = np.concatenate([rng.normal(0.0, 2.0, 40), [0.0, 1.0, -0.5]])
        rho = rng.uniform(-0.999, 0.999, h.size)
        got = bvn_cdf(h, k, rho)
        want = [bvn_cdf(a, b, float(r)) for a, b, r in zip(h, k, rho)]
        assert np.array_equal(got, want)
        for bad in (1.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="correlation"):
                bvn_cdf(h[:2], k[:2], [0.5, bad])
