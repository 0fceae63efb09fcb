"""Vectorized solver paths must agree with scalar reference solves.

The references are bracketed scalar ``brentq`` solves: on the truncated
first moment for the acceptance region, and on the conditional CDF or
the critical values for the interval endpoints.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from enrichci import (
    ConditionalNormal,
    CriticalPair,
    NumericalError,
    solve_umpu,
    umau_ci,
)
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
