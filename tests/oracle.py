"""Slow reference evaluations of a ``ConditionalNormal`` law for the tests.

The CDF and the truncated first moment are adaptive quadratures
(``scipy.integrate.quad``) of the law's density; the quantile is a
bracketed ``brentq`` root of its CDF. They share no code with the closed
forms, the deep-tail Gauss-Legendre rule or the probit-scale Newton of
``enrichci._kernels``, so they serve as the independent oracle.
"""

import math

from scipy import integrate
from scipy.optimize import brentq

from enrichci import NumericalError


def _support(m):
    # Interval carrying all but ~1e-25 of the conditional mass.
    center = m.mean()
    return center - 12.0 * m.sigma12, center + 12.0 * m.sigma12


def quad_cdf(m, x):
    """P(pooled estimate <= x) under ``m`` by adaptive quadrature."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    lo, hi = _support(m)
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    val, err = integrate.quad(m.pdf, lo, x, epsabs=1e-12, epsrel=1e-10, limit=200)
    if err > 1e-9:
        raise NumericalError(f"cdf quadrature error estimate {err:.2e} too large")
    return min(max(val, 0.0), 1.0)


def quad_partial_moment(m, a, b):
    """Integral of t * pdf(t) over (a, b) under ``m`` by adaptive quadrature."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        raise ValueError("bounds must not be NaN")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    lo, hi = _support(m)
    a_eff, b_eff = max(a, lo), min(b, hi)
    if a_eff >= b_eff:
        return 0.0
    val, err = integrate.quad(
        lambda t: t * m.pdf(t), a_eff, b_eff,
        epsabs=1e-12, epsrel=1e-10, limit=200,
    )
    if err > 1e-10:
        raise NumericalError(
            f"partial moment quadrature error estimate {err:.2e} too large"
        )
    return val


def brentq_quantile(m, q):
    """Root in x of m.cdf(x) = q: geometric bracket expansion from the
    untruncated mean, then ``brentq``."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    cdf = m.cdf
    step = m.sigma12
    lo, hi = m.delta - step, m.delta + step
    for _ in range(60):
        if cdf(lo) <= q:
            break
        lo -= step
        step *= 2.0
    else:
        raise NumericalError("quantile bracket expansion failed (lower)")
    step = m.sigma12
    for _ in range(60):
        if cdf(hi) >= q:
            break
        hi += step
        step *= 2.0
    else:
        raise NumericalError("quantile bracket expansion failed (upper)")
    return brentq(lambda x: cdf(x) - q, lo, hi, xtol=1e-13, rtol=8.9e-16)
