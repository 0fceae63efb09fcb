"""Slow reference evaluations of a ``ConditionalNormal`` law for the tests.

The CDF and the truncated first moment are adaptive quadratures
(``scipy.integrate.quad``) of the law's density; the quantile is a
bracketed ``brentq`` root of its CDF. ``mp_integrals`` integrates the
density in the pooled-estimate variable at 40 significant digits
(``mpmath``), with breakpoints at the truncation bounds, and gives F, M1
and M2 where double-precision quadrature cannot: far in a tail, and where
the selection factor's edges are much narrower than the law. None of them
shares code with the closed forms, the stage-1-space deep-tail quadrature
or the probit-scale Newton of ``enrichci._kernels``, so they serve as the
independent oracle.
"""

import math

import mpmath
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import log_ndtr

from enrichci import NumericalError


def _support(m):
    # Interval carrying all but ~1e-25 of the conditional mass.
    center = m.mean()
    return center - 12.0 * m.sigma12, center + 12.0 * m.sigma12


def _log_prob_range(a, b):
    """log P(a < Z < b) for standard normal Z, worked in the lower tail."""
    if a > -b:
        a, b = -b, -a
    log_b = float(log_ndtr(b))
    return log_b + math.log1p(-math.exp(float(log_ndtr(a)) - log_b))


def _density(m):
    """The conditional density of ``m`` as a function of a float, written
    out with scalar math: phi((t - delta) / sigma12) / sigma12 times
    P(lower < X1 < upper | t) over the selection probability, in logs."""
    s12 = m.sigma12
    s = s12 * m.sigma1 / m.sigma2  # sd of the stage 1 estimate given t
    log_norm = (math.log(s12) + 0.5 * math.log(2.0 * math.pi)
                + _log_prob_range((m.lower - m.delta) / m.sigma1,
                                  (m.upper - m.delta) / m.sigma1))

    def pdf(t):
        z = (t - m.delta) / s12
        return math.exp(-0.5 * z * z - log_norm + _log_prob_range(
            (m.lower - t) / s, (m.upper - t) / s))

    return pdf


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
    val, err = integrate.quad(_density(m), lo, x, epsabs=1e-12, epsrel=1e-10,
                              limit=200)
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
    pdf = _density(m)
    val, err = integrate.quad(
        lambda t: t * pdf(t), a_eff, b_eff,
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


def _mp_prob_range(a, b):
    """P(a < Z < b) for standard normal Z, in the tail where it is small."""
    if a > 0:
        return mpmath.ncdf(-a) - mpmath.ncdf(-b)
    return mpmath.ncdf(b) - mpmath.ncdf(a)


def mp_moments(delta, sigma1, sigma2, lower, upper, a, b, orders=(0, 1, 2)):
    """(F, M1, M2) over (a, b), or the ``orders`` of them: the integrals of
    t**k times the conditional density, as ``mpmath`` numbers, from a
    40-digit tanh-sinh quadrature in the pooled-estimate variable t.

    The density is phi((t - delta) / sigma12) / sigma12 times the selection
    factor P(lower < X1 < upper | t) over the selection probability. The
    factor's edges have width s = sigma1**2 / hypot(sigma1, sigma2) at
    each finite bound; the breakpoints sit there and around the law's
    mean, which is far narrower than sigma12 under deep truncation.
    Outside 60 standard deviations of the mean the law carries no mass at
    this precision.
    """
    inf = mpmath.inf
    with mpmath.workdps(40):
        delta, sigma1, sigma2 = (mpmath.mpf(v) for v in (delta, sigma1,
                                                          sigma2))
        lower, upper = (mpmath.mpf(v) if math.isfinite(v) else
                        (inf if v > 0 else -inf) for v in (lower, upper))
        hyp = mpmath.sqrt(sigma1**2 + sigma2**2)
        sigma12, s = sigma1 * sigma2 / hyp, sigma1**2 / hyp
        rho2 = (sigma2 / hyp)**2
        a1, b1 = (lower - delta) / sigma1, (upper - delta) / sigma1
        den = _mp_prob_range(a1, b1)
        # Stage 1 moments: the pooled estimate is delta + rho2 sigma1 U plus
        # independent noise, U the standard normal truncated to (a1, b1).
        pa = mpmath.npdf(a1) if a1 != -inf else 0
        pb = mpmath.npdf(b1) if b1 != inf else 0
        mean_u = (pa - pb) / den
        second_u = 1 + ((a1 * pa if pa else 0) - (b1 * pb if pb else 0)) / den
        mean = delta + rho2 * sigma1 * mean_u
        sd = mpmath.sqrt(rho2**2 * sigma1**2 * (second_u - mean_u**2)
                         + sigma12**2 * (1 - rho2))
        lo_end, hi_end = mean - 60 * sd, mean + 60 * sd
        lo = max(mpmath.mpf(a) if a != -math.inf else -inf, lo_end)
        hi = min(mpmath.mpf(b) if b != math.inf else inf, hi_end)
        if lo >= hi:
            return (mpmath.mpf(0),) * len(orders)
        points = {mean + j * sd for j in (-10, -3, -1, 0, 1, 3, 10)}
        for bound in (lower, upper):
            if bound not in (inf, -inf):
                points |= {bound + j * s for j in (-30, -10, -3, 0, 3, 10)}
        points = [lo, *sorted(p for p in points if lo < p < hi), hi]

        def density(t):
            factor = _mp_prob_range((lower - t) / s, (upper - t) / s)
            return mpmath.npdf((t - delta) / sigma12) * factor / (sigma12
                                                                  * den)

        return tuple(mpmath.quad(lambda t, k=k: t**k * density(t), points)
                     for k in orders)


def mp_integrals(*args, **kwargs):
    """``mp_moments`` as floats."""
    return tuple(float(v) for v in mp_moments(*args, **kwargs))
