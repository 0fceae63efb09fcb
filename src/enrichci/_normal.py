"""Numerically stable normal and bivariate-normal building blocks.

All functions broadcast over numpy arrays and accept +/-inf arguments
where a limit exists. ``bvn_cdf`` makes one ``owens_t`` call for both
terms of every entry and takes its den -> 0 and infinite limits by index,
only where some entry needs them. ``norm_prob_range`` evaluates one form.
"""

import numpy as np
from scipy.special import log_ndtr, ndtr, owens_t

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def norm_pdf(z):
    """The standard normal density: 0 at +/-inf, NaN at NaN."""
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def norm_prob_range(a, b):
    """P(a < Z < b) for standard normal Z, stable in either tail.

    When both endpoints sit in the upper tail the complementary form
    Phi(-a) - Phi(-b) avoids the 1 - 1 cancellation of the direct form;
    each element evaluates only the form it returns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    flip = a > 0.0
    return np.maximum(ndtr(np.where(flip, -a, b)) - ndtr(np.where(flip, -b, a)), 0.0)


def log_norm_prob_range(a, b):
    """log P(a < Z < b), stable arbitrarily far into either tail."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # Work in the lower tail where log_ndtr is accurate; the comparison
    # form avoids inf - inf for doubly infinite ranges.
    flip = a > -b
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    log_hi = log_ndtr(hi)
    log_lo = log_ndtr(lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where(log_lo == -np.inf, 0.0, np.exp(log_lo - log_hi))
        out = log_hi + np.log1p(-diff)
    return out


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Owen (1956) tetrachoric reduction through Owen's T function. ``rho``
    broadcasts with h and k and must lie strictly inside (-1, 1); h and k
    may be +/-inf, and a NaN h or k gives NaN.
    """
    rho = np.asarray(rho, dtype=float)
    inside = np.abs(rho) < 1.0
    if not inside.all():
        at = tuple(np.argwhere(~inside)[0].tolist())
        raise ValueError(f"correlation must be in (-1, 1), got "
                         f"{rho[at]}" + (f" at index {at}" if at else ""))
    # Row 0 holds h and row 1 holds k, broadcast with rho.
    hk = np.empty((2, *np.broadcast(h, k, rho).shape))
    hk[0], hk[1] = h, k
    finite = np.isfinite(hk).all()
    x = hk if finite else np.where(np.isfinite(hk), hk, 0.0)
    # T(h, (k - rho h) / (h root)) and T(k, (h - rho k) / (k root)).
    num = x[::-1] - rho * x
    den = x * np.sqrt(1.0 - rho * rho)
    # A subnormal den overflows the ratio to +/-inf, where owens_t takes
    # the same limit.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = owens_t(x, num / den)
    if not den.all():
        at = den == 0.0  # T(x, +/-inf) = +/- (1 - Phi(|x|)) / 2
        t[at] = np.sign(num[at]) * 0.5 * ndtr(-np.abs(x[at]))
    phi = ndtr(x)
    prod = x[0] * x[1]
    core = 0.5 * (phi[0] + phi[1]) - t[0] - t[1] - 0.5 * (prod < 0.0)
    if not prod.all():
        # On an axis the other coordinate decides; at the origin, closed form.
        core = core - 0.5 * ((prod == 0.0) & (x[0] + x[1] < 0.0))
        origin = (x[0] == 0.0) & (x[1] == 0.0)
        core = np.where(origin, 0.25 + np.arcsin(rho) / (2.0 * np.pi), core)
    core = np.minimum(np.maximum(core, 0.0), 1.0)
    if finite:
        return core
    # Infinite-argument limits, by index: Phi(k) at h = inf, 0 at -inf;
    # NaN at a NaN argument.
    out, (h, k) = np.asarray(core).reshape(-1), hk.reshape(2, -1)
    for at, other in ((k == np.inf, h), (h == np.inf, k)):
        out[at] = ndtr(other[at])
    out[(h == -np.inf) | (k == -np.inf)] = 0.0
    out[np.isnan(h) | np.isnan(k)] = np.nan
    return out.reshape(hk.shape[1:])
