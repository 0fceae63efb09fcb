"""Numerically stable normal and bivariate-normal building blocks.

All functions broadcast over numpy arrays and accept +/-inf arguments
where a limit exists.
"""

import numpy as np
from scipy.special import log_ndtr, ndtr, owens_t

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def norm_pdf(z):
    z = np.asarray(z, dtype=float)
    finite = np.isfinite(z)
    zf = np.where(finite, z, 0.0)
    return np.where(finite, np.exp(-0.5 * zf * zf) / _SQRT_2PI, 0.0)


def norm_prob_range(a, b):
    """P(a < Z < b) for standard normal Z, stable in either tail.

    When both endpoints sit in the upper tail the complementary form
    Phi(-a) - Phi(-b) avoids the 1 - 1 cancellation of the direct form.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    upper_tail = (a > 0.0)
    direct = ndtr(b) - ndtr(a)
    flipped = ndtr(-a) - ndtr(-b)
    return np.maximum(np.where(upper_tail, flipped, direct), 0.0)


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


def _owens_t_ratio(x, num, den):
    """Owen's T(x, num/den) with the correct limit as den -> 0."""
    x = np.asarray(x, dtype=float)
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    deg = (den == 0.0)
    safe_den = np.where(deg, 1.0, den)
    # A subnormal den overflows the ratio to +/-inf, where owens_t takes
    # the same limit.
    with np.errstate(over="ignore"):
        a = num / safe_den
    t = owens_t(x, np.where(deg, 0.0, a))
    # T(x, +/-inf) = +/- (1 - Phi(|x|)) / 2
    t_inf = np.sign(num) * 0.5 * ndtr(-np.abs(x))
    return np.where(deg, t_inf, t)


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Owen (1956) tetrachoric reduction through Owen's T function. ``rho``
    broadcasts with h and k and must lie strictly inside (-1, 1); h and k
    may be +/-inf.
    """
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float),
                               np.asarray(k, dtype=float))
    rho = np.asarray(rho, dtype=float)
    if not (np.abs(rho) < 1.0).all():
        raise ValueError(f"correlation must be in (-1, 1), got {rho}")
    root = np.sqrt(1.0 - rho * rho)

    hf = np.where(np.isfinite(h), h, 0.0)
    kf = np.where(np.isfinite(k), k, 0.0)
    t1 = _owens_t_ratio(hf, kf - rho * hf, hf * root)
    t2 = _owens_t_ratio(kf, hf - rho * kf, kf * root)
    prod = hf * kf
    delta = np.where((prod < 0.0) | ((prod == 0.0) & (hf + kf < 0.0)), 0.5, 0.0)
    core = 0.5 * (ndtr(hf) + ndtr(kf)) - t1 - t2 - delta
    # Both coordinates at the origin: closed form.
    origin = (hf == 0.0) & (kf == 0.0)
    core = np.where(origin, 0.25 + np.arcsin(rho) / (2.0 * np.pi), core)
    core = np.clip(core, 0.0, 1.0)

    # Infinite-argument limits.
    core = np.where(k == np.inf, ndtr(h), core)
    core = np.where(h == np.inf, ndtr(k), core)
    core = np.where((h == -np.inf) | (k == -np.inf), 0.0, core)
    return core
