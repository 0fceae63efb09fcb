"""Array-parallel solvers for acceptance regions and interval endpoints.

Whole branches of simulated trials share the truncation geometry
(``sigma1``/``sigma2`` fixed, per-replicate bounds and observations), so
the exact-test constructions are solved for all replicates at once:
damped Newton for the two moment constraints of the acceptance region and
one bracketed root-finder (``_kernels.monotone_root``) for the test
inversion in the effect parameter. Elements that fail to converge are
reported through an ``ok`` mask.
"""

import numpy as np
from scipy.special import ndtri

from ._kernels import (
    cond_cdf,
    cond_mean,
    cond_partial_moment,
    cond_pdf,
    cond_quantile,
    flat_broadcast,
    monotone_root,
    pooled_sd,
)


def batch_solve_umpu(delta0, alpha, sigma1, sigma2, lower, upper,
                     c1=None, c2=None, max_iter=60, tol=1e-10):
    """Solve the size and first-moment constraints for the acceptance region.

    Returns (c1, c2, ok). Warm starts may be passed through ``c1``/``c2``.
    """
    shape, (delta0, lower, upper) = flat_broadcast(delta0, lower, upper)
    sigma12 = pooled_sd(sigma1, sigma2)
    beta = 1.0 - alpha

    if c1 is None or c2 is None:
        tails = [[0.5 * alpha], [1.0 - 0.5 * alpha]]
        c1, c2 = cond_quantile(tails, delta0, sigma1, sigma2, lower, upper)
    c1 = np.array(np.broadcast_to(c1, delta0.shape), dtype=float).copy()
    c2 = np.array(np.broadcast_to(c2, delta0.shape), dtype=float).copy()

    mean = cond_mean(delta0, sigma1, sigma2, lower, upper)
    target = beta * mean
    tol1 = tol
    tol2 = tol * (sigma12 + np.abs(mean))
    max_step = 3.0 * sigma12

    active = np.ones(delta0.shape, dtype=bool)
    ok = np.zeros(delta0.shape, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        d, lo, up = delta0[idx], lower[idx], upper[idx]
        a, b = c1[idx], c2[idx]
        fa = cond_cdf(a, d, sigma1, sigma2, lo, up)
        fb = cond_cdf(b, d, sigma1, sigma2, lo, up)
        g1 = fb - fa - beta
        g2 = cond_partial_moment(
            a, b, d, sigma1, sigma2, lo, up, cdf_a=fa, cdf_b=fb
        ) - target[idx]
        conv = (np.abs(g1) <= tol1) & (np.abs(g2) <= tol2[idx])
        pa = cond_pdf(a, d, sigma1, sigma2, lo, up)
        pb = cond_pdf(b, d, sigma1, sigma2, lo, up)
        det = pa * pb * (a - b)
        bad = ~np.isfinite(det) | (det == 0.0) | ~np.isfinite(g1) | ~np.isfinite(g2)
        det = np.where(det == 0.0, 1.0, det)
        with np.errstate(divide="ignore", invalid="ignore"):
            da = (-b * pb * g1 + pb * g2) / det
            db = (-a * pa * g1 + pa * g2) / det
        da = np.clip(da, -max_step, max_step)
        db = np.clip(db, -max_step, max_step)
        frozen = conv | bad
        a_new = np.where(frozen, a, a + da)
        b_new = np.where(frozen, b, b + db)
        # Keep the pair ordered; collapse toward the midpoint if crossed.
        crossed = a_new >= b_new
        mid = 0.5 * (a_new + b_new)
        gap = 1e-6 * sigma12
        a_new = np.where(crossed, mid - gap, a_new)
        b_new = np.where(crossed, mid + gap, b_new)

        c1[idx] = a_new
        c2[idx] = b_new
        ok[idx[conv]] = True
        active[:] = False
        active[idx[~frozen]] = True
    return c1.reshape(shape), c2.reshape(shape), ok.reshape(shape)


def _critical_value(delta, alpha, sigma1, sigma2, lower, upper, side, warm,
                    tol=1e-10):
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


def batch_umau_endpoint(observed, alpha, sigma1, sigma2, lower, upper, side,
                        center, tol_scale=1.0):
    """One endpoint of the exact-test inversion, per element.

    ``side='lower'`` solves C2(delta)=observed; ``side='upper'`` solves
    C1(delta)=observed. Both critical values are strictly increasing in
    delta. ``center`` seeds a bracket of +/-0.75 pooled sd (the matching
    equal-tailed endpoint is an excellent guess). Returns (endpoint, ok).
    """
    shape, (observed, lower, upper, center) = flat_broadcast(
        observed, lower, upper, center
    )
    sigma12 = pooled_sd(sigma1, sigma2)

    warm = [observed - 2.0 * sigma12, observed + 2.0 * sigma12]
    newton_tol = 1e-10 * tol_scale

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
        xatol=1e-9 * sigma12 * tol_scale, fatol=1e-10 * sigma12 * tol_scale,
    )
    return root.reshape(shape), ok.reshape(shape)


def batch_umau_ci(observed, alpha, sigma1, sigma2, lower, upper,
                  tol_scale=1.0, seeds=None):
    # Equal-tailed endpoints are cheap and land within a fraction of a
    # pooled sd of the exact-test endpoints; use them as bracket seeds.
    if seeds is None:
        seed_lo, seed_hi, seed_ok = batch_ctost_ci(
            observed, alpha, sigma1, sigma2, lower, upper
        )
    else:
        seed_lo, seed_hi, seed_ok = seeds
    seed_lo = np.where(seed_ok, seed_lo, np.asarray(observed, dtype=float))
    seed_hi = np.where(seed_ok, seed_hi, np.asarray(observed, dtype=float))
    lo, ok_lo = batch_umau_endpoint(
        observed, alpha, sigma1, sigma2, lower, upper, side="lower",
        center=seed_lo, tol_scale=tol_scale,
    )
    hi, ok_hi = batch_umau_endpoint(
        observed, alpha, sigma1, sigma2, lower, upper, side="upper",
        center=seed_hi, tol_scale=tol_scale,
    )
    return lo, hi, ok_lo & ok_hi


def batch_ctost_ci(observed, alpha, sigma1, sigma2, lower, upper):
    """Both endpoints of the two one-sided-tests inversion.

    The conditional CDF at the observed value is strictly decreasing in
    delta; the lower endpoint is where it falls to 1 - alpha/2, the upper
    one where it falls to alpha/2. Both are solved in one call.
    """
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
        xatol=1e-10 * sigma12,
    )
    ok = ok[:n] & ok[n:]
    return root[:n].reshape(shape), root[n:].reshape(shape), ok.reshape(shape)


def batch_naive_ci(observed, alpha, sigma1, sigma2):
    observed = np.asarray(observed, dtype=float)
    half = ndtri(1.0 - 0.5 * alpha) * pooled_sd(sigma1, sigma2)
    return observed - half, observed + half
