"""Array-parallel solvers for acceptance regions and interval endpoints.

Whole branches of simulated trials share the truncation geometry
(``sigma1``/``sigma2`` fixed, per-replicate bounds and observations), so
the exact-test constructions are solved for all replicates at once:
damped Newton for the two moment constraints of the acceptance region, a
joint Newton in the effect and the acceptance cut for the umau endpoints,
and a safeguarded Newton on the probit scale (``_kernels.probit_newton``)
for the tost endpoints. Elements that fail to converge, or whose
conditional CDF disagrees with its density at the solution, are reported
through an ``ok`` mask.
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
    pooled_sd,
    probit_newton,
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


def _slope_matches_density(at, delta, sigma1, sigma2, lower, upper):
    """Where the CDF's central-difference slope at ``at`` matches the
    density to 1e-5 relative. Where the kernels lose accuracy (rho near 1)
    it does not; solvers fail such elements rather than return the root of
    inaccurate equations."""
    h = 1e-4 * pooled_sd(sigma1, sigma2)
    args = (delta, sigma1, sigma2, lower, upper)
    cdf_up, cdf_down = cond_cdf(np.stack([at + h, at - h]), *args)
    pdf = cond_pdf(at, *args)
    return np.abs((cdf_up - cdf_down) / (2 * h) - pdf) <= 1e-5 * pdf


def batch_umau_ci(observed, alpha, sigma1, sigma2, lower, upper, seeds=None):
    """Both endpoints of the exact-test inversion, per element.

    At the lower endpoint (delta, c1) solves F(observed) - F(c1) = 1 - alpha
    and M(c1, observed) = (1 - alpha) mu, with F, M and mu the conditional
    CDF, partial first moment and mean at delta; the upper endpoint solves
    the mirror system in (delta, c2). All endpoints run in one stacked 2x2
    Newton iteration, whose derivatives in delta come from the
    exponential-family identity d/d delta E[g(X)] = Cov(g(X), X) / sigma12^2.
    It starts at the equal-tailed endpoint (``seeds``: a ``batch_ctost_ci``
    result, solved here if not given) with c at the alpha/2 or 1 - alpha/2
    quantile, where the size equation holds. Steps are clipped to one
    pooled sd. Returns (lower, upper, ok).
    """
    shape, (observed, lower, upper) = flat_broadcast(observed, lower, upper)
    n = observed.size
    sigma12 = pooled_sd(sigma1, sigma2)
    beta = 1.0 - alpha
    if seeds is None:
        seeds = batch_ctost_ci(observed, alpha, sigma1, sigma2, lower, upper)
    seed_ok = np.ravel(seeds[2]).astype(bool)
    half = ndtri(1.0 - 0.5 * alpha) * sigma12
    delta = np.concatenate([
        np.where(seed_ok, np.ravel(seeds[0]), observed - half),
        np.where(seed_ok, np.ravel(seeds[1]), observed + half),
    ])
    # side -1: the lower endpoints (c below the observation); +1: the upper.
    side = np.repeat([-1.0, 1.0], n)
    x, lower, upper = (np.tile(v, 2) for v in (observed, lower, upper))
    c = cond_quantile(np.where(side < 0, 0.5 * alpha, 1.0 - 0.5 * alpha),
                      delta, sigma1, sigma2, lower, upper)
    c = np.where(side * (c - x) > 0.0, c, x + side * sigma12)

    last_step = np.full(2 * n, np.inf)
    ok = np.zeros(2 * n, dtype=bool)
    idx = np.arange(2 * n)
    for _ in range(50):
        if idx.size == 0:
            break
        d, cc, xo, sd, lo, up = (v[idx] for v in (delta, c, x, side, lower, upper))
        args = (d, sigma1, sigma2, lo, up)
        f_c, f_x = cond_cdf(np.stack([cc, xo]), *args)
        a, b = np.where(sd < 0, [cc, xo], [xo, cc])
        f_a, f_b = np.where(sd < 0, [f_c, f_x], [f_x, f_c])
        m1, m2 = (cond_partial_moment(a, b, *args, cdf_a=f_a, cdf_b=f_b,
                                      order=k) for k in (1, 2))
        mean = cond_mean(*args)
        var = cond_partial_moment(-np.inf, np.inf, *args, cdf_a=0.0,
                                  cdf_b=1.0, order=2) - mean * mean
        prob = f_b - f_a
        g1, g2 = prob - beta, m1 - beta * mean
        # Jacobian: d/d delta from the covariance identity; d/dc of G1 and
        # G2 are side * f(c) and side * c * f(c), whose common factor
        # cancels from the delta step.
        j11 = (m1 - prob * mean) / sigma12**2
        j21 = (m2 - m1 * mean - beta * var) / sigma12**2
        den = j11 * cc - j21
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step_d = (g1 * cc - g2) / den
            step_c = (j11 * g2 - j21 * g1) / (den * sd * cond_pdf(cc, *args))
        finite = np.isfinite(step_d) & np.isfinite(step_c)
        size = np.abs(step_d)
        # Converged: a step below tolerance, or a small step that no longer
        # shrinks because rounding in the residuals sets the floor (far
        # from the truncation the law barely depends on delta).
        last, last_step[idx] = last_step[idx], size
        stalled = (last <= 1e-7 * sigma12) & (size > 0.5 * last)
        conv = finite & (stalled | (
            np.maximum(size, np.abs(step_c)) <= 1e-11 * sigma12))
        c_new = cc - np.clip(step_c, -sigma12, sigma12)
        # A cut that crosses the observation moves halfway towards it.
        c_new = np.where(sd * (c_new - xo) > 0.0, c_new, 0.5 * (cc + xo))
        delta[idx[finite]] = (d - np.clip(step_d, -sigma12, sigma12))[finite]
        c[idx[finite]] = c_new[finite]
        ok[idx[conv]] = True
        idx = idx[finite & ~conv]

    idx = np.flatnonzero(ok)
    ok[idx] = np.all(_slope_matches_density(
        np.stack([c[idx], x[idx]]), delta[idx], sigma1, sigma2, lower[idx],
        upper[idx]), axis=0)
    ok = ok[:n] & ok[n:]
    return delta[:n].reshape(shape), delta[n:].reshape(shape), ok.reshape(shape)


def batch_ctost_ci(observed, alpha, sigma1, sigma2, lower, upper):
    """Both endpoints of the two one-sided-tests inversion.

    The conditional CDF at the observed value is strictly decreasing in
    delta; the lower endpoint is where it falls to 1 - alpha/2, the upper
    one where it falls to alpha/2. Both are ``probit_newton`` roots in one
    call, started at the naive endpoints, with the slope in delta from the
    covariance identity dF/d delta = (M(-inf, observed) - F mu) / sigma12^2.
    """
    shape, (observed, lower, upper) = flat_broadcast(observed, lower, upper)
    sigma12 = pooled_sd(sigma1, sigma2)
    n = observed.size
    q = np.repeat([1.0 - 0.5 * alpha, 0.5 * alpha], n)
    observed, lower, upper = (np.tile(a, 2) for a in (observed, lower, upper))

    def cdf_and_slope(delta, i):
        args = (delta, sigma1, sigma2, lower[i], upper[i])
        cdf = cond_cdf(observed[i], *args)
        m1 = cond_partial_moment(-np.inf, observed[i], *args, cdf_a=0.0,
                                 cdf_b=cdf)
        return cdf, (m1 - cdf * cond_mean(*args)) / sigma12**2

    root, ok = probit_newton(cdf_and_slope, observed - ndtri(q) * sigma12, q,
                             -1.0, sigma12, xtol=1e-10 * sigma12)
    idx = np.flatnonzero(ok)
    ok[idx] = _slope_matches_density(observed[idx], root[idx], sigma1, sigma2,
                                     lower[idx], upper[idx])
    ok = ok[:n] & ok[n:]
    return root[:n].reshape(shape), root[n:].reshape(shape), ok.reshape(shape)


def batch_naive_ci(observed, alpha, sigma1, sigma2):
    observed = np.asarray(observed, dtype=float)
    half = ndtri(1.0 - 0.5 * alpha) * pooled_sd(sigma1, sigma2)
    return observed - half, observed + half
