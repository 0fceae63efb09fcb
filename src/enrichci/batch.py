"""Array-parallel solvers for acceptance regions and interval endpoints.

Each element carries its own geometry (``sigma1``, ``sigma2`` and the
bounds) and observation, so all targets of a trial, or all replicates of
a scenario, are solved at once: damped Newton for the two moment
constraints of the acceptance region, a joint Newton in the effect and
cut from a closed-form start for the umau endpoints (stopping on its
quadratic error estimate where that is below tolerance), and a safeguarded
Newton on the probit scale (``_kernels.probit_newton``) for the tost
endpoints. Each iteration evaluates the conditional law once, as one
``_kernels.CondLaw`` at all the points it needs. Elements that fail to
converge, or whose CDF slope disagrees with its density next to the
solution, are reported through an ``ok`` mask; the check starts from the
solver's last evaluated point, whose F the solver already has (a umau
endpoint whose last step moved it over 0.1 h: from the returned point).
tost's moments from -inf take no lower-end terms (``partial_moments``).
"""

import numpy as np
from scipy.special import ndtri

from ._kernels import (
    CondLaw,
    cond_quantile,
    flat_broadcast,
    pooled_sd,
    probit_newton,
)


def batch_solve_umpu(delta0, alpha, sigma1, sigma2, lower, upper,
                     c1=None, c2=None, max_iter=60, tol=1e-10):
    """Solve the size and first-moment constraints for the acceptance region.

    Returns (c1, c2, ok). A warm start passes both cuts through
    ``c1``/``c2``; without one, the cuts start at the equal-tailed
    quantiles.
    """
    if (c1 is None) != (c2 is None):
        raise ValueError("a warm start needs both cuts, c1 and c2")
    shape, (delta0, sigma1, sigma2, lower, upper) = flat_broadcast(
        delta0, sigma1, sigma2, lower, upper)
    if c1 is None:
        tails = [[0.5 * alpha], [1.0 - 0.5 * alpha]]
        c1, c2 = cond_quantile(tails, delta0, sigma1, sigma2, lower, upper)
    c1, c2 = (np.array(np.broadcast_to(c, delta0.shape), dtype=float)
              for c in (c1, c2))

    law = CondLaw(delta0, sigma1, sigma2, lower, upper)
    sigma12, mean, beta = law.sigma12, law.mean, 1.0 - alpha
    target = beta * mean
    tol2 = tol * (sigma12 + np.abs(mean))
    max_step = 3.0 * sigma12

    ok = np.zeros(delta0.shape, dtype=bool)
    idx = np.arange(delta0.size)
    for _ in range(max_iter):
        if idx.size == 0:
            break
        law = CondLaw(delta0[idx], sigma1[idx], sigma2[idx], lower[idx],
                      upper[idx])
        a, b = c1[idx], c2[idx]
        fa, fb = law.cdf(np.array([a, b]))
        g1 = fb - fa - beta
        g2 = law.partial_moments(a, b, fa, fb)[0] - target[idx]
        conv = (np.abs(g1) <= tol) & (np.abs(g2) <= tol2[idx])
        pa, pb = law.pdf(np.array([a, b]))
        det = pa * pb * (a - b)
        bad = ~np.isfinite(det) | (det == 0.0) | ~np.isfinite(g1) | ~np.isfinite(g2)
        det = np.where(det == 0.0, 1.0, det)
        with np.errstate(divide="ignore", invalid="ignore"):
            da = (-b * pb * g1 + pb * g2) / det
            db = (-a * pa * g1 + pa * g2) / det
        da, db = np.minimum(np.maximum([da, db], -max_step[idx]), max_step[idx])
        frozen = conv | bad
        a_new = np.where(frozen, a, a + da)
        b_new = np.where(frozen, b, b + db)
        # Keep the pair ordered; collapse toward the midpoint if crossed.
        crossed = a_new >= b_new
        mid = 0.5 * (a_new + b_new)
        gap = 1e-6 * sigma12[idx]
        a_new = np.where(crossed, mid - gap, a_new)
        b_new = np.where(crossed, mid + gap, b_new)
        c1[idx], c2[idx] = a_new, b_new
        ok[idx[conv]] = True
        idx = idx[~frozen]
    return c1.reshape(shape), c2.reshape(shape), ok.reshape(shape)


def _slope_matches_density(law, at, cdf):
    """Where the CDF's forward-difference slope from ``at``, whose F the
    caller already has in ``cdf``, over 2h matches the density at
    ``at + h`` to 1e-5 relative, with h 1e-4 of the law's sd however narrow
    the law. Where a kernel loses accuracy it does not; solvers fail such
    elements rather than return the root of inaccurate equations."""
    h = 1e-4 * np.sqrt(law.var)
    pdf = law.pdf(at + h)
    return np.abs((law.cdf(at + 2 * h) - cdf) / (2 * h) - pdf) <= 1e-5 * pdf


def _newton_settled(size, last, tol):
    """Whether a plain step of ``size`` after one of ``last`` (NaN: not a
    plain step) shrank 100-fold and size * (size / last)**2 <= ``tol``."""
    return (size <= 1e-2 * last) & (size <= np.cbrt(tol) * np.cbrt(last)**2)


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
    normal quantile of the conditional law (or one conditional sd past the
    observation). Steps are clipped to one pooled sd in delta and one
    conditional sd in c. An element stops on a step below 1e-11 sigma12, on
    a stall, or on a plain step (not clipped or halved) after another whose
    quadratic error estimate is below that, without a confirming law
    evaluation (``_newton_settled``). The slope check starts from the
    delta, cut and CDF values of an element's last iteration, or from the
    returned point (one more law) where the last step moved delta or the
    cut over 0.1 h, h = 1e-4 of the law's sd. Returns (lower, upper, ok).
    """
    shape, (observed, sigma1, sigma2, lower, upper) = flat_broadcast(
        observed, sigma1, sigma2, lower, upper)
    n = observed.size
    if seeds is None:
        seeds = batch_ctost_ci(observed, alpha, sigma1, sigma2, lower, upper)
    delta = np.where(np.concatenate([np.ravel(seeds[2])] * 2).astype(bool),
                     np.concatenate([np.ravel(s) for s in seeds[:2]]),
                     np.concatenate(batch_naive_ci(observed, alpha, sigma1,
                                                   sigma2)))
    # side -1: the lower endpoints (c below the observation); +1: the upper.
    side = np.array([-1.0, 1.0]).repeat(n)
    x, sigma1, sigma2, lower, upper = (
        np.concatenate([v, v]) for v in (observed, sigma1, sigma2, lower, upper))
    beta = 1.0 - alpha
    law = CondLaw(delta, sigma1, sigma2, lower, upper)
    sigma12, spread = law.sigma12, np.sqrt(law.var)
    c = law.mean + side * ndtri(1.0 - 0.5 * alpha) * spread
    c = np.where(side * (c - x) > 0.0, c, x + side * spread)

    last_step, last_plain = np.full(2 * n, np.inf), np.full(2 * n, np.nan)
    checked = np.empty((4, 2 * n))  # delta, c, F(c), F(x) where converged
    ok = np.zeros(2 * n, dtype=bool)
    idx = np.arange(2 * n)
    for it in range(50):
        if idx.size == 0:
            break
        d, cc, xo, sd, s12 = (v[idx] for v in (delta, c, x, side, sigma12))
        if it:
            law = CondLaw(d, sigma1[idx], sigma2[idx], lower[idx], upper[idx])
        pts = np.array([cc, xo])
        f_c, f_x = f = law.cdf(pts)
        a, b = np.where(sd < 0, pts, pts[::-1])
        f_a, f_b = np.where(sd < 0, f, f[::-1])
        m1, m2 = law.partial_moments(a, b, f_a, f_b, order=2)
        mean, var, spread = law.mean, law.var, np.sqrt(law.var)
        prob = f_b - f_a
        g1, g2 = prob - beta, m1 - beta * mean
        # Jacobian: d/d delta from the covariance identity; d/dc of G1 and
        # G2 are side * f(c) and side * c * f(c), whose common factor
        # cancels from the delta step.
        j11 = (m1 - prob * mean) / s12**2
        j21 = (m2 - m1 * mean - beta * var) / s12**2
        den = j11 * cc - j21
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step_d = (g1 * cc - g2) / den
            step_c = (j11 * g2 - j21 * g1) / (den * sd * law.pdf(cc))
        finite = np.isfinite(step_d) & np.isfinite(step_c)
        size, full = np.abs(step_d), np.maximum(np.abs(step_d), np.abs(step_c))
        c_new = cc - np.minimum(np.maximum(step_c, -spread), spread)
        # A cut that crosses the observation moves halfway towards it.
        uncrossed = sd * (c_new - xo) > 0.0
        plain = np.where(uncrossed & (size <= s12) & (np.abs(step_c) <= spread),
                         full, np.nan)
        c_new = np.where(uncrossed, c_new, 0.5 * (cc + xo))
        # Converged (see above); a stall is a small step that no longer
        # shrinks because rounding in the residuals sets the floor (far
        # from the truncation the law barely depends on delta).
        last, last_step[idx] = last_step[idx], size
        stalled = (last <= 1e-7 * s12) & (size > 0.5 * last)
        settled, last_plain[idx] = _newton_settled(
            plain, last_plain[idx], 1e-11 * s12), plain
        conv = finite & (stalled | settled | (full <= 1e-11 * s12))
        delta[idx[finite]] = (d - np.minimum(np.maximum(step_d, -s12), s12))[finite]
        c[idx[finite]] = c_new[finite]
        checked[:, idx[conv]] = np.array([d, cc, f_c, f_x])[:, conv]
        ok[idx[conv]] = True
        idx = idx[finite & ~conv]

    idx = np.flatnonzero(ok)
    d, cc, f_c, f_x = checked[:, idx]
    law = CondLaw(d, sigma1[idx], sigma2[idx], lower[idx], upper[idx])
    ok[idx] = np.all(_slope_matches_density(
        law, np.array([cc, x[idx]]), np.array([f_c, f_x])), axis=0)
    # A last step over 0.1 h (1e-5 sd) away: check the returned point.
    at = idx[np.maximum(np.abs(delta[idx] - d), np.abs(c[idx] - cc))
             > 1e-5 * np.sqrt(law.var)]
    if at.size:
        law = CondLaw(delta[at], sigma1[at], sigma2[at], lower[at], upper[at])
        pts = np.array([c[at], x[at]])
        ok[at] = np.all(_slope_matches_density(law, pts, law.cdf(pts)), axis=0)
    ok = ok[:n] & ok[n:]
    return delta[:n].reshape(shape), delta[n:].reshape(shape), ok.reshape(shape)


def batch_ctost_ci(observed, alpha, sigma1, sigma2, lower, upper):
    """Both endpoints of the two one-sided-tests inversion.

    The conditional CDF at the observed value is strictly decreasing in
    delta; the lower endpoint is where it falls to 1 - alpha/2, the upper
    one where it falls to alpha/2. Both are ``probit_newton`` roots in one
    call, started at the naive endpoints, with the slope in delta from the
    covariance identity dF/d delta = (M(-inf, observed) - F mu) / sigma12^2.
    The slope check starts from each root's last evaluated delta and F.
    """
    shape, flat = flat_broadcast(observed, sigma1, sigma2, lower, upper)
    n = flat[0].size
    q = np.array([1.0 - 0.5 * alpha, 0.5 * alpha]).repeat(n)
    observed, sigma1, sigma2, lower, upper = (np.concatenate([a, a]) for a in flat)
    sigma12 = pooled_sd(sigma1, sigma2)
    checked = np.empty((2, 2 * n))  # delta and F(observed), last evaluated

    def cdf_and_slope(delta, i):
        law = CondLaw(delta, sigma1[i], sigma2[i], lower[i], upper[i])
        cdf = law.cdf(observed[i])
        checked[:, i] = delta, cdf
        m1, = law.partial_moments(-np.inf, observed[i], 0.0, cdf)
        return cdf, (m1 - cdf * law.mean) / sigma12[i]**2

    root, ok = probit_newton(cdf_and_slope, observed - ndtri(q) * sigma12, q,
                             -1.0, sigma12, xtol=1e-10 * sigma12)
    idx = np.flatnonzero(ok)
    law = CondLaw(checked[0, idx], sigma1[idx], sigma2[idx], lower[idx],
                  upper[idx])
    ok[idx] = _slope_matches_density(law, observed[idx], checked[1, idx])
    ok = ok[:n] & ok[n:]
    return root[:n].reshape(shape), root[n:].reshape(shape), ok.reshape(shape)


def batch_naive_ci(observed, alpha, sigma1, sigma2):
    observed = np.asarray(observed, dtype=float)
    half = ndtri(1.0 - 0.5 * alpha) * pooled_sd(sigma1, sigma2)
    return observed - half, observed + half


def batch_intervals(observed, alpha, sigma1, sigma2, lower, upper, methods):
    """``{method: (lower, upper, ok)}`` per element, for naive and each of
    ``methods``.

    naive is the z-interval everywhere. umau and tost equal it where both
    bounds are infinite, since the law there is untruncated; on the other
    elements tost is solved once and seeds umau. Arrays are flat.
    """
    _, (observed, sigma1, sigma2, lower, upper) = flat_broadcast(
        observed, sigma1, sigma2, lower, upper)
    naive = (*batch_naive_ci(observed, alpha, sigma1, sigma2),
             np.ones(observed.shape, dtype=bool))
    out = {m: naive for m in ("naive", *methods)}
    rows = np.flatnonzero(np.isfinite(lower) | np.isfinite(upper))
    if rows.size and set(methods) - {"naive"}:
        args = (observed[rows], alpha, sigma1[rows], sigma2[rows], lower[rows],
                upper[rows])
        found = {"tost": batch_ctost_ci(*args)}
        if "umau" in methods:
            found["umau"] = batch_umau_ci(*args, seeds=found["tost"])
        for m in set(methods) & set(found):
            out[m] = tuple(v.copy() for v in naive)
            for v, solution in zip(out[m], found[m]):
                v[rows] = solution
    return out
