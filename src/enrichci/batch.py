"""Array-parallel solvers for acceptance regions and interval endpoints.

Each element carries its own geometry (``sigma1``, ``sigma2`` and the
bounds) and observation, so all targets of a trial, or all replicates of
a scenario, are solved at once. One joint Newton on the UMPU equations
(``_umpu_newton``) gives both the acceptance region at a given effect and
the umau endpoints, from closed-form starts; a safeguarded Newton on the
probit scale (``_kernels.probit_newton``) gives the tost endpoints. Each
iteration evaluates the conditional law once, as one ``_kernels.CondLaw``
at all the points it needs. Elements that fail to converge, or whose CDF
slope disagrees with its density next to the solution, are reported
through an ``ok`` mask; the check starts from the solver's last evaluated
point, whose F the solver already has. tost's moments from -inf take no
lower-end terms (``partial_moments``).
"""

import numpy as np
from scipy.special import ndtri

from ._kernels import CondLaw, flat_broadcast, pooled_sd, probit_newton


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


def _umpu_newton(delta, x, side, alpha, sigma1, sigma2, lower, upper):
    """Solve the UMPU equations G1 = F(b) - F(a) - beta = 0 and G2 = M1(a, b)
    - beta mu = 0 (Fithian, Sun & Taylor, arXiv:1410.2597), beta = 1 - alpha,
    with F, M1 and mu the conditional CDF, partial first moment and mean at
    delta, on [a, b] = [c, x] (``side`` -1) or [x, c] (+1), for all flat
    elements in one stacked 2x2 Newton iteration. Each element pins the cut
    x and solves for (delta, c) or, if x is None, pins delta and solves for
    (x, c) from x = mean - z sd (sd the law's, z = ndtri(1 - alpha/2)); c
    starts at mean + side z sd, or one sd past x. delta's Jacobian column
    comes from d/d delta E[g(X)] = Cov(g(X), X) / sigma12^2, a cut t's is
    -/+f(t) (1, t). Steps are clipped to one pooled sd in delta and one law
    sd in a cut, a c that crosses x moves halfway towards it, and a step
    that is not finite fails the element. With delta pinned the law, and so
    the clips, stay fixed: an element's clips halve whenever a clipped step
    turns back (it could 2-cycle across a steep bound), and a step that is
    not finite (a start may lie where the law has no density) moves both
    cuts halfway towards the mean. An element stops on steps below 1e-11
    sigma12, on a stall of the first, or on a plain step (not clipped or
    halved) after another whose quadratic error estimate is below that
    (``_newton_settled``). The slope check starts from an element's last
    iteration, or from the returned point (one more law) where the last step
    moved an unknown over 0.1 h, h = 1e-4 of the law's sd. Returns (delta,
    c, x, ok).
    """
    n, beta, pin_delta = delta.size, 1.0 - alpha, x is None
    law = CondLaw(delta, sigma1, sigma2, lower, upper)
    sigma12, spread = law.sigma12, np.sqrt(law.var)
    z = ndtri(1.0 - 0.5 * alpha) * spread
    x = law.mean - z if pin_delta else x
    c = law.mean + side * z
    c = np.where(side * (c - x) > 0.0, c, x + side * spread)
    free = x if pin_delta else delta  # the unknown besides c, set in place

    last_step, last_plain = np.full(n, np.inf), np.full(n, np.nan)
    trust, prev = np.ones(n), np.zeros((2, n))  # prev: last step signs
    checked = np.empty((5, n))  # delta, c, x, F(c), F(x) where converged
    ok = np.zeros(n, dtype=bool)
    idx = np.arange(n)
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
        # Jacobian: the column of delta, or of x, then c's, side * f(c) *
        # (1, c), whose scale cancels from the first step.
        if pin_delta:
            j11 = -sd * law.pdf(xo)
            j21 = j11 * xo
        else:
            j11 = (m1 - prob * mean) / s12**2
            j21 = (m2 - m1 * mean - beta * var) / s12**2
        den = j11 * cc - j21
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            steps = np.array([(g1 * cc - g2) / den, (j11 * g2 - j21 * g1)
                              / (den * sd * law.pdf(cc))])
        finite = np.logical_and.reduce(np.isfinite(steps))
        size, full = np.abs(steps[0]), np.maximum.reduce(np.abs(steps))
        reach = np.array([spread if pin_delta else s12, spread])
        if pin_delta:
            steps = np.where(finite, steps, 0.5 * (pts[::-1] - mean))
            turned = ((np.abs(steps) > reach * trust[idx])
                      & (steps * prev[:, idx] < 0.0)).any(axis=0)
            trust[idx] /= 1.0 + turned
            prev[:, idx], reach = np.sign(steps), reach * trust[idx]
        plain = finite & np.logical_and.reduce(np.abs(steps) <= reach)
        moved, c_new = (np.array([xo if pin_delta else d, cc])
                        - np.minimum(np.maximum(steps, -reach), reach))
        x_new = moved if pin_delta else xo
        # A cut that crosses x moves halfway towards it.
        uncrossed = sd * (c_new - x_new) > 0.0
        plain = np.where(uncrossed & plain, full, np.nan)
        c_new = np.where(uncrossed, c_new, 0.5 * (cc + x_new))
        # Converged (see above); a stall is a small step that no longer
        # shrinks because rounding in the residuals sets the floor (far
        # from the truncation the law barely depends on delta).
        last, last_step[idx] = last_step[idx], size
        stalled = (last <= 1e-7 * s12) & (size > 0.5 * last)
        settled, last_plain[idx] = _newton_settled(
            plain, last_plain[idx], 1e-11 * s12), plain
        conv = finite & (stalled | settled | (full <= 1e-11 * s12))
        live = finite | pin_delta
        free[idx] = np.where(live, moved, free[idx])
        c[idx] = np.where(live, c_new, cc)
        checked[:, idx[conv]] = np.array([d, cc, xo, f_c, f_x])[:, conv]
        ok[idx[conv]] = True
        idx = idx[live & ~conv]

    idx = np.flatnonzero(ok)
    d, cc, xo, f_c, f_x = checked[:, idx]
    law = CondLaw(d, sigma1[idx], sigma2[idx], lower[idx], upper[idx])
    ok[idx] = np.all(_slope_matches_density(
        law, np.array([cc, xo]), np.array([f_c, f_x])), axis=0)
    # A last step over 0.1 h (1e-5 sd) away: check the returned point.
    moves = np.abs([delta[idx] - d, c[idx] - cc, x[idx] - xo])
    at = idx[np.maximum.reduce(moves) > 1e-5 * np.sqrt(law.var)]
    if at.size:
        law = CondLaw(delta[at], sigma1[at], sigma2[at], lower[at], upper[at])
        pts = np.array([c[at], x[at]])
        ok[at] = np.all(_slope_matches_density(law, pts, law.cdf(pts)), axis=0)
    return delta, c, x, ok


def batch_solve_umpu(delta, alpha, sigma1, sigma2, lower, upper):
    """Acceptance region (c1, c2, ok) of the two-sided conditional test at
    ``delta``: ``_umpu_newton`` with delta pinned."""
    shape, flat = flat_broadcast(delta, sigma1, sigma2, lower, upper)
    _, c2, c1, ok = _umpu_newton(flat[0], None, np.ones(flat[0].size), alpha,
                                 *flat[1:])
    return c1.reshape(shape), c2.reshape(shape), ok.reshape(shape)


def batch_umau_ci(observed, alpha, sigma1, sigma2, lower, upper, seeds=None):
    """Both endpoints of the exact-test inversion, per element.

    At the lower endpoint (delta, c1) solves the UMPU equations on the
    acceptance region [c1, observed], at the upper one (delta, c2) on
    [observed, c2]: one ``_umpu_newton`` over all endpoints, each pinning a
    cut at the observation. delta starts at the equal-tailed endpoint
    (``seeds``: a ``batch_ctost_ci`` result, solved here if not given).
    Returns (lower, upper, ok).
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
    delta, _, _, ok = _umpu_newton(
        delta, np.concatenate([observed] * 2), np.array([-1.0, 1.0]).repeat(n),
        alpha, *(np.concatenate([v, v]) for v in (sigma1, sigma2, lower, upper)))
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
