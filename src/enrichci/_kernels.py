"""Vectorized closed-form kernels for the conditional pooled-estimator law.

The model: a stage 1 estimate with std dev ``sigma1`` is truncated to the
interval (lower, upper); the precision-weighted pool of stage 1 and stage 2
estimates is the working statistic. Its conditional density is a normal
density tilted by a normal-CDF range factor. The CDF and truncated first
moments reduce to bivariate-normal rectangle probabilities, evaluated here
through Owen's T. All routines broadcast over every argument, so each
element has its own ``sigma1``, ``sigma2``, ``lower`` and ``upper``.
Quantiles and the tost endpoints in ``batch`` are ``probit_newton`` roots:
Newton on the probit scale of a monotone CDF, safeguarded by a bracket.
"""

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._normal import bvn_cdf, log_norm_prob_range, norm_pdf, norm_prob_range

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Below this selection log-probability the bivariate-normal differences in
# the closed-form CDF cancel catastrophically; switch to direct quadrature
# of the (log-space stable) density.
_DEEP_LOG_DEN = np.log(1e-4)

_GL_PANELS = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def pooled_sd(sigma1, sigma2):
    """Std dev of the precision-weighted pooled estimate."""
    return sigma1 * sigma2 / np.hypot(sigma1, sigma2)


def _geometry(sigma1, sigma2):
    hyp = np.hypot(sigma1, sigma2)
    sigma12 = sigma1 * sigma2 / hyp
    rho = sigma2 / hyp            # corr(pooled, stage 1)
    s = sigma1 * sigma1 / hyp     # sd of stage 1 given the pooled value
    return sigma12, rho, s


def _log_phi(z):
    zf = np.where(np.isfinite(z), z, 0.0)
    return np.where(np.isfinite(z), -0.5 * zf * zf - _LOG_SQRT_2PI, -np.inf)


def cond_logpdf(x, delta, sigma1, sigma2, lower, upper):
    """Log density of the pooled estimate given the stage 1 truncation."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    sigma12, _, s = _geometry(sigma1, sigma2)
    zx = (x - delta) / sigma12
    log_num = log_norm_prob_range((lower - x) / s, (upper - x) / s)
    log_den = log_norm_prob_range((lower - delta) / sigma1, (upper - delta) / sigma1)
    return _log_phi(zx) - np.log(sigma12) + log_num - log_den


def cond_pdf(x, delta, sigma1, sigma2, lower, upper):
    return np.exp(cond_logpdf(x, delta, sigma1, sigma2, lower, upper))


def _quad_weighted(lo, hi, fn):
    """Composite Gauss-Legendre integral of ``fn`` over per-element [lo, hi].

    ``lo``/``hi`` are flat arrays; ``fn`` maps a node array of the same
    trailing shape to integrand values. Each element's weighted sum runs
    along a contiguous row, which rounds alike at any number of elements.
    """
    edges = np.linspace(0.0, 1.0, _GL_PANELS + 1)
    width = hi - lo
    total = np.zeros_like(lo)
    for p in range(_GL_PANELS):
        p_lo = lo + edges[p] * width
        p_w = (edges[p + 1] - edges[p]) * width
        nodes = p_lo[None, :] + 0.5 * (_GL_NODES[:, None] + 1.0) * p_w[None, :]
        rows = np.ascontiguousarray(fn(nodes).T)
        total += 0.5 * p_w * np.einsum("ji,i->j", rows, _GL_WEIGHTS)
    return total


def _deep_density(delta, sigma1, sigma2, lower, upper):
    """Density evaluator with the per-element selection factor hoisted out."""
    sigma12, _, s = _geometry(sigma1, sigma2)
    log_den = log_norm_prob_range(
        (lower - delta) / sigma1, (upper - delta) / sigma1
    )
    l_fin = np.isfinite(lower)
    u_fin = np.isfinite(upper)
    base = -np.log(sigma12) - log_den

    def density(t):
        zx = (t - delta) / sigma12
        if not u_fin.any():
            log_num = log_ndtr((t - lower) / s)
        elif not l_fin.any():
            log_num = log_ndtr((upper - t) / s)
        else:
            log_num = log_norm_prob_range((lower - t) / s, (upper - t) / s)
        return np.exp(-0.5 * zx * zx - _LOG_SQRT_2PI + log_num + base)

    return density


def _deep_cdf(x, delta, sigma1, sigma2, lower, upper):
    sigma12, _, _ = _geometry(sigma1, sigma2)
    center = cond_mean(delta, sigma1, sigma2, lower, upper)
    lo = center - 14.0 * sigma12
    hi = np.clip(x, lo, center + 14.0 * sigma12)
    density = _deep_density(delta, sigma1, sigma2, lower, upper)
    return np.clip(_quad_weighted(lo, hi, density), 0.0, 1.0)


def _deep_partial_moment(a, b, delta, sigma1, sigma2, lower, upper, order):
    sigma12, _, _ = _geometry(sigma1, sigma2)
    center = cond_mean(delta, sigma1, sigma2, lower, upper)
    lo = np.clip(a, center - 14.0 * sigma12, center + 14.0 * sigma12)
    hi = np.clip(b, lo, center + 14.0 * sigma12)
    density = _deep_density(delta, sigma1, sigma2, lower, upper)
    return _quad_weighted(lo, hi, lambda t: t**order * density(t))


def _patch_deep(out, a1, b1, deep_fn, *arrays):
    """``out`` with ``deep_fn`` on the elements whose selection
    log-probability lies below ``_DEEP_LOG_DEN``; ``deep_fn`` receives
    ``arrays``, broadcast to ``out`` and flattened to those elements."""
    deep = log_norm_prob_range(a1, b1) < _DEEP_LOG_DEN
    if not deep.any():
        return out
    shape = np.shape(out)
    deep = np.broadcast_to(deep, shape).ravel()
    flat = np.ravel(out).copy()
    flat[deep] = deep_fn(*(np.broadcast_to(v, shape).ravel()[deep]
                           for v in arrays))
    return flat.reshape(shape)


def cond_cdf(x, delta, sigma1, sigma2, lower, upper):
    """Conditional CDF through bivariate-normal rectangle probabilities."""
    x, delta, sigma1, sigma2, lower, upper = (
        np.asarray(v, dtype=float)
        for v in (x, delta, sigma1, sigma2, lower, upper))
    sigma12, rho, _ = _geometry(sigma1, sigma2)
    zx = (x - delta) / sigma12
    a1 = (lower - delta) / sigma1
    b1 = (upper - delta) / sigma1
    den = norm_prob_range(a1, b1)
    # An infinite bound's bivariate term is Phi(zx) or 0: skip Owen's T.
    below_upper = ndtr(zx) if np.all(upper == np.inf) else bvn_cdf(zx, b1, rho)
    below_lower = 0.0 if np.all(lower == -np.inf) else bvn_cdf(zx, a1, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.clip((below_upper - below_lower) / den, 0.0, 1.0)
    out = _patch_deep(out, a1, b1, _deep_cdf, np.where(np.isfinite(x), x, 0.0),
                      delta, sigma1, sigma2, lower, upper)
    out = np.where(zx == np.inf, 1.0, out)
    return np.where(zx == -np.inf, 0.0, out)


def cond_mean(delta, sigma1, sigma2, lower, upper):
    """Conditional expectation of the pooled estimate (closed form)."""
    delta = np.asarray(delta, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    _, rho, _ = _geometry(sigma1, sigma2)
    a1 = (lower - delta) / sigma1
    b1 = (upper - delta) / sigma1
    log_den = log_norm_prob_range(a1, b1)
    ra = np.exp(_log_phi(a1) - log_den)
    rb = np.exp(_log_phi(b1) - log_den)
    return delta + rho * rho * sigma1 * (ra - rb)


def cond_partial_moment(a, b, delta, sigma1, sigma2, lower, upper,
                        cdf_a=None, cdf_b=None, order=1):
    """Integral of t**order * pdf(t) over (a, b), order 1 or 2, in closed form.

    With z = (t - delta) / sigma12 the density is phi(z) R(z) / (sigma12 *
    den), where R(z) = Phi(alpha_u + beta z) - Phi(alpha_l + beta z) is the
    selection factor. Integrating z phi R and z^2 phi R by parts leaves
    boundary terms in R and cross terms phi(z) phi(alpha + beta z), which
    collapse to univariate normal densities and CDFs. ``cdf_a``/``cdf_b``
    may carry precomputed conditional CDF values at the bounds.
    """
    a, b, delta, sigma1, sigma2, lower, upper = (
        np.asarray(v, dtype=float)
        for v in (a, b, delta, sigma1, sigma2, lower, upper))

    sigma12, _, s = _geometry(sigma1, sigma2)
    beta = -sigma2 / sigma1
    r = np.hypot(sigma1, sigma2) / sigma1  # sqrt(1 + beta^2)

    za = (a - delta) / sigma12
    zb = (b - delta) / sigma12
    za_f = np.where(np.isfinite(za), za, 0.0)
    zb_f = np.where(np.isfinite(zb), zb, 0.0)
    a1 = (lower - delta) / sigma1
    b1 = (upper - delta) / sigma1
    den = norm_prob_range(a1, b1)

    def bound_terms(bound, at_inf):
        """Phi(alpha + beta z) at za and zb, and the cross integrals of
        z phi R and z^2 phi R contributed by one truncation bound. A bound
        infinite for every element has no cross terms and is skipped."""
        fin = np.isfinite(bound)
        if not fin.any():
            return at_inf, at_inf, 0.0, 0.0
        alpha_f = np.where(fin, (bound - delta) / s, 0.0)
        g_a = np.where(fin, ndtr(alpha_f + beta * za_f), at_inf)
        g_b = np.where(fin, ndtr(alpha_f + beta * zb_f), at_inf)
        phi_bound = np.where(
            fin, norm_pdf(np.where(fin, (bound - delta) / sigma1, 0.0)), 0.0
        )

        def w(z, z_f):
            # r*z + beta*alpha/r, infinite where z is
            return np.where(np.isfinite(z), r * z_f + beta * alpha_f / r, z)

        w_a, w_b = w(za, za_f), w(zb, zb_f)
        cross1 = phi_bound * (ndtr(w_b) - ndtr(w_a))
        cross2 = 0.0
        if order == 2:
            shift = beta * alpha_f / r
            cross2 = phi_bound * (
                norm_pdf(w_a) - norm_pdf(w_b) - shift * (ndtr(w_b) - ndtr(w_a))
            )
        return g_a, g_b, cross1, cross2

    gu_a, gu_b, cu1, cu2 = bound_terms(upper, 1.0)
    gl_a, gl_b, cl1, cl2 = bound_terms(lower, 0.0)
    r_a = norm_pdf(za) * (gu_a - gl_a)
    r_b = norm_pdf(zb) * (gu_b - gl_b)
    j1 = r_a - r_b + (beta / r) * (cu1 - cl1)

    if cdf_a is None:
        cdf_a = cond_cdf(a, delta, sigma1, sigma2, lower, upper)
    if cdf_b is None:
        cdf_b = cond_cdf(b, delta, sigma1, sigma2, lower, upper)
    cdf_term = np.asarray(cdf_b, dtype=float) - np.asarray(cdf_a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta * cdf_term + sigma12 * j1 / den
        if order == 2:
            j2 = za_f * r_a - zb_f * r_b + (beta / (r * r)) * (cu2 - cl2)
            out = delta * (out + sigma12 * j1 / den) + sigma12 * sigma12 * (
                cdf_term + j2 / den
            )

    return _patch_deep(
        out, a1, b1, lambda *v: _deep_partial_moment(*v, order),
        a, b, delta, sigma1, sigma2, lower, upper,
    )


def flat_broadcast(*arrays):
    """Broadcast shape plus each argument broadcast and flattened to 1-D."""
    broad = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in arrays])
    return broad[0].shape, [np.atleast_1d(b).ravel() for b in broad]


def probit_newton(f, x, q, sign, step, xtol):
    """Root in x of F(x) = q per element of a monotone F; (root, ok).

    ``f(x, i)`` returns F and dF/dx at ``x`` for the elements ``i``; F
    increases in x for ``sign`` +1 and decreases for -1. Newton steps on
    ndtri(F) - ndtri(q), linear in x for an untruncated normal law, start
    at ``x`` and are clipped to ``step``. Where F rounds to 0 or 1, or a
    step points away from the root or leaves the bracket the evaluations
    so far imply, the element bisects that bracket, or moves ``step``
    towards the root while it is open on that side. Only a Newton step
    converges: probit residual at most 1e-6, and a step below ``xtol`` or
    stalled at the rounding floor (under 1e-7 ``step``, no longer halving).
    An element with that residual whose bracket has shrunk to ``xtol``
    also converges, at its evaluated point: where F is noisy at the
    rounding level, Newton may keep pointing out of such a bracket.
    ``step`` and ``xtol`` broadcast to ``x``.
    """
    x = np.array(x, dtype=float)
    zq = ndtri(q)
    step, xtol = (np.broadcast_to(v, x.shape) for v in (step, xtol))
    lo = np.full(x.shape, -np.inf)
    hi = np.full(x.shape, np.inf)
    last = np.full(x.shape, np.inf)
    ok = np.zeros(x.shape, dtype=bool)
    idx = np.arange(x.size)
    for _ in range(100):
        if idx.size == 0:
            break
        xi, step_i, xtol_i = x[idx], step[idx], xtol[idx]
        fx, dfx = f(xi, idx)
        z = ndtri(fx)
        resid = z - zq[idx]
        towards = -sign * np.sign(resid)  # +1: the root lies above xi
        lo_i = np.where(towards > 0, xi, lo[idx])
        hi_i = np.where(towards < 0, xi, hi[idx])
        lo[idx], hi[idx] = lo_i, hi_i
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = np.where(towards == 0, 0.0, -resid * norm_pdf(z) / dfx)
        size = np.abs(newton)
        last_i, last[idx] = last[idx], size
        stalled = (size <= 1e-7 * step_i) & (size > 0.5 * last_i)
        settled = (size <= xtol_i) | stalled
        conv = (np.abs(resid) <= 1e-6) & (settled | (hi_i - lo_i <= xtol_i))
        x_new = xi + np.clip(newton, -step_i, step_i)
        guard = ~conv & ~((towards * newton > 0) & (x_new > lo_i)
                          & (x_new < hi_i))
        ahead = np.where(towards > 0, hi_i, lo_i)
        x_new = np.where(guard, np.where(np.isfinite(ahead), 0.5 * (xi + ahead),
                                         xi + towards * step_i), x_new)
        x_new = np.where(conv & ~settled, xi, x_new)
        last[idx[guard]] = np.inf
        live = np.isfinite(x_new) & np.isfinite(fx)
        x[idx[live]] = x_new[live]
        ok[idx[conv & live]] = True
        idx = idx[live & ~conv]
    return x, ok


def cond_quantile(q, delta, sigma1, sigma2, lower, upper):
    """Vectorized quantile: the root in x of the monotone conditional CDF,
    found by ``probit_newton`` from the untruncated quantile around the
    conditional mean. NaN where the root was not found.
    """
    shape, (q, delta, sigma1, sigma2, lower, upper) = flat_broadcast(
        q, delta, sigma1, sigma2, lower, upper)
    sigma12 = pooled_sd(sigma1, sigma2)

    def cdf_and_pdf(x, i):
        args = (delta[i], sigma1[i], sigma2[i], lower[i], upper[i])
        return cond_cdf(x, *args), cond_pdf(x, *args)

    start = cond_mean(delta, sigma1, sigma2, lower, upper) + ndtri(q) * sigma12
    root, ok = probit_newton(cdf_and_pdf, start, q, 1.0, sigma12,
                             xtol=1e-13 * sigma12)
    return np.where(ok, root, np.nan).reshape(shape)
