"""Vectorized closed-form kernels for the conditional pooled-estimator law.

The model: a stage 1 estimate with std dev ``sigma1`` is truncated to the
interval (lower, upper); the precision-weighted pool of stage 1 and stage 2
estimates is the working statistic. Its conditional density is a normal
density tilted by a normal-CDF range factor. The CDF and truncated first
moments reduce to bivariate-normal rectangle probabilities, evaluated here
through Owen's T. All routines broadcast: ``delta``, ``x``, ``lower``,
``upper`` may be arrays, ``sigma1``/``sigma2`` are scalars.
"""

import numpy as np
from scipy.optimize.elementwise import bracket_root, find_root
from scipy.special import log_ndtr, ndtr

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
    trailing shape to integrand values.
    """
    edges = np.linspace(0.0, 1.0, _GL_PANELS + 1)
    width = hi - lo
    total = np.zeros_like(lo)
    for p in range(_GL_PANELS):
        p_lo = lo + edges[p] * width
        p_w = (edges[p + 1] - edges[p]) * width
        nodes = p_lo[None, :] + 0.5 * (_GL_NODES[:, None] + 1.0) * p_w[None, :]
        total += 0.5 * p_w * np.einsum("i,ij->j", _GL_WEIGHTS, fn(nodes))
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


def _deep_partial_moment(a, b, delta, sigma1, sigma2, lower, upper):
    sigma12, _, _ = _geometry(sigma1, sigma2)
    center = cond_mean(delta, sigma1, sigma2, lower, upper)
    lo = np.clip(a, center - 14.0 * sigma12, center + 14.0 * sigma12)
    hi = np.clip(b, lo, center + 14.0 * sigma12)
    density = _deep_density(delta, sigma1, sigma2, lower, upper)
    return _quad_weighted(lo, hi, lambda t: t * density(t))


def cond_cdf(x, delta, sigma1, sigma2, lower, upper):
    """Conditional CDF through bivariate-normal rectangle probabilities."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x, delta, lower, upper = np.broadcast_arrays(x, delta, lower, upper)
    sigma12, rho, _ = _geometry(sigma1, sigma2)
    zx = (x - delta) / sigma12
    a1 = (lower - delta) / sigma1
    b1 = (upper - delta) / sigma1
    den = norm_prob_range(a1, b1)
    num = bvn_cdf(zx, b1, rho) - bvn_cdf(zx, a1, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out = np.where(zx == np.inf, 1.0, out)
    out = np.where(zx == -np.inf, 0.0, out)
    out = np.clip(out, 0.0, 1.0)

    deep = log_norm_prob_range(a1, b1) < _DEEP_LOG_DEN
    if np.any(deep):
        flat = np.atleast_1d(out).copy()
        idx = np.flatnonzero(np.atleast_1d(deep).ravel())
        xf = np.where(np.isfinite(x), x, 0.0)
        flat[idx] = _deep_cdf(
            np.atleast_1d(xf).ravel()[idx],
            np.atleast_1d(delta).ravel()[idx],
            sigma1, sigma2,
            np.atleast_1d(lower).ravel()[idx],
            np.atleast_1d(upper).ravel()[idx],
        )
        flat[idx] = np.where(
            np.atleast_1d(x).ravel()[idx] == np.inf, 1.0, flat[idx]
        )
        flat[idx] = np.where(
            np.atleast_1d(x).ravel()[idx] == -np.inf, 0.0, flat[idx]
        )
        out = flat.reshape(out.shape)
    return out


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
                        cdf_a=None, cdf_b=None):
    """Integral of t * pdf(t) over (a, b), in closed form.

    Obtained by integrating t * phi * Phi-range by parts; the boundary
    terms involve the conditional selection factor and the cross terms
    collapse to univariate normal CDFs. ``cdf_a``/``cdf_b`` may carry
    precomputed conditional CDF values at the bounds.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    a, b, delta, lower, upper = np.broadcast_arrays(a, b, delta, lower, upper)

    sigma12, _, s = _geometry(sigma1, sigma2)
    beta = -sigma2 / sigma1
    r = np.hypot(sigma1, sigma2) / sigma1  # sqrt(1 + beta^2)

    za = (a - delta) / sigma12
    zb = (b - delta) / sigma12
    a1 = (lower - delta) / sigma1
    b1 = (upper - delta) / sigma1
    alpha_l = (lower - delta) / s
    alpha_u = (upper - delta) / s
    den = norm_prob_range(a1, b1)

    l_fin = np.isfinite(lower)
    u_fin = np.isfinite(upper)
    alpha_lf = np.where(l_fin, alpha_l, 0.0)
    alpha_uf = np.where(u_fin, alpha_u, 0.0)

    def g(z, alpha_f, fin, at_inf):
        # Phi(alpha + beta*z) with limits for infinite alpha (1 upper / 0 lower)
        zf = np.where(np.isfinite(z), z, 0.0)
        val = ndtr(alpha_f + beta * zf)
        return np.where(fin, val, at_inf)

    def h(z, alpha_f):
        # Phi(r*z + beta*alpha/r) with limits for infinite z
        zf = np.where(np.isfinite(z), z, 0.0)
        val = ndtr(r * zf + beta * alpha_f / r)
        val = np.where(z == np.inf, 1.0, val)
        return np.where(z == -np.inf, 0.0, val)

    gu_a = g(za, alpha_uf, u_fin, 1.0)
    gl_a = g(za, alpha_lf, l_fin, 0.0)
    gu_b = g(zb, alpha_uf, u_fin, 1.0)
    gl_b = g(zb, alpha_lf, l_fin, 0.0)
    t1 = norm_pdf(za) * (gu_a - gl_a) - norm_pdf(zb) * (gu_b - gl_b)

    phi_u = np.where(u_fin, norm_pdf(np.where(u_fin, b1, 0.0)), 0.0)
    phi_l = np.where(l_fin, norm_pdf(np.where(l_fin, a1, 0.0)), 0.0)
    t2 = (beta / r) * (
        phi_u * (h(zb, alpha_uf) - h(za, alpha_uf))
        - phi_l * (h(zb, alpha_lf) - h(za, alpha_lf))
    )

    if cdf_a is None:
        cdf_a = cond_cdf(a, delta, sigma1, sigma2, lower, upper)
    if cdf_b is None:
        cdf_b = cond_cdf(b, delta, sigma1, sigma2, lower, upper)
    cdf_term = np.asarray(cdf_b, dtype=float) - np.asarray(cdf_a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta * cdf_term + sigma12 * (t1 + t2) / den

    deep = log_norm_prob_range(a1, b1) < _DEEP_LOG_DEN
    if np.any(deep):
        flat = np.atleast_1d(out).copy()
        idx = np.flatnonzero(np.atleast_1d(deep).ravel())
        flat[idx] = _deep_partial_moment(
            np.atleast_1d(a).ravel()[idx],
            np.atleast_1d(b).ravel()[idx],
            np.atleast_1d(delta).ravel()[idx],
            sigma1, sigma2,
            np.atleast_1d(lower).ravel()[idx],
            np.atleast_1d(upper).ravel()[idx],
        )
        out = flat.reshape(out.shape)
    return out


def flat_broadcast(*arrays):
    """Broadcast shape plus each argument broadcast and flattened to 1-D."""
    broad = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in arrays])
    return broad[0].shape, [np.atleast_1d(b).ravel() for b in broad]


def monotone_root(f, lo, hi, xatol, fatol=None):
    """Root in x of each element of a monotone ``f(x, i)``.

    ``lo``/``hi`` are flat arrays seeding one bracket per element; ``f``
    receives the abscissae together with the indices ``i`` of the elements
    they belong to, so it can look up per-element data. Chandrupatla's
    method (``find_root``) runs on the seed brackets; only elements whose
    seed bracket holds no sign change are grown by ``bracket_root`` and
    solved again, because re-solving from a grown bracket evaluates its
    ends a second time. Returns (root, ok); ``ok`` is False where the
    solve failed or ``f`` returned a non-finite value along the way.
    """
    finite = np.ones(lo.shape, dtype=bool)

    def g(x, i):
        fx = f(x, i)
        finite[i[~np.isfinite(fx)]] = False
        return fx

    tol = {"xatol": xatol, "fatol": fatol}
    res = find_root(g, (lo, hi), args=(np.arange(lo.size),), tolerances=tol)
    root, ok = res.x, res.success
    redo = np.flatnonzero(res.status == -1)
    if redo.size:
        grown = bracket_root(g, lo[redo], hi[redo], args=(redo,))
        redo = redo[grown.success]
        xl, xr = (b[grown.success] for b in grown.bracket)
        res = find_root(g, (xl, xr), args=(redo,), tolerances=tol)
        root[redo], ok[redo] = res.x, res.success
    return root, ok & finite


def cond_quantile(q, delta, sigma1, sigma2, lower, upper):
    """Vectorized quantile: the root in x of the monotone conditional CDF.

    NaN where the root was not found.
    """
    shape, (q, delta, lower, upper) = flat_broadcast(q, delta, lower, upper)
    sigma12, _, _ = _geometry(sigma1, sigma2)

    def excess(x, i):
        return cond_cdf(x, delta[i], sigma1, sigma2, lower[i], upper[i]) - q[i]

    center = cond_mean(delta, sigma1, sigma2, lower, upper)
    root, ok = monotone_root(
        excess, center - 12.0 * sigma12, center + 12.0 * sigma12,
        xatol=1e-13 * sigma12,
    )
    return np.where(ok, root, np.nan).reshape(shape)
