"""Vectorized closed-form kernels for the conditional pooled-estimator law.

The model: a stage 1 estimate with std dev ``sigma1`` is truncated to the
interval (lower, upper); the precision-weighted pool of stage 1 and stage 2
estimates is the working statistic. Its conditional density is a normal
density tilted by a normal-CDF range factor. The CDF and truncated
moments reduce to bivariate-normal rectangle probabilities, evaluated
through Owen's T. ``CondLaw`` evaluates the law once per set of
per-element parameters (each element has its own ``sigma1``, ``sigma2``,
``lower`` and ``upper``): a solver iteration builds one and reads F, f,
partial moments, mean and variance from it, and ``cond_cdf`` and its
siblings are one-quantity calls of it. Quantiles and the tost endpoints in
``batch`` are ``probit_newton`` roots: Newton on the probit scale of a
monotone CDF, safeguarded by a bracket.
"""

from functools import cached_property, reduce

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri

from ._normal import bvn_cdf, log_norm_prob_range, norm_pdf, norm_prob_range

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT2, _SQRT_HALF_PI = np.sqrt([2.0, 0.5 * np.pi])

# Below this selection log-probability the bivariate-normal differences in
# the closed-form CDF cancel catastrophically; switch to direct quadrature
# of the (log-space stable) density.
_DEEP_LOG_DEN = np.log(1e-4)

_GL_PANELS = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def pooled_sd(sigma1, sigma2):
    """Std dev of the precision-weighted pooled estimate."""
    return sigma1 * sigma2 / np.hypot(sigma1, sigma2)


def _log_phi(z):
    """log of the standard normal density: -inf at +/-inf, NaN at NaN."""
    return -0.5 * z * z - _LOG_SQRT_2PI


def _deep_partial_moment(a, b, center, delta, sigma12, s, lower, upper,
                         log_den, orders):
    """Integrals of t**k times the density over (a, b) clipped to 14 sigma12
    around ``center``, one row per k in ``orders``, by composite
    Gauss-Legendre on one density evaluation. Arguments are flat; each
    weighted sum runs along a contiguous row, which rounds alike at any
    number of elements and orders."""
    lo = np.clip(a, center - 14.0 * sigma12, center + 14.0 * sigma12)
    hi = np.clip(b, lo, center + 14.0 * sigma12)
    l_fin, u_fin = np.isfinite(lower), np.isfinite(upper)
    base = -np.log(sigma12) - log_den
    edges = np.linspace(0.0, 1.0, _GL_PANELS + 1)[:, None, None]
    width = hi - lo
    p_w = (edges[1:] - edges[:-1]) * width  # (panel, 1, element)
    t = lo + edges[:-1] * width + 0.5 * (_GL_NODES[:, None] + 1.0) * p_w
    zx = (t - delta) / sigma12
    if not u_fin.any():
        log_num = log_ndtr((t - lower) / s)
    elif not l_fin.any():
        log_num = log_ndtr((upper - t) / s)
    else:
        log_num = log_norm_prob_range((lower - t) / s, (upper - t) / s)
    density = np.exp(-0.5 * zx * zx - _LOG_SQRT_2PI + log_num + base)
    vals = np.stack([t**k * density for k in orders])
    rows = np.ascontiguousarray(vals.swapaxes(-1, -2))
    panels = 0.5 * p_w[:, 0] * np.einsum(
        "ji,i->j", rows.reshape(-1, _GL_NODES.size), _GL_WEIGHTS
    ).reshape(len(orders), _GL_PANELS, -1)
    # Panel totals add up in panel order, whatever the stacking.
    return reduce(np.add, panels.swapaxes(0, 1), 0.0)


class CondLaw:
    """The conditional law, per element. Construction computes what every
    quantity shares: the geometry, the standardized stage 1 bounds ``a1``
    and ``b1``, the selection log-probability, the deep-tail mask, and the
    flags ``low``/``up`` (any finite lower/upper bound) and ``any_deep``."""

    def __init__(self, delta, sigma1, sigma2, lower, upper):
        self.delta, self.sigma1, self.sigma2, self.lower, self.upper = (
            np.asarray(v, dtype=float)
            for v in (delta, sigma1, sigma2, lower, upper))
        self.hyp = np.hypot(self.sigma1, self.sigma2)
        self.sigma12 = self.sigma1 * self.sigma2 / self.hyp
        self.rho = self.sigma2 / self.hyp  # corr(pooled, stage 1)
        self.s = self.sigma1 * self.sigma1 / self.hyp  # sd(stage 1 | pooled)
        self.a1 = (self.lower - self.delta) / self.sigma1
        self.b1 = (self.upper - self.delta) / self.sigma1
        self.log_den = log_norm_prob_range(self.a1, self.b1)
        self.deep = self.log_den < _DEEP_LOG_DEN
        self.low = np.isfinite(self.lower).any()
        self.up = np.isfinite(self.upper).any()
        self.any_deep = self.deep.any()

    den = cached_property(lambda self: norm_prob_range(self.a1, self.b1))

    @cached_property
    def mean(self):
        ra = np.exp(_log_phi(self.a1) - self.log_den)
        rb = np.exp(_log_phi(self.b1) - self.log_den)
        return self.delta + self.rho * self.rho * self.sigma1 * (ra - rb)

    @cached_property
    def var(self):
        """The pooled estimate is delta + rho^2 sigma1 U plus independent
        noise of variance sigma12^2 (1 - rho^2), U the standard normal on
        (a, b) = (a1, b1) oriented so that a + b >= 0. With Mills ratios
        R = Q / phi, psi = phi(b) / phi(a) and D = R(a) - psi R(b), E[U] =
        (1 - psi) / D and Var(U) = 1 - E[U] (E[U] - a) - (b - a) psi / D:
        no E[U^2] - E[U]^2 cancellation far out in a tail."""
        flip = self.a1 + self.b1 < 0.0
        a = np.where(flip, -self.b1, self.a1)
        b = np.where(flip, -self.a1, self.b1)
        b_fin = np.isfinite(b)
        with np.errstate(invalid="ignore"):
            log_psi = np.where(b_fin, -0.5 * (b - a) * (b + a), -np.inf)
        psi = np.exp(log_psi)
        inv_d = 1.0 / (_SQRT_HALF_PI * (erfcx(a / _SQRT2)
                                        - psi * erfcx(b / _SQRT2)))
        mean_u = -np.expm1(log_psi) * inv_d
        a_f = np.where(np.isfinite(a), a, 0.0)
        var_u = (1.0 - mean_u * (mean_u - a_f)
                 - np.where(b_fin, b - a_f, 0.0) * psi * inv_d)
        rho2 = self.rho * self.rho
        return (self.sigma12 * self.sigma12 * (1.0 - rho2)
                + rho2 * rho2 * self.sigma1 * self.sigma1 * var_u)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        zx = (x - self.delta) / self.sigma12
        log_num = log_norm_prob_range((self.lower - x) / self.s,
                                      (self.upper - x) / self.s)
        return _log_phi(zx) - np.log(self.sigma12) + log_num - self.log_den

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def _patch_deep(self, outs, deep_fn, *points):
        """``outs`` (arrays of one shape) with ``deep_fn`` on the deep-tail
        elements: it gets ``points``, mean, delta, sigma12, s, lower, upper
        and log_den there, and returns one row per output."""
        if not self.any_deep:
            return outs
        shape = np.shape(outs[0])
        deep = np.broadcast_to(self.deep, shape).ravel()
        args = (*points, self.mean, self.delta, self.sigma12, self.s,
                self.lower, self.upper, self.log_den)
        cols = np.empty((len(args), *shape))
        for i, v in enumerate(args):
            cols[i] = v
        rows = deep_fn(*cols.reshape(len(args), -1)[:, deep])
        outs = [np.ravel(out).copy() for out in outs]
        for out, row in zip(outs, rows):
            out[deep] = row
        return [out.reshape(shape) for out in outs]

    def cdf(self, x):
        """Conditional CDF through bivariate-normal rectangle probabilities."""
        x = np.asarray(x, dtype=float)
        zx = (x - self.delta) / self.sigma12
        # An infinite bound's bivariate term is Phi(zx) or 0: skip Owen's T.
        # Two finite bounds share one call.
        if self.up and self.low:
            zx_b, *k = np.broadcast_arrays(zx, self.b1, self.a1)
            below_upper, below_lower = bvn_cdf(zx_b, np.stack(k), self.rho)
        else:
            below_upper = bvn_cdf(zx, self.b1, self.rho) if self.up else ndtr(zx)
            below_lower = bvn_cdf(zx, self.a1, self.rho) if self.low else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.minimum(np.maximum(
                (below_upper - below_lower) / self.den, 0.0), 1.0)
        out, = self._patch_deep([out], lambda x, *v: np.clip(
            _deep_partial_moment(-np.inf, np.where(np.isfinite(x), x, 0.0),
                                 *v, orders=(0,)), 0.0, 1.0), x)
        out = np.where(zx == np.inf, 1.0, out)
        return np.where(zx == -np.inf, 0.0, out)

    def partial_moments(self, a, b, cdf_a=None, cdf_b=None, order=1):
        """Integrals of t * pdf(t) and, for ``order`` 2, of t**2 * pdf(t)
        over (a, b): a list of ``order`` arrays. ``cdf_a``/``cdf_b`` may
        carry the CDF at the bounds.

        With z = (t - delta) / sigma12 the density is phi(z) R(z) /
        (sigma12 * den), where R(z) = Phi(alpha_u + beta z) -
        Phi(alpha_l + beta z) is the selection factor. Integrating z phi R
        and z^2 phi R by parts leaves boundary terms in R and cross terms
        phi(z) phi(alpha + beta z), which collapse to univariate normal
        densities and CDFs.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        cdf_a = self.cdf(a) if cdf_a is None else cdf_a
        cdf_b = self.cdf(b) if cdf_b is None else cdf_b
        delta, sigma12, s = self.delta, self.sigma12, self.s
        beta = -self.sigma2 / self.sigma1
        r = self.hyp / self.sigma1  # sqrt(1 + beta^2)

        za = (a - delta) / sigma12
        zb = (b - delta) / sigma12
        za_f = np.where(np.isfinite(za), za, 0.0)
        zb_f = np.where(np.isfinite(zb), zb, 0.0)

        def bound_terms(bound, finite, z1, at_inf):
            """Phi(alpha + beta z) at za and zb, and the cross integrals of
            z phi R and z^2 phi R of one truncation bound, standardized
            to z1. A bound infinite for every element is skipped."""
            if not finite:
                return at_inf, at_inf, 0.0, 0.0
            fin = np.isfinite(bound)
            alpha_f = np.where(fin, (bound - delta) / s, 0.0)
            g_a = np.where(fin, ndtr(alpha_f + beta * za_f), at_inf)
            g_b = np.where(fin, ndtr(alpha_f + beta * zb_f), at_inf)
            shift = beta * alpha_f / r
            # w = r*z + shift, infinite where z is
            w_a, w_b = (np.where(np.isfinite(z), r * z_f + shift, z)
                        for z, z_f in ((za, za_f), (zb, zb_f)))
            phi_bound, dw = norm_pdf(z1), ndtr(w_b) - ndtr(w_a)
            cross1 = phi_bound * dw
            cross2 = 0.0
            if order == 2:
                cross2 = phi_bound * (norm_pdf(w_a) - norm_pdf(w_b)
                                      - shift * dw)
            return g_a, g_b, cross1, cross2

        gu_a, gu_b, cu1, cu2 = bound_terms(self.upper, self.up, self.b1, 1.0)
        gl_a, gl_b, cl1, cl2 = bound_terms(self.lower, self.low, self.a1, 0.0)
        r_a = norm_pdf(za) * (gu_a - gl_a)
        r_b = norm_pdf(zb) * (gu_b - gl_b)
        j1 = r_a - r_b + (beta / r) * (cu1 - cl1)

        cdf_term = np.subtract(cdf_b, cdf_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            outs = [delta * cdf_term + sigma12 * j1 / self.den]
            if order == 2:
                j2 = za_f * r_a - zb_f * r_b + (beta / (r * r)) * (cu2 - cl2)
                outs.append(delta * (outs[0] + sigma12 * j1 / self.den)
                            + sigma12 * sigma12 * (cdf_term + j2 / self.den))
        return self._patch_deep(outs, lambda *v: _deep_partial_moment(
            *v, orders=(1, 2)[:order]), a, b)


def cond_logpdf(x, delta, sigma1, sigma2, lower, upper):
    return CondLaw(delta, sigma1, sigma2, lower, upper).logpdf(x)


def cond_pdf(x, delta, sigma1, sigma2, lower, upper):
    return CondLaw(delta, sigma1, sigma2, lower, upper).pdf(x)


def cond_cdf(x, delta, sigma1, sigma2, lower, upper):
    return CondLaw(delta, sigma1, sigma2, lower, upper).cdf(x)


def cond_mean(delta, sigma1, sigma2, lower, upper):
    return CondLaw(delta, sigma1, sigma2, lower, upper).mean


def cond_partial_moment(a, b, delta, sigma1, sigma2, lower, upper,
                        cdf_a=None, cdf_b=None, order=1):
    law = CondLaw(delta, sigma1, sigma2, lower, upper)
    return law.partial_moments(a, b, cdf_a, cdf_b, order)[-1]


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
        x_new = xi + np.minimum(np.maximum(newton, -step_i), step_i)
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
    law = CondLaw(delta, sigma1, sigma2, lower, upper)

    def cdf_and_pdf(x, i):
        at = CondLaw(delta[i], sigma1[i], sigma2[i], lower[i], upper[i])
        return at.cdf(x), at.pdf(x)

    root, ok = probit_newton(cdf_and_pdf, law.mean + ndtri(q) * law.sigma12,
                             q, 1.0, law.sigma12, xtol=1e-13 * law.sigma12)
    return np.where(ok, root, np.nan).reshape(shape)
