"""Vectorized closed-form kernels for the conditional pooled-estimator law.

The model: a stage 1 estimate with std dev ``sigma1`` is truncated to the
interval (lower, upper); the precision-weighted pool of stage 1 and stage 2
estimates is the working statistic. Its CDF is bivariate-normal rectangles:
one ``bvn_cdf`` call takes Owen's T on each finite bound and point of the
elements whose selection probability is at least 1e-4 (an infinite bound's
term is Phi or 0), and F and the partial moments of the other elements are
a quadrature over the stage 1 variable. ``CondLaw`` evaluates the law once
per set of per-element parameters (each element has its own ``sigma1``,
``sigma2``, ``lower`` and ``upper``): a solver iteration builds one and
reads F, f, partial moments, mean and variance from it. Quantiles and the
tost endpoints in ``batch`` are ``probit_newton`` roots: Newton on the probit
scale of a monotone CDF, safeguarded by a bracket. +/-inf bookkeeping runs
only where an element needs it: the CDF's limits at x = +/-inf, and the
partial moments' guards on infinite ends and bounds, only when some point
or bound is infinite; a lower end given as the scalar -inf has no terms.
"""

from functools import cached_property

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

from ._normal import bvn_cdf, log_norm_prob_range, norm_pdf, norm_prob_range

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT2, _SQRT_HALF_PI = np.sqrt([2.0, 0.5 * np.pi])

# Below this selection log-probability the bivariate-normal differences in
# the closed-form CDF cancel catastrophically; switch to quadrature over the
# stage 1 variable.
_DEEP_LOG_DEN = np.log(1e-4)
# Phi(z) rounds to its limit for |z| >= 8. A quadrature piece spanning more
# than e^32 of the stage 1 density takes Gauss-Laguerre nodes.
_STEP_REACH, _S_LAGUERRE = 8.0, 32.0


def _gauss_rule(n, laguerre):
    """Gauss-Legendre nodes and weights on (0, 1), or Gauss-Laguerre ones
    with weights times e^x: numpy's nodes polished by Newton, weights from
    the derivative there (numpy's are off by up to 1e-13)."""
    x = (np.polynomial.laguerre.laggauss if laguerre
         else np.polynomial.legendre.leggauss)(n)[0]
    for _ in range(3):
        prev, cur = np.ones_like(x), (1.0 - x) if laguerre else x
        for j in range(1, n):
            prev, cur = cur, (((2 * j + 1 - x) if laguerre
                               else (2 * j + 1) * x) * cur - j * prev) / (j + 1)
        d = (n * (cur - prev) / x if laguerre
             else n * (x * cur - prev) / ((x - 1.0) * (x + 1.0)))
        x = x - cur / d
    if laguerre:
        return x, np.exp(x) / (x * d * d)
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x) * (1.0 + x) * d * d)


_LEG_T, _LEG_W = _gauss_rule(20, laguerre=False)
_LAG_S, _LAG_W = _gauss_rule(20, laguerre=True)


def pooled_sd(sigma1, sigma2):
    """Std dev of the precision-weighted pooled estimate."""
    return sigma1 * sigma2 / np.hypot(sigma1, sigma2)


def _log_phi(z):
    """log of the standard normal density: -inf at +/-inf, NaN at NaN."""
    return -0.5 * z * z - _LOG_SQRT_2PI


def _mills(v):
    """Q(v) / phi(v), the normal Mills ratio; 0 at +inf."""
    return _SQRT_HALF_PI * erfcx(v / _SQRT2)


def _deep_partial_moment(x, delta, sigma1, sigma2, a1, b1):
    """Rows F(x), M1(-inf, x), M2(-inf, x); arguments broadcast. The estimate is
    delta + c U + tau Z (U standard normal on (a1, b1), Z standard normal,
    c = rho^2 sigma1, tau = sigma12 sqrt(1 - rho^2)): given U it is normal,
    with z = (x - delta - c U) / tau a step of width sigma1 / sigma2 at u* =
    (x - delta) / c. In V = +/-U, in its upper tail on (lo, hi), the region
    where z >= 8 has truncated-normal closed forms, and the pieces from v*
    to z = +/-8 Gauss rules in the exponent s of phi(p + y) / phi(p) from
    their start p. Densities are relative to phi(lo) / P(lo < V < hi), a
    Mills ratio; sums run along node rows, which round alike at any width."""
    k = sigma2 / sigma1
    c = sigma1 * sigma2 * sigma2 / (sigma1 * sigma1 + sigma2 * sigma2)
    tau = c / k
    flip = a1 < -b1
    sign = np.where(flip, -1.0, 1.0)
    lo, hi = np.where(flip, -b1, a1), np.where(flip, -a1, b1)
    v_star, reach = sign * (x - delta) / c, _STEP_REACH / k
    v_at = np.where(np.isinf(v_star), lo - reach, v_star)  # x = +/-inf
    den = _mills(lo) - np.exp(-0.5 * (hi - lo) * (hi + lo)) * _mills(hi)
    # Where z >= 8 (V in (p, q)) the law given V lies below x.
    p_q = np.minimum(np.maximum(np.array([v_star + reach, v_star - reach]),
                                lo), hi)
    p_q[0], p_q[1] = np.where(flip, p_q[0], lo), np.where(flip, hi, p_q[1])
    out = 0.0
    if (p_q[1] > p_q[0]).any():
        rel = np.exp(-0.5 * (p_q - lo) * (p_q + lo))  # phi / phi(lo)
        mills = _mills(p_q)
        prob = (rel[0] * mills[0] - rel[1] * mills[1]) / den  # den: P / phi(lo)
        phi = rel / den
        v1 = c * sign * (phi[0] - phi[1])  # c E[U] and c^2 E[U^2] there
        p_q = np.where(np.isfinite(p_q), p_q, 0.0)  # phi is 0 at +inf
        v2 = c * c * (prob + p_q[0] * phi[0] - p_q[1] * phi[1])
        out = np.array([prob, delta * prob + v1, (delta * delta + tau * tau)
                        * prob + 2.0 * delta * v1 + v2])

    edges = np.minimum(np.maximum(
        np.array([v_at - reach, v_at, v_at + reach]), lo), hi)[..., None]
    start, span = edges[:2], edges[1:] - edges[:2]  # (piece, ..., node)
    rate = np.maximum(start, 1.0)
    s_end = span * (rate + 0.5 * span)
    laguerre = s_end > _S_LAGUERRE
    s = np.where(laguerre, _LAG_S, s_end * _LEG_T)
    root = np.sqrt(rate * rate + 2.0 * s)  # ds/dv
    y = 2.0 * s / (rate + root)  # s = rate y + y^2 / 2
    v, lo = start + y, lo[..., None]
    weight = (np.where(laguerre, _LAG_W, s_end * _LEG_W) / (root * den[..., None])
              * np.exp(-0.5 * ((start - lo) + y) * (v + lo)))
    z = (sign * k)[..., None] * ((v_at[..., None] - start) - y)
    mean, tau = delta[..., None] + (c * sign)[..., None] * v, tau[..., None]
    cdf, pdf = ndtr(z), norm_pdf(z)
    rows = np.add.reduce(weight * np.array([
        cdf, mean * cdf - tau * pdf, (mean * mean + tau * tau) * cdf
        - tau * pdf * (2.0 * mean + tau * z)]), axis=-1)
    return out + rows[:, 0] + rows[:, 1]


class CondLaw:
    """The conditional law, per element. Construction computes what every
    quantity shares: the geometry, the standardized stage 1 bounds ``a1``
    and ``b1``, the selection log-probability, the deep-tail mask and
    ``any_deep``, the finite lower/upper bound counts ``low``/``up``, and
    ``mixed``: some element is deep or lacks a finite bound another has."""

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
        self.low = np.count_nonzero(np.isfinite(self.lower))
        self.up = np.count_nonzero(np.isfinite(self.upper))
        self.any_deep = self.deep.any()
        self.mixed = (self.any_deep or 0 < self.low < self.lower.size
                      or 0 < self.up < self.upper.size)
        self._memo = None  # deep-tail points integrated, and F, M1, M2 there

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
        flip = self.a1 < -self.b1
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
        x = np.where(np.isinf(x), 0.0, x)  # no inf - inf; -inf regardless
        log_num = log_norm_prob_range((self.lower - x) / self.s,
                                      (self.upper - x) / self.s)
        return _log_phi(zx) - np.log(self.sigma12) + log_num - self.log_den

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    @cached_property
    def _deep_args(self):
        """delta, sigma1, sigma2, a1 and b1 at the deep elements, flat."""
        return [v[self.deep] for v in np.broadcast_arrays(
            self.delta, self.sigma1, self.sigma2, self.a1, self.b1)]

    def _deep_moments(self, x, shape):
        """Rows F, M1, M2 on (-inf, x) at the deep elements of ``shape`` (in
        ``np.flatnonzero`` order). A law keeps the points it integrated, so
        the CDF and the partial moments of one iteration share them."""
        if shape[len(shape) - self.deep.ndim:] != self.deep.shape:
            return CondLaw(*np.broadcast_arrays(
                self.delta, self.sigma1, self.sigma2, self.lower, self.upper,
                np.empty(shape))[:5])._deep_moments(x, shape)
        pts = (x if x.shape == shape else np.broadcast_to(x, shape)).reshape(
            -1, self.deep.size)[:, self.deep.ravel()]
        memo_x, memo = self._memo or (pts, None)
        if memo is not None and memo_x.shape[0] * pts.size <= 1 << 22:
            known = memo_x[:, None] == pts  # (memo row, row, deep element)
            if known.any(0).all():
                return memo[:, known.argmax(0),
                            np.arange(pts.shape[1])].reshape(3, -1)
        rows = _deep_partial_moment(pts, *self._deep_args)
        self._memo = (pts, rows) if memo is None else (
            np.concatenate([memo_x, pts]), np.concatenate([memo, rows], axis=1))
        return rows.reshape(3, -1)

    def cdf(self, x):
        """Conditional CDF through bivariate-normal rectangle probabilities."""
        x = np.asarray(x, dtype=float)
        zx = (x - self.delta) / self.sigma12
        # One bvn_cdf call on the finite bounds of closed-form elements; an
        # infinite bound's term is Phi(zx) or 0. Deep ones may overflow here.
        if self.mixed:
            # Rows zx, b1, a1, rho (broadcast_arrays costs more on small laws).
            rows = np.empty((4, *np.broadcast(
                zx, self.b1, self.a1, self.rho).shape))
            rows[0], rows[1], rows[2], rows[3] = zx, self.b1, self.a1, self.rho
            zx_b, k, rho = rows[0], rows[1:3], rows[3]
            use = np.isfinite(k) & ~self.deep
            at = np.nonzero(use)
            below = np.zeros(k.shape)
            if at[0].size:
                below[at] = bvn_cdf(zx_b[at[1:]], k[at], rho[at[1:]])
            below[0, ~use[0]] = ndtr(zx_b[~use[0]])
            below_upper, below_lower = below
        elif self.up and self.low:
            k = np.empty((2, *np.broadcast(zx, self.b1, self.a1).shape))
            k[0], k[1] = self.b1, self.a1
            below_upper, below_lower = bvn_cdf(zx, k, self.rho)
        else:
            below_upper = bvn_cdf(zx, self.b1, self.rho) if self.up else ndtr(zx)
            below_lower = bvn_cdf(zx, self.a1, self.rho) if self.low else 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = (below_upper - below_lower) / self.den
        if self.any_deep:
            out = np.array(out)
            out.reshape(-1)[np.flatnonzero(np.broadcast_to(
                self.deep, out.shape))] = self._deep_moments(x, out.shape)[0]
        out = np.minimum(np.maximum(out, 0.0), 1.0)
        if np.isinf(zx).any():  # the limits at x = +/-inf
            out = np.where(zx == np.inf, 1.0, np.where(zx == -np.inf, 0.0, out))
        return out

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

        # Rows a and b, or b alone from a scalar a = -inf (``at_a`` is 0).
        from_inf = a.ndim == 0 and a == -np.inf
        ends = b[None] if from_inf else np.array(np.broadcast_arrays(a, b))
        z = (ends - delta) / sigma12
        fin_z = np.isfinite(z)
        whole = fin_z.all()
        z_f = z if whole else np.where(fin_z, z, 0.0)

        def at_a(v):
            return 0.0 if from_inf else v[0]

        def bound_terms(bound, finite, z1, at_inf):
            """Phi(alpha + beta z) at the ends, and the cross integrals of
            z phi R and z^2 phi R of one truncation bound, standardized
            to z1. A bound infinite for every element is skipped."""
            if not finite:
                return at_inf, 0.0, 0.0
            alpha = (bound - delta) / s
            g = ndtr(alpha + beta * z_f)
            if finite < bound.size:  # some elements lack this bound
                fin = np.isfinite(bound)
                alpha, g = np.where(fin, alpha, 0.0), np.where(fin, g, at_inf)
            shift = beta * alpha / r
            # w = r*z + shift, infinite where z is
            w = r * z_f + shift if whole else np.where(fin_z, r * z_f + shift, z)
            phi_bound, cdf_w = norm_pdf(z1), ndtr(w)
            dw = cdf_w[-1] - at_a(cdf_w)
            if order == 1:
                return g, phi_bound * dw, 0.0
            pdf_w = norm_pdf(w)
            return g, phi_bound * dw, phi_bound * (at_a(pdf_w) - pdf_w[-1]
                                                   - shift * dw)

        gu, cu1, cu2 = bound_terms(self.upper, self.up, self.b1, 1.0)
        gl, cl1, cl2 = bound_terms(self.lower, self.low, self.a1, 0.0)
        r_z = norm_pdf(z) * (gu - gl)
        j1 = at_a(r_z) - r_z[-1] + (beta / r) * (cu1 - cl1)

        cdf_term = np.subtract(cdf_b, cdf_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            outs = [delta * cdf_term + sigma12 * j1 / self.den]
            if order == 2:
                j2 = (at_a(z_f) * at_a(r_z) - z_f[-1] * r_z[-1]
                      + (beta / (r * r)) * (cu2 - cl2))
                outs.append(delta * (outs[0] + sigma12 * j1 / self.den)
                            + sigma12 * sigma12 * (cdf_term + j2 / self.den))
        if self.any_deep:
            outs = [np.array(out) for out in outs]
            shape = outs[0].shape
            at = np.flatnonzero(np.broadcast_to(self.deep, shape))
            rows = self._deep_moments(b, shape)
            if np.any(a != -np.inf):
                rows = rows - self._deep_moments(a, shape)
            for j, out in enumerate(outs, 1):
                out.reshape(-1)[at] = rows[j]
        return outs


def flat_broadcast(*arrays):
    """Broadcast shape plus each argument broadcast and flattened to 1-D."""
    broad = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in arrays])
    return broad[0].shape, [b.ravel() for b in broad]


def probit_newton(f, x, q, sign, step, xtol):
    """Root in x of F(x) = q per element of a monotone F; (root, ok).

    ``f(x, i)`` returns F and dF/dx at ``x`` for the elements ``i``; F
    increases in x for ``sign`` +1 and decreases for -1. Newton steps on
    ndtri(F) - ndtri(q), linear in x for an untruncated normal law, start
    at ``x`` and are clipped to a trust radius. Where F rounds to 0 or 1,
    or a step points away from the root or leaves the bracket the
    evaluations so far imply, the element bisects that bracket, or moves
    the radius towards the root while it is open on that side. The radius
    is ``step``, doubled after each clipped step for one the same way.
    Only a Newton step converges: probit residual at most 1e-6, and a step
    below ``xtol`` or stalled at the rounding floor (under 1e-7 ``step``,
    no longer halving). An element with that residual whose bracket has
    shrunk to ``xtol`` also converges, at its evaluated point: where F is
    noisy at the rounding level, Newton may keep pointing out of such a
    bracket. ``step`` and ``xtol`` broadcast to ``x``.
    """
    x = np.array(x, dtype=float)
    zq = ndtri(q)
    step, xtol = np.broadcast_arrays(step, xtol, x)[:2]
    lo = np.full(x.shape, -np.inf)
    hi = np.full(x.shape, np.inf)
    last = np.full(x.shape, np.inf)
    trust = np.zeros(x.shape)  # after a clipped step: 2 radius, signed
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
        reach = np.fmax(trust[idx] * towards, step_i)
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
        x_new = xi + np.minimum(np.maximum(newton, -reach), reach)
        guard = ~conv & ~((towards * newton > 0) & (x_new > lo_i)
                          & (x_new < hi_i))
        ahead = np.where(towards > 0, hi_i, lo_i)
        open_ = np.isinf(ahead)
        x_new = np.where(guard, np.where(open_, xi + towards * reach,
                                         0.5 * (xi + ahead)), x_new)
        trust[idx] = np.where(guard, open_, size > reach) * towards * 2.0 * reach
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
