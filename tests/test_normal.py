"""The normal and bivariate-normal building blocks in ``_normal``.

``data/bvn-cdf.json`` holds the ``repr`` of ``bvn_cdf`` on a grid of h
and k (+/-inf, 0, +/-1e-310 and ordinary values) and of rho (up to
+/-(1 - 1e-12)), in the shapes the conditional CDF passes: scalar calls,
(n,) arrays with an array or a scalar rho, and a stacked (2, P, n) k.
``bvn_cdf`` must reproduce every value bit for bit.

``PYTHONPATH=src python tests/test_normal.py`` rewrites the file from
the current code, for a change that is meant to move values.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from enrichci import _kernels, _normal
from enrichci._kernels import CondLaw
from enrichci._normal import bvn_cdf, norm_pdf, norm_prob_range
from scipy.special import ndtr

DATA = Path(__file__).resolve().parent / "data" / "bvn-cdf.json"
H = [-math.inf, -8.5, -1.3, -1e-310, 0.0, 1e-310, 0.4, 1.0, 3.7, math.inf]
RHO = [-(1.0 - 1e-12), -0.6, 0.0, 0.3, 0.95, 0.99995, 1.0 - 1e-12]


def cases():
    """``{name: values}``, each a flat list of floats."""
    h, k, rho = (a.ravel() for a in np.meshgrid(H, H, RHO, indexing="ij"))
    hk = np.array(H)[:, None]
    # A CondLaw.cdf call on two finite bounds: points (P, n) against a
    # stacked upper and lower bound (2, P, n), one correlation per element.
    i, j = np.indices((len(H), len(RHO)))
    stacked_k = np.array(H)[np.stack([(i + j) % len(H), (3 * i + j) % len(H)])]
    return {
        "scalar": [float(bvn_cdf(*v)) for v in zip(h, k, rho)],
        "vector": bvn_cdf(h, k, rho).tolist(),
        "vector, scalar rho": np.concatenate(
            [bvn_cdf(hk, np.array(H), r).ravel() for r in RHO]).tolist(),
        "stacked": bvn_cdf(np.broadcast_to(hk, i.shape), stacked_k,
                           np.array(RHO)).ravel().tolist(),
    }


def write():
    grid = {"h": H, "rho": RHO, **cases()}
    DATA.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps([repr(v) for v in values])}"
        for name, values in grid.items()) + "\n}\n")


class TestGoldenBvnCdf:
    @pytest.fixture(scope="class")
    def stored(self):
        return {name: np.array([float(v) for v in values])
                for name, values in json.loads(DATA.read_text()).items()}

    def test_covers_the_grid(self, stored):
        assert np.array_equal(stored["h"], H)
        assert np.array_equal(stored["rho"], RHO)

    def test_values(self, stored):
        for name, got in cases().items():
            assert np.array_equal(got, stored[name]), name


class TestOneOwensTCall:
    """``bvn_cdf`` evaluates both Owen's T terms in one ``owens_t`` call,
    on every path: the den -> 0 limit, the origin and infinite arguments
    included. A conditional CDF with one or two finite bounds is one
    ``bvn_cdf`` call, so one ``owens_t`` call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, owens_t = [], _normal.owens_t

        def counted(x, a):
            calls.append(np.shape(x))
            return owens_t(x, a)

        monkeypatch.setattr(_normal, "owens_t", counted)
        return calls

    def test_bvn_cdf(self, calls):
        h = np.array([0.3, 0.0, 1e-310, -np.inf, np.inf, -1.2])
        k = np.array([-0.7, 0.0, 0.5, 0.2, 1.1, np.inf])
        bvn_cdf(h, k, np.linspace(-0.9, 0.9, h.size))
        assert calls == [(2, 6)]
        bvn_cdf(0.3, -0.7, 0.5)
        assert calls == [(2, 6), (2,)]

    @pytest.mark.parametrize("upper,shape", [
        (math.inf, (2, 2, 3)), (3.0, (2, 2, 2, 3))],
        ids=["one finite bound", "two finite bounds"])
    def test_law_cdf(self, calls, upper, shape):
        law = CondLaw(np.zeros(3), 1.0, np.array([0.5, 1.0, 2.0]), 0.5, upper)
        law.cdf(np.array([[0.2, 0.9, 1.7], [0.4, 1.1, 2.5]]))
        assert calls == [shape]


class TestMixedLaw:
    """A law that stacks one-sided, two-sided, untruncated and deep elements
    takes Owen's T only where the closed form uses it: two terms per point
    and finite bound of a closed-form element, none for a deep element. Its
    CDF and partial moments are, bit for bit, those of one law per element,
    and a law whose elements all use every finite bound is not mixed."""

    # Per element (sigma1 = 1, delta = 0): lower-only, upper-only,
    # two-sided, untruncated, then deep one- and two-sided.
    LOWER = np.array([0.5, -np.inf, -0.3, -np.inf, 4.5, 5.0])
    UPPER = np.array([np.inf, 0.4, 0.9, np.inf, np.inf, 5.5])
    SIGMA2 = np.array([0.5, 1.0, 2.0, 1.0, 1.3, 0.7])
    # Finite bounds of the closed-form elements.
    USED = 4
    X = np.array([[-0.4, -0.9, 0.1, -1.0, 4.6, 5.1],
                  [0.2, -0.2, 0.4, 0.3, 4.9, 5.2],
                  [0.9, 0.1, 0.6, 0.7, 5.3, 5.4]])

    @pytest.fixture
    def elements(self, monkeypatch):
        elements, owens_t = [], _normal.owens_t

        def counted(x, a):
            elements.append(np.size(x))
            return owens_t(x, a)

        monkeypatch.setattr(_normal, "owens_t", counted)
        return elements

    def law(self, j=slice(None)):
        return CondLaw(0.0, 1.0, self.SIGMA2[j], self.LOWER[j], self.UPPER[j])

    def test_deep_mask(self):
        assert self.law().deep.tolist() == [False] * 4 + [True] * 2

    def test_owens_t_elements(self, elements):
        law = self.law()
        assert law.mixed
        law.cdf(self.X)
        assert elements == [2 * self.USED * len(self.X)]
        law.cdf(self.X[0])
        assert elements[1:] == [2 * self.USED]

    def test_no_owens_t_for_an_all_deep_law(self, elements):
        self.law(slice(4, None)).cdf(self.X[:, 4:])
        assert sum(elements) == 0

    def test_not_mixed(self):
        # One element, or elements sharing which bounds are finite.
        assert not any(self.law(j).mixed for j in range(4))
        assert not CondLaw(0.0, 1.0, self.SIGMA2[:3], self.LOWER[2],
                           self.UPPER[2] + np.arange(3.0)).mixed

    def test_bit_identical_to_one_law_per_element(self):
        law = self.law()
        a, b = self.X[0], self.X[2]
        cdf = law.cdf(self.X)
        moments = law.partial_moments(a, b, order=2)
        for j in range(self.X.shape[1]):
            one = self.law(slice(j, j + 1))
            assert np.array_equal(cdf[:, j], one.cdf(self.X[:, j:j + 1])[:, 0])
            for got, want in zip(moments, one.partial_moments(
                    a[j:j + 1], b[j:j + 1], order=2)):
                assert np.array_equal(got[j:j + 1], want)


class TestNonFiniteArguments:
    """The normal density, and the conditional law's, is 0 and its log -inf
    at +/-inf, without a warning; a NaN stays NaN."""

    def test_infinities(self):
        z = np.array([-np.inf, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(norm_pdf(z), [0.0, 0.0])
            assert np.array_equal(_kernels._log_phi(z), [-np.inf, -np.inf])

    def test_nan_stays_nan(self):
        z = np.array([np.nan, 0.0])
        assert np.isnan(norm_pdf(z)[0]) and norm_pdf(z)[1] > 0.0
        assert np.isnan(_kernels._log_phi(z)[0])

    def test_bvn_cdf_nan_argument(self):
        # NaN in h or k, with a finite, infinite or NaN partner.
        h = np.array([np.nan, 1.0, np.nan, -np.inf, np.inf, np.nan, 0.3])
        k = np.array([0.5, np.nan, np.inf, np.nan, np.nan, np.nan, -0.7])
        got = bvn_cdf(h, k, 0.3)
        assert np.isnan(got[:-1]).all()
        assert got[-1] == bvn_cdf(0.3, -0.7, 0.3)
        assert np.isnan(bvn_cdf(np.nan, 0.5, 0.3))
        assert np.isnan(bvn_cdf(1.0, np.nan, 0.3))

    @pytest.mark.parametrize("lower,upper", [
        (-np.inf, 1.0), (0.5, np.inf), (-0.3, 0.9), (5.0, np.inf),
        (5.0, 5.5),
    ], ids=["upper-only", "lower-only", "two-sided", "deep", "deep-two-sided"])
    def test_law_cdf_nan_point(self, lower, upper):
        got = CondLaw(0.0, 1.0, 1.0, lower, upper).cdf(np.array([np.nan, 5.2]))
        assert np.isnan(got[0])
        assert got[1] == CondLaw(0.0, 1.0, 1.0, lower, upper).cdf(5.2)

    def test_mixed_law_cdf_nan_point(self):
        law = CondLaw(0.0, 1.0, 1.0, np.array([0.5, -np.inf, 5.0]),
                      np.array([np.inf, 1.0, np.inf]))
        got = law.cdf(np.array([[np.nan] * 3, [0.4, 0.4, 5.2]]))
        assert np.isnan(got[0]).all()
        assert np.array_equal(got[1], law.cdf(np.array([0.4, 0.4, 5.2])))

    @pytest.mark.parametrize("lower,upper", [
        (-np.inf, np.inf), (0.5, np.inf), (-np.inf, 1.0), (-0.3, 0.9),
        (5.0, np.inf),
    ], ids=["untruncated", "lower-only", "upper-only", "two-sided", "deep"])
    def test_law_density_at_infinity(self, lower, upper):
        # With the bound on the point's side infinite, the selection
        # factor's standardized bound is inf - inf.
        law = CondLaw(0.0, 1.0, 1.0, lower, upper)
        ends = np.array([np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(law.pdf(ends), [0.0, 0.0])
            assert np.array_equal(law.logpdf(ends), [-np.inf, -np.inf])
        got = law.logpdf(np.array([np.nan, np.inf, 0.7]))
        assert np.isnan(got[0]) and got[2] == law.logpdf(0.7)


def _both_forms(a, b):
    """``norm_prob_range`` with both of its forms evaluated everywhere, then
    one chosen per element: the reference for the single-form evaluation."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    direct = ndtr(b) - ndtr(a)
    flipped = ndtr(-a) - ndtr(-b)
    return np.maximum(np.where(a > 0.0, flipped, direct), 0.0)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


class TestSkippedBookkeeping:
    """Steps skipped where no element needs them give, bit for bit, what
    the general path gives on inputs that force it: each form of
    ``norm_prob_range`` only where it is returned; ``partial_moments``
    without the terms of a scalar a = -inf, and without the guards on
    infinite points; ``CondLaw.cdf`` without its limits at x = +/-inf."""

    # Without its limits, the CDF at +inf is 1 - 2e-16 on the lower-only
    # and two-sided laws, and at -inf 1e-30 on the deep one.
    GEOMETRIES = {"lower-only": (0.6, np.inf), "upper-only": (-np.inf, 1.0),
                  "two-sided": (0.4, 0.9), "untruncated": (-np.inf, np.inf),
                  "deep": (3.9, np.inf), "deep-two-sided": (5.0, 5.5)}
    MIXED = (np.array([0.6, -np.inf, 0.4, -np.inf, 3.9, 5.0]),
             np.array([np.inf, 1.0, 0.9, np.inf, np.inf, 5.5]))

    def laws(self):
        for name, (lower, upper) in self.GEOMETRIES.items():
            law = CondLaw(0.0, 1.0, 0.8, lower, upper)
            centre, sd = float(law.mean), math.sqrt(float(law.var))
            yield name, law, centre + sd * np.linspace(-2.5, 2.5, 7)
        law = CondLaw(0.0, 1.0, 0.8, *self.MIXED)
        yield "mixed", law, law.mean + np.sqrt(law.var) * np.linspace(
            -2.5, 2.5, 7)[:, None]

    def test_norm_prob_range_one_form(self):
        rng = np.random.default_rng(17)
        a = rng.normal(0.0, 4.0, 4000)
        b = a + rng.exponential(1.0, 4000)
        ends = [-np.inf, -1.5, 0.0, 0.7, 40.0, np.inf, np.nan]
        a_edge, b_edge = (v.ravel() for v in np.meshgrid(ends, ends))
        a, b = np.concatenate([a, a_edge]), np.concatenate([b, b_edge])
        assert np.any(a == b) and np.isnan(a).any()  # a = b and NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _same_bits(norm_prob_range(a, b), _both_forms(a, b))
            for pair in zip(a_edge, b_edge):
                assert _same_bits(norm_prob_range(*pair), _both_forms(*pair))

    @pytest.mark.parametrize("order", [1, 2])
    def test_partial_moments_from_minus_infinity(self, order):
        for name, law, b in self.laws():
            minus_inf = np.full(b.shape, -np.inf)
            want = law.partial_moments(minus_inf, b, order=order)
            got = law.partial_moments(-np.inf, b, order=order)
            assert len(got) == order
            for g, w in zip(got, want):
                assert _same_bits(g, w), name
            # As tost calls it, with the CDF at both ends given.
            f = law.cdf(b)
            for g, w in zip(law.partial_moments(-np.inf, b, 0.0, f, order),
                            law.partial_moments(minus_inf, b, 0.0, f, order)):
                assert _same_bits(g, w), name

    @pytest.mark.parametrize("order", [1, 2])
    def test_partial_moments_at_finite_ends(self, order):
        # One (-inf, inf) pair appended forces the guards on infinite ends.
        for name, law, b in self.laws():
            a, inf = b - 0.5, np.full((1, *b.shape[1:]), np.inf)
            got = law.partial_moments(a, b, order=order)
            want = law.partial_moments(np.concatenate([a, -inf]),
                                       np.concatenate([b, inf]), order=order)
            for g, w in zip(got, want):
                assert _same_bits(g, w[:len(b)]), name

    def test_cdf_at_finite_points(self):
        for name, law, x in self.laws():
            for end, limit in ((np.inf, 1.0), (-np.inf, 0.0)):
                tail = np.full((1, *x.shape[1:]), end)
                got = law.cdf(np.concatenate([x, tail]))
                assert _same_bits(got[:len(x)], law.cdf(x)), name
                assert np.all(got[len(x):] == limit), name


class TestBadCorrelation:
    def test_message_names_the_first_bad_value(self):
        rho = np.full((2, 500), 0.5)
        rho[1, 7], rho[1, 9] = 1.0, np.nan
        with pytest.raises(ValueError) as err:
            bvn_cdf(0.1, 0.2, rho)
        assert str(err.value) == (
            "correlation must be in (-1, 1), got 1.0 at index (1, 7)")

    def test_scalar(self):
        with pytest.raises(ValueError) as err:
            bvn_cdf(0.1, 0.2, np.nan)
        assert str(err.value) == "correlation must be in (-1, 1), got nan"


if __name__ == "__main__":
    write()
