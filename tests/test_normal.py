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
from enrichci._normal import bvn_cdf, norm_pdf

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
    """The normal density is 0 and its log -inf at +/-inf, by IEEE
    arithmetic and without a warning; a NaN stays NaN."""

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
