"""The deep-tail law against the 40-digit oracle, and solves that rely on it.

``data/deep-law.json`` holds ``oracle.mp_integrals`` values of F, M1 and M2
over (-inf, x) for deep one- and two-sided truncations at sigma1/sigma2 in
{0.01, 0.05, 0.1, 0.2, 1, 10}, at the law's mean and one and two standard
deviations either side. ``data/tost-small-ratio.json`` holds the tost
endpoints of every plausible observation at sigma1/sigma2 in {0.01, 0.02},
one- and two-sided, with the oracle's F at each. ``PYTHONPATH=src python
tests/test_deep_law.py [deep-law] [tost-small-ratio]`` rewrites the named
files, by default both (a few minutes: each value is a 40-digit
quadrature).
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from enrichci import _kernels, batch
from enrichci._kernels import CondLaw, pooled_sd
from enrichci.batch import batch_ctost_ci, batch_umau_ci

from oracle import mp_integrals
from test_batch import _bounds, _plausible_observations

DATA = Path(__file__).resolve().parent / "data" / "deep-law.json"
TOST_DATA = DATA.with_name("tost-small-ratio.json")
RATIOS = (0.01, 0.05, 0.1, 0.2, 1.0, 10.0)
#: The tost targets of the lower and upper endpoints, F(observed) at each.
TAILS = (0.975, 0.025)


def geometries():
    """(name, sigma1, lower, upper) with sigma2 = 1 and delta = 0: every
    one is on the deep-tail path."""
    for r in RATIOS:
        yield from [("one-sided", r, 5.0 * r, math.inf),
                    ("two-sided", r, 5.0 * r, 5.5 * r),
                    ("upper", r, -math.inf, -6.0 * r),
                    ("far", r, 12.0 * r, math.inf)]


def points():
    for name, s1, lower, upper in geometries():
        law = CondLaw(0.0, s1, 1.0, lower, upper)
        mean, sd = float(law.mean), math.sqrt(float(law.var))
        yield name, s1, lower, upper, [mean + j * sd for j in (-2, -1, 0, 1, 2)]


def write():
    rows = [{"name": name, "sigma1": s1, "lower": lower, "upper": upper,
             "x": xs, "moments": [mp_integrals(0.0, s1, 1.0, lower, upper,
                                               -math.inf, x) for x in xs]}
            for name, s1, lower, upper, xs in points()]
    DATA.write_text(json.dumps(rows, indent=1) + "\n")


def small_ratio_problems():
    """(sigma1, kind, lower, upper, observed) at sigma1/sigma2 of 0.01 and
    0.02: the plausible observations, one- and two-sided."""
    for s1 in (0.01, 0.02):
        for kind in ("one-sided", "two-sided"):
            lower, upper = _bounds(s1, kind)
            yield (s1, kind, lower, upper,
                   _plausible_observations(s1, 1.0, lower, upper))


def write_tost():
    rows = []
    for s1, kind, lower, upper, observed in small_ratio_problems():
        lo, hi, ok = batch_ctost_ci(observed, 0.05, s1, 1.0, lower, upper)
        if not np.all(ok):
            raise RuntimeError(f"tost fails at sigma1 {s1}, {kind}")
        ends = [[float(a), float(b)] for a, b in zip(lo, hi)]
        cdf = [[mp_integrals(d, s1, 1.0, lower, upper, -math.inf, float(x),
                             orders=(0,))[0] for d in pair]
               for x, pair in zip(observed, ends)]
        rows.append({"sigma1": s1, "kind": kind, "lower": lower,
                     "upper": upper, "observed": observed.tolist(),
                     "endpoints": ends, "cdf": cdf})
    TOST_DATA.write_text(json.dumps(rows, indent=1) + "\n")


@pytest.fixture(scope="module")
def stored():
    return json.loads(DATA.read_text())


class TestAgainstOracle:
    """F within 1e-12; M1 and M2 within 1e-11 sigma12**order."""

    def test_covers_the_grid(self, stored):
        assert len(stored) == 4 * len(RATIOS)
        for row in stored:
            law = CondLaw(0.0, row["sigma1"], 1.0, row["lower"], row["upper"])
            assert bool(law.deep)

    def test_stored_values_are_the_oracle(self, stored):
        row = stored[0]
        got = mp_integrals(0.0, row["sigma1"], 1.0, row["lower"],
                           row["upper"], -math.inf, row["x"][2], orders=(0,))
        assert got[0] == row["moments"][2][0]

    def test_cdf_and_moments_from_minus_infinity(self, stored):
        for row in stored:
            law = CondLaw(0.0, row["sigma1"], 1.0, row["lower"], row["upper"])
            x = np.array(row["x"])
            f = law.cdf(x)
            m1, m2 = law.partial_moments(-np.inf, x, 0.0, f, order=2)
            want = np.array(row["moments"]).T
            s12 = pooled_sd(row["sigma1"], 1.0)
            for k, got in enumerate((f, m1, m2)):
                err = np.max(np.abs(got - want[k])) / s12**k
                assert err <= (1e-12 if k == 0 else 1e-11), (row["name"], k)

    def test_moments_between_points(self, stored):
        # Two points per element: one quadrature per point serves the CDF
        # at both and the moments between them.
        for row in stored:
            law = CondLaw(0.0, row["sigma1"], 1.0, row["lower"], row["upper"])
            a, b = np.array(row["x"][:-1]), np.array(row["x"][1:])
            fa, fb = law.cdf(np.stack([a, b]))
            m1, m2 = law.partial_moments(a, b, fa, fb, order=2)
            want = np.diff(np.array(row["moments"]), axis=0).T
            s12 = pooled_sd(row["sigma1"], 1.0)
            assert np.max(np.abs(m1 - want[1])) <= 1e-11 * s12, row["name"]
            assert np.max(np.abs(m2 - want[2])) <= 1e-11 * s12**2, row["name"]

    @pytest.mark.parametrize("lower,upper", [(5.0, math.inf), (5.0, 5.5)])
    def test_tost_meets_its_tails_at_ratio_001(self, lower, upper):
        s1 = 0.01
        law = CondLaw(0.0, s1, 1.0, lower * s1, upper * s1)
        x = float(law.mean)
        lo, hi, ok = batch_ctost_ci(x, 0.05, s1, 1.0, lower * s1, upper * s1)
        assert bool(ok)
        for delta, tail in ((lo, 0.975), (hi, 0.025)):
            f, = mp_integrals(float(delta), s1, 1.0, lower * s1, upper * s1,
                              -math.inf, x, orders=(0,))
            assert abs(f - tail) <= 1e-10, (delta, f)


class TestNearDegenerateRatios:
    """sigma1/sigma2 of 0.05 and 0.1, where the previous deep-tail rule
    lost accuracy: every plausible observation solves."""

    @pytest.mark.parametrize("kind", ["one-sided", "two-sided"])
    @pytest.mark.parametrize("ratio", [0.05, 0.1])
    def test_every_plausible_observation_converges(self, ratio, kind):
        lower, upper = _bounds(ratio, kind)
        observed = _plausible_observations(ratio, 1.0, lower, upper)
        tost = batch_ctost_ci(observed, 0.05, ratio, 1.0, lower, upper)
        umau = batch_umau_ci(observed, 0.05, ratio, 1.0, lower, upper,
                             seeds=tost)
        assert bool(np.all(tost[2])) and bool(np.all(umau[2]))
        assert bool(np.all(umau[0] < umau[1]))


class TestSlopeCheck:
    """The slope check passes the kernels' law at tost endpoints, deep ones
    included, and rejects a law whose CDF slope is off by 1e-4 relative,
    at sigma1/sigma2 of 1 and of 0.01, where the law is about 0.01 sigma12
    wide. So does each solver, which checks every converged endpoint."""

    @pytest.mark.parametrize("factor", [1.0 - 1e-4, 1.0 + 1e-4])
    @pytest.mark.parametrize("ratio", [1.0, 0.01])
    def test_rejects_a_slope_off_by_1e_4(self, monkeypatch, ratio, factor):
        lower, upper = _bounds(ratio, "one-sided")
        observed = _plausible_observations(ratio, 1.0, lower, upper)
        lo, hi, ok = batch_ctost_ci(observed, 0.05, ratio, 1.0, lower, upper)
        assert bool(np.all(ok))
        at, delta = np.tile(observed, 2), np.concatenate([lo, hi])

        def slope_matches():
            # The anchor F comes from the CDF that is differenced, so only
            # the slope is under test.
            law = CondLaw(delta, ratio, 1.0, lower, upper)
            return batch._slope_matches_density(law, at, law.cdf(at))

        assert bool(np.all(slope_matches()))
        cdf = CondLaw.cdf
        monkeypatch.setattr(CondLaw, "cdf",
                            lambda law, x: factor * cdf(law, x))
        assert not np.any(slope_matches())

    @pytest.mark.parametrize("kind", ["one-sided", "two-sided"])
    @pytest.mark.parametrize("factor", [1.0 - 1e-4, 1.0 + 1e-4])
    @pytest.mark.parametrize("ratio", [1.0, 0.01])
    def test_solvers_reject_every_endpoint(self, monkeypatch, ratio, factor,
                                           kind):
        lower, upper = _bounds(ratio, kind)
        args = (0.05, ratio, 1.0, lower, upper)
        observed = _plausible_observations(ratio, 1.0, lower, upper)
        seeds = batch_ctost_ci(observed, *args)
        assert bool(np.all(seeds[2]))
        cdf = CondLaw.cdf
        monkeypatch.setattr(CondLaw, "cdf",
                            lambda law, x: factor * cdf(law, x))
        # Without the check, both solvers converge on most of these.
        assert not np.any(batch_ctost_ci(observed, *args)[2])
        assert not np.any(batch_umau_ci(observed, *args, seeds=seeds)[2])

    def test_umau_checks_the_law_at_the_returned_delta(self, monkeypatch):
        # At sigma1/sigma2 = 0.01 one endpoint's last joint Newton step
        # moves it more than 0.1 h (h = 1e-4 of the law's sd) from the
        # point of its last law evaluation, where the check starts.
        lower, upper = _bounds(0.01, "one-sided")
        args = (0.05, 0.01, 1.0, lower, upper)
        observed = _plausible_observations(0.01, 1.0, lower, upper)
        seeds = batch_ctost_ci(observed, *args)
        checks = []  # per check: {(observation, lower side): (delta, h)}
        check = batch._slope_matches_density

        def spy(law, at, cdf):
            h = 1e-4 * np.sqrt(law.var)
            checks.append({(x, c < x): (d, step) for d, step, c, x
                           in zip(law.delta, h, *at)})
            return check(law, at, cdf)

        monkeypatch.setattr(batch, "_slope_matches_density", spy)
        lo, hi, ok = batch_umau_ci(observed, *args, seeds=seeds)
        assert np.count_nonzero(ok) >= 11
        returned = {**{(x, True): d for x, d in zip(observed, lo)},
                    **{(x, False): d for x, d in zip(observed, hi)}}
        last = {k: v for found in checks for k, v in found.items()}
        moved = 0
        for key, (first, h) in checks[0].items():  # converged endpoints
            moved += abs(first - returned[key]) > 0.1 * h
            assert abs(last[key][0] - returned[key]) <= 0.1 * h, key
        assert moved == 1


class TestTostAtSmallRatios:
    """sigma1/sigma2 of 0.01 and 0.02: tost converges on every plausible
    observation, and the oracle's F at each endpoint is within 1e-10 of
    its tail."""

    @pytest.fixture(scope="class")
    def stored(self):
        return json.loads(TOST_DATA.read_text())

    def test_covers_the_plausible_observations(self, stored):
        problems = list(small_ratio_problems())
        assert [(r["sigma1"], r["kind"]) for r in stored] == [
            p[:2] for p in problems]
        for row, (s1, _, lower, upper, observed) in zip(stored, problems):
            assert (row["lower"], row["upper"]) == (lower, upper)
            assert np.allclose(row["observed"], observed, rtol=0.0,
                               atol=1e-9 * pooled_sd(s1, 1.0))

    def test_stored_values_are_the_oracle(self, stored):
        row = stored[0]
        got = mp_integrals(row["endpoints"][0][0], row["sigma1"], 1.0,
                           row["lower"], row["upper"], -math.inf,
                           row["observed"][0], orders=(0,))
        assert got[0] == row["cdf"][0][0]

    def test_every_observation_meets_its_tails(self, stored):
        for row in stored:
            s1 = row["sigma1"]
            lo, hi, ok = batch_ctost_ci(np.array(row["observed"]), 0.05, s1,
                                        1.0, row["lower"], row["upper"])
            assert bool(np.all(ok)), (s1, row["kind"])
            # |dF/d delta| = |Cov(1{X <= x}, X)| / sigma12^2 <= 0.5 / sigma12,
            # so F at the solved endpoint misses its tail by at most the
            # stored miss plus half the move in sigma12.
            moved = np.abs(np.stack([lo, hi], axis=1)
                           - np.array(row["endpoints"])) / pooled_sd(s1, 1.0)
            miss = np.abs(np.array(row["cdf"]) - np.array(TAILS))
            assert np.max(miss + 0.5 * moved) <= 1e-10, (s1, row["kind"])


class TestOneDeepPassPerIteration:
    """Where every element is deep, the deep rule runs once per CDF call:
    the partial moments of an iteration reuse the CDF's quadrature."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"cdf": 0, "deep": 0}
        cdf, rule = CondLaw.cdf, _kernels._deep_partial_moment

        def counted_cdf(self, x):
            counts["cdf"] += 1
            return cdf(self, x)

        def counted_rule(*args):
            counts["deep"] += 1
            return rule(*args)

        monkeypatch.setattr(CondLaw, "cdf", counted_cdf)
        monkeypatch.setattr(_kernels, "_deep_partial_moment", counted_rule)
        return counts

    def test_tost_and_umau(self, counts):
        observed = _kernels.cond_quantile(np.array([0.1, 0.5, 0.9]), 0.0,
                                          1.0, 1.0, 30.0, np.inf)
        seeds = batch_ctost_ci(observed, 0.05, 1.0, 1.0, 30.0, np.inf)
        assert counts["deep"] == counts["cdf"] > 0
        counts.update(cdf=0, deep=0)
        assert bool(np.all(batch_umau_ci(observed, 0.05, 1.0, 1.0, 30.0,
                                         np.inf, seeds=seeds)[2]))
        assert counts["deep"] == counts["cdf"] > 0


class TestDeepBroadcast:
    """A deep law whose elements broadcast against more points than it has
    integrates at the points' shape, bit for bit as a law of that shape."""

    def test_size_one_law_equals_a_law_of_the_points_shape(self):
        x = np.array([1.0, 2.0, 3.0])

        def values(delta):
            law = CondLaw(delta, 1.0, 1.0, 5.0, np.inf)
            assert bool(np.all(law.deep))
            # A second law, so the moments do not come from the CDF's memo.
            moments = CondLaw(delta, 1.0, 1.0, 5.0, np.inf).partial_moments(
                -np.inf, x, order=2)
            return np.stack([law.cdf(x), *moments])

        assert np.array_equal(values(np.array([0.0])), values(np.zeros(3)))


class TestTrustRadius:
    """Deep tost endpoints lie up to about 16 sigma12 from the naive start;
    the doubling trust radius reaches them in a few steps."""

    @pytest.mark.parametrize("s1,lower,upper", [
        (1.0, 30.0, math.inf), (0.5, 30.0, math.inf), (1.0, -math.inf, -25.0),
        (0.5, 12.0, 13.0)])
    def test_deep_tost_evaluations(self, monkeypatch, s1, lower, upper):
        evaluated = [0]
        newton = _kernels.probit_newton

        def counted(f, *args, **kwargs):
            def step(x, i):
                evaluated[0] += i.size
                return f(x, i)
            return newton(step, *args, **kwargs)

        monkeypatch.setattr(batch, "probit_newton", counted)
        observed = _kernels.cond_quantile(np.linspace(0.01, 0.99, 40), 0.0,
                                          s1, 1.0, lower, upper)
        assert bool(np.all(batch_ctost_ci(observed, 0.05, s1, 1.0, lower,
                                          upper)[2]))
        # 20 to 56 evaluations per endpoint with a fixed one-sigma12 clip.
        assert evaluated[0] / (2 * observed.size) <= 13.0


if __name__ == "__main__":
    writers = {"deep-law": write, "tost-small-ratio": write_tost}
    for name in sys.argv[1:] or writers:
        writers[name]()
