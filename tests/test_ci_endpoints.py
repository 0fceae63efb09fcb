"""Golden ``ci`` endpoints at full precision.

``data/ci-endpoints.json`` holds the ``repr`` of every naive, tost and
umau endpoint of a set of fixed trials: the worked example's targets, and
one- and two-sided, deep-tail and sigma1/sigma2 in {0.2, 5} geometries.
naive and tost must reproduce them bit for bit. umau must agree to 1e-10
pooled sd: its joint Newton stops where rounding in its equations sets
the floor, and there endpoints move by up to a few 1e-11 pooled sd when
the rounding of its Jacobian changes.

``PYTHONPATH=src python tests/test_ci_endpoints.py`` rewrites the file
from the current code, for a change that is meant to move endpoints.
"""

import json
import math
from pathlib import Path

import pytest

from enrichci import (
    ConditionalNormal,
    DecisionRule,
    Stage1Summary,
    Stage2Summary,
    TrialDesign,
)
from enrichci.cli import (
    _EXAMPLE_DESIGN,
    _EXAMPLE_STAGE1,
    _EXAMPLE_STAGE2_SELECTED,
    _EXAMPLE_STAGE2_SUBS,
    _EXAMPLE_THRESHOLD,
)
from enrichci._kernels import pooled_sd
from enrichci.designs import pooled_estimate
from enrichci.intervals import interval_estimates

DATA = Path(__file__).resolve().parent / "data" / "ci-endpoints.json"
ALPHA = 0.05
METHODS = ("naive", "tost", "umau")
FIELDS = ("sigma1", "sigma2", "lower", "upper", "observed")

# (name, sigma1, sigma2, lower, upper, observations). The observations
# lie between the 1st and 99th percentiles of the law at delta = 0.
GEOMETRIES = [
    ("one-sided lower", 1.0, 1.0, 0.0, math.inf, (0.1, 1.7)),
    ("one-sided upper", 1.0, 1.0, -math.inf, 0.4, (-1.1, 0.3)),
    ("two-sided", 1.0, 1.0, -0.3, 0.9, (-0.2, 0.8)),
    ("unequal sigmas", 0.6, 1.3, 0.2, 1.0, (0.4, 1.2)),
    ("deep one-sided", 1.0, 1.0, 4.1, math.inf, (1.5, 2.3, 3.2)),
    ("deep two-sided", 1.0, 1.0, 4.1, 4.6, (2.1, 3.0)),
    ("ratio 0.2", 0.2, 1.0, 0.0, math.inf, (0.05, 0.4)),
    ("ratio 0.2 two-sided", 0.2, 1.0, -0.1, 0.1, (-0.09, 0.12)),
    ("ratio 5", 5.0, 1.0, 0.0, math.inf, (0.5, 2.3)),
    ("ratio 5 two-sided", 5.0, 1.0, -2.5, 2.5, (-1.2, 0.9)),
]


def worked_example_trials():
    design = TrialDesign(**_EXAMPLE_DESIGN)
    s1 = Stage1Summary(_EXAMPLE_STAGE1)
    decision = DecisionRule("d2", _EXAMPLE_THRESHOLD,
                            co_primary=True).decide(design, s1)
    s2 = Stage2Summary(_EXAMPLE_STAGE2_SELECTED, _EXAMPLE_STAGE2_SUBS)
    return [(f"example {t.name}", t.se1, t.se2, t.lower, t.upper,
             pooled_estimate(design, decision, s1, s2, t))
            for t in decision.targets]


def trials():
    rows = worked_example_trials()
    for name, s1, s2, lower, upper, xs in GEOMETRIES:
        rows += [(name, s1, s2, lower, upper, x) for x in xs]
    return rows


def solve(stored):
    """``{method: [(lower, upper), ...]}`` in the order of ``stored``."""
    rows = [(t["name"], ConditionalNormal(
        0.0, *(float(t[f]) for f in FIELDS[:4])), float(t["observed"]))
        for t in stored]
    cis = interval_estimates(rows, ALPHA, METHODS)
    out = {m: [] for m in METHODS}
    for ci in cis:
        out[ci.method].append((ci.lower, ci.upper))
    return out


def write():
    stored = [dict(zip(("name", *FIELDS), (t[0], *map(repr, t[1:]))))
              for t in trials()]
    for m, endpoints in solve(stored).items():
        for t, pair in zip(stored, endpoints):
            t[m] = [repr(v) for v in pair]
    DATA.write_text(json.dumps({"alpha": repr(ALPHA), "trials": stored},
                               indent=1) + "\n")


class TestGoldenEndpoints:
    @pytest.fixture(scope="class")
    def stored(self):
        return json.loads(DATA.read_text())

    def test_covers_the_trials(self, stored):
        assert float(stored["alpha"]) == ALPHA
        got = [(t["name"], *(float(t[f]) for f in FIELDS))
               for t in stored["trials"]]
        assert got == trials()

    def test_endpoints(self, stored):
        stored = stored["trials"]
        solved = solve(stored)
        for m in METHODS:
            for t, (lo, hi) in zip(stored, solved[m]):
                want_lo, want_hi = (float(v) for v in t[m])
                if m == "umau":
                    tol = 1e-10 * pooled_sd(float(t["sigma1"]),
                                            float(t["sigma2"]))
                    assert lo == pytest.approx(want_lo, rel=0, abs=tol), t
                    assert hi == pytest.approx(want_hi, rel=0, abs=tol), t
                else:
                    assert (lo, hi) == (want_lo, want_hi), (m, t)


if __name__ == "__main__":
    write()
