"""The three benchmark workloads: seeded inputs, one operation, output checks.

The two simulation workloads run ``enrichci simulate`` in process through
``enrichci.cli.main``, so an operation is one simulate call and its checked
output is the CSV a user gets. ``ci-scalar`` draws realized trials and an
operation is the work behind ``enrichci ci``: the interim decision plus one
``confidence_intervals`` call for naive, umau and tost.

Package functions are looked up as module attributes at call time, so the
tracer's wrappers see every call.
"""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

from scipy.special import bdtr, bdtrc, ndtr, ndtri

from enrichci import (
    ConditionalNormal,
    DecisionRule,
    Scenario,
    TrialDesign,
    cli,
    designs,
    draw_stage1,
    draw_stage2,
)

# Stored CSVs of simulate calls; a call whose file exists must match it.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ALPHA = 0.05
SIM_HEADER = "branch,proportion,method,coverage,mean_width,width_ratio,mc_halfwidth"

# A coverage or proportion fails its check when the exact binomial tail
# beyond the observed count is below this, on either side. A run makes at
# most a few hundred such checks, so a correct program fails one by chance
# with probability under 1e-4; a wrong interval shifts coverage by far more.
TAIL = 1e-7

WARMUP_REPLICATES = 20


def binomial_ok(successes, n, p):
    """Whether ``successes`` of ``n`` lies inside the band around ``n*p``."""
    return bdtr(successes, n, p) >= TAIL and bdtrc(successes - 1, n, p) >= TAIL


def op_seed(seed, i):
    """Scenario seed of the i-th simulate call of a run."""
    return seed * 100_000 + i


# Acceptance-table design: k=2, equal prevalence, n1=n2=244, sigma=8.
SIM_DESIGN = {"k": 2, "p": [0.5, 0.5], "n1": 244, "n2": 244, "sigma": 8.0,
              "alpha": ALPHA}


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    name: str
    rule: str
    deltas: tuple
    methods: tuple
    replicates: int            # per simulate call
    ops_per_round: int         # distinct calls (scenario seeds) in a run
    op_seconds: float          # nominal call time; sizes the traced run

    def describe(self):
        return {"design": SIM_DESIGN, "rule": self.rule, "threshold": 1.0,
                "deltas": list(self.deltas),
                "methods": list(self.methods),
                "replicates_per_op": self.replicates}

    def setup(self, work_dir):
        config = dict(SIM_DESIGN, rule={"type": self.rule, "threshold": 1.0},
                      deltas=list(self.deltas))
        path = work_dir / f"{self.name}.json"
        path.write_text(json.dumps(config))
        return str(path)

    def inputs(self, seed, i):
        return op_seed(seed, i)

    def run(self, config_path, scenario_seed, replicates=None):
        argv = ["simulate", "--config", config_path,
                "--seed", str(scenario_seed),
                "--replicates", str(replicates or self.replicates),
                "--methods", ",".join(self.methods)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"simulate exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def warm_up(self, config_path):
        self.run(config_path, 0, WARMUP_REPLICATES)

    def render(self, csv):
        return csv

    def _stop_probability(self):
        # Rule d2 stops iff every subpopulation mean is at most the
        # threshold (the pooled mean then is too); the means are independent.
        if self.rule != "d2":
            return None
        prob = 1.0
        for p, delta in zip(SIM_DESIGN["p"], self.deltas):
            se = 2.0 * SIM_DESIGN["sigma"] / math.sqrt(p * SIM_DESIGN["n1"])
            prob *= ndtr((1.0 - delta) / se)
        return prob

    def _counts(self, csv):
        """Branch proportions {label: share}, the stop count, and
        {(label, method): [covered, n]} of one simulate CSV."""
        reps = self.replicates
        shares, counts, stopped = {}, {}, 0
        for line in csv.splitlines()[1:]:
            label, prop, method, cov = line.split(",")[:4]
            n = round(float(prop) * reps)
            if ":" not in label and label != "overall" and (
                    method in ("none", self.methods[0])):
                shares[label] = float(prop)
            if label == "stop":
                stopped = n
            if method != "none" and n:
                counts[label, method] = [round(float(cov) * n), n]
        return shares, stopped, counts

    def _band_failures(self, stopped, counts, reps):
        """Counts outside their binomial band (an empty list if none)."""
        failures = []
        stop_prob = self._stop_probability()
        if stop_prob is not None and not binomial_ok(stopped, reps, stop_prob):
            failures.append(
                f"stop proportion {stopped / reps:.6f} vs exact {stop_prob:.4f}")
        for (label, method), (covered, n) in counts.items():
            if method in ("umau", "tost") and not binomial_ok(
                    covered, n, 1.0 - ALPHA):
                failures.append(
                    f"{label} {method} coverage {covered / n:.6f} outside "
                    f"band of {1.0 - ALPHA} (n={n})")
        return failures

    def check_op(self, seed, op):
        """Failures of one simulate call's CSV (an empty list if it passes)."""
        csv = op.output
        ref = REFERENCE_DIR / f"{self.name}-seed{seed}-op{op.index}.csv"
        if ref.exists() and csv != ref.read_text():
            return [f"CSV differs from {ref.name}"]
        if csv.splitlines()[:1] != [SIM_HEADER]:
            return ["unexpected CSV header"]
        shares, stopped, counts = self._counts(csv)
        failures = self._band_failures(stopped, counts, self.replicates)
        branch_total = sum(shares.values())
        if abs(branch_total - 1.0) > 1e-5:
            failures.append(f"branch proportions sum to {branch_total}")
        return failures

    def check_run(self, ops):
        """The same bands over all calls of the run pooled: the calls have
        distinct scenario seeds, so their replicates are independent."""
        stopped, counts = 0, {}
        parsed = [self._counts(op.output) for op in ops
                  if op.output and op.output.startswith(SIM_HEADER)]
        for _, s, c in parsed:
            stopped += s
            for key, (covered, n) in c.items():
                total = counts.setdefault(key, [0, 0])
                total[0] += covered
                total[1] += n
        reps = self.replicates * len(parsed)
        return [f"pooled calls: {f}"
                for f in self._band_failures(stopped, counts, reps)]


@dataclasses.dataclass(frozen=True)
class CiWorkload:
    """Realized trials from the worked-example design, one at a time."""

    name: str = "ci-scalar"
    methods: tuple = ("naive", "umau", "tost")
    deltas: tuple = (0.1, 0.0)
    replicates: int = 1        # one trial per operation
    ops_per_round: int = 40    # distinct trials in a run
    op_seconds: float = 0.25

    design = TrialDesign(k=2, p=(0.5, 0.5), n1=200, n2=100, sigma=0.36,
                         alpha=ALPHA)
    rule = DecisionRule("d1", 1.0)

    def describe(self):
        return {"design": dataclasses.asdict(self.design),
                "rule": "d1", "threshold": 1.0, "deltas": list(self.deltas),
                "methods": list(self.methods), "replicates_per_op": 1}

    def setup(self, work_dir):
        return None

    def inputs(self, seed, i):
        scenario = Scenario(self.design, self.rule, self.deltas, 1, seed,
                            methods=self.methods)
        s1 = draw_stage1(scenario, i)
        s2 = draw_stage2(scenario, self.rule.decide(self.design, s1), i)
        return s1, s2

    def run(self, state, trial):
        s1, s2 = trial
        decision = self.rule.decide(self.design, s1)
        cis = designs.confidence_intervals(
            self.design, decision, s1, s2, self.methods)
        return decision, cis

    def warm_up(self, state):
        self.run(state, self.inputs(0, 0))

    def render(self, output):
        decision, cis = output
        lines = [f"decision,{decision.label}"]
        lines += [f"{c.target},{c.method},{c.lower!r},{c.upper!r}" for c in cis]
        return "\n".join(lines)

    def check_op(self, seed, op):
        """Each interval must solve its defining equations at its endpoints."""
        decision, cis = op.output
        s1, s2 = op.inputs
        failures = []
        if len(cis) != len(decision.targets) * len(self.methods):
            return [f"{len(cis)} intervals for {len(decision.targets)} targets"]
        by_target = {t.name: t for t in decision.targets}
        for ci in cis:
            target = by_target[ci.target]
            observed = designs.pooled_estimate(
                self.design, decision, s1, s2, target)
            model = ConditionalNormal(0.0, target.se1, target.se2,
                                      lower=target.lower, upper=target.upper)
            err = _interval_error(ci, model, observed)
            if err:
                failures.append(f"{ci.target}/{ci.method}: {err}")
        return failures

    def check_run(self, ops):
        """Conditional coverage per target and method, and the worked example."""
        failures = []
        counts = {}
        for op in ops:
            if op.output is None:
                continue
            decision, cis = op.output
            truth = {t.name: t.true_value(self.design, self.deltas)
                     for t in decision.targets}
            for ci in cis:
                if ci.method == "naive":
                    continue
                c = counts.setdefault((ci.target, ci.method), [0, 0])
                c[0] += ci.lower <= truth[ci.target] <= ci.upper
                c[1] += 1
        for (target, method), (covered, n) in sorted(counts.items()):
            if not binomial_ok(covered, n, 1.0 - ALPHA):
                failures.append(f"{target}/{method} covered {covered} of {n}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["example"])
        if code != 0:
            failures.append(f"worked example failed: {err.getvalue().strip()}")
        return failures


def write_reference(name, seed, work_dir):
    """Store the CSVs of a run's simulate calls as its reference."""
    wl = WORKLOADS[name]
    state = wl.setup(work_dir)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for i in range(wl.ops_per_round):
        path = REFERENCE_DIR / f"{name}-seed{seed}-op{i}.csv"
        path.write_text(wl.run(state, wl.inputs(seed, i)))


def _interval_error(ci, model, observed):
    """Why ``ci`` does not solve its defining equations, or None."""
    beta = 1.0 - ALPHA
    z = float(ndtri(1.0 - 0.5 * ALPHA))
    scale = model.sigma12 + abs(observed)
    if ci.method == "naive" or not model.truncated:
        half = z * model.sigma12
        if (abs(ci.lower - (observed - half)) > 1e-12 * scale
                or abs(ci.upper - (observed + half)) > 1e-12 * scale):
            return "not the z-interval"
        return None
    if ci.method == "tost":
        f_lo = model.at(ci.lower).cdf(observed)
        f_hi = model.at(ci.upper).cdf(observed)
        if abs(f_lo - (1.0 - 0.5 * ALPHA)) > 1e-7 or abs(f_hi - 0.5 * ALPHA) > 1e-7:
            return f"endpoint CDFs {f_lo:.9f}, {f_hi:.9f}"
        return None
    # umau: at the lower endpoint the acceptance region is [c1, observed],
    # at the upper endpoint [observed, c2]; both must meet the size and
    # first-moment constraints.
    for delta, side in ((ci.lower, "lower"), (ci.upper, "upper")):
        m = model.at(delta)
        f_obs = m.cdf(observed)
        q = f_obs - beta if side == "lower" else f_obs + beta
        if not 0.0 < q < 1.0:
            return f"no acceptance region at the {side} endpoint (F={f_obs:.9f})"
        cut = m.quantile(q)
        a, b = (cut, observed) if side == "lower" else (observed, cut)
        mean = m.mean()
        resid = m.partial_moment(a, b) - beta * mean
        if abs(resid) > 1e-6 * (m.sigma12 + abs(mean)):
            return f"moment residual {resid:.3e} at the {side} endpoint"
    return None


WORKLOADS = {
    w.name: w for w in (
        SimWorkload("umau-d1-null", "d1", (0.0, 0.0), ("naive", "umau", "tost"),
                    replicates=500, ops_per_round=3, op_seconds=1.4),
        SimWorkload("naive-decide", "d2", (0.0, 0.0), ("naive",),
                    replicates=25_000, ops_per_round=4, op_seconds=0.25),
        CiWorkload(),
    )
}
