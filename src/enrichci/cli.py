"""Command-line front end.

Three subcommands:

* ``ci``        intervals from observed stage summaries (JSON config in,
                CSV out)
* ``simulate``  run a Monte Carlo scenario (JSON config in, CSV out)
* ``example``   reproduce the built-in worked example and check the nine
                published interval endpoints

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

import argparse
import json
import sys

from .condnorm import NumericalError
from .designs import (
    METHODS,
    ConfigurationError,
    DecisionRule,
    Stage1Summary,
    Stage2Summary,
    TrialDesign,
    check_methods,
    confidence_intervals,
    pooled_estimate,
)
from .sim import Scenario, run_scenario

_SIM_HEADER = "branch,proportion,method,coverage,mean_width,width_ratio,mc_halfwidth"
_CI_HEADER = "target,method,lower,upper"


def _fmt(x):
    return f"{x:.6f}"


def _require(config, key, context="config"):
    if key not in config:
        raise ConfigurationError(f"{context} is missing required field {key!r}")
    return config[key]


def _integer(config, key, override=None):
    value = _require(config, key) if override is None else override
    if isinstance(value, bool) or not float(value).is_integer():
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    return config


def _design_from_config(config):
    return TrialDesign(
        k=_integer(config, "k"),
        p=tuple(_require(config, "p")),
        n1=_integer(config, "n1"),
        n2=_integer(config, "n2"),
        sigma=float(_require(config, "sigma")),
        alpha=float(config.get("alpha", 0.05)),
    )


def _rule_from_config(config, co_primary_flag):
    rule = _require(config, "rule")
    if not isinstance(rule, dict):
        raise ConfigurationError("rule must be an object with type and threshold")
    co_primary = config.get("co_primary", False)
    if not isinstance(co_primary, bool):
        raise ConfigurationError(f"co_primary must be a boolean: {co_primary!r}")
    return DecisionRule(
        variant=str(_require(rule, "type", "rule")),
        threshold=float(_require(rule, "threshold", "rule")),
        co_primary=co_primary or co_primary_flag,
    )


def _methods_from(config, args):
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    else:
        methods = config.get("methods", METHODS)
    return check_methods(methods)


def _per_subpopulation(values, key, k):
    values = tuple(float(v) for v in values)
    if len(values) != k:
        raise ConfigurationError(f"{key} has {len(values)} entries, expected k={k}")
    return values


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_ci(args):
    config = _load_config(args.config)
    design = _design_from_config(config)
    rule = _rule_from_config(config, args.co_primary)
    methods = _methods_from(config, args)
    stage1 = _require(config, "stage1_means")
    s1 = Stage1Summary(_per_subpopulation(stage1, "stage1_means", design.k))
    decision = rule.decide(design, s1)
    if decision.stopped:
        _emit([f"decision,{decision.label}"], args.out)
        return 0
    s2_value = _require(config, "stage2_means")
    if isinstance(s2_value, (int, float)):
        s2 = Stage2Summary(float(s2_value))
    else:
        subs = _per_subpopulation(s2_value, "stage2_means", design.k)
        selected = sum(
            design.p[m - 1] * subs[m - 1] for m in decision.selected
        ) / design.prevalence(decision.selected)
        s2 = Stage2Summary(selected, subs)
    cis = confidence_intervals(design, decision, s1, s2, methods)
    lines = [f"decision,{decision.label}", _CI_HEADER]
    for ci in cis:
        lines.append(f"{ci.target},{ci.method},{_fmt(ci.lower)},{_fmt(ci.upper)}")
    _emit(lines, args.out)
    return 0


def sim_result_lines(result):
    lines = [_SIM_HEADER]
    for b in result.branches:
        if not b.stats:
            lines.append(
                f"{b.branch},{_fmt(b.proportion)},none,,,,"
                f"{_fmt(b.proportion_halfwidth)}"
            )
            continue
        label = b.branch if b.target == b.branch else f"{b.branch}:{b.target}"
        for s in b.stats:
            lines.append(
                f"{label},{_fmt(b.proportion)},{s.method},{_fmt(s.coverage)},"
                f"{_fmt(s.mean_width)},{_fmt(s.width_ratio)},"
                f"{_fmt(s.mc_halfwidth)}"
            )
    continuing = sum(
        b.proportion for b in result.branches
        if b.branch == b.target and b.branch != "stop"
    )
    for s in result.overall:
        lines.append(
            f"overall,{_fmt(continuing)},{s.method},{_fmt(s.coverage)},"
            f"{_fmt(s.mean_width)},{_fmt(s.width_ratio)},{_fmt(s.mc_halfwidth)}"
        )
    return lines


def cmd_simulate(args):
    config = _load_config(args.config)
    design = _design_from_config(config)
    rule = _rule_from_config(config, args.co_primary)
    methods = _methods_from(config, args)
    scenario = Scenario(
        design=design,
        rule=rule,
        true_deltas=tuple(_require(config, "deltas")),
        replicates=_integer(config, "replicates", args.replicates),
        seed=_integer(config, "seed", args.seed),
        methods=methods,
    )
    result = run_scenario(scenario)
    _emit(sim_result_lines(result), args.out)
    return 0


#: Worked-example inputs and the nine published interval endpoints.
_EXAMPLE_DESIGN = dict(k=2, p=(0.5, 0.5), n1=200, n2=100, sigma=0.36)
_EXAMPLE_THRESHOLD = 0.025
_EXAMPLE_STAGE1 = (0.113, 0.013)
_EXAMPLE_STAGE2_SELECTED = 0.045
_EXAMPLE_STAGE2_SUBS = (0.155, -0.064)
_EXAMPLE_EXPECTED = {
    ("full", "naive"): (-0.024, 0.138),
    ("full", "umau"): (-0.079, 0.131),
    ("full", "tost"): (-0.078, 0.132),
    ("delta1", "naive"): (0.012, 0.242),
    ("delta1", "umau"): (-0.028, 0.240),
    ("delta1", "tost"): (-0.025, 0.240),
    ("delta2", "naive"): (-0.128, 0.102),
    ("delta2", "umau"): (-0.200, 0.093),
    ("delta2", "tost"): (-0.198, 0.094),
}
_EXAMPLE_TOL = 1e-3


def cmd_example(args):
    design = TrialDesign(**_EXAMPLE_DESIGN)
    rule = DecisionRule("d2", _EXAMPLE_THRESHOLD, co_primary=True)
    s1 = Stage1Summary(_EXAMPLE_STAGE1)
    decision = rule.decide(design, s1)
    s2 = Stage2Summary(_EXAMPLE_STAGE2_SELECTED, _EXAMPLE_STAGE2_SUBS)
    cis = confidence_intervals(
        design, decision, s1, s2, ("naive", "umau", "tost")
    )
    lines = [f"decision,{decision.label}"]
    for target in decision.targets:
        est = pooled_estimate(design, decision, s1, s2, target)
        lines.append(f"estimate,{target.name},{_fmt(est)}")
    lines.append(_CI_HEADER + ",check")
    failures = []
    for ci in cis:
        exp_lo, exp_hi = _EXAMPLE_EXPECTED[(ci.target, ci.method)]
        ok = (
            abs(ci.lower - exp_lo) <= _EXAMPLE_TOL
            and abs(ci.upper - exp_hi) <= _EXAMPLE_TOL
        )
        if not ok:
            failures.append(
                f"{ci.target}/{ci.method}: got ({ci.lower:.4f}, {ci.upper:.4f}), "
                f"expected ({exp_lo}, {exp_hi}) +/- {_EXAMPLE_TOL}"
            )
        lines.append(
            f"{ci.target},{ci.method},{_fmt(ci.lower)},{_fmt(ci.upper)},"
            f"{'pass' if ok else 'FAIL'}"
        )
    _emit(lines, args.out)
    if failures:
        for f in failures:
            print(f"mismatch: {f}", file=sys.stderr)
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="enrichci",
        description=(
            "Exact conditional confidence intervals and coverage "
            "simulations for two-stage adaptive enrichment trials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--methods", help="comma-separated subset of naive,tost,umau"
        )
        p.add_argument(
            "--co-primary", action="store_true", dest="co_primary",
            help="add per-subpopulation targets under full continuation",
        )

    p_ci = sub.add_parser("ci", help="intervals from observed summaries")
    common(p_ci)
    p_ci.set_defaults(func=cmd_ci)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, help="override scenario seed")
    p_sim.add_argument(
        "--replicates", type=int, help="override replicate count"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_ex = sub.add_parser("example", help="reproduce the worked example")
    p_ex.add_argument("--out", help="output path (default: stdout)")
    p_ex.set_defaults(func=cmd_example)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError, TypeError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
