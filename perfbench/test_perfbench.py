"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

enrichci = run.import_enrichci()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(name):
    wl = workloads.WORKLOADS[name]
    if isinstance(wl, workloads.SimWorkload):
        wl = dataclasses.replace(wl, replicates=40)
    return wl


def spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def traced_lookups():
    """Every attribute the tracer patches, with its current value."""
    out = {}
    for lookups in tracing.SPANS.values():
        for mod, attr in lookups:
            owner = getattr(enrichci, mod)
            out[(mod, attr)] = getattr(owner, attr)
    cls = enrichci.ConditionalNormal
    for meth in tracing.CONDNORM_METHODS:
        out[("ConditionalNormal", meth)] = vars(cls)[meth]
    return out


def test_workload_names_match_spec():
    assert list(run.WORKLOAD_NAMES) == [w["name"] for w in SPEC["workloads"]]
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_end_to_end_metric_names_match_spec(tmp_path):
    wl = tiny("naive-decide")
    wl = dataclasses.replace(wl, ops_per_round=2)
    state = wl.setup(tmp_path)
    runs = run.timed_rounds(wl, state, seed=5, seconds=0)
    assert [len(r) for r in runs] == [1, 1]
    metrics = run.end_to_end_metrics(wl, runs, setup_samples=[0.5])
    assert {k: run.END_TO_END_UNITS[k] for k in metrics} == spec_units(
        "end_to_end")
    assert all(v > 0 for v in metrics.values())


def test_per_layer_metric_names_match_spec():
    names = {k: unit for k, (_, unit) in tracing.Tracer().metrics().items()}
    assert names == spec_units("per_layer")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_restores_lookups_and_repeats_counts(name, tmp_path):
    wl = tiny(name)
    state = wl.setup(tmp_path)
    before = traced_lookups()
    counts = []
    for _ in range(2):
        plain, traced, tracer, mismatched = run.traced_run(
            wl, state, seed=3, seconds=0)
        assert traced_lookups() == before
        assert not tracer.missing
        assert mismatched == []
        assert not any(op.error for op in plain + traced)
        counts.append({k: v for k, (v, _) in tracer.metrics().items()
                       if k.endswith((".calls", ".elements"))})
    assert counts[0] == counts[1]
    assert counts[0]["designs.decide.calls"] > 0


def test_sim_check_flags_undercoverage():
    wl = dataclasses.replace(workloads.WORKLOADS["umau-d1-null"],
                             replicates=10_000)
    csv = "\n".join([
        workloads.SIM_HEADER,
        "full,0.160000,naive,0.870000,1.0,1.0,0.04",
        "full,0.160000,umau,0.800000,1.2,1.2,0.04",
        "sub1,0.420000,naive,0.930000,1.0,1.0,0.01",
        "sub1,0.420000,umau,0.950000,1.1,1.1,0.01",
        "sub2,0.420000,naive,0.930000,1.0,1.0,0.01",
        "sub2,0.420000,umau,0.950000,1.1,1.1,0.01",
    ]) + "\n"
    failures = wl.check_op(5, run.Op(0, 5, csv, 1.0, 1.0))
    assert len(failures) == 1 and failures[0].startswith("full umau")
    # Pooled over ten such calls the shortfall fails the run check too.
    pooled = wl.check_run([run.Op(i, 5, csv, 1.0, 1.0) for i in range(10)])
    assert len(pooled) == 1 and pooled[0].startswith("pooled calls: full umau")


def test_repeat_with_different_output_fails(tmp_path):
    wl = tiny("naive-decide")
    state = wl.setup(tmp_path)
    first = run.run_op(wl, state, 0, wl.inputs(9, 0))
    same = run.run_op(wl, state, 0, wl.inputs(9, 0))
    other = dataclasses.replace(same, output=same.output.replace(",0.", ",1.", 1))
    failed, _ = run.check_ops(wl, 9, [[first, same, other]])
    assert failed == {(0, 2): ["repeat gave a different output"]}


def test_sim_check_compares_reference_csv():
    wl = workloads.WORKLOADS["naive-decide"]
    ref = (workloads.REFERENCE_DIR / "naive-decide-seed1-op0.csv").read_text()
    assert wl.check_op(1, run.Op(0, 100_000, ref, 1.0, 1.0)) == []
    changed = ref.replace("naive,0.", "naive,1.", 1)
    assert wl.check_op(1, run.Op(0, 100_000, changed, 1.0, 1.0)) == [
        "CSV differs from naive-decide-seed1-op0.csv"]


def test_ci_check_flags_shifted_endpoint():
    wl = workloads.WORKLOADS["ci-scalar"]
    trial = wl.inputs(5, 0)
    decision, cis = wl.run(None, trial)
    assert wl.check_op(5, run.Op(0, trial, (decision, cis), 1.0, 1.0)) == []
    bad = [dataclasses.replace(c, lower=c.lower - 1e-3)
           if c.method == "tost" else c for c in cis]
    failures = wl.check_op(5, run.Op(0, trial, (decision, bad), 1.0, 1.0))
    assert failures and all("/tost" in f for f in failures)
