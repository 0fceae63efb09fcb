"""enrichci benchmark: end-to-end metrics, output checks, per-layer trace.

One workload per process, one closed-loop caller, seeded inputs:

    python3 perfbench/run.py --workload umau-d1-null --seed 1 --seconds 20 --trace 0

``--trace 0`` draws the run's fixed set of operations from the seed and
runs it round after round until ``--seconds`` have passed, with the
engine's default worker thread count. Each operation's latency is the
fastest of its repeats (every repeat must give the same output), and the
end-to-end metrics are taken over those latencies. ``--trace 1`` runs a
fixed number of operations (sized from ``--seconds``) twice at
``ENRICH_CI_THREADS=1``, untraced and then traced, checks that both give
the same output, and reports per-layer metrics and the tracing overhead.
Without ``--workload`` every workload runs, each in its own process. The
last line of standard output is the result as JSON; the run exits 1 if any
output check fails. Provenance, the full report and the recorded spans are
written under ``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("umau-d1-null", "naive-decide", "ci-scalar")

# Setup is timed in this process and in fresh child processes; the metric
# is the median.
SETUP_SAMPLES = 3
# The traced run times each operation twice; the tracer adds up to ~30%,
# and on a slow host an operation takes longer than its nominal time.
TRACE_PASSES_COST = 2.8

END_TO_END_UNITS = {
    "replicates_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "cpu_ms_per_replicate": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Op:
    index: int
    inputs: object
    output: object
    latency_s: float
    cpu_s: float
    error: str = None


def import_enrichci():
    """Import the package from this checkout's ``src/`` or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import enrichci
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import enrichci from {SRC}: {exc}")
    if not Path(enrichci.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(
            f"perfbench: enrichci imported from {enrichci.__file__}, not {SRC}")
    return enrichci


def set_threads(trace):
    # Traced spans nest on one stack, so traced runs pin one worker thread;
    # end-to-end runs use the engine's default.
    if trace:
        os.environ["ENRICH_CI_THREADS"] = "1"
    else:
        os.environ.pop("ENRICH_CI_THREADS", None)


def setup(workload_name, trace):
    """Import, build the workload and make one warm-up call; timed."""
    start = time.perf_counter()
    import_enrichci()
    from workloads import WORKLOADS

    set_threads(trace)
    wl = WORKLOADS[workload_name]
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    state = wl.setup(work_dir)
    wl.warm_up(state)
    return wl, state, time.perf_counter() - start


def setup_probe(workload_name):
    """Setup time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_op(wl, state, i, inputs, call=None):
    gc.collect()  # start every operation from the same heap state, untimed
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        output = call(wl.run, state, inputs) if call else wl.run(state, inputs)
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Op(i, inputs, output, time.perf_counter() - t0,
              time.process_time() - c0, error)


def timed_rounds(wl, state, seed, seconds):
    """Closed loop over the run's operations, round after round.

    The next operation starts when the previous one returns; the loop ends
    once ``seconds`` have passed and every operation has run at least once.
    Returns one list of ``Op`` per operation, one entry per repeat.
    """
    inputs = [wl.inputs(seed, i) for i in range(wl.ops_per_round)]
    runs = [[] for _ in inputs]
    start = time.perf_counter()
    while True:
        for i, x in enumerate(inputs):
            if runs[-1] and time.perf_counter() - start >= seconds:
                return runs
            runs[i].append(run_op(wl, state, i, x))


def check_ops(wl, seed, runs):
    """Failures {(index, repeat): [reasons]} and run-level failures.

    An operation's first run is checked; a repeat fails if it raises or
    renders differently from the first run.
    """
    failed = {}
    for op_runs in runs:
        first = op_runs[0]
        reasons = [first.error] if first.error else wl.check_op(seed, first)
        if reasons:
            failed[(first.index, 0)] = reasons
        for r, op in enumerate(op_runs[1:], 1):
            if op.error:
                failed[(op.index, r)] = [op.error]
            elif not first.error and wl.render(op.output) != wl.render(
                    first.output):
                failed[(op.index, r)] = ["repeat gave a different output"]
    return failed, wl.check_run([op_runs[0] for op_runs in runs])


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end_metrics(wl, runs, setup_samples):
    """Metrics over each operation's fastest repeat.

    The host's speed varies in bursts; the fastest of an operation's
    repeats is its cost without that interference.
    """
    lat_ms = [1e3 * min(op.latency_s for op in op_runs) for op_runs in runs]
    cpu_ms = [1e3 * min(op.cpu_s for op in op_runs) for op_runs in runs]
    replicates = len(runs) * wl.replicates
    return {
        "replicates_per_s": 1e3 * replicates / sum(lat_ms),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p75_ms": percentile(lat_ms, 75),
        "cpu_ms_per_replicate": sum(cpu_ms) / replicates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def traced_run(wl, state, seed, seconds):
    """Untraced then traced pass over the same fixed operations."""
    import enrichci
    from tracing import Tracer

    n = max(1, int(seconds / (TRACE_PASSES_COST * wl.op_seconds)))
    inputs = [wl.inputs(seed, i) for i in range(n)]
    plain = [run_op(wl, state, i, x) for i, x in enumerate(inputs)]
    tracer = Tracer()
    tracer.install(enrichci)
    try:
        traced = [run_op(wl, state, i, x, call=tracer.root)
                  for i, x in enumerate(inputs)]
    finally:
        tracer.restore()
    mismatched = [
        a.index for a, b in zip(plain, traced)
        if a.error or b.error or wl.render(a.output) != wl.render(b.output)
    ]
    return plain, traced, tracer, mismatched


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "enrichci").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(wl, args):
    import numpy
    import scipy
    from enrichci import sim

    threads = sim._n_threads() if hasattr(sim, "_n_threads") else None
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "worker_threads": threads,
        "ENRICH_CI_THREADS": os.environ.get("ENRICH_CI_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_sha256": src_digest(), "inputs": wl.describe(),
    }


def layer_table(tracer, traced):
    total = sum(op.latency_s for op in traced)
    by_layer = {}
    for name, secs in tracer.self_seconds().items():
        layer = "(benchmark and unwrapped code)" if name == "bench.op" else \
            name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + secs
    lines = [f"{'layer':32s} {'self_s':>9s} {'share':>7s}"]
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:32s} {secs:9.3f} {secs / total:7.1%}")
    return lines


def run_workload(args):
    wl, state, first_setup = setup(args.workload, args.trace)
    if args.setup_only:
        print(f"{first_setup!r}")
        return 0
    prov = provenance(wl, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    report = {"provenance": prov}
    if args.trace:
        plain, traced, tracer, mismatched = traced_run(
            wl, state, args.seed, args.seconds)
        runs = [[op] for op in plain]
        run_failures = [f"traced output differs at op {i}" for i in mismatched]
        overhead = (sum(o.latency_s for o in traced)
                    / sum(o.latency_s for o in plain) - 1.0)
        values = tracer.metrics()
        for line in layer_table(tracer, traced):
            print(line)
        print(f"tracing overhead: {overhead:+.1%} over {len(plain)} ops "
              f"(untraced {sum(o.latency_s for o in plain):.3f} s)")
        if tracer.missing:
            print("not found, not traced: " + ", ".join(tracer.missing))
        report.update(overhead_frac=overhead, not_traced=tracer.missing)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.npz"
        import numpy as np
        np.savez_compressed(spans_path, **tracer.spans())
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup_samples = [first_setup] + [
            setup_probe(wl.name) for _ in range(SETUP_SAMPLES - 1)]
        runs = timed_rounds(wl, state, args.seed, args.seconds)
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in
                  end_to_end_metrics(wl, runs, setup_samples).items()}
        run_failures = []
        report["setup_samples_s"] = setup_samples
    failed, more = check_ops(wl, args.seed, runs)
    run_failures += more
    attempted, n_failed = sum(len(r) for r in runs), len(failed)
    correct = not failed and not run_failures
    for name, (value, unit) in values.items():
        print(f"{wl.name:16s} {name:36s} {value:14.6g} {unit}")
    print(f"{wl.name:16s} {'operations':36s} {len(runs):14d} count")
    print(f"{wl.name:16s} {'timed runs':36s} {attempted:14d} count")
    print(f"{wl.name:16s} {'error_frac':36s} {n_failed / attempted:14.6g} ratio")
    for (i, r), reasons in sorted(failed.items()):
        print(f"FAILED op {i} run {r}: " + "; ".join(reasons))
    for reason in run_failures:
        print(f"FAILED check: {reason}")
    result = {
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    report.update(result, failures={f"{i}/{r}": v for (i, r), v in failed.items()},
                  run_failures=run_failures,
                  latencies_ms=[[op.latency_s * 1e3 for op in r] for r in runs])
    out = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process; a summary JSON line at the end."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or not results[name]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2**40)")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
