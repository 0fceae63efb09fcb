"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads ci-scalar --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per (workload, seed), each in its own
process, and prints for every metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. ``--out``
also writes the table as JSON (this is how ``baseline.json`` was made).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=range(1, 11))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    table = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds) for s in args.seeds]
        table[workload] = {
            name: summarize([r[name] for r in runs]) for name in bounds}
        for name, row in table[workload].items():
            print(f"{workload:16s} {name:22s} median {row['median']:12.6g} "
                  f"spread {row['spread']:7.2%} bound {bounds[name]:.0%}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "seeds": list(args.seeds),
             "workloads": table}, indent=1) + "\n")


if __name__ == "__main__":
    main()
