"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 benchmarks/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 benchmarks/spread.py --workloads sweep-small --seeds 1 2 3 4 5
    python3 benchmarks/spread.py --trace 1 --seeds 1 --write benchmarks/baseline.json

For every (workload, metric) it prints the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and their distance as a
share of the median.  With tracing off it compares that spread with a
third of the metric's bound in BENCHMARK.json.  `--write FILE` merges the
summary into FILE, keeping the sections of the other trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0, "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    section = "per_layer" if args.trace else "end_to_end"
    summary, steady = {}, True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} failed the output check")
                steady = False
            runs.append(result)
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             **summarise(values)}
            row = metrics[name]
            limit = bounds.get(name)
            flag = ""
            if not args.trace and limit is not None and name != "setup_s":
                ok = row["spread"] < limit / 3
                steady &= ok
                flag = "ok" if ok else f"SPREAD >= {limit / 3:.3g}"
            print(f"{workload:12s} {name:40s} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                  f"spread {row['spread']:.4f} {row['unit']} {flag}")
        summary[workload] = {
            "why": why.get(workload, ""),
            "environment": env,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }

    if args.write:
        record = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as handle:
                record = json.load(handle)
        record[section] = {"seeds": args.seeds, "seconds": args.seconds,
                           "workloads": summary}
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
