#!/usr/bin/env python3
"""Steadiness report: repeat benchmark runs over seeds and summarize.

    python3 perfbench/steadiness.py --workloads fleet-plan market-joint \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--json out.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric its median, first and third quartiles
(statistics.quantiles(values, n=4)) and IQR / median — the spread the
bounds in BENCHMARK.json are set against. A run whose correctness checks
fail is reported and excluded from the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, completed.returncode))
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["fleet-plan", "market-joint", "fleet-execute"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default="", help="optional output path")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    report = {}
    for workload in args.workloads:
        samples = {}
        for seed in args.seeds:
            result = one_run(workload, seed, seconds, args.trace)
            if not result["correct"]:
                print("%s seed %d: correctness checks FAILED" % (workload, seed))
                continue
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        report[workload] = {name: summarize(values) for name, values in samples.items()
                            if len(values) >= 2}
        print("\n%-14s %-26s %12s %12s %12s %9s" % (
            "workload", "metric", "median", "q1", "q3", "iqr/med"))
        for name, s in report[workload].items():
            print("%-14s %-26s %12.5g %12.5g %12.5g %9.4f" % (
                workload, name, s["median"], s["q1"], s["q3"], s["iqr_over_median"]))
        print(flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
                       "workloads": report}, f, indent=2)


if __name__ == "__main__":
    main()
