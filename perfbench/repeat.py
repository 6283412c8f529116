#!/usr/bin/env python3
"""Runs workloads repeatedly, one seed per run, and prints per-metric medians
and quartiles against the bounds of BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/repeat.py [--runs N] [--first-seed S] [workload ...]

With no workload named, every workload of BENCHMARK.json runs. For each
workload and metric it prints the median, the first and third quartile
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the metric's
bound, and the share of failed operations per run. Runs are untraced:
bounds belong to the end-to-end metrics only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, bench["run_seconds"])
            results.append(r)
            shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']}: {shown}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: all correct={all(r['correct'] for r in results)}, "
              f"failed shares {shares}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'OVER'})")
            print(f"  {name:<28} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}{verdict}", flush=True)


if __name__ == "__main__":
    main()
