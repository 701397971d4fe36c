#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 [--workloads pricing,cluster]
        [--first-seed 1] [--seconds 20] [--trace 0] [--out steadiness.json]

Run from the root of a source checkout. Each run uses the next seed. For
every (workload, metric) pair it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, (q3 - q1) /
median. With --trace 0 it also prints each end-to-end metric's bound from
BENCHMARK.json and flags a spread above a third of it: the bounds are set
from this report. Seeds 1-999 are for tuning; keep seeds from 1000 up for
the runs that back a performance claim.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def main():
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in contract.get("workloads", [])) or "pricing")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the report as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in contract.get("end_to_end", [])}
    report = {}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
            calib = re.search(r'"cpu_calib_ms":([0-9.]+)', run.stderr)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}", file=sys.stderr)
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: done, cpu_calib_ms "
                  f"{calib.group(1) if calib else '?'}", file=sys.stderr)
        rows = {}
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(vals), "values": vals}
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound is not None:
                flag = f"bound {bound:.2f}" + ("  WIDE" if spread > bound / 3 else "")
            print(f"{workload:10s} {name:40s} median {median:12.5g}  "
                  f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.3f}  {flag}")
        report[workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
