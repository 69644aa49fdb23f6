#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs perfbench/run.py once per seed on each named workload and prints, for
every metric, the median of the runs and the spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. Compare the spreads with the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload sparse-regular --runs 10
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    ok = True
    for workload in args.workload:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            wall = time.monotonic() - t0
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {res.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            tail_p = re.search(r"^\s+job_s\.tail_percentile\s+(\S+)", res.stderr, re.M)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
                + (f" (tail = p{tail_p.group(1)})" if tail_p else "") + f" [{wall:.1f}s wall]", file=sys.stderr)
        print(f"== {workload} ({args.runs} runs, {seconds:g}s each)")
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            spread = float("nan")
            if len(xs) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread == spread:
                mark = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {name:24s} median={med:<12.6g} spread={spread:.4f} bound={bound} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
