#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on one workload.

Runs perfbench/run.py in checkout A and checkout B once per seed, with the
same seed and settings on both sides, alternating which side runs first so
that a drift in machine speed falls on both. Prints, per metric, each
side's median and quartiles, the change of B against A as a share of A's
median, and how many of the pairs B won.

    python3 perfbench/ab.py --a ../parent --b . --workload sparse-regular --pairs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {res.returncode}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", required=True, help="checkout A (the parent)")
    ap.add_argument("--b", required=True, help="checkout B (the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of B's BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(args.b, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    a_runs, b_runs = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [(args.a, a_runs), (args.b, b_runs)]
        if i % 2:
            sides.reverse()
        for checkout, runs in sides:
            runs.append(run(checkout, args.workload, seed, seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}): " + " ".join(
            f"{k}={a_runs[-1][k]:.5g}/{b_runs[-1][k]:.5g}" for k in sorted(a_runs[-1])), file=sys.stderr)

    print(f"== {args.workload}, {args.pairs} pairs, {seconds:g}s, trace {args.trace}; B against A")
    for name in sorted(a_runs[0]):
        a = [r[name] for r in a_runs]
        b = [r[name] for r in b_runs]
        ma, mb = statistics.median(a), statistics.median(b)
        qa = statistics.quantiles(a, n=4) if len(a) >= 2 else [ma, ma, ma]
        qb = statistics.quantiles(b, n=4) if len(b) >= 2 else [mb, mb, mb]
        change = (mb - ma) / abs(ma) if ma else float("nan")
        sign = -1 if better.get(name) == "lower" else 1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        print(f"  {name:24s} A {ma:<11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  B {mb:<11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
              f"  change {change:+.1%}  B better in {wins}/{len(a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
