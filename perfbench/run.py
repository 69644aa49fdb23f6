#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse-regular --seed 1 --seconds 30 --trace 0

It builds the benchmark (perfbench/, a Go module that imports the checkout's
packages through a replace directive) and the distcolor-serve binary from
the checkout's source into .bench_build/, then runs the benchmark. The last
line of standard output is the benchmark's JSON result; build output goes to
standard error. Every file the build and the run write stays under
.bench_build/, and every process the run starts is stopped before it exits.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def go_env():
    """Environment that keeps the Go toolchain's caches inside the checkout
    and off the network."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build(env):
    """Build the benchmark and the server into .bench_build/bin; return False
    on failure."""
    cmd = ["go", "build", "-o", os.path.join(BUILD, "bin") + os.sep, ".", "distcolor/cmd/distcolor-serve"]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    if res.returncode != 0:
        print(f"run.py: {' '.join(cmd)} failed with code {res.returncode}", file=sys.stderr)
        return False
    return True


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group (a server the
    benchmark could not stop) and wait until it is gone."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in (os.path.join(ROOT, "go.mod"), os.path.join(HERE, "go.mod")):
        if not os.path.isfile(need):
            print(f"run.py: {need} is missing; run from a full checkout of the repository", file=sys.stderr)
            return 2
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    if not build(env):
        return 2

    cmd = [
        os.path.join(BUILD, "bin", "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-work-dir", os.path.join(BUILD, "work"),
        "-serve-bin", os.path.join(BUILD, "bin", "distcolor-serve"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark still running after {RUN_TIMEOUT_S}s; killing it", file=sys.stderr)
        proc.kill()
        proc.wait()
        code = 3
    finally:
        stop_group(proc.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
