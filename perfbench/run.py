#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a csync source tree.  Builds perfbench/main.exe with
dune, then runs it: one process for the workload's end-to-end metrics
(--trace 0), or one process per layer group for the per-layer metrics
(--trace 1).  Human-readable lines go to stderr; the last line of stdout
is the JSON result.  Exits non-zero, printing no result, if the tree
cannot be built or any process fails.

--small and --wrong-pins are for selftest.py only.
"""

import argparse
import json
import os
import subprocess
import sys
import time

GROUPS = ["suite", "scale", "check", "obs", "determinism"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "_out")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(need):
            die("not a csync source tree (missing %s); run from its root" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed with exit code %d" % r.returncode)


def run_exe(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        die("out of time")
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        die("timed out: %s" % " ".join(args))
    if r.returncode != 0:
        die("exit code %d: %s" % (r.returncode, " ".join(args)))
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("no result from: %s" % " ".join(args))
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--small", action="store_true")
    p.add_argument("--wrong-pins", action="store_true")
    a = p.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.small:
        common.append("--small")
    if a.wrong_pins:
        common.append("--wrong-pins")

    if a.trace == 0:
        results = [run_exe(common, deadline)]
    else:
        results = [run_exe(common + ["--group", g], deadline) for g in GROUPS]

    metrics = {}
    for r in results:
        metrics.update(r["metrics"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
