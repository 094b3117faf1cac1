#!/usr/bin/env python3
"""Small-size self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a csync source tree.  Uses the quick suite, Scale at
n = 10^4 and a depth-1 checker scope, so it takes well under a minute.
Checks that:

- every workload passes its correctness checks and prints exactly the
  end-to-end metrics BENCHMARK.json names, each with its unit;
- the traced run prints exactly the per-layer metrics BENCHMARK.json
  names, each with its unit, and the named canonical-trace check;
- a wrong pinned value (checksum, digest or count) is counted as a
  failed operation;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")

problems = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if p.returncode == 0 and lines else None


def same_metrics(res, declared):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    return got == want


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    for w in workloads:
        res = result(run(w, 0, "--small"))
        expect(res is not None, "%s: runs" % w)
        if res is None:
            continue
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               "%s: every operation correct (%d attempted)" % (w, res["attempted"]))
        expect(same_metrics(res, bench["end_to_end"]),
               "%s: prints every end-to-end metric with its unit" % w)
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               "%s: end-to-end metrics are positive" % w)

        bad = result(run(w, 0, "--small", "--wrong-pins"))
        expect(bad is not None and not bad["correct"] and bad["failed"] >= 1,
               "%s: a wrong pin is counted as a failure" % w)

    p = run(workloads[0], 1, "--small")
    res = result(p)
    expect(res is not None and res["correct"], "traced run: every check correct")
    if res is not None:
        expect(same_metrics(res, bench["per_layer"]),
               "traced run: prints every per-layer metric with its unit")
    expect("check canonical-trace-determinism" in p.stderr,
           "traced run: prints the canonical-trace determinism check by name")

    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    p = run(workloads[0], 0, cwd=bare)
    expect(p.returncode != 0 and p.stdout.strip() == "",
           "benchmark files alone: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
