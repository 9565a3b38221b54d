#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Usage (from the repository root):
    python3 perfbench/selftest.py

Runs the short form (--quick) of every workload twice at its own
engine thread count, once at another engine thread count, and once
traced. Every simulated result and per-cycle counter the program
prints as a `sim NAME=VALUE` line must repeat exactly across all four
runs (`sim_threads` lines, which depend on the thread count, only
across the first two), every run must pass its correctness checks,
and the traced run must report every per-layer metric named in
BENCHMARK.json. Exits non-zero on any difference.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = {
    # workload: another engine thread count to compare against
    "mb1024_saturated": 2,
    "fig3_serve_bursty": 2,
    "load_sweep": 2,
}
SEED = 7


def invoke(workload, extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--quick", "--out",
           os.path.join(run.BUILD, "selftest")] + extra
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=170)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    sims, threaded = {}, {}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind in ("sim", "sim_threads"):
            name, _, value = rest.partition("=")
            (sims if kind == "sim" else threaded)[name] = value
    return done.returncode, result, sims, threaded


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    problems = []
    for workload, other in WORKLOADS.items():
        runs = {
            "first": invoke(workload, ["--trace", "0"]),
            "repeat": invoke(workload, ["--trace", "0"]),
            "threads=%d" % other: invoke(
                workload, ["--trace", "0", "--engine-threads", str(other)]),
            "traced": invoke(workload, ["--trace", "1"]),
        }
        _, _, ref, ref_threaded = runs["first"]
        for label, (code, result, sims, threaded) in runs.items():
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append("%s %s: correctness checks failed"
                                % (workload, label))
            if sims != ref:
                diff = sorted(k for k in set(sims) | set(ref)
                              if sims.get(k) != ref.get(k))
                problems.append("%s %s: simulated results differ: %s"
                                % (workload, label, ", ".join(diff)))
        if runs["repeat"][3] != ref_threaded:
            problems.append("%s: thread-dependent counters do not repeat"
                            % workload)
        missing = set(per_layer) - set(runs["traced"][1]["metrics"])
        if missing:
            problems.append("%s traced: missing %s"
                            % (workload, ", ".join(sorted(missing))))
        print("%-18s %d simulated values compared over %d runs"
              % (workload, len(ref), len(runs)))
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
