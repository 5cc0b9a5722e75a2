#!/usr/bin/env python3
"""Checks that perfbench's seed-determined values repeat exactly.

    python3 perfbench/test_determinism.py [WORKLOAD ...]

Run from the repository root. For each workload (default: all three) the
perfbench program runs untraced and traced, twice with seed 1 and once with
seed 2, each for the shortest run (one episode per instance). Every metric
the report marks exact, and the attempted and failed counts, must be equal
in the two seed-1 runs; the topology-driven ones must differ under seed 2.
Takes about ten minutes for all three workloads. Exits 1 on a mismatch.
"""

import json
import subprocess
import sys

import run

WORKLOADS = ["fig3-sendlogprov", "forensic-queries", "armed-fixpoint"]
# Seed-determined values that every workload's topology moves.
MUST_CHANGE = {0: ["wire_mb", "op_kb"],
               1: ["core.events", "core.derivations", "net.messages"]}


def report(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.001", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d trace %d exited with %d" % (
            workload, seed, trace, proc.returncode))
    return json.loads(proc.stdout)


def main():
    binary = run.build()
    problems = []
    for workload in sys.argv[1:] or WORKLOADS:
        for trace in (0, 1):
            a = report(binary, workload, 1, trace)
            b = report(binary, workload, 1, trace)
            c = report(binary, workload, 2, trace)
            tag = "%s trace=%d" % (workload, trace)
            for key in ("attempted", "failed"):
                if a[key] != b[key]:
                    problems.append("%s: %s %s != %s" % (tag, key, a[key],
                                                         b[key]))
            exact = [k for k, m in a["metrics"].items() if m["exact"]]
            for name in exact:
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                if va != vb:
                    problems.append("%s: %s %r != %r" % (tag, name, va, vb))
            for name in MUST_CHANGE[trace]:
                if a["metrics"][name]["value"] == c["metrics"][name]["value"]:
                    problems.append("%s: %s did not change with the seed" %
                                    (tag, name))
            unchanged = [k for k in exact
                         if a["metrics"][k]["value"] ==
                         c["metrics"][k]["value"]]
            print("%s: %d exact metrics repeat; the same under seed 2: %s" % (
                tag, len(exact), ", ".join(unchanged) or "none"))
    for p in problems:
        print("FAIL " + p)
    print("PASS" if not problems else "FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
