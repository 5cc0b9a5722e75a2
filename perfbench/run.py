#!/usr/bin/env python3
"""Runs one perfbench workload and prints the benchmark result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. On first use this builds perfbench/ and the
provnet library it links (Release) into .bench_build/perfbench; later runs
only re-check the build. The perfbench program runs in its own process, so
its peak RSS and memory-gauge peaks belong to this one workload run. This
script checks the program's report against BENCHMARK.json, prints every
metric by name and unit, and prints the result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The program's full report, and with --trace 1
its spans, are kept under .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Every end-to-end metric a workload can report, printed in this order.
E2E_ORDER = [
    "setup_s", "fixpoint_s", "wire_mb", "converge_vt_s", "peak_rss_mb",
    "suboptimal_routes", "query_ms_p50", "query_ms_p99", "query_kb",
    "update_ms_p50", "update_ms_p90", "update_kb", "op_ms_p50", "op_kb",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the perfbench target; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def fmt(value):
    return "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "layers.json")) as f:
        moves = json.load(f)

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", stem + "-spans.json"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench exited with %d" % proc.returncode)
        log(proc.stdout)
        return 1
    report = json.loads(proc.stdout)
    with open(stem + ".json", "w") as f:
        f.write(proc.stdout)

    measured = report["metrics"]
    correct = bool(report["correct"])
    for note in report["notes"]:
        log("check: %s" % note)
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or not in %s" % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    env = report["env"]
    print("perfbench %s seed=%d trace=%d: %d episodes over %d instances, "
          "correct=%s" % (args.workload, args.seed, args.trace,
                          env["episodes"], env["instances"], correct))
    print("  attempted %d, failed %d: fixpoints %d/%d failed, queries or "
          "updates %d/%d failed" % (
              report["attempted"], report["failed"],
              report["fixpoints_failed"], report["fixpoints_attempted"],
              report["ops_failed"], report["ops_attempted"]))
    print("  lanes=%d transport_armed=%s nodes=%d nproc=%d %s [%s]" % (
        env["lanes"], env["transport_armed"], env["nodes"], env["nproc"],
        env["compiler"], env["build_flags"]))
    if env["env_cleared"]:
        print("  cleared from the environment: %s" %
              " ".join(env["env_cleared"]))
    if args.trace:
        for m in wanted:
            shown = measured[m["name"]]
            value = fmt(shown["value"]) if shown["measured"] else "n/a"
            print("  %-36s %14s %-6s should move: %s" % (
                m["name"], value, m["unit"], moves.get(m["name"], "?")))
        for p in report["paper"]:
            print("  paper N=100 %-32s measured %+.1f%%  paper %+.0f%%  "
                  "shape holds: %s" % (p["metric"], p["measured_pct"],
                                       p["paper_pct"], p["shape_holds"]))
    else:
        for name in E2E_ORDER:
            if name in measured:
                print("  %-20s %14s %s" % (name, fmt(measured[name]["value"]),
                                           measured[name]["unit"]))
        print("  samples: %d set-ups, %d queries or updates" % (
            env["setup_samples"], env["op_samples"]))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
