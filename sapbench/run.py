#!/usr/bin/env python3
"""Builds the sap benchmark from source and runs one workload.

    python3 sapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 sapbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
sapbench/ (Release) into .bench_build/sapbench; later calls only check the
build is current.  Build output goes to stderr.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
traced and the metrics are the per-layer ones, read from the Chrome trace
(.bench_build/traces/) the run writes.  See sapbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

START = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "sapbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "sapbench")
TRACE_DIR = os.path.join(OUT_DIR, "traces")
BINARY = os.path.join(BUILD_DIR, "sapbench")

WORKLOADS = ("advise-joint", "simulate-counting", "simulate-dataflow")
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 170  # every call must end within 180 s once built

# Within one run, a timing is the 10th percentile of its passes: this host
# switches memory-heavy code between two speeds about 2x apart, and the
# low percentile reads the fast one whenever the run spends any time in it
# (README.md, "Host noise").
TIMING_QUANTILE = 0.10


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.hpp")):
        fail("the sap sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", BUILD_DIR, "-j", "4"])
    if not os.access(BINARY, os.X_OK):
        fail("build produced no sapbench binary")


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("build step failed: %s" % err)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def clean_env():
    # The benchmark passes every engine and scheduler choice explicitly;
    # dropping SAPART_* also keeps the library's at-exit exporters off.
    return {k: v for k, v in os.environ.items() if not k.startswith("SAPART_")}


def run_binary(args):
    budget = RUN_LIMIT_S - (time.monotonic() - START)
    if budget <= 0:
        fail("no time left to run after the build")
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=clean_env(),
                              timeout=budget, text=True)
    except subprocess.TimeoutExpired:
        fail("sapbench did not finish within %.0f s" % budget)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("sapbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("sapbench printed nothing")
    return json.loads(lines[-1])


def quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end_metrics(report):
    return {
        "setup_s": (report["setup_s"], "s"),
        "run_s": (quantile(report["run_s"], TIMING_QUANTILE), "s"),
        "cpu_s": (quantile(report["cpu_s"], TIMING_QUANTILE), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "remote_reads": (report["remote_reads"], "count"),
    }


def span_rounds(trace, name, arg):
    """Per repetition: (total span duration in ns, total work count)."""
    rounds = {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "X" or event.get("cat") != "bench":
            continue
        if event.get("name") != name:
            continue
        args = event.get("args", {})
        dur_ns, work = rounds.get(args.get("rep", 0), (0.0, 0))
        rounds[args.get("rep", 0)] = (dur_ns + event["dur"] * 1000.0,
                                      work + args.get(arg, 0))
    if not rounds:
        fail("trace has no '%s' spans" % name)
    return list(rounds.values())


def per_unit(trace, name, arg):
    """Median over repetitions of duration per unit of work, in ns."""
    return statistics.median(d / w for d, w in span_rounds(trace, name, arg))


def total(trace, name, arg, scale):
    """Median over repetitions of the summed duration (ns) times scale."""
    return statistics.median(d * scale for d, _ in span_rounds(trace, name, arg))


def per_layer_metrics(report):
    with open(report["trace"]) as f:
        trace = json.load(f)
    v = report["values"]
    stmt = per_unit(trace, "core.stmt_exec", "instances")
    counting = per_unit(trace, "machine.counting", "instances")
    trace_ns = per_unit(trace, "core.trace", "instances")
    serial = per_unit(trace, "core.dataflow_serial", "instances")
    measure_s = total(trace, "advisor.measure", "runs", 1e-9)
    advise_s = total(trace, "advisor.pass", "programs", 1e-9)
    m = {
        "frontend.compile_us": (total(trace, "frontend.compile", "programs", 1e-3), "us"),
        "core.stmt_exec_ns_per_instance": (stmt, "ns"),
        "machine.accounting_ns_per_instance": (counting - stmt, "ns"),
        "partition.owner_lookup_ns": (per_unit(trace, "partition.owner_lookup", "ops"), "ns"),
        "cache.lookup_insert_ns.f8": (per_unit(trace, "cache.lookup_insert.f8", "ops"), "ns"),
        "cache.lookup_insert_ns.f256": (per_unit(trace, "cache.lookup_insert.f256", "ops"), "ns"),
        "memory.sa_write_read_ns": (per_unit(trace, "memory.sa_write_read", "ops"), "ns"),
        "core.bytecode_dispatch_ns": (per_unit(trace, "core.bytecode_dispatch", "ops"), "ns"),
        "core.trace_ns_per_instance": (trace_ns, "ns"),
        "core.replay_ns_per_instance": (serial - trace_ns, "ns"),
        "runtime.sharded_ns_per_instance": (per_unit(trace, "runtime.sharded", "instances"), "ns"),
        "advisor.summary_us": (total(trace, "advisor.summary", "programs", 1e-3), "us"),
        "advisor.estimate_ns": (per_unit(trace, "advisor.estimate", "candidates"), "ns"),
        "advisor.measure_s": (measure_s, "s"),
        "advisor.search_s": (advise_s - measure_s, "s"),
    }
    for name, unit in (("cache.hits", "count"), ("cache.misses", "count"),
                       ("cache.evictions", "count"),
                       ("cache.invalidations", "count"),
                       ("network.messages", "count"),
                       ("network.payload_elements", "count"),
                       ("sim.instances", "count"), ("sim.total_reads", "count"),
                       ("sim.remote_reads", "count"),
                       ("runtime.busy_threads", "ratio"),
                       ("runtime.parks", "count"), ("runtime.steals", "count"),
                       ("runtime.suspensions", "count"),
                       ("advisor.measured_candidates", "count"),
                       ("sweep.memo_hits", "count"),
                       ("sweep.measured_runs", "count"),
                       ("obs.trace_overhead_s", "s")):
        m[name] = (v[name], unit)
    return m


def print_table(title, metrics):
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print("  %-*s %16.6g %s" % (width, name, value, unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects a "
                             "corrupted output")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.self_test:
        proc = subprocess.run([BINARY, "--self-test"], env=clean_env(),
                              timeout=RUN_LIMIT_S)
        sys.exit(proc.returncode)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
        report = run_binary(cmd + ["--trace-out", trace_path])
        metrics = per_layer_metrics(report)
        print_table("%s per-layer (traced run, trace in %s); traced run_s %.6g s, "
                    "untraced %.6g s" % (args.workload, trace_path,
                                         report["values"]["traced_run_s"],
                                         report["values"]["untraced_run_s"]),
                    metrics)
    else:
        report = run_binary(cmd)
        metrics = end_to_end_metrics(report)
        print_table("%s end-to-end (%d passes after the checked first pass)"
                    % (args.workload, len(report["run_s"])), metrics)
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
