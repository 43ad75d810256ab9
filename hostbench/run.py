#!/usr/bin/env python3
"""End-to-end host-speed benchmark of the LBA simulator.

Builds hostbench/e2e_host from the repository's sources, runs one
workload for a fixed wall-clock budget, checks the simulated results and
prints every metric by name with its unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run it from the repository root:

    python3 hostbench/run.py --workload mcf_addrcheck --seed 0 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run. hostbench/README.md explains the workloads, the
metrics and how to compare two runs (--compare).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINNED = os.path.join(BENCH_DIR, "pinned.json")

WORKLOADS = ("mcf_addrcheck", "req_serve_bounds", "pool4_taint")
# The seed the pinned simulated results belong to.
DEFAULT_SEED = 0
# Seconds a build may take (the first run in a fresh checkout builds).
BUILD_LIMIT_S = 840
# Seconds the measured run may take once the build is up to date.
RUN_LIMIT_S = 150

END_TO_END = {
    "run_ns_per_instr": "ns/instr",
    "baseline_ns_per_instr": "ns/instr",
    "setup_s": "s",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
    "sim_slowdown": "x",
}

PER_LAYER = {
    "workload.generate_ms": "ms",
    "sim.ns_per_instr": "ns/instr",
    "sim.mem_refs_per_instr": "ratio",
    "mem.cache_ns_per_access": "ns",
    "mem.l1d_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio",
    "log.capture_ns_per_record": "ns",
    "log.records_per_instr": "ratio",
    "compress.encode_ns_per_record": "ns",
    "compress.bytes_per_record": "B",
    "lifeguard.dispatch_ns_per_record": "ns",
    "lifeguard.cycles_per_record": "cycles",
    "core.observer_ns_per_instr": "ns/instr",
    "core.self_ns_per_instr": "ns/instr",
    "core.records_per_flush": "ratio",
    "core.syscall_drains_per_kinstr": "1/kinstr",
    "core.lifeguard_busy_frac": "ratio",
    "core.backpressure_stall_frac": "ratio",
    "core.buffer_max_occupancy": "records",
    "sched.lane_steals": "count",
    "sched.lane_busy_imbalance": "ratio",
    "sched.tenant_lag_p95_cycles": "cycles",
    "sched.queued_tenants": "count",
    "trace.overhead_pct": "%",
    "trace.window_ns_per_instr_p50": "ns/instr",
    "trace.window_ns_per_instr_p95": "ns/instr",
    "trace.windows": "count",
    "trace.reps": "count",
}

# End-to-end host times, reported as the fastest repetition.
HOST_TIMES = ("run_ns_per_instr", "baseline_ns_per_instr", "setup_s",
              "experiment_s")

# The observer span's children; with core.self they sum to core.observer.
OBSERVER_SPLIT = ("log.capture", "mem.app_cache", "compress.encode",
                  "lifeguard.dispatch", "core.self")


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log("hostbench: " + message)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir, deadline):
    """Configure (once) and build e2e_host; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runner.h")):
        fail("simulator sources not found under %s/src; run from a full "
             "checkout of the repository" % ROOT)
    obj = os.path.join(out_dir, "hostbench")
    os.makedirs(obj, exist_ok=True)
    log_path = os.path.join(out_dir, "hostbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", obj,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", obj, "-j", jobs])
    with open(log_path, "w") as build_log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=build_log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.time())
                                      ).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                fail("build failed (%s); see %s" % (" ".join(step), log_path))
    binary = os.path.join(obj, "e2e_host")
    if not os.path.isfile(binary):
        fail("build produced no e2e_host binary")
    return binary


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in is not always a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "hostbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_pinned(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_results(sims, workload, seed, instructions, overridden, pinned):
    """Count the repetitions whose simulated results are wrong.

    At the pinned seed and budget every repetition must equal the pinned
    results. Otherwise every repetition must equal the first and report
    no findings (the workloads are clean programs).
    Returns (failed, how the results were checked).
    """
    entry = pinned.get(workload)
    if (entry and entry["seed"] == seed and
            entry["instructions_per_tenant"] == instructions):
        expected = entry["sim"]
        return sum(1 for s in sims if s != expected), "pinned"
    if seed == DEFAULT_SEED and not overridden:
        return len(sims), "missing pinned values"
    first = sims[0]
    failed = sum(1 for s in sims if s != first or s["findings"])
    return failed, "self-consistent, no findings"


def end_to_end_metrics(report):
    """Each host time is the run's fastest repetition. On a contended
    host the median follows the neighbours' load, while the fastest
    repetition follows the code (hostbench/README.md, "Noise")."""
    reps = report["reps"]
    samples = {
        "run_ns_per_instr": [r["run_s"] / r["run_instrs"] * 1e9
                             for r in reps],
        "baseline_ns_per_instr": [r["baseline_s"] / r["baseline_instrs"]
                                  * 1e9 for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "experiment_s": [r["experiment_s"] for r in reps],
        "sim_slowdown": [r["sim_slowdown"] for r in reps],
    }
    metrics = {name: min(v) if name in HOST_TIMES else statistics.median(v)
               for name, v in samples.items()}
    metrics["peak_rss_mb"] = report["peak_rss_mb"]
    return metrics, samples


def per_layer_metrics(report):
    reps = report["reps"]
    samples = {name: [r["metrics"][name] for r in reps]
               for name in reps[0]["metrics"]}
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    windows = report["windows_ns_per_instr"]
    metrics["trace.window_ns_per_instr_p50"] = statistics.median(windows)
    metrics["trace.window_ns_per_instr_p95"] = (
        statistics.quantiles(windows, n=20)[18] if len(windows) >= 2
        else windows[0])
    metrics["trace.windows"] = len(windows)
    metrics["trace.reps"] = len(reps)
    return metrics, samples


def split_reconciles(rep):
    split = rep["observer_split_ns_per_instr"]
    total = sum(split[name] for name in OBSERVER_SPLIT)
    return math.isclose(total, split["core.observer"], rel_tol=1e-9,
                        abs_tol=1e-6)


def print_summary(args, report, metrics, samples, units, failed, attempted,
                  how, meta):
    print("hostbench %s seed=%d trace=%d: %d repetitions (+1 warm-up), "
          "%d instrs/tenant, %s %s, nproc %d, rev %s, src %s"
          % (args.workload, args.seed, args.trace, len(report["reps"]),
             report["instructions_per_tenant"], report["compiler"],
             report["build_type"], report["nproc"], meta["git_revision"],
             meta["source_digest"]))
    for name in units:
        line = "  %-34s %14.6g %-9s" % (name, metrics[name], units[name])
        if name in samples and len(samples[name]) >= 2:
            q1, q3 = quartiles(samples[name])
            n = len(samples[name])
            if name in HOST_TIMES and not args.trace:
                line += " best of %d; median %.6g," % (
                    n, statistics.median(samples[name]))
            else:
                line += " median of %d," % n
            line += " q1 %.6g, q3 %.6g" % (q1, q3)
        print(line)
    if args.trace:
        reps = sorted(report["reps"], key=lambda r:
                      r["observer_split_ns_per_instr"]["core.observer"])
        split = reps[(len(reps) - 1) // 2]["observer_split_ns_per_instr"]
        print("  observer split, median rep (ns/instr): " +
              ", ".join("%s %.1f" % (k, split[k]) for k in OBSERVER_SPLIT) +
              " = core.observer %.1f" % split["core.observer"])
    print("  ops %d, ops_failed %d (checked: %s)" % (attempted, failed, how))


def compare(paths):
    """Print each metric of two saved reports side by side against the
    bounds in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    try:
        old, new = [json.load(open(path)) for path in paths]
    except (OSError, ValueError) as error:
        fail("cannot read a report to compare: %s" % error)
    for name in sorted(set(old["metrics"]) & set(new["metrics"])):
        a = old["metrics"][name]["value"]
        b = new["metrics"][name]["value"]
        change = (b - a) / a * 100 if a else float("nan")
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = ("REGRESSION" if worse > bounds[name]["bound"] * 100
                       else "within bound")
        print("%-34s %14.6g -> %-14.6g %+7.2f%% %s"
              % (name, a, b, change, verdict))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instrs", type=int,
                        help="override the per-tenant instruction budget")
    parser.add_argument("--pinned", default=PINNED,
                        help="pinned simulated results (default: %(default)s)")
    parser.add_argument("--regen-pinned", action="store_true",
                        help="rewrite this workload's pinned results")
    parser.add_argument("--compare", nargs=2, metavar="REPORT",
                        help="compare two saved reports and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return args
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    if args.instrs is not None and args.instrs <= 0:
        parser.error("--instrs must be positive")
    if args.regen_pinned and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--regen-pinned pins seed %d with --trace 0"
                     % DEFAULT_SEED)
    return args


def main(argv):
    args = parse_args(argv)
    if args.compare:
        compare(args.compare)
        return 0
    out_dir = build_dir()
    binary = build(out_dir, time.time() + BUILD_LIMIT_S)
    deadline = time.time() + RUN_LIMIT_S

    reports = os.path.join(out_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    raw_path = stem + ".raw.json"
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--mode", "trace" if args.trace else "run", "--out", raw_path]
    if args.trace:
        command += ["--spans", stem + ".spans.jsonl"]
    if args.instrs:
        command += ["--instrs", str(args.instrs)]
    try:
        code = subprocess.run(command, stdout=sys.stderr,
                              timeout=max(1, deadline - time.time())
                              ).returncode
    except subprocess.TimeoutExpired:
        fail("e2e_host did not finish in time")
    if code != 0:
        fail("e2e_host exited with code %d" % code)
    with open(raw_path) as f:
        report = json.load(f)
    if not report["optimized"]:
        fail("refusing to report timings of an unoptimised build")

    sims = [report["warmup"]["sim"]] + [r["sim"] for r in report["reps"]]
    pinned = load_pinned(args.pinned)
    if args.regen_pinned:
        if any(s != sims[0] for s in sims) or sims[0]["findings"]:
            fail("repetitions disagree or report findings; not pinning")
        pinned[args.workload] = {
            "seed": args.seed,
            "instructions_per_tenant": report["instructions_per_tenant"],
            "sim": sims[0],
        }
        with open(args.pinned, "w") as f:
            json.dump(pinned, f, indent=2, sort_keys=True)
            f.write("\n")
        log("pinned %s into %s" % (args.workload, args.pinned))

    failed, how = check_results(sims, args.workload, args.seed,
                                report["instructions_per_tenant"],
                                args.instrs is not None, pinned)
    if how == "missing pinned values":
        log("no pinned results for %s; regenerate them with --regen-pinned"
            % args.workload)
    attempted = len(sims)

    if args.trace:
        metrics, samples = per_layer_metrics(report)
        units = PER_LAYER
        reconciled = all(split_reconciles(r) for r in report["reps"])
    else:
        metrics, samples = end_to_end_metrics(report)
        units = END_TO_END
        reconciled = True
    finite = all(math.isfinite(v) for v in metrics.values())
    correct = failed == 0 and reconciled and finite

    meta = {"git_revision": git_revision(), "source_digest": source_digest()}
    print_summary(args, report, metrics, samples, units, failed, attempted,
                  how, meta)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    summary = dict(result)
    summary.update(meta)
    for key in ("workload", "seed", "instructions_per_tenant", "tenants",
                "lifeguard", "compiler", "build_type", "nproc"):
        summary[key] = report[key]
    summary["check"] = how
    with open(stem + ".json", "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
