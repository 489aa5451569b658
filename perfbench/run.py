#!/usr/bin/env python3
"""The repository benchmark: builds amf_perfbench from source and runs it.

One run (the interface BENCHMARK.json describes):

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 10 --trace 0

builds the libraries under src/ and the benchmark binary (perfbench/cpp/) into
.bench_build/perfbench (first run only; later runs rebuild what changed),
runs one workload for --seconds and prints its result as the last line of
standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes a Chrome trace to .bench_build/out/trace-<workload>.json.

Spread report (how the bounds in BENCHMARK.json were set):

    python3 perfbench/run.py --spread 10 [--seconds S]

runs every workload once per seed, interleaving the workloads, then prints
each end-to-end metric's median and quartile spread (q3 - q1) / median
next to its bound. It also runs the first seed twice and checks that the
exact flow/core counts of solve_cold and replay_churn repeat bit-for-bit.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "amf_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("solve_cold", "replay_churn", "serve_routed")
RUN_TIMEOUT_S = 170
COUNTED = ("solve_cold", "replay_churn")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under %s/src; nothing to build" % ROOT)
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "amf_perfbench"])
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if done.returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    if not os.path.exists(SPEC):
        return None
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, echo_stderr=True):
    """Runs the binary once; returns (result line or None, stderr text).

    The line is the binary's own, so every value keeps all its digits."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None, ""
    if echo_stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log("%s exited with %d" % (workload, done.returncode))
        return None, done.stderr
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s printed no result line" % workload)
        return None, done.stderr
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("%s result has keys %s" % (workload, sorted(result)))
        return None, done.stderr
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        log("%s metrics %s do not match BENCHMARK.json %s"
            % (workload, sorted(result["metrics"]), sorted(want)))
        return None, done.stderr
    return lines[-1], done.stderr


def exact_counts(stderr):
    for line in stderr.splitlines():
        if "exact counts" in line:
            return line.split(":", 2)[-1].strip()
    return None


def spread_report(runs, seconds):
    with open(SPEC) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = list(WORKLOADS)
    values = {w: {} for w in workloads}
    ok = True
    counts = {}
    # The first seed runs twice so the exact counts can be compared across
    # processes; workloads interleave so a slow spell hits all of them.
    schedule = [1] + list(range(1, runs + 1))
    for i, seed in enumerate(schedule):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            line, stderr = run_once(w, seed, seconds, False,
                                    echo_stderr=False)
            result = json.loads(line) if line is not None else None
            if result is None or not result["correct"] or result["failed"]:
                log("%s seed %d: run failed or incorrect" % (w, seed))
                ok = False
                continue
            if w in COUNTED and seed == 1:
                counts.setdefault(w, []).append(exact_counts(stderr))
            if i == 0:
                continue  # the repeat of seed 1 only feeds the count check
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log("%s seed %d done" % (w, seed))
    for w, seen in counts.items():
        same = len(seen) == 2 and seen[0] is not None and seen[0] == seen[1]
        print("%-13s exact counts repeat for seed 1: %s" % (w, same))
        ok = ok and same
    print("%-13s %-18s %12s %12s %12s %8s %6s"
          % ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        print("# %s: %s" % (w, whys.get(w, "")))
        for name in sorted(values[w]):
            v = values[w][name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over bound/3"
            print("%-13s %-18s %12.6g %12.6g %12.6g %8.4f %6s%s"
                  % (w, name, med, q1, q3, spread,
                     "" if bound is None else bound, flag))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, metavar="RUNS",
                        help="spread report over RUNS seeds per workload")
    args = parser.parse_args()
    if args.spread is None and args.workload is None:
        parser.error("--workload or --spread is required")
    if not build():
        return 1
    if args.spread is not None:
        return 0 if spread_report(args.spread, args.seconds) else 1
    line, _ = run_once(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    if line is None:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
