#!/bin/sh
# Regenerates every figure/table of EXPERIMENTS.md into results/*.csv.
#
#   ./scripts/run_all_experiments.sh [build_dir] [out_dir]
#
# Each bench binary is deterministic, so re-running reproduces the
# committed numbers exactly on the same platform. A bench failure does
# not abort the sweep: every failure is reported, the summary counts
# run/failed, and the script exits non-zero if anything failed.
set -u

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results}"
mkdir -p "$OUT_DIR"

ran=0
failed=0
failed_names=""
for bench in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "running $name ..."
  if [ "$name" = "bench_f14_incremental" ]; then
    # F14 also emits a machine-readable summary next to its CSV.
    set -- --json "$OUT_DIR/BENCH_incremental.json"
  elif [ "$name" = "bench_f15_obs_overhead" ]; then
    set -- --json "$OUT_DIR/BENCH_obs.json"
  elif [ "$name" = "bench_f17_serving" ]; then
    # The serving loadgen spins up real sockets and client threads; the
    # smoke sweep keeps the full-suite run fast while still writing the
    # machine-readable summary.
    set -- --smoke --json "$OUT_DIR/BENCH_serving.json"
  elif [ "$name" = "bench_f19_multires" ]; then
    # F19 sweeps R in {1,2,4}; the machine-readable summary carries the
    # R=2 incremental overhead the CI gate pins.
    set -- --json "$OUT_DIR/BENCH_multires.json"
  elif [ "$name" = "bench_f20_soak" ]; then
    # F20 soaks the telemetry surface A/B; the summary carries the
    # overhead ratio and the HTTP-scraped SLO values the CI gate pins.
    set -- --json "$OUT_DIR/BENCH_soak.json"
  elif [ "$name" = "bench_f21_failover" ]; then
    # F21 spins up primary+standby pairs and promotes; the smoke sweep
    # keeps the full-suite run fast while still gating the replication
    # overhead and the promoted-state audit.
    set -- --smoke --json "$OUT_DIR/BENCH_failover.json"
  elif [ "$name" = "bench_f22_cluster" ]; then
    # F22 spins up multi-shard clusters behind amf_route; the smoke
    # sweep keeps the full-suite run fast while still gating scale-out
    # completion and executor-path bit-identity. Full mode (10k
    # sessions, 1->4 shards) is a manual run on a multi-core host.
    set -- --smoke --json "$OUT_DIR/BENCH_cluster.json"
  else
    set --
  fi
  if "$bench" "$@" > "$OUT_DIR/$name.csv"; then
    ran=$((ran + 1))
  else
    echo "FAILED: $name (exit $?)" >&2
    failed=$((failed + 1))
    failed_names="$failed_names $name"
    rm -f "$OUT_DIR/$name.csv"
  fi
done

echo "ran $ran benches, $failed failed; wrote $(ls "$OUT_DIR" | wc -l) result files to $OUT_DIR/"
if [ "$failed" -gt 0 ]; then
  echo "failed benches:$failed_names" >&2
  exit 1
fi
