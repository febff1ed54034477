#!/usr/bin/env bash
# One full measurement of the working tree: release build, the five timed
# runs, the five traced runs (a quarter of the ops each), then a comparison
# against an earlier result file if one is given.
#
#   benchmark/run.sh [--seed N] [--seconds S] [previous.jsonl]
#
# Every run appends one JSON line to benchmark/out/run-<stamp>.jsonl; that
# file is what `benchmark compare` reads. To compare two commits, follow
# README.md ("Comparing two commits"): ten alternating pairs, not one run.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=17
seconds=10
previous=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    *) previous=$1; shift ;;
  esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
mkdir -p benchmark/out
out="benchmark/out/run-$(date +%Y%m%dT%H%M%S).jsonl"
workloads="replay_dense replay_wide tenants_flood adapt_drift train_query"

for trace in 0 1; do
  for w in $workloads; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --append "$out"
  done
done
echo "results appended to $out"

if [ -n "$previous" ]; then
  "$bin" compare "$previous" "$out"
fi
