#!/usr/bin/env bash
# Snapshot the performance numbers into the repo root:
#   BENCH_overhead.json — the overhead ladder: functional, power session,
#                         telemetry, anomaly detector, event ring off/on,
#                         observatory and activity recorder, each timed
#                         against its parent rung (exit 1 past a budget or
#                         on an energy mismatch between rungs).
#   BENCH_serve.json    — sharded serving plane under load: `repro loadgen`
#                         self-hosts a 2-shard server and reports
#                         throughput, per-endpoint p50/p95/p99 latency and
#                         shed/error rates (exit 1 below 1000 req/s).
#
# usage: scripts/bench_snapshot.sh [cycles] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

CYCLES="${1:-1000000}"
SEED="${2:-2003}"

cargo run --release -p ahbpower-bench --bin repro -- overhead \
    --cycles "$CYCLES" --seed "$SEED"
cargo run --release -p ahbpower-bench --bin repro -- loadgen \
    --duration-s 5 --min-rps 1000 --out BENCH_serve.json
echo "snapshots written to BENCH_overhead.json and BENCH_serve.json"
