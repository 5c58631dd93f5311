#!/usr/bin/env bash
# Full local CI: build, lint, docs, tests, examples, experiments smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --all -- --check

echo "== build =="
cargo build --workspace --all-targets

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tests =="
cargo test --workspace

echo "== examples =="
for e in quickstart instruction_energy design_space macromodel_validation \
         kernel_hosted soc_with_apb trace_driven; do
    cargo run --release --example "$e" > /dev/null
    echo "  $e ok"
done

echo "== static analysis =="
cargo run --release -p ahbpower-bench --bin repro -- analyze
# The analyzer must also *fail* when fed a protocol violation: a 4-beat
# word burst at 0x3fc crosses a 1 KB boundary.
BAD_SCRIPT="$(mktemp)"
trap 'rm -f "$BAD_SCRIPT"' EXIT
printf 'burst w incr4 0x3fc 1 2 3 4\n' > "$BAD_SCRIPT"
if cargo run --release -p ahbpower-bench --bin repro -- analyze --script "$BAD_SCRIPT" > /dev/null; then
    echo "  ERROR: analyze accepted an illegal script" >&2
    exit 1
fi
echo "  analyze ok (clean tree passes, seeded violation fails)"

echo "== deep concurrency verification =="
# Inverted directions first: each seeded fault must be *caught* (exit
# 1). A checker that lets its mutant through is a regression, same as a
# checker that flags the clean tree.
for MUTANT in ring-torn ordering-relaxed arbiter-double-grant; do
    if cargo run --release -p ahbpower-bench --bin repro -- analyze \
        --mutate "$MUTANT" > /dev/null; then
        echo "  ERROR: analyze --mutate $MUTANT went undetected" >&2
        exit 1
    fi
done
# Then the full clean pass (ring model checker + ordering lint census +
# arbiter state-space walk + tool self-check) — last, so
# results/analyze.jsonl holds the clean deep run for CI to archive. It
# must come back clean, and fast: EXPERIMENTS.md E18 budgets 60 s wall
# for the release binary.
DEEP_START="$(date +%s)"
cargo run --release -p ahbpower-bench --bin repro -- analyze --deep
DEEP_WALL="$(( $(date +%s) - DEEP_START ))"
if [ "$DEEP_WALL" -gt 60 ]; then
    echo "  ERROR: analyze --deep took ${DEEP_WALL}s (budget 60s)" >&2
    exit 1
fi
echo "  deep ok (all 3 seeded mutants caught; clean in ${DEEP_WALL}s <= 60s)"

echo "== experiments (smoke, 100k cycles) =="
cargo run --release -p ahbpower-bench --bin repro -- all --cycles 100000 > /dev/null
echo "  repro ok (artifacts in results/)"

echo "== telemetry (smoke, 100k cycles) =="
cargo run --release -p ahbpower-bench --bin repro -- telemetry --cycles 100000 > /dev/null
echo "  telemetry ok (results/telemetry.{jsonl,csv,prom})"

echo "== overhead ladder gate (200k cycles) =="
# `repro overhead` times nine session configurations ("rungs") 25 times
# round-robin and gates each on the median per-round ratio over its
# parent rung: telemetry <= 35% over the plain power session,
# observatory <= 5% over telemetry+anomaly, the activity recorder <= 12%
# over the plain power session. It also exits 1 if any rung
# books other energy than the plain power session. Run from a scratch
# directory so the committed BENCH_overhead.json is not rewritten.
MANIFEST="$PWD/Cargo.toml"
OVERHEAD_DIR="$(mktemp -d)"
if ! (cd "$OVERHEAD_DIR" && cargo run --release --manifest-path "$MANIFEST" \
    -p ahbpower-bench --bin repro -- overhead --cycles 200000 > overhead.log); then
    cat "$OVERHEAD_DIR/overhead.log" >&2
    rm -rf "$OVERHEAD_DIR"
    echo "  ERROR: repro overhead failed (budget blown or energy mismatch)" >&2
    exit 1
fi
if ! grep -q "^verdict: ok" "$OVERHEAD_DIR/overhead.log"; then
    rm -rf "$OVERHEAD_DIR"
    echo "  ERROR: repro overhead printed no 'verdict: ok' line" >&2
    exit 1
fi
# The event tap and the transaction tracer have no budget; their lines
# are printed next to the three gated rungs.
grep -E "^(telemetry|events|observatory|record|txn) " "$OVERHEAD_DIR/overhead.log" | sed 's/^/  /'
rm -rf "$OVERHEAD_DIR"
echo "  overhead ok (telemetry <= 35%, observatory <= 5%, record <= 12%, every rung's energy bit-identical)"

echo "== parallel sweep (smoke, 2 threads, 20k cycles) =="
cargo run --release -p ahbpower-bench --bin repro -- sweep --cycles 20000 --jobs 2 > /dev/null
echo "  sweep ok (results/sweep.csv)"

echo "== transaction trace (smoke, 100k cycles) =="
# `trace` self-checks the trace-event JSON and that the attributed energy
# equals the ledger total within 1e-9 J (exit 1 otherwise); grep for its
# verdict lines so a silent format regression can't slip through.
cargo run --release -p ahbpower-bench --bin repro -- trace --cycles 100000 --top 5 \
    > results/trace_smoke.log
grep -q "valid json" results/trace_smoke.log
grep -q "conservation ok" results/trace_smoke.log
echo "  trace ok (results/trace.json, results/energy.folded)"

echo "== live service (smoke, ephemeral port) =="
# Start `repro serve` on an OS-assigned port, probe every endpoint with
# the std-TcpStream client (no curl), and shut down via GET /quit. The
# serve process must exit 0 after flushing its final snapshots. The
# paper mix with a tripled arbiter from slice 3 flags deterministically
# (warmup 24 windows < first injected window 30), so the probe can
# demand a flight-recorder bundle with a complete causal chain.
SERVE_LOG="$(mktemp)"
rm -rf results/flightrec
cargo run --release -p ahbpower-bench --bin repro -- serve \
    --mix paper --slice-cycles 10000 --slices 6 --inject arb:3.0@3 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(grep -o 'http://[0-9.:]*' "$SERVE_LOG" | sed 's|http://||' || true)"
    [ -n "$ADDR" ] && break
    sleep 0.2
done
if [ -z "$ADDR" ]; then
    echo "  ERROR: serve never printed its address" >&2
    kill "$SERVE_PID" 2> /dev/null || true
    rm -f "$SERVE_LOG"
    exit 1
fi
# serve-probe hits every endpoint including the dashboard (/), the
# /events long-poll and the /query retention API, fails unless the
# stream carries >=1 TxnComplete, and — via --flightrec — unless the
# injected fault dumped a JSON-valid post-mortem bundle whose causal
# chain reaches a TxnComplete.
cargo run --release -p ahbpower-bench --bin repro -- serve-probe \
    --addr "$ADDR" --flightrec results/flightrec --quit
wait "$SERVE_PID"
grep -q "served" "$SERVE_LOG"
rm -f "$SERVE_LOG"
test -s results/observatory.jsonl
cargo run --release -p ahbpower-bench --bin repro -- query \
    --series energy --step 10 > /dev/null
echo "  serve ok (/ /healthz /metrics /status /events /query /quit on $ADDR; flight recorder + offline query)"

echo "== sharded serving + load generation (smoke) =="
# A 2-shard plane: serve-probe --shards 2 walks every merged endpoint
# plus the ?shard=K drill-downs and additionally demands that the
# merged /query energy equals the per-shard sum to 1e-9 over HTTP.
SHARD_LOG="$(mktemp)"
cargo run --release -p ahbpower-bench --bin repro -- serve \
    --mix paper --slice-cycles 10000 --slices 3 --shards 2 > "$SHARD_LOG" 2>&1 &
SHARD_PID=$!
SHARD_ADDR=""
for _ in $(seq 1 50); do
    SHARD_ADDR="$(grep -o 'http://[0-9.:]*' "$SHARD_LOG" | sed 's|http://||' || true)"
    [ -n "$SHARD_ADDR" ] && break
    sleep 0.2
done
if [ -z "$SHARD_ADDR" ]; then
    echo "  ERROR: sharded serve never printed its address" >&2
    kill "$SHARD_PID" 2> /dev/null || true
    rm -f "$SHARD_LOG"
    exit 1
fi
cargo run --release -p ahbpower-bench --bin repro -- serve-probe \
    --addr "$SHARD_ADDR" --shards 2 --quit
wait "$SHARD_PID"
grep -q "served" "$SHARD_LOG"
rm -f "$SHARD_LOG"
# `repro loadgen` self-hosts its own 2-shard server, drives every
# endpoint from 4 client threads, and exits 1 below the 1000 req/s
# floor (EXPERIMENTS.md E20) or past a 1% error rate.
cargo run --release -p ahbpower-bench --bin repro -- loadgen \
    --duration-s 3 --min-rps 1000 --out BENCH_serve.json
test -s BENCH_serve.json
# /query input validation: an empty range must fail cleanly, not panic.
if cargo run --release -p ahbpower-bench --bin repro -- query \
    --series energy --from 5 --to 1 > /dev/null 2>&1; then
    echo "  ERROR: query accepted an empty range (--from 5 --to 1)" >&2
    exit 1
fi
echo "  sharded ok (merged plane probed on $SHARD_ADDR; loadgen >= 1000 req/s -> BENCH_serve.json; empty-range query rejected)"

echo "== structured events (smoke, 100k cycles) =="
# `events` replays the paper testbench with a mid-run injected fault and
# self-checks the causal chain (AnomalyFlagged -> EnergyBooked ->
# TxnComplete, same window/slice) plus line-by-line JSON validity; it
# exits 1 on any failure. Grep its verdict so a silent regression in the
# self-check itself can't slip through.
cargo run --release -p ahbpower-bench --bin repro -- events --cycles 100000 \
    > results/events_smoke.log
grep -q "causal check:.*link to EnergyBooked" results/events_smoke.log
echo "  events ok (results/events.jsonl, causal chain verified)"

echo "== power-emulation replay (smoke, 50k cycles) =="
# `record` writes the activity trace and self-checks that an identity
# replay reproduces the live ledger bit for bit; `replay` re-reads it,
# sweeps model variants and enforces the 1e-9 golden tolerance. Both
# exit 1 on any fidelity miss.
cargo run --release -p ahbpower-bench --bin repro -- record --cycles 50000 \
    --out results/replay_smoke.bin > /dev/null
cargo run --release -p ahbpower-bench --bin repro -- replay \
    --file results/replay_smoke.bin --variants 8 --jobs 2 \
    --out results/replay_smoke.jsonl > /dev/null
# Negative direction 1: a perturbed model must be *detected* as drifting
# from the recorded golden total (--expect-mismatch inverts the exit code).
cargo run --release -p ahbpower-bench --bin repro -- replay \
    --file results/replay_smoke.bin --inject arb:1.5 --expect-mismatch \
    > /dev/null
# Negative direction 2: a truncated trace file must fail cleanly (exit 1
# with a decode error, not a panic or a silently-shorter replay).
head -c 1000 results/replay_smoke.bin > results/replay_smoke_truncated.bin
if cargo run --release -p ahbpower-bench --bin repro -- replay \
    --file results/replay_smoke_truncated.bin > /dev/null 2>&1; then
    echo "  ERROR: replay accepted a truncated trace" >&2
    exit 1
fi
rm -f results/replay_smoke.bin results/replay_smoke_truncated.bin \
    results/replay_smoke.jsonl
echo "  replay ok (golden holds, injected drift and truncation both caught)"

echo "== baseline regression gate (200k cycles) =="
# A fresh snapshot must compare clean against itself at zero tolerance,
# the committed results/baseline.json must hold within 2%, and a seeded
# coefficient fault (arbiter x2) must trip the gate.
BASE_TMP="$(mktemp)"
cargo run --release -p ahbpower-bench --bin repro -- baseline record \
    --cycles 200000 --out "$BASE_TMP" > /dev/null
cargo run --release -p ahbpower-bench --bin repro -- baseline compare \
    --file "$BASE_TMP" --tolerance-pct 0 > /dev/null
if [ -f results/baseline.json ]; then
    cargo run --release -p ahbpower-bench --bin repro -- baseline compare \
        --file results/baseline.json --tolerance-pct 2 > /dev/null
    echo "  committed baseline holds within 2%"
fi
if cargo run --release -p ahbpower-bench --bin repro -- baseline compare \
    --file "$BASE_TMP" --tolerance-pct 2 --inject arb:2.0 > /dev/null 2>&1; then
    echo "  ERROR: baseline gate missed an injected arbiter fault" >&2
    rm -f "$BASE_TMP"
    exit 1
fi
rm -f "$BASE_TMP"
echo "  baseline ok (self-compare clean, injected fault trips the gate)"

echo "== benchmark smoke (perfbench, 1 s per workload) =="
# The BENCHMARK.json command on every workload at seed 7 for one second,
# tracing off, plus soc-live with tracing on: its traced twin feeds
# `Telemetry` in batches through the same public calls, so it must
# print the same digest. Each run must exit 0, fail no output check,
# and print the digest pinned here: the digest is a function of the
# traffic alone, so a change to what the bus runs (or a broken output
# check) fails CI instead of surfacing only when the benchmark is next
# compared.
for PINNED in paper-explore:ee1070b12d54e37d:0 soc-live:8375a5cdcbaf52bf:0 \
              soc-live:8375a5cdcbaf52bf:1 serve-read:cf58f5d072dd737e:0; do
    WORKLOAD="${PINNED%%:*}"
    TRACE="${PINNED##*:}"
    DIGEST="${PINNED#*:}"
    DIGEST="${DIGEST%%:*}"
    if ! BENCH_OUT="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
        -- --workload "$WORKLOAD" --seed 7 --seconds 1 --trace "$TRACE")"; then
        printf '%s\n' "$BENCH_OUT" | tail -5 >&2
        echo "  ERROR: perfbench $WORKLOAD (trace $TRACE) exited non-zero" >&2
        exit 1
    fi
    if ! grep -q '"failed":0,' <<< "$BENCH_OUT"; then
        printf '%s\n' "$BENCH_OUT" | grep "CHECK FAILED" >&2 || true
        echo "  ERROR: perfbench $WORKLOAD (trace $TRACE) failed an output check" >&2
        exit 1
    fi
    if ! grep -q "\"digest\":\"$DIGEST\"" <<< "$BENCH_OUT"; then
        echo "  ERROR: perfbench $WORKLOAD (trace $TRACE) digest changed (pinned $DIGEST)" >&2
        exit 1
    fi
    echo "  $WORKLOAD trace $TRACE ok (digest $DIGEST, failed 0)"
done

echo "ALL CHECKS PASSED"
