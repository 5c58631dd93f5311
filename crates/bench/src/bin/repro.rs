//! Regenerates every table and figure of the DATE'03 paper.
//!
//! ```text
//! cargo run --release -p ahbpower-bench --bin repro -- all
//! cargo run --release -p ahbpower-bench --bin repro -- table1 [--cycles N] [--seed S]
//! subcommands: table1 fig3 fig4 fig5 fig6 validation styles overhead ablation
//!              coding dpm sweep record replay telemetry events query trace
//!              analyze serve serve-probe loadgen baseline all
//! ```
//!
//! Text goes to stdout; CSV artifacts go to `results/`. Pass `--telemetry`
//! to any figure/table command to also emit `results/telemetry.{jsonl,csv,prom}`
//! from the same run; the `telemetry` subcommand does that plus a kernel-hosted
//! profiling pass.
//!
//! `overhead` is the one timing harness (paper Sec 6): a ladder of
//! session configurations — functional, power, telemetry, anomaly,
//! event ring off/on, observatory, recorder, transaction tracer — each
//! timed against its parent rung with one noise protocol, written to
//! `BENCH_overhead.json`.
//! It exits 1 when a rung blows its budget or books other energy than
//! the plain power session.
//!
//! Sweep-shaped subcommands (`validation`, `styles`, `ablation`, `coding`,
//! `dpm`, `sweep`) shard their independent points across OS threads; pass
//! `--jobs N` to control the worker count (default: all available cores,
//! `--jobs 1` for serial). Results are byte-identical for any job count.
//!
//! The power-emulation pipeline records once and estimates many times:
//! `record` captures a compact activity trace of the paper testbench
//! (`results/replay_trace.bin`), `replay` re-estimates energy for N
//! model variants from that trace without touching the simulator
//! (golden-checked against the recorded run's ledger total, variant
//! results to `results/replay.jsonl`; `--inject block:factor` plus
//! `--expect-mismatch` prove the golden check trips).
//!
//! `trace` runs the paper testbench and the SoC scenario under the
//! transaction-level energy tracer and writes Chrome trace-event JSON
//! (`results/trace.json`, `results/trace_soc.json` — open in Perfetto or
//! `chrome://tracing`) plus energy flamegraph folded stacks
//! (`results/energy.folded`, `results/energy_soc.folded` — feed to
//! inferno/flamegraph.pl). `--top N` sizes the printed attribution table,
//! `--ring-capacity N` bounds the in-memory transaction ring. The command
//! self-checks: the JSON must validate and the attributed energy must
//! equal the instruction ledger's total within 1e-9 J, else it exits 1.
//!
//! `serve` starts the live monitoring service (std-only HTTP on `--addr`,
//! default ephemeral): workload slices run continuously on a background
//! thread while `/healthz`, `/metrics` (Prometheus), `/status` (JSON),
//! `/events` (structured event ring, `?since=N` cursor + optional
//! `timeout_ms` long-poll), `/query` (the power observatory's
//! multi-resolution range queries) and the self-hosted dashboard at `/`
//! report on them; `GET /quit` shuts down gracefully, flushing
//! `results/serve_final.jsonl`, `results/serve_status.json`,
//! `results/events.jsonl` and `results/observatory.jsonl` atomically,
//! plus a flight-recorder shutdown bundle under `results/flightrec/`.
//!
//! `query` answers the same range queries offline from a flushed
//! `results/observatory.jsonl` (`--series energy --from 0 --to 500
//! --step 10`), printing byte-identical JSON to the live `/query`
//! endpoint.
//!
//! `events` runs a sliced offline workload with the structured event bus
//! enabled, writes `results/events.jsonl`, and self-checks the causal
//! chain (every `AnomalyFlagged` window links to an `EnergyBooked`
//! verdict and to `TxnComplete` transactions of the same slice). A fault
//! is injected mid-run by default so the chain is never vacuous; override
//! with `--inject block:factor[@slice]`.
//! `serve-probe --addr HOST:PORT` smoke-tests a running service without
//! curl. `loadgen` drives every endpoint of a self-hosted 2-shard server
//! (or `--addr`) from client threads and writes `BENCH_serve.json`,
//! exiting 1 below `--min-rps` or past 1% errors. `baseline record`
//! snapshots per-instruction energy to `results/baseline.json`;
//! `baseline compare --tolerance-pct N` re-runs at the snapshot's
//! cycles/seed and exits 1 on drift — the regression gate
//! `scripts/check.sh` and CI run. `--inject block:factor[@slice]` scales
//! one sub-block's macromodel coefficients (serve: from the given slice;
//! baseline: from the start) to prove the detectors trip.
//!
//! `analyze` runs the static analyzer (`ahbpower-analyzer`): model-level
//! checks over the shipped instruction set/macromodels/workloads plus the
//! workspace source lint, printing human-readable findings and writing
//! `results/analyze.jsonl`. Pass `--script FILE` to lint a text op script
//! (see `ahbpower_ahb::parse_ops`) against the paper testbench's address
//! map instead. Exits 1 if any error-severity finding is reported.
//! `analyze --deep` adds the concurrency verification pass — event-ring
//! interleaving model checker, atomic-ordering lint census, exhaustive
//! arbiter state-space walk, plus a seeded-mutant self-check —
//! exporting coverage gauges alongside the findings. `analyze --mutate
//! ring-torn|ordering-relaxed|arbiter-double-grant` runs exactly one
//! seeded fault and must exit 1 (the fault being caught); check.sh and
//! CI drive all three directions.

use std::fs;
use std::time::Instant;

use ahbpower::report;
use ahbpower::telemetry::TelemetryConfig;
use ahbpower::{
    fit_arbiter_model, fit_decoder_model, fit_mux_model, run_on_kernel_profiled, AnalysisConfig,
    ModelValidation, PowerSession, TracePoint, ADDR_BITS, CTRL_BITS, RDATA_BITS, RESP_BITS,
};
use ahbpower_bench::{
    available_jobs, build_paper_bus, compare_probe_styles_parallel, replay_sweep,
    replay_variant_model, replay_variant_spec, run_paper_experiment, run_paper_experiment_recorded,
    run_paper_experiment_telemetered, run_paper_experiment_traced, run_soc_experiment_traced,
    run_sweep, sweep_csv, sweep_grid, sweep_report, validate_json, validate_prometheus, PaperRun,
    SweepRunner,
};
use ahbpower_sim::SimTime;
use ahbpower_workloads::PaperTestbench;

const DEFAULT_CYCLES: u64 = 5_000_000;
const DEFAULT_SEED: u64 = 2003;
/// Seeds per sweep (base, base+1, …), each crossed with all probe styles.
const SWEEP_SEEDS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positionals: Vec<String> = Vec::new();
    let mut cycles = DEFAULT_CYCLES;
    let mut seed = DEFAULT_SEED;
    let mut telemetry = false;
    let mut jobs = available_jobs();
    let mut script: Option<String> = None;
    let mut top = 10usize;
    let mut ring = ahbpower::DEFAULT_RING_CAPACITY;
    let mut addr: Option<String> = None;
    let mut out: Option<String> = None;
    let mut file: Option<String> = None;
    let mut tolerance_pct = 2.0f64;
    let mut inject: Option<String> = None;
    let mut slices: Option<u64> = None;
    let mut slice_cycles = 20_000u64;
    let mut mix = "mixed".to_string();
    let mut quit = false;
    let mut variants = 16usize;
    let mut expect_mismatch = false;
    let mut deep = false;
    let mut mutate: Option<String> = None;
    let mut series: Option<String> = None;
    let mut from = 0u64;
    let mut to = u64::MAX;
    let mut step = 1u64;
    let mut flightrec: Option<String> = None;
    let mut shards = 1usize;
    let mut http_threads = 4usize;
    let mut max_connections = 64usize;
    let mut concurrency = 4usize;
    let mut duration_s = 5.0f64;
    let mut min_rps = 0.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--telemetry" => telemetry = true,
            "--addr" => {
                addr = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--addr needs host:port")),
                );
            }
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a file path")),
                );
            }
            "--file" => {
                file = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--file needs a file path")),
                );
            }
            "--tolerance-pct" => {
                tolerance_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .unwrap_or_else(|| usage("--tolerance-pct needs a non-negative number"));
            }
            "--inject" => {
                inject = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--inject needs block:factor[@slice]")),
                );
            }
            "--slices" => {
                slices = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--slices needs a number")),
                );
            }
            "--slice-cycles" => {
                slice_cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--slice-cycles needs a positive number"));
            }
            "--mix" => {
                mix = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage("--mix needs paper|soc|mixed"));
            }
            "--quit" => quit = true,
            "--variants" => {
                variants = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--variants needs a positive number"));
            }
            "--expect-mismatch" => expect_mismatch = true,
            "--deep" => deep = true,
            "--series" => {
                series = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--series needs a series name")),
                );
            }
            "--from" => {
                from = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--from needs a window index"));
            }
            "--to" => {
                to = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--to needs a window index"));
            }
            "--step" => {
                step = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--step needs a positive number"));
            }
            "--flightrec" => {
                flightrec = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--flightrec needs a directory")),
                );
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--shards needs a positive number"));
            }
            "--http-threads" => {
                http_threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--http-threads needs a positive number"));
            }
            "--max-connections" => {
                max_connections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--max-connections needs a positive number"));
            }
            "--concurrency" => {
                concurrency = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--concurrency needs a positive number"));
            }
            "--duration-s" => {
                duration_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t > 0.0)
                    .unwrap_or_else(|| usage("--duration-s needs a positive number"));
            }
            "--min-rps" => {
                min_rps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .unwrap_or_else(|| usage("--min-rps needs a non-negative number"));
            }
            "--mutate" => {
                mutate = Some(it.next().cloned().unwrap_or_else(|| {
                    usage("--mutate needs ring-torn|ordering-relaxed|arbiter-double-grant")
                }));
            }
            "--cycles" => {
                cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--cycles needs a number"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--jobs needs a positive number"));
            }
            "--script" => {
                script = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--script needs a file path")),
                );
            }
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--top needs a number"));
            }
            "--ring-capacity" => {
                ring = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--ring-capacity needs a positive number"));
            }
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let cmd = positionals
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let sub = positionals.get(1).map(String::as_str);
    if cmd == "overhead" && cycles == 0 {
        usage("overhead needs --cycles >= 1");
    }
    fs::create_dir_all("results").expect("create results/");
    match cmd.as_str() {
        "serve" => {
            return serve_cmd(
                addr.as_deref().unwrap_or("127.0.0.1:0"),
                &mix,
                slice_cycles,
                seed,
                slices,
                inject.as_deref(),
                shards,
                http_threads,
                max_connections,
            );
        }
        "serve-probe" => {
            return serve_probe_cmd(
                addr.as_deref()
                    .unwrap_or_else(|| usage("serve-probe needs --addr host:port")),
                quit,
                flightrec.as_deref(),
                shards,
            );
        }
        "loadgen" => {
            return loadgen_cmd(
                addr.as_deref(),
                shards,
                concurrency,
                duration_s,
                out.as_deref().unwrap_or("BENCH_serve.json"),
                min_rps,
            );
        }
        "query" => {
            return query_cmd(
                file.as_deref().unwrap_or("results/observatory.jsonl"),
                series
                    .as_deref()
                    .unwrap_or_else(|| usage("query needs --series NAME")),
                from,
                to,
                step,
            );
        }
        "baseline" => {
            return baseline_cmd(
                sub.unwrap_or_else(|| usage("baseline needs record|compare")),
                cycles.min(200_000),
                seed,
                out.as_deref(),
                file.as_deref(),
                tolerance_pct,
                inject.as_deref(),
            );
        }
        _ => {}
    }
    match cmd.as_str() {
        "table1" => table1(&mut run(cycles, seed, telemetry)),
        "fig3" => fig(&mut run(cycles, seed, telemetry), 3),
        "fig4" => fig(&mut run(cycles, seed, telemetry), 4),
        "fig5" => fig(&mut run(cycles, seed, telemetry), 5),
        "fig6" => fig6(&mut run(cycles, seed, telemetry)),
        "validation" => validation(jobs),
        "styles" => styles(cycles.min(500_000), seed, jobs),
        "overhead" => overhead(cycles.min(1_000_000), seed),
        "ablation" => ablation(cycles.min(1_000_000), seed, jobs),
        "coding" => coding(cycles.min(300_000), seed, jobs),
        "dpm" => dpm(cycles.min(500_000), seed, jobs),
        "sweep" => sweep(cycles.min(200_000), seed, jobs),
        "record" => record_cmd(cycles.min(1_000_000), seed, out.as_deref()),
        "replay" => replay_cmd(
            file.as_deref().unwrap_or("results/replay_trace.bin"),
            variants,
            jobs,
            out.as_deref().unwrap_or("results/replay.jsonl"),
            inject.as_deref(),
            expect_mismatch,
        ),
        "telemetry" => telemetry_run(cycles.min(1_000_000), seed, jobs),
        "trace" => trace_cmd(cycles.min(1_000_000), seed, top, ring),
        "analyze" => analyze(script.as_deref(), deep, mutate.as_deref()),
        "events" => events_cmd(cycles.min(500_000), seed, slice_cycles, inject.as_deref()),
        "all" => {
            let mut r = run(cycles, seed, telemetry);
            table1(&mut r);
            fig(&mut r, 3);
            fig(&mut r, 4);
            fig(&mut r, 5);
            fig6(&mut r);
            validation(jobs);
            styles(cycles.min(500_000), seed, jobs);
            ablation(cycles.min(1_000_000), seed, jobs);
            coding(cycles.min(300_000), seed, jobs);
            dpm(cycles.min(500_000), seed, jobs);
            sweep(cycles.min(200_000), seed, jobs);
        }
        other => usage(&format!("unknown command {other}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [table1|fig3|fig4|fig5|fig6|validation|styles|overhead|ablation|coding|dpm|sweep|record|replay|telemetry|events|query|trace|analyze|serve|serve-probe|loadgen|baseline record|baseline compare|all] [--cycles N] [--seed S] [--jobs N] [--variants N] [--telemetry] [--script FILE] [--top N] [--ring-capacity N] [--addr HOST:PORT] [--mix paper|soc|mixed] [--slices N] [--slice-cycles N] [--shards N] [--http-threads N] [--max-connections N] [--concurrency N] [--duration-s S] [--min-rps N] [--inject block:factor[@slice]] [--expect-mismatch] [--deep] [--mutate ring-torn|ordering-relaxed|arbiter-double-grant] [--out FILE] [--file FILE] [--tolerance-pct N] [--series NAME] [--from N] [--to N] [--step N] [--flightrec DIR]"
    );
    std::process::exit(2);
}

/// `repro serve`: the live monitoring service. Runs workload slices
/// continuously on `--shards` background worker sessions (each with its
/// own seed lane, event ring, anomaly detector and observatory) and
/// serves the merged plane — `/healthz`, `/metrics`, `/status`,
/// `/events`, `/query` (all with `?shard=` drill-down) and `/quit` —
/// from an HTTP thread pool until the slice budget drains and `/quit`
/// arrives (or Ctrl-C kills the process). Prints the bound address —
/// with `--addr 127.0.0.1:0` the OS picks the port.
#[allow(clippy::too_many_arguments)]
fn serve_cmd(
    addr: &str,
    mix: &str,
    slice_cycles: u64,
    seed: u64,
    max_slices: Option<u64>,
    inject: Option<&str>,
    shards: usize,
    http_threads: usize,
    max_connections: usize,
) {
    use ahbpower::telemetry::AnomalyConfig;
    use ahbpower_bench::{serve, Injection, ScenarioMix, ServeConfig};
    let mix = ScenarioMix::from_name(mix)
        .unwrap_or_else(|| usage(&format!("unknown --mix {mix} (paper|soc|mixed)")));
    let inject = inject.map(|spec| {
        Injection::parse(spec)
            .unwrap_or_else(|| usage(&format!("bad --inject {spec} (block:factor[@slice])")))
    });
    // Warm the detector across at least one slice of each scenario at
    // the *requested* slice length, not the default's.
    let anomaly = AnomalyConfig::default();
    let warmup = 2 * slice_cycles / anomaly.window_cycles + 4;
    let cfg = ServeConfig {
        addr: addr.to_string(),
        mix,
        slice_cycles,
        seed,
        max_slices,
        anomaly: anomaly.with_warmup_windows(warmup),
        inject,
        results_dir: Some("results".into()),
        shards,
        http_threads,
        max_connections,
        ..ServeConfig::default()
    };
    let handle = serve(cfg).expect("bind serve address");
    println!(
        "serving on http://{} ({} shard(s), {} http thread(s), {} connection slot(s))",
        handle.addr(),
        shards,
        http_threads,
        max_connections
    );
    println!("endpoints: / /healthz /metrics /status /events /query /quit (?shard=K drills down)");
    if let Some(n) = max_slices {
        println!("slice budget: {n} x {slice_cycles} cycles per shard (GET /quit to stop serving)");
    } else {
        println!("running until GET /quit");
    }
    let summary = handle.wait_for_quit().expect("serve shuts down cleanly");
    println!(
        "served {} slices ({} cycles, {:.3} uJ, {} anomalies)",
        summary.slices,
        summary.cycles,
        summary.total_energy_j * 1e6,
        summary.anomalies
    );
    for f in &summary.flushed {
        println!("-> {}", f.display());
    }
}

/// `repro serve-probe --addr HOST:PORT [--quit] [--flightrec DIR]`:
/// std-only smoke client for a running service (no curl needed in CI).
/// Fetches `/healthz`, `/metrics`, `/status`, the dashboard at `/`,
/// `/events` (long-polling up to 5 s and requiring at least one
/// `TxnComplete` when the ring is enabled) and `/query` (the power
/// observatory, checking the step→resolution contract), validates each
/// payload (`/metrics` through [`validate_prometheus`]), optionally
/// sends `GET /quit` afterwards, and exits 1 on any failure. With
/// `--flightrec DIR`, waits for at least one JSON-valid
/// flight-recorder bundle whose causal chain reaches `TxnComplete` —
/// the end-to-end assertion behind the injected-fault smoke test.
/// With `--shards N` (N ≥ 2), additionally queries every shard's
/// `energy` series individually and asserts the merged `/query` total
/// equals the per-shard sum to 1e-9 relative — the merged-plane
/// conservation check the multi-shard smoke test runs — and validates
/// every shard's `/metrics?shard=K` exposition.
fn serve_probe_cmd(addr: &str, quit: bool, flightrec: Option<&str>, shards: usize) {
    use ahbpower_bench::http_get;
    use std::time::Duration;
    let timeout = Duration::from_secs(10);
    let mut failures = 0u32;

    match http_get(addr, "/healthz", timeout) {
        Ok(r) if r.status == 200 && r.body.contains("\"status\":\"ok\"") => {
            match validate_json(&r.body) {
                Ok(()) => println!("/healthz: ok"),
                Err(e) => {
                    eprintln!("/healthz: invalid JSON: {e}");
                    failures += 1;
                }
            }
        }
        Ok(r) => {
            eprintln!("/healthz: unexpected status {} body {:?}", r.status, r.body);
            failures += 1;
        }
        Err(e) => {
            eprintln!("/healthz: {e}");
            failures += 1;
        }
    }
    // The Prometheus exposition: the merged view, then every drill-down
    // the /query probe below walks.
    let drills = if shards >= 2 { shards } else { 0 };
    let metrics_paths = std::iter::once("/metrics".to_string())
        .chain((0..drills).map(|k| format!("/metrics?shard={k}")));
    for path in metrics_paths {
        match http_get(addr, &path, timeout) {
            Ok(r) if r.status == 200 => match validate_prometheus(&r.body) {
                Ok(()) => println!("{path}: valid exposition ({} bytes)", r.body.len()),
                Err(e) => {
                    eprintln!("{path}: malformed exposition: {e}");
                    failures += 1;
                }
            },
            Ok(r) => {
                eprintln!("{path}: status {}", r.status);
                failures += 1;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failures += 1;
            }
        }
    }
    match http_get(addr, "/status", timeout) {
        Ok(r) if r.status == 200 => match validate_json(&r.body) {
            Ok(()) => println!("/status: valid JSON ({} bytes)", r.body.len()),
            Err(e) => {
                eprintln!("/status: invalid JSON: {e}");
                failures += 1;
            }
        },
        Ok(r) => {
            eprintln!("/status: status {}", r.status);
            failures += 1;
        }
        Err(e) => {
            eprintln!("/status: {e}");
            failures += 1;
        }
    }
    match http_get(addr, "/", timeout) {
        Ok(r) if r.status == 200 && r.body.contains("<canvas") && r.body.contains("/events") => {
            println!("/: dashboard ok ({} bytes)", r.body.len());
        }
        Ok(r) => {
            eprintln!("/: status {} without a dashboard page", r.status);
            failures += 1;
        }
        Err(e) => {
            eprintln!("/: {e}");
            failures += 1;
        }
    }
    // Long-poll the event ring: a live worker publishes a TxnComplete
    // well within the 5 s window (a 20k-cycle slice takes milliseconds).
    match http_get(addr, "/events?since=0&max=4096&timeout_ms=5000", timeout) {
        Ok(r) if r.status == 200 => match validate_json(&r.body) {
            Ok(()) => {
                let enabled = !r.body.contains("\"enabled\":false");
                if !enabled {
                    println!("/events: valid JSON (ring disabled)");
                } else if r.body.contains("\"event\":\"TxnComplete\"") {
                    println!(
                        "/events: valid JSON with TxnComplete ({} bytes)",
                        r.body.len()
                    );
                } else {
                    eprintln!("/events: enabled ring served no TxnComplete within the poll window");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("/events: invalid JSON: {e}");
                failures += 1;
            }
        },
        Ok(r) => {
            eprintln!("/events: status {}", r.status);
            failures += 1;
        }
        Err(e) => {
            eprintln!("/events: {e}");
            failures += 1;
        }
    }
    // The observatory range query: step=10 must answer from the 10x
    // level (or serve an empty placeholder before the first slice).
    match http_get(addr, "/query?series=energy&step=10", timeout) {
        Ok(r) if r.status == 200 => match validate_json(&r.body) {
            Ok(()) if r.body.contains("\"series\":\"energy\"") => {
                println!("/query: valid JSON ({} bytes)", r.body.len());
            }
            Ok(()) => {
                eprintln!("/query: JSON without the requested series: {:.120}", r.body);
                failures += 1;
            }
            Err(e) => {
                eprintln!("/query: invalid JSON: {e}");
                failures += 1;
            }
        },
        Ok(r) => {
            eprintln!("/query: status {}", r.status);
            failures += 1;
        }
        Err(e) => {
            eprintln!("/query: {e}");
            failures += 1;
        }
    }
    if shards >= 2 && !probe_merged_query(addr, shards, timeout) {
        failures += 1;
    }
    if let Some(dir) = flightrec {
        if !probe_flightrec(dir) {
            failures += 1;
        }
    }
    if quit {
        match http_get(addr, "/quit", timeout) {
            Ok(r) if r.status == 200 => println!("/quit: ok"),
            Ok(r) => {
                eprintln!("/quit: status {}", r.status);
                failures += 1;
            }
            Err(e) => {
                eprintln!("/quit: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("serve-probe: {failures} endpoint(s) failed");
        std::process::exit(1);
    }
}

/// Sums a `/query` response's `sum` fields; `None` on any failure
/// (which is reported to stderr).
fn query_energy_total(addr: &str, path: &str, timeout: std::time::Duration) -> Option<f64> {
    use ahbpower_bench::{http_get, parse_json, JsonValue};
    let resp = match http_get(addr, path, timeout) {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            eprintln!("{path}: status {}", r.status);
            return None;
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            return None;
        }
    };
    let doc = match parse_json(&resp.body) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: invalid JSON: {e}");
            return None;
        }
    };
    let points = doc.get("points").and_then(JsonValue::as_array)?;
    Some(
        points
            .iter()
            .filter_map(|p| p.get("sum").and_then(JsonValue::as_f64))
            .sum(),
    )
}

/// The merged-plane conservation probe: merged `/query` energy must
/// equal the sum over `?shard=K` queries to 1e-9 relative. Queries the
/// full retained range at raw resolution so the comparison covers
/// every bucket.
fn probe_merged_query(addr: &str, shards: usize, timeout: std::time::Duration) -> bool {
    let Some(merged) = query_energy_total(addr, "/query?series=energy&step=1", timeout) else {
        return false;
    };
    let mut per_shard = 0.0f64;
    for k in 0..shards {
        let path = format!("/query?series=energy&step=1&shard={k}");
        let Some(total) = query_energy_total(addr, &path, timeout) else {
            return false;
        };
        per_shard += total;
    }
    let tolerance = 1e-9 * merged.abs().max(1e-30);
    if (merged - per_shard).abs() > tolerance {
        eprintln!(
            "/query shard merge: merged energy {merged} != per-shard sum {per_shard} ({shards} shards)"
        );
        return false;
    }
    println!("/query shard merge: merged energy {merged} == per-shard sum across {shards} shards");
    true
}

/// Waits (up to 10 s) for a flight-recorder bundle under `dir` — or its
/// per-shard `shard-<N>` subdirectories — whose causal chain reaches at
/// least one `TxnComplete`, validating every bundle it reads through
/// the workspace JSON checker. Returns false on timeout or any invalid
/// bundle.
fn probe_flightrec(dir: &str) -> bool {
    use ahbpower_bench::{parse_json, JsonValue};
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut bundles = 0usize;
        let mut causal_ok = false;
        let mut files: Vec<std::path::PathBuf> = Vec::new();
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    // Per-shard subdirectory: one level of recursion.
                    if let Ok(sub) = fs::read_dir(&path) {
                        files.extend(sub.flatten().map(|e| e.path()));
                    }
                } else {
                    files.push(path);
                }
            }
        }
        for path in files {
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(body) = fs::read_to_string(&path) else {
                continue;
            };
            if let Err(e) = validate_json(&body) {
                eprintln!("flightrec: {} is invalid JSON: {e}", path.display());
                return false;
            }
            bundles += 1;
            if let Ok(doc) = parse_json(&body) {
                let txns = doc
                    .get("causal")
                    .and_then(|c| c.get("txn_complete"))
                    .and_then(JsonValue::as_array)
                    .map_or(0, <[JsonValue]>::len);
                if txns > 0 {
                    causal_ok = true;
                }
            }
        }
        if bundles > 0 && causal_ok {
            println!("flightrec: {bundles} valid bundle(s), causal chain reaches TxnComplete");
            return true;
        }
        if Instant::now() >= deadline {
            eprintln!(
                "flightrec: no bundle with a TxnComplete causal chain in {dir} ({bundles} bundle(s) seen)"
            );
            return false;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// `repro query --series S [--from A] [--to B] [--step N] [--file F]`:
/// offline observatory range queries over a flushed
/// `results/observatory.jsonl` snapshot. Prints the same JSON document
/// the live `GET /query` endpoint serves — the renderer is shared, so
/// the bytes cannot drift. `--step` picks the resolution (1 = raw
/// windows, 10 and 100 the downsampled rings). Exits 1 when the
/// snapshot is missing/corrupt, the range is empty (`--from` past
/// `--to`) or the series is unknown.
fn query_cmd(file: &str, series: &str, from: u64, to: u64, step: u64) {
    use ahbpower_bench::{parse_observatory_snapshot, query_result_json};
    if from > to {
        eprintln!("query: empty range: --from {from} > --to {to}");
        std::process::exit(1);
    }
    let text = match fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("query: cannot read {file}: {e} (run `repro serve` first; the snapshot is flushed on shutdown)");
            std::process::exit(1);
        }
    };
    let snap = match parse_observatory_snapshot(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("query: {file}: {e}");
            std::process::exit(1);
        }
    };
    match snap.query(series, from, to, step) {
        Some(q) => {
            let json = query_result_json(&q);
            validate_json(&json).expect("query JSON validates");
            println!("{json}");
        }
        None => {
            eprintln!(
                "query: unknown series '{series}' (available: {})",
                snap.series.join(", ")
            );
            std::process::exit(1);
        }
    }
}

/// `repro loadgen [--addr HOST:PORT] [--shards N] [--concurrency N]
/// [--duration-s S] [--out FILE] [--min-rps N]`: the std-only HTTP
/// load generator. Without `--addr` it self-hosts a multi-shard server
/// (default 2 shards, a small slice budget so the workers go quiet and
/// the measurement isolates the serving plane), drives every endpoint
/// from `--concurrency` client threads for `--duration-s`, and writes
/// the throughput/latency/shed report to `--out` (default
/// `BENCH_serve.json`, the document `bench_snapshot.sh`
/// collects). Exits 1 when the error rate exceeds 1% or the measured
/// throughput falls below `--min-rps`.
fn loadgen_cmd(
    addr: Option<&str>,
    shards: usize,
    concurrency: usize,
    duration_s: f64,
    out: &str,
    min_rps: f64,
) {
    use ahbpower_bench::{
        loadgen_report_json, run_loadgen, serve, write_atomic, LoadgenConfig, ScenarioMix,
        ServeConfig,
    };
    use std::time::Duration;
    let self_hosted = addr.is_none();
    let shards = if self_hosted { shards.max(2) } else { shards };
    let handle = if self_hosted {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            mix: ScenarioMix::Paper,
            slice_cycles: 5_000,
            max_slices: Some(2),
            shards,
            ..ServeConfig::default()
        };
        let handle = serve(cfg).expect("bind loadgen server");
        println!(
            "loadgen: self-hosted {shards}-shard server on http://{}",
            handle.addr()
        );
        // Let the slice budget drain so worker CPU does not distort the
        // serving-plane measurement (2 x 5k cycles per shard is quick).
        std::thread::sleep(Duration::from_millis(300));
        Some(handle)
    } else {
        None
    };
    let target = match (&handle, addr) {
        (Some(h), _) => h.addr().to_string(),
        (None, Some(a)) => a.to_string(),
        (None, None) => unreachable!(),
    };
    let cfg = LoadgenConfig {
        addr: target.clone(),
        concurrency,
        duration: Duration::from_secs_f64(duration_s),
        ..LoadgenConfig::default()
    };
    println!("loadgen: driving http://{target} from {concurrency} thread(s) for {duration_s:.1} s");
    let report = run_loadgen(&cfg);
    if let Some(handle) = handle {
        let _ = ahbpower_bench::http_get(&target, "/quit", Duration::from_secs(10));
        let _ = handle.wait_for_quit();
    }
    let json = loadgen_report_json(&report, shards);
    validate_json(&json).expect("loadgen report JSON validates");
    write_atomic(std::path::Path::new(out), &json).expect("write loadgen report");
    println!(
        "loadgen: {} requests in {:.2} s = {:.0} req/s ({} ok, {} shed, {} errors) -> {out}",
        report.requests(),
        report.duration_s,
        report.throughput_rps(),
        report.ok(),
        report.shed(),
        report.errors()
    );
    for e in &report.endpoints {
        println!(
            "  {:<40} {:>7} reqs  p50 {:>8.0} us  p95 {:>8.0} us  p99 {:>8.0} us",
            e.path,
            e.requests(),
            e.latency_us.quantile(0.5),
            e.latency_us.quantile(0.95),
            e.latency_us.quantile(0.99)
        );
    }
    let error_rate = report.errors() as f64 / report.requests().max(1) as f64;
    if error_rate > 0.01 {
        eprintln!("loadgen: error rate {:.2}% exceeds 1%", error_rate * 100.0);
        std::process::exit(1);
    }
    if min_rps > 0.0 && report.throughput_rps() < min_rps {
        eprintln!(
            "loadgen: {:.0} req/s is below the required {min_rps:.0}",
            report.throughput_rps()
        );
        std::process::exit(1);
    }
}

/// `repro baseline record|compare`: the energy regression gate.
///
/// `record` runs the paper testbench and snapshots the per-instruction
/// energy distribution to `--out` (default `results/baseline.json`).
/// `compare` re-runs at the cycles/seed stamped in `--file` (so the
/// diff is always apples-to-apples) and exits 1 when any tracked
/// quantity drifts beyond `--tolerance-pct`. `--inject block:factor`
/// scales one sub-block's coefficients first — the self-test proving
/// the gate trips.
fn baseline_cmd(
    sub: &str,
    cycles: u64,
    seed: u64,
    out: Option<&str>,
    file: Option<&str>,
    tolerance_pct: f64,
    inject: Option<&str>,
) {
    use ahbpower_bench::{compare_baselines, record_baseline, BaselineSnapshot, Injection};
    let inject = inject.map(|spec| {
        let inj = Injection::parse(spec)
            .unwrap_or_else(|| usage(&format!("bad --inject {spec} (block:factor)")));
        (inj.block, inj.factor)
    });
    match sub {
        "record" => {
            let path = out.unwrap_or("results/baseline.json");
            let snap = record_baseline(cycles, seed, inject);
            snap.save(std::path::Path::new(path))
                .expect("write baseline snapshot");
            println!(
                "recorded baseline: {} cycles @ seed {}, {:.3} uJ, {} instructions -> {path}",
                snap.cycles,
                snap.seed,
                snap.total_energy_j * 1e6,
                snap.rows.len()
            );
        }
        "compare" => {
            let path = file.unwrap_or("results/baseline.json");
            let base = BaselineSnapshot::load(std::path::Path::new(path))
                .unwrap_or_else(|e| usage(&format!("cannot load baseline {path}: {e}")));
            let fresh = record_baseline(base.cycles, base.seed, inject);
            let cmp = compare_baselines(&base, &fresh, tolerance_pct);
            print!("{}", cmp.render_text());
            if !cmp.passed() {
                std::process::exit(1);
            }
        }
        other => usage(&format!(
            "unknown baseline subcommand {other} (record|compare)"
        )),
    }
}

/// `repro analyze [--script FILE] [--deep] [--mutate M]`: static
/// analysis before any simulation.
///
/// Without `--script`, runs the full two-layer analysis (instruction set,
/// macromodel domains, shipped workload maps/scripts, workspace source
/// lint). With `--script`, parses and lints the given text op script
/// against the paper testbench's address map.
///
/// `--deep` adds the concurrency verification pass: the event-ring
/// interleaving model checker, the workspace atomic-ordering census, and
/// the exhaustive AHB arbiter state-space walk, plus a self-check that
/// every seeded mutant is still caught. `--mutate M` (implies `--deep`)
/// runs only the seeded fault `M` — findings (exit 1) are then the
/// expected outcome, a clean exit the regression.
///
/// Either way the findings are printed human-readable, exported to
/// `results/analyze.jsonl` (telemetry JSONL metrics followed by one event
/// per diagnostic), and error-severity findings make the process exit 1.
fn analyze(script: Option<&str>, deep: bool, mutate: Option<&str>) -> ! {
    use ahbpower::telemetry::{to_jsonl, ExportMeta, MetricsRegistry};
    use ahbpower_analyzer::verify::{verify_deep, DeepConfig, DeepMutation, DeepStats};
    use ahbpower_analyzer::{analyze_all, analyze_models_and_workloads, Report};

    let mutation = match mutate {
        Some(m) => DeepMutation::parse(m).unwrap_or_else(|| {
            usage("--mutate needs ring-torn|ordering-relaxed|arbiter-double-grant")
        }),
        None => DeepMutation::None,
    };
    let deep = deep || mutate.is_some();

    let mut report: Report = match script {
        Some(path) => {
            let text = match fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => usage(&format!("cannot read script {path}: {e}")),
            };
            let map = PaperTestbench::default().address_map();
            println!("== Static analysis: script {path} ==");
            Report::from_diagnostics(ahbpower_analyzer::script::check_script_text(
                &text,
                Some(&map),
                path,
            ))
        }
        None if mutation != DeepMutation::None => {
            // A mutant direction verifies the tooling, not the shipped
            // models; the base layers would only dilute its exit code.
            println!(
                "== Static analysis: seeded mutant {} ==",
                mutate.unwrap_or("")
            );
            Report::new()
        }
        None => {
            println!("== Static analysis: models, workloads, sources ==");
            match workspace_root() {
                Some(root) => analyze_all(&root),
                None => {
                    println!("(no workspace root found: skipping the source lint layer)");
                    analyze_models_and_workloads()
                }
            }
        }
    };

    let mut deep_stats: Option<DeepStats> = None;
    if deep && script.is_none() {
        let root = workspace_root().unwrap_or_else(|| std::path::PathBuf::from("."));
        let cfg = DeepConfig {
            mutation,
            ..DeepConfig::default()
        };
        println!("== Deep verification: ring model checker, ordering census, arbiter walk ==");
        let (deep_report, stats) = verify_deep(&root, cfg);
        println!(
            "   ring: {} scenarios, {} interleavings (max {} steps); \
             arbiter: {} states, {} bus cycles, {} burst checks; \
             atomics: {} sites in {} files; wall {:.2?}",
            stats.ring.scenarios,
            stats.ring.executions,
            stats.ring.max_steps,
            stats.arbiter.decide_states,
            stats.arbiter.bus_cycles,
            stats.arbiter.burst_checks,
            stats.census.total(),
            stats.census.files_with_atomics,
            stats.wall,
        );
        report.merge(deep_report);
        deep_stats = Some(stats);
    }

    print!("{}", report.render_text());

    let mut reg = MetricsRegistry::new();
    report.to_metrics(&mut reg);
    if let Some(stats) = &deep_stats {
        let gauges: [(&str, &str, f64); 8] = [
            (
                "verify_ring_executions",
                "Interleavings explored by the ring model checker",
                stats.ring.executions as f64,
            ),
            (
                "verify_ring_scenarios",
                "Ring scenarios model-checked",
                stats.ring.scenarios as f64,
            ),
            (
                "verify_arbiter_decide_states",
                "Arbiter decide() states exhaustively enumerated",
                stats.arbiter.decide_states as f64,
            ),
            (
                "verify_arbiter_bus_cycles",
                "Bus cycles simulated under the protocol checker",
                stats.arbiter.bus_cycles as f64,
            ),
            (
                "verify_burst_checks",
                "Burst boundary predicates cross-checked",
                stats.arbiter.burst_checks as f64,
            ),
            (
                "verify_atomic_ordering_sites",
                "Atomic ordering sites in workspace library code",
                stats.census.total() as f64,
            ),
            (
                "verify_atomic_relaxed_sites",
                "Ordering::Relaxed sites in workspace library code",
                stats.census.relaxed as f64,
            ),
            (
                "verify_deep_wall_seconds",
                "Wall-clock seconds spent in the deep pass",
                stats.wall.as_secs_f64(),
            ),
        ];
        for (name, help, value) in gauges {
            let id = reg.gauge(name, help, &[]);
            reg.set(id, value);
        }
    }
    let meta = ExportMeta {
        scenario: if deep { "analyze-deep" } else { "analyze" }.to_string(),
        cycles: 0,
        seed: 0,
    };
    let jsonl = format!("{}{}", to_jsonl(&reg, &meta), report.render_jsonl());
    fs::write("results/analyze.jsonl", jsonl).expect("write results/analyze.jsonl");
    println!("wrote results/analyze.jsonl");

    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// Walks up from the current directory to the first one that looks like
/// the workspace root (has both `Cargo.toml` and `crates/`).
fn workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run(cycles: u64, seed: u64, telemetry: bool) -> PaperRun {
    eprintln!("running paper testbench: {cycles} cycles @ 100 MHz, seed {seed} ...");
    let t0 = Instant::now();
    let mut r = if telemetry {
        run_paper_experiment_telemetered(cycles, seed)
    } else {
        run_paper_experiment(cycles, seed)
    };
    eprintln!(
        "  done in {:.2?} ({:.1} Mcycles/s), {} OK transfers, {} handovers",
        t0.elapsed(),
        cycles as f64 / 1e6 / t0.elapsed().as_secs_f64(),
        r.bus.stats().transfers_ok,
        r.bus.stats().handovers,
    );
    export_telemetry(&mut r);
    r
}

/// Writes `results/telemetry.{jsonl,csv,prom}` when the run carries
/// telemetry; a no-op otherwise.
fn export_telemetry(r: &mut PaperRun) {
    let Some(t) = r.session.finish_telemetry() else {
        return;
    };
    fs::write("results/telemetry.jsonl", t.to_jsonl()).expect("write results/telemetry.jsonl");
    fs::write("results/telemetry.csv", t.to_csv()).expect("write results/telemetry.csv");
    fs::write("results/telemetry.prom", t.to_prometheus()).expect("write results/telemetry.prom");
    println!("-> results/telemetry.jsonl, results/telemetry.csv, results/telemetry.prom\n");
}

/// The telemetry showcase: an enabled run (bus-performance analyzers +
/// observer spans + power ledgers) plus a kernel-hosted profiling pass so
/// the `sim_*` span metrics are populated too, plus a `--jobs`-wide
/// multi-seed sweep showing how the headline metrics move with the seed.
fn telemetry_run(cycles: u64, seed: u64, jobs: usize) {
    println!("== Telemetry: metrics registry over {cycles} cycles ==");
    let mut r = run_paper_experiment_telemetered(cycles, seed);
    // A short kernel-hosted pass with wall-clock profiling enabled feeds
    // the sim-kernel span metrics.
    let kernel_cycles = cycles.min(20_000);
    let kr = run_on_kernel_profiled(
        build_paper_bus(kernel_cycles, seed),
        None,
        kernel_cycles,
        SimTime::from_ns(10),
        true,
    )
    .expect("kernel-hosted run succeeds");
    let t = r.session.telemetry_mut().expect("telemetry enabled");
    t.record_kernel(&kr.kernel.stats(), kr.kernel.profile(), &["ahb_bus"]);

    let t = r.session.finish_telemetry().expect("telemetry enabled");
    let perf = t.perf();
    println!(
        "bus utilization {:.1}%, {} handovers ({:.4}/cycle), mean arbitration latency {:.2} cycles",
        perf.utilization() * 100.0,
        perf.handovers(),
        perf.handover_rate(),
        perf.arbitration_latency().mean()
    );
    for (i, m) in perf.masters().iter().enumerate() {
        println!(
            "master {i}: {:>7} grant cycles, {:>6} transfers, {:>5} wait cycles, {:>6} request-wait cycles",
            m.grant_cycles, m.transfers_ok, m.wait_cycles, m.request_wait_cycles
        );
    }
    fs::write("results/telemetry.jsonl", t.to_jsonl()).expect("write results/telemetry.jsonl");
    fs::write("results/telemetry.csv", t.to_csv()).expect("write results/telemetry.csv");
    fs::write("results/telemetry.prom", t.to_prometheus()).expect("write results/telemetry.prom");
    println!("-> results/telemetry.jsonl, results/telemetry.csv, results/telemetry.prom");

    let sweep_cycles = cycles.min(100_000);
    println!("seed sweep ({sweep_cycles} cycles each, {jobs} jobs):");
    // Each thread returns its seed's printed line: the bus is not `Send`.
    let seeds: Vec<u64> = (0..SWEEP_SEEDS as u64).map(|i| seed + i).collect();
    let lines = SweepRunner::new(jobs).run(&seeds, |_, &seed| {
        let mut r = run_paper_experiment_telemetered(sweep_cycles, seed);
        let uj = r.session.total_energy() * 1e6;
        let perf = r.session.finish_telemetry().expect("telemetry enabled").perf();
        format!(
            "  seed {seed:>6}: utilization {:>5.1}%, {:>5} handovers, arb latency {:.2} cycles, {uj:.3} uJ",
            perf.utilization() * 100.0,
            perf.handovers(),
            perf.arbitration_latency().mean(),
        )
    });
    for line in lines {
        println!("{line}");
    }
    println!();
}

/// `repro events`: a sliced offline run with the structured event bus
/// enabled. Writes `results/events.jsonl` and self-checks it: every
/// line must be valid JSON, and every `AnomalyFlagged` must link
/// through an `EnergyBooked` verdict of the same window to at least one
/// `TxnComplete` of the same window and slice — the causal chain the
/// dashboard's drill-down renders. Exits 1 on any failure.
fn events_cmd(cycles: u64, seed: u64, slice_cycles: u64, inject: Option<&str>) {
    use ahbpower::telemetry::{
        events_to_jsonl, AnomalyConfig, EventBus, EventKind, ExportMeta, DEFAULT_EVENT_CAPACITY,
    };
    use ahbpower_bench::Injection;
    use std::sync::Arc;

    let n_slices = (cycles / slice_cycles).max(4);
    // Default to a mid-run fault so the causal self-check is never
    // vacuous; `--inject` overrides block/factor/slice.
    let inject = match inject {
        Some(spec) => Injection::parse(spec)
            .unwrap_or_else(|| usage(&format!("bad --inject {spec} (block:factor[@slice])"))),
        None => Injection {
            block: ahbpower::SubBlock::Arb,
            factor: 3.0,
            at_slice: n_slices / 2,
        },
    };
    println!(
        "== Structured events: {n_slices} slices x {slice_cycles} cycles, inject {:?} x{} @ slice {} ==",
        inject.block, inject.factor, inject.at_slice
    );

    let anomaly = AnomalyConfig::default();
    let warmup = slice_cycles / anomaly.window_cycles + 4;
    // The drain runs once per slice, so the ring must hold a whole
    // slice's events (bounded by one TxnComplete per cycle plus the
    // per-window verdict train) regardless of --slice-cycles.
    let bus_events = EventBus::shared(DEFAULT_EVENT_CAPACITY.max(2 * slice_cycles as usize));
    let acfg = AnalysisConfig::paper_testbench();
    let tcfg = TelemetryConfig::enabled("events")
        .with_seed(seed)
        .with_anomaly(anomaly.with_warmup_windows(warmup))
        .with_events(Arc::clone(&bus_events));
    let mut session = PowerSession::with_telemetry(&acfg, tcfg);
    let mut log = Vec::new();
    let mut cursor = 0u64;
    let mut dropped = 0u64;
    for slice in 0..n_slices {
        if inject.at_slice == slice {
            session.scale_model_block(inject.block, inject.factor);
        }
        let mut bus = build_paper_bus(slice_cycles, seed + slice);
        session.begin_slice(slice);
        session.run(&mut bus, slice_cycles);
        session.end_slice();
        loop {
            let batch = bus_events.read_since(cursor, 4096);
            cursor = batch.next;
            dropped += batch.dropped;
            if batch.events.is_empty() {
                break;
            }
            log.extend(batch.events);
        }
    }

    let mut counts = [0u64; EventKind::ALL.len()];
    for e in &log {
        counts[e.kind as usize] += 1;
    }
    for kind in EventKind::ALL {
        println!("  {:<16} {:>8}", kind.name(), counts[kind as usize]);
    }
    if dropped > 0 {
        println!("  (ring dropped {dropped} events before the drain)");
    }

    let mut failures = 0u32;
    let flagged: Vec<_> = log
        .iter()
        .filter(|e| e.kind == EventKind::AnomalyFlagged)
        .collect();
    if flagged.is_empty() {
        eprintln!("causal check: no AnomalyFlagged events despite the injected fault");
        failures += 1;
    }
    for f in &flagged {
        let booked = log
            .iter()
            .any(|e| e.kind == EventKind::EnergyBooked && e.window == f.window);
        let txn = log.iter().any(|e| {
            e.kind == EventKind::TxnComplete && e.window == f.window && e.slice == f.slice
        });
        if !booked {
            eprintln!(
                "causal check: window {} flagged without EnergyBooked",
                f.window
            );
            failures += 1;
        }
        if !txn {
            eprintln!(
                "causal check: window {} (slice {}) flagged without a TxnComplete",
                f.window, f.slice
            );
            failures += 1;
        }
    }
    if failures == 0 && !flagged.is_empty() {
        println!(
            "causal check: {} flagged window(s) each link to EnergyBooked + TxnComplete",
            flagged.len()
        );
    }

    let jsonl = events_to_jsonl(
        &log,
        &ExportMeta {
            scenario: "events".to_string(),
            cycles: n_slices * slice_cycles,
            seed,
        },
    );
    for (i, line) in jsonl.lines().enumerate() {
        if let Err(e) = validate_json(line) {
            eprintln!("events.jsonl line {}: invalid JSON: {e}", i + 1);
            failures += 1;
            break;
        }
    }
    fs::write("results/events.jsonl", &jsonl).expect("write results/events.jsonl");
    println!(
        "-> results/events.jsonl ({} events, {} bytes)\n",
        log.len(),
        jsonl.len()
    );
    if failures > 0 {
        eprintln!("events: {failures} check(s) failed");
        std::process::exit(1);
    }
}

/// `repro trace`: transaction-level energy attribution on the paper
/// testbench and the SoC scenario. Writes Chrome trace-event JSON and
/// energy-flamegraph folded stacks per workload, prints the per-master
/// split and the `--top N` attribution cells, and self-checks both the
/// JSON well-formedness and energy conservation (attributed total ==
/// instruction-ledger total within 1e-9 J). Exits 1 on any failure.
fn trace_cmd(cycles: u64, seed: u64, top: usize, ring_capacity: usize) {
    use ahbpower::fmt_energy;
    use ahbpower::telemetry::{to_folded, to_trace_events, TraceEventMeta};

    println!("== Transaction-level energy attribution over {cycles} cycles ==");
    let mut failures = 0u32;
    type TracedRun = fn(u64, u64, usize) -> PaperRun;
    let workloads: [(&str, &str, &str, TracedRun); 2] = [
        (
            "paper_testbench",
            "results/trace.json",
            "results/energy.folded",
            run_paper_experiment_traced,
        ),
        (
            "soc_scenario",
            "results/trace_soc.json",
            "results/energy_soc.folded",
            run_soc_experiment_traced,
        ),
    ];
    for (label, json_file, folded_file, run_traced) in workloads {
        let t0 = Instant::now();
        let mut r = run_traced(cycles, seed, ring_capacity);
        r.session.finish_txn();
        let tracer = r.session.txn_tracer().expect("trace runs carry a tracer");
        let table = tracer.attribution();
        println!(
            "-- {label}: {} cycles in {:.2?} --",
            table.cycles(),
            t0.elapsed()
        );
        println!(
            "transactions: {} completed, {} in ring (capacity {}), {} evicted",
            tracer.completed(),
            tracer.len(),
            tracer.capacity(),
            tracer.evicted()
        );
        let total = table.total_energy();
        for (m, e) in r.session.per_master_energy().iter().enumerate() {
            println!(
                "  M{m}: {:>12} ({:>5.1}%)",
                fmt_energy(*e),
                if total > 0.0 { e / total * 100.0 } else { 0.0 }
            );
        }
        println!("top {top} attribution cells (master, slave, instruction):");
        for row in table.top_rows(top) {
            let slave = row
                .slave
                .map(|s| format!("S{}", s.0))
                .unwrap_or_else(|| "default".to_string());
            println!(
                "  M{} {:<8} {:<12} {:>12} (arb {:>5.1}%)",
                row.master.0,
                slave,
                row.instruction.name(),
                fmt_energy(row.energy.total()),
                if row.energy.total() > 0.0 {
                    row.energy.arb / row.energy.total() * 100.0
                } else {
                    0.0
                }
            );
        }

        let meta = TraceEventMeta {
            scenario: label.to_string(),
            n_masters: r.config.n_masters,
            period_ps: r.config.period_ps(),
            seed,
        };
        let json = to_trace_events(tracer.records(), r.session.trace_points(), &meta);
        let folded = to_folded(table);
        fs::write(json_file, &json).expect("write trace-event JSON");
        fs::write(folded_file, &folded).expect("write folded stacks");

        match validate_json(&json) {
            Ok(()) => println!("{label}: valid json ({} trace-event bytes)", json.len()),
            Err(e) => {
                eprintln!("{label}: INVALID trace-event JSON: {e}");
                failures += 1;
            }
        }
        let ledger_total = r.session.ledger().total_energy();
        let drift = (total - ledger_total).abs();
        if drift <= 1e-9 {
            println!(
                "{label}: conservation ok (attributed {} == ledger {}, drift {drift:.3e} J)",
                fmt_energy(total),
                fmt_energy(ledger_total)
            );
        } else {
            eprintln!(
                "{label}: CONSERVATION VIOLATED: attributed {total} J vs ledger {ledger_total} J (drift {drift:.3e} J)"
            );
            failures += 1;
        }
        println!("-> {json_file}, {folded_file}\n");
    }
    if failures > 0 {
        eprintln!("trace: {failures} check(s) failed");
        std::process::exit(1);
    }
}

fn table1(r: &mut PaperRun) {
    println!("== Table 1: instruction energy analysis ==");
    println!(
        "({} cycles = {:.3} ms simulated at 100 MHz)",
        r.cycles,
        r.cycles as f64 * 10e-9 * 1e3
    );
    print!("{}", report::table1_text(r.session.ledger()));
    fs::write("results/table1.csv", report::table1_csv(r.session.ledger()))
        .expect("write results/table1.csv");
    println!("-> results/table1.csv\n");
}

fn fig(r: &mut PaperRun, which: u8) {
    let horizon = 4e-6; // the paper plots the first 4 us
    let pts: Vec<TracePoint> = r.session.trace().points_before(horizon).to_vec();
    let (title, file, pick): (&str, &str, fn(&TracePoint) -> f64) = match which {
        3 => ("total AHB power", "results/fig3_total_power.csv", |p| {
            p.total_w
        }),
        4 => ("arbiter power", "results/fig4_arbiter_power.csv", |p| {
            p.arb_w
        }),
        5 => ("M2S mux power", "results/fig5_m2s_power.csv", |p| p.m2s_w),
        _ => unreachable!("fig() only handles 3, 4, 5"),
    };
    println!("== Fig {which}: {title}, first 4 us ==");
    print!("{}", report::trace_ascii(&pts, pick, 50));
    fs::write(file, report::trace_csv(&pts)).expect("write figure CSV");
    println!("-> {file}\n");
}

fn fig6(r: &mut PaperRun) {
    println!("== Fig 6: AHB sub-block power contributions ==");
    print!("{}", r.session.blocks());
    fs::write(
        "results/fig6_blocks.csv",
        report::fig6_csv(r.session.blocks()),
    )
    .expect("write results/fig6_blocks.csv");
    println!("-> results/fig6_blocks.csv\n");
}

/// The four AHB sub-block characterizations are independent gate-level
/// experiments with fixed seeds, so they run as four sweep points; the
/// ordered merge matches `fit_ahb_power_model`'s serial output exactly.
fn validation(jobs: usize) {
    println!("== Sec 5.1: macromodel validation vs gate level (SIS substitute) ==");
    let cfg = AnalysisConfig::paper_testbench();
    let tech = cfg.tech();
    let t0 = Instant::now();
    #[derive(Clone, Copy)]
    enum Fit {
        Decoder,
        M2sMux,
        S2mMux,
        Arbiter,
    }
    let fits = [Fit::Decoder, Fit::M2sMux, Fit::S2mMux, Fit::Arbiter];
    let validations: Vec<ModelValidation> = SweepRunner::new(jobs).run(&fits, |_, f| match f {
        Fit::Decoder => fit_decoder_model(cfg.n_slaves.max(2), &tech).1,
        Fit::M2sMux => {
            fit_mux_model(
                (ADDR_BITS + CTRL_BITS) as usize,
                cfg.n_masters.max(2),
                24,
                2003,
                &tech,
            )
            .1
        }
        Fit::S2mMux => {
            fit_mux_model(
                (RDATA_BITS + RESP_BITS) as usize,
                cfg.n_slaves + 1,
                24,
                2004,
                &tech,
            )
            .1
        }
        Fit::Arbiter => fit_arbiter_model(cfg.n_masters.max(2), &tech).1,
    });
    print!("{}", report::validation_text(&validations));
    fs::write(
        "results/validation.csv",
        report::validation_csv(&validations),
    )
    .expect("write results/validation.csv");
    println!(
        "(characterization took {:.2?} on {jobs} jobs)",
        t0.elapsed()
    );
    println!("-> results/validation.csv\n");
}

fn styles(cycles: u64, seed: u64, jobs: usize) {
    println!("== Fig 1: power-model styles (accuracy) over {cycles} cycles ==");
    let results = compare_probe_styles_parallel(cycles, seed, jobs);
    let reference = results[0].1;
    let mut csv = String::from("style,total_uj,error_vs_inline_pct\n");
    for (style, e) in &results {
        let err = (e - reference) / reference * 100.0;
        println!("{style:<8} {:>10.3} uJ  ({err:+.2}% vs inline)", e * 1e6);
        csv.push_str(&format!("{style},{:.5},{err:.3}\n", e * 1e6));
    }
    fs::write("results/probe_styles.csv", csv).expect("write results/probe_styles.csv");
    println!("-> results/probe_styles.csv\n");
}

/// The overhead ladder, `(name, parent, budget_pct)` with each parent
/// before its children. `power` over `functional` is the paper's Sec 6
/// ratio (E6); `telemetry` carries the 35% budget of the CI gate,
/// `observatory` the retention store's 5% ceiling (E19), `record` the
/// activity recorder's 12% (E17); `txn`, the transaction tracer, is
/// measured without a budget.
const RUNGS: [(&str, Option<&str>, Option<f64>); 9] = [
    ("functional", None, None),
    ("power", Some("functional"), None),
    ("telemetry", Some("power"), Some(35.0)),
    ("anomaly", Some("telemetry"), None),
    ("events_off", Some("anomaly"), None),
    ("events", Some("anomaly"), None),
    ("observatory", Some("anomaly"), Some(5.0)),
    ("record", Some("power"), Some(12.0)),
    ("txn", Some("power"), None),
];

/// Round-robin repetitions of the whole ladder in `overhead`.
const OVERHEAD_REPS: usize = 25;

fn rung_index(name: &str) -> usize {
    RUNGS
        .iter()
        .position(|r| r.0 == name)
        .expect("every parent names a rung")
}

/// Median of a non-empty sample, sorting in place.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timing ratios are finite"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// One timed pass of one rung: seconds, the booked total (`None` for
/// `functional`) and the encoded trace size (`None` unless it records).
type RungPass = (f64, Option<f64>, Option<usize>);

/// Builds `rung`'s session and a fresh paper-testbench bus, then times
/// `cycles` cycles. The ring and observatory rungs carry the anomaly
/// detector, as every deployment of them does: without it the event tap
/// keeps its own per-cycle window accounting, which no real
/// configuration does.
fn time_rung(rung: &str, cycles: u64, seed: u64) -> RungPass {
    use ahbpower::telemetry::{AnomalyConfig, EventBus, ObservatoryConfig, DEFAULT_EVENT_CAPACITY};
    let acfg = AnalysisConfig::paper_testbench();
    let telemetry = || TelemetryConfig::enabled(PaperTestbench::LABEL).with_seed(seed);
    let anomaly = || telemetry().with_anomaly(AnomalyConfig::default().with_warmup_windows(4));
    let session = match rung {
        "functional" => None,
        "power" => Some(PowerSession::new(&acfg)),
        "telemetry" => Some(PowerSession::with_telemetry(&acfg, telemetry())),
        "anomaly" => Some(PowerSession::with_telemetry(&acfg, anomaly())),
        "events_off" | "events" => {
            let ring = EventBus::shared(DEFAULT_EVENT_CAPACITY);
            ring.set_enabled(rung == "events");
            Some(PowerSession::with_telemetry(
                &acfg,
                anomaly().with_events(ring),
            ))
        }
        "observatory" => {
            let tcfg = anomaly().with_observatory(ObservatoryConfig::default());
            Some(PowerSession::with_telemetry(&acfg, tcfg))
        }
        "record" => Some(PowerSession::with_recorder(&acfg)),
        "txn" => Some(PowerSession::with_txn_tracer(
            &acfg,
            ahbpower::TxnTracerConfig::enabled(ahbpower::DEFAULT_RING_CAPACITY),
        )),
        other => unreachable!("no rung named {other}"),
    };
    let mut bus = build_paper_bus(cycles, seed);
    let t0 = Instant::now();
    let Some(mut s) = session else {
        bus.run(cycles);
        return (t0.elapsed().as_secs_f64(), None, None);
    };
    s.begin_slice(0);
    s.run(&mut bus, cycles);
    s.end_slice();
    let secs = t0.elapsed().as_secs_f64();
    let trace_bytes = s.finish_recorder().map(|t| t.to_bytes().len());
    (secs, Some(s.total_energy()), trace_bytes)
}

/// One rung's result over all reps: its fastest pass (the noise-robust
/// estimator for a deterministic run) and the median per-round ratio
/// over its parent. The rungs of one round run back to back, so a slow
/// stretch of machine time cancels in the ratio instead of biasing
/// whichever minimum landed in a quiet window.
struct RungRow {
    name: &'static str,
    parent: Option<&'static str>,
    budget_pct: Option<f64>,
    ns_per_cycle: f64,
    ratio: Option<f64>,
    overhead_pct: Option<f64>,
    energy_j: Option<f64>,
    trace_bytes_per_cycle: Option<f64>,
}

/// Reduces `rounds[rep][rung]` (rungs in [`RUNGS`] order) to one row
/// per rung.
fn ladder_rows(cycles: u64, rounds: &[Vec<RungPass>]) -> Vec<RungRow> {
    let secs = |i: usize| rounds.iter().map(move |r| r[i].0);
    let mut rows = Vec::new();
    for (i, &(name, parent, budget_pct)) in RUNGS.iter().enumerate() {
        let ratio = parent.map(|p| {
            let ratios = secs(i).zip(secs(rung_index(p))).map(|(a, b)| a / b);
            median(&mut ratios.collect::<Vec<_>>())
        });
        let (_, energy_j, trace_bytes) = rounds[0][i];
        rows.push(RungRow {
            name,
            parent,
            budget_pct,
            ns_per_cycle: secs(i).fold(f64::INFINITY, f64::min) * 1e9 / cycles as f64,
            ratio,
            overhead_pct: ratio.map(|r| (r - 1.0) * 100.0),
            energy_j,
            trace_bytes_per_cycle: trace_bytes.map(|b| b as f64 / cycles as f64),
        });
    }
    rows
}

/// Why `overhead` must exit 1: a rung that books other energy than
/// `power` (every tap is an observer), or a rung over its budget.
fn ladder_failures(rows: &[RungRow]) -> Vec<String> {
    let power = rows[rung_index("power")].energy_j;
    let mut failures = Vec::new();
    for r in rows {
        if let (Some(e), Some(p)) = (r.energy_j, power) {
            if e.to_bits() != p.to_bits() {
                failures.push(format!("{} booked {e:.17e} J, power {p:.17e} J", r.name));
            }
        }
        if let (Some(budget), Some(pct)) = (r.budget_pct, r.overhead_pct) {
            if pct.is_nan() || pct > budget {
                failures.push(format!("{} costs {pct:+.1}% (budget {budget}%)", r.name));
            }
        }
    }
    failures
}

/// `BENCH_overhead.json`: one object per rung, `null` where a field does
/// not apply to it.
fn ladder_json(cycles: u64, seed: u64, cores: usize, rows: &[RungRow]) -> String {
    use ahbpower::telemetry::json_num;
    let num = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json_num);
    let rungs: Vec<String> = rows.iter().map(|r| {
        format!(
            "    {{\"name\": \"{}\", \"parent\": {}, \"budget_pct\": {}, \"ns_per_cycle\": {}, \"ratio\": {}, \"overhead_pct\": {}, \"energy_j\": {}, \"trace_bytes_per_cycle\": {}}}",
            r.name,
            r.parent.map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
            num(r.budget_pct),
            json_num(r.ns_per_cycle),
            num(r.ratio),
            num(r.overhead_pct),
            num(r.energy_j),
            num(r.trace_bytes_per_cycle),
        )
    }).collect();
    format!(
        "{{\n  \"cycles\": {cycles},\n  \"seed\": {seed},\n  \"reps\": {OVERHEAD_REPS},\n  \"host\": {{\"cores\": {cores}}},\n  \"rungs\": [\n{}\n  ]\n}}\n",
        rungs.join(",\n")
    )
}

/// `repro overhead`: what each layer of the power-analysis stack costs
/// (paper Sec 6). Times every [`RUNGS`] session [`OVERHEAD_REPS`] times
/// round-robin, prints the ladder and writes `BENCH_overhead.json`;
/// exits 1 when a rung's energy differs from `power`'s or a budget is
/// blown.
fn overhead(cycles: u64, seed: u64) {
    println!("== Overhead ladder over {cycles} cycles, seed {seed} ({OVERHEAD_REPS} reps; ns/cycle = min, ratio = median per-round vs parent) ==");
    let rounds: Vec<Vec<RungPass>> = (0..OVERHEAD_REPS)
        .map(|_| RUNGS.iter().map(|r| time_rung(r.0, cycles, seed)).collect())
        .collect();
    let rows = ladder_rows(cycles, &rounds);
    let dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    println!("rung         parent       ns/cycle    ratio  overhead  budget");
    for r in &rows {
        println!(
            "{:<12} {:<12} {:>8.2} {:>8} {:>9} {:>7}{}",
            r.name,
            r.parent.unwrap_or("-"),
            r.ns_per_cycle,
            dash(r.ratio.map(|x| format!("{x:.3}x"))),
            dash(r.overhead_pct.map(|p| format!("{p:+.1}%"))),
            dash(r.budget_pct.map(|b| format!("{b}%"))),
            r.trace_bytes_per_cycle
                .map_or_else(String::new, |b| format!("  trace {b:.2} B/cycle")),
        );
    }
    let json = ladder_json(cycles, seed, available_jobs(), &rows);
    if let Err(e) = validate_json(&json) {
        eprintln!("overhead: BENCH_overhead.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    fs::write("BENCH_overhead.json", json).expect("write BENCH_overhead.json");
    let failures = ladder_failures(&rows);
    for f in &failures {
        println!("overhead: {f}");
    }
    if !failures.is_empty() {
        println!("verdict: FAILED\n-> BENCH_overhead.json\n");
        std::process::exit(1);
    }
    println!("verdict: ok (every budget met, every rung books power's energy bit for bit)\n-> BENCH_overhead.json\n");
}

/// The standard seed×style sweep: prints the merged report and writes
/// `results/sweep.csv` (byte-identical for any `--jobs` value).
fn sweep(cycles: u64, seed: u64, jobs: usize) {
    let points = sweep_grid(cycles, seed, SWEEP_SEEDS);
    println!(
        "== Sweep: {SWEEP_SEEDS} seeds x {} styles, {cycles} cycles each, {jobs} jobs ==",
        points.len() / SWEEP_SEEDS
    );
    let outcomes = run_sweep(&points, jobs);
    print!("{}", sweep_report(&outcomes));
    fs::write("results/sweep.csv", sweep_csv(&outcomes)).expect("write results/sweep.csv");
    println!("-> results/sweep.csv\n");
}

/// `repro record`: runs the paper testbench once with the activity
/// recorder attached and writes the compact trace to `--out` (default
/// `results/replay_trace.bin`). Self-checks the round trip: the written
/// file is re-read and a same-model replay must reproduce the live
/// ledger total bit for bit, else the process exits 1.
fn record_cmd(cycles: u64, seed: u64, out: Option<&str>) {
    use ahbpower::{ActivityTrace, ReplayEngine};
    let path = out.unwrap_or("results/replay_trace.bin");
    println!("== Record: activity trace over {cycles} cycles ==");
    let (run, trace) = run_paper_experiment_recorded(cycles, seed);
    let bytes = trace.to_bytes();
    fs::write(path, &bytes).expect("write activity trace");
    println!(
        "recorded {} cycles, {} bytes ({:.2} B/cycle)",
        trace.cycles(),
        bytes.len(),
        bytes.len() as f64 / cycles as f64
    );
    let reread = fs::read(path).expect("re-read activity trace");
    let trace = match ActivityTrace::from_bytes(&reread) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("record: written trace failed to re-parse: {e}");
            std::process::exit(1);
        }
    };
    let engine = ReplayEngine::new(&replay_variant_model(&run.config, 0));
    let outcome = engine.replay(&trace);
    let live = run.session.total_energy();
    if outcome.total_energy().to_bits() == live.to_bits() {
        println!(
            "golden check: replay reproduces the live ledger bit for bit ({:.6e} J)",
            live
        );
    } else {
        eprintln!(
            "record: GOLDEN CHECK FAILED: replay {:.17e} J != live {:.17e} J",
            outcome.total_energy(),
            live
        );
        std::process::exit(1);
    }
    println!("-> {path}\n");
}

/// `repro replay`: loads a recorded trace and re-estimates energy for
/// `--variants` coefficient variants (variant 0 is the unmodified
/// model) across `--jobs` threads, writing one JSON line per variant to
/// `--out` (default `results/replay.jsonl`). The identity variant must
/// reproduce the trace's stamped live total within 1e-9 J, else exit 1;
/// `--inject block:factor` perturbs the identity model and
/// `--expect-mismatch` inverts the verdict — the negative self-test
/// proving the golden check actually trips.
fn replay_cmd(
    file: &str,
    variants: usize,
    jobs: usize,
    out: &str,
    inject: Option<&str>,
    expect_mismatch: bool,
) {
    use ahbpower::{ActivityTrace, AhbPowerModel};
    use ahbpower_bench::Injection;
    let bytes = match fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("replay: cannot read {file}: {e} (run `repro record` first)");
            std::process::exit(1);
        }
    };
    let trace = match ActivityTrace::from_bytes(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: {file} is not a valid activity trace: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "== Replay: {} recorded cycles x {variants} variants, {jobs} jobs ==",
        trace.cycles()
    );
    let cfg = AnalysisConfig::paper_testbench();
    let mut models: Vec<AhbPowerModel> = (0..variants)
        .map(|k| replay_variant_model(&cfg, k))
        .collect();
    if let Some(spec) = inject {
        let inj = Injection::parse(spec)
            .unwrap_or_else(|| usage(&format!("bad --inject {spec} (block:factor)")));
        models[0].scale_block(inj.block, inj.factor);
        println!(
            "(injected {:?} x{} into the identity variant)",
            inj.block, inj.factor
        );
    }
    let outcomes = replay_sweep(&trace, &models, jobs);
    let mut jsonl = String::new();
    for (k, o) in outcomes.iter().enumerate() {
        let (block, factor) = match replay_variant_spec(k) {
            Some((b, f)) => (b.name(), f),
            None => ("none", 1.0),
        };
        let b = o.blocks().totals();
        println!(
            "variant {k:>2} ({block:<4} x{factor:<4}): {:>12.6e} J",
            o.total_energy()
        );
        jsonl.push_str(&format!(
            "{{\"variant\":{k},\"block\":\"{block}\",\"factor\":{factor},\"total_j\":{:e},\"energy_bits\":{},\"dec_j\":{:e},\"m2s_j\":{:e},\"s2m_j\":{:e},\"arb_j\":{:e},\"cycles\":{}}}\n",
            o.total_energy(),
            o.total_energy().to_bits(),
            b.dec,
            b.m2s,
            b.s2m,
            b.arb,
            o.cycles()
        ));
    }
    for (i, line) in jsonl.lines().enumerate() {
        validate_json(line)
            .unwrap_or_else(|e| panic!("replay.jsonl line {}: invalid JSON: {e}", i + 1));
    }
    fs::write(out, &jsonl).expect("write replay results");
    println!("-> {out}");
    let golden = outcomes[0].total_energy();
    let drift = (golden - trace.live_total_j).abs();
    let ok = drift <= 1e-9;
    match (ok, expect_mismatch) {
        (true, false) => {
            println!(
                "golden check: identity replay matches the recorded run (drift {drift:.3e} J)\n"
            );
        }
        (false, true) => {
            println!("golden check: mismatch detected as expected (drift {drift:.3e} J)\n");
        }
        (true, true) => {
            eprintln!("replay: expected a golden mismatch but the identity replay matched");
            std::process::exit(1);
        }
        (false, false) => {
            eprintln!(
                "replay: GOLDEN CHECK FAILED: identity replay {golden:.17e} J vs recorded {:.17e} J (drift {drift:.3e} J)",
                trace.live_total_j
            );
            std::process::exit(1);
        }
    }
}

/// Dynamic power management study: clock-gating the arbiter FSM after N
/// quiet cycles (the paper's run-time optimization outlook). Each threshold
/// replays the same seed-deterministic traffic on its own thread.
fn dpm(cycles: u64, seed: u64, jobs: usize) {
    use ahbpower::{ClockGatePolicy, DpmProbe};
    println!("== DPM study: arbiter clock gating over {cycles} cycles ==");
    let cfg = AnalysisConfig::paper_testbench();
    let model = ahbpower::AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
    let thresholds = [0u32, 2, 4, 8, 16];
    struct DpmRow {
        threshold: u32,
        gated_pct: f64,
        savings_pct: f64,
        wakes: u64,
        latency: u64,
    }
    let rows: Vec<DpmRow> = SweepRunner::new(jobs).run(&thresholds, |_, &t| {
        let mut bus = build_paper_bus(cycles, seed);
        let mut probe = DpmProbe::new(
            model.clone(),
            ClockGatePolicy {
                idle_threshold: t,
                wake_penalty: 1,
            },
        );
        for _ in 0..cycles {
            probe.observe(bus.step());
        }
        let r = probe.report();
        DpmRow {
            threshold: t,
            gated_pct: r.gated_cycles as f64 / r.cycles as f64 * 100.0,
            savings_pct: r.savings() * 100.0,
            wakes: r.wake_events,
            latency: r.added_latency_cycles,
        }
    });
    let mut csv = String::from("idle_threshold,gated_pct,clock_savings_pct,wakes,latency_cycles\n");
    for r in &rows {
        println!(
            "threshold {:>2}: gated {:>5.1}% of cycles, clock energy -{:>5.1}%, {:>6} wakes, +{} latency cycles",
            r.threshold, r.gated_pct, r.savings_pct, r.wakes, r.latency
        );
        csv.push_str(&format!(
            "{},{:.2},{:.2},{},{}\n",
            r.threshold, r.gated_pct, r.savings_pct, r.wakes, r.latency
        ));
    }
    fs::write("results/dpm.csv", csv).expect("write results/dpm.csv");
    println!("-> results/dpm.csv\n");
}

/// Address-bus coding study: replay a burst-heavy trace with binary vs
/// gray-coded addresses and compare the address-path energy — the kind of
/// early design decision the paper's methodology is built to evaluate.
/// The trace recordings and the four workload×coding replays parallelize.
fn coding(cycles: u64, seed: u64, jobs: usize) {
    use ahbpower::{InlineProbe, PowerProbe};
    use ahbpower_workloads::SocScenario;
    println!("== Address-coding study (binary vs gray) ==");
    // Two traffics: a DMA engine streaming sequential bursts (where coding
    // matters) and the interleaved SoC mix (where it should not).
    let dma_bus = || {
        ahbpower_ahb::AhbBusBuilder::new(ahbpower_ahb::AddressMap::evenly_spaced(2, 0x8000))
            .master(Box::new(ahbpower_ahb::ScriptedMaster::new(
                ahbpower_workloads::try_dma_script(
                    seed,
                    400,
                    0x0,
                    0x8000,
                    ahbpower_ahb::HBurst::Incr8,
                )
                .expect("dma script params valid"),
            )))
            .slave(Box::new(ahbpower_ahb::MemorySlave::new(0x8000, 0, 0)))
            .slave(Box::new(ahbpower_ahb::MemorySlave::new(0x8000, 0, 0)))
            .build()
            .expect("dma bus builds")
    };
    let soc_bus = || {
        SocScenario {
            seed,
            ..SocScenario::default()
        }
        .build()
        .expect("scenario builds")
    };
    let record = |mut bus: ahbpower_ahb::AhbBus| {
        let mut trace = Vec::new();
        let mut n = 0;
        while n < cycles && !bus.all_masters_done() {
            trace.push(*bus.step());
            n += 1;
        }
        trace
    };
    let workloads = ["dma-sequential", "soc-mixed"];
    let runner = SweepRunner::new(jobs);
    let recorded = runner.run(&[0usize, 1], |_, &w| match w {
        0 => record(dma_bus()),
        _ => record(soc_bus()),
    });
    let cfg = AnalysisConfig {
        n_masters: ahbpower_workloads::SocScenario::N_MASTERS,
        n_slaves: ahbpower_workloads::SocScenario::N_SLAVES,
        ..AnalysisConfig::paper_testbench()
    };
    let model = ahbpower::AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
    // Gray-code the *word* address: word-sequential traffic then moves a
    // single address line per beat (the byte offset stays binary).
    let gray = |x: u32| {
        let w = x >> 2;
        ((w ^ (w >> 1)) << 2) | (x & 3)
    };
    // Binary precedes gray within each workload; dec deltas rely on that.
    let combos = [(0usize, "binary"), (0, "gray"), (1, "binary"), (1, "gray")];
    let replayed = runner.run(&combos, |_, &(w, name)| {
        let mut probe = InlineProbe::new(model.clone());
        for snap in &recorded[w] {
            let mut s = *snap;
            if name == "gray" {
                s.haddr = gray(s.haddr);
            }
            probe.observe(&s);
        }
        let b = probe.fsm().blocks().totals();
        (probe.total_energy(), b.dec, b.m2s)
    });
    let mut csv = String::from("workload,coding,total_uj,dec_uj,m2s_uj\n");
    for (&(w, name), &(total, dec, m2s)) in combos.iter().zip(&replayed) {
        let workload = workloads[w];
        let dec_binary = replayed[w * 2].1;
        let delta = if name == "gray" && dec_binary > 0.0 {
            format!(" (addr-path {:+.1}%)", (dec / dec_binary - 1.0) * 100.0)
        } else {
            String::new()
        };
        println!(
            "{workload:<16} {name:<8} total {:>9.3} uJ | DEC {:>7.4} uJ | M2S {:>8.3} uJ{delta}",
            total * 1e6,
            dec * 1e6,
            m2s * 1e6
        );
        csv.push_str(&format!(
            "{workload},{name},{:.5},{:.5},{:.5}\n",
            total * 1e6,
            dec * 1e6,
            m2s * 1e6
        ));
    }
    fs::write("results/coding.csv", csv).expect("write results/coding.csv");
    println!(
        "(Gray coding pays on sequential traffic and is a wash on mixed\n\
         traffic — quantified before any RTL exists.)"
    );
    println!("-> results/coding.csv\n");
}

/// Both arbitration variants run as independent sweep points.
fn ablation(cycles: u64, seed: u64, jobs: usize) {
    println!("== Ablations: arbitration policy and idle mix ==");
    let cfg = AnalysisConfig::paper_testbench();
    let variants = [
        ("fixed-priority", ahbpower_ahb::Arbitration::FixedPriority),
        ("round-robin", ahbpower_ahb::Arbitration::RoundRobin),
    ];
    let rows = SweepRunner::new(jobs).run(&variants, |_, &(name, arbitration)| {
        let tb = PaperTestbench {
            arbitration,
            ..PaperTestbench::sized_for(cycles, seed)
        };
        let mut bus = tb.build().expect("testbench builds");
        let mut session = PowerSession::new(&cfg);
        session.run(&mut bus, cycles);
        let total = session.total_energy();
        let handover_energy: f64 = session
            .ledger()
            .rows()
            .iter()
            .filter(|r| {
                r.instruction.from == ahbpower::ActivityMode::IdleHo
                    || r.instruction.to == ahbpower::ActivityMode::IdleHo
            })
            .map(|r| r.total)
            .sum();
        let m2s_share = session.blocks().shares()[0].2;
        (
            name,
            total,
            handover_energy / total * 100.0,
            m2s_share * 100.0,
        )
    });
    let mut csv = String::from("variant,total_uj,handover_share_pct,m2s_share_pct\n");
    for (name, total, handover_pct, m2s_pct) in rows {
        println!(
            "{name:<16} total {:>9.2} uJ | handover-instr share {:>5.2}% | M2S share {:>5.2}%",
            total * 1e6,
            handover_pct,
            m2s_pct
        );
        csv.push_str(&format!(
            "{name},{:.4},{:.3},{:.3}\n",
            total * 1e6,
            handover_pct,
            m2s_pct
        ));
    }
    fs::write("results/ablation.csv", csv).expect("write results/ablation.csv");
    println!("-> results/ablation.csv\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_bench::{parse_json, JsonValue};

    #[test]
    fn every_parent_comes_first_and_every_budget_has_a_parent() {
        for (i, &(name, parent, budget)) in RUNGS.iter().enumerate() {
            assert!(parent.is_none_or(|p| rung_index(p) < i), "{name}'s parent");
            assert!(budget.is_none() || parent.is_some(), "{name} has no parent");
        }
    }

    #[test]
    fn rendered_ladder_validates_and_gates_energy_and_budgets() {
        // Rung i takes 1 + i/100 s, books 1 J and records 400 bytes.
        let pass = |i: usize| (1.0 + i as f64 / 100.0, (i > 0).then_some(1.0), Some(400));
        let mut rounds: Vec<Vec<RungPass>> = vec![(0..RUNGS.len()).map(pass).collect(); 3];
        let rows = ladder_rows(200, &rounds);
        assert!(ladder_failures(&rows).is_empty());
        let doc = parse_json(&ladder_json(200, 2003, 2, &rows)).expect("valid JSON");
        let rungs = doc
            .get("rungs")
            .and_then(JsonValue::as_array)
            .expect("rungs");
        assert_eq!(rungs.len(), RUNGS.len());
        for (r, &(_, parent, _)) in rungs.iter().zip(&RUNGS) {
            let ratio = r.get("ratio").and_then(JsonValue::as_f64);
            assert_eq!(ratio.is_some_and(f64::is_finite), parent.is_some());
        }
        // One ulp of energy drift in one tap fails the ladder; so does
        // telemetry at twice power's time.
        rounds[0][rung_index("record")].1 = Some(1.0f64.next_up());
        for round in &mut rounds {
            round[rung_index("telemetry")].0 = 2.0 * round[rung_index("power")].0;
        }
        assert_eq!(ladder_failures(&ladder_rows(200, &rounds)).len(), 2);
    }
}
