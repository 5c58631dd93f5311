//! `paper-explore`: the paper's own experiment plus estimate-many.
//!
//! Each exploration runs three phases over the paper testbench
//! (`PaperTestbench::sized_for`):
//! 1. a plain `PowerSession::new` run (Table 1 / Fig 6 fast loop);
//! 2. the same traffic under `PowerSession::with_recorder`, then
//!    `to_bytes`;
//! 3. `from_bytes`, then the 16-variant `replay_variant_model` grid
//!    through `replay_sweep`, one variant at a time.
//!
//! Each variant's replay answers one what-if query, and that query is
//! the operation `req_per_s` and the latencies count; the simulation
//! and recording it amortises are inside the rate, not the latency.
//! Every exploration uses the run's seed, so every exploration must
//! produce the same digest. The encoded trace is ~2.4 MB and the decoded
//! one replay streams ~4.8 MB, both larger than a 2 MiB L2.
//!
//! The sweep runs on one job. On a small shared host a second job
//! measures the neighbours more than the replay engine, and the
//! two-job speed-up is not a claim this benchmark can support.

use std::time::Instant;

use ahbpower::{
    ActivityTrace, AhbPowerModel, AnalysisConfig, PowerSession, ReplayEngine, ReplayOutcome,
};
use ahbpower_ahb::BusStats;
use ahbpower_bench::{build_paper_bus, replay_sweep, replay_variant_model};

use crate::spans::{finish_trace, median_ns_per_unit, SpanLog};
use crate::stats::{describe_outputs, median, rank_quantile, windowed_p99, Digest};
use crate::traced::{
    TracedSession, BUS_STEP, FSM_OBSERVE, REPLAY_RECORD, SESSION_SELF, TELEMETRY_OBSERVE,
    TRACE_PUSH,
};
use crate::{json_string, LiveCounts, Outcome, RunConfig};

/// Simulated cycles per phase: the encoded trace (~4 B/cycle) outgrows
/// a 2 MiB L2.
pub const CYCLES: u64 = 600_000;
/// Model variants each replay evaluates (variant 0 is the live model).
pub const VARIANTS: usize = 16;

const BUILD: &str = "workloads.build_s";
const ENCODE: &str = "core.replay.encode_ns";
const DECODE: &str = "core.replay.decode_ns";
const LUT_BUILD: &str = "core.replay.lut_build_us";
const REPLAY: &str = "core.replay.replay_ns";

/// Replay jobs; see the module docs.
const REPLAY_JOBS: usize = 1;

/// Timings of one untraced exploration.
struct Explore {
    build_s: [f64; 2],
    sim_s: f64,
    record_s: f64,
    /// Decode plus every variant's replay.
    replay_s: f64,
    /// Each variant's replay, microseconds.
    query_us: Vec<f64>,
    total_s: f64,
    trace_bytes: usize,
    digest: Digest,
}

/// What both the traced and untraced paths hand to [`digest`].
struct Outputs<'a> {
    plain: (f64, &'a ahbpower::InstructionLedger, &'a BusStats),
    recorded_j: f64,
    bytes: &'a [u8],
    variants: &'a [f64],
}

/// The simulated outputs: energy bits, Table 1, `BusStats`, the trace
/// header (which carries the payload checksum) and every variant total.
fn digest(o: &Outputs) -> Digest {
    let mut d = Digest::default();
    d.f64(o.plain.0);
    d.ledger(o.plain.1);
    d.bus_stats(o.plain.2);
    d.f64(o.recorded_j);
    d.u64(o.bytes.len() as u64);
    d.bytes(&o.bytes[..o.bytes.len().min(128)]);
    for &v in o.variants {
        d.f64(v);
    }
    d
}

/// The output checks every exploration makes.
fn check_outputs(o: &Outputs, decoded: &ActivityTrace, out: &mut Outcome) {
    let live = o.plain.0;
    out.check(live.to_bits() == o.recorded_j.to_bits(), || {
        format!("recorded total {} != plain total {live}", o.recorded_j)
    });
    out.check(
        o.variants[0].to_bits() == decoded.live_total_j.to_bits(),
        || {
            format!(
                "replay variant 0 {} != live_total_j {}",
                o.variants[0], decoded.live_total_j
            )
        },
    );
    out.check(
        o.variants[1..]
            .iter()
            .all(|v| v.to_bits() != live.to_bits()),
        || "a replay variant 1-15 equals the live total".to_string(),
    );
}

fn decode(bytes: &[u8], out: &mut Outcome) -> Option<ActivityTrace> {
    let decoded = ActivityTrace::from_bytes(bytes);
    out.check(decoded.is_ok(), || {
        format!("trace decode failed: {decoded:?}")
    });
    decoded.ok()
}

fn explore(
    cfg: &RunConfig,
    models: &[AhbPowerModel],
    describe: bool,
    out: &mut Outcome,
) -> Option<Explore> {
    let acfg = AnalysisConfig::paper_testbench();
    let start = Instant::now();

    let mut bus = build_paper_bus(CYCLES, cfg.seed);
    let build_a = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut plain = PowerSession::new(&acfg);
    plain.run(&mut bus, CYCLES);
    let sim_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut bus2 = build_paper_bus(CYCLES, cfg.seed);
    let build_b = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rec = PowerSession::with_recorder(&acfg);
    rec.run(&mut bus2, CYCLES);
    let trace = rec.finish_recorder().expect("recorder attached");
    let bytes = trace.to_bytes();
    let record_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let decoded = decode(&bytes, out)?;
    let mut variants = Vec::with_capacity(models.len());
    let mut query_us = Vec::with_capacity(models.len());
    for model in models {
        let q = Instant::now();
        let o = replay_sweep(&decoded, std::slice::from_ref(model), REPLAY_JOBS);
        query_us.push(q.elapsed().as_secs_f64() * 1e6);
        variants.push(o[0].total_energy());
    }
    let replay_s = t.elapsed().as_secs_f64();
    let total_s = start.elapsed().as_secs_f64();

    let o = Outputs {
        plain: (plain.total_energy(), plain.ledger(), bus.stats()),
        recorded_j: rec.total_energy(),
        bytes: &bytes,
        variants: &variants,
    };
    check_outputs(&o, &decoded, out);
    if describe {
        out.lines
            .push(format!("  plain total_energy_j={:e}", o.plain.0));
        out.lines
            .extend(describe_outputs(plain.ledger(), bus.stats()));
    }
    Some(Explore {
        build_s: [build_a, build_b],
        sim_s,
        record_s,
        replay_s,
        query_us,
        total_s,
        trace_bytes: bytes.len(),
        digest: digest(&o),
    })
}

/// One traced exploration: its span log, digest and bus statistics.
fn explore_traced(
    cfg: &RunConfig,
    models: &[AhbPowerModel],
    origin: Instant,
    out: &mut Outcome,
) -> Option<(SpanLog, Digest, BusStats)> {
    let acfg = AnalysisConfig::paper_testbench();
    let mut main = SpanLog::start("main", origin);
    let mut bus = main.time(BUILD, 1, || build_paper_bus(CYCLES, cfg.seed));
    let mut plain = TracedSession::new(&acfg);
    plain.run(&mut main, &mut bus, CYCLES);

    let mut bus2 = main.time(BUILD, 1, || build_paper_bus(CYCLES, cfg.seed));
    let mut rec = TracedSession::with_recorder(&acfg);
    rec.run(&mut main, &mut bus2, CYCLES);
    let trace = rec.finish_recorder().expect("recorder attached");
    let bytes = main.time(ENCODE, CYCLES, || trace.to_bytes());
    let decoded = main.time(DECODE, CYCLES, || decode(&bytes, out))?;
    let mut variants = Vec::with_capacity(models.len());
    for model in models {
        let engine = main.time(LUT_BUILD, 1, || ReplayEngine::new(model));
        let mut o = ReplayOutcome::new();
        main.time(REPLAY, CYCLES, || engine.replay_into(&decoded, &mut o));
        variants.push(o.total_energy());
    }
    main.finish();

    let o = Outputs {
        plain: (plain.total_energy(), plain.ledger(), bus.stats()),
        recorded_j: rec.total_energy(),
        bytes: &bytes,
        variants: &variants,
    };
    check_outputs(&o, &decoded, out);
    Some((main, digest(&o), bus.stats().clone()))
}

pub fn run(cfg: &RunConfig, trace: bool) -> Result<Outcome, String> {
    let acfg = AnalysisConfig::paper_testbench();
    let models: Vec<AhbPowerModel> = (0..VARIANTS)
        .map(|k| replay_variant_model(&acfg, k))
        .collect();
    let mut out = Outcome::default();
    // Warm-up: fills caches and the allocator, and fixes the digest every
    // later exploration must reproduce.
    let warm = explore(cfg, &models, true, &mut out).ok_or("warm-up exploration failed")?;
    out.lines.push(format!("  digest {}", warm.digest.hex()));
    out.meta("digest", json_string(&warm.digest.hex()));
    out.meta("cycles_per_phase", CYCLES);
    out.meta("variants", VARIANTS);
    out.meta("replay_jobs", REPLAY_JOBS);
    let mut builds = warm.build_s.to_vec();
    if trace {
        run_traced(cfg, &models, &warm, &mut builds, &mut out)?;
    } else {
        run_untraced(cfg, &models, &warm, &mut builds, &mut out)?;
    }
    Ok(out)
}

fn run_untraced(
    cfg: &RunConfig,
    models: &[AhbPowerModel],
    warm: &Explore,
    builds: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut runs: Vec<Explore> = Vec::new();
    let start = Instant::now();
    while runs.len() < 3 || start.elapsed() < cfg.run {
        if let Some(e) = explore(cfg, models, false, out) {
            out.same_digest(warm.digest, e.digest, "exploration");
            builds.extend(e.build_s);
            runs.push(e);
        }
        if runs.is_empty() && start.elapsed() > cfg.run {
            return Err("no exploration completed".to_string());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cycles = CYCLES as f64;
    let per_s = |work: f64, f: fn(&Explore) -> f64| {
        median(&runs.iter().map(|e| work / f(e) / 1e6).collect::<Vec<_>>())
    };
    let lat_us: Vec<f64> = runs
        .iter()
        .flat_map(|e| e.query_us.iter().copied())
        .collect();
    out.set("setup_s", median(builds));
    out.set("sim_mcycles_per_s", per_s(cycles, |e| e.sim_s));
    out.set("record_mcycles_per_s", per_s(cycles, |e| e.record_s));
    out.set(
        "replay_mcycles_per_s",
        per_s(cycles * VARIANTS as f64, |e| e.replay_s),
    );
    out.set("trace_bytes_per_cycle", warm.trace_bytes as f64 / cycles);
    out.set("req_per_s", lat_us.len() as f64 / wall);
    out.set("latency_p50_us", rank_quantile(&lat_us, 0.5));
    out.set("latency_p99_us", windowed_p99(&lat_us));
    out.lines.push(format!(
        "  explorations={} (op = one variant's replay; each exploration simulates, records and answers {VARIANTS}); latency samples={} builds={}; whole-run p99 {:.1} us",
        runs.len(),
        lat_us.len(),
        builds.len(),
        rank_quantile(&lat_us, 0.99)
    ));
    out.meta("reps", runs.len());
    out.meta("latency_samples", lat_us.len());
    out.meta("run_s", wall);
    Ok(())
}

fn run_traced(
    cfg: &RunConfig,
    models: &[AhbPowerModel],
    warm: &Explore,
    builds: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut untraced_s = Vec::new();
    let mut passes: Vec<SpanLog> = Vec::new();
    let mut stats = BusStats::default();
    while passes.len() < 2 || origin.elapsed() < cfg.run {
        if let Some(e) = explore(cfg, models, false, out) {
            out.same_digest(warm.digest, e.digest, "untraced");
            untraced_s.push(e.total_s);
        }
        if let Some((log, d, s)) = explore_traced(cfg, models, origin, out) {
            out.same_digest(warm.digest, d, "traced");
            stats = s;
            passes.push(log);
        }
        if passes.is_empty() && origin.elapsed() > cfg.run {
            return Err("no traced exploration completed".to_string());
        }
    }
    for layer in [
        BUS_STEP,
        FSM_OBSERVE,
        TRACE_PUSH,
        REPLAY_RECORD,
        ENCODE,
        DECODE,
        REPLAY,
    ] {
        out.set(layer, median_ns_per_unit(&passes, layer));
    }
    out.set(LUT_BUILD, median_ns_per_unit(&passes, LUT_BUILD) / 1e3);
    builds.extend(
        passes
            .iter()
            .flat_map(|p| p.spans.iter().filter(|s| s.layer == BUILD))
            .map(|s| s.dur_ns as f64 / 1e9),
    );
    out.set(BUILD, median(builds));

    out.counts(&stats, &LiveCounts::default());
    out.absent(&[
        TELEMETRY_OBSERVE,
        SESSION_SELF,
        "core.telemetry.events.drain_ns",
        "workloads.build_ms",
    ]);
    out.absent_http();
    out.meta("reps", passes.len());
    let traced_s: Vec<f64> = passes.iter().map(SpanLog::wall_s).collect();
    let ratio = median(&traced_s) / median(&untraced_s);
    finish_trace(out, "paper-explore", cfg.seed, &passes, ratio)
}
