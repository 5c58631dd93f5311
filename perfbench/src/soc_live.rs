//! `soc-live`: `SocScenario` slices through the serve worker's loop,
//! without HTTP.
//!
//! One persistent session carries the whole tap stack (telemetry,
//! anomaly detection, the observatory and the event ring), as in
//! `repro serve --mix soc`. Each slice gets a fresh bus at `seed + i`,
//! and the ring is drained after every slice. One operation is one
//! slice: bus build, simulation, drain.
//!
//! The session lives for an epoch of [`EPOCH_SLICES`] slices; then the
//! worker restarts: a fresh session plus the start-up probe (see
//! [`crate::probe`]), which is this workload's set-up. Memory therefore
//! does not grow with the run's length, and every epoch replays the same
//! inputs, which must give the same digest. The ring lives as long as
//! the worker.

use std::sync::Arc;
use std::time::Instant;

use ahbpower::telemetry::{EventBus, ObservatoryConfig, Telemetry, TelemetryConfig};
use ahbpower::{AnalysisConfig, InstructionLedger, PowerSession};
use ahbpower_ahb::{AhbBus, BusStats};
use ahbpower_bench::ServeConfig;
use ahbpower_workloads::{PaperTestbench, SocScenario};

use crate::probe::{probe_metrics, startup_probe, Probe};
use crate::spans::{finish_trace, median_ns_per_unit, SpanLog};
use crate::stats::{add_bus_stats, describe_outputs, median, rank_quantile, windowed_p99, Digest};
use crate::traced::{
    TracedSession, BUS_STEP, FSM_OBSERVE, REPLAY_RECORD, SESSION_SELF, TELEMETRY_OBSERVE,
    TRACE_PUSH,
};
use crate::{json_string, LiveCounts, Outcome, RunConfig};

/// Slices per session. 32 slices of 20k cycles are 640 observatory
/// windows, inside the raw level's 1024, so the observatory still holds
/// the whole session when the epoch ends.
pub const EPOCH_SLICES: u64 = 32;

const BUILD_MS: &str = "workloads.build_ms";
const DRAIN: &str = "core.telemetry.events.drain_ns";

/// The serve worker's settings for a SoC-only mix, and its event ring,
/// which outlives every session.
struct Worker {
    serve: ServeConfig,
    acfg: AnalysisConfig,
    events: Arc<EventBus>,
}

impl Worker {
    fn new(seed: u64) -> Self {
        let serve = ServeConfig {
            seed,
            ..ServeConfig::default()
        };
        let acfg = AnalysisConfig {
            n_masters: PaperTestbench::N_MASTERS.max(SocScenario::N_MASTERS),
            n_slaves: PaperTestbench::N_SLAVES.max(SocScenario::N_SLAVES),
            seed,
            ..AnalysisConfig::paper_testbench()
        };
        let events = EventBus::shared(serve.events_capacity);
        Worker {
            serve,
            acfg,
            events,
        }
    }

    fn telemetry(&self) -> TelemetryConfig {
        TelemetryConfig::enabled("serve_soc")
            .with_seed(self.serve.seed)
            .with_anomaly(self.serve.anomaly.clone())
            .with_observatory(ObservatoryConfig::default())
            .with_events(Arc::clone(&self.events))
    }

    fn session(&self) -> PowerSession {
        PowerSession::with_telemetry(&self.acfg, self.telemetry())
    }

    /// The serve worker's SoC slice bus, scaled to the slice length.
    fn slice_bus(&self, slice: u64) -> AhbBus {
        let scale = (self.serve.slice_cycles / 4_000).clamp(1, 10_000) as u32;
        let base = SocScenario::default();
        SocScenario {
            seed: self.serve.seed + slice,
            cpu_accesses: base.cpu_accesses * scale,
            dma_blocks: base.dma_blocks * scale,
            stream_frames: base.stream_frames * scale,
            ..base
        }
        .build()
        .expect("soc scenario is statically valid")
    }

    fn windows_per_slice(&self) -> u64 {
        self.serve.slice_cycles / self.serve.anomaly.window_cycles
    }
}

/// A session the slice loop can drive: the real `PowerSession` or its
/// traced twin.
trait Live {
    fn slice(&mut self, bus: &mut AhbBus, slice: u64, cycles: u64, log: Option<&mut SpanLog>);
    fn total_energy(&self) -> f64;
    fn ledger(&self) -> &InstructionLedger;
    fn telemetry(&self) -> &Telemetry;
}

impl Live for PowerSession {
    fn slice(&mut self, bus: &mut AhbBus, slice: u64, cycles: u64, _: Option<&mut SpanLog>) {
        self.begin_slice(slice);
        self.run(bus, cycles);
        self.end_slice();
    }
    fn total_energy(&self) -> f64 {
        PowerSession::total_energy(self)
    }
    fn ledger(&self) -> &InstructionLedger {
        PowerSession::ledger(self)
    }
    fn telemetry(&self) -> &Telemetry {
        PowerSession::telemetry(self).expect("telemetry enabled")
    }
}

impl Live for TracedSession {
    fn slice(&mut self, bus: &mut AhbBus, slice: u64, cycles: u64, log: Option<&mut SpanLog>) {
        self.begin_slice(slice);
        self.run(log.expect("a traced session needs a span log"), bus, cycles);
        self.end_slice();
    }
    fn total_energy(&self) -> f64 {
        TracedSession::total_energy(self)
    }
    fn ledger(&self) -> &InstructionLedger {
        TracedSession::ledger(self)
    }
    fn telemetry(&self) -> &Telemetry {
        TracedSession::telemetry(self).expect("telemetry enabled")
    }
}

/// One epoch's measurements.
struct Epoch {
    /// Per slice: wall time of the whole operation, microseconds.
    op_us: Vec<f64>,
    /// Per slice: simulated Mcycles per host second of `begin..end_slice`.
    sim_mcps: Vec<f64>,
    digest: Digest,
    bus: BusStats,
    counts: LiveCounts,
}

/// Drains the ring from `cursor`, returning the events lost to
/// wraparound.
fn drain(events: &EventBus, cursor: &mut u64) -> u64 {
    let mut lost = 0;
    loop {
        let batch = events.read_since(*cursor, 4096);
        *cursor = batch.next;
        lost += batch.dropped;
        if batch.events.is_empty() {
            return lost;
        }
    }
}

fn observatory_energy(t: &Telemetry, from: u64, to: u64) -> f64 {
    t.observatory()
        .and_then(|o| o.query("energy", from, to, 1))
        .map_or(0.0, |q| q.points.iter().map(|p| p.sum).sum())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(f64::MIN_POSITIVE)
}

/// Runs one epoch of slices on `session`, checking every slice.
fn epoch<S: Live>(
    w: &Worker,
    session: &mut S,
    mut log: Option<&mut SpanLog>,
    out: &mut Outcome,
) -> Epoch {
    let events = &*w.events;
    let cycles = w.serve.slice_cycles;
    let wps = w.windows_per_slice();
    let mut e = Epoch {
        op_us: Vec::with_capacity(EPOCH_SLICES as usize),
        sim_mcps: Vec::with_capacity(EPOCH_SLICES as usize),
        digest: Digest::default(),
        bus: BusStats::default(),
        counts: LiveCounts::default(),
    };
    let first_event = events.published();
    let mut cursor = first_event;
    let mut before = 0.0;
    for slice in 0..EPOCH_SLICES {
        let t0 = Instant::now();
        let mut bus = match log.as_deref_mut() {
            Some(l) => l.time(BUILD_MS, 1, || w.slice_bus(slice)),
            None => w.slice_bus(slice),
        };
        let t1 = Instant::now();
        session.slice(&mut bus, slice, cycles, log.as_deref_mut());
        let t2 = Instant::now();
        let lost = match log.as_deref_mut() {
            Some(l) => l.time(DRAIN, 1, || drain(events, &mut cursor)),
            None => drain(events, &mut cursor),
        };
        let t3 = Instant::now();
        e.op_us.push(t3.duration_since(t0).as_secs_f64() * 1e6);
        e.sim_mcps
            .push(cycles as f64 / t2.duration_since(t1).as_secs_f64() / 1e6);

        e.counts.dropped += lost;
        add_bus_stats(&mut e.bus, bus.stats());
        let total = session.total_energy();
        let booked = total - before;
        before = total;
        let t = session.telemetry();
        let seen = observatory_energy(t, slice * wps, (slice + 1) * wps - 1);
        out.check(close(seen, booked), || {
            format!("slice {slice}: observatory energy {seen} != booked {booked}")
        });
        let published = events.published();
        out.check(cursor == published, || {
            format!("slice {slice}: ring drained to {cursor}, published {published}")
        });
    }

    let t = session.telemetry();
    let total = session.total_energy();
    let retained = observatory_energy(t, 0, EPOCH_SLICES * wps - 1);
    out.check(close(retained, total), || {
        format!("epoch: observatory raw-level energy {retained} != session total {total}")
    });
    let detector = t.anomaly().expect("anomaly detection enabled");
    e.counts.published = events.published() - first_event;
    e.counts.windows = t.observatory().map_or(0, |o| o.windows_ingested());
    e.counts.flagged = detector.events().len() as u64;
    let d = &mut e.digest;
    d.f64(total);
    d.ledger(session.ledger());
    d.bus_stats(&e.bus);
    d.u64(e.counts.published);
    d.u64(e.counts.dropped);
    d.u64(t.events().map_or(0, |x| x.transactions()));
    d.u64(detector.windows());
    d.u64(e.counts.flagged);
    d.u64(e.counts.windows);
    e
}

/// A worker (re)start: a fresh persistent session and the start-up
/// replay calibration, timed together as one set-up.
fn restart(w: &Worker, out: &mut Outcome) -> (PowerSession, Probe, f64) {
    let t = Instant::now();
    let session = w.session();
    let probe = startup_probe(w.serve.seed, out);
    (session, probe, t.elapsed().as_secs_f64())
}

/// One untraced epoch on a fresh session: the epoch, its wall time in
/// seconds and the session.
fn untraced_epoch(w: &Worker, out: &mut Outcome) -> (Epoch, f64, PowerSession) {
    let mut session = w.session();
    let t = Instant::now();
    let e = epoch(w, &mut session, None, out);
    (e, t.elapsed().as_secs_f64(), session)
}

pub fn run(cfg: &RunConfig, trace: bool) -> Result<Outcome, String> {
    let w = Worker::new(cfg.seed);
    let mut out = Outcome::default();
    out.meta("slice_cycles", w.serve.slice_cycles);
    out.meta("epoch_slices", EPOCH_SLICES);
    if trace {
        run_traced(cfg, &w, &mut out)?;
    } else {
        run_untraced(cfg, &w, &mut out);
    }
    Ok(out)
}

fn run_untraced(cfg: &RunConfig, w: &Worker, out: &mut Outcome) {
    let first = warm_up(w, out);
    let mut setups = Vec::new();
    let mut probes = Vec::new();
    let mut op_us = Vec::new();
    let mut sim = Vec::new();
    let start = Instant::now();
    while setups.len() < 3 || start.elapsed() < cfg.run {
        let (mut session, probe, setup_s) = restart(w, out);
        let e = epoch(w, &mut session, None, out);
        out.same_digest(first, e.digest, "epoch");
        setups.push(setup_s);
        probes.push(probe);
        op_us.extend(e.op_us);
        sim.extend(e.sim_mcps);
    }
    let wall = start.elapsed().as_secs_f64();
    out.set("setup_s", median(&setups));
    probe_metrics(&probes, out);
    out.set("sim_mcycles_per_s", median(&sim));
    out.set("req_per_s", op_us.len() as f64 / wall);
    out.set("latency_p50_us", rank_quantile(&op_us, 0.5));
    out.set("latency_p99_us", windowed_p99(&op_us));
    out.lines.push(format!(
        "  slices={} in {} epochs (op = bus build + slice + ring drain; each epoch starts a session and its start-up probe); latency samples={}; whole-run p99 {:.1} us",
        op_us.len(),
        setups.len(),
        op_us.len(),
        rank_quantile(&op_us, 0.99)
    ));
    out.meta("reps", setups.len());
    out.meta("latency_samples", op_us.len());
    out.meta("run_s", wall);
}

/// The warm-up epoch: fills caches and fixes the digest every later
/// epoch must reproduce; its Table 1 and counters go into the report.
fn warm_up(w: &Worker, out: &mut Outcome) -> Digest {
    let (e, _, session) = untraced_epoch(w, out);
    out.lines.push(format!("  digest {}", e.digest.hex()));
    out.lines.push(format!(
        "  epoch total_energy_j={:e}",
        session.total_energy()
    ));
    out.lines.extend(describe_outputs(session.ledger(), &e.bus));
    out.lines.push(format!(
        "  events published={} dropped={} observatory windows={} anomalies flagged={}",
        e.counts.published, e.counts.dropped, e.counts.windows, e.counts.flagged
    ));
    out.meta("digest", json_string(&e.digest.hex()));
    e.digest
}

fn run_traced(cfg: &RunConfig, w: &Worker, out: &mut Outcome) -> Result<(), String> {
    let first = warm_up(w, out);
    let origin = Instant::now();
    let mut untraced_s = Vec::new();
    let mut passes: Vec<SpanLog> = Vec::new();
    let mut last = None;
    while passes.len() < 2 || origin.elapsed() < cfg.run {
        let (e, wall, _) = untraced_epoch(w, out);
        untraced_s.push(wall);
        out.same_digest(first, e.digest, "untraced");

        let mut session = TracedSession::with_telemetry(&w.acfg, w.telemetry());
        let mut log = SpanLog::start("main", origin);
        let e = epoch(w, &mut session, Some(&mut log), out);
        log.finish();
        out.same_digest(first, e.digest, "traced");
        last = Some(e);
        passes.push(log);
    }
    let e = last.ok_or("no traced epoch completed")?;
    for layer in [
        BUS_STEP,
        FSM_OBSERVE,
        TRACE_PUSH,
        TELEMETRY_OBSERVE,
        SESSION_SELF,
        DRAIN,
    ] {
        out.set(layer, median_ns_per_unit(&passes, layer));
    }
    out.set(BUILD_MS, median_ns_per_unit(&passes, BUILD_MS) / 1e6);
    out.absent(&[
        REPLAY_RECORD,
        "core.replay.encode_ns",
        "core.replay.decode_ns",
        "core.replay.lut_build_us",
        "core.replay.replay_ns",
        "workloads.build_s",
    ]);
    out.absent_http();
    out.counts(&e.bus, &e.counts);

    out.meta("reps", passes.len());
    let traced_s: Vec<f64> = passes.iter().map(SpanLog::wall_s).collect();
    let ratio = median(&traced_s) / median(&untraced_s);
    finish_trace(out, "soc-live", cfg.seed, &passes, ratio)
}
