//! The live monitoring service behind `repro serve`: N shard worker
//! threads (one persistent [`PowerSession`] each, with its own seed
//! rotation, scenario-mix phase, event ring, anomaly detector and
//! observatory) simulate workload slices continuously behind a
//! thread-pool HTTP server with a connection limit and 503
//! load-shedding — zero crates beyond `std::net`.
//!
//! After every slice a worker updates its shard's `ShardSnapshot` in
//! place: plain counters and histograms, no observatory and no event
//! log. `/status`, `/healthz`, `/metrics` and `/events` each have one
//! renderer. The first three copy the addressed snapshots (every
//! shard, or one with `?shard=K`) out from under their locks and fold
//! them with `ShardSnapshot::merge`: counts add, a mean is total/count
//! of the merged rows, histograms bucket-merge, high-water marks take
//! the max and flags OR. The merge is rendered once, so one shard is a
//! merge of one. `/metrics` has one series definition, written
//! family-major in one pass straight into the response body, with no
//! registry built per request: each family's merged sample comes
//! first, then — across several shards — every shard's sample with
//! `shard="K"` appended, and last the plane's own families (uptime,
//! pool, shed and request-timeout counts).
//!
//! Every request line has one deadline: a client that has not sent it
//! within 2 s is answered `408` and counted, however slowly it
//! trickles bytes, so it cannot hold a pool thread.
//!
//! `/query` fans out to every shard observatory and composes
//! sum/min/max per bucket, so the merged energy total equals the sum of
//! the per-shard totals exactly. `/events` reads the addressed rings:
//! one ring pages a numeric cursor; several page an aggregated cursor
//! space of dot-joined per-shard sequences (`since=12.34`) with
//! per-shard `dropped` accounting and shard-tagged events.
//!
//! On shutdown the same renderers write `serve_final.jsonl` (the
//! `/metrics` series, fed into a registry instead of text) and
//! `serve_status.json`, and every shard's events and observatory are
//! flushed atomically to the results directory, so a `/quit` (or slice
//! budgets running out) always leaves complete, readable artifacts.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use ahbpower::telemetry::{
    events_to_jsonl, json_escape, json_num, to_jsonl, AnomalyConfig, AnomalyEvent, DetectorState,
    Event, EventBatch, EventBus, EventKind, ExportMeta, MetricKind, MetricSink, Observatory,
    ObservatoryConfig, PromWriter, QueryResult, RegistrySink, SampleValue, TelemetryConfig,
    DEFAULT_EVENT_CAPACITY, OBSERVATORY_LEVEL_FACTORS,
};
use ahbpower::{
    AnalysisConfig, Instruction, InstructionLedger, PowerSession, SubBlock, INSTRUCTION_COUNT,
};
use ahbpower_ahb::CycleHistogram;
use ahbpower_workloads::{PaperTestbench, SocScenario};

use crate::baseline::{write_atomic, WINDOW_POWER_BOUNDS_UW};
use crate::dashboard::DASHBOARD_HTML;
use crate::flightrec::FlightRecorder;
use crate::json::validate_json;
use crate::obsquery::{merge_query_results, query_result_json};

/// Inclusive upper bounds (µs) for the per-stage wall-clock histograms
/// (`sim`, `publish`, `render`); an implicit overflow bucket catches
/// anything beyond a second.
pub const STAGE_US_BOUNDS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Ceiling on the worker's retained event log (oldest entries are
/// trimmed beyond this); bounds `events.jsonl` and server memory.
const EVENTS_LOG_CAP: usize = 200_000;

/// Longest `/events` long-poll the server will honor. A parked poll
/// occupies one pool worker and one connection slot — keep it short.
const EVENTS_POLL_CAP_MS: u64 = 5_000;

/// How long a connection has to deliver its request line. Each read
/// waits only for what is left of it, so a client trickling bytes is
/// answered `408` when it runs out instead of holding a pool thread.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Initial capacity of a `/metrics` body: room for a 2-shard plane's
/// series (about 31 KB) without regrowing the buffer.
const METRICS_BODY_HINT: usize = 48 * 1024;

/// Seed distance between adjacent shards. Shard `k` runs slice `i` at
/// `seed + k * SHARD_SEED_STRIDE + i`, so shards never replay each
/// other's workloads for any realistic slice budget.
pub const SHARD_SEED_STRIDE: u64 = 1_000_000;

/// Shard `shard`'s seed lane: `seed + shard * SHARD_SEED_STRIDE`.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed + shard as u64 * SHARD_SEED_STRIDE
}

/// Which workloads the worker rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioMix {
    /// Paper testbench only.
    Paper,
    /// SoC scenario only.
    Soc,
    /// Alternate paper and SoC slices.
    Mixed,
}

impl ScenarioMix {
    /// Parses `paper` / `soc` / `mixed`.
    pub fn from_name(name: &str) -> Option<ScenarioMix> {
        match name {
            "paper" => Some(ScenarioMix::Paper),
            "soc" => Some(ScenarioMix::Soc),
            "mixed" => Some(ScenarioMix::Mixed),
            _ => None,
        }
    }

    /// The mix's CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioMix::Paper => "paper",
            ScenarioMix::Soc => "soc",
            ScenarioMix::Mixed => "mixed",
        }
    }

    /// The scenario label for slice `i`.
    fn slice_label(self, i: u64) -> &'static str {
        match self {
            ScenarioMix::Paper => PaperTestbench::LABEL,
            ScenarioMix::Soc => "soc_scenario",
            ScenarioMix::Mixed => {
                if i.is_multiple_of(2) {
                    PaperTestbench::LABEL
                } else {
                    "soc_scenario"
                }
            }
        }
    }
}

/// A seeded coefficient-scaling fault, applied once at the start of the
/// given slice — the end-to-end test hook for the anomaly detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Sub-block whose coefficients are scaled.
    pub block: SubBlock,
    /// Scale factor.
    pub factor: f64,
    /// Slice index at which the fault appears.
    pub at_slice: u64,
}

impl Injection {
    /// Parses `block:factor[@slice]`, e.g. `arb:2.0` or `dec:1.5@3`.
    /// The factor must be finite and non-negative, the domain of every
    /// macromodel coefficient.
    pub fn parse(spec: &str) -> Option<Injection> {
        let (block_name, rest) = spec.split_once(':')?;
        let block = SubBlock::from_name(block_name)?;
        let (factor_str, at_slice) = match rest.split_once('@') {
            Some((f, s)) => (f, s.parse().ok()?),
            None => (rest, 2),
        };
        let factor: f64 = factor_str.parse().ok()?;
        if !(factor.is_finite() && factor >= 0.0) {
            return None;
        }
        Some(Injection {
            block,
            factor,
            at_slice,
        })
    }
}

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Scenario rotation.
    pub mix: ScenarioMix,
    /// Cycles per worker slice.
    pub slice_cycles: u64,
    /// Base workload seed; slice `i` runs at `seed + i`.
    pub seed: u64,
    /// Stop after this many slices (`None`: run until `/quit`).
    pub max_slices: Option<u64>,
    /// Anomaly-detector tuning.
    pub anomaly: AnomalyConfig,
    /// Optional seeded fault.
    pub inject: Option<Injection>,
    /// Where shutdown flushes `serve_final.jsonl` + `serve_status.json`
    /// (`None`: no flush).
    pub results_dir: Option<PathBuf>,
    /// Whether the structured event ring records events. Disabled, the
    /// ring still exists but every publish is a single cold-atomic
    /// branch and `/events` serves empty batches.
    pub events: bool,
    /// Event ring capacity (rounded up to a power of two).
    pub events_capacity: usize,
    /// Test hook: panic inside this slice's simulation (shard 0 only),
    /// exercising the flight recorder's panic-in-slice capture. Never
    /// set in production.
    pub panic_at_slice: Option<u64>,
    /// Concurrent worker sessions. Each shard gets its own thread,
    /// persistent session, event ring, detector and observatory;
    /// values below 1 are treated as 1.
    pub shards: usize,
    /// HTTP pool size: how many requests are serviced concurrently.
    pub http_threads: usize,
    /// Admission limit: connections admitted (queued + in service)
    /// beyond this are shed with a fast `503`.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let slice_cycles = 20_000;
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            mix: ScenarioMix::Mixed,
            slice_cycles,
            seed: 2003,
            max_slices: None,
            // Warm up across at least one slice of each scenario so the
            // residual statistics absorb cross-scenario variation.
            anomaly: AnomalyConfig::default()
                .with_warmup_windows(2 * slice_cycles / AnomalyConfig::default().window_cycles + 4),
            inject: None,
            results_dir: None,
            events: true,
            // 4x the library default: the serve loop drains the ring
            // once per slice, so the ring must hold a full slice's
            // events (~0.7/cycle) even for generous --slice-cycles.
            events_capacity: 4 * DEFAULT_EVENT_CAPACITY,
            panic_at_slice: None,
            shards: 1,
            http_threads: 4,
            max_connections: 64,
        }
    }
}

/// Why the service failed to start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Socket trouble (bind, accept, read, write).
    Io(io::Error),
    /// A worker or HTTP thread panicked or vanished.
    Thread(String),
    /// A self-check failed (e.g. `/status` produced invalid JSON).
    SelfCheck(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Thread(msg) => write!(f, "serve thread error: {msg}"),
            ServeError::SelfCheck(msg) => write!(f, "serve self-check failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Observatory ring counters as `/status` and `/metrics` show them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ObservatoryCounts {
    /// Raw windows ingested.
    windows: u64,
    /// Occupied ring buckets per level.
    occupancy: [u64; OBSERVATORY_LEVEL_FACTORS.len()],
    /// Buckets opened per level (downsample cascades).
    opened: [u64; OBSERVATORY_LEVEL_FACTORS.len()],
}

impl ObservatoryCounts {
    fn of(obs: &Observatory) -> Self {
        ObservatoryCounts {
            windows: obs.windows_ingested(),
            occupancy: std::array::from_fn(|level| obs.occupancy(level) as u64),
            opened: std::array::from_fn(|level| obs.cascades(level)),
        }
    }
}

/// One shard's plain counters: everything `/status`, `/healthz` and
/// `/metrics` render, and nothing else (no observatory, no event log,
/// no anomaly history). The worker updates its shard's snapshot in
/// place; a request copies the addressed snapshots out from under their
/// locks and folds them with [`ShardSnapshot::merge`], so one shard is
/// a merge of one and every view renders through the same code.
#[derive(Debug, Clone, PartialEq)]
struct ShardSnapshot {
    slices: u64,
    cycles: u64,
    total_energy_j: f64,
    /// Per-instruction count and total energy (Table 1). A mean is
    /// total/count at render time, so it stays exact under merging.
    instructions: InstructionLedger,
    /// Per-master energy attribution, joules.
    per_master_j: Vec<f64>,
    /// Completed bus transactions (from the event tap).
    transactions: u64,
    window_power_uw: CycleHistogram,
    anomaly_windows: u64,
    anomaly_count: u64,
    /// The flagged window with the highest index.
    last_anomaly: Option<AnomalyEvent>,
    baseline_updates: u64,
    /// Whether the most recently judged detection window was flagged.
    degraded: bool,
    /// Highest slice count any merged shard reached.
    high_water_slice: u64,
    /// Highest judged-window count any merged shard reached.
    high_water_window: u64,
    events_enabled: bool,
    events_published: u64,
    /// Events lost to ring wraparound before the worker drained them.
    events_dropped: u64,
    /// Events retained in the worker's log.
    events_logged: u64,
    /// The worker's ring-drain cursor.
    events_cursor: u64,
    /// Events published but not yet drained (`published - cursor`).
    events_lag: u64,
    /// `None` until the first slice feeds the observatory.
    observatory: Option<ObservatoryCounts>,
    /// Flight-recorder bundles written so far.
    flightrec_bundles: u64,
    /// The startup record/replay self-calibration, once it completes.
    replay: Option<ReplayCalibration>,
    /// Wall-clock per slice simulated (worker-measured).
    sim_us: CycleHistogram,
    /// Wall-clock per snapshot update (worker-measured).
    publish_us: CycleHistogram,
    /// Wall-clock per `/status` render (HTTP-thread-measured).
    render_us: CycleHistogram,
}

impl Default for ShardSnapshot {
    /// The empty snapshot: the identity of [`ShardSnapshot::merge`].
    fn default() -> Self {
        ShardSnapshot {
            slices: 0,
            cycles: 0,
            total_energy_j: 0.0,
            instructions: InstructionLedger::new(),
            per_master_j: Vec::new(),
            transactions: 0,
            window_power_uw: CycleHistogram::new(&WINDOW_POWER_BOUNDS_UW),
            anomaly_windows: 0,
            anomaly_count: 0,
            last_anomaly: None,
            baseline_updates: 0,
            degraded: false,
            high_water_slice: 0,
            high_water_window: 0,
            events_enabled: false,
            events_published: 0,
            events_dropped: 0,
            events_logged: 0,
            events_cursor: 0,
            events_lag: 0,
            observatory: None,
            flightrec_bundles: 0,
            replay: None,
            sim_us: CycleHistogram::new(&STAGE_US_BOUNDS),
            publish_us: CycleHistogram::new(&STAGE_US_BOUNDS),
            render_us: CycleHistogram::new(&STAGE_US_BOUNDS),
        }
    }
}

impl ShardSnapshot {
    /// Folds `other` into `self`. Extensive quantities add (instruction
    /// rows through [`InstructionLedger::merge`]), histograms
    /// bucket-merge, high-water marks take the max and flags OR. The last anomaly is the one with the latest
    /// window; the replay calibration is the one that recorded the most
    /// cycles.
    fn merge(&mut self, other: &ShardSnapshot) {
        self.slices += other.slices;
        self.cycles += other.cycles;
        self.total_energy_j += other.total_energy_j;
        self.instructions.merge(&other.instructions);
        if self.per_master_j.len() < other.per_master_j.len() {
            self.per_master_j.resize(other.per_master_j.len(), 0.0);
        }
        for (mine, theirs) in self.per_master_j.iter_mut().zip(&other.per_master_j) {
            *mine += theirs;
        }
        self.transactions += other.transactions;
        self.window_power_uw.merge(&other.window_power_uw);
        self.anomaly_windows += other.anomaly_windows;
        self.anomaly_count += other.anomaly_count;
        if let Some(e) = &other.last_anomaly {
            if self
                .last_anomaly
                .as_ref()
                .is_none_or(|prev| e.window >= prev.window)
            {
                self.last_anomaly = Some(e.clone());
            }
        }
        self.baseline_updates += other.baseline_updates;
        self.degraded |= other.degraded;
        self.high_water_slice = self.high_water_slice.max(other.high_water_slice);
        self.high_water_window = self.high_water_window.max(other.high_water_window);
        self.events_enabled |= other.events_enabled;
        self.events_published += other.events_published;
        self.events_dropped += other.events_dropped;
        self.events_logged += other.events_logged;
        self.events_cursor += other.events_cursor;
        self.events_lag += other.events_lag;
        if let Some(theirs) = &other.observatory {
            let mine = self.observatory.get_or_insert_with(Default::default);
            mine.windows += theirs.windows;
            for level in 0..OBSERVATORY_LEVEL_FACTORS.len() {
                mine.occupancy[level] += theirs.occupancy[level];
                mine.opened[level] += theirs.opened[level];
            }
        }
        self.flightrec_bundles += other.flightrec_bundles;
        if let Some(theirs) = other.replay {
            if self
                .replay
                .is_none_or(|mine| theirs.trace_cycles > mine.trace_cycles)
            {
                self.replay = Some(theirs);
            }
        }
        self.sim_us.merge(&other.sim_us);
        self.publish_us.merge(&other.publish_us);
        self.render_us.merge(&other.render_us);
    }
}

/// Live state shared between one shard's worker and the HTTP pool: the
/// snapshot every render reads, plus what `/query`, the flight recorder
/// and the shutdown flush need beyond it.
#[derive(Debug, Default)]
struct LiveState {
    snap: ShardSnapshot,
    /// Every anomaly the shard's detector flagged (flushed into
    /// `serve_final.jsonl`).
    anomaly_events: Vec<AnomalyEvent>,
    /// Worker-drained event log, trimmed to [`EVENTS_LOG_CAP`]; the
    /// shutdown flush renders it into `events.jsonl`.
    events_log: Vec<Event>,
    /// Per-slice snapshot of the session's power observatory (what
    /// `/query` answers from).
    observatory: Option<Observatory>,
    /// Per-slice snapshot of the anomaly detector's statistics (what
    /// flight-recorder bundles embed).
    detector: Option<DetectorState>,
}

/// What the service did, reported by [`ServerHandle::wait`]. Numeric
/// fields aggregate every shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Slices completed (all shards).
    pub slices: u64,
    /// Cycles simulated (all shards).
    pub cycles: u64,
    /// Total energy booked, joules (all shards).
    pub total_energy_j: f64,
    /// Anomalies flagged (all shards).
    pub anomalies: u64,
    /// Worker shards that ran.
    pub shards: usize,
    /// Requests shed with 503 by the admission limit.
    pub shed: u64,
    /// Files flushed on shutdown (empty without a results dir).
    pub flushed: Vec<PathBuf>,
}

/// One shard as the HTTP plane sees it: its shared state plus its
/// event ring (the ring is read lock-free, so `/events` never touches
/// the state mutex).
struct ShardRef {
    state: Mutex<LiveState>,
    events: Arc<EventBus>,
}

/// Pending connections handed from the accept loop to the HTTP pool.
struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// Everything a pool worker needs to answer any request: all shards,
/// the control flags, and the admission/shed accounting.
struct Plane {
    shards: Vec<ShardRef>,
    stop: AtomicBool,
    queue: ConnQueue,
    /// Connections admitted and not yet answered (queued + in service).
    active: AtomicU64,
    /// Connections shed with 503 at the admission gate.
    shed: AtomicU64,
    /// Connections answered 408: the request line missed its deadline.
    timeouts: AtomicU64,
    started: Instant,
    addr: SocketAddr,
    mix: ScenarioMix,
    seed: u64,
    http_threads: usize,
    max_connections: usize,
}

impl Plane {
    fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The shard indexes a request addresses: `?shard=K` picks one,
    /// no `shard` parameter all of them.
    fn addressed(&self, shard: Option<usize>) -> std::ops::Range<usize> {
        match shard {
            Some(k) => k..k + 1,
            None => 0..self.shards.len(),
        }
    }
}

/// A running service: the bound address plus the shard workers and the
/// HTTP pool. Drop without [`ServerHandle::wait`] leaks the threads;
/// always wait.
pub struct ServerHandle {
    plane: Arc<Plane>,
    workers: Vec<thread::JoinHandle<()>>,
    accept: thread::JoinHandle<()>,
    pool: Vec<thread::JoinHandle<()>>,
    results_dir: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.plane.addr
    }

    /// Shard 0's structured event ring (what a 1-shard plane's
    /// `/events` reads).
    pub fn events_bus(&self) -> &Arc<EventBus> {
        &self.plane.shards[0].events
    }

    /// Requests shutdown (idempotent; `/quit` does the same).
    pub fn shutdown(&self) {
        // ordering: cold control-plane flag; seqcst for simplicity.
        self.plane.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until every shard worker finishes (slice budget or
    /// shutdown), stops the HTTP pool, flushes final snapshots, and
    /// reports.
    ///
    /// # Errors
    ///
    /// [`ServeError::Thread`] if a thread panicked,
    /// [`ServeError::Io`] if the final flush failed.
    pub fn wait(self) -> Result<ServeSummary, ServeError> {
        self.finish(false)
    }

    /// Like [`ServerHandle::wait`], but keeps serving after the slice
    /// budgets drain: returns only once `GET /quit` (or
    /// [`ServerHandle::shutdown`] plus one more connection) stops the
    /// HTTP plane. This is what `repro serve` blocks on.
    ///
    /// # Errors
    ///
    /// Same as [`ServerHandle::wait`].
    pub fn wait_for_quit(self) -> Result<ServeSummary, ServeError> {
        self.finish(true)
    }

    fn finish(self, until_quit: bool) -> Result<ServeSummary, ServeError> {
        let ServerHandle {
            plane,
            workers,
            accept,
            pool,
            results_dir,
        } = self;
        fn join_all(handles: Vec<thread::JoinHandle<()>>, what: &str) -> Result<(), ServeError> {
            for h in handles {
                h.join()
                    .map_err(|_| ServeError::Thread(format!("{what} thread panicked")))?;
            }
            Ok(())
        }
        if until_quit {
            // /quit flips the stop flag and pokes the listener; the
            // accept loop breaks, then the workers notice at their next
            // slice boundary.
            accept
                .join()
                .map_err(|_| ServeError::Thread("accept thread panicked".to_string()))?;
            // ordering: cold control-plane flag; seqcst for simplicity.
            plane.stop.store(true, Ordering::SeqCst);
            // Wake idle pool workers so they can observe the stop flag.
            plane.queue.ready.notify_all();
            join_all(pool, "http pool")?;
            join_all(workers, "worker")?;
        } else {
            join_all(workers, "worker")?;
            // The workers are done; release the accept thread, which
            // may be parked in accept(): set the flag and poke the
            // socket.
            // ordering: cold control-plane flag; seqcst for simplicity.
            plane.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect_timeout(&plane.addr, Duration::from_secs(1));
            accept
                .join()
                .map_err(|_| ServeError::Thread("accept thread panicked".to_string()))?;
            plane.queue.ready.notify_all();
            join_all(pool, "http pool")?;
        }

        let poisoned = || ServeError::Thread("state mutex poisoned".to_string());
        let view = View::new(&plane, None).ok_or_else(poisoned)?;
        let mut flushed = Vec::new();
        if let Some(dir) = &results_dir {
            std::fs::create_dir_all(dir)?;
            let mut flush = |name: String, body: &str| -> io::Result<()> {
                let path = dir.join(name);
                write_atomic(&path, body)?;
                flushed.push(path);
                Ok(())
            };
            let meta = |cycles, seed| ExportMeta {
                scenario: format!("serve_{}", plane.mix.name()),
                cycles,
                seed,
            };
            // The /metrics series, registered, then every shard's
            // anomaly event lines.
            let mut series = RegistrySink::default();
            metrics_series(&view, &mut series);
            let mut jsonl = to_jsonl(&series.registry, &meta(view.total.cycles, plane.seed));
            for (i, shard) in plane.shards.iter().enumerate() {
                let s = shard.state.lock().map_err(|_| poisoned())?;
                for e in &s.anomaly_events {
                    jsonl.push_str(&e.to_jsonl_line());
                    jsonl.push('\n');
                }
                let suffix = if i == 0 {
                    String::new()
                } else {
                    format!("-shard{i}")
                };
                if s.snap.events_enabled {
                    let seed = shard_seed(plane.seed, i);
                    let events = events_to_jsonl(&s.events_log, &meta(s.snap.cycles, seed));
                    flush(format!("events{suffix}.jsonl"), &events)?;
                }
                if let Some(obs) = &s.observatory {
                    flush(format!("observatory{suffix}.jsonl"), &obs.to_jsonl())?;
                    // Shutdown post-mortem: the same bundle shape an
                    // anomaly dump produces, anchored at the shard's
                    // last judged window, so every run ends with an
                    // inspectable record per shard.
                    let _ = FlightRecorder::for_shard(dir, i as u64).record(
                        "quit",
                        s.snap.anomaly_windows,
                        s.snap.slices,
                        None,
                        s.detector.as_ref(),
                        s.observatory.as_ref(),
                        &s.events_log,
                    );
                }
            }
            flush("serve_final.jsonl".to_string(), &jsonl)?;
            let status = status_json(&view);
            validate_json(&status)
                .map_err(|e| ServeError::SelfCheck(format!("final status JSON invalid: {e}")))?;
            flush("serve_status.json".to_string(), &status)?;
        }
        Ok(ServeSummary {
            slices: view.total.slices,
            cycles: view.total.cycles,
            total_energy_j: view.total.total_energy_j,
            anomalies: view.total.anomaly_count,
            shards: plane.shards.len(),
            // ordering: cold post-shutdown read of the shed tally; seqcst for simplicity.
            shed: plane.shed.load(Ordering::SeqCst),
            flushed,
        })
    }
}

/// Builds a slice's bus for `label` at `seed`.
fn build_slice_bus(label: &str, slice_cycles: u64, seed: u64) -> ahbpower_ahb::AhbBus {
    if label == PaperTestbench::LABEL {
        PaperTestbench::sized_for(slice_cycles, seed)
            .build()
            .expect("paper testbench is statically valid")
    } else {
        let scale = (slice_cycles / 4_000).clamp(1, 10_000) as u32;
        let base = SocScenario::default();
        SocScenario {
            seed,
            cpu_accesses: base.cpu_accesses * scale,
            dma_blocks: base.dma_blocks * scale,
            stream_frames: base.stream_frames * scale,
            ..base
        }
        .build()
        .expect("soc scenario is statically valid")
    }
}

/// Starts the service: binds `cfg.addr`, spawns one simulation worker
/// per shard plus the HTTP accept thread and pool, and returns
/// immediately.
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound.
pub fn serve(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(cfg.addr.as_str())?;
    let addr = listener.local_addr()?;
    let n_shards = cfg.shards.max(1);
    let http_threads = cfg.http_threads.max(1);
    let max_connections = cfg.max_connections.max(1);

    let shards = (0..n_shards)
        .map(|_| {
            let events = EventBus::shared(cfg.events_capacity);
            events.set_enabled(cfg.events);
            let state = Mutex::new(LiveState {
                snap: ShardSnapshot {
                    events_enabled: cfg.events,
                    ..ShardSnapshot::default()
                },
                ..LiveState::default()
            });
            ShardRef { state, events }
        })
        .collect();
    let plane = Arc::new(Plane {
        shards,
        stop: AtomicBool::new(false),
        queue: ConnQueue {
            pending: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        },
        active: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        started: Instant::now(),
        addr,
        mix: cfg.mix,
        seed: cfg.seed,
        http_threads,
        max_connections,
    });

    let workers = (0..n_shards)
        .map(|shard| {
            let plane = Arc::clone(&plane);
            let cfg = cfg.clone();
            thread::spawn(move || run_worker(&cfg, shard, &plane))
        })
        .collect();
    let pool = (0..http_threads)
        .map(|_| {
            let plane = Arc::clone(&plane);
            thread::spawn(move || run_pool_worker(&plane))
        })
        .collect();
    let accept = {
        let plane = Arc::clone(&plane);
        thread::spawn(move || run_accept(&listener, &plane))
    };
    Ok(ServerHandle {
        plane,
        workers,
        accept,
        pool,
        results_dir: cfg.results_dir,
    })
}

/// Outcome of the worker's startup record/replay self-calibration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ReplayCalibration {
    trace_cycles: u64,
    variants: u64,
    cycles_per_sec: f64,
}

/// Records a short paper-testbench trace, replays the first few
/// coefficient variants of the deterministic grid, and measures replay
/// throughput. Publishes `ReplayStart`/`ReplayDone` on `events` (the
/// trace id in `txn` is the workload seed).
fn replay_calibration(seed: u64, events: &Arc<EventBus>) -> ReplayCalibration {
    const CALIB_CYCLES: u64 = 20_000;
    const CALIB_VARIANTS: usize = 4;
    let (run, trace) = crate::run_paper_experiment_recorded(CALIB_CYCLES, seed);
    events.publish(Event {
        seq: 0,
        kind: EventKind::ReplayStart,
        slice: 0,
        txn: seed,
        window: 0,
        cycle: 0,
        tag: CALIB_VARIANTS as u32,
        a: trace.cycles() as f64,
        b: 0.0,
    });
    let models: Vec<_> = (0..CALIB_VARIANTS)
        .map(|k| crate::replay_variant_model(&run.config, k))
        .collect();
    let started = Instant::now();
    let outcomes = crate::replay_sweep(&trace, &models, 1);
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        outcomes[0].total_energy().to_bits(),
        run.session.total_energy().to_bits(),
        "calibration replay must reproduce the live run bit for bit"
    );
    let replayed = trace.cycles() * CALIB_VARIANTS as u64;
    let cycles_per_sec = if elapsed > 0.0 {
        replayed as f64 / elapsed
    } else {
        0.0
    };
    events.publish(Event {
        seq: 0,
        kind: EventKind::ReplayDone,
        slice: 0,
        txn: seed,
        window: 0,
        cycle: 0,
        tag: CALIB_VARIANTS as u32,
        a: cycles_per_sec,
        b: replayed as f64,
    });
    ReplayCalibration {
        trace_cycles: trace.cycles(),
        variants: CALIB_VARIANTS as u64,
        cycles_per_sec,
    }
}

/// Drains the event ring into the retained log (the ring is quiescent
/// between slices — the worker is its only writer), updating the drop
/// counter, cursor, lag and published count. Returns the
/// `AnomalyFlagged` events drained, which trigger flight-recorder
/// bundles.
fn drain_events(events: &EventBus, cursor: &mut u64, s: &mut LiveState) -> Vec<Event> {
    let mut flagged = Vec::new();
    loop {
        let batch = events.read_since(*cursor, 4096);
        *cursor = batch.next;
        s.snap.events_dropped += batch.dropped;
        if batch.events.is_empty() {
            break;
        }
        flagged.extend(
            batch
                .events
                .iter()
                .filter(|e| e.kind == EventKind::AnomalyFlagged)
                .cloned(),
        );
        s.events_log.extend(batch.events);
    }
    if s.events_log.len() > EVENTS_LOG_CAP {
        let overflow = s.events_log.len() - EVENTS_LOG_CAP;
        s.events_log.drain(..overflow);
    }
    s.snap.events_logged = s.events_log.len() as u64;
    s.snap.events_cursor = *cursor;
    s.snap.events_published = events.published();
    s.snap.events_lag = s.snap.events_published.saturating_sub(*cursor);
    flagged
}

/// The simulation loop: one session for the whole service lifetime
/// (the anomaly detector's baseline survives across slices), a fresh
/// bus per slice, and the shard's snapshot updated in place after each.
fn run_worker(cfg: &ServeConfig, shard: usize, plane: &Plane) {
    let ShardRef { state, events } = &plane.shards[shard];
    // Per-shard seed rotation: shards occupy disjoint seed ranges so no
    // two shards ever simulate the same workload.
    let shard_seed = shard_seed(cfg.seed, shard);
    // Size the model for the widest scenario in the mix; narrower buses
    // use a subset of the masters.
    let (n_masters, n_slaves) = match cfg.mix {
        ScenarioMix::Paper => (PaperTestbench::N_MASTERS, PaperTestbench::N_SLAVES),
        _ => (
            PaperTestbench::N_MASTERS.max(SocScenario::N_MASTERS),
            PaperTestbench::N_SLAVES.max(SocScenario::N_SLAVES),
        ),
    };
    let acfg = AnalysisConfig {
        n_masters,
        n_slaves,
        seed: shard_seed,
        ..AnalysisConfig::paper_testbench()
    };
    let tcfg = TelemetryConfig::enabled(&format!("serve_{}", cfg.mix.name()))
        .with_seed(shard_seed)
        .with_anomaly(cfg.anomaly.clone())
        .with_observatory(ObservatoryConfig::default())
        .with_events(Arc::clone(events));
    let mut session = PowerSession::with_telemetry(&acfg, tcfg);
    let mut flightrec = cfg
        .results_dir
        .as_deref()
        .map(|dir| FlightRecorder::for_shard(dir, shard as u64));
    let mut consumed_points = 0usize;
    let mut events_cursor = 0u64;
    let mut last_publish_us: Option<u64> = None;

    // Startup self-calibration of the record/replay pipeline (shard 0
    // only — the measurement is machine-wide, not per-shard): record
    // one short paper trace, replay a handful of coefficient variants,
    // and surface the measured throughput in /status and /metrics. The
    // pass is bracketed by ReplayStart/ReplayDone on the structured
    // ring, so it lands in /events and the flushed events.jsonl like
    // any other cross-layer activity.
    if shard == 0 {
        let calib = replay_calibration(cfg.seed, events);
        if let Ok(mut s) = state.lock() {
            s.snap.replay = Some(calib);
        }
    }

    let mut slice = 0u64;
    // ordering: cold shutdown poll at slice granularity; seqcst for simplicity.
    while !plane.stop.load(Ordering::SeqCst) {
        if let Some(max) = cfg.max_slices {
            if slice >= max {
                break;
            }
        }
        // Fault injection and the seeded panic are shard-0 hooks: the
        // tests that use them want exactly one deterministic failing
        // session while the other shards stay healthy.
        if let Some(inj) = cfg.inject {
            if shard == 0 && inj.at_slice == slice {
                session.scale_model_block(inj.block, inj.factor);
            }
        }
        // Each shard starts the mix rotation at its own phase, so a
        // mixed fleet interleaves scenarios instead of running them in
        // lock-step.
        let label = cfg.mix.slice_label(slice + shard as u64);
        let mut bus = build_slice_bus(label, cfg.slice_cycles, shard_seed + slice);
        let sim_started = Instant::now();
        // A panic inside the slice (the seeded test hook, or a real
        // defect) must not lose the run's history: catch it, dump a
        // flight-recorder bundle from the last published state, and
        // stop simulating. The HTTP plane keeps serving what we have.
        let sim = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                shard != 0 || cfg.panic_at_slice != Some(slice),
                "seeded panic in slice {slice}"
            );
            session.begin_slice(slice);
            session.run(&mut bus, cfg.slice_cycles);
            session.end_slice();
        }));
        if sim.is_err() {
            if let Ok(mut guard) = state.lock() {
                let s = &mut *guard;
                drain_events(events, &mut events_cursor, s);
                if let Some(rec) = &mut flightrec {
                    let _ = rec.record(
                        "panic",
                        s.snap.anomaly_windows,
                        slice,
                        None,
                        s.detector.as_ref(),
                        s.observatory.as_ref(),
                        &s.events_log,
                    );
                    s.snap.flightrec_bundles = rec.bundles() as u64;
                }
            }
            break;
        }
        let sim_us = sim_started.elapsed().as_micros() as u64;
        slice += 1;

        // The observatory copy is the one large one: take it before the
        // lock, so HTTP readers never wait on it.
        let observatory = session.telemetry().and_then(|t| t.observatory()).cloned();
        let Ok(mut guard) = state.lock() else {
            break;
        };
        let s = &mut *guard;
        let publish_started = Instant::now();
        let snap = &mut s.snap;
        snap.slices = slice;
        snap.high_water_slice = slice;
        snap.cycles = slice * cfg.slice_cycles;
        snap.total_energy_j = session.total_energy();
        snap.instructions = session.ledger().clone();
        snap.per_master_j = session.per_master_energy().to_vec();
        let points = session.trace_points();
        for p in &points[consumed_points..] {
            snap.window_power_uw
                .observe((p.total_w * 1e6).round() as u64);
        }
        consumed_points = points.len();
        let telemetry = session.telemetry();
        snap.transactions = telemetry
            .and_then(|t| t.events())
            .map_or(0, |e| e.transactions());
        if let Some(d) = telemetry.and_then(|t| t.anomaly()) {
            snap.anomaly_windows = d.windows();
            snap.high_water_window = d.windows();
            snap.anomaly_count = d.events().len() as u64;
            snap.last_anomaly = d.events().last().cloned();
            // Degraded: the most recently judged window was flagged.
            snap.degraded = snap
                .last_anomaly
                .as_ref()
                .is_some_and(|e| e.window + 1 == d.windows());
            snap.baseline_updates = d.baseline_updates();
            s.anomaly_events = d.events().to_vec();
            s.detector = Some(d.state());
        }
        snap.observatory = observatory.as_ref().map(ObservatoryCounts::of);
        snap.sim_us.observe(sim_us);
        if let Some(us) = last_publish_us {
            snap.publish_us.observe(us);
        }
        last_publish_us = Some(publish_started.elapsed().as_micros() as u64);
        s.observatory = observatory;
        let flagged = drain_events(events, &mut events_cursor, s);
        if let Some(rec) = &mut flightrec {
            for fe in &flagged {
                let anomaly = s.anomaly_events.iter().find(|a| a.window == fe.window);
                let _ = rec.record(
                    "anomaly",
                    fe.window,
                    fe.slice,
                    anomaly,
                    s.detector.as_ref(),
                    s.observatory.as_ref(),
                    &s.events_log,
                );
            }
            s.snap.flightrec_bundles = rec.bundles() as u64;
        }
    }
    // Draining the slice budget ends simulation but NOT serving: the
    // HTTP thread keeps answering until /quit or ServerHandle::wait.
}

/// The accept loop: admission control only. Connections under the
/// limit are queued for the pool; connections over it are shed with a
/// fast `503` (after a best-effort, short-timeout read of the request
/// line, so the client reliably sees the status instead of a reset).
fn run_accept(listener: &TcpListener, plane: &Arc<Plane>) {
    for conn in listener.incoming() {
        // ordering: cold shutdown poll per connection; seqcst for simplicity.
        if plane.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // ordering: admission gate vs pool decrements; seqcst for simplicity.
        if plane.active.load(Ordering::SeqCst) >= plane.max_connections as u64 {
            // ordering: statistics-only shed tally; seqcst for simplicity.
            plane.shed.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let _ = read_request_path(&mut stream, Instant::now() + Duration::from_millis(250));
            let _ = write_response(
                &mut stream,
                503,
                "text/plain; charset=utf-8",
                "overloaded: connection limit reached, request shed\n",
            );
            continue;
        }
        // ordering: admission claim, paired with the pool's decrement; seqcst for simplicity.
        plane.active.fetch_add(1, Ordering::SeqCst);
        let mut q = plane
            .queue
            .pending
            .lock()
            .expect("connection queue poisoned");
        q.push_back(stream);
        drop(q);
        plane.queue.ready.notify_one();
    }
}

/// One HTTP pool worker: pops admitted connections and answers them
/// until the stop flag is set and the queue is drained.
fn run_pool_worker(plane: &Arc<Plane>) {
    loop {
        let stream = {
            let mut q = plane
                .queue
                .pending
                .lock()
                .expect("connection queue poisoned");
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                // ordering: cold shutdown poll while idle; seqcst for simplicity.
                if plane.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = plane
                    .queue
                    .ready
                    .wait(q)
                    .expect("connection queue poisoned");
            }
        };
        let Some(mut stream) = stream else { break };
        handle_connection(&mut stream, plane);
        // ordering: releases the admission slot claimed by the accept loop; seqcst for simplicity.
        plane.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers one admitted connection; `/quit` additionally stops the
/// plane and pokes the listener so the accept loop exits. A request
/// line that misses [`REQUEST_DEADLINE`] is answered `408` and counted.
fn handle_connection(stream: &mut TcpStream, plane: &Arc<Plane>) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let path = match read_request_path(stream, Instant::now() + REQUEST_DEADLINE) {
        Ok(path) => path,
        Err(RequestError::TimedOut) => {
            // ordering: statistics-only timeout tally; seqcst for simplicity.
            plane.timeouts.fetch_add(1, Ordering::SeqCst);
            let body = "request line not received within the deadline\n";
            let _ = write_response(stream, 408, "text/plain; charset=utf-8", body);
            return;
        }
        Err(RequestError::Invalid) => return,
    };
    let quit = path == "/quit" || path.starts_with("/quit?");
    let (status, content_type, body) = route(&path, plane);
    let _ = write_response(stream, status, content_type, &body);
    if quit {
        // ordering: cold control-plane flag; seqcst for simplicity.
        plane.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&plane.addr, Duration::from_secs(1));
        plane.queue.ready.notify_all();
    }
}

/// Why a connection yielded no request path.
enum RequestError {
    /// The request line was not complete by its deadline.
    TimedOut,
    /// The connection closed, failed, or sent something other than a
    /// `GET` request line.
    Invalid,
}

/// Parses the request line (`GET /path HTTP/1.1`) of one connection.
/// The whole line must arrive by `deadline`: each read waits only for
/// the time left, however slowly the bytes come.
fn read_request_path(stream: &mut TcpStream, deadline: Instant) -> Result<String, RequestError> {
    let mut buf = [0u8; 1024];
    let mut filled = 0usize;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(RequestError::TimedOut);
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|_| RequestError::Invalid)?;
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(2).any(|w| w == b"\r\n") || filled == buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestError::TimedOut,
                    _ => RequestError::Invalid,
                });
            }
        }
    }
    let text = core::str::from_utf8(&buf[..filled]).map_err(|_| RequestError::Invalid)?;
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(path.to_string()),
        _ => Err(RequestError::Invalid),
    }
}

/// Reads `key=value` from a query string; `None` on absent or
/// unparseable values.
fn query_u64(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Reads a raw `key=value` string from a query string.
fn query_str<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
}

/// Strictly validates the `/query` range parameters. Absent keys get
/// the documented defaults; present-but-malformed values, `step=0` and
/// inverted ranges are errors (clean 400s, never silent fallbacks).
fn parse_range(query: &str) -> Result<(u64, u64, u64), String> {
    let parse = |key: &str, default: u64| -> Result<u64, String> {
        match query_str(query, key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad {key} '{v}': not a non-negative integer")),
        }
    };
    let from = parse("from", 0)?;
    let to = parse("to", u64::MAX)?;
    let step = parse("step", 1)?;
    if step == 0 {
        return Err("step must be >= 1".to_string());
    }
    if from > to {
        return Err(format!("empty range: from {from} > to {to}"));
    }
    Ok((from, to, step))
}

/// Parses the optional `shard=` drill-down parameter. `None` means the
/// merged plane; out-of-range or malformed values are errors.
fn parse_shard(query: &str, shards: usize) -> Result<Option<usize>, String> {
    match query_str(query, "shard") {
        None => Ok(None),
        Some(v) => {
            let i: usize = v
                .parse()
                .map_err(|_| format!("bad shard '{v}': not an index"))?;
            if i >= shards {
                return Err(format!("shard {i} out of range ({shards} shards)"));
            }
            Ok(Some(i))
        }
    }
}

fn bad_request(msg: String) -> (u16, &'static str, String) {
    (400, "text/plain; charset=utf-8", format!("{msg}\n"))
}

fn poisoned() -> (u16, &'static str, String) {
    (
        500,
        "text/plain; charset=utf-8",
        "state poisoned\n".to_string(),
    )
}

/// The `GET /query?series=S[&from=A][&to=B][&step=N][&shard=K]`
/// endpoint: a range query over retained observatory history.
/// `from`/`to` are raw window indexes (inclusive, defaulting to
/// everything) and `step` picks the resolution: the coarsest level
/// whose factor is ≤ `step` answers, so `step=1` reads raw buckets,
/// `step=10` the 10× ring and `step=100` the 100× ring. Without
/// `shard=`, the query fans out to every shard observatory and merges
/// buckets (sums add, minima/maxima compose), so the merged energy
/// total is exactly the sum of the per-shard totals.
fn query_response(query: &str, plane: &Plane) -> (u16, &'static str, String) {
    let Some(series) = query_str(query, "series") else {
        return bad_request("missing series parameter".to_string());
    };
    let (from, to, step) = match parse_range(query) {
        Ok(r) => r,
        Err(msg) => return bad_request(msg),
    };
    let shard = match parse_shard(query, plane.shards.len()) {
        Ok(s) => s,
        Err(msg) => return bad_request(msg),
    };
    let placeholder = || {
        (
            200,
            "application/json",
            format!(
                "{{\"series\":\"{}\",\"level\":0,\"factor\":1,\"from\":0,\"to\":0,\"step\":1,\"points\":[]}}",
                json_escape(series)
            ),
        )
    };
    let mut results: Vec<QueryResult> = Vec::new();
    let mut have_observatory = false;
    for k in plane.addressed(shard) {
        let Ok(s) = plane.shards[k].state.lock() else {
            return poisoned();
        };
        if let Some(obs) = &s.observatory {
            have_observatory = true;
            if let Some(q) = obs.query(series, from, to, step) {
                results.push(q);
            }
        }
    }
    if !have_observatory {
        return placeholder();
    }
    match merge_query_results(results) {
        Some(merged) => (200, "application/json", query_result_json(&merged)),
        None => bad_request(format!("unknown series '{series}'")),
    }
}

/// Formats a merged-plane cursor: one absolute per-shard sequence,
/// dot-joined (`"12.34"` = shard 0 at 12, shard 1 at 34).
pub fn format_multi_cursor(cursors: &[u64]) -> String {
    let mut out = String::with_capacity(4 * cursors.len());
    for (i, c) in cursors.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        let _ = write!(out, "{c}");
    }
    out
}

/// Parses a merged-plane cursor back into per-shard sequences. Short
/// cursors zero-pad (so `"0"` — or an absent parameter — starts every
/// shard from its oldest retained event); overlong or non-numeric
/// cursors are `None`.
pub fn parse_multi_cursor(s: &str, shards: usize) -> Option<Vec<u64>> {
    let mut cursors = vec![0u64; shards];
    if s.is_empty() {
        return Some(cursors);
    }
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() > shards {
        return None;
    }
    for (i, p) in parts.iter().enumerate() {
        cursors[i] = p.parse().ok()?;
    }
    Some(cursors)
}

/// Reads every shard ring once from its cursor: the merged `/events`
/// read. Each [`EventBatch`] keeps its shard's absolute sequence space
/// (`next` is monotone per shard; `dropped` counts that shard's losses
/// in `[since, next)`), which is what the cursor-space property tests
/// pin down.
pub fn merged_read_since(buses: &[Arc<EventBus>], since: &[u64], max: usize) -> Vec<EventBatch> {
    buses
        .iter()
        .zip(since)
        .map(|(bus, &s)| bus.read_since(s, max))
        .collect()
}

/// The `/events` body over the addressed rings. One ring (a 1-shard
/// plane, or `?shard=K`) keeps the numeric cursor and untagged events;
/// several rings page the aggregated cursor space — dot-joined
/// per-shard cursors, per-shard `dropped`/`published` arrays and
/// shard-tagged events. Either way `since` parses through
/// [`parse_multi_cursor`], so a malformed cursor is a clean 400.
fn events_response(query: &str, plane: &Plane) -> (u16, &'static str, String) {
    let buses: Vec<Arc<EventBus>> = match parse_shard(query, plane.shards.len()) {
        Ok(shard) => plane
            .addressed(shard)
            .map(|k| Arc::clone(&plane.shards[k].events))
            .collect(),
        Err(msg) => return bad_request(msg),
    };
    let n = buses.len();
    let raw_since = query_str(query, "since").unwrap_or("");
    let Some(since) = parse_multi_cursor(raw_since, n) else {
        return bad_request(format!(
            "bad since '{raw_since}': want up to {n} dot-joined u64s"
        ));
    };
    let max = query_u64(query, "max").unwrap_or(1_000).min(4_096) as usize;
    let timeout_ms = query_u64(query, "timeout_ms")
        .unwrap_or(0)
        .min(EVENTS_POLL_CAP_MS);
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut batches = merged_read_since(&buses, &since, max);
    while batches.iter().all(|b| b.events.is_empty())
        && Instant::now() < deadline
        // ordering: cold shutdown poll in the long-poll loop; seqcst for simplicity.
        && !plane.stop.load(Ordering::SeqCst)
    {
        thread::sleep(Duration::from_millis(25));
        batches = merged_read_since(&buses, &since, max);
    }
    let multi = n > 1;
    let (quote, open, close, shards) = if multi {
        ("\"", "[", "]", format!(",\"shards\":{n}"))
    } else {
        ("", "", "", String::new())
    };
    let next: Vec<u64> = batches.iter().map(|b| b.next).collect();
    let dropped = list(&batches, |b| b.dropped.to_string());
    let published = list(&batches, |b| b.published.to_string());
    let enabled = buses.iter().any(|b| b.is_enabled());
    let total: usize = batches.iter().map(|b| b.events.len()).sum();
    let mut out = String::with_capacity(128 + 104 * total);
    let _ = write!(
        out,
        "{{\"since\":{quote}{}{quote},\"next\":{quote}{}{quote}{shards}\
         ,\"dropped\":{open}{dropped}{close},\"published\":{open}{published}{close}\
         ,\"enabled\":{enabled},\"events\":[",
        format_multi_cursor(&since),
        format_multi_cursor(&next)
    );
    let tagged = batches
        .iter()
        .enumerate()
        .flat_map(|(shard, b)| b.events.iter().map(move |e| (shard, e)));
    for (i, (shard, e)) in tagged.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let obj = e.to_json_obj();
        if multi {
            // Splice the shard tag into the event object.
            let _ = write!(out, "{{\"shard\":{shard},{}", &obj[1..]);
        } else {
            out.push_str(&obj);
        }
    }
    out.push_str("]}");
    (200, "application/json", out)
}

/// `items` rendered through `f`, comma-joined.
fn list<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(",")
}

/// A histogram's `"p50":…,"p95":…,"p99":…` fields.
fn quantiles(h: &CycleHistogram) -> String {
    format!(
        "\"p50\":{},\"p95\":{},\"p99\":{}",
        json_num(h.quantile(0.5)),
        json_num(h.quantile(0.95)),
        json_num(h.quantile(0.99))
    )
}

/// What one `/status`, `/healthz` or `/metrics` render sees: the
/// addressed shards' snapshots, each copied while its lock was held for
/// the copy alone, and their merge.
struct View<'p> {
    plane: &'p Plane,
    /// `Some(k)` for a `?shard=k` drill-down.
    shard: Option<usize>,
    /// `(index, snapshot)` of every addressed shard.
    shards: Vec<(usize, ShardSnapshot)>,
    /// The merge of `shards`.
    total: ShardSnapshot,
}

impl<'p> View<'p> {
    /// Copies the addressed shards' snapshots and merges them; `None`
    /// if a shard's state is poisoned.
    fn new(plane: &'p Plane, shard: Option<usize>) -> Option<View<'p>> {
        let shards = plane
            .addressed(shard)
            .map(|k| Some((k, plane.shards[k].state.lock().ok()?.snap.clone())))
            .collect::<Option<Vec<_>>>()?;
        let mut total = ShardSnapshot::default();
        for (_, snap) in &shards {
            total.merge(snap);
        }
        Some(View {
            plane,
            shard,
            shards,
            total,
        })
    }

    /// `{"status":"ok"` plus, for a drill-down, the shard index.
    fn head(&self) -> String {
        match self.shard {
            Some(k) => format!("{{\"status\":\"ok\",\"shard\":{k}"),
            None => "{\"status\":\"ok\"".to_string(),
        }
    }
}

/// The `/status` document, one shape for the merged plane, a
/// `?shard=K` drill-down (which adds `"shard":K`) and the shutdown
/// flush. Hand-built like every exporter in the workspace; the flushed
/// copy is self-checked with [`validate_json`].
fn status_json(view: &View) -> String {
    let (plane, t) = (view.plane, &view.total);
    let last = t.last_anomaly.as_ref().map_or("null".to_string(), |e| {
        format!(
            "{{\"window\":{},\"start_cycle\":{},\"deviation_pct\":{},\"z_score\":{}}}",
            e.window,
            e.start_cycle,
            json_num(e.deviation_pct),
            json_num(e.z_score)
        )
    });
    let per_master = list(&t.per_master_j, |j| json_num(*j));
    let observatory = t.observatory.map_or("null".to_string(), |obs| {
        let levels = list(
            OBSERVATORY_LEVEL_FACTORS.iter().enumerate(),
            |(level, factor)| {
                let (occupancy, opened) = (obs.occupancy[level], obs.opened[level]);
                format!("{{\"factor\":{factor},\"occupancy\":{occupancy},\"opened\":{opened}}}")
            },
        );
        format!("{{\"windows\":{},\"levels\":[{levels}]}}", obs.windows)
    });
    let replay = t.replay.unwrap_or_default();
    let stages = [
        ("sim", &t.sim_us),
        ("publish", &t.publish_us),
        ("render", &t.render_us),
    ];
    let stages = list(stages, |(stage, h)| {
        format!(
            "\"{stage}_us\":{{\"count\":{},{}}}",
            h.count(),
            quantiles(h)
        )
    });
    let instructions = list(t.instructions.rows(), |row| {
        let (name, count) = (row.instruction.name(), row.count);
        let (total, mean) = (json_num(row.total), json_num(row.average));
        format!("{{\"name\":\"{name}\",\"count\":{count},\"total_j\":{total},\"mean_j\":{mean}}}")
    });
    let detail = list(&view.shards, |(k, s)| {
        format!(
            "{{\"shard\":{k},\"scenario_mix\":\"{}\",\"seed\":{},\"slices\":{},\"cycles\":{},\"total_energy_j\":{},\"transactions\":{},\"anomalies\":{},\"degraded\":{},\"events\":{{\"published\":{},\"dropped\":{},\"lag\":{}}},\"observatory_windows\":{},\"flightrec_bundles\":{}}}",
            plane.mix.name(),
            shard_seed(plane.seed, *k),
            s.slices,
            s.cycles,
            json_num(s.total_energy_j),
            s.transactions,
            s.anomaly_count,
            s.degraded,
            s.events_published,
            s.events_dropped,
            s.events_lag,
            s.observatory.map_or(0, |o| o.windows),
            s.flightrec_bundles
        )
    });
    format!(
        "{},\"shards\":{},\"scenario_mix\":\"{}\",\"uptime_s\":{},\"slices\":{},\"cycles\":{},\"seed\":{},\"total_energy_j\":{}\
         ,\"window_power_uw\":{{\"windows\":{},{}}}\
         ,\"anomalies\":{{\"windows\":{},\"count\":{},\"baseline_updates\":{},\"last\":{last}}}\
         ,\"transactions\":{},\"per_master_j\":[{per_master}]\
         ,\"events\":{{\"enabled\":{},\"published\":{},\"dropped\":{},\"logged\":{},\"cursor\":{},\"lag\":{}}}\
         ,\"degraded\":{},\"high_water\":{{\"slice\":{},\"window\":{}}},\"observatory\":{observatory}\
         ,\"flightrec\":{{\"bundles\":{}}}\
         ,\"replay\":{{\"trace_cycles\":{},\"variants\":{},\"cycles_per_sec\":{}}}\
         ,\"http\":{{\"threads\":{},\"max_connections\":{},\"active\":{},\"shed\":{}}}\
         ,\"stages\":{{{stages}}},\"instructions\":[{instructions}],\"shard_detail\":[{detail}]}}",
        view.head(),
        plane.shards.len(),
        plane.mix.name(),
        json_num(plane.uptime_s()),
        t.slices,
        t.cycles,
        // The drilled shard's seed lane; the merged plane shows the base seed.
        shard_seed(plane.seed, view.shard.unwrap_or(0)),
        json_num(t.total_energy_j),
        t.window_power_uw.count(),
        quantiles(&t.window_power_uw),
        t.anomaly_windows,
        t.anomaly_count,
        t.baseline_updates,
        t.transactions,
        t.events_enabled,
        t.events_published,
        t.events_dropped,
        t.events_logged,
        t.events_cursor,
        t.events_lag,
        t.degraded,
        t.high_water_slice,
        t.high_water_window,
        t.flightrec_bundles,
        replay.trace_cycles,
        replay.variants,
        json_num(replay.cycles_per_sec),
        plane.http_threads,
        plane.max_connections,
        // ordering: monitoring reads of hot admission counters; seqcst for simplicity.
        plane.active.load(Ordering::SeqCst),
        // ordering: monitoring read of the shed tally; seqcst for simplicity.
        plane.shed.load(Ordering::SeqCst)
    )
}

/// The `/healthz` document: liveness, the degraded flag and the
/// slice/window high-water marks, in one shape for every selection.
fn healthz_json(view: &View) -> String {
    format!(
        "{},\"uptime_s\":{},\"degraded\":{},\"shards\":{},\"shed\":{},\"high_water\":{{\"slice\":{},\"window\":{}}}}}",
        view.head(),
        json_num(view.plane.uptime_s()),
        view.total.degraded,
        view.plane.shards.len(),
        // ordering: monitoring read of the shed tally; seqcst for simplicity.
        view.plane.shed.load(Ordering::SeqCst),
        view.total.high_water_slice,
        view.total.high_water_window
    )
}

/// One `/metrics` sample: a counter or gauge value, or a distribution.
enum Sample<'a> {
    Scalar(SampleValue),
    Hist(&'a CycleHistogram),
}

/// A snapshot the `/metrics` series are written for, with its
/// `shard="K"` label value (`None` for the merge).
type Source<'v> = (Option<&'v str>, &'v ShardSnapshot);

/// A `/metrics` family: name, help and kind.
type Family = (&'static str, &'static str, MetricKind);

/// An unlabelled family with the function that reads its value off a `T`.
type ValueFamily<T> = (Family, fn(&T) -> SampleValue);

/// The unlabelled families every snapshot exports, with their values.
#[rustfmt::skip]
const SNAPSHOT_FAMILIES: [ValueFamily<ShardSnapshot>; 13] = {
    use MetricKind::{Counter, Gauge};
    [
        (("serve_slices_total", "Workload slices completed.", Counter), |s| s.slices.into()),
        (("ahb_cycles_total", "Bus cycles simulated.", Counter), |s| s.cycles.into()),
        (("power_total_energy_joules", "Total bus energy booked.", Counter),
            |s| s.total_energy_j.into()),
        (("energy_anomaly_windows_total", "Detection windows judged.", Counter),
            |s| s.anomaly_windows.into()),
        (("energy_anomaly_events_total", "Windows flagged as energy anomalies.", Counter),
            |s| s.anomaly_count.into()),
        (("energy_anomaly_baseline_updates_total",
            "Clean windows absorbed into the rolling baseline.", Counter),
            |s| s.baseline_updates.into()),
        (("serve_transactions_total", "Bus transactions completed.", Counter),
            |s| s.transactions.into()),
        (("serve_events_published_total", "Structured events published to the ring.", Counter),
            |s| s.events_published.into()),
        (("serve_events_dropped_total", "Structured events lost to ring wraparound.", Counter),
            |s| s.events_dropped.into()),
        (("serve_events_cursor_lag", "Events published but not yet drained by the worker.", Gauge),
            |s| s.events_lag.into()),
        (("serve_degraded",
            "1 while any shard's most recently judged detection window was flagged.", Gauge),
            |s| u64::from(s.degraded).into()),
        (("serve_flightrec_bundles_total", "Flight-recorder bundles written.", Counter),
            |s| s.flightrec_bundles.into()),
        (("serve_replay_cycles_per_second",
            "Replay throughput from the startup record/replay self-calibration.", Gauge),
            |s| s.replay.map_or(0.0, |r| r.cycles_per_sec).into()),
    ]
};

/// The serving plane's own families (one sample each, never per
/// shard), with their values.
#[rustfmt::skip]
const PLANE_FAMILIES: [ValueFamily<Plane>; 7] = {
    use MetricKind::{Counter, Gauge};
    [
        (("serve_uptime_seconds", "Service uptime.", Gauge), |p| p.uptime_s().into()),
        (("serve_shards", "Worker shards running.", Gauge), |p| (p.shards.len() as u64).into()),
        (("serve_http_threads", "HTTP pool size.", Gauge), |p| (p.http_threads as u64).into()),
        (("serve_http_max_connections",
            "Admission limit: connections admitted beyond this are shed.", Gauge),
            |p| (p.max_connections as u64).into()),
        (("serve_http_active_connections", "Connections admitted and not yet answered.", Gauge),
            // ordering: monitoring read of a hot admission counter; seqcst for simplicity.
            |p| p.active.load(Ordering::SeqCst).into()),
        (("serve_http_shed_total", "Connections shed with 503 by the admission limit.", Counter),
            // ordering: monitoring read of the shed tally; seqcst for simplicity.
            |p| p.shed.load(Ordering::SeqCst).into()),
        (("serve_http_request_timeouts_total",
            "Connections answered 408 because the request line missed its deadline.", Counter),
            // ordering: monitoring read of the timeout tally; seqcst for simplicity.
            |p| p.timeouts.load(Ordering::SeqCst).into()),
    ]
};

/// Writes one family: for every source, `rows` yields `(label,
/// sample)` pairs. Each sample is labelled `key="label"` unless `key` is
/// empty, and a per-shard source's samples also carry `shard="K"`.
fn family<'v, I>(
    sink: &mut impl MetricSink,
    sources: &[Source<'v>],
    (name, help, kind): Family,
    key: &str,
    rows: impl Fn(&'v ShardSnapshot) -> I,
) where
    I: IntoIterator<Item = (&'v str, Sample<'v>)>,
{
    sink.family(name, help, kind);
    for &(shard, snap) in sources {
        for (label, sample) in rows(snap) {
            let pairs = [(key, label), ("shard", shard.unwrap_or_default())];
            let labels = &pairs[usize::from(key.is_empty())..1 + usize::from(shard.is_some())];
            match sample {
                Sample::Scalar(v) => sink.sample(labels, v),
                Sample::Hist(h) => sink.histogram(labels, h),
            }
        }
    }
}

/// Every instruction's name, by index, formatted once per process.
fn instruction_names() -> &'static [String; INSTRUCTION_COUNT] {
    static NAMES: OnceLock<[String; INSTRUCTION_COUNT]> = OnceLock::new();
    NAMES.get_or_init(|| std::array::from_fn(|i| Instruction::from_index(i).name()))
}

/// A snapshot's booked instructions: `(name, count, total joules)`.
fn instruction_rows(s: &ShardSnapshot) -> impl Iterator<Item = (&'static str, u64, f64)> + '_ {
    let names = instruction_names();
    Instruction::all().filter_map(move |i| {
        let count = s.instructions.count(i);
        (count > 0).then(|| (names[i.index()].as_str(), count, s.instructions.energy(i)))
    })
}

/// The `/metrics` series, the only definition of them, written
/// family-major into any [`MetricSink`]: each family's merged
/// sample(s) first, then — when several shards are addressed — every
/// shard's under `shard="K"`, and last the serving plane's own
/// families. `/metrics` feeds it a [`PromWriter`] (exposition text, no
/// registry); the shutdown flush feeds it a [`RegistrySink`].
fn metrics_series(view: &View, sink: &mut impl MetricSink) {
    use MetricKind::{Counter, Gauge, Histogram};
    use Sample::{Hist, Scalar};
    let t = &view.total;
    // Label values for shard, master and level indexes.
    let n_indexes = (view.plane.shards.len())
        .max(t.per_master_j.len())
        .max(OBSERVATORY_LEVEL_FACTORS.len());
    let indexes: Vec<String> = (0..n_indexes).map(|i| i.to_string()).collect();
    let indexes = &indexes[..];
    let mut sources: Vec<Source> = vec![(None, t)];
    if view.shards.len() > 1 {
        let shards = view.shards.iter();
        sources.extend(shards.map(|(k, s)| (Some(indexes[*k].as_str()), s)));
    }
    let all = &sources[..];

    for (fam, value) in SNAPSHOT_FAMILIES {
        family(sink, all, fam, "", |s| [("", Scalar(value(s)))]);
    }
    // Table 1: per-instruction cycles, energy and mean energy.
    let rows = instruction_rows;
    let fam = (
        "power_instruction_cycles_total",
        "Cycles booked per instruction.",
        Counter,
    );
    family(sink, all, fam, "instruction", |s| {
        rows(s).map(|(name, count, _)| (name, Scalar(count.into())))
    });
    let fam = (
        "power_instruction_energy_joules",
        "Energy booked per instruction.",
        Counter,
    );
    family(sink, all, fam, "instruction", |s| {
        rows(s).map(|(name, _, total)| (name, Scalar(total.into())))
    });
    let fam = (
        "power_instruction_mean_energy_joules",
        "Mean energy per instruction occurrence.",
        Gauge,
    );
    family(sink, all, fam, "instruction", |s| {
        rows(s).map(|(name, count, total)| (name, Scalar((total / count as f64).into())))
    });
    let fam = (
        "power_master_energy_joules",
        "Energy attributed per bus master.",
        Counter,
    );
    family(sink, all, fam, "master", |s| {
        let per_master = s.per_master_j.iter().enumerate();
        per_master.map(|(i, j)| (indexes[i].as_str(), Scalar((*j).into())))
    });
    let fam = (
        "serve_observatory_windows_total",
        "Raw windows ingested by the power observatory.",
        Counter,
    );
    family(sink, all, fam, "", |s| {
        s.observatory.map(|o| ("", Scalar(o.windows.into())))
    });
    let levels = |s: &ShardSnapshot| {
        let obs = s.observatory.into_iter();
        obs.flat_map(|o| (0..OBSERVATORY_LEVEL_FACTORS.len()).map(move |l| (l, o)))
    };
    let fam = (
        "serve_observatory_ring_occupancy",
        "Occupied observatory ring buckets per level.",
        Gauge,
    );
    family(sink, all, fam, "level", |s| {
        levels(s).map(|(l, o)| (indexes[l].as_str(), Scalar(o.occupancy[l].into())))
    });
    let fam = (
        "serve_observatory_cascade_buckets_total",
        "Buckets opened per observatory level (downsample cascades).",
        Counter,
    );
    family(sink, all, fam, "level", |s| {
        levels(s).map(|(l, o)| (indexes[l].as_str(), Scalar(o.opened[l].into())))
    });
    let fam = (
        "serve_window_power_microwatts",
        "Windowed bus power distribution.",
        Histogram,
    );
    family(sink, all, fam, "", |s| [("", Hist(&s.window_power_uw))]);
    let fam = (
        "serve_stage_duration_microseconds",
        "Wall-clock per pipeline stage.",
        Histogram,
    );
    family(sink, all, fam, "stage", |s| {
        let stages = [
            ("sim", &s.sim_us),
            ("publish", &s.publish_us),
            ("render", &s.render_us),
        ];
        stages.map(|(stage, h)| (stage, Hist(h)))
    });

    for (fam, value) in PLANE_FAMILIES {
        family(sink, &sources[..1], fam, "", |_| {
            [("", Scalar(value(view.plane)))]
        });
    }
}

/// `/status`, `/healthz` and `/metrics`: copy the addressed snapshots,
/// merge them and render once, with no shard lock held while the body
/// is formatted.
fn snapshot_response(endpoint: &str, query: &str, plane: &Plane) -> (u16, &'static str, String) {
    let shard = match parse_shard(query, plane.shards.len()) {
        Ok(s) => s,
        Err(msg) => return bad_request(msg),
    };
    let started = Instant::now();
    let Some(view) = View::new(plane, shard) else {
        return poisoned();
    };
    match endpoint {
        "/healthz" => (200, "application/json", healthz_json(&view)),
        "/metrics" => (200, "text/plain; version=0.0.4; charset=utf-8", {
            let mut w = PromWriter::with_capacity(METRICS_BODY_HINT);
            metrics_series(&view, &mut w);
            w.finish()
        }),
        _ => {
            let body = status_json(&view);
            // Self-measured with one-render lag, booked to the shard
            // that answered (shard 0 for the merged view): this
            // observation shows up in the next render's stages block.
            if let Ok(mut s) = plane.shards[shard.unwrap_or(0)].state.lock() {
                s.snap
                    .render_us
                    .observe(started.elapsed().as_micros() as u64);
            }
            (200, "application/json", body)
        }
    }
}

/// Maps a path (plus optional query string) to
/// `(status, content-type, body)`.
fn route(path: &str, plane: &Plane) -> (u16, &'static str, String) {
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/" | "/dashboard" => (200, "text/html; charset=utf-8", DASHBOARD_HTML.to_string()),
        "/events" => events_response(query, plane),
        "/healthz" | "/metrics" | "/status" => snapshot_response(path, query, plane),
        "/query" => query_response(query, plane),
        "/quit" => (
            200,
            "text/plain; charset=utf-8",
            "shutting down\n".to_string(),
        ),
        _ => (404, "text/plain; charset=utf-8", "not found\n".to_string()),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A fetched HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response body (after the blank line).
    pub body: String,
}

/// Minimal std-only HTTP GET — the fetch helper `check.sh` and the
/// integration tests use instead of curl.
///
/// # Errors
///
/// [`ServeError::Io`] on connect/read trouble,
/// [`ServeError::SelfCheck`] on an unparseable response.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<HttpResponse, ServeError> {
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| ServeError::SelfCheck(format!("bad address '{addr}': {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ServeError::SelfCheck(format!("unparseable response: {raw:.80}")))?;
    let body = match raw.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok(HttpResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// A histogram over `bounds` holding a handful of samples.
    fn histogram(bounds: &[u64], r: &mut TestRng) -> CycleHistogram {
        let mut h = CycleHistogram::new(bounds);
        for _ in 0..r.below(8) {
            h.observe(r.below(2 * bounds[bounds.len() - 1]));
        }
        h
    }

    /// A snapshot with every field drawn from `seed`. Small ranges for
    /// windows and trace cycles make ties (and so the tie-break rules)
    /// common; optional parts are often absent.
    fn snapshot(seed: u64) -> ShardSnapshot {
        let r = &mut TestRng::seed_from_u64(seed);
        ShardSnapshot {
            slices: r.below(100),
            cycles: r.below(1 << 30),
            total_energy_j: r.next_f64() * 1e-6,
            instructions: InstructionLedger::from_parts(
                std::array::from_fn(|_| r.below(3) * r.below(999)),
                std::array::from_fn(|_| r.next_f64() * 1e-9),
            ),
            per_master_j: (0..r.below(4)).map(|_| r.next_f64() * 1e-7).collect(),
            transactions: r.below(1 << 20),
            window_power_uw: histogram(&WINDOW_POWER_BOUNDS_UW, r),
            anomaly_windows: r.below(50),
            anomaly_count: r.below(5),
            last_anomaly: (r.below(2) == 0).then(|| AnomalyEvent {
                window: r.below(4),
                start_cycle: r.below(1 << 20),
                measured_j: r.next_f64(),
                predicted_j: r.next_f64(),
                deviation_pct: r.next_f64() * 100.0,
                z_score: r.next_f64() * 10.0,
            }),
            baseline_updates: r.below(50),
            degraded: r.below(2) == 0,
            high_water_slice: r.below(100),
            high_water_window: r.below(50),
            events_enabled: r.below(2) == 0,
            events_published: r.below(1 << 20),
            events_dropped: r.below(100),
            events_logged: r.below(1 << 20),
            events_cursor: r.below(1 << 20),
            events_lag: r.below(100),
            observatory: (r.below(2) == 0).then(|| ObservatoryCounts {
                windows: r.below(1000),
                occupancy: [r.below(1024), r.below(1024), r.below(1024)],
                opened: [r.below(1000), r.below(100), r.below(10)],
            }),
            flightrec_bundles: r.below(32),
            replay: (r.below(2) == 0).then(|| ReplayCalibration {
                trace_cycles: r.below(4),
                variants: r.below(16),
                cycles_per_sec: r.next_f64() * 1e7,
            }),
            sim_us: histogram(&STAGE_US_BOUNDS, r),
            publish_us: histogram(&STAGE_US_BOUNDS, r),
            render_us: histogram(&STAGE_US_BOUNDS, r),
        }
    }

    fn merged(mut a: ShardSnapshot, b: &ShardSnapshot) -> ShardSnapshot {
        a.merge(b);
        a
    }

    /// Every f64 sum in a snapshot, and the snapshot with them zeroed.
    fn split(s: &ShardSnapshot) -> (Vec<f64>, ShardSnapshot) {
        let mut exact = s.clone();
        let mut sums = vec![std::mem::take(&mut exact.total_energy_j)];
        sums.extend(exact.per_master_j.iter_mut().map(std::mem::take));
        let ledger = &s.instructions;
        let at = Instruction::from_index;
        sums.extend((0..INSTRUCTION_COUNT).map(|i| ledger.energy(at(i))));
        let counts = std::array::from_fn(|i| ledger.count(at(i)));
        exact.instructions = InstructionLedger::from_parts(counts, [0.0; INSTRUCTION_COUNT]);
        (sums, exact)
    }

    /// A plane of `shards` idle shards: no worker has published yet.
    fn idle_plane(shards: usize) -> Plane {
        Plane {
            shards: (0..shards)
                .map(|_| ShardRef {
                    state: Mutex::new(LiveState::default()),
                    events: EventBus::shared(8),
                })
                .collect(),
            stop: AtomicBool::new(false),
            queue: ConnQueue {
                pending: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            active: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            started: Instant::now(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            mix: ScenarioMix::Paper,
            seed: 0,
            http_threads: 1,
            max_connections: 1,
        }
    }

    #[test]
    fn query_placeholder_escapes_the_series_name() {
        let plane = idle_plane(2);
        let (status, content_type, body) = query_response("series=a\"b\\c&step=10", &plane);
        assert_eq!((status, content_type), (200, "application/json"));
        assert!(validate_json(&body).is_ok(), "invalid JSON: {body}");
        assert!(body.starts_with(r#"{"series":"a\"b\\c","#), "{body}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One shard is a merge of one: the empty snapshot is a two-sided
        /// identity, and grouping never changes a merged view.
        #[test]
        fn snapshot_merge_is_associative_with_identity(seeds in (any::<u64>(), any::<u64>(), any::<u64>())) {
            let (a, b, c) = (snapshot(seeds.0), snapshot(seeds.1), snapshot(seeds.2));
            let empty = ShardSnapshot::default();
            prop_assert_eq!(&merged(empty.clone(), &a), &a);
            prop_assert_eq!(&merged(a.clone(), &empty), &a);
            // Integers, flags, histograms and picks agree exactly; f64
            // sums only to rounding.
            let (left, left_exact) = split(&merged(merged(a.clone(), &b), &c));
            let (right, right_exact) = split(&merged(a, &merged(b, &c)));
            prop_assert_eq!(left_exact, right_exact);
            for (x, y) in left.iter().zip(&right) {
                prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(y.abs()), "{x} vs {y}");
            }
        }
    }
}
