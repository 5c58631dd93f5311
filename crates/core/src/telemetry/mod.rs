//! Unified telemetry: a metrics registry, hot-loop spans, bus-performance
//! analyzers and JSONL/CSV/Prometheus exporters.
//!
//! Telemetry is **off by default** and opt-in at runtime through
//! [`TelemetryConfig`]: a disabled [`crate::PowerSession`] carries no
//! telemetry state at all and its hot loop is the same code path as before
//! this module existed (one `Option` discriminant test per run, not per
//! cycle). When enabled, the session decodes every [`BusSnapshot`] once
//! with a [`PhaseDecoder`], feeds the phase record to a
//! [`BusPerfAnalyzer`] (and the event tap, when a ring is attached) and
//! times its own observer loop as the
//! `session_observe` span: one clock pair per [`crate::PowerSession::run`]
//! call, counted per cycle, so no clock is read per cycle; at the end of the
//! run [`Telemetry::finalize`] folds the analyzers, the power FSM's
//! ledgers and any kernel profile into a [`MetricsRegistry`], which the
//! exporters render in three formats.
//!
//! Detection windows have one clock and one book: with an anomaly
//! detector, an observatory or an event ring attached, each cycle's
//! energy is booked once into the window's energy book (per instruction,
//! per sub-block and per bus owner, as the power FSM books it), and every
//! `window_cycles` cycles the closed window is judged by the detector,
//! ingested by the observatory and published by the event tap, all from
//! that one book.
//!
//! ```
//! use ahbpower::telemetry::{Telemetry, TelemetryConfig};
//! use ahbpower::{AnalysisConfig, PowerSession};
//! use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
//!
//! let cfg = AnalysisConfig::paper_testbench();
//! let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
//!     .master(Box::new(ScriptedMaster::new(vec![Op::write(0x0, 1), Op::read(0x0)])))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .build()?;
//! let mut session =
//!     PowerSession::with_telemetry(&cfg, TelemetryConfig::enabled("doc_example"));
//! session.run(&mut bus, 50);
//! let telemetry = session.finish_telemetry().expect("telemetry was enabled");
//! assert!(telemetry.to_prometheus().contains("ahb_cycles_total 50"));
//! # Ok::<(), ahbpower_ahb::BuildBusError>(())
//! ```
//!
//! [`BusSnapshot`]: ahbpower_ahb::BusSnapshot

mod analyzers;
mod anomaly;
mod atomics;
mod events;
mod export;
mod observatory;
mod registry;
mod span;

pub use analyzers::{publish_bus_perf, publish_kernel, publish_power, publish_spans};
pub use anomaly::{AnomalyConfig, AnomalyDetector, AnomalyEvent, DetectorState, WindowVerdict};
pub use atomics::{AtomicBoolCell, AtomicU64Cell, Atomics, StdAtomics};
pub use events::{
    Event, EventBatch, EventBus, EventKind, EventsTap, GenericEventBus, RingMutation,
    DEFAULT_EVENT_CAPACITY,
};
pub use export::{
    events_to_jsonl, json_escape, json_num, prom_escape_label, prom_unescape_label, to_csv,
    to_folded, to_jsonl, to_prometheus, to_trace_events, ExportMeta, MetricKind, MetricSink,
    PromWriter, RegistrySink, SampleValue, TraceEventMeta,
};
pub use observatory::{
    Observatory, ObservatoryConfig, QueryResult, SeriesPoint, DEFAULT_OBSERVATORY_CAPACITY,
    OBSERVATORY_LEVEL_FACTORS,
};
pub use registry::{
    is_valid_metric_name, sanitize_metric_name, Counter, CounterId, Gauge, GaugeId, Histogram,
    HistogramId, MetricMeta, MetricsRegistry,
};
pub use span::{SpanId, SpanSet};

use std::sync::Arc;
use std::time::Duration;

use ahbpower_ahb::{BusPerfAnalyzer, BusSnapshot, PhaseDecoder};
use ahbpower_sim::{KernelProfile, KernelStats};

use crate::instruction::Instruction;
use crate::ledger::EnergyBook;
use crate::macromodel::BlockEnergy;
use crate::power_fsm::PowerFsm;
use crate::replay::{MASTER_MASK, MASTER_SHIFT};

/// Runtime switchboard for the telemetry subsystem. Default: disabled.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch; `false` means the session allocates no telemetry
    /// state whatsoever.
    pub enabled: bool,
    /// Scenario label stamped into exports.
    pub scenario: String,
    /// Workload seed stamped into exports.
    pub seed: u64,
    /// On-line anomaly detection; `None` (the default) runs none.
    pub anomaly: Option<AnomalyConfig>,
    /// Structured event ring this session publishes into; `None` (the
    /// default) attaches no event tap at all.
    pub events: Option<Arc<EventBus>>,
    /// Multi-resolution power-history retention; `None` (the default)
    /// retains nothing.
    pub observatory: Option<ObservatoryConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            scenario: "default".to_string(),
            seed: 0,
            anomaly: None,
            events: None,
            observatory: None,
        }
    }
}

impl TelemetryConfig {
    /// An enabled configuration with the given scenario label.
    pub fn enabled(scenario: &str) -> Self {
        TelemetryConfig {
            enabled: true,
            scenario: scenario.to_string(),
            seed: 0,
            anomaly: None,
            events: None,
            observatory: None,
        }
    }

    /// Sets the workload seed stamped into exports.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables on-line anomaly detection with the given configuration.
    pub fn with_anomaly(mut self, cfg: AnomalyConfig) -> Self {
        self.anomaly = Some(cfg);
        self
    }

    /// Attaches a shared structured-event ring; the session's cycles,
    /// transactions, windows and anomalies are published into it as
    /// causally-linked [`Event`]s.
    pub fn with_events(mut self, bus: Arc<EventBus>) -> Self {
        self.events = Some(bus);
        self
    }

    /// Enables the multi-resolution power observatory. Its raw window
    /// length is inherited from the anomaly detector's window (or the
    /// default) so window ids line up across subsystems.
    pub fn with_observatory(mut self, cfg: ObservatoryConfig) -> Self {
        self.observatory = Some(cfg);
        self
    }
}

/// Live telemetry state for one analysis run: the phase decoder and the
/// bus-performance analyzer fed per cycle, the window clock and window
/// book the anomaly detector, observatory and event tap read, the span
/// set timing the observer loop, and the registry everything is
/// published into at the end.
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    registry: MetricsRegistry,
    decoder: PhaseDecoder,
    perf: BusPerfAnalyzer,
    spans: SpanSet,
    observe_span: SpanId,
    anomaly: Option<AnomalyDetector>,
    events: Option<EventsTap>,
    observatory: Option<Box<Observatory>>,
    /// The open window's energy, booked once per cycle; `None` when no
    /// detector, observatory or event ring reads windows.
    window_book: Option<Box<EnergyBook>>,
    /// Index of the open window; it starts at `window * window_cycles`.
    window: u64,
    window_cycles: u64,
    finalized: bool,
}

impl Telemetry {
    /// Creates live telemetry for a bus with `n_masters` masters.
    pub fn new(config: TelemetryConfig, n_masters: usize) -> Self {
        let mut spans = SpanSet::new();
        let observe_span = spans.register("session_observe");
        let anomaly = config.anomaly.clone().map(AnomalyDetector::new);
        // One window clock for the detector, the observatory and the
        // event tap: the detector's window, or the default without one.
        let window_cycles = config.anomaly.as_ref().map_or_else(
            || AnomalyConfig::default().window_cycles,
            |a| a.window_cycles,
        );
        let events = config
            .events
            .clone()
            .map(|bus| EventsTap::new(bus, window_cycles));
        let observatory = config
            .observatory
            .clone()
            .map(|o| Box::new(Observatory::new(o, n_masters, window_cycles)));
        let reads_windows = anomaly.is_some() || events.is_some() || observatory.is_some();
        Telemetry {
            config,
            registry: MetricsRegistry::new(),
            decoder: PhaseDecoder::new(n_masters),
            perf: BusPerfAnalyzer::new(n_masters),
            spans,
            observe_span,
            anomaly,
            events,
            observatory,
            window_book: reads_windows.then(|| Box::new(EnergyBook::new())),
            window: 0,
            window_cycles: window_cycles.max(1),
            finalized: false,
        }
    }

    /// The configuration this telemetry was created with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Decodes one cycle's wires and feeds the phase record to the
    /// bus-performance analyzer and, when an event ring is attached, the
    /// event tap.
    #[inline]
    pub fn observe_bus(&mut self, snap: &BusSnapshot) {
        let phase = self.decoder.decode(snap);
        self.perf.observe(snap, &phase);
        if let Some(t) = &mut self.events {
            t.observe_bus(snap, &phase);
        }
    }

    /// Books one timed observed cycle to the `session_observe` span.
    #[inline]
    pub fn record_observe(&mut self, elapsed: Duration) {
        self.spans.record(self.observe_span, elapsed);
    }

    /// Books one timed [`crate::PowerSession::run`] of `cycles` observed
    /// cycles to the `session_observe` span: the count grows by `cycles`,
    /// the total by `elapsed`. A zero-cycle run books nothing.
    #[inline]
    pub fn record_observe_run(&mut self, elapsed: Duration, cycles: u64) {
        self.spans.record_n(self.observe_span, elapsed, cycles);
    }

    /// Books one cycle's instruction and per-block energy, attributed to
    /// bus owner `master` (an HMASTER value), into the window book. Once
    /// the window holds `window_cycles` cycles it closes: the anomaly
    /// detector judges it, the observatory ingests it and the event ring
    /// gets its verdict (each a no-op when not configured). Without a
    /// detector the verdict predicts the measured energy.
    #[inline]
    pub fn observe_power(&mut self, instruction: Instruction, energy: &BlockEnergy, master: usize) {
        let Some(book) = &mut self.window_book else {
            return;
        };
        // The activity word's instruction and owner fields, which is all
        // the book reads of a word.
        let word = instruction.index() as u64 | ((master as u64 & MASTER_MASK) << MASTER_SHIFT);
        book.book(word, *energy);
        if book.blocks.cycles() >= self.window_cycles {
            self.close_window();
        }
    }

    /// Closes the open window: judges it, hands it to the observatory and
    /// the event ring, and starts the next one with an empty book.
    #[cold]
    fn close_window(&mut self) {
        let Some(book) = self.window_book.as_deref_mut() else {
            return;
        };
        let start_cycle = self.window * self.window_cycles;
        let mut verdict =
            WindowVerdict::unjudged(self.window, start_cycle, book.ledger.total_energy());
        if let Some(d) = &mut self.anomaly {
            d.judge(&book.ledger, &mut verdict);
        }
        if let Some(o) = &mut self.observatory {
            let txn_total = self.events.as_ref().map_or(0, EventsTap::transactions);
            o.ingest(
                &verdict,
                book.blocks.totals(),
                book.per_master_energy(),
                txn_total,
            );
        }
        if let Some(t) = &mut self.events {
            t.publish_window(&verdict);
        }
        book.clear();
        self.window += 1;
    }

    /// The anomaly detector (`None` when not configured).
    pub fn anomaly(&self) -> Option<&AnomalyDetector> {
        self.anomaly.as_ref()
    }

    /// The power observatory (`None` when not configured).
    pub fn observatory(&self) -> Option<&Observatory> {
        self.observatory.as_deref()
    }

    /// The structured-event tap (`None` when no ring is attached).
    pub fn events(&self) -> Option<&EventsTap> {
        self.events.as_ref()
    }

    /// Mutable event-tap access (e.g. to change the slice id).
    pub fn events_mut(&mut self) -> Option<&mut EventsTap> {
        self.events.as_mut()
    }

    /// Marks the start of workload slice `slice`: subsequent events
    /// carry its id and a `SliceStart` event is published. No-op without
    /// an event ring.
    pub fn begin_slice(&mut self, slice: u64) {
        if let Some(t) = &mut self.events {
            t.slice_start(slice);
        }
    }

    /// Marks the end of the current slice, stamping `energy_j` into a
    /// `SliceEnd` event. No-op without an event ring.
    pub fn end_slice(&mut self, energy_j: f64) {
        if let Some(t) = &mut self.events {
            t.slice_end(energy_j);
        }
    }

    /// The bus-performance analyzer.
    pub fn perf(&self) -> &BusPerfAnalyzer {
        &self.perf
    }

    /// The span set (register more spans for custom instrumentation).
    pub fn spans_mut(&mut self) -> &mut SpanSet {
        &mut self.spans
    }

    /// The metrics registry (populated by [`Telemetry::finalize`]).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable registry access for publishing extra metrics.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Publishes a kernel run's statistics and optional wall-clock
    /// profile (see [`publish_kernel`]).
    pub fn record_kernel(
        &mut self,
        stats: &KernelStats,
        profile: Option<&KernelProfile>,
        process_names: &[&str],
    ) {
        publish_kernel(&mut self.registry, stats, profile, process_names);
        if let Some(t) = &mut self.events {
            t.publish_kernel(stats);
        }
    }

    /// Closes the analyzers and publishes everything into the registry.
    /// Idempotent: only the first call publishes.
    pub fn finalize(&mut self, fsm: &PowerFsm) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.perf.finish(self.decoder.finish());
        publish_bus_perf(&mut self.registry, &self.perf);
        publish_power(&mut self.registry, fsm);
        publish_spans(&mut self.registry, &self.spans);
        if let Some(d) = &self.anomaly {
            let windows = self.registry.counter(
                "energy_anomaly_windows_total",
                "Detection windows judged by the anomaly detector.",
                &[],
            );
            self.registry.add(windows, d.windows() as f64);
            let events = self.registry.counter(
                "energy_anomaly_events_total",
                "Windows flagged as energy anomalies.",
                &[],
            );
            self.registry.add(events, d.events().len() as f64);
            let updates = self.registry.counter(
                "energy_anomaly_baseline_updates_total",
                "Clean windows absorbed into the anomaly baseline.",
                &[],
            );
            self.registry.add(updates, d.baseline_updates() as f64);
            if let Some(last) = d.last_event() {
                let g = self.registry.gauge(
                    "energy_anomaly_last_deviation_pct",
                    "Deviation of the most recent flagged window, percent.",
                    &[],
                );
                self.registry.set(g, last.deviation_pct);
                let g = self.registry.gauge(
                    "energy_anomaly_last_window",
                    "Index of the most recent flagged window.",
                    &[],
                );
                self.registry.set(g, last.window as f64);
            }
        }
        if let Some(o) = &self.observatory {
            let c = self.registry.counter(
                "observatory_windows_total",
                "Raw windows ingested by the power observatory.",
                &[],
            );
            self.registry.add(c, o.windows_ingested() as f64);
            for level in 0..OBSERVATORY_LEVEL_FACTORS.len() {
                let label = format!("{level}");
                let labels = [("level", label.as_str())];
                let g = self.registry.gauge(
                    "observatory_ring_occupancy",
                    "Occupied observatory ring buckets per level.",
                    &labels,
                );
                self.registry.set(g, o.occupancy(level) as f64);
                let c = self.registry.counter(
                    "observatory_cascade_buckets_total",
                    "Buckets opened per observatory level (downsample cascades).",
                    &labels,
                );
                self.registry.add(c, o.cascades(level) as f64);
            }
        }
        if let Some(t) = &self.events {
            let bus = t.bus();
            let c = self.registry.counter(
                "events_published_total",
                "Structured events published into the shared ring.",
                &[],
            );
            self.registry.add(c, bus.published() as f64);
            let c = self.registry.counter(
                "events_transactions_total",
                "Transactions assigned causal ids by the event tap.",
                &[],
            );
            self.registry.add(c, t.transactions() as f64);
        }
    }

    fn export_meta(&self) -> ExportMeta {
        ExportMeta {
            scenario: self.config.scenario.clone(),
            cycles: self.perf.cycles(),
            seed: self.config.seed,
        }
    }

    /// Renders the registry as a JSONL event stream. Flagged anomaly
    /// windows are appended as `{"event":"anomaly",...}` lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = to_jsonl(&self.registry, &self.export_meta());
        if let Some(d) = &self.anomaly {
            for event in d.events() {
                out.push_str(&event.to_jsonl_line());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the registry as CSV.
    pub fn to_csv(&self) -> String {
        to_csv(&self.registry)
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        to_prometheus(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_to_disabled() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled);
        let cfg = TelemetryConfig::enabled("x").with_seed(7);
        assert!(cfg.enabled);
        assert_eq!(cfg.scenario, "x");
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn detectorless_windows_close_every_window_cycles() {
        use crate::instruction::ActivityMode;

        let cfg = TelemetryConfig::enabled("plain").with_observatory(ObservatoryConfig::default());
        let mut t = Telemetry::new(cfg, 1);
        let insn = Instruction::new(ActivityMode::Idle, ActivityMode::Idle);
        let e = BlockEnergy {
            dec: 1.0e-13,
            m2s: 1.0e-13,
            s2m: 1.0e-13,
            arb: 1.0e-13,
        };
        let windows = |t: &Telemetry| t.observatory().map(Observatory::windows_ingested);
        for _ in 1..AnomalyConfig::default().window_cycles {
            t.observe_power(insn, &e, 0);
            assert_eq!(windows(&t), Some(0));
        }
        t.observe_power(insn, &e, 0);
        assert_eq!(windows(&t), Some(1));
        let obs = t.observatory().expect("observatory attached");
        let energy = obs.query("energy", 0, 0, 1).expect("known series").points[0].sum;
        let predicted = obs
            .query("predicted", 0, 0, 1)
            .expect("known series")
            .points[0]
            .sum;
        assert!(energy > 0.0);
        assert_eq!(
            energy, predicted,
            "predicted mirrors measured without a detector"
        );
    }

    #[test]
    fn finalize_is_idempotent() {
        use crate::config::AnalysisConfig;
        use crate::model::AhbPowerModel;

        let acfg = AnalysisConfig::paper_testbench();
        let fsm = PowerFsm::new(AhbPowerModel::new(1, 1, &acfg.tech()));
        let mut t = Telemetry::new(TelemetryConfig::enabled("idem"), 1);
        t.finalize(&fsm);
        let first = t.to_prometheus();
        t.finalize(&fsm);
        assert_eq!(
            t.to_prometheus(),
            first,
            "double finalize must not double-count"
        );
    }
}
