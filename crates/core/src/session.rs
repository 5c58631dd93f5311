//! One-stop analysis session: FSM + ledgers + power trace over a bus run.

use std::time::Instant;

use ahbpower_ahb::{AhbBus, BusSnapshot};

use crate::config::AnalysisConfig;
use crate::ledger::{BlockLedger, InstructionLedger};
use crate::model::AhbPowerModel;
use crate::power_fsm::PowerFsm;
use crate::replay::{ActivityRecorder, ActivityTrace};
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::trace::{PowerTrace, TracePoint};
use crate::txn::{TxnTracer, TxnTracerConfig};

/// Couples a [`PowerFsm`] with a [`PowerTrace`] so a single observer
/// produces Table 1, Fig. 6 and Figs. 3-5 data in one pass.
///
/// # Examples
///
/// ```
/// use ahbpower::{AnalysisConfig, PowerSession};
/// use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
///
/// let cfg = AnalysisConfig::paper_testbench();
/// let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
///     .master(Box::new(ScriptedMaster::new(vec![Op::write(0x0, 0xFF), Op::read(0x0)])))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .build()?;
/// let mut session = PowerSession::new(&cfg);
/// session.run(&mut bus, 50);
/// assert!(session.total_energy() > 0.0);
/// # Ok::<(), ahbpower_ahb::BuildBusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerSession {
    fsm: PowerFsm,
    trace: PowerTrace,
    /// `None` unless telemetry was enabled at construction; the disabled
    /// hot path tests one `Option` discriminant per run, not per cycle.
    telemetry: Option<Box<Telemetry>>,
    /// `None` unless transaction tracing was enabled at construction;
    /// same hot-path discipline as `telemetry`.
    txn: Option<Box<TxnTracer>>,
    /// `None` unless activity recording was enabled at construction;
    /// same hot-path discipline as `telemetry`.
    recorder: Option<Box<ActivityRecorder>>,
}

impl PowerSession {
    /// Creates a session with paper-form macromodels sized from `cfg`.
    pub fn new(cfg: &AnalysisConfig) -> Self {
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        PowerSession::with_model(model, cfg.window_cycles, cfg.f_clk_hz)
    }

    /// Creates a session with explicit (e.g. fitted) macromodels.
    pub fn with_model(model: AhbPowerModel, window_cycles: u64, f_clk_hz: f64) -> Self {
        PowerSession {
            fsm: PowerFsm::new(model),
            trace: PowerTrace::new(window_cycles, f_clk_hz),
            telemetry: None,
            txn: None,
            recorder: None,
        }
    }

    /// Creates a session with telemetry governed by `tcfg`. A disabled
    /// config yields a session identical to [`PowerSession::new`].
    pub fn with_telemetry(cfg: &AnalysisConfig, tcfg: TelemetryConfig) -> Self {
        let mut session = PowerSession::new(cfg);
        if tcfg.enabled {
            session.telemetry = Some(Box::new(Telemetry::new(tcfg, cfg.n_masters)));
        }
        session
    }

    /// Creates a session with transaction tracing governed by `xcfg`. A
    /// disabled config yields a session identical to [`PowerSession::new`].
    pub fn with_txn_tracer(cfg: &AnalysisConfig, xcfg: TxnTracerConfig) -> Self {
        let mut session = PowerSession::new(cfg);
        if xcfg.enabled {
            session.txn = Some(Box::new(TxnTracer::new(cfg.n_masters, xcfg.ring_capacity)));
        }
        session
    }

    /// Creates a session that additionally records every observed cycle
    /// into a compact activity trace for later replay (the
    /// trace-once / estimate-many pipeline; see [`crate::replay`]).
    /// Collect the recording with [`PowerSession::finish_recorder`].
    pub fn with_recorder(cfg: &AnalysisConfig) -> Self {
        let mut session = PowerSession::new(cfg);
        session.recorder = Some(Box::new(ActivityRecorder::new(cfg)));
        session
    }

    /// Detaches the activity recorder and returns the finished trace.
    /// `None` when recording was not enabled (or was already collected).
    /// The returned trace's `live_total_j` stamp is filled in with the
    /// session's booked total so replays can self-check fidelity.
    pub fn finish_recorder(&mut self) -> Option<ActivityTrace> {
        let total = self.fsm.total_energy();
        self.recorder.take().map(|r| {
            let mut trace = r.finish();
            trace.live_total_j = total;
            trace
        })
    }

    /// Scales one sub-block's macromodel coefficients by `factor` — the
    /// anomaly-injection hook. Calling it between two [`PowerSession::run`]
    /// calls emulates a mid-stream energy drift for detector tests.
    pub fn scale_model_block(&mut self, block: crate::model::SubBlock, factor: f64) {
        self.fsm.scale_block(block, factor);
    }

    /// Observes one cycle: FSM, trace, then whichever taps are attached
    /// (transaction tracer, activity recorder, telemetry).
    ///
    /// Reads no clock. The `session_observe` span is booked by
    /// [`PowerSession::run`] as one clock pair per call, counted per
    /// cycle; cycles fed through `observe` directly book no span time.
    pub fn observe(&mut self, snap: &BusSnapshot) {
        let rec = self.fsm.observe(snap);
        self.trace.push(rec.energy);
        if let Some(x) = &mut self.txn {
            x.observe(snap, &rec);
        }
        if let Some(r) = &mut self.recorder {
            r.push(rec.word);
        }
        if let Some(t) = &mut self.telemetry {
            t.observe_bus(snap);
            t.observe_power(rec.instruction, &rec.energy, snap.hmaster.index());
        }
    }

    /// Runs `cycles` bus cycles under observation.
    ///
    /// With telemetry on, the whole instrumented loop (bus step included)
    /// is timed by a single clock pair and booked to the `session_observe`
    /// span as `cycles` invocations.
    pub fn run(&mut self, bus: &mut AhbBus, cycles: u64) {
        if self.telemetry.is_none() && self.txn.is_none() && self.recorder.is_none() {
            // The pre-telemetry hot loop, untouched: sessions without
            // instrumentation pay one branch per run for the features.
            for _ in 0..cycles {
                let snap = bus.step();
                let rec = self.fsm.observe(snap);
                self.trace.push(rec.energy);
            }
        } else {
            let t0 = Instant::now();
            for _ in 0..cycles {
                let snap = bus.step();
                self.observe(snap);
            }
            if let Some(t) = &mut self.telemetry {
                t.record_observe_run(t0.elapsed(), cycles);
            }
        }
        self.trace.finish();
    }

    /// Marks the start of workload slice `slice` in the structured event
    /// stream (no-op unless telemetry carries an event ring). Serve
    /// loops and slice-based runners call this before each
    /// [`PowerSession::run`] so every event carries the right slice id.
    pub fn begin_slice(&mut self, slice: u64) {
        if let Some(t) = &mut self.telemetry {
            t.begin_slice(slice);
        }
    }

    /// Marks the end of the current slice, stamping the session's
    /// cumulative energy into a `SliceEnd` event (no-op without an event
    /// ring).
    pub fn end_slice(&mut self) {
        let energy = self.fsm.total_energy();
        if let Some(t) = &mut self.telemetry {
            t.end_slice(energy);
        }
    }

    /// Finishes the run's telemetry: closes the analyzers, publishes the
    /// power ledgers and spans into the registry, and returns the
    /// telemetry for export. `None` when telemetry is disabled.
    pub fn finish_telemetry(&mut self) -> Option<&Telemetry> {
        let fsm = &self.fsm;
        self.telemetry.as_mut().map(|t| {
            t.finalize(fsm);
            &**t
        })
    }

    /// Live telemetry access (`None` when disabled).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Shared telemetry access (`None` when disabled).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Finishes the run's transaction trace: flushes the still-open
    /// transaction (if any) into the ring and returns the tracer for
    /// export. `None` when tracing is disabled.
    pub fn finish_txn(&mut self) -> Option<&TxnTracer> {
        self.txn.as_mut().map(|x| {
            x.finish();
            &**x
        })
    }

    /// The transaction tracer (`None` when disabled).
    pub fn txn_tracer(&self) -> Option<&TxnTracer> {
        self.txn.as_deref()
    }

    /// Per-instruction ledger (Table 1).
    pub fn ledger(&self) -> &InstructionLedger {
        self.fsm.ledger()
    }

    /// Per-block ledger (Fig. 6).
    pub fn blocks(&self) -> &BlockLedger {
        self.fsm.blocks()
    }

    /// Power-trace points (Figs. 3-5).
    pub fn trace_points(&self) -> &[TracePoint] {
        self.trace.points()
    }

    /// The trace accumulator itself.
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Total energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.fsm.total_energy()
    }

    /// Per-master energy attribution (index = master id), joules.
    pub fn per_master_energy(&self) -> &[f64] {
        self.fsm.per_master_energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};

    fn bus() -> AhbBus {
        AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::write(0x0, 0xFFFF_FFFF),
                Op::read(0x0),
                Op::Idle(3),
                Op::write(0x1004, 0x1234_5678),
            ])))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .slave(Box::new(MemorySlave::new(0x1000, 1, 0)))
            .build()
            .unwrap()
    }

    #[test]
    fn session_collects_all_artifacts() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        cfg.window_cycles = 5;
        let mut session = PowerSession::new(&cfg);
        let mut b = bus();
        session.run(&mut b, 40);
        assert!(session.total_energy() > 0.0);
        assert!(!session.ledger().rows().is_empty());
        assert_eq!(session.blocks().cycles(), 40);
        assert_eq!(session.trace_points().len(), 8);
        // Ledger and trace must account the same energy.
        let from_trace: f64 = session
            .trace_points()
            .iter()
            .map(|p| p.total_w * session.trace().window_secs())
            .sum();
        let total = session.total_energy();
        assert!((from_trace - total).abs() < 1e-9 * total.max(1e-30));
    }

    #[test]
    fn disabled_telemetry_is_absent_and_free_of_state() {
        let cfg = AnalysisConfig::paper_testbench();
        let mut session = PowerSession::with_telemetry(&cfg, TelemetryConfig::default());
        let mut b = bus();
        session.run(&mut b, 20);
        assert!(session.finish_telemetry().is_none());
        assert!(session.telemetry_mut().is_none());
    }

    #[test]
    fn txn_tracer_conserves_energy_and_records_transactions() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        let mut plain = PowerSession::new(&cfg);
        let mut b = bus();
        plain.run(&mut b, 40);

        let mut traced = PowerSession::with_txn_tracer(&cfg, TxnTracerConfig::enabled(128));
        let mut b = bus();
        traced.run(&mut b, 40);
        assert_eq!(
            traced.total_energy(),
            plain.total_energy(),
            "tracing must not perturb the analysis"
        );
        let total = traced.total_energy();
        let tracer = traced.finish_txn().expect("tracer enabled");
        assert!(tracer.completed() >= 3, "the script issues 3 transfers");
        assert_eq!(tracer.evicted(), 0);
        assert_eq!(tracer.attribution().cycles(), 40);
        let attributed = tracer.attribution().total_energy();
        assert!(
            (attributed - total).abs() <= 1e-9,
            "attribution must conserve the ledger total: {attributed} vs {total}"
        );
        // Disabled config attaches nothing.
        let off = PowerSession::with_txn_tracer(&cfg, TxnTracerConfig::default());
        assert!(off.txn_tracer().is_none());
    }

    #[test]
    fn recorder_replay_reproduces_session_bit_for_bit() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        cfg.window_cycles = 5;
        let mut session = PowerSession::with_recorder(&cfg);
        let mut b = bus();
        session.run(&mut b, 40);
        let trace = session.finish_recorder().expect("recorder attached");
        assert_eq!(trace.cycles(), 40);
        assert_eq!(trace.live_total_j, session.total_energy());
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let out = crate::ReplayEngine::new(&model).replay(&trace);
        assert_eq!(out.total_energy(), session.total_energy());
        assert_eq!(out.trace_points(), session.trace_points());
        assert_eq!(out.per_master_energy(), session.per_master_energy());
        assert!(
            session.finish_recorder().is_none(),
            "recorder can only be collected once"
        );
    }

    #[test]
    fn enabled_telemetry_matches_untelemetered_energy() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        let mut plain = PowerSession::new(&cfg);
        let mut b = bus();
        plain.run(&mut b, 40);

        let tcfg = TelemetryConfig::enabled("session_test").with_seed(9);
        let mut telemetered = PowerSession::with_telemetry(&cfg, tcfg);
        let mut b = bus();
        telemetered.run(&mut b, 40);
        let plain_energy = plain.total_energy();
        assert_eq!(
            telemetered.total_energy(),
            plain_energy,
            "telemetry must not perturb the analysis"
        );

        let t = telemetered.finish_telemetry().expect("enabled");
        let reg = t.registry();
        assert_eq!(reg.counter_value("ahb_cycles_total", &[]), Some(40.0));
        let booked = reg.counter_value("power_total_energy_joules", &[]).unwrap();
        assert!((booked - plain_energy).abs() < 1e-18);
        // The observer span timed every cycle.
        assert_eq!(
            reg.counter_value(
                "telemetry_span_invocations_total",
                &[("span", "session_observe")]
            ),
            Some(40.0)
        );
        let jsonl = t.to_jsonl();
        assert!(jsonl.starts_with("{\"event\":\"meta\",\"scenario\":\"session_test\""));
        assert!(jsonl.contains("\"seed\":9"));
        assert!(t.to_csv().contains("ahb_master_transfers_total,master=0"));
        assert!(t
            .to_prometheus()
            .contains("# TYPE ahb_arbitration_latency_cycles histogram"));
    }

    fn span_counters(session: &mut PowerSession) -> (Option<f64>, Option<f64>) {
        let reg = session.finish_telemetry().expect("enabled").registry();
        let labels = [("span", "session_observe")];
        (
            reg.counter_value("telemetry_span_invocations_total", &labels),
            reg.counter_value("telemetry_span_seconds_total", &labels),
        )
    }

    #[test]
    fn run_books_one_span_per_call_counted_per_cycle() {
        let cfg = AnalysisConfig::paper_testbench();
        let mut session = PowerSession::with_telemetry(&cfg, TelemetryConfig::enabled("span_test"));
        let mut b = bus();
        session.run(&mut b, 17);
        session.run(&mut b, 23);
        let (invocations, seconds) = span_counters(&mut session);
        assert_eq!(invocations, Some(40.0));
        assert!(seconds.expect("span published") > 0.0);

        let mut idle = PowerSession::with_telemetry(&cfg, TelemetryConfig::enabled("span_test"));
        idle.run(&mut bus(), 0);
        assert_eq!(span_counters(&mut idle), (Some(0.0), Some(0.0)));
    }

    #[test]
    fn observe_driven_telemetry_matches_run_driven() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        let tcfg = TelemetryConfig::enabled("session_test");
        let mut ran = PowerSession::with_telemetry(&cfg, tcfg.clone());
        ran.run(&mut bus(), 40);

        let mut stepped = PowerSession::with_telemetry(&cfg, tcfg);
        let mut b = bus();
        for _ in 0..40 {
            stepped.observe(b.step());
        }
        assert_eq!(
            stepped.total_energy().to_bits(),
            ran.total_energy().to_bits()
        );
        let cycles = |s: &mut PowerSession| {
            s.finish_telemetry()
                .expect("enabled")
                .registry()
                .counter_value("ahb_cycles_total", &[])
        };
        assert_eq!(cycles(&mut stepped), Some(40.0));
        assert_eq!(cycles(&mut ran), Some(40.0));
        // Per-cycle callers of `observe` read no clock and book no span.
        assert_eq!(span_counters(&mut stepped), (Some(0.0), Some(0.0)));
    }
}
