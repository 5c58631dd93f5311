//! The traced twin of `PowerSession`: the same per-cycle public calls
//! (`AhbBus::step`, `PowerFsm::observe`, `PowerTrace::push`,
//! `ActivityRecorder::record`, `Telemetry::observe_bus`/`observe_power`/
//! `record_observe`), issued in batches of [`BATCH`] cycles so each layer
//! gets one span per batch instead of two clock reads per cycle.
//!
//! Every layer consumes its inputs in cycle order, so batching changes
//! only when a call happens, not what it computes: the traced run's
//! output digest must equal the untraced run's.

use std::time::Instant;

use ahbpower::telemetry::{Telemetry, TelemetryConfig};
use ahbpower::{
    ActivityRecorder, ActivityTrace, AhbPowerModel, AnalysisConfig, CycleRecord, InstructionLedger,
    PowerFsm, PowerTrace,
};
use ahbpower_ahb::{AhbBus, BusSnapshot};

use crate::spans::SpanLog;

/// Cycles per traced batch: a few thousand, so the snapshot buffer
/// (~64 B each) stays in L2 and span bookkeeping is noise.
pub const BATCH: u64 = 4096;

pub const BUS_STEP: &str = "ahb.bus.step_ns";
pub const FSM_OBSERVE: &str = "core.power_fsm.observe_ns";
pub const TRACE_PUSH: &str = "core.trace.push_ns";
pub const REPLAY_RECORD: &str = "core.replay.record_ns";
pub const TELEMETRY_OBSERVE: &str = "core.telemetry.observe_ns";
pub const SESSION_SELF: &str = "core.session.self_time_ns";

pub struct TracedSession {
    fsm: PowerFsm,
    trace: PowerTrace,
    recorder: Option<ActivityRecorder>,
    telemetry: Option<Telemetry>,
    snaps: Vec<BusSnapshot>,
    recs: Vec<CycleRecord>,
}

impl TracedSession {
    /// Mirrors `PowerSession::new`.
    pub fn new(cfg: &AnalysisConfig) -> Self {
        TracedSession {
            fsm: PowerFsm::new(AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech())),
            trace: PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz),
            recorder: None,
            telemetry: None,
            snaps: Vec::with_capacity(BATCH as usize),
            recs: Vec::with_capacity(BATCH as usize),
        }
    }

    /// Mirrors `PowerSession::with_recorder`.
    pub fn with_recorder(cfg: &AnalysisConfig) -> Self {
        let mut s = TracedSession::new(cfg);
        s.recorder = Some(ActivityRecorder::new(cfg));
        s
    }

    /// Mirrors `PowerSession::with_telemetry` for an enabled config.
    pub fn with_telemetry(cfg: &AnalysisConfig, tcfg: TelemetryConfig) -> Self {
        let mut s = TracedSession::new(cfg);
        s.telemetry = Some(Telemetry::new(tcfg, cfg.n_masters));
        s
    }

    /// Mirrors `PowerSession::run`, one span per layer per batch.
    pub fn run(&mut self, log: &mut SpanLog, bus: &mut AhbBus, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            let n = left.min(BATCH);
            left -= n;
            let snaps = &mut self.snaps;
            let recs = &mut self.recs;
            snaps.clear();
            recs.clear();
            log.time(BUS_STEP, n, || {
                for _ in 0..n {
                    snaps.push(*bus.step());
                }
            });
            let fsm = &mut self.fsm;
            log.time(FSM_OBSERVE, n, || {
                recs.extend(snaps.iter().map(|s| fsm.observe(s)));
            });
            let trace = &mut self.trace;
            log.time(TRACE_PUSH, n, || {
                for r in recs.iter() {
                    trace.push(r.energy);
                }
            });
            if let Some(r) = &mut self.recorder {
                log.time(REPLAY_RECORD, n, || {
                    for (s, c) in snaps.iter().zip(recs.iter()) {
                        r.record(s, c.instruction);
                    }
                });
            }
            if let Some(t) = &mut self.telemetry {
                log.time(TELEMETRY_OBSERVE, n, || {
                    for (s, c) in snaps.iter().zip(recs.iter()) {
                        t.observe_bus(s);
                        t.observe_power(c.instruction, &c.energy, s.hmaster.index());
                    }
                });
                // The clock pair PowerSession wraps around every observed
                // cycle when telemetry is on.
                log.time(SESSION_SELF, n, || {
                    for _ in 0..n {
                        let t0 = Instant::now();
                        t.record_observe(t0.elapsed());
                    }
                });
            }
        }
        self.trace.finish();
    }

    /// Mirrors `PowerSession::finish_recorder`.
    pub fn finish_recorder(&mut self) -> Option<ActivityTrace> {
        let total = self.fsm.total_energy();
        self.recorder.take().map(|r| {
            let mut trace = r.finish();
            trace.live_total_j = total;
            trace
        })
    }

    pub fn begin_slice(&mut self, slice: u64) {
        if let Some(t) = &mut self.telemetry {
            t.begin_slice(slice);
        }
    }

    pub fn end_slice(&mut self) {
        let energy = self.fsm.total_energy();
        if let Some(t) = &mut self.telemetry {
            t.end_slice(energy);
        }
    }

    pub fn total_energy(&self) -> f64 {
        self.fsm.total_energy()
    }

    pub fn ledger(&self) -> &InstructionLedger {
        self.fsm.ledger()
    }

    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }
}
