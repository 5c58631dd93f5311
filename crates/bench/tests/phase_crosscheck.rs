//! One decoder, three readers: the bus-performance analyzer, the event
//! tap's `TxnComplete` events and the transaction tracer's records must
//! tell the same story about every transaction — with and without wait
//! states, under contention, and across SPLIT/ERROR responses.
//!
//! Telemetry (analyzer + event tap) and the tracer run in separate
//! sessions over identical, deterministic buses, so each reads its own
//! `PhaseDecoder`.

use ahbpower::telemetry::{EventBus, EventKind, TelemetryConfig};
use ahbpower::{AnalysisConfig, PowerSession, TxnRecord, TxnTracerConfig};
use ahbpower_ahb::{
    AddressMap, AhbBus, AhbBusBuilder, ErrorSlave, HBurst, HSize, MemorySlave, Op, ScriptedMaster,
    SplitSlave, BURST_BEATS_BOUNDS,
};
use ahbpower_bench::build_paper_bus;
use ahbpower_workloads::SocScenario;

const CYCLES: u64 = 20_000;
const CAPACITY: usize = 1 << 16;

fn config(n_masters: usize, n_slaves: usize) -> AnalysisConfig {
    AnalysisConfig {
        n_masters,
        n_slaves,
        ..AnalysisConfig::paper_testbench()
    }
}

/// Two masters over memory (one wait state), a SPLIT slave and an ERROR
/// slave: bursts with and without BUSY beats, singles, split and errored
/// transfers.
fn split_error_bus(delay: u32) -> AhbBus {
    let burst = |addr: u32, beats: u32, busy_between: u32, burst: HBurst| Op::Burst {
        write: beats.is_multiple_of(2),
        burst,
        addr,
        data: (0..beats).collect(),
        size: HSize::Word,
        busy_between,
    };
    let mut ops0 = Vec::new();
    let mut ops1 = Vec::new();
    for i in 0..40u32 {
        let off = (i % 16) * 0x40;
        ops0.extend([
            Op::write(off, i),
            burst(0x1000 + off, 4, 0, HBurst::Incr4),
            Op::read(0x2000 + off),
            burst(off, 3, i % 2, HBurst::Incr),
            Op::Idle(i % 3),
        ]);
        ops1.extend([
            Op::Idle(1 + i % 4),
            burst(0x1000 + off, 2, 1, HBurst::Incr),
            Op::write(0x2000 + off, i),
            burst(0x800 + off, 8, 0, HBurst::Incr8),
            Op::read(0x1000 + off),
        ]);
    }
    AhbBusBuilder::new(AddressMap::evenly_spaced(3, 0x1000))
        .master(Box::new(ScriptedMaster::new(ops0)))
        .master(Box::new(ScriptedMaster::new(ops1)))
        .slave(Box::new(MemorySlave::new(0x1000, 1, 0)))
        .slave(Box::new(SplitSlave::new(0x1000, 2, delay)))
        .slave(Box::new(ErrorSlave::new()))
        .build()
        .expect("bus builds")
}

/// Runs `build()` once under telemetry with an event ring and once under
/// the transaction tracer, and checks every reader against the tracer's
/// records, which it returns.
fn crosscheck(label: &str, cfg: &AnalysisConfig, build: impl Fn() -> AhbBus) -> Vec<TxnRecord> {
    let ring = EventBus::shared(CAPACITY);
    ring.set_enabled(true);
    let mut telemetered = PowerSession::with_telemetry(
        cfg,
        TelemetryConfig::enabled(label).with_events(ring.clone()),
    );
    telemetered.run(&mut build(), CYCLES);
    let mut traced = PowerSession::with_txn_tracer(cfg, TxnTracerConfig::enabled(CAPACITY));
    traced.run(&mut build(), CYCLES);

    // The event tap publishes completions as they happen; the tracer's
    // finish also flushes the transaction still open at the end.
    let completed_live = traced.txn_tracer().expect("tracing on").completed();
    let tracer = traced.finish_txn().expect("tracing on");
    assert_eq!(tracer.evicted(), 0, "{label}: ring too small");
    let records: Vec<TxnRecord> = tracer.records().copied().collect();
    assert!(
        records.len() > 100,
        "{label}: only {} transactions",
        records.len()
    );

    telemetered.end_slice();
    let batch = ring.read_since(0, CAPACITY);
    assert_eq!(batch.dropped, 0, "{label}: event ring wrapped");
    let events: Vec<(usize, u32, u64)> = batch
        .events
        .iter()
        .filter(|e| e.kind == EventKind::TxnComplete)
        .map(|e| (e.tag as usize, e.a as u32, e.b as u64))
        .collect();
    assert_eq!(
        events.len() as u64,
        completed_live,
        "{label}: TxnComplete count"
    );
    for (i, (event, r)) in events.iter().zip(&records).enumerate() {
        assert_eq!(
            *event,
            (r.master.index(), r.beats, r.wait_cycles),
            "{label}: transaction {i} (master, beats, waits)"
        );
    }

    let perf = telemetered.finish_telemetry().expect("telemetry on").perf();
    for (m, counters) in perf.masters().iter().enumerate() {
        let mine = records.iter().filter(|r| r.master.index() == m);
        let ok: u64 = mine.clone().map(|r| u64::from(r.ok_beats)).sum();
        let waits: u64 = mine.map(|r| r.wait_cycles).sum();
        assert_eq!(
            counters.transfers_ok, ok,
            "{label}: master {m} transfers_ok"
        );
        assert_eq!(
            counters.wait_cycles, waits,
            "{label}: master {m} wait_cycles"
        );
    }
    let hist = perf.burst_beats();
    let mut buckets = vec![0u64; BURST_BEATS_BOUNDS.len() + 1];
    for r in &records {
        let beats = u64::from(r.beats);
        let i = BURST_BEATS_BOUNDS
            .iter()
            .position(|&b| beats <= b)
            .unwrap_or(BURST_BEATS_BOUNDS.len());
        buckets[i] += 1;
    }
    assert_eq!(hist.count(), records.len() as u64, "{label}: burst count");
    assert_eq!(
        hist.sum(),
        records.iter().map(|r| u64::from(r.beats)).sum::<u64>(),
        "{label}: burst beats"
    );
    assert_eq!(hist.bucket_counts(), &buckets[..], "{label}: burst buckets");
    records
}

#[test]
fn soc_scenario_readers_agree_at_every_wait_state_count() {
    let cfg = config(SocScenario::N_MASTERS, SocScenario::N_SLAVES);
    for wait_states in [0, 1, 3] {
        let scenario = SocScenario {
            wait_states,
            ..SocScenario::default()
        };
        let records = crosscheck(&format!("soc-ws{wait_states}"), &cfg, || {
            scenario.build().expect("scenario builds")
        });
        let stalled = records.iter().any(|r| r.wait_cycles > 0);
        assert_eq!(stalled, wait_states > 0, "soc-ws{wait_states}");
    }
}

#[test]
fn paper_testbench_readers_agree() {
    let cfg = AnalysisConfig::paper_testbench();
    for seed in [7, 2003] {
        crosscheck(&format!("paper-{seed}"), &cfg, || {
            build_paper_bus(CYCLES, seed)
        });
    }
}

#[test]
fn split_and_error_readers_agree() {
    let cfg = config(2, 3);
    for delay in [1, 3, 5] {
        let records = crosscheck(&format!("split-{delay}"), &cfg, || split_error_bus(delay));
        assert!(
            records.iter().any(|r| r.ok_beats < r.beats),
            "split-{delay}: no SPLIT or ERROR response"
        );
    }
}
