//! # ahbpower-bench — shared experiment plumbing
//!
//! The `repro` binary and the criterion benches both run the paper's
//! testbench under power instrumentation; this library holds the shared
//! steps so experiments stay consistent. See DESIGN.md's experiment index
//! (E1-E8) for what maps where.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod dashboard;
mod flightrec;
mod json;
mod loadgen;
mod obsquery;
mod replay;
mod serve;
mod sweep;

pub use baseline::{
    compare_baselines, record_baseline, write_atomic, BaselineComparison, BaselineError,
    BaselineRow, BaselineSnapshot, BaselineViolation, WindowPowerSummary, BASELINE_VERSION,
    WINDOW_POWER_BOUNDS_UW,
};
pub use dashboard::DASHBOARD_HTML;
pub use flightrec::{
    FlightRecorder, FLIGHTREC_CAUSAL_CAP, FLIGHTREC_EVENT_CONTEXT, FLIGHTREC_MAX_BUNDLES,
    FLIGHTREC_WINDOW_CONTEXT,
};
pub use json::{parse_json, validate_json, validate_prometheus, JsonError, JsonValue};
pub use loadgen::{
    loadgen_report_json, run_loadgen, EndpointStats, LoadgenConfig, LoadgenReport,
    LOADGEN_LATENCY_BOUNDS_US,
};
pub use obsquery::{
    merge_query_results, parse_observatory_snapshot, query_result_json, ObservatorySnapshot,
};
pub use replay::{
    replay_sweep, replay_variant_model, replay_variant_spec, resimulate_variant,
    run_paper_experiment_recorded, REPLAY_VARIANT_FACTORS,
};
pub use serve::{
    format_multi_cursor, http_get, merged_read_since, parse_multi_cursor, serve, HttpResponse,
    Injection, ScenarioMix, ServeConfig, ServeError, ServeSummary, ServerHandle, SHARD_SEED_STRIDE,
    STAGE_US_BOUNDS,
};
pub use sweep::{
    available_jobs, run_sweep, run_sweep_point, sweep_csv, sweep_grid, sweep_report, ProbeStyle,
    SweepOutcome, SweepPoint, SweepRunner,
};

use ahbpower::telemetry::TelemetryConfig;
use ahbpower::{
    AnalysisConfig, FsmProbe, GlobalProbe, InlineProbe, PowerProbe, PowerSession, TxnTracerConfig,
};
use ahbpower_ahb::AhbBus;
use ahbpower_workloads::{PaperTestbench, SocScenario};

/// The outcome of the main paper experiment (E1-E5 share one run).
pub struct PaperRun {
    /// The analysis configuration used.
    pub config: AnalysisConfig,
    /// The instrumented session (ledgers + traces).
    pub session: PowerSession,
    /// The bus after the run (statistics).
    pub bus: AhbBus,
    /// Cycles executed.
    pub cycles: u64,
}

/// Builds the paper testbench sized for `cycles` and runs it under the
/// power FSM. `seed` controls the workload.
///
/// # Panics
///
/// Panics if the testbench fails to build (impossible for valid configs).
pub fn run_paper_experiment(cycles: u64, seed: u64) -> PaperRun {
    let config = AnalysisConfig::paper_testbench();
    let tb = PaperTestbench::sized_for(cycles, seed);
    let mut bus = tb.build().expect("paper testbench is statically valid");
    let mut session = PowerSession::new(&config);
    session.run(&mut bus, cycles);
    PaperRun {
        config,
        session,
        bus,
        cycles,
    }
}

/// Like [`run_paper_experiment`], with telemetry enabled: the session
/// carries a live [`ahbpower::telemetry::Telemetry`] labelled
/// [`PaperTestbench::LABEL`]; call
/// [`PowerSession::finish_telemetry`] on the returned session to export.
///
/// # Panics
///
/// Panics if the testbench fails to build (impossible for valid configs).
pub fn run_paper_experiment_telemetered(cycles: u64, seed: u64) -> PaperRun {
    let config = AnalysisConfig::paper_testbench();
    let tb = PaperTestbench::sized_for(cycles, seed);
    let mut bus = tb.build().expect("paper testbench is statically valid");
    let tcfg = TelemetryConfig::enabled(PaperTestbench::LABEL).with_seed(seed);
    let mut session = PowerSession::with_telemetry(&config, tcfg);
    session.run(&mut bus, cycles);
    PaperRun {
        config,
        session,
        bus,
        cycles,
    }
}

/// Like [`run_paper_experiment`], with the transaction tracer enabled:
/// the session records causally-linked transactions in a ring of
/// `ring_capacity` records and books per-cycle energy into an
/// attribution table. Call [`PowerSession::finish_txn`] on the returned
/// session before reading the records.
///
/// # Panics
///
/// Panics if the testbench fails to build (impossible for valid configs).
pub fn run_paper_experiment_traced(cycles: u64, seed: u64, ring_capacity: usize) -> PaperRun {
    let config = AnalysisConfig::paper_testbench();
    let tb = PaperTestbench::sized_for(cycles, seed);
    let mut bus = tb.build().expect("paper testbench is statically valid");
    let mut session =
        PowerSession::with_txn_tracer(&config, TxnTracerConfig::enabled(ring_capacity));
    session.run(&mut bus, cycles);
    PaperRun {
        config,
        session,
        bus,
        cycles,
    }
}

/// Runs the [`SocScenario`] (CPU + DMA + stream contending for three
/// slaves) under the transaction tracer, sized so the scripts roughly
/// fill `cycles`. Same contract as [`run_paper_experiment_traced`].
///
/// # Panics
///
/// Panics if the scenario fails to build (impossible for valid configs).
pub fn run_soc_experiment_traced(cycles: u64, seed: u64, ring_capacity: usize) -> PaperRun {
    let config = AnalysisConfig {
        n_masters: SocScenario::N_MASTERS,
        n_slaves: SocScenario::N_SLAVES,
        seed,
        ..AnalysisConfig::paper_testbench()
    };
    // Scale the default traffic mix to the requested horizon: the default
    // scenario covers roughly 6k cycles of activity.
    let scale = (cycles / 4_000).clamp(1, 10_000) as u32;
    let base = SocScenario::default();
    let scenario = SocScenario {
        seed,
        cpu_accesses: base.cpu_accesses * scale,
        dma_blocks: base.dma_blocks * scale,
        stream_frames: base.stream_frames * scale,
        ..base
    };
    let mut bus = scenario.build().expect("soc scenario is statically valid");
    let mut session =
        PowerSession::with_txn_tracer(&config, TxnTracerConfig::enabled(ring_capacity));
    session.run(&mut bus, cycles);
    PaperRun {
        config,
        session,
        bus,
        cycles,
    }
}

/// Builds a fresh paper testbench bus sized for `cycles` (functional only).
///
/// # Panics
///
/// Panics if the testbench fails to build (impossible for valid configs).
pub fn build_paper_bus(cycles: u64, seed: u64) -> AhbBus {
    PaperTestbench::sized_for(cycles, seed)
        .build()
        .expect("paper testbench is statically valid")
}

/// Runs all three probe styles over the same traffic and returns
/// `(style, total_energy_joules)` triples — experiment E8's accuracy side.
pub fn compare_probe_styles(cycles: u64, seed: u64) -> Vec<(&'static str, f64)> {
    let config = AnalysisConfig::paper_testbench();
    let model = ahbpower::AhbPowerModel::new(config.n_masters, config.n_slaves, &config.tech());
    // Calibration run for the FSM style (half-length, different seed, so the
    // styles genuinely diverge like the paper's accuracy/speed trade-off).
    let mut calib = InlineProbe::new(model.clone());
    let mut calib_bus = build_paper_bus(cycles / 2, seed ^ 0xCA11B);
    for _ in 0..cycles / 2 {
        calib.observe(calib_bus.step());
    }
    let mut inline = InlineProbe::new(model.clone());
    let mut fsm = FsmProbe::from_calibration(calib.fsm().ledger());
    let mut global = GlobalProbe::new(model);
    let mut bus = build_paper_bus(cycles, seed);
    for _ in 0..cycles {
        let snap = bus.step();
        inline.observe(snap);
        fsm.observe(snap);
        global.observe(snap);
    }
    vec![
        ("inline", inline.total_energy()),
        ("fsm", fsm.total_energy()),
        ("global", global.total_energy()),
    ]
}

/// Like [`compare_probe_styles`], but each style replays the (identical,
/// seed-deterministic) traffic on its own thread via [`SweepRunner`]. The
/// returned energies are bit-identical to the serial version for any `jobs`.
pub fn compare_probe_styles_parallel(
    cycles: u64,
    seed: u64,
    jobs: usize,
) -> Vec<(&'static str, f64)> {
    let points: Vec<SweepPoint> = ProbeStyle::ALL
        .iter()
        .map(|&style| SweepPoint {
            cycles,
            seed,
            style,
        })
        .collect();
    run_sweep(&points, jobs)
        .into_iter()
        .map(|o| (o.point.style.name(), o.total_energy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_run_produces_energy_and_instructions() {
        let run = run_paper_experiment(5_000, 2003);
        assert!(run.session.total_energy() > 0.0);
        let rows = run.session.ledger().rows();
        assert!(rows.len() >= 4, "several instructions executed: {rows:?}");
        assert!(run.bus.stats().transfers_ok > 100);
    }

    #[test]
    fn telemetered_run_matches_plain_run_and_exports() {
        let plain = run_paper_experiment(5_000, 2003);
        let mut telemetered = run_paper_experiment_telemetered(5_000, 2003);
        assert_eq!(
            telemetered.session.total_energy(),
            plain.session.total_energy(),
            "telemetry must not perturb the energy analysis"
        );
        let t = telemetered.session.finish_telemetry().expect("enabled");
        let reg = t.registry();
        assert_eq!(reg.counter_value("ahb_cycles_total", &[]), Some(5_000.0));
        // Per-master wait-state counters exist for all three masters.
        for m in ["0", "1", "2"] {
            assert!(
                reg.counter_value("ahb_master_wait_cycles_total", &[("master", m)])
                    .is_some(),
                "master {m} wait counter"
            );
        }
        assert!(t.to_jsonl().contains("\"scenario\":\"paper_testbench\""));
        assert!(t
            .to_prometheus()
            .contains("ahb_arbitration_latency_cycles_bucket"));
    }

    #[test]
    fn probe_styles_are_comparable() {
        let results = compare_probe_styles(4_000, 99);
        let inline = results[0].1;
        let fsm = results[1].1;
        let global = results[2].1;
        assert!(inline > 0.0);
        // Global bookkeeping is exact for linear models.
        assert!((global - inline).abs() < 1e-6 * inline);
        // FSM style lands in the right ballpark (within 50%).
        assert!((fsm - inline).abs() < 0.5 * inline, "{fsm} vs {inline}");
    }

    #[test]
    fn parallel_styles_match_shared_bus_run_bitwise() {
        let serial = compare_probe_styles(4_000, 99);
        let parallel = compare_probe_styles_parallel(4_000, 99, 3);
        assert_eq!(serial.len(), parallel.len());
        for ((sn, se), (pn, pe)) in serial.iter().zip(&parallel) {
            assert_eq!(sn, pn);
            assert_eq!(se.to_bits(), pe.to_bits(), "style {sn} diverged");
        }
    }
}
