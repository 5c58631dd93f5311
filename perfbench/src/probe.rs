//! The serve worker's start-up self-calibration, issued from outside.
//!
//! `soc-live` and `serve-read` have no record or replay phase of their
//! own; the one place the live path records and replays is the worker's
//! start-up calibration, which records a short paper-testbench trace and
//! replays a few coefficient variants on one job. The benchmark runs the
//! same calls and times them, so `record_mcycles_per_s`,
//! `replay_mcycles_per_s` and `trace_bytes_per_cycle` on those two
//! workloads measure that start-up path (a cache-resident trace, unlike
//! `paper-explore`'s).

use std::time::Instant;

use ahbpower::{AnalysisConfig, PowerSession};
use ahbpower_bench::{build_paper_bus, replay_sweep, replay_variant_model};

use crate::stats::median;
use crate::Outcome;

/// Cycles the worker's calibration records (`serve.rs`' `CALIB_CYCLES`).
pub const PROBE_CYCLES: u64 = 20_000;
/// Variants it replays on one job (`serve.rs`' `CALIB_VARIANTS`).
pub const PROBE_VARIANTS: usize = 4;

/// One calibration's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    record_s: f64,
    replay_s: f64,
    trace_bytes: usize,
}

/// Records [`PROBE_CYCLES`] paper-testbench cycles at `seed`, replays
/// [`PROBE_VARIANTS`] variants on one job, and checks that variant 0
/// reproduces the live total bit for bit.
pub fn startup_probe(seed: u64, out: &mut Outcome) -> Probe {
    let cfg = AnalysisConfig::paper_testbench();
    let models: Vec<_> = (0..PROBE_VARIANTS)
        .map(|k| replay_variant_model(&cfg, k))
        .collect();
    let mut bus = build_paper_bus(PROBE_CYCLES, seed);

    let t0 = Instant::now();
    let mut session = PowerSession::with_recorder(&cfg);
    session.run(&mut bus, PROBE_CYCLES);
    let trace = session.finish_recorder().expect("recorder attached");
    let record_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let outcomes = replay_sweep(&trace, &models, 1);
    let replay_s = t1.elapsed().as_secs_f64();

    out.check(
        outcomes[0].total_energy().to_bits() == session.total_energy().to_bits(),
        || format!("start-up probe seed {seed}: replay variant 0 differs from the live total"),
    );
    Probe {
        record_s,
        replay_s,
        trace_bytes: trace.to_bytes().len(),
    }
}

/// Sets the three metrics to their medians over `probes`.
pub fn probe_metrics(probes: &[Probe], out: &mut Outcome) {
    let cycles = PROBE_CYCLES as f64;
    let med = |f: &dyn Fn(&Probe) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    out.set("record_mcycles_per_s", med(&|p| cycles / p.record_s / 1e6));
    out.set(
        "replay_mcycles_per_s",
        med(&|p| cycles * PROBE_VARIANTS as f64 / p.replay_s / 1e6),
    );
    out.set(
        "trace_bytes_per_cycle",
        med(&|p| p.trace_bytes as f64 / cycles),
    );
    out.meta("probe_reps", probes.len());
}
