//! Record-once / estimate-many plumbing shared by `repro record`,
//! `repro replay`, the serve self-calibration and the golden tests: a
//! recorded paper-testbench run, the deterministic coefficient-variant
//! grid a replay sweeps, and the [`SweepRunner`] fan-out over the replay
//! engine itself.

use ahbpower::{
    ActivityTrace, AhbPowerModel, AnalysisConfig, PowerSession, ReplayEngine, ReplayOutcome,
    SubBlock,
};
use ahbpower_workloads::PaperTestbench;

use crate::{build_paper_bus, PaperRun, SweepRunner};

/// The factor grid non-identity variants cycle through (crossed with
/// [`SubBlock::ALL`]); none equals 1.0, so every variant k > 0 books an
/// energy genuinely different from the golden variant 0.
pub const REPLAY_VARIANT_FACTORS: [f64; 4] = [0.5, 0.8, 1.25, 2.0];

/// Like [`crate::run_paper_experiment`], with the activity recorder
/// attached: returns the run plus the finished trace, stamped with the
/// live ledger total so replays can self-check fidelity.
///
/// # Panics
///
/// Panics if the testbench fails to build (impossible for valid configs).
pub fn run_paper_experiment_recorded(cycles: u64, seed: u64) -> (PaperRun, ActivityTrace) {
    let config = AnalysisConfig::paper_testbench();
    let tb = PaperTestbench::sized_for(cycles, seed);
    let mut bus = tb.build().expect("paper testbench is statically valid");
    let mut session = PowerSession::with_recorder(&config);
    session.run(&mut bus, cycles);
    let trace = session.finish_recorder().expect("recorder attached");
    (
        PaperRun {
            config,
            session,
            bus,
            cycles,
        },
        trace,
    )
}

/// The coefficient tweak replay variant `k` applies: `None` for the
/// identity variant 0 (the golden reference), otherwise the scaled
/// sub-block and factor. Deterministic, so every consumer (CLI, bench,
/// tests, serve calibration) sweeps the same grid: blocks rotate fastest,
/// factors advance every [`SubBlock::ALL`] variants — 16 distinct
/// non-identity combinations before the grid wraps.
pub fn replay_variant_spec(k: usize) -> Option<(SubBlock, f64)> {
    let k = k.checked_sub(1)?;
    let block = SubBlock::ALL[k % SubBlock::ALL.len()];
    let factor = REPLAY_VARIANT_FACTORS[(k / SubBlock::ALL.len()) % REPLAY_VARIANT_FACTORS.len()];
    Some((block, factor))
}

/// Builds the model replay variant `k` evaluates: the paper-form model
/// sized from `cfg` with [`replay_variant_spec`]'s tweak applied.
pub fn replay_variant_model(cfg: &AnalysisConfig, k: usize) -> AhbPowerModel {
    let mut model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
    if let Some((block, factor)) = replay_variant_spec(k) {
        model.scale_block(block, factor);
    }
    model
}

/// Replays one recorded trace under every model, fanned out over `jobs`
/// worker threads. Outcomes come back in model order and are
/// bit-identical for any job count: each replay owns its engine and
/// outcome, and the LUT kernel is deterministic.
pub fn replay_sweep(
    trace: &ActivityTrace,
    models: &[AhbPowerModel],
    jobs: usize,
) -> Vec<ReplayOutcome> {
    SweepRunner::new(jobs).run(models, |_, m| {
        let mut out = ReplayOutcome::new();
        ReplayEngine::new(m).replay_into(trace, &mut out);
        out
    })
}

/// Re-simulates the paper testbench cycle-accurately under replay
/// variant `k`'s model — the slow path the replay engine replaces; the
/// golden tests compare both sides bit for bit.
///
/// # Panics
///
/// Panics if the testbench fails to build (impossible for valid configs).
pub fn resimulate_variant(cycles: u64, seed: u64, k: usize) -> PowerSession {
    let cfg = AnalysisConfig::paper_testbench();
    let model = replay_variant_model(&cfg, k);
    let mut bus = build_paper_bus(cycles, seed);
    let mut session = PowerSession::with_model(model, cfg.window_cycles, cfg.f_clk_hz);
    session.run(&mut bus, cycles);
    session
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_grid_is_identity_then_distinct_tweaks() {
        assert_eq!(replay_variant_spec(0), None);
        let specs: Vec<_> = (1..17)
            .map(|k| replay_variant_spec(k).expect("tweak"))
            .collect();
        for (i, a) in specs.iter().enumerate() {
            assert_ne!(a.1, 1.0, "variant {} must move the energy", i + 1);
            for (j, b) in specs.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {} and {} collide", i + 1, j + 1);
            }
        }
        // The grid wraps after 16 non-identity combinations.
        assert_eq!(replay_variant_spec(17), replay_variant_spec(1));
    }

    #[test]
    fn recorded_run_replays_to_live_total_bit_for_bit() {
        let (run, trace) = run_paper_experiment_recorded(3_000, 2003);
        assert_eq!(trace.cycles(), 3_000);
        assert_eq!(
            trace.live_total_j.to_bits(),
            run.session.total_energy().to_bits()
        );
        let outcomes = replay_sweep(&trace, &[replay_variant_model(&run.config, 0)], 1);
        assert_eq!(
            outcomes[0].total_energy().to_bits(),
            run.session.total_energy().to_bits()
        );
    }

    #[test]
    fn replay_sweep_is_bit_identical_across_job_counts() {
        let (run, trace) = run_paper_experiment_recorded(2_000, 7);
        let models: Vec<AhbPowerModel> = (0..6)
            .map(|k| replay_variant_model(&run.config, k))
            .collect();
        let serial = replay_sweep(&trace, &models, 1);
        let parallel = replay_sweep(&trace, &models, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.total_energy().to_bits(), p.total_energy().to_bits());
        }
        // Non-identity variants genuinely diverge from the golden one.
        for (k, o) in serial.iter().enumerate().skip(1) {
            assert_ne!(
                o.total_energy().to_bits(),
                serial[0].total_energy().to_bits(),
                "variant {k} left the energy unchanged"
            );
        }
    }

    #[test]
    fn variant_replay_matches_fresh_resimulation() {
        let (run, trace) = run_paper_experiment_recorded(2_000, 2003);
        for k in [1usize, 5, 10] {
            let replayed = replay_sweep(&trace, &[replay_variant_model(&run.config, k)], 1);
            let fresh = resimulate_variant(2_000, 2003, k);
            assert_eq!(
                replayed[0].total_energy().to_bits(),
                fresh.total_energy().to_bits(),
                "variant {k} replay != fresh simulation"
            );
        }
    }
}
