//! The energy kernel: a branchless, table-driven lookup.
//!
//! [`ReplayEngine::new`] flattens an [`AhbPowerModel`] into per-sub-block
//! energy tables indexed by Hamming distance (plus the select / handover
//! flag), built by calling the macromodels' energy functions, so entries
//! carry the exact `f64` bits a direct evaluation produces. One packed
//! activity word then costs four table loads, with no branches, allocation
//! or clock reads. The live [`PowerFsm`](crate::PowerFsm) and the replay
//! loop share the lookup and the accumulator they book into.

use crate::ledger::{BlockLedger, EnergyBook, InstructionLedger};
use crate::macromodel::BlockEnergy;
use crate::model::AhbPowerModel;
use crate::trace::{PowerTrace, TracePoint};

use super::{
    ActivityTrace, ADDR_HD_MASK, ADDR_HD_SHIFT, FIRST_BIT, HANDOVER_BIT, M2S_REST_MASK,
    M2S_REST_SHIFT, REQ_HD_MASK, REQ_HD_SHIFT, S2M_HD_MASK, S2M_HD_SHIFT, S2M_SEL_BIT,
};

// Table strides cover every value the packed fields can carry (the fields
// are masked to these ranges), so lookups can never go out of bounds.
const DEC_LEN: usize = (ADDR_HD_MASK as usize) + 1; // 64
const M2S_STRIDE: usize = (ADDR_HD_MASK as usize) + (M2S_REST_MASK as usize) + 1; // 191
const S2M_STRIDE: usize = (S2M_HD_MASK as usize) + 1; // 64
const ARB_STRIDE: usize = (REQ_HD_MASK as usize) + 1; // 64

/// One [`AhbPowerModel`] variant as lookup tables over the packed
/// activity word: the energy kernel of both live runs and replays.
///
/// Construction is cheap (a few hundred energy-function calls); reuse one
/// engine across traces. See the [module docs](crate::replay) for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    dec: [f64; DEC_LEN],
    m2s: [f64; 2 * M2S_STRIDE],
    s2m: [f64; 2 * S2M_STRIDE],
    arb: [f64; 2 * ARB_STRIDE],
}

impl ReplayEngine {
    /// Builds the lookup tables for `model`.
    pub fn new(model: &AhbPowerModel) -> Self {
        let mut dec = [0.0; DEC_LEN];
        for (hd, slot) in dec.iter_mut().enumerate() {
            *slot = model.decoder.energy(hd as u32);
        }
        let mut m2s = [0.0; 2 * M2S_STRIDE];
        let mut s2m = [0.0; 2 * S2M_STRIDE];
        let mut arb = [0.0; 2 * ARB_STRIDE];
        for flag in 0..2usize {
            let sel = flag == 1;
            for hd in 0..M2S_STRIDE {
                m2s[flag * M2S_STRIDE + hd] = model.m2s.energy(hd as u32, sel);
            }
            for hd in 0..S2M_STRIDE {
                s2m[flag * S2M_STRIDE + hd] = model.s2m.energy(hd as u32, sel);
            }
            for hd in 0..ARB_STRIDE {
                arb[flag * ARB_STRIDE + hd] = model.arbiter.energy(hd as u32, sel);
            }
        }
        ReplayEngine { dec, m2s, s2m, arb }
    }

    /// The energy of the cycle packed into `w`: the value
    /// [`AhbPowerModel::cycle_energy`] gives for the same wires, bit for
    /// bit, and zero for the first cycle of a stream.
    #[inline]
    pub(crate) fn energy(&self, w: u64) -> BlockEnergy {
        let ho = ((w >> HANDOVER_BIT) & 1) as usize;
        let sel = ((w >> S2M_SEL_BIT) & 1) as usize;
        // 1.0 for every cycle with a predecessor; 0.0 for the first cycle,
        // zeroing its energy (1.0 * x == x and 0.0 * x == +0.0 for the
        // non-negative finite table entries, so bits are preserved).
        let live = 1.0 - ((w >> FIRST_BIT) & 1) as u32 as f64;
        let addr_hd = ((w >> ADDR_HD_SHIFT) & ADDR_HD_MASK) as usize;
        let m2s_rest = ((w >> M2S_REST_SHIFT) & M2S_REST_MASK) as usize;
        let s2m_hd = ((w >> S2M_HD_SHIFT) & S2M_HD_MASK) as usize;
        let req_hd = ((w >> REQ_HD_SHIFT) & REQ_HD_MASK) as usize;
        BlockEnergy {
            dec: live * self.dec[addr_hd],
            m2s: live * self.m2s[ho * M2S_STRIDE + addr_hd + m2s_rest],
            s2m: live * self.s2m[sel * S2M_STRIDE + s2m_hd],
            arb: live * self.arb[ho * ARB_STRIDE + req_hd],
        }
    }

    /// Replays `trace` at full fidelity (ledgers, per-master attribution
    /// and windowed power points) into a fresh outcome.
    pub fn replay(&self, trace: &ActivityTrace) -> ReplayOutcome {
        let mut out = ReplayOutcome::with_windows();
        self.replay_into(trace, &mut out);
        out
    }

    /// Replays `trace` into a caller-owned outcome. A fast outcome
    /// ([`ReplayOutcome::new`]) performs no allocation here, so sweeping N
    /// model variants over one trace touches the allocator only to build
    /// the outcomes, not per cycle.
    pub fn replay_into(&self, trace: &ActivityTrace, out: &mut ReplayOutcome) {
        out.book = EnergyBook::new();
        out.trace = out
            .windows
            .then(|| PowerTrace::new(trace.window_cycles, trace.f_clk_hz));
        let book = &mut out.book;
        match &mut out.trace {
            None => {
                for &w in trace.words() {
                    book.book(w, self.energy(w));
                }
            }
            Some(t) => {
                for &w in trace.words() {
                    let energy = self.energy(w);
                    book.book(w, energy);
                    t.push(energy);
                }
                t.finish();
            }
        }
    }
}

/// Everything one replay pass produces — the same artifacts a live
/// [`PowerSession`](crate::PowerSession) run yields, rebuilt from the
/// recording.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    book: EnergyBook,
    windows: bool,
    trace: Option<PowerTrace>,
}

impl ReplayOutcome {
    /// An outcome that books ledgers and per-master energy only — the fast
    /// configuration for coefficient sweeps that need totals, not power
    /// series.
    pub fn new() -> Self {
        ReplayOutcome {
            book: EnergyBook::new(),
            windows: false,
            trace: None,
        }
    }

    /// An outcome that additionally rebuilds the windowed power trace
    /// (Figs. 3-5), matching the live session point for point.
    pub fn with_windows() -> Self {
        let mut out = ReplayOutcome::new();
        out.windows = true;
        out
    }

    /// Per-instruction ledger (Table 1), bit-identical to the live run for
    /// a same-model replay.
    pub fn ledger(&self) -> &InstructionLedger {
        &self.book.ledger
    }

    /// Per-block ledger (Fig. 6).
    pub fn blocks(&self) -> &BlockLedger {
        &self.book.blocks
    }

    /// Total energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.book.ledger.total_energy()
    }

    /// Replayed cycles.
    pub fn cycles(&self) -> u64 {
        self.book.blocks.cycles()
    }

    /// Per-master energy attribution, joules; the slice length matches the
    /// live session's (one past the highest observed owner), empty when
    /// nothing was replayed.
    pub fn per_master_energy(&self) -> &[f64] {
        self.book.per_master_energy()
    }

    /// Windowed power points; empty unless the outcome was created
    /// [`with_windows`](ReplayOutcome::with_windows).
    pub fn trace_points(&self) -> &[TracePoint] {
        self.trace.as_ref().map(PowerTrace::points).unwrap_or(&[])
    }
}

impl Default for ReplayOutcome {
    fn default() -> Self {
        ReplayOutcome::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::instruction::{ActivityMode, Instruction};
    use crate::macromodel::TechParams;
    use crate::power_fsm::PowerFsm;
    use crate::replay::ActivityRecorder;
    use ahbpower_ahb::{BusSnapshot, HBurst, HResp, HSize, HTrans, MasterId};

    fn snap(i: u32) -> BusSnapshot {
        BusSnapshot {
            cycle: u64::from(i),
            haddr: i.wrapping_mul(0x9E37_79B9),
            htrans: if i.is_multiple_of(4) {
                HTrans::Idle
            } else {
                HTrans::NonSeq
            },
            hwrite: i.is_multiple_of(2),
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: i.rotate_left(7),
            hrdata: i.rotate_right(3),
            hready: !i.is_multiple_of(5),
            hresp: HResp::Okay,
            hmaster: MasterId((i % 3) as u8),
            hmastlock: false,
            hbusreq: i % 7,
            hgrant: 1 << (i % 3),
            hsel: 1 << (i % 3),
        }
    }

    fn recorded(cfg: &AnalysisConfig, cycles: u32) -> (PowerFsm, ActivityTrace) {
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let mut fsm = PowerFsm::new(model);
        let mut rec = ActivityRecorder::new(cfg);
        for i in 0..cycles {
            let s = snap(i);
            let r = fsm.observe(&s);
            rec.record(&s, r.instruction);
        }
        (fsm, rec.finish())
    }

    #[test]
    fn same_model_replay_is_bit_identical() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 500);
        let engine = ReplayEngine::new(fsm.model());
        let out = engine.replay(&trace);
        assert_eq!(out.cycles(), 500);
        assert_eq!(out.total_energy(), fsm.total_energy(), "total energy");
        for i in Instruction::all() {
            assert_eq!(out.ledger().count(i), fsm.ledger().count(i), "{i} count");
            assert_eq!(out.ledger().energy(i), fsm.ledger().energy(i), "{i} energy");
        }
        assert_eq!(out.blocks().totals(), fsm.blocks().totals());
        assert_eq!(out.blocks().cycles(), fsm.blocks().cycles());
        assert_eq!(out.per_master_energy(), fsm.per_master_energy());
    }

    #[test]
    fn variant_replay_matches_fresh_evaluation() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 300);
        // Scale the arbiter 3x and re-run the same snapshots live.
        let mut variant = fsm.model().clone();
        variant.arbiter.scale(3.0);
        let mut live = PowerFsm::new(variant.clone());
        for i in 0..300 {
            live.observe(&snap(i));
        }
        let out = ReplayEngine::new(&variant).replay(&trace);
        assert_eq!(out.total_energy(), live.total_energy());
        assert_eq!(out.blocks().totals(), live.blocks().totals());
    }

    #[test]
    fn windowed_points_match_live_trace() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 130);
        let mut live = PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz);
        let mut replay_fsm = PowerFsm::new(fsm.model().clone());
        for i in 0..130 {
            let r = replay_fsm.observe(&snap(i));
            live.push(r.energy);
        }
        live.finish();
        let out = ReplayEngine::new(fsm.model()).replay(&trace);
        assert_eq!(out.trace_points(), live.points());
        assert_eq!(out.trace_points().len(), 7, "6 full windows + partial");
    }

    #[test]
    fn fast_outcome_skips_windows_and_reuses_buffers() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 100);
        let engine = ReplayEngine::new(fsm.model());
        let mut out = ReplayOutcome::new();
        engine.replay_into(&trace, &mut out);
        assert!(out.trace_points().is_empty());
        assert_eq!(out.total_energy(), fsm.total_energy());
        // Second replay over the same buffers books the same result.
        engine.replay_into(&trace, &mut out);
        assert_eq!(out.total_energy(), fsm.total_energy());
        assert_eq!(out.cycles(), 100);
    }

    #[test]
    fn empty_trace_replays_to_zero() {
        let cfg = AnalysisConfig::paper_testbench();
        let trace = ActivityTrace::new(&cfg);
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let out = ReplayEngine::new(&model).replay(&trace);
        assert_eq!(out.cycles(), 0);
        assert_eq!(out.total_energy(), 0.0);
        assert!(out.per_master_energy().is_empty());
        assert!(out.trace_points().is_empty());
    }

    #[test]
    fn lut_matches_model_at_every_index() {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let e = ReplayEngine::new(&model);
        for hd in 0..DEC_LEN {
            assert_eq!(e.dec[hd], model.decoder.energy(hd as u32));
        }
        for hd in 0..M2S_STRIDE {
            assert_eq!(e.m2s[hd], model.m2s.energy(hd as u32, false));
            assert_eq!(e.m2s[M2S_STRIDE + hd], model.m2s.energy(hd as u32, true));
        }
        for hd in 0..ARB_STRIDE {
            assert_eq!(
                e.arb[ARB_STRIDE + hd],
                model.arbiter.energy(hd as u32, true)
            );
        }
    }

    #[test]
    fn default_outcome_is_fast_mode() {
        let out = ReplayOutcome::default();
        assert!(!out.windows);
        assert_eq!(out.total_energy(), 0.0);
    }

    #[test]
    fn replay_handles_idle_ho_instruction_indices() {
        // The instruction field must survive packing for all 16 indices.
        let cfg = AnalysisConfig::paper_testbench();
        let mut rec = ActivityRecorder::new(&cfg);
        for idx in 0..crate::INSTRUCTION_COUNT {
            rec.record(&snap(idx as u32), Instruction::from_index(idx));
        }
        let trace = rec.finish();
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let out = ReplayEngine::new(&model).replay(&trace);
        let ledger = out.ledger();
        for idx in 0..crate::INSTRUCTION_COUNT {
            assert_eq!(ledger.count(Instruction::from_index(idx)), 1);
        }
        let _ = Instruction::new(ActivityMode::IdleHo, ActivityMode::IdleHo);
    }
}
