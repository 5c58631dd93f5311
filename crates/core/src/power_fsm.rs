//! The paper's `power_fsm()` — instruction recognition + energy accounting.
//!
//! Fed one [`BusSnapshot`] per cycle, the FSM classifies the cycle's
//! activity mode, forms the executed instruction (the transition from the
//! previous mode), and packs instruction, bus owner and the observed
//! Hamming distances into one activity word. The word's energy comes from
//! the model's lookup tables ([`ReplayEngine`]) and is booked to the
//! per-instruction ledger (Table 1), the per-block ledger (Fig. 6) and the
//! owner's share by the same accumulator a replay uses.

use ahbpower_ahb::{BusSnapshot, MasterId};

use crate::instruction::{classify_mode, ActivityMode, Instruction};
use crate::ledger::{BlockLedger, EnergyBook, InstructionLedger};
use crate::macromodel::BlockEnergy;
use crate::model::AhbPowerModel;
use crate::replay::{pack_word, ReplayEngine};

/// What one observed cycle contributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// The instruction recognized for this cycle.
    pub instruction: Instruction,
    /// Energy booked to the cycle, split by sub-block.
    pub energy: BlockEnergy,
    /// The cycle's packed activity word, as an activity trace stores it
    /// (opaque; see [`crate::replay`]).
    pub word: u64,
}

/// The power FSM.
///
/// # Examples
///
/// ```
/// use ahbpower::{AhbPowerModel, PowerFsm, TechParams};
/// use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
///
/// let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
///     .master(Box::new(ScriptedMaster::new(vec![Op::write(0x0, 0xFFFF_FFFF)])))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .build()?;
/// let model = AhbPowerModel::new(1, 2, &TechParams::default());
/// let mut fsm = PowerFsm::new(model);
/// for _ in 0..8 {
///     fsm.observe(bus.step());
/// }
/// assert!(fsm.total_energy() > 0.0);
/// # Ok::<(), ahbpower_ahb::BuildBusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerFsm {
    model: AhbPowerModel,
    /// `model` as lookup tables; rebuilt whenever `model` changes.
    engine: ReplayEngine,
    state: ActivityMode,
    prev: Option<BusSnapshot>,
    last_transfer_master: Option<MasterId>,
    book: EnergyBook,
}

impl PowerFsm {
    /// Creates the FSM in the IDLE state.
    pub fn new(model: AhbPowerModel) -> Self {
        PowerFsm {
            engine: ReplayEngine::new(&model),
            model,
            state: ActivityMode::Idle,
            prev: None,
            last_transfer_master: None,
            book: EnergyBook::new(),
        }
    }

    /// Processes one cycle's wires.
    pub fn observe(&mut self, snap: &BusSnapshot) -> CycleRecord {
        let mode = classify_mode(snap, self.last_transfer_master);
        let instruction = Instruction::new(self.state, mode);
        let word = pack_word(self.prev.as_ref(), snap, instruction);
        let energy = self.engine.energy(word);
        self.book.book(word, energy);
        if snap.htrans.is_transfer() {
            self.last_transfer_master = Some(snap.hmaster);
        }
        self.state = mode;
        self.prev = Some(*snap);
        CycleRecord {
            instruction,
            energy,
            word,
        }
    }

    /// The FSM's current activity mode.
    pub fn state(&self) -> ActivityMode {
        self.state
    }

    /// The per-instruction ledger (Table 1 data).
    pub fn ledger(&self) -> &InstructionLedger {
        &self.book.ledger
    }

    /// The per-block ledger (Fig. 6 data).
    pub fn blocks(&self) -> &BlockLedger {
        &self.book.blocks
    }

    /// Total booked energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.book.ledger.total_energy()
    }

    /// Energy attributed to each master by address-phase ownership, joules
    /// (index = master id; parked-idle energy lands on the parked owner).
    pub fn per_master_energy(&self) -> &[f64] {
        self.book.per_master_energy()
    }

    /// The macromodels in use.
    pub fn model(&self) -> &AhbPowerModel {
        &self.model
    }

    /// Scales one sub-block's macromodel coefficients by `factor` — the
    /// anomaly-injection hook ([`AhbPowerModel::scale_block`]). Takes
    /// effect from the next observed cycle.
    pub fn scale_block(&mut self, block: crate::model::SubBlock, factor: f64) {
        self.model.scale_block(block, factor);
        self.engine = ReplayEngine::new(&self.model);
    }

    /// Per-instruction observation flags, indexed by
    /// [`Instruction::index`](crate::Instruction::index): `true` where the
    /// FSM has booked at least one occurrence. Static analyzers compare
    /// this against the instruction-set spec's reachable transitions.
    pub fn instruction_coverage(&self) -> [bool; crate::INSTRUCTION_COUNT] {
        let mut seen = [false; crate::INSTRUCTION_COUNT];
        for i in crate::Instruction::all() {
            seen[i.index()] = self.book.ledger.count(i) > 0;
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macromodel::TechParams;
    use ahbpower_ahb::{HBurst, HResp, HSize, HTrans, MasterId};

    fn snap(trans: HTrans, write: bool, master: u8) -> BusSnapshot {
        BusSnapshot {
            cycle: 0,
            haddr: 0,
            htrans: trans,
            hwrite: write,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(master),
            hmastlock: false,
            hbusreq: 0b00,
            hgrant: 0b01,
            hsel: 0b00,
        }
    }

    #[test]
    fn recognizes_paper_instruction_sequence() {
        let model = AhbPowerModel::new(2, 2, &TechParams::default());
        let mut fsm = PowerFsm::new(model);
        // IDLE -> WRITE -> READ -> IDLE(handover) -> IDLE(handover)
        let r1 = fsm.observe(&snap(HTrans::Idle, false, 0));
        assert_eq!(r1.instruction.name(), "IDLE_IDLE");
        let r2 = fsm.observe(&snap(HTrans::NonSeq, true, 0));
        assert_eq!(r2.instruction.name(), "IDLE_WRITE");
        let r3 = fsm.observe(&snap(HTrans::NonSeq, false, 0));
        assert_eq!(r3.instruction.name(), "WRITE_READ");
        let r4 = fsm.observe(&snap(HTrans::Idle, false, 1));
        assert_eq!(r4.instruction.name(), "READ_IDLE_HO");
        // Bus still parked with master 1 while master 0 transferred last:
        // the handover-idle mode persists (the paper's dominant idle case).
        let r5 = fsm.observe(&snap(HTrans::Idle, false, 1));
        assert_eq!(r5.instruction.name(), "IDLE_HO_IDLE_HO");
        let r6 = fsm.observe(&snap(HTrans::Idle, false, 0));
        assert_eq!(r6.instruction.name(), "IDLE_HO_IDLE");
        assert_eq!(fsm.state(), crate::ActivityMode::Idle);
        assert_eq!(fsm.ledger().total_count(), 6);
    }

    #[test]
    fn first_cycle_books_zero_energy() {
        let model = AhbPowerModel::new(2, 2, &TechParams::default());
        let mut fsm = PowerFsm::new(model);
        let r = fsm.observe(&snap(HTrans::NonSeq, true, 0));
        assert_eq!(r.energy.total(), 0.0, "no previous cycle to diff against");
    }

    #[test]
    fn ledgers_agree_on_total_energy() {
        let model = AhbPowerModel::new(2, 2, &TechParams::default());
        let mut fsm = PowerFsm::new(model);
        let mut s = snap(HTrans::NonSeq, true, 0);
        for i in 0..50u32 {
            s.haddr = i * 4;
            s.hwdata = i.wrapping_mul(0x9E37_79B9);
            s.hmaster = MasterId((i % 2) as u8);
            fsm.observe(&s);
        }
        let a = fsm.total_energy();
        let b = fsm.blocks().totals().total();
        assert!(a > 0.0);
        assert!((a - b).abs() < 1e-15 * a.max(1.0), "{a} vs {b}");
        assert_eq!(fsm.blocks().cycles(), 50);
        // Per-master attribution covers the same total.
        let per_master: f64 = fsm.per_master_energy().iter().sum();
        assert!((per_master - a).abs() < 1e-15 * a.max(1.0));
        assert!(fsm.per_master_energy().iter().all(|&e| e > 0.0));
    }

    #[test]
    fn handover_cycles_use_idle_ho_mode() {
        let model = AhbPowerModel::new(2, 2, &TechParams::default());
        let mut fsm = PowerFsm::new(model);
        fsm.observe(&snap(HTrans::NonSeq, true, 0)); // master 0 transfers
        fsm.observe(&snap(HTrans::Idle, false, 1)); // parked elsewhere
        assert_eq!(fsm.state(), crate::ActivityMode::IdleHo);
        // Idle before any transfer is plain IDLE, not handover.
        let mut fresh = PowerFsm::new(AhbPowerModel::new(2, 2, &TechParams::default()));
        fresh.observe(&snap(HTrans::Idle, false, 1));
        assert_eq!(fresh.state(), crate::ActivityMode::Idle);
    }
}
