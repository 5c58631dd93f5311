//! Energy ledgers: per-instruction (Table 1) and per-sub-block (Fig. 6).

use std::fmt;

use crate::instruction::{Instruction, INSTRUCTION_COUNT};
use crate::macromodel::BlockEnergy;
use crate::replay::{INSTR_MASK, MASTER_MASK, MASTER_SHIFT};

/// Formats an energy in joules with an auto-scaled unit (pJ/nJ/uJ/mJ).
///
/// # Examples
///
/// ```
/// use ahbpower::fmt_energy;
///
/// assert_eq!(fmt_energy(14.7e-12), "14.70 pJ");
/// assert_eq!(fmt_energy(839.6e-6), "839.60 uJ");
/// assert_eq!(fmt_energy(0.0), "0.00 pJ");
/// ```
pub fn fmt_energy(joules: f64) -> String {
    let abs = joules.abs();
    let (scale, unit) = if abs >= 1e-3 {
        (1e3, "mJ")
    } else if abs >= 1e-6 {
        (1e6, "uJ")
    } else if abs >= 1e-9 {
        (1e9, "nJ")
    } else {
        (1e12, "pJ")
    };
    format!("{:.2} {unit}", joules * scale)
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionRow {
    /// The instruction.
    pub instruction: Instruction,
    /// How many times it executed.
    pub count: u64,
    /// Average energy per execution, joules.
    pub average: f64,
    /// Total energy, joules.
    pub total: f64,
    /// Share of the whole simulation's energy (0..=1).
    pub share: f64,
}

/// Accumulates per-instruction energy — the data behind Table 1.
///
/// # Examples
///
/// ```
/// use ahbpower::{ActivityMode, Instruction, InstructionLedger};
///
/// let mut ledger = InstructionLedger::new();
/// let wr = Instruction::new(ActivityMode::Write, ActivityMode::Read);
/// ledger.record(wr, 14.7e-12);
/// ledger.record(wr, 15.3e-12);
/// let row = ledger.rows().into_iter().find(|r| r.instruction == wr).unwrap();
/// assert_eq!(row.count, 2);
/// assert!((row.average - 15.0e-12).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstructionLedger {
    counts: [u64; INSTRUCTION_COUNT],
    energy: [f64; INSTRUCTION_COUNT],
}

impl InstructionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        InstructionLedger::default()
    }

    /// Reconstitutes a ledger from raw per-instruction `counts` and
    /// `energy` arrays (indexed by [`Instruction::index`]).
    pub fn from_parts(counts: [u64; INSTRUCTION_COUNT], energy: [f64; INSTRUCTION_COUNT]) -> Self {
        InstructionLedger { counts, energy }
    }

    /// Records one execution of `instruction` costing `joules`.
    pub fn record(&mut self, instruction: Instruction, joules: f64) {
        let i = instruction.index();
        self.counts[i] += 1;
        self.energy[i] += joules;
    }

    /// Total energy across all instructions, joules.
    pub fn total_energy(&self) -> f64 {
        self.energy.iter().sum()
    }

    /// Total instruction executions.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Executions of one instruction.
    pub fn count(&self, instruction: Instruction) -> u64 {
        self.counts[instruction.index()]
    }

    /// Total energy of one instruction, joules.
    pub fn energy(&self, instruction: Instruction) -> f64 {
        self.energy[instruction.index()]
    }

    /// Rows for every instruction that executed at least once, sorted by
    /// descending total energy (the paper's table layout).
    pub fn rows(&self) -> Vec<InstructionRow> {
        let grand_total = self.total_energy();
        let mut rows: Vec<InstructionRow> = Instruction::all()
            .filter(|i| self.counts[i.index()] > 0)
            .map(|i| {
                let idx = i.index();
                let total = self.energy[idx];
                InstructionRow {
                    instruction: i,
                    count: self.counts[idx],
                    average: total / self.counts[idx] as f64,
                    total,
                    share: if grand_total > 0.0 {
                        total / grand_total
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total.partial_cmp(&a.total).expect("energies are finite"));
        rows
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &InstructionLedger) {
        for i in 0..INSTRUCTION_COUNT {
            self.counts[i] += other.counts[i];
            self.energy[i] += other.energy[i];
        }
    }
}

impl fmt::Display for InstructionLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>12} {:>14} {:>14} {:>8}",
            "Instruction", "count", "avg energy", "total energy", "share"
        )?;
        for r in self.rows() {
            writeln!(
                f,
                "{:<18} {:>12} {:>11.1} pJ {:>14} {:>7.2}%",
                r.instruction.name(),
                r.count,
                r.average * 1e12,
                fmt_energy(r.total),
                r.share * 100.0
            )?;
        }
        writeln!(
            f,
            "{:<18} {:>12} {:>14} {:>14} {:>7.2}%",
            "Total",
            self.total_count(),
            "",
            fmt_energy(self.total_energy()),
            100.0
        )
    }
}

/// Named sub-blocks in Fig. 6's order.
pub const BLOCK_NAMES: [&str; 4] = ["M2S", "DEC", "ARB", "S2M"];

/// Accumulates per-sub-block energy — the data behind Fig. 6.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockLedger {
    total: BlockEnergy,
    cycles: u64,
}

impl BlockLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        BlockLedger::default()
    }

    /// Adds one cycle's block energies.
    pub fn record(&mut self, e: BlockEnergy) {
        self.total += e;
        self.cycles += 1;
    }

    /// Accumulated totals.
    pub fn totals(&self) -> BlockEnergy {
        self.total
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `(name, energy, share)` for each block, in Fig. 6's order
    /// (M2S, DEC, ARB, S2M).
    pub fn shares(&self) -> [(&'static str, f64, f64); 4] {
        let t = self.total.total();
        let f = |e: f64| if t > 0.0 { e / t } else { 0.0 };
        [
            ("M2S", self.total.m2s, f(self.total.m2s)),
            ("DEC", self.total.dec, f(self.total.dec)),
            ("ARB", self.total.arb, f(self.total.arb)),
            ("S2M", self.total.s2m, f(self.total.s2m)),
        ]
    }
}

impl fmt::Display for BlockLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<6} {:>14} {:>8}", "block", "energy", "share")?;
        for (name, e, share) in self.shares() {
            writeln!(
                f,
                "{:<6} {:>14} {:>7.2}%",
                name,
                fmt_energy(e),
                share * 100.0
            )?;
        }
        Ok(())
    }
}

/// Per-master slots: one for every value of the word's 8-bit master field.
const MASTER_SLOTS: usize = (MASTER_MASK as usize) + 1;

/// Where every cycle's energy is booked, keyed by its activity word: the
/// instruction ledger, the block ledger and the bus owner's share. The
/// live [`PowerFsm`](crate::PowerFsm) and a replay each own one, and
/// telemetry books each detection window into one.
#[derive(Debug, Clone)]
pub(crate) struct EnergyBook {
    pub(crate) ledger: InstructionLedger,
    pub(crate) blocks: BlockLedger,
    per_master: [f64; MASTER_SLOTS],
    max_master: usize,
}

impl EnergyBook {
    pub(crate) fn new() -> Self {
        EnergyBook {
            ledger: InstructionLedger::new(),
            blocks: BlockLedger::new(),
            per_master: [0.0; MASTER_SLOTS],
            max_master: 0,
        }
    }

    #[inline]
    pub(crate) fn book(&mut self, word: u64, energy: BlockEnergy) {
        let instr = (word & INSTR_MASK) as usize;
        let master = ((word >> MASTER_SHIFT) & MASTER_MASK) as usize;
        let total = energy.total();
        self.ledger.counts[instr] += 1;
        self.ledger.energy[instr] += total;
        self.blocks.record(energy);
        self.per_master[master] += total;
        self.max_master = self.max_master.max(master);
    }

    /// Empties the book, as if newly created.
    pub(crate) fn clear(&mut self) {
        *self = EnergyBook::new();
    }

    /// One slot per master up to the highest owner seen; empty before the
    /// first cycle.
    pub(crate) fn per_master_energy(&self) -> &[f64] {
        if self.blocks.cycles == 0 {
            &[]
        } else {
            &self.per_master[..=self.max_master]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ActivityMode::*;

    #[test]
    fn empty_ledger_is_zero() {
        let l = InstructionLedger::new();
        assert_eq!(l.total_energy(), 0.0);
        assert_eq!(l.total_count(), 0);
        assert!(l.rows().is_empty());
    }

    #[test]
    fn rows_sorted_by_total_energy() {
        let mut l = InstructionLedger::new();
        let wr = Instruction::new(Write, Read);
        let rw = Instruction::new(Read, Write);
        let ii = Instruction::new(Idle, Idle);
        l.record(wr, 10e-12);
        l.record(rw, 30e-12);
        l.record(ii, 1e-12);
        let rows = l.rows();
        assert_eq!(rows[0].instruction, rw);
        assert_eq!(rows[1].instruction, wr);
        assert_eq!(rows[2].instruction, ii);
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn averages_and_counts() {
        let mut l = InstructionLedger::new();
        let wr = Instruction::new(Write, Read);
        l.record(wr, 10e-12);
        l.record(wr, 20e-12);
        assert_eq!(l.count(wr), 2);
        assert!((l.energy(wr) - 30e-12).abs() < 1e-20);
        let row = &l.rows()[0];
        assert!((row.average - 15e-12).abs() < 1e-20);
    }

    #[test]
    fn merge_adds_both() {
        let wr = Instruction::new(Write, Read);
        let mut a = InstructionLedger::new();
        a.record(wr, 1e-12);
        let mut b = InstructionLedger::new();
        b.record(wr, 2e-12);
        a.merge(&b);
        assert_eq!(a.count(wr), 2);
        assert!((a.energy(wr) - 3e-12).abs() < 1e-24);
    }

    #[test]
    fn merge_with_disjoint_instruction_sets_unions_rows() {
        let wr = Instruction::new(Write, Read);
        let rw = Instruction::new(Read, Write);
        let ii = Instruction::new(Idle, Idle);
        let mut a = InstructionLedger::new();
        a.record(wr, 10e-12);
        a.record(wr, 20e-12);
        let mut b = InstructionLedger::new();
        b.record(rw, 5e-12);
        b.record(ii, 1e-12);
        a.merge(&b);
        // Each side's rows survive untouched: disjoint sets simply union.
        assert_eq!(a.count(wr), 2);
        assert_eq!(a.count(rw), 1);
        assert_eq!(a.count(ii), 1);
        assert!((a.energy(wr) - 30e-12).abs() < 1e-24);
        assert!((a.energy(rw) - 5e-12).abs() < 1e-24);
        assert_eq!(a.total_count(), 4);
        assert!((a.total_energy() - 36e-12).abs() < 1e-24);
        assert_eq!(a.rows().len(), 3);
        // `b` is unchanged by the merge.
        assert_eq!(b.total_count(), 2);
    }

    #[test]
    fn merge_with_overlapping_instruction_sets_sums_shared_rows() {
        let wr = Instruction::new(Write, Read);
        let rw = Instruction::new(Read, Write);
        let mut a = InstructionLedger::new();
        a.record(wr, 10e-12);
        a.record(rw, 2e-12);
        let mut b = InstructionLedger::new();
        b.record(wr, 30e-12);
        b.record(wr, 30e-12);
        a.merge(&b);
        // Shared instruction sums counts and energy across both ledgers...
        assert_eq!(a.count(wr), 3);
        assert!((a.energy(wr) - 70e-12).abs() < 1e-24);
        // ...and the merged average reflects the combined population.
        let row = a.rows().into_iter().find(|r| r.instruction == wr).unwrap();
        assert!((row.average - 70e-12 / 3.0).abs() < 1e-24);
        // The non-overlapping row is carried through unchanged.
        assert_eq!(a.count(rw), 1);
        assert!((a.total_energy() - 72e-12).abs() < 1e-24);
    }

    #[test]
    fn display_renders_table() {
        let mut l = InstructionLedger::new();
        l.record(Instruction::new(Write, Read), 14.7e-12);
        let s = l.to_string();
        assert!(s.contains("WRITE_READ"));
        assert!(s.contains("Total"));
        assert!(s.contains("pJ"));
    }

    #[test]
    fn block_ledger_shares_sum_to_one() {
        let mut b = BlockLedger::new();
        b.record(BlockEnergy {
            dec: 1.0,
            m2s: 5.0,
            s2m: 3.0,
            arb: 1.0,
        });
        b.record(BlockEnergy {
            dec: 1.0,
            m2s: 5.0,
            s2m: 3.0,
            arb: 1.0,
        });
        assert_eq!(b.cycles(), 2);
        let shares = b.shares();
        let sum: f64 = shares.iter().map(|(_, _, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(shares[0].0, "M2S");
        assert!((shares[0].1 - 10.0).abs() < 1e-12);
        let txt = b.to_string();
        assert!(txt.contains("M2S") && txt.contains("share"));
    }

    #[test]
    fn zero_energy_shares_are_zero_not_nan() {
        let b = BlockLedger::new();
        for (_, _, s) in b.shares() {
            assert_eq!(s, 0.0);
        }
        let l = InstructionLedger::new();
        for r in l.rows() {
            assert!(!r.share.is_nan());
        }
    }
}
