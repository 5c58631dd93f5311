//! Energy attribution by (master, slave, instruction).
//!
//! The power FSM books every cycle's energy against the address-phase
//! owner (`BusSnapshot::hmaster`); the [`AttributionTable`] refines that
//! booking with the slave the owner's open transaction targets and the
//! cycle's instruction, while conserving the total exactly: every cycle is
//! recorded in exactly one cell, so the table's total equals
//! `InstructionLedger::total_energy()` up to float summation order.

use ahbpower_ahb::{MasterId, SlaveId};

use crate::instruction::{Instruction, INSTRUCTION_COUNT};
use crate::macromodel::BlockEnergy;

/// One attribution cell, flattened for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributionRow {
    /// The master the energy is booked to (the address-phase owner).
    pub master: MasterId,
    /// The slave its open transaction targeted, if any.
    pub slave: Option<SlaveId>,
    /// The instruction executed on the attributed cycles.
    pub instruction: Instruction,
    /// Attributed energy, split by sub-block (joules).
    pub energy: BlockEnergy,
}

/// Accumulates per-cycle energy into (master, slave, instruction) cells.
///
/// Cells are one flat array indexed by master, then slave slot (slot 0
/// for no decoded slave — idle cycles and default-slave transfers — and
/// slot `s + 1` for slave `s`), then instruction index, growing on demand
/// to the highest master and slave seen. Index order is therefore
/// (master, slave, instruction) order with "no slave" first, so
/// iteration — and every export built from [`AttributionTable::rows`] —
/// is deterministic across runs and platforms. A cell stays `None` until
/// a cycle is recorded in it, so recorded cells count even at zero
/// energy.
///
/// # Examples
///
/// ```
/// use ahbpower::{ActivityMode, AttributionTable, BlockEnergy, Instruction};
/// use ahbpower_ahb::{MasterId, SlaveId};
///
/// let mut table = AttributionTable::new();
/// let instr = Instruction::new(ActivityMode::Idle, ActivityMode::Write);
/// let energy = BlockEnergy { dec: 1e-12, m2s: 2e-12, s2m: 0.0, arb: 1e-12 };
/// table.record(MasterId(0), Some(SlaveId(1)), instr, energy);
/// assert_eq!(table.cycles(), 1);
/// assert!((table.total_energy() - 4e-12).abs() < 1e-24);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttributionTable {
    cells: Vec<Option<BlockEnergy>>,
    /// Slave slots per master: the highest slave slot seen plus one.
    slave_slots: usize,
    cycles: u64,
}

impl AttributionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AttributionTable::default()
    }

    /// Books one cycle's energy to `(master, slave, instruction)`.
    #[inline]
    pub fn record(
        &mut self,
        master: MasterId,
        slave: Option<SlaveId>,
        instruction: Instruction,
        energy: BlockEnergy,
    ) {
        let slot = slave.map_or(0, |s| usize::from(s.0) + 1);
        if slot >= self.slave_slots {
            self.widen(slot + 1);
        }
        let row = master.index() * self.slave_slots + slot;
        let i = row * INSTRUCTION_COUNT + instruction.index();
        if i >= self.cells.len() {
            let masters = master.index() + 1;
            self.cells
                .resize(masters * self.slave_slots * INSTRUCTION_COUNT, None);
        }
        *self.cells[i].get_or_insert_with(BlockEnergy::default) += energy;
        self.cycles += 1;
    }

    /// Re-lays the cells out with `slave_slots` slots per master.
    #[cold]
    fn widen(&mut self, slave_slots: usize) {
        let from = self.slave_slots * INSTRUCTION_COUNT;
        let to = slave_slots * INSTRUCTION_COUNT;
        let mut cells = Vec::new();
        // There are no cells before the first widening, when `from` is 0.
        for row in self.cells.chunks(from.max(1)) {
            cells.extend_from_slice(row);
            cells.resize(cells.len() + to - from, None);
        }
        self.cells = cells;
        self.slave_slots = slave_slots;
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.iter().flatten().count()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// Total attributed energy, joules. Conserves the ledger total: every
    /// observed cycle's energy lands in exactly one cell.
    pub fn total_energy(&self) -> f64 {
        // + 0.0 normalizes the empty sum, which is -0.0, so an empty
        // table doesn't report "-0.00 pJ".
        self.cells
            .iter()
            .flatten()
            .map(BlockEnergy::total)
            .sum::<f64>()
            + 0.0
    }

    /// All recorded cells in deterministic key order (master, then slave
    /// with "no slave" first, then instruction index).
    pub fn rows(&self) -> Vec<AttributionRow> {
        let per_master = self.slave_slots * INSTRUCTION_COUNT;
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| {
                let energy = (*cell)?;
                let slot = i % per_master / INSTRUCTION_COUNT;
                Some(AttributionRow {
                    master: MasterId((i / per_master) as u8),
                    slave: slot.checked_sub(1).map(|s| SlaveId(s as u8)),
                    instruction: Instruction::from_index(i % INSTRUCTION_COUNT),
                    energy,
                })
            })
            .collect()
    }

    /// The `n` highest-energy cells, descending (ties keep key order).
    pub fn top_rows(&self, n: usize) -> Vec<AttributionRow> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| {
            b.energy
                .total()
                .partial_cmp(&a.energy.total())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ActivityMode;

    fn e(x: f64) -> BlockEnergy {
        BlockEnergy {
            dec: x,
            m2s: 2.0 * x,
            s2m: 0.5 * x,
            arb: x,
        }
    }

    #[test]
    fn records_conserve_totals_and_split_by_key() {
        let mut t = AttributionTable::new();
        let wr = Instruction::new(ActivityMode::Write, ActivityMode::Read);
        let ii = Instruction::new(ActivityMode::Idle, ActivityMode::Idle);
        t.record(MasterId(0), Some(SlaveId(0)), wr, e(1.0));
        t.record(MasterId(0), Some(SlaveId(0)), wr, e(1.0));
        t.record(MasterId(1), None, ii, e(2.0));
        assert_eq!(t.cycles(), 3);
        assert_eq!(t.len(), 2);
        let expected = e(1.0).total() * 2.0 + e(2.0).total();
        assert!((t.total_energy() - expected).abs() < 1e-12);
        let master_energy = |m: u8| -> f64 {
            t.rows()
                .iter()
                .filter(|r| r.master == MasterId(m))
                .map(|r| r.energy.total())
                .sum()
        };
        assert!((master_energy(0) - e(1.0).total() * 2.0).abs() < 1e-12);
        assert!((master_energy(1) - e(2.0).total()).abs() < 1e-12);
    }

    #[test]
    fn rows_are_deterministic_and_top_rows_sort_descending() {
        let mut t = AttributionTable::new();
        let wr = Instruction::new(ActivityMode::Write, ActivityMode::Read);
        t.record(MasterId(1), None, wr, e(1.0));
        t.record(MasterId(0), Some(SlaveId(2)), wr, e(3.0));
        t.record(MasterId(0), Some(SlaveId(1)), wr, e(2.0));
        let rows = t.rows();
        // Key order: master 0 slaves 1, 2, then master 1.
        assert_eq!(rows[0].slave, Some(SlaveId(1)));
        assert_eq!(rows[1].slave, Some(SlaveId(2)));
        assert_eq!(rows[2].master, MasterId(1));
        let top = t.top_rows(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].slave, Some(SlaveId(2)));
        assert_eq!(top[1].slave, Some(SlaveId(1)));
    }
}
