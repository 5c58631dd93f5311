//! Transaction-level energy tracing.
//!
//! [`TxnTracer`] couples the AHB crate's [`PhaseDecoder`] with the power
//! FSM's per-cycle output: the decoded phases assemble causally-linked
//! [`TxnRecord`]s (request → grant → address → data → completion), and
//! every cycle's [`BlockEnergy`] is added both to the owning master's open
//! transaction and to an [`AttributionTable`] keyed by (master, slave,
//! instruction). Completed records land in a bounded ring buffer — oldest
//! evicted first — so tracing stays safe at millions of cycles while the
//! attribution table (16 instructions × masters × slaves, tiny) keeps
//! exact energy totals regardless of eviction.

use std::collections::VecDeque;

use ahbpower_ahb::{BusSnapshot, Completion, HBurst, MasterId, PhaseDecoder, SlaveId};

use crate::attribution::AttributionTable;
use crate::macromodel::BlockEnergy;
use crate::power_fsm::CycleRecord;

/// Default ring capacity: enough for every transaction of the smoke runs,
/// bounded for the multi-million-cycle ones.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Opt-in switch for transaction tracing, mirroring
/// [`crate::telemetry::TelemetryConfig`]: default-off, so a session built
/// from a default config is byte-identical to an untraced one.
#[derive(Debug, Clone)]
pub struct TxnTracerConfig {
    /// Master switch; `false` (the default) means no tracer is attached.
    pub enabled: bool,
    /// Completed-transaction ring capacity (clamped to at least 1).
    pub ring_capacity: usize,
}

impl Default for TxnTracerConfig {
    fn default() -> Self {
        TxnTracerConfig {
            enabled: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TxnTracerConfig {
    /// An enabled config with the given ring capacity.
    pub fn enabled(ring_capacity: usize) -> Self {
        TxnTracerConfig {
            enabled: true,
            ring_capacity: ring_capacity.max(1),
        }
    }
}

/// One causally-linked bus transaction (a whole burst).
///
/// All `*_cycle` stamps are bus-cycle numbers (`BusSnapshot::cycle`).
/// `request_cycle`/`grant_cycle` are `None` when the transaction reused a
/// grant obtained for an earlier back-to-back burst (the edges are
/// consumed by the first transaction after them) or a parked grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnRecord {
    /// Monotonic transaction id, in start order.
    pub id: u64,
    /// The master that issued the transaction.
    pub master: MasterId,
    /// The decoded slave (`None` = default slave / no HSEL).
    pub slave: Option<SlaveId>,
    /// `true` for a write transfer.
    pub write: bool,
    /// First beat's address.
    pub addr: u32,
    /// Burst kind announced with the address phase.
    pub burst: HBurst,
    /// Cycle the master raised HBUSREQ, when observed.
    pub request_cycle: Option<u64>,
    /// Cycle the arbiter's grant edge arrived, when observed.
    pub grant_cycle: Option<u64>,
    /// Cycles spent waiting between request and grant.
    pub grant_wait_cycles: u64,
    /// Cycle of the NONSEQ address phase.
    pub start_cycle: u64,
    /// Cycle the final data beat completed.
    pub complete_cycle: u64,
    /// Data beats completed (1 for SINGLE, up to 16 for INCR16/WRAP16).
    pub beats: u32,
    /// Beats that ended with an OKAY response.
    pub ok_beats: u32,
    /// HREADY wait-state cycles inside the data phases.
    pub wait_cycles: u64,
    /// Energy booked to the owning master while this transaction was
    /// open, split by sub-block (joules).
    pub energy: BlockEnergy,
}

impl TxnRecord {
    /// Bus-occupancy cycles, address phase through final data beat.
    pub fn occupancy_cycles(&self) -> u64 {
        self.complete_cycle.saturating_sub(self.start_cycle) + 1
    }
}

/// The transaction-attribution tracer.
///
/// Feed it every cycle's snapshot plus the power FSM's [`CycleRecord`]
/// for that same cycle; read completed transactions from
/// [`TxnTracer::records`] and the exact energy split from
/// [`TxnTracer::attribution`]. Attach it to a session with
/// [`crate::PowerSession::with_txn_tracer`].
#[derive(Debug, Clone)]
pub struct TxnTracer {
    decoder: PhaseDecoder,
    /// The transaction the decoder reports open, with its energy so far.
    open: Option<TxnRecord>,
    ring: VecDeque<TxnRecord>,
    capacity: usize,
    next_id: u64,
    completed: u64,
    evicted: u64,
    attribution: AttributionTable,
}

impl TxnTracer {
    /// Creates a tracer for `n_masters` masters with the given completed-
    /// transaction ring capacity (clamped to at least 1).
    pub fn new(n_masters: usize, ring_capacity: usize) -> Self {
        TxnTracer {
            decoder: PhaseDecoder::new(n_masters),
            open: None,
            ring: VecDeque::new(),
            capacity: ring_capacity.max(1),
            next_id: 0,
            completed: 0,
            evicted: 0,
            attribution: AttributionTable::new(),
        }
    }

    /// Observes one cycle: closes and opens transactions as the cycle's
    /// decoded phase says, then books the cycle's energy to the owning
    /// master's open transaction and to the attribution table. Every
    /// cycle is attributed (to the address-phase owner, with
    /// `slave = None` outside transactions), so the table's total
    /// conserves the instruction ledger's.
    pub fn observe(&mut self, snap: &BusSnapshot, rec: &CycleRecord) {
        let phase = self.decoder.decode(snap);
        if let Some(done) = phase.completed {
            self.complete(done);
        }
        if phase.started {
            let start = self.decoder.start();
            self.open = Some(TxnRecord {
                id: self.next_id,
                master: snap.hmaster,
                slave: slave_of(snap.hsel),
                write: snap.hwrite,
                addr: snap.haddr,
                burst: snap.hburst,
                request_cycle: start.request_cycle,
                grant_cycle: start.grant_cycle,
                grant_wait_cycles: start.grant_wait_cycles,
                start_cycle: snap.cycle,
                complete_cycle: snap.cycle,
                beats: 0,
                ok_beats: 0,
                wait_cycles: 0,
                energy: BlockEnergy::default(),
            });
            self.next_id += 1;
        }
        let owner = snap.hmaster;
        // The cycle's energy belongs to the owner's open transaction — or,
        // on the cycle its final beat completed, to the record that just
        // reached the ring.
        let txn = match &mut self.open {
            Some(txn) if txn.master == owner => Some(txn),
            _ => self
                .ring
                .back_mut()
                .filter(|txn| txn.master == owner && txn.complete_cycle == snap.cycle),
        };
        let slave = txn.and_then(|txn| {
            txn.energy += rec.energy;
            txn.slave
        });
        self.attribution
            .record(owner, slave, rec.instruction, rec.energy);
    }

    /// Moves the open transaction into the ring with the decoder's tally.
    fn complete(&mut self, done: Completion) {
        let Some(mut txn) = self.open.take() else {
            return;
        };
        txn.beats = done.beats;
        txn.ok_beats = done.ok_beats;
        txn.wait_cycles = u64::from(done.wait_cycles);
        txn.complete_cycle = done.last_beat_cycle;
        self.completed += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(txn);
    }

    /// Flushes the transaction still in flight, if any. Idempotent; call
    /// once the run is over, before exporting.
    pub fn finish(&mut self) {
        if let Some(done) = self.decoder.finish() {
            self.complete(done);
        }
    }

    /// Completed transactions still in the ring, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TxnRecord> {
        self.ring.iter()
    }

    /// Completed transactions currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no transaction has completed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transactions completed over the whole run (evicted ones included).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Completed transactions evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The exact (master, slave, instruction) energy attribution.
    pub fn attribution(&self) -> &AttributionTable {
        &self.attribution
    }
}

/// The lowest asserted HSEL line, or `None` for the default slave.
fn slave_of(hsel: u32) -> Option<SlaveId> {
    (hsel != 0).then(|| SlaveId(hsel.trailing_zeros() as u8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{ActivityMode, Instruction};
    use ahbpower_ahb::{HResp, HSize, HTrans};

    fn snap(cycle: u64, trans: HTrans) -> BusSnapshot {
        BusSnapshot {
            cycle,
            haddr: 0x40 + 4 * cycle as u32,
            htrans: trans,
            hwrite: true,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(0),
            hmastlock: false,
            hbusreq: 0b1,
            hgrant: 0b1,
            hsel: 0b1,
        }
    }

    fn rec(x: f64) -> CycleRecord {
        CycleRecord {
            instruction: Instruction::new(ActivityMode::Idle, ActivityMode::Write),
            energy: BlockEnergy {
                dec: x,
                m2s: x,
                s2m: 0.0,
                arb: x,
            },
            word: 0,
        }
    }

    /// Alternating NONSEQ/IDLE cycles: one single-beat write per pair.
    fn run_singles(tracer: &mut TxnTracer, n: u64) {
        for k in 0..n {
            tracer.observe(&snap(2 * k, HTrans::NonSeq), &rec(1.0));
            tracer.observe(&snap(2 * k + 1, HTrans::Idle), &rec(1.0));
        }
        tracer.finish();
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut tracer = TxnTracer::new(1, 2);
        run_singles(&mut tracer, 5);
        assert_eq!(tracer.completed(), 5);
        assert_eq!(tracer.evicted(), 3);
        assert_eq!(tracer.len(), 2);
        assert_eq!(tracer.capacity(), 2);
        // Oldest evicted first: ids 0, 1, 2 are gone; 3 then 4 remain.
        let ids: Vec<u64> = tracer.records().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 4]);
        // Attribution survives eviction: all 10 cycles are booked.
        assert_eq!(tracer.attribution().cycles(), 10);
        assert!((tracer.attribution().total_energy() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn records_carry_lifecycle_stamps_and_energy() {
        let mut tracer = TxnTracer::new(1, 8);
        run_singles(&mut tracer, 1);
        let txn = tracer.records().next().copied().expect("one transaction");
        assert_eq!(txn.master, MasterId(0));
        assert_eq!(txn.slave, Some(SlaveId(0)));
        assert!(txn.write);
        assert_eq!(txn.start_cycle, 0);
        assert_eq!(txn.complete_cycle, 1);
        assert_eq!(txn.occupancy_cycles(), 2);
        assert_eq!(txn.beats, 1);
        assert_eq!(txn.ok_beats, 1);
        // Both cycles were owned by master 0 with the txn open.
        assert!((txn.energy.total() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unselected_address_decodes_to_default_slave() {
        assert_eq!(slave_of(0), None);
        assert_eq!(slave_of(0b100), Some(SlaveId(2)));
    }

    #[test]
    fn finish_flushes_open_transaction_once() {
        let mut tracer = TxnTracer::new(1, 8);
        tracer.observe(&snap(0, HTrans::NonSeq), &rec(1.0));
        assert_eq!(tracer.len(), 0, "still open");
        tracer.finish();
        tracer.finish();
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.completed(), 1);
    }
}
