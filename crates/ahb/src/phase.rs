//! AHB phase decoder: works out the bus pipeline's state once per cycle.
//!
//! Every passive observer of the bus — the performance analyzer, the
//! structured-event tap, the transaction tracer — needs the same facts
//! about a cycle: whose data phase resolved or stalled, whether a NONSEQ
//! address phase opened a transaction, which transaction completed, who
//! raised HBUSREQ or received HGRANT. [`PhaseDecoder::decode`] derives all
//! of them from one [`BusSnapshot`] into one [`Phase`] record, so the
//! observers read the record instead of each keeping its own copy of the
//! pipeline (busperf's shape: one bus description, many analyzers).
//!
//! The data-phase owner is latched on every `hready && htrans.is_transfer()`
//! cycle and resolved on the next HREADY-high cycle. A transaction (one
//! burst) opens on an accepted NONSEQ and completes when its owner's data
//! phase resolves without the same master driving SEQ/BUSY in that cycle.
//! A burst abandoned without its final beat (SPLIT/RETRY hand-back) is
//! force-completed when the next NONSEQ is accepted. Per-master work only
//! touches the HBUSREQ/HGRANT bits that changed, and decoding allocates
//! nothing.

use crate::types::{BusSnapshot, HResp, HTrans, MasterId};

/// Masters a packed request/grant word can describe.
const MAX_MASTERS: usize = u32::BITS as usize;

/// What the data phase in flight did this cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DataPhase {
    /// No data phase resolved or waited: the pipe was empty, or HREADY
    /// was low for the first cycle of an ERROR/RETRY/SPLIT response.
    #[default]
    None,
    /// The slave held HREADY low with OKAY: one wait state in this
    /// master's data phase.
    Stalled(MasterId),
    /// HREADY high: this master's data phase completed; `okay` is false
    /// for beats ending in ERROR/RETRY/SPLIT.
    Done {
        /// The master whose beat completed.
        master: MasterId,
        /// Whether the beat ended with an OKAY response.
        okay: bool,
    },
}

/// One transaction's tally: the burst a NONSEQ opened, counted until its
/// final beat completed (or until it was abandoned, or the run ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The master that issued the transaction.
    pub master: MasterId,
    /// Data beats completed.
    pub beats: u32,
    /// Beats that ended with an OKAY response.
    pub ok_beats: u32,
    /// HREADY wait-state cycles inside its data phases.
    pub wait_cycles: u32,
    /// `BusSnapshot::cycle` of its last completed beat, or of its NONSEQ
    /// address phase when no beat completed.
    pub last_beat_cycle: u64,
}

/// The arbitration history a NONSEQ address phase hands to the
/// transaction it opens (see [`PhaseDecoder::start`]). Request and grant edges belong to a master, not
/// a transaction: the first transaction a master starts after an edge
/// consumes it, so back-to-back bursts under one grant carry `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Start {
    /// Cycle of the owner's latest unconsumed HBUSREQ rising edge.
    pub request_cycle: Option<u64>,
    /// Cycle of the owner's latest unconsumed HGRANT rising edge.
    pub grant_cycle: Option<u64>,
    /// Cycles from the request edge to that grant edge; 0 for an
    /// unrequested (parked or default) grant.
    pub grant_wait_cycles: u64,
}

/// Everything one cycle tells about the bus pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase {
    /// HMASTER differs from the previous cycle's.
    pub handover: bool,
    /// The data phase in flight this cycle.
    pub data: DataPhase,
    /// An accepted NONSEQ opened a transaction owned by `snap.hmaster`;
    /// [`PhaseDecoder::start`] tells which arbitration edges it consumed.
    pub started: bool,
    /// The transaction that completed this cycle. There is at most one:
    /// an abandoned burst is force-completed only when no normal
    /// completion happened in the same cycle.
    pub completed: Option<Completion>,
    /// HBUSREQ rising edges, one bit per master.
    pub requested: u32,
    /// HGRANT rising edges, one bit per master.
    pub granted: u32,
    /// Masters requesting the bus without owning it (HBUSREQ and not
    /// HMASTER).
    pub waiting: u32,
    /// When the owner was waiting up to the previous cycle and now holds
    /// the bus: how many cycles that wait lasted.
    pub owner_wait: Option<u64>,
}

/// Derives one [`Phase`] per cycle from the snapshot stream.
///
/// # Examples
///
/// ```
/// use ahbpower_ahb::{BusSnapshot, DataPhase, HBurst, HResp, HSize, HTrans, MasterId, PhaseDecoder};
///
/// let mut snap = BusSnapshot {
///     cycle: 0, haddr: 0x10, htrans: HTrans::NonSeq, hwrite: true,
///     hsize: HSize::Word, hburst: HBurst::Single, hwdata: 0, hrdata: 0,
///     hready: true, hresp: HResp::Okay, hmaster: MasterId(0),
///     hmastlock: false, hbusreq: 0b1, hgrant: 0b1, hsel: 0b1,
/// };
/// let mut decoder = PhaseDecoder::new(1);
/// assert!(decoder.decode(&snap).started);
/// snap.cycle = 1;
/// snap.htrans = HTrans::Idle;
/// let phase = decoder.decode(&snap);
/// assert_eq!(phase.data, DataPhase::Done { master: MasterId(0), okay: true });
/// assert_eq!(phase.completed.map(|t| t.beats), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct PhaseDecoder {
    /// Snapshots decoded so far; the clock of `waiting_since`.
    cycles: u64,
    /// Request/grant bits the decoder tracks: the constructor's masters,
    /// widened when a larger HMASTER shows up.
    known: u32,
    prev_hmaster: Option<MasterId>,
    prev_hbusreq: u32,
    prev_hgrant: u32,
    /// `waiting` of the previous cycle.
    prev_waiting: u32,
    /// Per master: decoded-cycle index its current wait began.
    waiting_since: [u64; MAX_MASTERS],
    /// Per master: `BusSnapshot::cycle` of its latest HBUSREQ rising edge.
    request_edge: [u64; MAX_MASTERS],
    /// Per master: its latest HGRANT rising edge and request-to-grant wait.
    grant_edge: [(u64, u64); MAX_MASTERS],
    /// Masters whose latest request / grant edge no start consumed yet.
    unconsumed_request: u32,
    unconsumed_grant: u32,
    /// The last NONSEQ's owner and whether it consumed a request edge
    /// and a grant edge.
    consumed: (usize, bool, bool),
    /// Master whose transfer is in the data phase this cycle.
    dp_master: Option<MasterId>,
    /// The open transaction's tally.
    open: Option<Completion>,
}

impl PhaseDecoder {
    /// Creates a decoder for a bus with `n_masters` masters. Request and
    /// grant bits of higher masters are ignored until one of them shows
    /// up on HMASTER; at most 32 masters are tracked.
    pub fn new(n_masters: usize) -> Self {
        PhaseDecoder {
            cycles: 0,
            known: low_bits(n_masters),
            prev_hmaster: None,
            prev_hbusreq: 0,
            prev_hgrant: 0,
            prev_waiting: 0,
            waiting_since: [0; MAX_MASTERS],
            request_edge: [0; MAX_MASTERS],
            grant_edge: [(0, 0); MAX_MASTERS],
            unconsumed_request: 0,
            unconsumed_grant: 0,
            consumed: (0, false, false),
            dp_master: None,
            open: None,
        }
    }

    /// Decodes one cycle.
    // Always inlined, as is `BusPerfAnalyzer::observe`, so the record
    // stays in registers instead of going through memory to a call: the
    // `telemetry` rung of `repro overhead` read +26% instead of +32%
    // (medians of 10 runs).
    #[inline(always)]
    pub fn decode(&mut self, snap: &BusSnapshot) -> Phase {
        let owner = snap.hmaster.index();
        self.known |= low_bits(owner + 1);
        let owner_bit = bit(owner);
        let handover = self.prev_hmaster.is_some_and(|m| m != snap.hmaster);
        self.prev_hmaster = Some(snap.hmaster);

        // Arbitration: only bits that changed this cycle cost anything.
        let hbusreq = snap.hbusreq & self.known;
        let hgrant = snap.hgrant & self.known;
        let requested = hbusreq & !self.prev_hbusreq;
        for i in bits(requested) {
            self.request_edge[i] = snap.cycle;
        }
        let granted = hgrant & !self.prev_hgrant;
        let was_requesting = hbusreq | self.prev_hbusreq;
        for i in bits(granted) {
            let wait = if was_requesting & bit(i) != 0 {
                snap.cycle.saturating_sub(self.request_edge[i])
            } else {
                0
            };
            self.grant_edge[i] = (snap.cycle, wait);
        }
        self.unconsumed_request |= requested;
        self.unconsumed_grant |= granted;
        self.prev_hbusreq = hbusreq;
        self.prev_hgrant = hgrant;

        let waiting = hbusreq & !owner_bit;
        for i in bits(waiting & !self.prev_waiting) {
            self.waiting_since[i] = self.cycles;
        }
        let owner_wait =
            (self.prev_waiting & owner_bit != 0).then(|| self.cycles - self.waiting_since[owner]);
        self.prev_waiting = waiting;
        self.cycles += 1;

        let mut phase = Phase {
            handover,
            requested,
            granted,
            waiting,
            owner_wait,
            ..Phase::default()
        };
        if snap.hready {
            // The pending data phase resolves this cycle.
            if let Some(master) = self.dp_master.take() {
                let okay = snap.hresp == HResp::Okay;
                phase.data = DataPhase::Done { master, okay };
                if let Some(open) = self.open.as_mut().filter(|t| t.master == master) {
                    open.beats += 1;
                    open.ok_beats += u32::from(okay);
                    open.last_beat_cycle = snap.cycle;
                    // The burst continues iff the same master drives a
                    // SEQ/BUSY address phase in this very cycle.
                    let continues =
                        snap.hmaster == master && matches!(snap.htrans, HTrans::Seq | HTrans::Busy);
                    if !continues {
                        phase.completed = self.open.take();
                    }
                }
            }
            if snap.htrans == HTrans::NonSeq {
                if let Some(abandoned) = self.open.take() {
                    phase.completed = Some(abandoned);
                }
                phase.started = true;
                self.consumed = (
                    owner,
                    self.unconsumed_request & owner_bit != 0,
                    self.unconsumed_grant & owner_bit != 0,
                );
                self.unconsumed_request &= !owner_bit;
                self.unconsumed_grant &= !owner_bit;
                self.open = Some(Completion {
                    master: snap.hmaster,
                    beats: 0,
                    ok_beats: 0,
                    wait_cycles: 0,
                    last_beat_cycle: snap.cycle,
                });
            }
            if snap.htrans.is_transfer() {
                self.dp_master = Some(snap.hmaster);
            }
        } else if snap.hresp == HResp::Okay {
            // A wait state (first cycles of ERROR/RETRY/SPLIT also hold
            // HREADY low, but those are response cycles, not stalls).
            if let Some(master) = self.dp_master {
                phase.data = DataPhase::Stalled(master);
                if let Some(open) = self.open.as_mut().filter(|t| t.master == master) {
                    open.wait_cycles = open.wait_cycles.saturating_add(1);
                }
            }
        }
        phase
    }

    /// The request and grant edges the NONSEQ of the last decoded cycle
    /// consumed; read it when that cycle's [`Phase::started`] is set.
    pub fn start(&self) -> Start {
        let (owner, request, grant) = self.consumed;
        let grant = grant.then(|| self.grant_edge[owner]);
        Start {
            request_cycle: request.then(|| self.request_edge[owner]),
            grant_cycle: grant.map(|(cycle, _)| cycle),
            grant_wait_cycles: grant.map_or(0, |(_, wait)| wait),
        }
    }

    /// Ends the run: the data phase in flight is dropped and the
    /// transaction still open, if any, is returned. Idempotent.
    pub fn finish(&mut self) -> Option<Completion> {
        self.dp_master = None;
        self.open.take()
    }
}

/// The request/grant bit of master `i`; 0 past the 32 a word can hold.
fn bit(i: usize) -> u32 {
    1u32.checked_shl(i as u32).unwrap_or(0)
}

/// The low `n` bits set (all 32 for `n >= 32`).
fn low_bits(n: usize) -> u32 {
    bit(n).wrapping_sub(1)
}

/// Indices of the set bits of `word`, lowest first.
fn bits(mut word: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{HBurst, HSize};

    fn snap(cycle: u64) -> BusSnapshot {
        BusSnapshot {
            cycle,
            haddr: 0,
            htrans: HTrans::Idle,
            hwrite: false,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(0),
            hmastlock: false,
            hbusreq: 0,
            hgrant: 0b1,
            hsel: 0,
        }
    }

    /// One master's INCR4 burst: NONSEQ, three SEQ beats, then idle;
    /// `stall` holds HREADY low on the cycle after the NONSEQ.
    fn incr4(stall: bool) -> Vec<BusSnapshot> {
        let mut trans = vec![
            HTrans::NonSeq,
            HTrans::Seq,
            HTrans::Seq,
            HTrans::Seq,
            HTrans::Idle,
        ];
        if stall {
            trans.insert(1, HTrans::Seq);
        }
        trans
            .into_iter()
            .enumerate()
            .map(|(cycle, htrans)| {
                let mut s = snap(cycle as u64);
                s.htrans = htrans;
                s.hburst = HBurst::Incr4;
                s.hsel = 0b1;
                s.hready = !(stall && cycle == 1);
                s
            })
            .collect()
    }

    #[test]
    fn single_write_produces_full_lifecycle() {
        let mut d = PhaseDecoder::new(2);
        // Cycle 0: master 1 requests; master 0 holds the parked grant.
        let mut s = snap(0);
        s.hbusreq = 0b10;
        let p = d.decode(&s);
        assert_eq!((p.requested, p.granted, p.waiting), (0b10, 0b01, 0b10));
        // Cycle 1: grant moves to master 1.
        let mut s = snap(1);
        s.hbusreq = 0b10;
        s.hgrant = 0b10;
        let p = d.decode(&s);
        assert_eq!((p.requested, p.granted), (0, 0b10));
        // Cycle 2: master 1 drives a NONSEQ write to slave 1.
        let m1 = MasterId(1);
        let mut s = snap(2);
        s.hgrant = 0b10;
        s.hmaster = m1;
        s.htrans = HTrans::NonSeq;
        s.hwrite = true;
        s.haddr = 0x44;
        s.hsel = 0b10;
        let p = d.decode(&s);
        assert!(p.handover);
        assert_eq!(p.owner_wait, Some(2), "master 1 waited cycles 0 and 1");
        assert!(p.started);
        assert_eq!(
            d.start(),
            Start {
                request_cycle: Some(0),
                grant_cycle: Some(1),
                grant_wait_cycles: 1
            }
        );
        // Cycle 3: wait state on the data phase.
        let mut s = snap(3);
        s.hgrant = 0b10;
        s.hmaster = m1;
        s.hready = false;
        assert_eq!(d.decode(&s).data, DataPhase::Stalled(m1));
        // Cycle 4: data phase completes, bus idle.
        let mut s = snap(4);
        s.hgrant = 0b10;
        s.hmaster = m1;
        let p = d.decode(&s);
        assert_eq!(
            p.data,
            DataPhase::Done {
                master: m1,
                okay: true
            }
        );
        assert_eq!(
            p.completed,
            Some(Completion {
                master: m1,
                beats: 1,
                ok_beats: 1,
                wait_cycles: 1,
                last_beat_cycle: 4
            })
        );
        assert_eq!(d.finish(), None);
    }

    /// Decodes `snaps` and counts (starts, beats done, completions,
    /// stalls), with the completions' tallies.
    fn tally(
        d: &mut PhaseDecoder,
        snaps: &[BusSnapshot],
    ) -> ((u32, u32, u32, u32), Vec<Completion>) {
        let mut counts = (0, 0, 0, 0);
        let mut done = Vec::new();
        for s in snaps {
            let p = d.decode(s);
            counts.0 += u32::from(p.started);
            counts.1 += u32::from(matches!(p.data, DataPhase::Done { .. }));
            counts.3 += u32::from(matches!(p.data, DataPhase::Stalled(_)));
            done.extend(p.completed);
        }
        counts.2 = done.len() as u32;
        (counts, done)
    }

    #[test]
    fn burst_beats_extend_one_transaction() {
        let mut d = PhaseDecoder::new(1);
        let snaps = incr4(false);
        let (counts, done) = tally(&mut d, &snaps);
        assert_eq!(counts, (1, 4, 1, 0));
        // The completion follows the final beat, on the idle cycle.
        assert_eq!(done[0].master, MasterId(0));
        assert_eq!(done[0].last_beat_cycle, 4);
        assert_eq!(d.decode(&snap(5)).completed, None);
    }

    #[test]
    fn a_wait_state_on_the_nonseq_beat_adds_no_beat() {
        // The held SEQ address phase repeats through the wait state; it
        // is one beat, not two.
        let mut d = PhaseDecoder::new(1);
        let (counts, done) = tally(&mut d, &incr4(true));
        assert_eq!(counts, (1, 4, 1, 1));
        assert_eq!(
            (done[0].beats, done[0].ok_beats, done[0].wait_cycles),
            (4, 4, 1)
        );
    }

    #[test]
    fn finish_flushes_open_burst() {
        let mut d = PhaseDecoder::new(1);
        let mut s = snap(0);
        s.htrans = HTrans::NonSeq;
        s.hsel = 0b1;
        d.decode(&s);
        let flushed = d.finish().expect("the NONSEQ opened a transaction");
        assert_eq!((flushed.master, flushed.beats), (MasterId(0), 0));
        // Idempotent: a second finish returns nothing.
        assert_eq!(d.finish(), None);
    }

    #[test]
    fn split_hand_back_force_completes_the_abandoned_burst() {
        let (m0, m1) = (MasterId(0), MasterId(1));
        let mut d = PhaseDecoder::new(2);
        let burst = |cycle: u64, hmaster: MasterId, htrans: HTrans| {
            let mut s = snap(cycle);
            s.hmaster = hmaster;
            s.htrans = htrans;
            s.hburst = HBurst::Incr;
            s
        };
        d.decode(&burst(0, m0, HTrans::NonSeq));
        // Beat 1 completes while beat 2's SEQ address phase is accepted.
        let p = d.decode(&burst(1, m0, HTrans::Seq));
        assert_eq!(
            p.data,
            DataPhase::Done {
                master: m0,
                okay: true
            }
        );
        assert_eq!(p.completed, None);
        // Two-cycle SPLIT response to beat 2: the first cycle is no stall.
        let mut s = burst(2, m0, HTrans::Busy);
        s.hready = false;
        s.hresp = HResp::Split;
        assert_eq!(d.decode(&s).data, DataPhase::None);
        // Second cycle: master 0 still drives BUSY, so its burst neither
        // completes nor continues with a transfer.
        let mut s = burst(3, m0, HTrans::Busy);
        s.hresp = HResp::Split;
        let p = d.decode(&s);
        assert_eq!(
            p.data,
            DataPhase::Done {
                master: m0,
                okay: false
            }
        );
        assert_eq!(p.completed, None, "the burst is left open");
        // The split hands the bus to master 1, whose NONSEQ force-completes
        // master 0's abandoned burst.
        let p = d.decode(&burst(4, m1, HTrans::NonSeq));
        assert!(p.handover && p.started);
        assert_eq!(
            p.completed,
            Some(Completion {
                master: m0,
                beats: 2,
                ok_beats: 1,
                wait_cycles: 0,
                last_beat_cycle: 3
            })
        );
        assert_eq!(d.finish().map(|t| t.master), Some(m1));
    }

    #[test]
    fn masters_beyond_the_configured_count_do_not_panic() {
        let mut d = PhaseDecoder::new(2);
        for (cycle, hmaster) in [(0, 0u8), (1, 40), (2, 255), (3, 31), (4, 1)] {
            let mut s = snap(cycle);
            s.hmaster = MasterId(hmaster);
            s.hbusreq = u32::MAX;
            s.hgrant = u32::MAX;
            s.htrans = HTrans::NonSeq;
            let p = d.decode(&s);
            assert!(p.started);
            assert_eq!(
                p.waiting & bit(usize::from(hmaster)),
                0,
                "the owner is not waiting"
            );
        }
        // HMASTER 40 and 255 widen tracking to all 32 request lines.
        assert_eq!(d.known, u32::MAX);
        assert!(d.finish().is_some());
    }
}
