//! The master interface and a programmable (scripted) master model.

use std::collections::VecDeque;

use crate::burst::burst_addresses;
use crate::lane::{from_lanes, to_lanes};
use crate::types::{HBurst, HResp, HSize, HTrans, MasterIn, MasterOut};

/// An AHB master as seen by the bus fabric.
///
/// [`AhbMaster::cycle`] is called exactly once per bus clock cycle with the
/// values the master sampled at the rising edge; it returns the signals the
/// master drives during the cycle. The `Any` supertrait allows typed access
/// through [`crate::AhbBus::master_as`].
pub trait AhbMaster: std::any::Any {
    /// One clock cycle of master behaviour.
    fn cycle(&mut self, input: &MasterIn) -> MasterOut;

    /// True once the master has no further work (used to end simulations).
    fn done(&self) -> bool {
        false
    }

    /// Synchronous reset.
    fn reset(&mut self) {}

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "master"
    }
}

/// A master that never requests the bus and always drives IDLE — the
/// paper's "simple default master".
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleMaster;

impl IdleMaster {
    /// Creates an idle master.
    pub fn new() -> Self {
        IdleMaster
    }
}

impl AhbMaster for IdleMaster {
    fn cycle(&mut self, _input: &MasterIn) -> MasterOut {
        MasterOut::default()
    }

    fn done(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "idle"
    }
}

/// One scripted bus operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Drive IDLE without requesting the bus for `n` cycles (bus handover
    /// can occur here, as in the paper's testbench).
    Idle(u32),
    /// A single write transfer.
    Write {
        /// Target address.
        addr: u32,
        /// Right-aligned value to write.
        value: u32,
        /// Transfer size.
        size: HSize,
    },
    /// A single read transfer (the result is recorded in
    /// [`ScriptedMaster::reads`]).
    Read {
        /// Target address.
        addr: u32,
        /// Transfer size.
        size: HSize,
    },
    /// A burst transfer.
    Burst {
        /// Write (true) or read (false) burst.
        write: bool,
        /// Burst kind; for [`HBurst::Incr`] the length is `data.len()`.
        burst: HBurst,
        /// Address of the first beat.
        addr: u32,
        /// Per-beat write data (right-aligned); for reads only the length
        /// matters.
        data: Vec<u32>,
        /// Transfer size of every beat.
        size: HSize,
        /// BUSY cycles inserted between consecutive beats.
        busy_between: u32,
    },
    /// A locked (non-interruptible) sequence of operations; HLOCK is held
    /// until the last contained transfer issues its address phase.
    Locked(Vec<Op>),
}

impl Op {
    /// Shorthand for a word write.
    pub fn write(addr: u32, value: u32) -> Op {
        Op::Write {
            addr,
            value,
            size: HSize::Word,
        }
    }

    /// Shorthand for a word read.
    pub fn read(addr: u32) -> Op {
        Op::Read {
            addr,
            size: HSize::Word,
        }
    }

    /// Visits this op and, recursively, every op nested inside a
    /// [`Op::Locked`] sequence, outermost first.
    ///
    /// Static analyzers use this to walk a script without re-implementing
    /// the locked-sequence nesting.
    pub fn for_each<F: FnMut(&Op)>(&self, f: &mut F) {
        f(self);
        if let Op::Locked(inner) = self {
            for op in inner {
                op.for_each(f);
            }
        }
    }
}

/// Flattened script element.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Gap(u32),
    Busy {
        addr: u32,
        write: bool,
        size: HSize,
        burst: HBurst,
        lock: bool,
    },
    Beat(Beat),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Beat {
    addr: u32,
    write: bool,
    size: HSize,
    burst: HBurst,
    /// SEQ if this beat continues the previous slot's burst.
    seq: bool,
    wdata: u32,
    lock: bool,
}

/// Compiles one op onto the end of `out`. Locked members are compiled in
/// place, so a locked sequence needs no buffer of its own.
fn compile(op: &Op, lock: bool, out: &mut Vec<Slot>) {
    match op {
        Op::Idle(n) => out.push(Slot::Gap(*n)),
        Op::Write { addr, value, size } => out.push(Slot::Beat(Beat {
            addr: *addr,
            write: true,
            size: *size,
            burst: HBurst::Single,
            seq: false,
            wdata: *value,
            lock,
        })),
        Op::Read { addr, size } => out.push(Slot::Beat(Beat {
            addr: *addr,
            write: false,
            size: *size,
            burst: HBurst::Single,
            seq: false,
            wdata: 0,
            lock,
        })),
        Op::Burst {
            write,
            burst,
            addr,
            data,
            size,
            busy_between,
        } => {
            let n_beats = match burst.beats() {
                Some(b) => b,
                None if *burst == HBurst::Single => 1,
                None => data.len().max(1),
            };
            assert!(
                *burst == HBurst::Incr || data.len() == n_beats || !*write,
                "write burst data length {} does not match {} beats",
                data.len(),
                n_beats
            );
            let addrs = burst_addresses(*addr, *size, *burst, n_beats);
            for (i, &a) in addrs.iter().enumerate() {
                if i > 0 {
                    for _ in 0..*busy_between {
                        out.push(Slot::Busy {
                            addr: a,
                            write: *write,
                            size: *size,
                            burst: *burst,
                            lock,
                        });
                    }
                }
                out.push(Slot::Beat(Beat {
                    addr: a,
                    write: *write,
                    size: *size,
                    burst: *burst,
                    seq: i > 0,
                    wdata: data.get(i).copied().unwrap_or(0),
                    lock,
                }));
            }
        }
        Op::Locked(inner) => {
            let start = out.len();
            for op in inner {
                compile(op, true, out);
            }
            // HLOCK drops with the address phase of the last transfer.
            if let Some(Slot::Beat(b)) = out[start..]
                .iter_mut()
                .rev()
                .find(|s| matches!(s, Slot::Beat(_)))
            {
                b.lock = false;
            }
        }
    }
}

/// A master that executes a fixed script of [`Op`]s with protocol-correct
/// handling of wait states, ERROR, RETRY and SPLIT responses, bursts
/// (including BUSY insertion and early-termination restarts) and locked
/// sequences.
///
/// # Examples
///
/// ```
/// use ahbpower_ahb::{AhbMaster, Op, ScriptedMaster};
///
/// let m = ScriptedMaster::new(vec![
///     Op::write(0x100, 42),
///     Op::Idle(3),
///     Op::read(0x100),
/// ]);
/// assert!(!m.done());
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedMaster {
    script: Vec<Slot>,
    pos: usize,
    /// Remaining cycles of the current gap.
    gap_left: u32,
    /// Slot index whose address phase is being driven this cycle.
    ap: Option<usize>,
    /// Slot index currently in data phase.
    dp: Option<usize>,
    /// Slot index of the most recently issued beat (SEQ continuity check).
    last_issued: Option<usize>,
    /// Next issue must use NONSEQ (after a retry/split/grant loss).
    force_nonseq: bool,
    /// An interrupted burst is being continued as an INCR burst; wrap
    /// discontinuities must re-break with NONSEQ.
    restart_incr: bool,
    /// Outputs driven last cycle, held during wait states.
    last_out: MasterOut,
    completed: u64,
    errors: u64,
    retries: u64,
    splits: u64,
    reads: VecDeque<(u32, u32)>,
}

impl ScriptedMaster {
    /// Compiles a script into a master, one op at a time as the stream
    /// yields it; no op outlives its own compilation.
    pub fn new(ops: impl IntoIterator<Item = Op>) -> Self {
        let ops = ops.into_iter();
        let mut script = Vec::with_capacity(ops.size_hint().0);
        for op in ops {
            compile(&op, false, &mut script);
        }
        let gap_left = match script.first() {
            Some(Slot::Gap(n)) => *n,
            _ => 0,
        };
        ScriptedMaster {
            script,
            pos: 0,
            gap_left,
            ap: None,
            dp: None,
            last_issued: None,
            force_nonseq: false,
            restart_incr: false,
            last_out: MasterOut::default(),
            completed: 0,
            errors: 0,
            retries: 0,
            splits: 0,
            reads: VecDeque::new(),
        }
    }

    /// Completed transfers (OKAY data phases).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// ERROR responses observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// RETRY responses observed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// SPLIT responses observed.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Completed reads as `(addr, value)` pairs, oldest first.
    pub fn reads(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.reads.iter().copied()
    }

    /// Removes and returns the oldest completed read.
    pub fn pop_read(&mut self) -> Option<(u32, u32)> {
        self.reads.pop_front()
    }

    /// The beat stored at `slot`, or `None` if the slot index is out of
    /// range or holds a gap/BUSY slot. Pipeline bookkeeping only ever
    /// records beat slots, so `None` means the caller's phase tracking is
    /// stale and the transfer is simply not booked.
    fn beat(&self, slot: usize) -> Option<&Beat> {
        match self.script.get(slot) {
            Some(Slot::Beat(b)) => Some(b),
            _ => None,
        }
    }

    /// Rewinds the script so that `slot` is re-issued (RETRY/SPLIT).
    fn rewind_to(&mut self, slot: usize) {
        self.pos = slot;
        self.gap_left = 0;
        self.force_nonseq = true;
    }

    /// True if un-issued work remains at or after `pos`.
    fn work_remaining(&self) -> bool {
        self.script[self.pos..]
            .iter()
            .any(|s| !matches!(s, Slot::Gap(_)))
    }

    /// True if the script's next actionable slot is reached without an
    /// intervening gap (i.e. the master wants the bus right now).
    fn wants_bus(&self) -> bool {
        if self.gap_left > 0 {
            return false;
        }
        matches!(
            self.script.get(self.pos),
            Some(Slot::Beat(_)) | Some(Slot::Busy { .. })
        )
    }
}

impl AhbMaster for ScriptedMaster {
    fn cycle(&mut self, input: &MasterIn) -> MasterOut {
        // --- Data-phase bookkeeping -------------------------------------
        let mut cancelled = false;
        if input.ready {
            if let Some(dpi) = self.dp.take() {
                match input.resp {
                    HResp::Okay => {
                        if let Some(b) = self.beat(dpi).copied() {
                            self.completed += 1;
                            if !b.write {
                                self.reads
                                    .push_back((b.addr, from_lanes(input.rdata, b.addr, b.size)));
                            }
                        }
                    }
                    HResp::Error => {
                        self.errors += 1;
                        // Policy: continue with the rest of the script.
                    }
                    HResp::Retry | HResp::Split => {
                        // Normally rewound in the first response cycle; this
                        // branch covers zero-wait retried fabrics.
                        self.rewind_to(dpi);
                    }
                }
            }
            self.dp = self.ap.take();
        } else {
            match input.resp {
                HResp::Retry | HResp::Split => {
                    // The retried transfer is ours if it is in our data
                    // phase; independently, an address phase we were
                    // broadcasting is cancelled (it will not be latched) and
                    // must be re-issued later — even if the split belongs to
                    // a *different* master's data phase.
                    if self.dp.is_some() {
                        if input.resp == HResp::Retry {
                            self.retries += 1;
                        } else {
                            self.splits += 1;
                        }
                    }
                    if let Some(dpi) = self.dp.take() {
                        self.rewind_to(dpi);
                    } else if let Some(api) = self.ap {
                        self.rewind_to(api);
                    }
                    self.ap = None;
                    cancelled = true;
                }
                _ => {
                    // Plain wait state (or first ERROR cycle): hold outputs.
                }
            }
        }

        // --- Output generation ------------------------------------------
        if !input.ready && !cancelled {
            // Address phase must be held stable during wait states.
            return self.last_out;
        }
        let mut out = MasterOut::default();
        if cancelled {
            // Second cycle of RETRY/SPLIT: drive IDLE, keep requesting.
            out.busreq = self.work_remaining();
            out.trans = HTrans::Idle;
            self.drive_wdata(&mut out);
            self.last_out = out;
            return out;
        }
        // Consume a gap cycle if one is active.
        if self.gap_left > 0 {
            self.gap_left -= 1;
            if self.gap_left == 0 {
                self.pos += 1;
                if let Some(Slot::Gap(n)) = self.script.get(self.pos) {
                    self.gap_left = *n;
                }
            }
            out.trans = HTrans::Idle;
            // Re-request as the gap expires so the grant can be back in
            // time for the next transfer.
            out.busreq = self.wants_bus();
            self.drive_wdata(&mut out);
            self.last_out = out;
            return out;
        }
        if let Some(Slot::Gap(n)) = self.script.get(self.pos) {
            // A zero-length gap degenerates to skipping; otherwise start it.
            if *n > 0 {
                self.gap_left = *n;
                out.trans = HTrans::Idle;
                out.busreq = false;
                self.drive_wdata(&mut out);
                self.last_out = out;
                return out;
            }
            self.pos += 1;
        }
        if input.grant {
            match self.script.get(self.pos).cloned() {
                Some(Slot::Beat(b)) => {
                    // SEQ is legal only if the previous beat of the same
                    // burst was the last thing we issued (BUSY slots in
                    // between are fine).
                    let mut seq_ok = b.seq
                        && !self.force_nonseq
                        && self
                            .last_issued
                            .is_some_and(|li| li < self.pos && self.contiguous(li, self.pos));
                    if seq_ok && self.restart_incr {
                        // The burst was interrupted earlier and restarted as
                        // an INCR burst: SEQ may only continue incrementing
                        // addresses; a wrap discontinuity re-breaks.
                        seq_ok =
                            self.last_issued
                                .and_then(|li| self.beat(li))
                                .is_some_and(|prev| {
                                    b.addr == prev.addr.wrapping_add(prev.size.bytes())
                                });
                    }
                    out.trans = if seq_ok { HTrans::Seq } else { HTrans::NonSeq };
                    if out.trans == HTrans::NonSeq {
                        // A natural burst start clears the restart mode; a
                        // mid-burst restart (re)enters it.
                        self.restart_incr = b.seq;
                    }
                    out.addr = b.addr;
                    out.write = b.write;
                    out.size = b.size;
                    out.burst = if self.restart_incr {
                        HBurst::Incr
                    } else {
                        b.burst
                    };
                    out.lock = b.lock;
                    self.force_nonseq = false;
                    self.ap = Some(self.pos);
                    self.last_issued = Some(self.pos);
                    self.pos += 1;
                    if let Some(Slot::Gap(n)) = self.script.get(self.pos) {
                        self.gap_left = *n;
                    }
                }
                Some(Slot::Busy {
                    addr,
                    write,
                    size,
                    burst,
                    lock,
                }) => {
                    // BUSY is only legal mid-burst; if the burst was
                    // interrupted, skip the BUSY slots and restart.
                    if self.force_nonseq || self.last_issued.is_none() {
                        while matches!(self.script.get(self.pos), Some(Slot::Busy { .. })) {
                            self.pos += 1;
                        }
                        out.trans = HTrans::Idle;
                    } else {
                        out.trans = HTrans::Busy;
                        out.addr = addr;
                        out.write = write;
                        out.size = size;
                        out.burst = if self.restart_incr {
                            HBurst::Incr
                        } else {
                            burst
                        };
                        out.lock = lock;
                        self.pos += 1;
                    }
                }
                Some(Slot::Gap(_)) | None => {
                    out.trans = HTrans::Idle;
                }
            }
        } else {
            out.trans = HTrans::Idle;
            if self.wants_bus() {
                // Lost the bus mid-burst (next slot is a SEQ beat or a BUSY
                // pause): the remainder must restart with NONSEQ.
                match self.script.get(self.pos) {
                    Some(Slot::Beat(b)) if b.seq => self.force_nonseq = true,
                    Some(Slot::Busy { .. }) => self.force_nonseq = true,
                    _ => {}
                }
            }
        }
        // HBUSREQ reflects the state *after* this cycle's issue: it drops
        // during the last transfer's address phase (so the arbiter can hand
        // the bus over immediately, as the AMBA spec recommends).
        out.busreq = self.wants_bus();
        self.drive_wdata(&mut out);
        self.last_out = out;
        out
    }

    fn done(&self) -> bool {
        self.ap.is_none() && self.dp.is_none() && !self.work_remaining()
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.gap_left = match self.script.first() {
            Some(Slot::Gap(n)) => *n,
            _ => 0,
        };
        self.ap = None;
        self.dp = None;
        self.last_issued = None;
        self.force_nonseq = false;
        self.restart_incr = false;
        self.last_out = MasterOut::default();
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

impl ScriptedMaster {
    /// True if every slot in `(from, to)` is a BUSY slot (the two beats are
    /// part of one uninterrupted burst).
    fn contiguous(&self, from: usize, to: usize) -> bool {
        self.script[from + 1..to]
            .iter()
            .all(|s| matches!(s, Slot::Busy { .. }))
    }

    fn drive_wdata(&self, out: &mut MasterOut) {
        if let Some(b) = self.dp.and_then(|dpi| self.beat(dpi)) {
            if b.write {
                out.wdata = to_lanes(b.wdata, b.addr, b.size);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MasterIn;

    fn granted_ready() -> MasterIn {
        MasterIn {
            grant: true,
            ready: true,
            resp: HResp::Okay,
            rdata: 0,
        }
    }

    #[test]
    fn single_write_issues_nonseq_then_drives_wdata() {
        let mut m = ScriptedMaster::new(vec![Op::write(0x100, 0xAB)]);
        let out = m.cycle(&granted_ready());
        assert_eq!(out.trans, HTrans::NonSeq);
        assert_eq!(out.addr, 0x100);
        assert!(out.write);
        // Next cycle: transfer is in data phase, wdata driven.
        let out = m.cycle(&granted_ready());
        assert_eq!(out.trans, HTrans::Idle);
        assert_eq!(out.wdata, 0xAB);
        // Completion.
        let _ = m.cycle(&granted_ready());
        assert_eq!(m.completed(), 1);
        assert!(m.done());
    }

    #[test]
    fn read_records_rdata() {
        let mut m = ScriptedMaster::new(vec![Op::read(0x40)]);
        let _ = m.cycle(&granted_ready()); // issue (address phase)
        let _ = m.cycle(&granted_ready()); // data phase runs on the bus
        let mut input = granted_ready();
        input.rdata = 0x1234_5678; // sampled at the edge ending the data phase
        let _ = m.cycle(&input);
        assert_eq!(m.pop_read(), Some((0x40, 0x1234_5678)));
        assert_eq!(m.completed(), 1);
    }

    #[test]
    fn waits_hold_address_phase() {
        let mut m = ScriptedMaster::new(vec![Op::write(0x100, 1), Op::write(0x104, 2)]);
        let first = m.cycle(&granted_ready());
        assert_eq!(first.addr, 0x100);
        // Wait state: outputs must be identical.
        let wait_in = MasterIn {
            grant: true,
            ready: false,
            resp: HResp::Okay,
            rdata: 0,
        };
        let held = m.cycle(&wait_in);
        assert_eq!(held, first);
        let held = m.cycle(&wait_in);
        assert_eq!(held, first);
        // Ready: second write issues.
        let out = m.cycle(&granted_ready());
        assert_eq!(out.addr, 0x104);
        assert_eq!(out.trans, HTrans::NonSeq);
    }

    #[test]
    fn not_granted_drives_idle_and_requests() {
        let mut m = ScriptedMaster::new(vec![Op::write(0, 0)]);
        let input = MasterIn {
            grant: false,
            ready: true,
            resp: HResp::Okay,
            rdata: 0,
        };
        let out = m.cycle(&input);
        assert_eq!(out.trans, HTrans::Idle);
        assert!(out.busreq);
        assert!(!m.done());
    }

    #[test]
    fn idle_gap_releases_bus_request() {
        let mut m = ScriptedMaster::new(vec![Op::Idle(2), Op::write(0, 0)]);
        let out = m.cycle(&granted_ready());
        assert!(!out.busreq, "gap cycle 1");
        let out = m.cycle(&granted_ready());
        assert_eq!(out.trans, HTrans::Idle, "gap cycle 2 still idle");
        assert!(out.busreq, "re-requests as the gap expires");
        let out = m.cycle(&granted_ready());
        assert_eq!(out.trans, HTrans::NonSeq, "gap over");
    }

    #[test]
    fn incr4_burst_addresses_and_seq() {
        let mut m = ScriptedMaster::new(vec![Op::Burst {
            write: true,
            burst: HBurst::Incr4,
            addr: 0x200,
            data: vec![1, 2, 3, 4],
            size: HSize::Word,
            busy_between: 0,
        }]);
        let o0 = m.cycle(&granted_ready());
        assert_eq!(
            (o0.trans, o0.addr, o0.burst),
            (HTrans::NonSeq, 0x200, HBurst::Incr4)
        );
        let o1 = m.cycle(&granted_ready());
        assert_eq!((o1.trans, o1.addr), (HTrans::Seq, 0x204));
        assert_eq!(o1.wdata, 1, "beat 0 in data phase");
        let o2 = m.cycle(&granted_ready());
        assert_eq!((o2.trans, o2.addr), (HTrans::Seq, 0x208));
        let o3 = m.cycle(&granted_ready());
        assert_eq!((o3.trans, o3.addr), (HTrans::Seq, 0x20C));
        let _ = m.cycle(&granted_ready());
        let _ = m.cycle(&granted_ready());
        assert_eq!(m.completed(), 4);
        assert!(m.done());
    }

    #[test]
    fn busy_slots_emit_busy_with_next_address() {
        let mut m = ScriptedMaster::new(vec![Op::Burst {
            write: false,
            burst: HBurst::Incr4,
            addr: 0x0,
            data: vec![0; 4],
            size: HSize::Word,
            busy_between: 1,
        }]);
        let o0 = m.cycle(&granted_ready());
        assert_eq!(o0.trans, HTrans::NonSeq);
        let o1 = m.cycle(&granted_ready());
        assert_eq!((o1.trans, o1.addr), (HTrans::Busy, 0x4));
        let o2 = m.cycle(&granted_ready());
        assert_eq!((o2.trans, o2.addr), (HTrans::Seq, 0x4));
    }

    #[test]
    fn retry_rewinds_and_reissues_nonseq() {
        let mut m = ScriptedMaster::new(vec![Op::write(0x10, 7), Op::write(0x14, 8)]);
        let _ = m.cycle(&granted_ready()); // issue 0x10
        let _ = m.cycle(&granted_ready()); // 0x10 in dp, issue 0x14
                                           // First RETRY cycle: ready low.
        let retry1 = MasterIn {
            grant: true,
            ready: false,
            resp: HResp::Retry,
            rdata: 0,
        };
        let out = m.cycle(&retry1);
        assert_eq!(out.trans, HTrans::Idle, "second retry cycle drives IDLE");
        assert_eq!(m.retries(), 1);
        // Second RETRY cycle: ready high.
        let retry2 = MasterIn {
            grant: true,
            ready: true,
            resp: HResp::Retry,
            rdata: 0,
        };
        let out = m.cycle(&retry2);
        assert_eq!((out.trans, out.addr), (HTrans::NonSeq, 0x10), "reissued");
        // Run to completion.
        for _ in 0..6 {
            let _ = m.cycle(&granted_ready());
        }
        assert_eq!(m.completed(), 2);
        assert!(m.done());
    }

    #[test]
    fn error_response_skips_transfer_and_continues() {
        let mut m = ScriptedMaster::new(vec![Op::write(0x10, 1), Op::write(0x14, 2)]);
        let _ = m.cycle(&granted_ready()); // issue 0x10
        let _ = m.cycle(&granted_ready()); // 0x10 dp, issue 0x14
                                           // Two-cycle ERROR for 0x10.
        let e1 = MasterIn {
            grant: true,
            ready: false,
            resp: HResp::Error,
            rdata: 0,
        };
        let held = m.cycle(&e1);
        assert_eq!(held.addr, 0x14, "master continues the next transfer");
        let e2 = MasterIn {
            grant: true,
            ready: true,
            resp: HResp::Error,
            rdata: 0,
        };
        let _ = m.cycle(&e2);
        assert_eq!(m.errors(), 1);
        for _ in 0..4 {
            let _ = m.cycle(&granted_ready());
        }
        assert_eq!(m.completed(), 1, "only 0x14 completed");
        assert!(m.done());
    }

    #[test]
    fn grant_loss_mid_burst_restarts_nonseq() {
        let mut m = ScriptedMaster::new(vec![Op::Burst {
            write: true,
            burst: HBurst::Incr4,
            addr: 0x0,
            data: vec![9, 9, 9, 9],
            size: HSize::Word,
            busy_between: 0,
        }]);
        let _ = m.cycle(&granted_ready()); // beat 0 NONSEQ
        let o1 = m.cycle(&granted_ready()); // beat 1 SEQ
        assert_eq!(o1.trans, HTrans::Seq);
        // Grant removed.
        let lost = MasterIn {
            grant: false,
            ready: true,
            resp: HResp::Okay,
            rdata: 0,
        };
        let out = m.cycle(&lost);
        assert_eq!(out.trans, HTrans::Idle);
        assert!(out.busreq, "still wants the bus");
        // Regranted: beat 2 restarts as NONSEQ/INCR.
        let out = m.cycle(&granted_ready());
        assert_eq!(out.trans, HTrans::NonSeq);
        assert_eq!(out.addr, 0x8);
        assert_eq!(out.burst, HBurst::Incr);
    }

    #[test]
    fn locked_sequence_asserts_lock_until_last_beat() {
        let mut m = ScriptedMaster::new(vec![Op::Locked(vec![Op::write(0x0, 1), Op::read(0x0)])]);
        let o0 = m.cycle(&granted_ready());
        assert!(o0.lock, "first locked beat holds HLOCK");
        let o1 = m.cycle(&granted_ready());
        assert!(!o1.lock, "HLOCK drops with the last locked address phase");
        assert_eq!(o1.trans, HTrans::NonSeq);
    }

    /// Runs `ops` on a one-master bus and returns HMASTLOCK of every
    /// issued beat (NONSEQ/SEQ address phases), in issue order.
    fn issued_beat_locks(ops: Vec<Op>) -> Vec<bool> {
        use crate::bus::AhbBusBuilder;
        use crate::decoder::AddressMap;
        use crate::slave::MemorySlave;
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
            .master(Box::new(ScriptedMaster::new(ops)))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .build()
            .unwrap();
        let mut locks = Vec::new();
        for _ in 0..200 {
            let snap = bus.step();
            if snap.htrans.is_transfer() && snap.hready {
                locks.push(snap.hmastlock);
            }
            if bus.all_masters_done() {
                break;
            }
        }
        assert!(bus.all_masters_done(), "script did not finish");
        locks
    }

    #[test]
    fn locked_sequences_drop_hlock_on_their_last_beat() {
        // Nested: the inner sequence drops HLOCK on its own last beat, and
        // the outer sequence on the outer last beat.
        let nested = vec![Op::Locked(vec![
            Op::write(0x0, 1),
            Op::Locked(vec![Op::write(0x4, 2), Op::read(0x4)]),
            Op::read(0x0),
        ])];
        assert_eq!(issued_beat_locks(nested), [true, true, false, false]);

        // Ending in a BUSY-padded burst: the BUSY slots between beats do
        // not count; the burst's final beat drops HLOCK.
        let busy_tail = vec![Op::Locked(vec![
            Op::write(0x40, 9),
            Op::Burst {
                write: true,
                burst: HBurst::Incr4,
                addr: 0x0,
                data: vec![1, 2, 3, 4],
                size: HSize::Word,
                busy_between: 1,
            },
        ])];
        assert_eq!(
            issued_beat_locks(busy_tail),
            [true, true, true, true, false]
        );

        // Last slot an IDLE gap: the last *beat* before it drops HLOCK,
        // and the unlocked write after the sequence stays unlocked.
        let idle_tail = vec![
            Op::Locked(vec![Op::write(0x0, 1), Op::read(0x0), Op::Idle(3)]),
            Op::write(0x8, 2),
        ];
        assert_eq!(issued_beat_locks(idle_tail), [true, false, false]);

        // Empty: compiles to nothing, so it neither locks the next beat nor
        // unlocks an enclosing sequence's earlier beat.
        let empty = vec![
            Op::Locked(vec![]),
            Op::Locked(vec![Op::write(0x0, 1), Op::Locked(vec![]), Op::read(0x0)]),
            Op::write(0x10, 5),
        ];
        assert_eq!(issued_beat_locks(empty), [true, false, false]);
    }

    #[test]
    fn idle_master_is_done_and_quiet() {
        let mut m = IdleMaster::new();
        let out = m.cycle(&MasterIn::default());
        assert_eq!(out, MasterOut::default());
        assert!(m.done());
        assert_eq!(m.name(), "idle");
    }

    #[test]
    fn reset_restarts_script() {
        let mut m = ScriptedMaster::new(vec![Op::write(0x10, 1)]);
        let _ = m.cycle(&granted_ready());
        m.reset();
        let out = m.cycle(&granted_ready());
        assert_eq!((out.trans, out.addr), (HTrans::NonSeq, 0x10));
    }
}
