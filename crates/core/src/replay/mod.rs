//! Trace-once / estimate-many power emulation (record + replay).
//!
//! Each cycle the power FSM packs everything the macromodels consume (the
//! instruction, bus owner, handover/select flags and per-sub-block Hamming
//! distances) into one `u64` **activity word**, and a [`ReplayEngine`]'s
//! branchless lookup tables turn the word into energy. An
//! [`ActivityRecorder`] on a live [`PowerSession`](crate::PowerSession)
//! keeps those words (delta/varint encoded on disk), so the engine can
//! re-estimate energy for any [`AhbPowerModel`](crate::AhbPowerModel)
//! variant without touching the simulator again. Sweeps become
//! `O(sim + points × replay)` where replay is orders of magnitude cheaper
//! than simulation.
//!
//! Replaying a trace through the *same* model that recorded it reproduces
//! the live session's ledgers **bit for bit**: both look up the same tables
//! with the same words and book through the same accumulator in order.
//!
//! # Examples
//!
//! ```
//! use ahbpower::{AhbPowerModel, AnalysisConfig, PowerSession, ReplayEngine};
//! use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
//!
//! let cfg = AnalysisConfig::paper_testbench();
//! let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
//!     .master(Box::new(ScriptedMaster::new(vec![Op::write(0x0, 0xFF), Op::read(0x0)])))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .build()?;
//! let mut session = PowerSession::with_recorder(&cfg);
//! session.run(&mut bus, 50);
//! let trace = session.finish_recorder().expect("recorder attached");
//!
//! // Same model -> bit-identical energy, without re-simulating.
//! let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
//! let outcome = ReplayEngine::new(&model).replay(&trace);
//! assert_eq!(outcome.total_energy(), session.total_energy());
//!
//! // What-if variant -> new estimate from the same recording.
//! let mut cheap_arb = model.clone();
//! cheap_arb.arbiter.scale(0.5);
//! let variant = ReplayEngine::new(&cheap_arb).replay(&trace);
//! assert!(variant.total_energy() < outcome.total_energy());
//! # Ok::<(), ahbpower_ahb::BuildBusError>(())
//! ```

mod codec;
mod engine;

use std::fmt;

use ahbpower_ahb::BusSnapshot;

use crate::activity::hamming;
use crate::config::AnalysisConfig;
use crate::instruction::{Instruction, INSTRUCTION_COUNT};
use crate::model::{resp_bits, ADDR_BITS, CTRL_BITS, RDATA_BITS, RESP_BITS, WDATA_BITS};

pub use engine::{ReplayEngine, ReplayOutcome};

/// Current activity-trace file format version.
pub const REPLAY_TRACE_VERSION: u32 = 1;

/// Magic bytes opening every serialized activity trace.
const TRACE_MAGIC: [u8; 8] = *b"AHBREPLY";

/// Fixed byte length of the serialized header (magic through checksum).
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;

// Packed activity-word layout (one u64 per cycle). Bits 40..64 are
// reserved and must be zero.
pub(crate) const INSTR_MASK: u64 = 0xF; // bits 0..4
pub(crate) const MASTER_SHIFT: u32 = 4; // bits 4..12
pub(crate) const MASTER_MASK: u64 = 0xFF;
pub(crate) const HANDOVER_BIT: u32 = 12;
pub(crate) const S2M_SEL_BIT: u32 = 13;
pub(crate) const FIRST_BIT: u32 = 14;
pub(crate) const ADDR_HD_SHIFT: u32 = 15; // bits 15..21
pub(crate) const ADDR_HD_MASK: u64 = 0x3F;
pub(crate) const M2S_REST_SHIFT: u32 = 21; // bits 21..28
pub(crate) const M2S_REST_MASK: u64 = 0x7F;
pub(crate) const S2M_HD_SHIFT: u32 = 28; // bits 28..34
pub(crate) const S2M_HD_MASK: u64 = 0x3F;
pub(crate) const REQ_HD_SHIFT: u32 = 34; // bits 34..40
pub(crate) const REQ_HD_MASK: u64 = 0x3F;
const RESERVED_SHIFT: u32 = 40;

// Every field holds the widest value a `BusSnapshot` (u32 wires, u8 master
// id) can put in it, so packing needs no runtime range check.
const _: () = {
    assert!(ADDR_HD_MASK >= ADDR_BITS as u64);
    assert!(M2S_REST_MASK >= (CTRL_BITS + WDATA_BITS) as u64);
    assert!(S2M_HD_MASK >= (RDATA_BITS + RESP_BITS) as u64);
    assert!(REQ_HD_MASK >= u32::BITS as u64);
    assert!(MASTER_MASK >= u8::MAX as u64);
    assert!(INSTRUCTION_COUNT as u64 <= INSTR_MASK + 1);
};

/// Packs one cycle's activity word: `instruction`, the bus owner and the
/// wire activity of `snap` relative to `prev`, exactly the inputs of
/// [`AhbPowerModel::cycle_energy`](crate::AhbPowerModel::cycle_energy).
/// The first cycle (no `prev`) carries only the flag that zeroes its energy.
pub(crate) fn pack_word(
    prev: Option<&BusSnapshot>,
    snap: &BusSnapshot,
    instruction: Instruction,
) -> u64 {
    let head = instruction.index() as u64 | (u64::from(snap.hmaster.0) << MASTER_SHIFT);
    let Some(p) = prev else {
        return head | (1 << FIRST_BIT);
    };
    let hd = |a: u32, b: u32| u64::from(hamming(u64::from(a), u64::from(b)));
    let m2s_rest = hd(p.control_bits(), snap.control_bits()) + hd(p.hwdata, snap.hwdata);
    let s2m_hd = hd(p.hrdata, snap.hrdata) + hd(resp_bits(p), resp_bits(snap));
    head | (u64::from(snap.hmaster != p.hmaster) << HANDOVER_BIT)
        | (u64::from(snap.hsel_bits() != p.hsel_bits()) << S2M_SEL_BIT)
        | (hd(p.haddr, snap.haddr) << ADDR_HD_SHIFT)
        | (m2s_rest << M2S_REST_SHIFT)
        | (s2m_hd << S2M_HD_SHIFT)
        | (hd(p.hbusreq, snap.hbusreq) << REQ_HD_SHIFT)
}

/// Why an activity trace could not be decoded. Corrupt input is always a
/// clean error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the trace magic.
    BadMagic,
    /// The file's format version is newer than this library understands.
    UnsupportedVersion(u32),
    /// The file ends before the advertised content does.
    Truncated,
    /// The content is internally inconsistent (bad checksum, impossible
    /// header fields, malformed varints, reserved bits set, ...).
    Corrupt(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an AHB activity trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads version {REPLAY_TRACE_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace is truncated"),
            TraceError::Corrupt(why) => write!(f, "trace is corrupt: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One workload's recorded switching activity: everything the macromodels
/// consume, one packed word per cycle, plus the header a replay needs to
/// rebuild windows and check fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityTrace {
    /// Masters on the recorded bus (including the default master).
    pub n_masters: u32,
    /// Slaves on the recorded bus.
    pub n_slaves: u32,
    /// Power-trace window length of the recording session, cycles.
    pub window_cycles: u64,
    /// Bus clock of the recording session, hertz.
    pub f_clk_hz: f64,
    /// Total energy the live session booked, joules. Stamped by the
    /// recording side (zero until then) so any later replay of the same
    /// model can self-check against the live run without a side channel.
    pub live_total_j: f64,
    words: Vec<u64>,
}

impl ActivityTrace {
    /// Creates an empty trace with the given session parameters.
    pub(crate) fn new(cfg: &AnalysisConfig) -> Self {
        ActivityTrace {
            n_masters: cfg.n_masters as u32,
            n_slaves: cfg.n_slaves as u32,
            window_cycles: cfg.window_cycles,
            f_clk_hz: cfg.f_clk_hz,
            live_total_j: 0.0,
            words: Vec::new(),
        }
    }

    /// Recorded cycles.
    pub fn cycles(&self) -> u64 {
        self.words.len() as u64
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The packed per-cycle activity words (opaque; layout is stable only
    /// within [`REPLAY_TRACE_VERSION`]).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serializes the trace: a fixed header (magic, version, topology,
    /// clock, live-energy stamp, cycle count, payload length, FNV-1a
    /// checksum) followed by the XOR-delta varint payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        // The paper testbench encodes to ~4.1 B/cycle: five bytes a word
        // holds the whole payload without a regrow.
        let mut out = Vec::with_capacity(HEADER_LEN + self.words.len() * 5);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&REPLAY_TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.n_masters.to_le_bytes());
        out.extend_from_slice(&self.n_slaves.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
        out.extend_from_slice(&self.window_cycles.to_le_bytes());
        out.extend_from_slice(&self.f_clk_hz.to_bits().to_le_bytes());
        out.extend_from_slice(&self.live_total_j.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        // Payload length and checksum, filled in once the payload is
        // encoded in place behind the header.
        out.resize(HEADER_LEN, 0);
        codec::encode_words(&self.words, &mut out);
        let payload = &out[HEADER_LEN..];
        let len = (payload.len() as u64).to_le_bytes();
        let checksum = codec::fnv1a64(payload).to_le_bytes();
        out[HEADER_LEN - 16..HEADER_LEN - 8].copy_from_slice(&len);
        out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum);
        out
    }

    /// Deserializes a trace, validating magic, version, header sanity,
    /// payload checksum and word invariants. Never panics on bad input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < HEADER_LEN {
            if bytes.len() >= 8 && bytes[..8] != TRACE_MAGIC {
                return Err(TraceError::BadMagic);
            }
            return Err(TraceError::Truncated);
        }
        if bytes[..8] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let u32_at = |off: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[off..off + 4]);
            u32::from_le_bytes(b)
        };
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        let version = u32_at(8);
        if version != REPLAY_TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let n_masters = u32_at(12);
        let n_slaves = u32_at(16);
        // bytes 20..24: flags, reserved (ignored when zero in version 1).
        if u32_at(20) != 0 {
            return Err(TraceError::Corrupt("reserved header flags set"));
        }
        let window_cycles = u64_at(24);
        let f_clk_hz = f64::from_bits(u64_at(32));
        let live_total_j = f64::from_bits(u64_at(40));
        let count = u64_at(48);
        let payload_len = u64_at(56);
        let checksum = u64_at(64);
        if n_masters == 0 || n_masters > 32 || n_slaves == 0 || n_slaves > 32 {
            return Err(TraceError::Corrupt("implausible bus topology"));
        }
        if window_cycles == 0 {
            return Err(TraceError::Corrupt("zero window length"));
        }
        if !(f_clk_hz.is_finite() && f_clk_hz > 0.0) {
            return Err(TraceError::Corrupt("non-positive clock frequency"));
        }
        if !live_total_j.is_finite() {
            return Err(TraceError::Corrupt("non-finite live energy stamp"));
        }
        let payload = &bytes[HEADER_LEN..];
        if (payload.len() as u64) < payload_len {
            return Err(TraceError::Truncated);
        }
        if payload.len() as u64 > payload_len {
            return Err(TraceError::Corrupt("trailing bytes after the payload"));
        }
        // Every word costs at least one payload byte, so a sane count can
        // never exceed the payload length (also caps the decode allocation).
        if count > payload_len {
            return Err(TraceError::Corrupt("cycle count exceeds payload size"));
        }
        if codec::fnv1a64(payload) != checksum {
            return Err(TraceError::Corrupt("payload checksum mismatch"));
        }
        let words = codec::decode_words(payload, count as usize)?;
        for &w in &words {
            if w >> RESERVED_SHIFT != 0 {
                return Err(TraceError::Corrupt("reserved word bits set"));
            }
            if (w >> MASTER_SHIFT) & MASTER_MASK >= u64::from(n_masters) {
                return Err(TraceError::Corrupt("master id out of range"));
            }
        }
        Ok(ActivityTrace {
            n_masters,
            n_slaves,
            window_cycles,
            f_clk_hz,
            live_total_j,
            words,
        })
    }
}

/// Captures one activity word per observed cycle — the tap a
/// [`PowerSession`](crate::PowerSession) drives when built
/// [`with_recorder`](crate::PowerSession::with_recorder).
///
/// A session pushes the word its power FSM already packed and booked, so
/// recording adds no second pass over the wires. [`ActivityRecorder::record`]
/// serves callers that drive the FSM themselves: it packs the same word
/// from the recorder's own copy of the previous snapshot.
#[derive(Debug, Clone)]
pub struct ActivityRecorder {
    prev: Option<BusSnapshot>,
    trace: ActivityTrace,
}

impl ActivityRecorder {
    /// Creates a recorder for a session configured by `cfg`.
    pub fn new(cfg: &AnalysisConfig) -> Self {
        ActivityRecorder {
            prev: None,
            trace: ActivityTrace::new(cfg),
        }
    }

    /// Records one observed cycle: the recognized `instruction` plus the
    /// wire activity of `snap` relative to the previous recorded cycle.
    pub fn record(&mut self, snap: &BusSnapshot, instruction: Instruction) {
        self.push(pack_word(self.prev.as_ref(), snap, instruction));
        self.prev = Some(*snap);
    }

    /// Appends a word already packed by the power FSM.
    pub(crate) fn push(&mut self, word: u64) {
        self.trace.words.push(word);
    }

    /// Makes room for `cycles` more words, so a run of known length grows
    /// the trace once instead of by doubling. A reservation the allocator
    /// refuses is skipped; `push` then grows the trace as before.
    pub(crate) fn reserve(&mut self, cycles: u64) {
        let _ = self
            .trace
            .words
            .try_reserve(usize::try_from(cycles).unwrap_or(usize::MAX));
    }

    /// Cycles recorded so far.
    pub fn cycles(&self) -> u64 {
        self.trace.cycles()
    }

    /// Consumes the recorder and returns the finished trace.
    pub fn finish(self) -> ActivityTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ActivityMode;
    use ahbpower_ahb::{HBurst, HResp, HSize, HTrans, MasterId};

    fn snap(addr: u32, master: u8) -> BusSnapshot {
        BusSnapshot {
            cycle: 0,
            haddr: addr,
            htrans: HTrans::NonSeq,
            hwrite: true,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(master),
            hmastlock: false,
            hbusreq: 0,
            hgrant: 1,
            hsel: 0,
        }
    }

    fn instr() -> Instruction {
        Instruction::new(ActivityMode::Idle, ActivityMode::Write)
    }

    #[test]
    fn first_cycle_is_flagged() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        r.record(&snap(0, 1), instr());
        let t = r.finish();
        let w = t.words()[0];
        assert_eq!(w & (1 << FIRST_BIT), 1 << FIRST_BIT);
        assert_eq!(w & INSTR_MASK, instr().index() as u64);
        assert_eq!((w >> MASTER_SHIFT) & MASTER_MASK, 1);
        assert_eq!(w >> ADDR_HD_SHIFT, 0, "no activity fields on cycle 0");
    }

    #[test]
    fn activity_fields_capture_hamming_distances() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        r.record(&snap(0, 0), instr());
        r.record(&snap(0xFF, 1), instr());
        let t = r.finish();
        let w = t.words()[1];
        assert_eq!((w >> ADDR_HD_SHIFT) & ADDR_HD_MASK, 8);
        assert_eq!(w & (1 << HANDOVER_BIT), 1 << HANDOVER_BIT);
        assert_eq!(w & (1 << FIRST_BIT), 0);
        assert_eq!((w >> REQ_HD_SHIFT) & REQ_HD_MASK, 0);
    }

    #[test]
    fn trace_round_trips_through_bytes() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        for i in 0..200u32 {
            r.record(&snap(i.wrapping_mul(0x9E37_79B9), (i % 3) as u8), instr());
        }
        let mut t = r.finish();
        t.live_total_j = 42.5e-12;
        let bytes = t.to_bytes();
        let back = ActivityTrace::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(back.cycles(), 200);
        assert_eq!(back.live_total_j, 42.5e-12);
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        r.record(&snap(0, 0), instr());
        let mut bytes = r.finish().to_bytes();
        bytes[0] = b'X';
        assert_eq!(ActivityTrace::from_bytes(&bytes), Err(TraceError::BadMagic));
        assert_eq!(
            ActivityTrace::from_bytes(b"XXXXXXXXtooshort"),
            Err(TraceError::BadMagic)
        );
    }

    #[test]
    fn unsupported_version_is_reported() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        r.record(&snap(0, 0), instr());
        let mut bytes = r.finish().to_bytes();
        bytes[8] = 99;
        assert_eq!(
            ActivityTrace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn truncation_and_corruption_are_clean_errors() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        for i in 0..50u32 {
            r.record(&snap(i, 0), instr());
        }
        let bytes = r.finish().to_bytes();
        // Truncate at every prefix length: never a panic, always an error.
        for len in 0..bytes.len() {
            assert!(
                ActivityTrace::from_bytes(&bytes[..len]).is_err(),
                "len {len}"
            );
        }
        // Flip one payload byte: the checksum must catch it.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x55;
        assert!(matches!(
            ActivityTrace::from_bytes(&flipped),
            Err(TraceError::Corrupt(_))
        ));
        // Error values render human-readable messages.
        assert!(TraceError::Truncated.to_string().contains("truncated"));
        assert!(TraceError::UnsupportedVersion(9).to_string().contains('9'));
    }

    #[test]
    fn implausible_headers_are_corrupt() {
        let mut r = ActivityRecorder::new(&AnalysisConfig::paper_testbench());
        r.record(&snap(0, 0), instr());
        let good = r.finish().to_bytes();
        // Zero masters.
        let mut b = good.clone();
        b[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            ActivityTrace::from_bytes(&b),
            Err(TraceError::Corrupt(_))
        ));
        // Zero window.
        let mut b = good.clone();
        b[24..32].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            ActivityTrace::from_bytes(&b),
            Err(TraceError::Corrupt(_))
        ));
        // NaN clock.
        let mut b = good.clone();
        b[32..40].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            ActivityTrace::from_bytes(&b),
            Err(TraceError::Corrupt(_))
        ));
        // Absurd cycle count (would otherwise drive a huge allocation).
        let mut b = good;
        b[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ActivityTrace::from_bytes(&b),
            Err(TraceError::Corrupt(_))
        ));
    }
}
