//! Cross-layer structured event bus: a lock-free, bounded MPSC ring into
//! which every subsystem publishes typed [`Event`]s carrying causal ids
//! (slice → transaction → window), so one workload slice can be traced
//! from bus transaction to energy booking to anomaly verdict.
//!
//! # Design
//!
//! The workspace forbids `unsafe`, so the ring is built entirely from
//! `AtomicU64` words with a per-slot seqlock stamp instead of the usual
//! `UnsafeCell` payload:
//!
//! - Writers claim a global sequence number with one `fetch_add` on
//!   `head` (a run of numbers, for [`EventBus::publish_batch`]), then
//!   stamp their slot *writing* (`2·seq+1`), store the payload words
//!   relaxed behind a release fence, and finally stamp the slot
//!   *published* (`2·seq+2`) with release ordering. That `fetch_add` is
//!   the publish path's one cross-core round trip, which is why
//!   high-rate emitters ([`EventsTap`]) buffer completions locally and
//!   flush them as batches.
//! - Readers never block writers: [`EventBus::read_since`] checks the
//!   stamp before and after copying the payload (with an acquire fence in
//!   between) and classifies each slot as published, still in flight, or
//!   already overwritten by a lap of the ring. Overwritten events are
//!   counted as dropped, never returned torn.
//! - The whole publish path is allocation-free, and when the bus is
//!   disabled it is a single relaxed load of a cold `AtomicBool` — cheap
//!   enough to leave compiled into every hot loop.
//!
//! One caveat is inherited from every fixed-size broadcast ring: two
//! writers whose claimed sequence numbers differ by a multiple of the
//! capacity would race on one slot. With the default capacity (16 384)
//! that requires a writer to stay descheduled while the rest of the
//! system publishes a full ring of events, which the intended uses (a
//! handful of threads, a few stores per publish) cannot approach.

use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ahbpower_ahb::{BusSnapshot, Phase};
use ahbpower_sim::KernelStats;

use super::anomaly::WindowVerdict;
use super::atomics::{AtomicBoolCell, AtomicU64Cell, Atomics, StdAtomics};
use super::export::json_num;

/// Default ring capacity (rounded up to a power of two by the bus).
/// 16 Ki slots × 64 B = 1 MiB, small enough to stay resident in a
/// typical L2: publishing into a larger ring streams every slot store
/// through the last-level cache and measurably raises the per-event
/// cost. Consumers that read across long windows of producer activity
/// (e.g. the serve loop's per-slice drain) should size their ring
/// explicitly instead of raising this default.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

/// Words per ring slot: one stamp word plus the packed event payload.
const SLOT_WORDS: usize = 8;

/// One ring slot, aligned to its own cache line: with the production
/// [`StdAtomics`] words the eight words are exactly 64 bytes, and the
/// alignment keeps every publish inside a single line instead of
/// straddling two (a measurable share of the per-event cost at
/// transaction rates of ~0.7 events/cycle).
#[repr(align(64))]
struct Slot<A: Atomics>([A::U64; SLOT_WORDS]);

/// A seeded fault in the ring's seqlock write protocol, used by the
/// static analyzer's deep verification pass (`repro analyze --deep`) to
/// prove its interleaving model checker actually catches protocol bugs.
/// Production code always uses [`RingMutation::None`]; the other
/// variants deliberately break the write path in ways the checker's
/// torn-read and lost-event invariants must flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingMutation {
    /// The correct protocol (the only variant production code uses).
    #[default]
    None,
    /// Stamp the slot *published* before storing the payload words: a
    /// reader scheduled between the stamp and the payload stores can
    /// return a torn (stale or mixed) event as if it were consistent.
    PublishBeforePayload,
    /// Omit the pre-payload *writing* stamp: a reader lapped mid-
    /// overwrite can validate an old stamp around new payload words and
    /// return a mixed event instead of counting the slot as dropped.
    NoWritingStamp,
}

/// The type of a structured event. Discriminants are stable: they are
/// what the ring stores and what `events.jsonl` readers key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A workload slice began (`slice`, `cycle` = first session cycle).
    SliceStart = 0,
    /// A workload slice ended (`a` = cumulative session energy, J).
    SliceEnd = 1,
    /// A bus transaction completed (`txn` id, `tag` = master index,
    /// `a` = beats, `b` = wait cycles).
    TxnComplete = 2,
    /// A detection window's energy was booked (`window`, `a` = measured
    /// J, `b` = predicted J).
    EnergyBooked = 3,
    /// A detection window was flagged anomalous (`a` = deviation %,
    /// `b` = z-score).
    AnomalyFlagged = 4,
    /// A clean window was absorbed into the anomaly baseline.
    BaselineUpdated = 5,
    /// A sweep point finished (`txn` = point index, `a` = energy J).
    SweepPointDone = 6,
    /// A hosted kernel run was profiled (`a` = deltas, `b` = signal
    /// changes, `tag` = activations, saturating).
    KernelRun = 7,
    /// A record/replay pass began (`txn` = trace id, `tag` = model
    /// variant count, `a` = recorded cycles).
    ReplayStart = 8,
    /// A record/replay pass finished (`txn` = trace id, `tag` = model
    /// variant count, `a` = replay throughput in cycles/s, `b` = total
    /// replayed cycles across all variants).
    ReplayDone = 9,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 10] = [
        EventKind::SliceStart,
        EventKind::SliceEnd,
        EventKind::TxnComplete,
        EventKind::EnergyBooked,
        EventKind::AnomalyFlagged,
        EventKind::BaselineUpdated,
        EventKind::SweepPointDone,
        EventKind::KernelRun,
        EventKind::ReplayStart,
        EventKind::ReplayDone,
    ];

    /// The kind's stable wire name (the `"event"` field of the JSON form).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SliceStart => "SliceStart",
            EventKind::SliceEnd => "SliceEnd",
            EventKind::TxnComplete => "TxnComplete",
            EventKind::EnergyBooked => "EnergyBooked",
            EventKind::AnomalyFlagged => "AnomalyFlagged",
            EventKind::BaselineUpdated => "BaselineUpdated",
            EventKind::SweepPointDone => "SweepPointDone",
            EventKind::KernelRun => "KernelRun",
            EventKind::ReplayStart => "ReplayStart",
            EventKind::ReplayDone => "ReplayDone",
        }
    }

    /// Decodes a stored discriminant; `None` for garbage.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// One structured event. Fixed-width by construction (two scalar
/// payload fields, no strings), so publishing never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global publish sequence number (assigned by the bus).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Causal id: the workload slice this event belongs to.
    pub slice: u64,
    /// Causal id: the transaction (for [`EventKind::TxnComplete`]) or
    /// sweep-point index; 0 when not applicable.
    pub txn: u64,
    /// Causal id: the detection window active when the event fired.
    pub window: u64,
    /// Cycle stamp (meaning depends on the kind; see [`EventKind`]).
    pub cycle: u64,
    /// Small integer payload (e.g. master index).
    pub tag: u32,
    /// First scalar payload field.
    pub a: f64,
    /// Second scalar payload field.
    pub b: f64,
}

impl Event {
    /// Renders the event as one standalone JSON object (no trailing
    /// newline) — the line format of `results/events.jsonl` and the
    /// `/events` endpoint. All fields are numeric or fixed identifiers,
    /// so no escaping is required.
    pub fn to_json_obj(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"event\":\"{}\",\"seq\":{},\"slice\":{},\"txn\":{},\"window\":{},\"cycle\":{},\"tag\":{},\"a\":{},\"b\":{}}}",
            self.kind.name(),
            self.seq,
            self.slice,
            self.txn,
            self.window,
            self.cycle,
            self.tag,
            json_num(self.a),
            json_num(self.b)
        );
        out
    }
}

/// What [`EventBus::read_since`] returns: the readable events plus the
/// cursor bookkeeping a poller needs.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    /// Consistent events, in sequence order.
    pub events: Vec<Event>,
    /// Pass this as the next `since` to continue the stream.
    pub next: u64,
    /// Events in `[since, next)` lost to ring wraparound.
    pub dropped: u64,
    /// Total events claimed by publishers so far (the head sequence).
    pub published: u64,
}

/// How a slot read resolved.
enum SlotRead {
    Ready(Event),
    NotYet,
    Overwritten,
}

/// The lock-free, bounded, multi-producer structured event ring,
/// generic over its [`Atomics`] implementation so the analyzer's model
/// checker can drive the *same* seqlock protocol over scheduled model
/// cells. Production code uses the [`EventBus`] alias (real
/// `std::sync::atomic` words via [`StdAtomics`]).
///
/// Shared as an `Arc<EventBus>` between the simulation session, the
/// serve worker, the sweep runner's threads and any HTTP reader; see the
/// module docs for the protocol.
///
/// # Examples
///
/// ```
/// use ahbpower::telemetry::{Event, EventBus, EventKind};
///
/// let bus = EventBus::with_capacity(64);
/// bus.set_enabled(true);
/// bus.publish(Event {
///     seq: 0, kind: EventKind::SliceStart, slice: 3, txn: 0,
///     window: 0, cycle: 0, tag: 0, a: 0.0, b: 0.0,
/// });
/// let batch = bus.read_since(0, 16);
/// assert_eq!(batch.events.len(), 1);
/// assert_eq!(batch.events[0].slice, 3);
/// assert_eq!(batch.next, 1);
/// ```
pub struct GenericEventBus<A: Atomics = StdAtomics> {
    enabled: A::Bool,
    head: A::U64,
    mask: u64,
    slots: Vec<Slot<A>>,
    mutation: RingMutation,
    created: Instant,
}

/// The production event ring: [`GenericEventBus`] over [`StdAtomics`].
pub type EventBus = GenericEventBus<StdAtomics>;

impl<A: Atomics> fmt::Debug for GenericEventBus<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity())
            .field("published", &self.published())
            .finish()
    }
}

impl<A: Atomics> Default for GenericEventBus<A> {
    fn default() -> Self {
        GenericEventBus::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl<A: Atomics> GenericEventBus<A> {
    /// Creates a disabled bus whose ring holds `capacity` events
    /// (rounded up to a power of two, clamped to `[8, 2^20]`).
    pub fn with_capacity(capacity: usize) -> Self {
        GenericEventBus::build(capacity.clamp(8, 1 << 20), RingMutation::None)
    }

    /// Verification constructor: like [`GenericEventBus::with_capacity`]
    /// but with the minimum capacity relaxed to 2 (tiny rings keep
    /// wraparound interleavings model-checkable) and an optional seeded
    /// write-protocol fault for the analyzer's mutant directions.
    pub fn for_verification(capacity: usize, mutation: RingMutation) -> Self {
        GenericEventBus::build(capacity.clamp(2, 1 << 20), mutation)
    }

    fn build(capacity: usize, mutation: RingMutation) -> Self {
        let cap = capacity.next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Slot([0u64; SLOT_WORDS].map(<A::U64 as AtomicU64Cell>::new)));
        }
        GenericEventBus {
            enabled: <A::Bool as AtomicBoolCell>::new(false),
            head: <A::U64 as AtomicU64Cell>::new(0),
            mask: (cap - 1) as u64,
            slots,
            mutation,
            created: Instant::now(),
        }
    }

    /// Creates an enabled bus with the given capacity, already wrapped
    /// for sharing.
    pub fn shared(capacity: usize) -> Arc<Self> {
        let bus = GenericEventBus::with_capacity(capacity);
        bus.set_enabled(true);
        Arc::new(bus)
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Whether publishing is live. The disabled fast path in
    /// [`EventBus::publish`] is exactly this one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        // relaxed: on/off gate only; event data never flows through it.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches publishing on or off. Readers keep working either way.
    pub fn set_enabled(&self, enabled: bool) {
        // ordering: cold control-plane flip; seqcst for simplicity over speed.
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Events claimed by publishers so far (monotonic; includes events
    /// already overwritten by ring wraparound).
    pub fn published(&self) -> u64 {
        // ordering: acquire keeps later slot reads from hoisting above this count.
        self.head.load(Ordering::Acquire)
    }

    /// Mean publish rate since the bus was created, events per second
    /// (monotonic clock; this is diagnostics, not simulation time).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.created.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.published() as f64 / secs
        } else {
            0.0
        }
    }

    /// Publishes one event (the bus assigns `e.seq`), returning the
    /// assigned sequence number — or `None` without touching the ring
    /// when the bus is disabled. Never blocks, never allocates.
    #[inline]
    pub fn publish(&self, e: Event) -> Option<u64> {
        // relaxed: on/off gate only; event data never flows through it.
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        // relaxed: RMW claims each seq exactly once; stamps publish the payload.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        self.write_slot(seq, &e);
        Some(seq)
    }

    /// Publishes a batch of events in order with a single sequence
    /// allocation, returning the sequence number assigned to the first —
    /// or `None` without touching the ring when the bus is disabled or
    /// the batch is empty. The `fetch_add` on the shared head is the one
    /// cross-core round trip in a publish; amortizing it over a batch is
    /// what keeps per-cycle emitters (≈ 0.7 completions/cycle on the
    /// paper testbench) cheap on the `events` rung of `repro overhead`.
    /// A batch longer than the ring capacity overwrites its own oldest
    /// entries, exactly as the same events published one at a time would.
    #[inline]
    pub fn publish_batch(&self, events: &[Event]) -> Option<u64> {
        // relaxed: on/off gate only; event data never flows through it.
        if events.is_empty() || !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        // relaxed: RMW claims each seq exactly once; stamps publish the payload.
        let start = self.head.fetch_add(events.len() as u64, Ordering::Relaxed);
        for (i, e) in events.iter().enumerate() {
            self.write_slot(start + i as u64, e);
        }
        Some(start)
    }

    /// Seqlock write of one slot: stamp writing, fence, payload, stamp
    /// published. The mutated arms exist only for the analyzer's seeded
    /// model-checker directions (see [`RingMutation`]); production buses
    /// always take the first arm.
    #[inline]
    fn write_slot(&self, seq: u64, e: &Event) {
        let slot = &self.slots[(seq & self.mask) as usize].0;
        match self.mutation {
            RingMutation::None => {
                // relaxed: ordered before the payload by the release fence below.
                slot[0].store(2 * seq + 1, Ordering::Relaxed);
                // ordering: release fence orders the writing stamp before the payload.
                A::fence(Ordering::Release);
                self.store_payload(slot, e);
                // ordering: release publishes the payload to the reader's acquire load.
                slot[0].store(2 * seq + 2, Ordering::Release);
            }
            RingMutation::PublishBeforePayload => {
                // ordering: seeded fault — stamps published before the payload lands.
                slot[0].store(2 * seq + 2, Ordering::Release);
                self.store_payload(slot, e);
            }
            RingMutation::NoWritingStamp => {
                // ordering: seeded fault — no writing stamp guards the payload stores.
                A::fence(Ordering::Release);
                self.store_payload(slot, e);
                // ordering: release publishes the payload to the reader's acquire load.
                slot[0].store(2 * seq + 2, Ordering::Release);
            }
        }
    }

    /// The seven payload stores shared by every [`Self::write_slot`] arm.
    #[inline]
    fn store_payload(&self, slot: &[A::U64; SLOT_WORDS], e: &Event) {
        let packed = u64::from(e.kind as u8) | (u64::from(e.tag) << 8);
        // relaxed: payload words are guarded by the stamp word on both sides.
        slot[1].store(packed, Ordering::Relaxed);
        slot[2].store(e.slice, Ordering::Relaxed); // relaxed: stamp-guarded payload
        slot[3].store(e.txn, Ordering::Relaxed); // relaxed: stamp-guarded payload
        slot[4].store(e.window, Ordering::Relaxed); // relaxed: stamp-guarded payload
        slot[5].store(e.cycle, Ordering::Relaxed); // relaxed: stamp-guarded payload
        slot[6].store(e.a.to_bits(), Ordering::Relaxed); // relaxed: stamp-guarded payload
        slot[7].store(e.b.to_bits(), Ordering::Relaxed); // relaxed: stamp-guarded payload
    }

    /// Reads up to `max` events with sequence numbers `>= since`, in
    /// order. Events older than the ring window are counted in
    /// [`EventBatch::dropped`]; an event still being written ends the
    /// batch early (poll again with [`EventBatch::next`]).
    pub fn read_since(&self, since: u64, max: usize) -> EventBatch {
        // ordering: acquire keeps the slot reads below from hoisting above head.
        let head = self.head.load(Ordering::Acquire);
        let oldest = head.saturating_sub(self.mask + 1);
        let start = since.max(oldest);
        let mut dropped = start - since.min(start);
        let mut events = Vec::new();
        let mut s = start;
        while s < head && events.len() < max {
            match self.read_slot(s) {
                SlotRead::Ready(e) => {
                    events.push(e);
                    s += 1;
                }
                SlotRead::NotYet => break,
                SlotRead::Overwritten => {
                    dropped += 1;
                    s += 1;
                }
            }
        }
        EventBatch {
            events,
            next: s,
            dropped,
            published: head,
        }
    }

    /// Seqlock read of one slot: stamp check, payload copy, stamp
    /// re-check behind an acquire fence.
    fn read_slot(&self, seq: u64) -> SlotRead {
        let slot = &self.slots[(seq & self.mask) as usize].0;
        let want = 2 * seq + 2;
        // ordering: acquire pairs with the writer's release stamp store.
        let s1 = slot[0].load(Ordering::Acquire);
        if s1 < want {
            return SlotRead::NotYet;
        }
        if s1 > want {
            return SlotRead::Overwritten;
        }
        // relaxed: validated by the stamp re-check behind the acquire fence below.
        let packed = slot[1].load(Ordering::Relaxed);
        let slice = slot[2].load(Ordering::Relaxed); // relaxed: stamp-validated read
        let txn = slot[3].load(Ordering::Relaxed); // relaxed: stamp-validated read
        let window = slot[4].load(Ordering::Relaxed); // relaxed: stamp-validated read
        let cycle = slot[5].load(Ordering::Relaxed); // relaxed: stamp-validated read
        let a = slot[6].load(Ordering::Relaxed); // relaxed: stamp-validated read
        let b = slot[7].load(Ordering::Relaxed); // relaxed: stamp-validated read
                                                 // ordering: acquire fence orders the payload loads before the re-check.
        A::fence(Ordering::Acquire);
        // relaxed: the fence above already orders this re-check after the loads.
        if slot[0].load(Ordering::Relaxed) != want {
            return SlotRead::Overwritten;
        }
        let Some(kind) = EventKind::from_u8((packed & 0xff) as u8) else {
            // A stamp collision after a full-ring lap (see module docs)
            // could leave mixed words; treat anything undecodable as lost.
            return SlotRead::Overwritten;
        };
        SlotRead::Ready(Event {
            seq,
            kind,
            slice,
            txn,
            window,
            cycle,
            tag: (packed >> 8) as u32,
            a: f64::from_bits(a),
            b: f64::from_bits(b),
        })
    }
}

/// How many [`EventKind::TxnComplete`] events an [`EventsTap`] buffers
/// locally before flushing them to the ring in one
/// [`EventBus::publish_batch`] call. Small enough that consumers see
/// completions within ~100 cycles of simulated time; large enough to
/// amortize the per-publish `fetch_add` to noise.
const TXN_EVENT_BATCH: usize = 64;

/// The per-session emitter: wraps a shared [`EventBus`] with the
/// causal-id bookkeeping — transaction ids for the completions the
/// session's [`ahbpower_ahb::PhaseDecoder`] reports, the current slice
/// id, and the cycle/window counters every emitted event is stamped with.
///
/// Owned by [`crate::telemetry::Telemetry`]; the session's hot loop
/// calls [`EventsTap::observe_bus`] once per cycle, which is a single
/// cold-atomic branch when the bus is disabled.
#[derive(Debug, Clone)]
pub struct EventsTap {
    bus: Arc<EventBus>,
    /// Completed-transaction events not yet handed to the ring. At the
    /// paper testbench's ≈ 0.7 completions/cycle, publishing each one
    /// individually makes the ring's `fetch_add` the dominant tracing
    /// cost; buffering [`TXN_EVENT_BATCH`] of them and flushing via
    /// [`EventBus::publish_batch`] amortizes it away. Every non-txn
    /// publish flushes first, so the stream stays in causal order.
    pending: Vec<Event>,
    slice: u64,
    next_txn: u64,
    cycles: u64,
    window_cycles: u64,
    /// Window index of the current cycle, tracked incrementally so the
    /// per-completion hot path never divides; refreshed whenever
    /// `cycles` reaches `cur_window_end`.
    cur_window: u64,
    /// First cycle index beyond `cur_window`.
    cur_window_end: u64,
}

impl EventsTap {
    /// Creates a tap publishing into `bus`; `window_cycles` must match
    /// the telemetry window clock so window ids line up (clamped to
    /// ≥ 1).
    pub fn new(bus: Arc<EventBus>, window_cycles: u64) -> Self {
        EventsTap {
            bus,
            pending: Vec::with_capacity(TXN_EVENT_BATCH),
            slice: 0,
            next_txn: 0,
            cycles: 0,
            window_cycles: window_cycles.max(1),
            cur_window: 0,
            cur_window_end: 0,
        }
    }

    /// The shared ring this tap publishes into.
    pub fn bus(&self) -> &Arc<EventBus> {
        &self.bus
    }

    /// The current slice id stamped into emitted events.
    pub fn slice(&self) -> u64 {
        self.slice
    }

    /// Cycles observed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Transactions completed (and assigned ids) so far.
    pub fn transactions(&self) -> u64 {
        self.next_txn
    }

    /// Sets the slice id without emitting an event.
    pub fn set_slice(&mut self, slice: u64) {
        self.slice = slice;
    }

    /// Starts slice `slice`: future events carry its id, and a
    /// [`EventKind::SliceStart`] event is published.
    pub fn slice_start(&mut self, slice: u64) {
        self.flush();
        self.slice = slice;
        self.bus.publish(Event {
            seq: 0,
            kind: EventKind::SliceStart,
            slice,
            txn: 0,
            window: self.cycles / self.window_cycles,
            cycle: self.cycles,
            tag: 0,
            a: 0.0,
            b: 0.0,
        });
    }

    /// Ends the current slice, stamping `energy_j` (typically the
    /// session's cumulative energy) into a [`EventKind::SliceEnd`] event.
    pub fn slice_end(&mut self, energy_j: f64) {
        self.flush();
        self.bus.publish(Event {
            seq: 0,
            kind: EventKind::SliceEnd,
            slice: self.slice,
            txn: 0,
            window: self.cycles / self.window_cycles,
            cycle: self.cycles,
            tag: 0,
            a: energy_j,
            b: 0.0,
        });
    }

    /// Observes one cycle's wires and decoded `phase`: advances the
    /// cycle/window counters and, when the bus is enabled, publishes a
    /// [`EventKind::TxnComplete`] event for the transaction that finished
    /// this cycle, if any. Allocation-free; a cold-atomic branch when the
    /// bus is disabled.
    #[inline]
    pub fn observe_bus(&mut self, snap: &BusSnapshot, phase: &Phase) {
        let cycle_index = self.cycles;
        self.cycles += 1;
        if !self.bus.is_enabled() {
            return;
        }
        if cycle_index >= self.cur_window_end {
            // One division per window boundary instead of one per
            // completed transaction (~0.7/cycle on the paper testbench).
            self.cur_window = cycle_index / self.window_cycles;
            self.cur_window_end = (self.cur_window + 1) * self.window_cycles;
        }
        if let Some(done) = phase.completed {
            let txn = self.next_txn;
            self.next_txn += 1;
            self.pending.push(Event {
                seq: 0,
                kind: EventKind::TxnComplete,
                slice: self.slice,
                txn,
                window: self.cur_window,
                cycle: snap.cycle,
                tag: u32::from(done.master.0),
                a: f64::from(done.beats),
                b: f64::from(done.wait_cycles),
            });
            if self.pending.len() >= TXN_EVENT_BATCH {
                self.flush();
            }
        }
    }

    /// Hands any buffered [`EventKind::TxnComplete`] events to the ring.
    /// Called automatically when the buffer fills and before every
    /// non-transaction publish (slice, window, kernel events), so
    /// consumers never observe a window verdict before the transactions
    /// that fed it.
    #[inline]
    pub fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.bus.publish_batch(&self.pending);
            self.pending.clear();
        }
    }

    /// Publishes the event train for one closed detection window: always
    /// [`EventKind::EnergyBooked`], plus [`EventKind::AnomalyFlagged`]
    /// when flagged and [`EventKind::BaselineUpdated`] when the window
    /// was absorbed into the baseline. Nothing is published while the
    /// ring is disabled; the window clock that closes windows is the
    /// telemetry layer's, so later windows keep their ids.
    pub fn publish_window(&mut self, v: &WindowVerdict) {
        if !self.bus.is_enabled() {
            return;
        }
        self.flush();
        self.bus.publish(Event {
            seq: 0,
            kind: EventKind::EnergyBooked,
            slice: self.slice,
            txn: 0,
            window: v.window,
            cycle: v.start_cycle,
            tag: 0,
            a: v.measured_j,
            b: v.predicted_j,
        });
        if let Some(f) = &v.flagged {
            self.bus.publish(Event {
                seq: 0,
                kind: EventKind::AnomalyFlagged,
                slice: self.slice,
                txn: 0,
                window: v.window,
                cycle: v.start_cycle,
                tag: 0,
                a: f.deviation_pct,
                b: f.z_score,
            });
        }
        if v.absorbed {
            self.bus.publish(Event {
                seq: 0,
                kind: EventKind::BaselineUpdated,
                slice: self.slice,
                txn: 0,
                window: v.window,
                cycle: v.start_cycle,
                tag: 0,
                a: v.measured_j,
                b: v.predicted_j,
            });
        }
    }

    /// Publishes an [`EventKind::KernelRun`] event for a hosted kernel
    /// run's statistics.
    pub fn publish_kernel(&mut self, stats: &KernelStats) {
        self.flush();
        self.bus.publish(Event {
            seq: 0,
            kind: EventKind::KernelRun,
            slice: self.slice,
            txn: 0,
            window: self.cycles / self.window_cycles,
            cycle: self.cycles,
            tag: stats.activations.min(u64::from(u32::MAX)) as u32,
            a: stats.deltas as f64,
            b: stats.signal_changes as f64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ev(kind: EventKind, slice: u64) -> Event {
        Event {
            seq: 0,
            kind,
            slice,
            txn: 0,
            window: 0,
            cycle: 0,
            tag: 0,
            a: 1.5,
            b: -2.0,
        }
    }

    #[test]
    fn kind_discriminants_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_u8(200), None);
        // Names are distinct identifiers (the wire format keys on them).
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn disabled_bus_publishes_nothing() {
        let bus = EventBus::with_capacity(16);
        assert!(!bus.is_enabled());
        assert_eq!(bus.publish(ev(EventKind::SliceStart, 0)), None);
        assert_eq!(bus.published(), 0);
        assert!(bus.read_since(0, 10).events.is_empty());
    }

    #[test]
    fn publish_read_round_trips_payload() {
        let bus = EventBus::with_capacity(16);
        bus.set_enabled(true);
        let e = Event {
            seq: 0,
            kind: EventKind::TxnComplete,
            slice: 7,
            txn: 42,
            window: 3,
            cycle: 1_234,
            tag: 2,
            a: 4.0,
            b: 1.0,
        };
        assert_eq!(bus.publish(e), Some(0));
        let batch = bus.read_since(0, 10);
        assert_eq!(batch.events, vec![Event { seq: 0, ..e }]);
        assert_eq!(batch.next, 1);
        assert_eq!(batch.dropped, 0);
        assert_eq!(batch.published, 1);
    }

    #[test]
    fn wraparound_drops_oldest_and_reports_it() {
        let bus = EventBus::with_capacity(8);
        bus.set_enabled(true);
        for i in 0..20 {
            bus.publish(ev(EventKind::SliceStart, i));
        }
        let batch = bus.read_since(0, 100);
        // Capacity rounds to 8: only the last 8 survive.
        assert_eq!(batch.dropped, 12);
        assert_eq!(batch.events.len(), 8);
        assert_eq!(batch.events[0].slice, 12);
        assert_eq!(batch.next, 20);
        // Resuming from the cursor yields nothing new and no drops.
        let again = bus.read_since(batch.next, 100);
        assert!(again.events.is_empty());
        assert_eq!(again.dropped, 0);
    }

    #[test]
    fn read_since_respects_max_and_resumes() {
        let bus = EventBus::with_capacity(64);
        bus.set_enabled(true);
        for i in 0..10 {
            bus.publish(ev(EventKind::EnergyBooked, i));
        }
        let first = bus.read_since(0, 4);
        assert_eq!(first.events.len(), 4);
        assert_eq!(first.next, 4);
        let rest = bus.read_since(first.next, 100);
        assert_eq!(rest.events.len(), 6);
        assert_eq!(rest.events[0].slice, 4);
    }

    #[test]
    fn concurrent_publishers_produce_every_sequence_once() {
        let bus = EventBus::shared(1 << 12);
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 500;
        thread::scope(|s| {
            for w in 0..WRITERS {
                let bus = Arc::clone(&bus);
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        bus.publish(Event {
                            seq: 0,
                            kind: EventKind::SweepPointDone,
                            slice: w,
                            txn: i,
                            window: 0,
                            cycle: 0,
                            tag: w as u32,
                            a: i as f64,
                            b: w as f64,
                        });
                    }
                });
            }
        });
        let batch = bus.read_since(0, usize::MAX);
        assert_eq!(bus.published(), WRITERS * PER_WRITER);
        assert_eq!(batch.events.len(), (WRITERS * PER_WRITER) as usize);
        assert_eq!(batch.dropped, 0);
        // Sequence numbers are the natural numbers, each exactly once.
        for (i, e) in batch.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Each writer's events arrive in its program order.
        for w in 0..WRITERS {
            let txns: Vec<u64> = batch
                .events
                .iter()
                .filter(|e| e.slice == w)
                .map(|e| e.txn)
                .collect();
            assert_eq!(txns, (0..PER_WRITER).collect::<Vec<u64>>());
            // And the payload words stayed attached to their event.
            assert!(batch
                .events
                .iter()
                .filter(|e| e.slice == w)
                .all(|e| e.b == w as f64 && e.tag == w as u32));
        }
    }

    #[test]
    fn json_object_shape_is_stable() {
        let e = Event {
            seq: 9,
            kind: EventKind::AnomalyFlagged,
            slice: 1,
            txn: 0,
            window: 27,
            cycle: 27_000,
            tag: 0,
            a: 96.5,
            b: 31.2,
        };
        let line = e.to_json_obj();
        assert_eq!(
            line,
            "{\"event\":\"AnomalyFlagged\",\"seq\":9,\"slice\":1,\"txn\":0,\"window\":27,\"cycle\":27000,\"tag\":0,\"a\":96.5,\"b\":31.2}"
        );
        let nan = Event { a: f64::NAN, ..e };
        assert!(nan.to_json_obj().contains("\"a\":null"));
    }

    #[test]
    fn capacity_is_clamped_and_rounded() {
        assert_eq!(EventBus::with_capacity(0).capacity(), 8);
        assert_eq!(EventBus::with_capacity(100).capacity(), 128);
        assert_eq!(EventBus::with_capacity(1 << 16).capacity(), 1 << 16);
        // The verification constructor relaxes only the lower clamp.
        let tiny = EventBus::for_verification(0, RingMutation::None);
        assert_eq!(tiny.capacity(), 2);
        assert_eq!(tiny.mutation, RingMutation::None);
    }

    #[test]
    fn payload_floats_round_trip_bit_exactly() {
        // The ring stores f64 payloads as raw bits; NaN payloads (and any
        // other bit pattern) must come back bit-identical, which also
        // pins that the genericization kept the store/load paths exact.
        let bus = EventBus::with_capacity(8);
        bus.set_enabled(true);
        let quiet_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let neg_zero = -0.0_f64;
        bus.publish(Event {
            a: quiet_nan,
            b: neg_zero,
            ..ev(EventKind::KernelRun, 1)
        });
        let got = bus.read_since(0, 4).events;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].a.to_bits(), 0x7ff8_0000_dead_beef);
        assert_eq!(got[0].b.to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn seeded_mutations_are_invisible_without_concurrency() {
        // The mutated write paths break the protocol only under an
        // adversarial schedule; single-threaded use still round-trips,
        // which keeps the mutant directions honest (the model checker,
        // not a broken serial path, is what flags them).
        for mutation in [
            RingMutation::PublishBeforePayload,
            RingMutation::NoWritingStamp,
        ] {
            let bus = EventBus::for_verification(4, mutation);
            bus.set_enabled(true);
            for i in 0..6 {
                bus.publish(ev(EventKind::SliceStart, i));
            }
            let batch = bus.read_since(0, 16);
            assert_eq!(batch.events.len(), 4, "{mutation:?}");
            assert_eq!(batch.dropped, 2, "{mutation:?}");
            assert_eq!(batch.events[0].slice, 2, "{mutation:?}");
        }
    }

    #[test]
    fn batch_publish_interleaves_with_singles() {
        let bus = EventBus::with_capacity(64);
        bus.set_enabled(true);
        assert_eq!(bus.publish_batch(&[]), None, "empty batch is a no-op");

        assert_eq!(bus.publish(ev(EventKind::SliceStart, 0)), Some(0));
        let batch: Vec<Event> = (0..7)
            .map(|i| Event {
                txn: i,
                ..ev(EventKind::TxnComplete, 0)
            })
            .collect();
        assert_eq!(
            bus.publish_batch(&batch),
            Some(1),
            "batch starts after the single"
        );
        assert_eq!(bus.publish(ev(EventKind::SliceEnd, 0)), Some(8));

        let got = bus.read_since(0, 64);
        assert_eq!(got.events.len(), 9);
        assert_eq!(got.dropped, 0);
        for (i, e) in got.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "sequence numbers are contiguous");
        }
        assert_eq!(got.events[0].kind, EventKind::SliceStart);
        for (i, e) in got.events[1..8].iter().enumerate() {
            assert_eq!(e.kind, EventKind::TxnComplete);
            assert_eq!(e.txn, i as u64, "batch order is preserved");
        }
        assert_eq!(got.events[8].kind, EventKind::SliceEnd);

        bus.set_enabled(false);
        assert_eq!(
            bus.publish_batch(&batch),
            None,
            "disabled bus drops batches"
        );
        assert_eq!(bus.published(), 9);
    }

    #[test]
    fn tap_buffers_completions_and_flushes_before_slice_events() {
        use ahbpower_ahb::{HBurst, HResp, HSize, HTrans, MasterId, PhaseDecoder};
        let snap = |cycle: u64, htrans: HTrans| BusSnapshot {
            cycle,
            haddr: 0x10,
            htrans,
            hwrite: true,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(0),
            hmastlock: false,
            hbusreq: 1,
            hgrant: 1,
            hsel: 1,
        };
        let bus = EventBus::shared(256);
        bus.set_enabled(true);
        let mut tap = EventsTap::new(Arc::clone(&bus), 1_000);
        let mut decoder = PhaseDecoder::new(1);
        tap.slice_start(0);
        for s in [snap(0, HTrans::NonSeq), snap(1, HTrans::Idle)] {
            tap.observe_bus(&s, &decoder.decode(&s));
        }
        assert_eq!(tap.transactions(), 1, "the single-beat write completed");
        assert_eq!(
            bus.published(),
            1,
            "the completion stays buffered in the tap until a flush point"
        );
        tap.slice_end(1.0);
        let kinds: Vec<EventKind> = bus
            .read_since(0, 64)
            .events
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SliceStart,
                EventKind::TxnComplete,
                EventKind::SliceEnd
            ],
            "buffered completions land before the slice-end marker"
        );
    }

    #[test]
    fn batch_longer_than_capacity_keeps_newest() {
        let bus = EventBus::with_capacity(8);
        bus.set_enabled(true);
        let batch: Vec<Event> = (0..20)
            .map(|i| Event {
                txn: i,
                ..ev(EventKind::TxnComplete, 0)
            })
            .collect();
        assert_eq!(bus.publish_batch(&batch), Some(0));
        let got = bus.read_since(0, 64);
        assert_eq!(got.dropped, 12, "overwritten entries count as dropped");
        let txns: Vec<u64> = got.events.iter().map(|e| e.txn).collect();
        assert_eq!(txns, (12..20).collect::<Vec<u64>>(), "newest survive");
    }
}
