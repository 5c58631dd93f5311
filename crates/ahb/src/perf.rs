//! Bus-performance analysis: per-master service counters and latency /
//! burst-length histograms derived from the per-cycle [`BusSnapshot`] and
//! its decoded [`Phase`].
//!
//! [`BusPerfAnalyzer`] is a passive observer like the protocol checker: it
//! reads every cycle's wires and phase record and derives the performance
//! quantities the power methodology correlates energy against — who got the bus, how long
//! requests waited for a grant, how slaves stretched transfers with wait
//! states, and how traffic batches into bursts. All counters are plain
//! integers updated in place; observing a cycle allocates nothing.

use crate::phase::{Completion, DataPhase, Phase};
use crate::types::{BusSnapshot, HTrans};

/// A fixed-bucket histogram over integer-valued cycle counts.
///
/// Buckets are defined by inclusive upper bounds plus an implicit overflow
/// bucket, mirroring Prometheus' cumulative `le` convention when exported.
///
/// # Examples
///
/// ```
/// use ahbpower_ahb::CycleHistogram;
///
/// let mut h = CycleHistogram::new(&[1, 2, 4]);
/// h.observe(1);
/// h.observe(3);
/// h.observe(100);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 104);
/// assert_eq!(h.bucket_counts(), &[1, 0, 1, 1]); // <=1, <=2, <=4, +Inf
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl CycleHistogram {
    /// Creates a histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        CycleHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// The inclusive upper bounds (the final overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts in Prometheus `le` style; the last entry equals
    /// [`CycleHistogram::count`].
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one: per-bucket counts
    /// (including the overflow bucket), the value sum and the
    /// observation count all add. Merging is exactly equivalent to
    /// having observed the union of both sample streams, so quantiles
    /// and means of the merged histogram describe the combined
    /// population — this is what lets per-shard latency/power
    /// histograms aggregate into one serving-plane view.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ; merging histograms with
    /// different layouts has no meaningful result.
    pub fn merge(&mut self, other: &CycleHistogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation within the bucket containing the target rank, the
    /// Prometheus `histogram_quantile` convention: bucket `i` spans
    /// `(bounds[i-1], bounds[i]]` (the first spans `[0, bounds[0]]`).
    /// Ranks that land in the overflow bucket return the last finite
    /// bound — histograms cannot say more than their largest bound. An
    /// empty histogram returns `0.0`; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev_cum = cum;
            cum += c;
            if (cum as f64) < rank || c == 0 {
                continue;
            }
            if i >= self.bounds.len() {
                // Overflow bucket: unbounded above, clamp to the last
                // finite bound.
                return self.bounds[self.bounds.len() - 1] as f64;
            }
            let lo = if i == 0 {
                0.0
            } else {
                self.bounds[i - 1] as f64
            };
            let hi = self.bounds[i] as f64;
            let into = (rank - prev_cum as f64) / c as f64;
            return lo + (hi - lo) * into.clamp(0.0, 1.0);
        }
        self.bounds[self.bounds.len() - 1] as f64
    }
}

/// Per-master service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterPerf {
    /// Cycles this master owned the address phase (HMASTER).
    pub grant_cycles: u64,
    /// Data transfers this master completed with OKAY.
    pub transfers_ok: u64,
    /// Wait-state cycles inserted into this master's data phases.
    pub wait_cycles: u64,
    /// Cycles this master spent requesting the bus without owning it.
    pub request_wait_cycles: u64,
}

/// Passive per-cycle bus-performance analyzer over the [`Phase`] records
/// of a [`crate::PhaseDecoder`].
///
/// # Examples
///
/// ```
/// use ahbpower_ahb::{
///     AddressMap, AhbBusBuilder, BusPerfAnalyzer, MemorySlave, Op, PhaseDecoder, ScriptedMaster,
/// };
///
/// let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(1, 0x1000))
///     .master(Box::new(ScriptedMaster::new(vec![Op::write(0x0, 1), Op::read(0x0)])))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .build()?;
/// let mut decoder = PhaseDecoder::new(1);
/// let mut perf = BusPerfAnalyzer::new(1);
/// for _ in 0..20 {
///     let snap = bus.step();
///     perf.observe(snap, &decoder.decode(snap));
/// }
/// perf.finish(decoder.finish());
/// assert_eq!(perf.cycles(), 20);
/// assert_eq!(perf.master(0).transfers_ok, 2);
/// # Ok::<(), ahbpower_ahb::BuildBusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BusPerfAnalyzer {
    cycles: u64,
    handovers: u64,
    data_transfer_cycles: u64,
    idle_cycles: u64,
    masters: Vec<MasterPerf>,
    arbitration_latency: CycleHistogram,
    burst_beats: CycleHistogram,
}

/// Default arbitration-latency bucket bounds, cycles.
pub const ARBITRATION_LATENCY_BOUNDS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

/// Default burst-length bucket bounds, beats (AHB's fixed burst kinds).
pub const BURST_BEATS_BOUNDS: [u64; 5] = [1, 2, 4, 8, 16];

impl BusPerfAnalyzer {
    /// Creates an analyzer for a bus with `n_masters` masters.
    pub fn new(n_masters: usize) -> Self {
        BusPerfAnalyzer {
            cycles: 0,
            handovers: 0,
            data_transfer_cycles: 0,
            idle_cycles: 0,
            masters: vec![MasterPerf::default(); n_masters],
            arbitration_latency: CycleHistogram::new(&ARBITRATION_LATENCY_BOUNDS),
            burst_beats: CycleHistogram::new(&BURST_BEATS_BOUNDS),
        }
    }

    /// Observes one cycle's wires and their decoded `phase`.
    /// Allocation-free once every master has been seen.
    // Always inlined next to `PhaseDecoder::decode` (see there).
    #[inline(always)]
    pub fn observe(&mut self, snap: &BusSnapshot, phase: &Phase) {
        let owner = snap.hmaster.index();
        let seen = (owner + 1).max((u32::BITS - phase.waiting.leading_zeros()) as usize);
        if self.masters.len() < seen {
            // A master the constructor did not know about (defensive).
            self.masters.resize(seen, MasterPerf::default());
        }
        self.masters[owner].grant_cycles += 1;
        self.handovers += u64::from(phase.handover);
        // The transfer in flight belongs to the master that issued its
        // address phase, not the current owner.
        match phase.data {
            DataPhase::Done { master, okay } => {
                self.masters[master.index()].transfers_ok += u64::from(okay);
                self.data_transfer_cycles += 1;
            }
            DataPhase::Stalled(master) => self.masters[master.index()].wait_cycles += 1,
            DataPhase::None => {}
        }
        // Arbitration latency: cycles from a master raising HBUSREQ to its
        // first owning cycle.
        if let Some(wait) = phase.owner_wait {
            self.arbitration_latency.observe(wait);
        }
        let mut waiting = phase.waiting;
        while waiting != 0 {
            self.masters[waiting.trailing_zeros() as usize].request_wait_cycles += 1;
            waiting &= waiting - 1;
        }
        if let Some(txn) = phase.completed {
            self.burst_beats.observe(u64::from(txn.beats));
        }
        self.idle_cycles += u64::from(snap.htrans == HTrans::Idle);
        self.cycles += 1;
    }

    /// Books the transaction still open at the end of the run (what
    /// [`crate::PhaseDecoder::finish`] returns); call once after the run.
    pub fn finish(&mut self, open: Option<Completion>) {
        if let Some(txn) = open {
            self.burst_beats.observe(u64::from(txn.beats));
        }
    }

    /// Cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Bus ownership changes.
    pub fn handovers(&self) -> u64 {
        self.handovers
    }

    /// Cycles with an IDLE address phase.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Per-master counters (index = master id).
    pub fn masters(&self) -> &[MasterPerf] {
        &self.masters
    }

    /// Counters for one master.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn master(&self, i: usize) -> &MasterPerf {
        &self.masters[i]
    }

    /// The request-to-grant latency histogram, cycles.
    pub fn arbitration_latency(&self) -> &CycleHistogram {
        &self.arbitration_latency
    }

    /// Beats per completed transaction (one burst, or one single transfer).
    pub fn burst_beats(&self) -> &CycleHistogram {
        &self.burst_beats
    }

    /// Fraction of cycles that completed a data transfer (0..=1).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.data_transfer_cycles as f64 / self.cycles as f64
        }
    }

    /// Handovers per cycle (0..=1).
    pub fn handover_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.handovers as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::AhbBus;
    use crate::bus::AhbBusBuilder;
    use crate::decoder::AddressMap;
    use crate::master::{Op, ScriptedMaster};
    use crate::phase::PhaseDecoder;
    use crate::slave::MemorySlave;
    use crate::types::HBurst;

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = CycleHistogram::new(&[1, 2, 4]);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let mut h = CycleHistogram::new(&[10]);
        // 4 observations, all in [0, 10]: rank q*4 interpolates linearly.
        for v in [1, 2, 3, 4] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 5.0, "rank 2 of 4 → midpoint of [0,10]");
        assert_eq!(h.quantile(1.0), 10.0, "top rank → bucket upper bound");
        assert_eq!(h.quantile(0.0), 0.0, "bottom rank → bucket lower bound");
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        let mut h = CycleHistogram::new(&[1, 2, 4]);
        // One observation per finite bucket.
        h.observe(1);
        h.observe(2);
        h.observe(3);
        // Ranks: q=1/3 exactly exhausts bucket 0 → its upper bound.
        let q13 = h.quantile(1.0 / 3.0);
        assert!((q13 - 1.0).abs() < 1e-9, "boundary rank hits le=1: {q13}");
        let q23 = h.quantile(2.0 / 3.0);
        assert!((q23 - 2.0).abs() < 1e-9, "boundary rank hits le=2: {q23}");
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn quantile_skips_empty_buckets() {
        let mut h = CycleHistogram::new(&[1, 2, 4, 8]);
        h.observe(1);
        h.observe(8); // buckets le=2 and le=4 stay empty
        assert_eq!(h.quantile(0.25), 0.5, "rank 0.5 interpolates in [0,1]");
        let p75 = h.quantile(0.75);
        assert!((p75 - 6.0).abs() < 1e-9, "rank 1.5 lands mid (4,8]: {p75}");
    }

    #[test]
    fn quantile_clamps_overflow_to_last_bound() {
        let mut h = CycleHistogram::new(&[1, 2]);
        h.observe(100);
        h.observe(200);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.99), 2.0);
    }

    #[test]
    fn histogram_buckets_and_cumulative() {
        let mut h = CycleHistogram::new(&[0, 2, 8]);
        for v in [0, 0, 1, 5, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 2]);
        assert_eq!(h.cumulative_counts(), vec![2, 3, 4, 6]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 115);
        assert!((h.mean() - 115.0 / 6.0).abs() < 1e-12);
        assert_eq!(CycleHistogram::new(&[1]).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = CycleHistogram::new(&[2, 1]);
    }

    #[test]
    fn merge_equals_union_of_observations() {
        let bounds = [1, 2, 4, 8];
        let left = [0, 1, 3, 100];
        let right = [2, 2, 5, 9, 7];
        let mut a = CycleHistogram::new(&bounds);
        let mut b = CycleHistogram::new(&bounds);
        let mut union = CycleHistogram::new(&bounds);
        for v in left {
            a.observe(v);
            union.observe(v);
        }
        for v in right {
            b.observe(v);
            union.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), union.bucket_counts());
        assert_eq!(a.cumulative_counts(), union.cumulative_counts());
        assert_eq!(a.count(), union.count());
        assert_eq!(a.sum(), union.sum());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), union.quantile(q), "q={q} diverged");
        }
        assert!((a.mean() - union.mean()).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_boundary_and_overflow_buckets() {
        let mut a = CycleHistogram::new(&[1, 2]);
        let mut b = CycleHistogram::new(&[1, 2]);
        a.observe(1); // exactly on le=1
        a.observe(3); // overflow
        b.observe(1);
        b.observe(2); // exactly on le=2
        b.observe(100); // overflow
        a.merge(&b);
        assert_eq!(a.bucket_counts(), &[2, 1, 2]);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 107);
        // Overflow ranks still clamp to the last finite bound.
        assert_eq!(a.quantile(1.0), 2.0);
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let mut a = CycleHistogram::new(&[10]);
        a.observe(4);
        let before = (a.bucket_counts().to_vec(), a.sum(), a.count());
        a.merge(&CycleHistogram::new(&[10]));
        assert_eq!(
            (a.bucket_counts().to_vec(), a.sum(), a.count()),
            before,
            "merging an empty histogram must change nothing"
        );
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = CycleHistogram::new(&[1, 2]);
        a.merge(&CycleHistogram::new(&[1, 3]));
    }

    /// Runs `bus` for `cycles` cycles under a decoder-fed analyzer.
    fn analyze(bus: &mut AhbBus, n_masters: usize, cycles: u64) -> BusPerfAnalyzer {
        let mut decoder = PhaseDecoder::new(n_masters);
        let mut perf = BusPerfAnalyzer::new(n_masters);
        for _ in 0..cycles {
            let snap = bus.step();
            perf.observe(snap, &decoder.decode(snap));
        }
        perf.finish(decoder.finish());
        perf
    }

    fn run_analyzed(ops0: Vec<Op>, ops1: Vec<Op>, cycles: u64) -> BusPerfAnalyzer {
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
            .master(Box::new(ScriptedMaster::new(ops0)))
            .master(Box::new(ScriptedMaster::new(ops1)))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .build()
            .unwrap();
        analyze(&mut bus, 2, cycles)
    }

    #[test]
    fn transfers_attributed_to_data_phase_owner() {
        let perf = run_analyzed(
            vec![Op::write(0x0, 1), Op::read(0x0)],
            vec![Op::Idle(1), Op::write(0x1000, 2)],
            40,
        );
        assert_eq!(perf.master(0).transfers_ok, 2);
        assert_eq!(perf.master(1).transfers_ok, 1);
        assert_eq!(perf.cycles(), 40);
        assert!(perf.handovers() >= 2, "bus changed hands");
        assert!(perf.utilization() > 0.0 && perf.utilization() < 1.0);
        assert!(perf.handover_rate() > 0.0);
        let grants: u64 = perf.masters().iter().map(|m| m.grant_cycles).sum();
        assert_eq!(grants, 40, "every cycle has exactly one owner");
    }

    #[test]
    fn wait_states_counted_per_master() {
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(1, 0x1000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::write(0x0, 1),
                Op::write(0x4, 2),
            ])))
            .slave(Box::new(MemorySlave::new(0x1000, 2, 0)))
            .build()
            .unwrap();
        let perf = analyze(&mut bus, 1, 40);
        assert_eq!(perf.master(0).transfers_ok, 2);
        assert_eq!(perf.master(0).wait_cycles, 4, "2 wait states per write");
    }

    #[test]
    fn arbitration_latency_recorded_for_waiting_master() {
        // Master 1 requests while master 0 (higher priority) transfers:
        // its grant is delayed, producing a non-zero latency observation.
        let perf = run_analyzed(
            vec![
                Op::write(0x0, 1),
                Op::write(0x4, 2),
                Op::write(0x8, 3),
                Op::Idle(6),
            ],
            vec![Op::Idle(1), Op::write(0x1000, 9), Op::Idle(6)],
            60,
        );
        // Master 0 owns the bus from reset (default master) and never
        // waits; only master 1's delayed grant produces an observation.
        let h = perf.arbitration_latency();
        assert!(h.count() >= 1, "master 1 was eventually granted: {h:?}");
        assert!(h.sum() > 0, "master 1 waited for the bus: {h:?}");
        assert!(perf.master(1).request_wait_cycles > 0);
    }

    #[test]
    fn burst_lengths_land_in_buckets() {
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(1, 0x10000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::Burst {
                    write: true,
                    burst: HBurst::Incr4,
                    addr: 0x0,
                    data: vec![1, 2, 3, 4],
                    size: crate::types::HSize::Word,
                    busy_between: 0,
                },
                Op::Idle(2),
                Op::write(0x100, 7),
            ])))
            .slave(Box::new(MemorySlave::new(0x10000, 0, 0)))
            .build()
            .unwrap();
        let perf = analyze(&mut bus, 1, 40);
        let h = perf.burst_beats();
        assert_eq!(h.count(), 2, "one 4-beat burst + one single: {h:?}");
        assert_eq!(h.sum(), 5);
        // Bucket bounds are [1, 2, 4, 8, 16]: the single lands in <=1 and
        // the 4-beat burst in <=4.
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[2], 1);
    }

    #[test]
    fn burst_beats_are_counted_per_transaction_under_wait_states() {
        // One wait state on each NONSEQ beat holds the next address
        // phase for a second cycle; the histogram still sees one 4-beat
        // burst and one single.
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(1, 0x10000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::Burst {
                    write: true,
                    burst: HBurst::Incr4,
                    addr: 0x0,
                    data: vec![1, 2, 3, 4],
                    size: crate::types::HSize::Word,
                    busy_between: 0,
                },
                Op::write(0x100, 7),
            ])))
            .slave(Box::new(MemorySlave::new(0x10000, 1, 0)))
            .build()
            .unwrap();
        let perf = analyze(&mut bus, 1, 40);
        let h = perf.burst_beats();
        assert_eq!((h.count(), h.sum()), (2, 5), "{h:?}");
        assert_eq!(perf.master(0).transfers_ok, 5);
        assert_eq!(perf.master(0).wait_cycles, 2);
    }

    #[test]
    fn unknown_masters_grow_the_counters() {
        let mut decoder = PhaseDecoder::new(2);
        let mut perf = BusPerfAnalyzer::new(2);
        let mut snap = BusSnapshot {
            cycle: 0,
            haddr: 0,
            htrans: HTrans::NonSeq,
            hwrite: false,
            hsize: crate::types::HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: crate::types::HResp::Okay,
            hmaster: crate::types::MasterId(5),
            hmastlock: false,
            hbusreq: u32::MAX,
            hgrant: u32::MAX,
            hsel: 0b1,
        };
        for hmaster in [5, 200, 5] {
            snap.hmaster = crate::types::MasterId(hmaster);
            perf.observe(&snap, &decoder.decode(&snap));
            snap.cycle += 1;
        }
        perf.finish(decoder.finish());
        assert_eq!(perf.masters().len(), 201);
        assert_eq!(perf.master(5).grant_cycles, 2);
        assert_eq!(perf.master(200).transfers_ok, 1);
        assert_eq!(
            perf.master(31).request_wait_cycles,
            2,
            "bit 31 waited twice"
        );
    }

    #[test]
    fn empty_analyzer_rates_are_zero() {
        let perf = BusPerfAnalyzer::new(2);
        assert_eq!(perf.utilization(), 0.0);
        assert_eq!(perf.handover_rate(), 0.0);
        assert_eq!(perf.cycles(), 0);
        assert_eq!(perf.masters().len(), 2);
    }
}
