//! The power observatory: bounded, multi-resolution retention of the
//! per-window power history — the paper's primary artifact — so hours
//! of serve time stay queryable in a fixed memory budget.
//!
//! Every closed detection window contributes one raw sample per series
//! (total energy, predicted baseline, per-master and per-block energy,
//! transaction count, anomaly flag). Raw samples cascade into 10× and
//! 100× downsampled rings, each bucket carrying `{min, max, sum, count,
//! last}` aggregates. A raw value is folded into all three levels at
//! ingest, in the same order, so sums agree across levels to float
//! rounding (the workspace pins 1e-9 relative) and coarser levels always
//! retain at least as much history as finer ones.
//!
//! The observatory sees no cycles: [`crate::telemetry::Telemetry`] books
//! each window into its window book and hands the closed window over as
//! plain values. The ingest path ([`Observatory::ingest`]) is
//! allocation-free: all ring storage is preallocated flat arrays, and a
//! window touches a constant number of slots (one per level).
//! Queries ([`Observatory::query`]) and snapshots
//! ([`Observatory::to_jsonl`]) allocate freely — they run on the serve
//! HTTP thread or offline, never in the simulation hot loop.

use std::fmt::Write as _;

use super::anomaly::WindowVerdict;
use super::export::json_num;
use crate::macromodel::BlockEnergy;
use crate::model::SubBlock;

/// Downsampling factor of each retention level: raw, 10×, 100×.
pub const OBSERVATORY_LEVEL_FACTORS: [u64; 3] = [1, 10, 100];

/// Default ring capacity (buckets per level). At the default 1 000-cycle
/// window this retains ~1M cycles raw, ~10M at 10× and ~100M at 100×.
pub const DEFAULT_OBSERVATORY_CAPACITY: usize = 1_024;

/// The fixed scalar series every observatory carries, ahead of the
/// per-master and per-block series.
const FIXED_SERIES: [&str; 4] = ["energy", "predicted", "txns", "anomalies"];

/// Sentinel bucket id marking an empty ring slot.
const EMPTY: u64 = u64::MAX;

/// Tuning knobs for the [`Observatory`]. The window length is not here:
/// it is inherited from the anomaly detector's window (or the default)
/// by [`crate::telemetry::Telemetry`], so window ids line up across the
/// detector, the event ring and the observatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservatoryConfig {
    /// Ring capacity in buckets, per level (clamped to ≥ 16).
    pub capacity: usize,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig {
            capacity: DEFAULT_OBSERVATORY_CAPACITY,
        }
    }
}

impl ObservatoryConfig {
    /// Sets the per-level ring capacity (clamped to ≥ 16).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(16);
        self
    }
}

/// One retention level: `capacity` bucket slots, each aggregating
/// `factor` consecutive raw windows across every series. Aggregate
/// arrays are flat (`slot * n_series + series`) so the whole level is a
/// handful of contiguous allocations made once at construction.
#[derive(Debug, Clone, PartialEq)]
struct Level {
    factor: u64,
    /// Bucket id per slot ([`EMPTY`] when the slot has never been used).
    ids: Vec<u64>,
    /// Raw windows folded into the slot so far.
    windows: Vec<u32>,
    /// First cycle of the bucket's first ingested window.
    start_cycle: Vec<u64>,
    min: Vec<f64>,
    max: Vec<f64>,
    sum: Vec<f64>,
    last: Vec<f64>,
    /// Buckets ever opened (the downsample-cascade counter; buckets
    /// beyond `capacity` evicted an older one).
    opened: u64,
}

impl Level {
    fn new(factor: u64, capacity: usize, n_series: usize) -> Self {
        Level {
            factor,
            ids: vec![EMPTY; capacity],
            windows: vec![0; capacity],
            start_cycle: vec![0; capacity],
            min: vec![0.0; capacity * n_series],
            max: vec![0.0; capacity * n_series],
            sum: vec![0.0; capacity * n_series],
            last: vec![0.0; capacity * n_series],
            opened: 0,
        }
    }

    /// Occupied slots (equals `opened.min(capacity)` by construction,
    /// but counted directly so the invariant is checkable).
    fn occupancy(&self) -> usize {
        self.ids.iter().filter(|&&id| id != EMPTY).count()
    }
}

/// One bucket of one series, as returned by [`Observatory::query`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Bucket id at the selected level (`start_window / factor`).
    pub bucket: u64,
    /// First raw window the bucket covers (`bucket * factor`).
    pub start_window: u64,
    /// First cycle of the bucket's first ingested window.
    pub start_cycle: u64,
    /// Raw windows folded into the bucket so far.
    pub windows: u32,
    /// Minimum raw sample in the bucket.
    pub min: f64,
    /// Maximum raw sample in the bucket.
    pub max: f64,
    /// Sum of the raw samples in the bucket.
    pub sum: f64,
    /// Most recent raw sample in the bucket.
    pub last: f64,
}

/// A range query's answer: the resolution that was selected and the
/// retained buckets overlapping the requested window range, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The series queried.
    pub series: String,
    /// Selected level index (0 = raw).
    pub level: usize,
    /// The level's downsampling factor.
    pub factor: u64,
    /// The requested range, echoed back.
    pub from: u64,
    /// Inclusive upper bound of the requested range.
    pub to: u64,
    /// The requested step, echoed back.
    pub step: u64,
    /// Retained buckets overlapping `[from, to]`, in bucket order.
    pub points: Vec<SeriesPoint>,
}

/// The multi-resolution time-series store. See the module docs for the
/// retention model; see [`crate::telemetry::Telemetry`] for how the
/// session feeds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observatory {
    capacity: usize,
    window_cycles: u64,
    n_masters: usize,
    series: Vec<String>,
    levels: Vec<Level>,
    windows_ingested: u64,
    last_txn_total: u64,
    /// Preallocated per-series scratch the close path writes the
    /// window's samples into before folding them into the levels.
    sample: Vec<f64>,
}

impl Observatory {
    /// Creates an observatory for a bus with `n_masters` masters, whose
    /// raw resolution is one sample per `window_cycles` cycles.
    pub fn new(cfg: ObservatoryConfig, n_masters: usize, window_cycles: u64) -> Self {
        let capacity = cfg.capacity.max(16);
        let mut series: Vec<String> = FIXED_SERIES.iter().map(|s| s.to_string()).collect();
        for m in 0..n_masters {
            series.push(format!("master:{m}"));
        }
        for b in SubBlock::ALL {
            series.push(format!("block:{}", b.name()));
        }
        let n_series = series.len();
        let levels = OBSERVATORY_LEVEL_FACTORS
            .iter()
            .map(|&f| Level::new(f, capacity, n_series))
            .collect();
        Observatory {
            capacity,
            window_cycles: window_cycles.max(1),
            n_masters,
            series,
            levels,
            windows_ingested: 0,
            last_txn_total: 0,
            sample: vec![0.0; n_series],
        }
    }

    /// The ring capacity in buckets, per level.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cycles per raw window.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Every series name, in stable order: the fixed scalars, then
    /// `master:<i>`, then `block:<name>`.
    pub fn series_names(&self) -> &[String] {
        &self.series
    }

    /// Index of `name` in [`Observatory::series_names`].
    pub fn series_index(&self, name: &str) -> Option<usize> {
        self.series.iter().position(|s| s == name)
    }

    /// Raw windows ingested so far.
    pub fn windows_ingested(&self) -> u64 {
        self.windows_ingested
    }

    /// Occupied bucket slots at `level` (0 = raw).
    pub fn occupancy(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, Level::occupancy)
    }

    /// Buckets ever opened at `level` — the downsample-cascade counter
    /// for levels > 0.
    pub fn cascades(&self, level: usize) -> u64 {
        self.levels.get(level).map_or(0, |l| l.opened)
    }

    /// Ingests the raw sample of one closed window: the verdict's
    /// measured and predicted energy and flag, the window's per-block
    /// totals `blocks`, its per-master energy `masters` (index = master;
    /// missing slots read as zero) and `txn_total`, the session's
    /// cumulative completed-transaction count, which the observatory
    /// differences into a per-window count. Folds the sample into all
    /// three levels. Allocation-free; constant work per window.
    pub fn ingest(
        &mut self,
        v: &WindowVerdict,
        blocks: BlockEnergy,
        masters: &[f64],
        txn_total: u64,
    ) {
        let txns = txn_total.saturating_sub(self.last_txn_total);
        self.last_txn_total = txn_total;
        self.sample[0] = v.measured_j;
        self.sample[1] = v.predicted_j;
        self.sample[2] = txns as f64;
        self.sample[3] = if v.flagged.is_some() { 1.0 } else { 0.0 };
        let mut s = FIXED_SERIES.len();
        for m in 0..self.n_masters {
            self.sample[s] = masters.get(m).copied().unwrap_or(0.0);
            s += 1;
        }
        self.sample[s] = blocks.dec;
        self.sample[s + 1] = blocks.m2s;
        self.sample[s + 2] = blocks.s2m;
        self.sample[s + 3] = blocks.arb;

        let n_series = self.sample.len();
        let capacity = self.capacity as u64;
        let sample = &self.sample;
        for level in &mut self.levels {
            let bucket = v.window / level.factor;
            let slot = (bucket % capacity) as usize;
            let base = slot * n_series;
            if level.ids[slot] != bucket {
                level.ids[slot] = bucket;
                level.windows[slot] = 0;
                level.start_cycle[slot] = v.start_cycle;
                level.opened += 1;
                for x in 0..n_series {
                    level.min[base + x] = f64::INFINITY;
                    level.max[base + x] = f64::NEG_INFINITY;
                    level.sum[base + x] = 0.0;
                    level.last[base + x] = 0.0;
                }
            }
            level.windows[slot] += 1;
            for (x, &value) in sample.iter().enumerate() {
                let i = base + x;
                if value < level.min[i] {
                    level.min[i] = value;
                }
                if value > level.max[i] {
                    level.max[i] = value;
                }
                level.sum[i] += value;
                level.last[i] = value;
            }
        }

        self.windows_ingested += 1;
    }

    /// The level a query at `step` (raw windows per point) resolves to:
    /// the coarsest level whose factor does not exceed `step`. `step`
    /// 0 or 1 selects raw; 10–99 selects 10×; ≥ 100 selects 100×.
    pub fn select_level(step: u64) -> usize {
        let step = step.max(1);
        let mut chosen = 0;
        for (i, &f) in OBSERVATORY_LEVEL_FACTORS.iter().enumerate() {
            if f <= step {
                chosen = i;
            }
        }
        chosen
    }

    /// Answers a range query: all retained buckets of `series`
    /// overlapping raw windows `[from, to]`, at the resolution
    /// [`Observatory::select_level`] picks for `step`. `None` when the
    /// series is unknown.
    pub fn query(&self, series: &str, from: u64, to: u64, step: u64) -> Option<QueryResult> {
        let s = self.series_index(series)?;
        let level_idx = Self::select_level(step);
        let level = &self.levels[level_idx];
        let first = from / level.factor;
        let last = to / level.factor;
        let n_series = self.series.len();
        let mut hits: Vec<(u64, usize)> = level
            .ids
            .iter()
            .enumerate()
            .filter_map(|(slot, &id)| {
                (id != EMPTY && id >= first && id <= last).then_some((id, slot))
            })
            .collect();
        hits.sort_unstable();
        let points = hits
            .into_iter()
            .map(|(bucket, slot)| {
                let i = slot * n_series + s;
                SeriesPoint {
                    bucket,
                    start_window: bucket * level.factor,
                    start_cycle: level.start_cycle[slot],
                    windows: level.windows[slot],
                    min: level.min[i],
                    max: level.max[i],
                    sum: level.sum[i],
                    last: level.last[i],
                }
            })
            .collect();
        Some(QueryResult {
            series: series.to_string(),
            level: level_idx,
            factor: level.factor,
            from,
            to,
            step,
            points,
        })
    }

    /// Renders the full retained state as JSONL: a meta line naming the
    /// series and factors, then one line per retained bucket with the
    /// per-series aggregate arrays in series order. This is the
    /// `results/observatory.jsonl` snapshot format `repro query` reads.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"kind\":\"observatory\",\"version\":1,\"window_cycles\":{},\"capacity\":{},\"windows\":{},\"factors\":[",
            self.window_cycles, self.capacity, self.windows_ingested
        );
        for (i, f) in OBSERVATORY_LEVEL_FACTORS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{f}");
        }
        out.push_str("],\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{s}\"");
        }
        out.push_str("]}\n");
        let n_series = self.series.len();
        for (li, level) in self.levels.iter().enumerate() {
            let mut hits: Vec<(u64, usize)> = level
                .ids
                .iter()
                .enumerate()
                .filter_map(|(slot, &id)| (id != EMPTY).then_some((id, slot)))
                .collect();
            hits.sort_unstable();
            for (bucket, slot) in hits {
                let _ = write!(
                    out,
                    "{{\"level\":{li},\"factor\":{},\"bucket\":{bucket},\"start_window\":{},\"start_cycle\":{},\"windows\":{}",
                    level.factor,
                    bucket * level.factor,
                    level.start_cycle[slot],
                    level.windows[slot]
                );
                let base = slot * n_series;
                for (key, arr) in [
                    ("min", &level.min),
                    ("max", &level.max),
                    ("sum", &level.sum),
                    ("last", &level.last),
                ] {
                    let _ = write!(out, ",\"{key}\":[");
                    for x in 0..n_series {
                        if x > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_num(arr[base + x]));
                    }
                    out.push(']');
                }
                out.push_str("}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny observatory fed synthetic verdicts: 2 masters, 100-cycle
    /// windows, 16-bucket rings.
    fn small() -> Observatory {
        Observatory::new(ObservatoryConfig::default().with_capacity(16), 2, 100)
    }

    /// Books `cycles` cycles of energy `e` into per-block and per-master
    /// window totals, the owner alternating over `n_masters` masters.
    fn book_window(cycles: u64, e: BlockEnergy, n_masters: usize) -> (BlockEnergy, Vec<f64>) {
        let mut blocks = BlockEnergy::default();
        let mut masters = vec![0.0; n_masters];
        for c in 0..cycles {
            blocks += e;
            masters[c as usize % n_masters] += e.total();
        }
        (blocks, masters)
    }

    /// Feeds one full window of uniform per-cycle energy and closes it
    /// through the detector-verdict path.
    fn feed_window(obs: &mut Observatory, w: u64, per_cycle: f64, flagged: bool, txn_total: u64) {
        let e = BlockEnergy {
            dec: per_cycle * 0.1,
            m2s: per_cycle * 0.4,
            s2m: per_cycle * 0.3,
            arb: per_cycle * 0.2,
        };
        let (blocks, masters) = book_window(100, e, 2);
        let measured = per_cycle * 100.0;
        let v = WindowVerdict {
            window: w,
            start_cycle: w * 100,
            measured_j: measured,
            predicted_j: measured * 0.99,
            flagged: flagged.then(|| crate::telemetry::AnomalyEvent {
                window: w,
                start_cycle: w * 100,
                measured_j: measured,
                predicted_j: measured * 0.99,
                deviation_pct: 10.0,
                z_score: 9.0,
            }),
            absorbed: !flagged,
        };
        obs.ingest(&v, blocks, &masters, txn_total);
    }

    #[test]
    fn series_layout_is_stable() {
        let obs = small();
        assert_eq!(
            obs.series_names(),
            &[
                "energy",
                "predicted",
                "txns",
                "anomalies",
                "master:0",
                "master:1",
                "block:dec",
                "block:m2s",
                "block:s2m",
                "block:arb"
            ]
        );
        assert_eq!(obs.series_index("energy"), Some(0));
        assert_eq!(obs.series_index("block:arb"), Some(9));
        assert_eq!(obs.series_index("bogus"), None);
    }

    #[test]
    fn level_selection_is_coarsest_not_exceeding_step() {
        assert_eq!(Observatory::select_level(0), 0);
        assert_eq!(Observatory::select_level(1), 0);
        assert_eq!(Observatory::select_level(9), 0);
        assert_eq!(Observatory::select_level(10), 1);
        assert_eq!(Observatory::select_level(99), 1);
        assert_eq!(Observatory::select_level(100), 2);
        assert_eq!(Observatory::select_level(u64::MAX), 2);
    }

    #[test]
    fn energy_is_conserved_across_levels() {
        let mut obs = small();
        let mut txns = 0;
        for w in 0..10 {
            txns += 7;
            feed_window(&mut obs, w, 1.0e-12 * (w + 1) as f64, false, txns);
        }
        let raw = obs.query("energy", 0, 9, 1).expect("known series");
        assert_eq!(raw.level, 0);
        assert_eq!(raw.points.len(), 10);
        let raw_sum: f64 = raw.points.iter().map(|p| p.sum).sum();
        let l1 = obs.query("energy", 0, 9, 10).expect("known series");
        assert_eq!(l1.level, 1);
        assert_eq!(l1.points.len(), 1, "10 raw windows fill one 10x bucket");
        assert_eq!(l1.points[0].windows, 10);
        assert!((l1.points[0].sum - raw_sum).abs() <= 1e-9 * raw_sum.abs());
        let l2 = obs.query("energy", 0, 9, 100).expect("known series");
        assert_eq!(l2.level, 2);
        assert!((l2.points[0].sum - raw_sum).abs() <= 1e-9 * raw_sum.abs());
        // Min/max bracket the raw extremes exactly (same comparisons).
        let raw_min = raw
            .points
            .iter()
            .map(|p| p.min)
            .fold(f64::INFINITY, f64::min);
        let raw_max = raw
            .points
            .iter()
            .map(|p| p.max)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(l1.points[0].min, raw_min);
        assert_eq!(l1.points[0].max, raw_max);
        // txns differenced into per-window counts: 7 each, 70 total.
        let t = obs.query("txns", 0, 9, 100).expect("known series");
        assert_eq!(t.points[0].sum, 70.0);
    }

    #[test]
    fn anomaly_flags_and_masters_flow_into_series() {
        let mut obs = small();
        feed_window(&mut obs, 0, 2.0e-12, false, 3);
        feed_window(&mut obs, 1, 2.0e-12, true, 6);
        let a = obs.query("anomalies", 0, 1, 1).expect("known series");
        assert_eq!(a.points.len(), 2);
        assert_eq!(a.points[0].sum, 0.0);
        assert_eq!(a.points[1].sum, 1.0);
        // Both masters saw 50 cycles each of the uniform energy.
        let m0 = obs.query("master:0", 0, 1, 1).expect("known series");
        let m1 = obs.query("master:1", 0, 1, 1).expect("known series");
        assert!(m0.points[0].sum > 0.0);
        assert_eq!(m0.points[0].sum, m1.points[0].sum);
        // Block split sums back to the energy total.
        let total: f64 = ["block:dec", "block:m2s", "block:s2m", "block:arb"]
            .iter()
            .map(|s| obs.query(s, 0, 0, 1).expect("known series").points[0].sum)
            .sum();
        let e = obs.query("energy", 0, 0, 1).expect("known series");
        assert!((total - e.points[0].sum).abs() <= 1e-9 * e.points[0].sum);
    }

    #[test]
    fn eviction_keeps_coarser_levels_covering_raw() {
        let mut obs = small();
        // 40 windows into 16 raw slots: raw retains the last 16 windows,
        // 10x retains buckets 0..=3 (all fit), 100x one bucket.
        for w in 0..40 {
            feed_window(&mut obs, w, 1.0e-12, false, w * 5);
        }
        assert_eq!(obs.windows_ingested(), 40);
        assert_eq!(obs.occupancy(0), 16);
        assert_eq!(obs.occupancy(1), 4);
        assert_eq!(obs.occupancy(2), 1);
        assert_eq!(obs.cascades(0), 40);
        assert_eq!(obs.cascades(1), 4);
        assert_eq!(obs.cascades(2), 1);
        let raw = obs.query("energy", 0, 39, 1).expect("known series");
        assert_eq!(raw.points.len(), 16);
        assert_eq!(raw.points[0].start_window, 24, "oldest evicted");
        // Every retained raw window is covered by a retained 10x bucket.
        let l1 = obs.query("energy", 0, 39, 10).expect("known series");
        for p in &raw.points {
            assert!(
                l1.points
                    .iter()
                    .any(|b| b.start_window <= p.start_window
                        && p.start_window < b.start_window + 10),
                "raw window {} uncovered at 10x",
                p.start_window
            );
        }
    }

    #[test]
    fn plain_window_close_matches_detectorless_sessions() {
        let mut obs = small();
        let e = BlockEnergy {
            dec: 1.0e-13,
            m2s: 1.0e-13,
            s2m: 1.0e-13,
            arb: 1.0e-13,
        };
        let (blocks, masters) = book_window(100, e, 1);
        let v = WindowVerdict::unjudged(0, 0, blocks.total());
        obs.ingest(&v, blocks, &masters, 4);
        assert_eq!(obs.windows_ingested(), 1);
        let q = obs.query("energy", 0, 0, 1).expect("known series");
        assert_eq!(q.points.len(), 1);
        // Predicted mirrors measured without a detector.
        let p = obs.query("predicted", 0, 0, 1).expect("known series");
        assert_eq!(q.points[0].sum, p.points[0].sum);
        assert_eq!(
            obs.query("txns", 0, 0, 1).expect("known series").points[0].sum,
            4.0
        );
    }

    #[test]
    fn jsonl_snapshot_has_meta_and_bucket_lines() {
        let mut obs = small();
        for w in 0..3 {
            feed_window(&mut obs, w, 1.5e-12, false, w + 1);
        }
        let out = obs.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("{\"kind\":\"observatory\",\"version\":1"));
        assert!(lines[0].contains("\"factors\":[1,10,100]"));
        assert!(lines[0].contains("\"series\":[\"energy\",\"predicted\""));
        // 3 raw buckets + 1 at 10x + 1 at 100x.
        assert_eq!(lines.len(), 1 + 3 + 1 + 1);
        assert!(lines[1].contains("\"level\":0,\"factor\":1,\"bucket\":0"));
        assert!(lines.last().expect("bucket lines").contains("\"level\":2"));
    }

    #[test]
    fn query_range_filters_buckets() {
        let mut obs = small();
        for w in 0..12 {
            feed_window(&mut obs, w, 1.0e-12, false, 0);
        }
        let q = obs.query("energy", 3, 5, 1).expect("known series");
        assert_eq!(
            q.points.iter().map(|p| p.start_window).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        let empty = obs.query("energy", 100, 200, 1).expect("known series");
        assert!(empty.points.is_empty());
        assert!(obs.query("nope", 0, 10, 1).is_none());
    }
}
