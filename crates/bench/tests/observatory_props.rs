//! Property tests for the power observatory's multi-resolution
//! retention: whatever window stream is ingested, the 10x and 100x
//! cascades must agree with an independent fold of the raw samples
//! (sum/min/max/count/last, energy conserved to 1e-9 relative),
//! eviction must keep the levels' spans aligned (coarser levels never
//! cover less history than raw), and the query step must select the
//! documented level.

use ahbpower::telemetry::{
    AnomalyEvent, Observatory, ObservatoryConfig, WindowVerdict, OBSERVATORY_LEVEL_FACTORS,
};
use ahbpower::BlockEnergy;
use proptest::prelude::*;

const WINDOW_CYCLES: u64 = 4;
const N_MASTERS: usize = 2;
const REL_TOL: f64 = 1e-9;

/// One synthetic raw window: per-cycle block energies attributed to
/// alternating masters, plus the verdict fields the detector would hand
/// over when closing it.
#[derive(Debug, Clone)]
struct RawWindow {
    cycles: Vec<(usize, BlockEnergy)>,
    measured_j: f64,
    predicted_j: f64,
    flagged: bool,
    txn_delta: u64,
}

fn raw_window_strategy() -> impl Strategy<Value = RawWindow> {
    (
        proptest::collection::vec(
            (
                0..N_MASTERS,
                (1u32..1000, 1u32..1000, 1u32..1000, 1u32..1000),
            ),
            1..=WINDOW_CYCLES as usize,
        ),
        1u32..1_000_000,
        1u32..1_000_000,
        any::<bool>(),
        0u64..50,
    )
        .prop_map(
            |(cycles, measured, predicted, flagged, txn_delta)| RawWindow {
                cycles: cycles
                    .into_iter()
                    .map(|(m, (dec, m2s, s2m, arb))| {
                        (
                            m,
                            BlockEnergy {
                                dec: dec as f64 * 1e-12,
                                m2s: m2s as f64 * 1e-12,
                                s2m: s2m as f64 * 1e-12,
                                arb: arb as f64 * 1e-12,
                            },
                        )
                    })
                    .collect(),
                measured_j: measured as f64 * 1e-9,
                predicted_j: predicted as f64 * 1e-9,
                flagged,
                txn_delta,
            },
        )
}

/// Feeds the windows through the real ingest path (the window's block
/// and per-master totals with a detector-style verdict) and returns the
/// observatory next to the per-series raw samples it should retain.
fn ingest(capacity: usize, windows: &[RawWindow]) -> (Observatory, Vec<Vec<f64>>) {
    let mut obs = Observatory::new(
        ObservatoryConfig::default().with_capacity(capacity),
        N_MASTERS,
        WINDOW_CYCLES,
    );
    let n_series = obs.series_names().len();
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); n_series];
    let mut txn_total = 0u64;
    let mut cycle = 0u64;
    for (w, win) in windows.iter().enumerate() {
        let start_cycle = cycle;
        let mut masters = [0.0f64; N_MASTERS];
        let mut blocks = BlockEnergy::default();
        for (m, e) in &win.cycles {
            masters[*m] += e.total();
            blocks += *e;
            cycle += 1;
        }
        txn_total += win.txn_delta;
        let flagged = win.flagged.then_some(AnomalyEvent {
            window: w as u64,
            start_cycle,
            measured_j: win.measured_j,
            predicted_j: win.predicted_j,
            deviation_pct: 10.0,
            z_score: 4.0,
        });
        obs.ingest(
            &WindowVerdict {
                window: w as u64,
                start_cycle,
                measured_j: win.measured_j,
                predicted_j: win.predicted_j,
                flagged,
                absorbed: !win.flagged,
            },
            blocks,
            &masters,
            txn_total,
        );
        raw[0].push(win.measured_j);
        raw[1].push(win.predicted_j);
        raw[2].push(win.txn_delta as f64);
        raw[3].push(if win.flagged { 1.0 } else { 0.0 });
        for (m, e) in masters.iter().enumerate() {
            raw[4 + m].push(*e);
        }
        raw[4 + N_MASTERS].push(blocks.dec);
        raw[5 + N_MASTERS].push(blocks.m2s);
        raw[6 + N_MASTERS].push(blocks.s2m);
        raw[7 + N_MASTERS].push(blocks.arb);
    }
    (obs, raw)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With no eviction, every bucket of every coarser level must equal
    /// the fold of the raw windows it covers, for every series.
    #[test]
    fn cascade_matches_raw_fold(
        windows in proptest::collection::vec(raw_window_strategy(), 1..120)
    ) {
        let (obs, raw) = ingest(256, &windows);
        let names: Vec<String> = obs.series_names().to_vec();
        for (s, name) in names.iter().enumerate() {
            for &factor in &OBSERVATORY_LEVEL_FACTORS {
                let q = obs
                    .query(name, 0, u64::MAX, factor)
                    .expect("known series answers");
                prop_assert_eq!(q.factor, factor);
                for p in &q.points {
                    let lo = p.start_window as usize;
                    let hi = (lo + factor as usize).min(raw[s].len());
                    let cover = &raw[s][lo..hi];
                    prop_assert_eq!(p.windows as usize, cover.len());
                    let sum: f64 = cover.iter().sum();
                    let min = cover.iter().cloned().fold(f64::INFINITY, f64::min);
                    let max = cover.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(
                        close(p.sum, sum),
                        "series {} factor {} bucket {}: sum {} vs fold {}",
                        name, factor, p.bucket, p.sum, sum
                    );
                    prop_assert!(close(p.min, min), "min drifted");
                    prop_assert!(close(p.max, max), "max drifted");
                    prop_assert!(close(p.last, cover[cover.len() - 1]), "last drifted");
                }
                // Full-range totals conserve energy across levels.
                let total: f64 = q.points.iter().map(|p| p.sum).sum();
                let expect: f64 = raw[s].iter().sum();
                prop_assert!(
                    close(total, expect),
                    "series {} factor {}: total {} vs raw {}",
                    name, factor, total, expect
                );
                let count: u64 = q.points.iter().map(|p| u64::from(p.windows)).sum();
                prop_assert_eq!(count, raw[s].len() as u64);
            }
        }
    }

    /// Under eviction the levels stay aligned: raw keeps exactly the
    /// last `capacity` windows, and every coarser level still covers at
    /// least raw's span (its oldest bucket starts at or before raw's
    /// oldest window, its newest at or after raw's newest).
    #[test]
    fn eviction_keeps_levels_aligned(
        windows in proptest::collection::vec(raw_window_strategy(), 40..200),
        capacity in 16usize..32
    ) {
        let (obs, raw) = ingest(capacity, &windows);
        let n = raw[0].len();
        let q_raw = obs.query("energy", 0, u64::MAX, 1).expect("raw");
        prop_assert_eq!(q_raw.points.len(), n.min(capacity));
        let raw_first = q_raw.points.first().expect("nonempty").start_window;
        let raw_last = q_raw.points.last().expect("nonempty").start_window;
        prop_assert_eq!(raw_first as usize, n - n.min(capacity));
        prop_assert_eq!(raw_last as usize, n - 1);
        // Raw retention is exact: the survivors are the newest windows.
        for p in &q_raw.points {
            prop_assert!(close(p.sum, raw[0][p.start_window as usize]));
        }
        for &factor in &OBSERVATORY_LEVEL_FACTORS[1..] {
            let q = obs.query("energy", 0, u64::MAX, factor).expect("level");
            let first = q.points.first().expect("coarse level nonempty");
            let last = q.points.last().expect("coarse level nonempty");
            prop_assert!(
                first.start_window <= raw_first,
                "factor {}: oldest bucket {} starts after raw's oldest {}",
                factor, first.start_window, raw_first
            );
            prop_assert!(
                last.start_window + factor > raw_last,
                "factor {}: newest bucket misses raw's newest window",
                factor
            );
            // The freshest sample agrees everywhere.
            prop_assert!(close(last.last, raw[0][n - 1]), "last sample drifted");
        }
    }

    /// The step parameter selects the coarsest level whose factor does
    /// not exceed it, exactly as documented.
    #[test]
    fn query_step_selects_documented_level(step in 0u64..10_000) {
        let want = if step >= 100 { 2 } else if step >= 10 { 1 } else { 0 };
        prop_assert_eq!(Observatory::select_level(step), want);
        let windows: Vec<RawWindow> = (0..25)
            .map(|i| RawWindow {
                cycles: vec![(i % N_MASTERS, BlockEnergy {
                    dec: 1e-12, m2s: 1e-12, s2m: 1e-12, arb: 1e-12,
                })],
                measured_j: 1e-9 * (i as f64 + 1.0),
                predicted_j: 1e-9,
                flagged: false,
                txn_delta: 1,
            })
            .collect();
        let (obs, _) = ingest(64, &windows);
        let q = obs.query("energy", 0, u64::MAX, step).expect("energy");
        prop_assert_eq!(q.level, want);
        prop_assert_eq!(q.factor, OBSERVATORY_LEVEL_FACTORS[want]);
        // Buckets come back in order.
        for pair in q.points.windows(2) {
            prop_assert!(pair[0].bucket < pair[1].bucket);
        }
    }
}
