//! Offline observatory queries: parse a `results/observatory.jsonl`
//! snapshot (written by `repro serve` on shutdown) and answer the same
//! range queries the live `GET /query` endpoint serves, rendering
//! byte-identical JSON. The shared renderer lives here so the two paths
//! cannot drift.

use ahbpower::telemetry::{json_num, Observatory, QueryResult, SeriesPoint};

use crate::json::{parse_json, JsonValue};

/// One retained bucket line of a snapshot, with every series' aggregate
/// arrays (parallel to [`ObservatorySnapshot::series`]).
#[derive(Debug, Clone, PartialEq)]
struct BucketLine {
    level: usize,
    factor: u64,
    bucket: u64,
    start_window: u64,
    start_cycle: u64,
    windows: u32,
    min: Vec<f64>,
    max: Vec<f64>,
    sum: Vec<f64>,
    last: Vec<f64>,
}

/// A parsed `observatory.jsonl` snapshot: the meta line plus every
/// retained bucket, queryable offline exactly like the live store.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservatorySnapshot {
    /// Cycles per raw window.
    pub window_cycles: u64,
    /// Ring capacity in buckets, per level.
    pub capacity: u64,
    /// Raw windows ingested when the snapshot was taken.
    pub windows: u64,
    /// Series names, in the store's stable order.
    pub series: Vec<String>,
    buckets: Vec<BucketLine>,
}

/// Pulls a required `u64` field out of a parsed object.
fn need_u64(doc: &JsonValue, key: &str, line: usize) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {line}: missing or non-integer \"{key}\""))
}

/// Pulls a required `f64` array field out of a parsed object
/// (`null` elements decode as NaN, mirroring the writer's encoding of
/// non-finite values).
fn need_f64_array(doc: &JsonValue, key: &str, n: usize, line: usize) -> Result<Vec<f64>, String> {
    let arr = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("line {line}: missing array \"{key}\""))?;
    if arr.len() != n {
        return Err(format!(
            "line {line}: \"{key}\" has {} entries, expected {n}",
            arr.len()
        ));
    }
    Ok(arr.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect())
}

/// Parses the two-shape JSONL snapshot [`Observatory::to_jsonl`] writes.
///
/// # Errors
///
/// A human-readable message naming the offending line when the meta
/// line is missing or any line fails to parse.
pub fn parse_observatory_snapshot(text: &str) -> Result<ObservatorySnapshot, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, meta_line) = lines.next().ok_or("empty snapshot")?;
    let meta = parse_json(meta_line).map_err(|e| format!("meta line: {e}"))?;
    if meta.get("kind").and_then(JsonValue::as_str) != Some("observatory") {
        return Err("meta line is not an observatory header".to_string());
    }
    let series: Vec<String> = meta
        .get("series")
        .and_then(JsonValue::as_array)
        .ok_or("meta line: missing series list")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "meta line: non-string series name".to_string())
        })
        .collect::<Result<_, _>>()?;
    let n = series.len();
    let mut snapshot = ObservatorySnapshot {
        window_cycles: need_u64(&meta, "window_cycles", 1)?,
        capacity: need_u64(&meta, "capacity", 1)?,
        windows: need_u64(&meta, "windows", 1)?,
        series,
        buckets: Vec::new(),
    };
    for (i, line) in lines {
        let lineno = i + 1;
        let doc = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        snapshot.buckets.push(BucketLine {
            level: need_u64(&doc, "level", lineno)? as usize,
            factor: need_u64(&doc, "factor", lineno)?.max(1),
            bucket: need_u64(&doc, "bucket", lineno)?,
            start_window: need_u64(&doc, "start_window", lineno)?,
            start_cycle: need_u64(&doc, "start_cycle", lineno)?,
            windows: need_u64(&doc, "windows", lineno)? as u32,
            min: need_f64_array(&doc, "min", n, lineno)?,
            max: need_f64_array(&doc, "max", n, lineno)?,
            sum: need_f64_array(&doc, "sum", n, lineno)?,
            last: need_f64_array(&doc, "last", n, lineno)?,
        });
    }
    Ok(snapshot)
}

impl ObservatorySnapshot {
    /// Answers a range query from the snapshot, with the same level
    /// selection and bucket filtering as [`Observatory::query`].
    /// `None` when the series is unknown.
    pub fn query(&self, series: &str, from: u64, to: u64, step: u64) -> Option<QueryResult> {
        let s = self.series.iter().position(|name| name == series)?;
        let level = Observatory::select_level(step);
        let mut points: Vec<SeriesPoint> = self
            .buckets
            .iter()
            .filter(|b| {
                b.level == level && b.bucket >= from / b.factor && b.bucket <= to / b.factor
            })
            .map(|b| SeriesPoint {
                bucket: b.bucket,
                start_window: b.start_window,
                start_cycle: b.start_cycle,
                windows: b.windows,
                min: b.min[s],
                max: b.max[s],
                sum: b.sum[s],
                last: b.last[s],
            })
            .collect();
        points.sort_unstable_by_key(|p| p.bucket);
        let factor = self
            .buckets
            .iter()
            .find(|b| b.level == level)
            .map_or_else(|| 10u64.pow(level as u32), |b| b.factor);
        Some(QueryResult {
            series: series.to_string(),
            level,
            factor,
            from,
            to,
            step,
            points,
        })
    }
}

/// Merges per-shard answers to one range query into a fleet-aggregate
/// result: buckets are matched by index, sums (`sum`, `windows`,
/// `last`) add, extrema (`min`, `max`) compose, and bucket provenance
/// (`start_window`, `start_cycle`) keeps the earliest shard's origin.
/// This is the composition the cascade itself uses when folding raw
/// windows into coarser rings, so a merged `energy` total is exactly
/// the sum of the per-shard totals. `None` when no shard recognized
/// the series.
pub fn merge_query_results(results: Vec<QueryResult>) -> Option<QueryResult> {
    use std::collections::BTreeMap;
    let mut iter = results.into_iter();
    let first = iter.next()?;
    let mut merged: BTreeMap<u64, SeriesPoint> = BTreeMap::new();
    let meta = QueryResult {
        points: Vec::new(),
        ..first.clone()
    };
    for q in std::iter::once(first).chain(iter) {
        debug_assert_eq!(q.level, meta.level, "shards answered at different levels");
        for p in q.points {
            match merged.entry(p.bucket) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(p);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let m = e.get_mut();
                    m.start_window = m.start_window.min(p.start_window);
                    m.start_cycle = m.start_cycle.min(p.start_cycle);
                    m.windows += p.windows;
                    m.min = nan_min(m.min, p.min);
                    m.max = nan_max(m.max, p.max);
                    m.sum += p.sum;
                    m.last += p.last;
                }
            }
        }
    }
    Some(QueryResult {
        points: merged.into_values().collect(),
        ..meta
    })
}

/// `min` that ignores NaN operands (NaN encodes "no data" here).
fn nan_min(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (true, _) => b,
        (_, true) => a,
        _ => a.min(b),
    }
}

/// `max` that ignores NaN operands (NaN encodes "no data" here).
fn nan_max(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (true, _) => b,
        (_, true) => a,
        _ => a.max(b),
    }
}

/// Renders a query answer as the `/query` endpoint's JSON document —
/// the one renderer both the live route and `repro query` use.
pub fn query_result_json(q: &QueryResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96 + 128 * q.points.len());
    let _ = write!(
        out,
        "{{\"series\":\"{}\",\"level\":{},\"factor\":{},\"from\":{},\"to\":{},\"step\":{},\"points\":[",
        q.series, q.level, q.factor, q.from, q.to, q.step
    );
    for (i, p) in q.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"bucket\":{},\"start_window\":{},\"start_cycle\":{},\"windows\":{},\"min\":{},\"max\":{},\"sum\":{},\"last\":{}}}",
            p.bucket,
            p.start_window,
            p.start_cycle,
            p.windows,
            json_num(p.min),
            json_num(p.max),
            json_num(p.sum),
            json_num(p.last)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use ahbpower::telemetry::{ObservatoryConfig, WindowVerdict};
    use ahbpower::BlockEnergy;

    /// A live store fed `n` synthetic windows, for round-trip tests.
    fn live(n: u64) -> Observatory {
        let mut obs = Observatory::new(ObservatoryConfig::default().with_capacity(16), 2, 50);
        for w in 0..n {
            let per_cycle = 1.0e-12 * (1.0 + (w % 5) as f64);
            let e = BlockEnergy {
                dec: per_cycle * 0.25,
                m2s: per_cycle * 0.25,
                s2m: per_cycle * 0.25,
                arb: per_cycle * 0.25,
            };
            let mut blocks = BlockEnergy::default();
            let mut masters = [0.0; 2];
            for c in 0..50usize {
                blocks += e;
                masters[c % 2] += e.total();
            }
            let measured = per_cycle * 50.0;
            obs.ingest(
                &WindowVerdict {
                    window: w,
                    start_cycle: w * 50,
                    measured_j: measured,
                    predicted_j: measured,
                    flagged: None,
                    absorbed: true,
                },
                blocks,
                &masters,
                w * 3,
            );
        }
        obs
    }

    #[test]
    fn snapshot_round_trips_live_queries() {
        let obs = live(35);
        let snap = parse_observatory_snapshot(&obs.to_jsonl()).expect("snapshot parses");
        assert_eq!(snap.windows, 35);
        assert_eq!(snap.window_cycles, 50);
        assert_eq!(snap.series, obs.series_names());
        for (series, step) in [
            ("energy", 1),
            ("energy", 10),
            ("energy", 100),
            ("txns", 1),
            ("master:1", 10),
            ("block:arb", 100),
        ] {
            let a = obs.query(series, 0, 40, step).expect("live query");
            let b = snap.query(series, 0, 40, step).expect("offline query");
            assert_eq!(a, b, "series {series} step {step}");
            assert_eq!(
                query_result_json(&a),
                query_result_json(&b),
                "rendered JSON must match"
            );
        }
    }

    #[test]
    fn rendered_query_json_validates_and_parses() {
        let obs = live(12);
        let q = obs.query("energy", 0, 20, 10).expect("known series");
        let doc = query_result_json(&q);
        validate_json(&doc).expect("query JSON validates");
        let parsed = parse_json(&doc).expect("query JSON parses");
        assert_eq!(
            parsed.get("series").and_then(JsonValue::as_str),
            Some("energy")
        );
        assert_eq!(parsed.get("level").and_then(JsonValue::as_u64), Some(1));
        let points = parsed
            .get("points")
            .and_then(JsonValue::as_array)
            .expect("points array");
        assert_eq!(points.len(), 2, "12 windows span two 10x buckets");
        assert_eq!(
            points[0].get("windows").and_then(JsonValue::as_u64),
            Some(10)
        );
    }

    #[test]
    fn merge_sums_and_composes_extrema() {
        let a = live(15);
        let b = live(25);
        let qa = a.query("energy", 0, 40, 1).expect("shard a");
        let qb = b.query("energy", 0, 40, 1).expect("shard b");
        let total_a: f64 = qa.points.iter().map(|p| p.sum).sum();
        let total_b: f64 = qb.points.iter().map(|p| p.sum).sum();
        let merged = merge_query_results(vec![qa.clone(), qb.clone()]).expect("merge");
        let total_m: f64 = merged.points.iter().map(|p| p.sum).sum();
        assert!(
            (total_m - (total_a + total_b)).abs() <= 1e-9 * total_m.abs().max(1.0),
            "merged energy {total_m} != {total_a} + {total_b}"
        );
        // Buckets both shards answered compose pointwise; shard b's
        // extra buckets pass through unchanged.
        for p in &merged.points {
            let pa = qa.points.iter().find(|q| q.bucket == p.bucket);
            let pb = qb.points.iter().find(|q| q.bucket == p.bucket);
            match (pa, pb) {
                (Some(x), Some(y)) => {
                    assert_eq!(p.windows, x.windows + y.windows);
                    assert_eq!(p.min, x.min.min(y.min));
                    assert_eq!(p.max, x.max.max(y.max));
                    assert_eq!(p.last, x.last + y.last);
                }
                (Some(x), None) | (None, Some(x)) => assert_eq!(p, x),
                (None, None) => panic!("bucket {} from nowhere", p.bucket),
            }
        }
        // Bucket order stays sorted and the metadata survives.
        assert!(merged.points.windows(2).all(|w| w[0].bucket < w[1].bucket));
        assert_eq!(merged.series, "energy");
        assert_eq!(merged.level, qa.level);
    }

    #[test]
    fn merge_of_single_result_is_identity_and_empty_is_none() {
        let q = live(8).query("txns", 0, 10, 1).expect("query");
        assert_eq!(merge_query_results(vec![q.clone()]), Some(q));
        assert_eq!(merge_query_results(Vec::new()), None);
    }

    #[test]
    fn unknown_series_and_garbage_are_rejected() {
        let obs = live(5);
        let snap = parse_observatory_snapshot(&obs.to_jsonl()).expect("snapshot parses");
        assert!(snap.query("nope", 0, 10, 1).is_none());
        assert!(parse_observatory_snapshot("").is_err());
        assert!(parse_observatory_snapshot("{\"kind\":\"other\"}").is_err());
        assert!(parse_observatory_snapshot("not json at all").is_err());
    }
}
