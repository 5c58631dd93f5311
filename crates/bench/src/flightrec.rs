//! The anomaly flight recorder: atomically dumped post-mortem bundles.
//!
//! Whenever the serve worker drains an [`EventKind::AnomalyFlagged`]
//! event — and once on `/quit` or on a panic inside a slice — a bundle
//! capturing the moment is written to `results/flightrec/`: the flagged
//! window's anomaly record, the detector's residual statistics, the
//! surrounding raw observatory windows, the last events from the ring
//! and the causal chain (`AnomalyFlagged` → `EnergyBooked` →
//! `TxnComplete`, joined on window ids). Bundles are validated through
//! the workspace JSON checker and written via the same atomic
//! tmp+rename path as every other artifact, so a crash mid-dump never
//! leaves a torn file.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use ahbpower::telemetry::{json_num, AnomalyEvent, DetectorState, Event, EventKind, Observatory};

use crate::baseline::write_atomic;
use crate::json::validate_json;

/// How many trailing ring events a bundle retains.
pub const FLIGHTREC_EVENT_CONTEXT: usize = 256;

/// Raw observatory windows captured on each side of the bundle window.
pub const FLIGHTREC_WINDOW_CONTEXT: u64 = 8;

/// Ceiling on bundles per recorder (a runaway fault storm must not fill
/// the disk); later triggers are counted but not written.
pub const FLIGHTREC_MAX_BUNDLES: usize = 32;

/// Ceiling on events per causal-chain section of a bundle (newest kept).
pub const FLIGHTREC_CAUSAL_CAP: usize = 64;

/// Writes post-mortem bundles into
/// `<results>/flightrec/shard-<N>/`, one JSON document per trigger,
/// deduplicated by `(shard, window, reason)`.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    shard: u64,
    written: HashSet<(u64, String)>,
    suppressed: u64,
}

impl FlightRecorder {
    /// Creates a shard-0 recorder (the single-shard spelling of
    /// [`FlightRecorder::for_shard`]).
    pub fn new(results_dir: &Path) -> Self {
        FlightRecorder::for_shard(results_dir, 0)
    }

    /// Creates a recorder for one serve shard. Bundles land in
    /// `results_dir/flightrec/shard-<shard>` (created lazily on the
    /// first write) and carry a `shard` field, so a multi-shard plane's
    /// recorders never collide on disk or in the dedup key.
    pub fn for_shard(results_dir: &Path, shard: u64) -> Self {
        FlightRecorder {
            dir: results_dir.join("flightrec").join(format!("shard-{shard}")),
            shard,
            written: HashSet::new(),
            suppressed: 0,
        }
    }

    /// The bundle directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard whose bundles this recorder writes.
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// Bundles written so far.
    pub fn bundles(&self) -> usize {
        self.written.len()
    }

    /// Triggers dropped by the [`FLIGHTREC_MAX_BUNDLES`] ceiling.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Dumps one bundle. `reason` is `"anomaly"`, `"quit"` or
    /// `"panic"`; `window` anchors the file name and the causal joins;
    /// `events` is the (already-drained) event log the context and
    /// causal sections are cut from. Returns the path written, or
    /// `None` when the bundle was deduplicated or rate-capped.
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write, or `InvalidData` if the
    /// rendered bundle fails the workspace JSON self-check.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        reason: &str,
        window: u64,
        slice: u64,
        anomaly: Option<&AnomalyEvent>,
        detector: Option<&DetectorState>,
        observatory: Option<&Observatory>,
        events: &[Event],
    ) -> io::Result<Option<PathBuf>> {
        let file = if reason == "anomaly" {
            format!("{window}.json")
        } else {
            format!("{window}-{reason}.json")
        };
        let key = (self.shard, file.clone());
        if self.written.contains(&key) {
            return Ok(None);
        }
        if self.written.len() >= FLIGHTREC_MAX_BUNDLES {
            self.suppressed += 1;
            return Ok(None);
        }
        let body = render_bundle(
            reason,
            self.shard,
            window,
            slice,
            anomaly,
            detector,
            observatory,
            events,
        );
        validate_json(&body).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("flight-recorder bundle invalid: {e}"),
            )
        })?;
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(&file);
        write_atomic(&path, &body)?;
        self.written.insert(key);
        Ok(Some(path))
    }
}

/// Renders the bundle document; see the module docs for the layout.
#[allow(clippy::too_many_arguments)]
fn render_bundle(
    reason: &str,
    shard: u64,
    window: u64,
    slice: u64,
    anomaly: Option<&AnomalyEvent>,
    detector: Option<&DetectorState>,
    observatory: Option<&Observatory>,
    events: &[Event],
) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"reason\":\"{reason}\",\"shard\":{shard},\"window\":{window},\"slice\":{slice}"
    );

    out.push_str(",\"anomaly\":");
    match anomaly {
        Some(a) => {
            let _ = write!(
                out,
                "{{\"window\":{},\"start_cycle\":{},\"measured_j\":{},\"predicted_j\":{},\"deviation_pct\":{},\"z_score\":{}}}",
                a.window,
                a.start_cycle,
                json_num(a.measured_j),
                json_num(a.predicted_j),
                json_num(a.deviation_pct),
                json_num(a.z_score)
            );
        }
        None => out.push_str("null"),
    }

    out.push_str(",\"detector\":");
    match detector {
        Some(d) => {
            let _ = write!(
                out,
                "{{\"windows\":{},\"baseline_updates\":{},\"flagged\":{},\"resid_mean\":{},\"resid_var\":{},\"resid_primed\":{}}}",
                d.windows,
                d.baseline_updates,
                d.flagged,
                json_num(d.resid_mean),
                json_num(d.resid_var),
                d.resid_primed
            );
        }
        None => out.push_str("null"),
    }

    // Surrounding raw windows from the observatory (energy series).
    out.push_str(",\"raw_windows\":[");
    if let Some(obs) = observatory {
        let from = window.saturating_sub(FLIGHTREC_WINDOW_CONTEXT);
        let to = window + FLIGHTREC_WINDOW_CONTEXT;
        if let Some(q) = obs.query("energy", from, to, 1) {
            for (i, p) in q.points.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"window\":{},\"start_cycle\":{},\"energy_j\":{},\"min\":{},\"max\":{}}}",
                    p.start_window,
                    p.start_cycle,
                    json_num(p.sum),
                    json_num(p.min),
                    json_num(p.max)
                );
            }
        }
    }
    out.push(']');

    // Trailing event context, newest FLIGHTREC_EVENT_CONTEXT entries.
    let tail_start = events.len().saturating_sub(FLIGHTREC_EVENT_CONTEXT);
    out.push_str(",\"events\":[");
    for (i, e) in events[tail_start..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_json_obj());
    }
    out.push(']');

    // The causal chain joined on the bundle window: the flag, the
    // energy booking it judged, and the transactions that fed it.
    out.push_str(",\"causal\":{");
    for (i, (key, kind)) in [
        ("anomaly_flagged", EventKind::AnomalyFlagged),
        ("energy_booked", EventKind::EnergyBooked),
        ("txn_complete", EventKind::TxnComplete),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let matching: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == kind && e.window == window)
            .collect();
        let start = matching.len().saturating_sub(FLIGHTREC_CAUSAL_CAP);
        let _ = write!(out, "\"{key}\":[");
        for (j, e) in matching[start..].iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json_obj());
        }
        let _ = write!(out, "],\"{key}_total\":{}", matching.len());
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};
    use ahbpower::telemetry::{ObservatoryConfig, WindowVerdict};
    use ahbpower::BlockEnergy;

    fn ev(kind: EventKind, window: u64, txn: u64) -> Event {
        Event {
            seq: 0,
            kind,
            slice: 1,
            txn,
            window,
            cycle: window * 100,
            tag: 0,
            a: 1.0,
            b: 2.0,
        }
    }

    fn observatory() -> Observatory {
        let mut obs = Observatory::new(ObservatoryConfig::default().with_capacity(32), 2, 100);
        for w in 0..12u64 {
            let e = BlockEnergy {
                dec: 1.0e-13,
                m2s: 1.0e-13,
                s2m: 1.0e-13,
                arb: 1.0e-13,
            };
            let mut blocks = BlockEnergy::default();
            let mut master = 0.0;
            for _ in 0..100 {
                blocks += e;
                master += e.total();
            }
            let measured = 4.0e-11;
            obs.ingest(
                &WindowVerdict {
                    window: w,
                    start_cycle: w * 100,
                    measured_j: measured,
                    predicted_j: measured,
                    flagged: None,
                    absorbed: true,
                },
                blocks,
                &[master],
                w,
            );
        }
        obs
    }

    fn events_around(window: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for t in 0..5 {
            events.push(ev(EventKind::TxnComplete, window, t));
        }
        events.push(ev(EventKind::EnergyBooked, window, 0));
        events.push(ev(EventKind::AnomalyFlagged, window, 0));
        events
    }

    #[test]
    fn bundle_is_valid_json_with_causal_chain() {
        let tmp = std::env::temp_dir().join(format!("flightrec_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut rec = FlightRecorder::new(&tmp);
        let obs = observatory();
        let anomaly = AnomalyEvent {
            window: 9,
            start_cycle: 900,
            measured_j: 8.0e-11,
            predicted_j: 4.0e-11,
            deviation_pct: 100.0,
            z_score: 20.0,
        };
        let detector = DetectorState {
            windows: 10,
            baseline_updates: 9,
            flagged: 1,
            resid_mean: 0.001,
            resid_var: 0.0001,
            resid_primed: true,
        };
        let path = rec
            .record(
                "anomaly",
                9,
                1,
                Some(&anomaly),
                Some(&detector),
                Some(&obs),
                &events_around(9),
            )
            .expect("bundle writes")
            .expect("bundle not deduped");
        assert!(path.ends_with("flightrec/shard-0/9.json"));
        let body = std::fs::read_to_string(&path).expect("bundle readable");
        validate_json(&body).expect("bundle is valid JSON");
        let doc = parse_json(&body).expect("bundle parses");
        assert_eq!(
            doc.get("reason").and_then(JsonValue::as_str),
            Some("anomaly")
        );
        assert_eq!(doc.get("shard").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(doc.get("window").and_then(JsonValue::as_u64), Some(9));
        let causal = doc.get("causal").expect("causal section");
        let txns = causal
            .get("txn_complete")
            .and_then(JsonValue::as_array)
            .expect("txn chain");
        assert_eq!(txns.len(), 5, "causal chain reaches the transactions");
        assert_eq!(
            causal
                .get("energy_booked")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(1)
        );
        // Surrounding raw windows bracket the flagged one.
        let raw = doc
            .get("raw_windows")
            .and_then(JsonValue::as_array)
            .expect("raw windows");
        assert!(raw.len() >= 8, "context windows captured: {}", raw.len());
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn bundles_dedupe_and_cap() {
        let tmp = std::env::temp_dir().join(format!("flightrec_cap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut rec = FlightRecorder::new(&tmp);
        let events = events_around(3);
        let first = rec
            .record("anomaly", 3, 0, None, None, None, &events)
            .expect("writes");
        assert!(first.is_some());
        let again = rec
            .record("anomaly", 3, 0, None, None, None, &events)
            .expect("writes");
        assert!(again.is_none(), "same window dedupes");
        assert_eq!(rec.bundles(), 1);
        // Distinct reasons at the same window do not collide.
        let quit = rec
            .record("quit", 3, 0, None, None, None, &events)
            .expect("writes")
            .expect("distinct file");
        assert!(quit.ends_with("flightrec/shard-0/3-quit.json"));
        for w in 100..(100 + FLIGHTREC_MAX_BUNDLES as u64) {
            let _ = rec.record("anomaly", w, 0, None, None, None, &events);
        }
        assert_eq!(rec.bundles(), FLIGHTREC_MAX_BUNDLES);
        assert!(rec.suppressed() > 0, "cap suppresses the overflow");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn shards_keep_separate_directories_and_dedup_keys() {
        let tmp = std::env::temp_dir().join(format!("flightrec_shard_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut rec0 = FlightRecorder::for_shard(&tmp, 0);
        let mut rec1 = FlightRecorder::for_shard(&tmp, 1);
        assert_eq!(rec0.shard(), 0);
        assert_eq!(rec1.shard(), 1);
        let events = events_around(7);
        // The same window on different shards is NOT a duplicate: the
        // dedup key is (shard, window) and the files live in per-shard
        // subdirectories.
        let p0 = rec0
            .record("anomaly", 7, 0, None, None, None, &events)
            .expect("writes")
            .expect("shard 0 bundle");
        let p1 = rec1
            .record("anomaly", 7, 0, None, None, None, &events)
            .expect("writes")
            .expect("shard 1 bundle at the same window");
        assert!(p0.ends_with("flightrec/shard-0/7.json"));
        assert!(p1.ends_with("flightrec/shard-1/7.json"));
        // Bundles carry their shard so offline tooling can tell the
        // origins apart even out of the directory tree.
        let doc1 = parse_json(&std::fs::read_to_string(&p1).expect("readable")).expect("parses");
        assert_eq!(doc1.get("shard").and_then(JsonValue::as_u64), Some(1));
        // Within a shard, the same (window, reason) still dedupes.
        assert!(rec1
            .record("anomaly", 7, 0, None, None, None, &events)
            .expect("writes")
            .is_none());
        // FlightRecorder::new is the shard-0 spelling.
        assert_eq!(FlightRecorder::new(&tmp).dir(), rec0.dir());
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
