//! Baseline regression gating: snapshot the per-instruction energy
//! distribution of a deterministic run to JSON, and diff a fresh run
//! against the committed snapshot so energy regressions fail the build.
//!
//! The simulation is bit-deterministic for a given `(cycles, seed)`, so
//! comparing at the snapshot's own parameters yields *zero* drift on
//! unchanged code: any nonzero drift is a genuine model/workload change,
//! which the tolerance either accepts (intentional recalibration under
//! `--tolerance-pct`) or rejects (regression).

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use ahbpower::telemetry::json_num;
use ahbpower::SubBlock;
use ahbpower_ahb::CycleHistogram;
use ahbpower_workloads::PaperTestbench;

use crate::json::{parse_json, JsonError, JsonValue};

/// Format version stamped into snapshots (bump on layout changes).
pub const BASELINE_VERSION: u64 = 1;

/// Microwatt bucket bounds for the windowed-power histogram: three
/// decades of 1-2-5 steps around the testbench's ~µW-to-mW range.
pub const WINDOW_POWER_BOUNDS_UW: [u64; 16] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
];

/// One instruction's booked energy in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Instruction name (`READ_READ`, `IDLE_HO_WRITE`, ...).
    pub name: String,
    /// Cycles booked to the instruction.
    pub count: u64,
    /// Total energy booked, joules.
    pub total_j: f64,
    /// Mean energy per occurrence, joules.
    pub mean_j: f64,
}

/// Percentile summary of the windowed power trace, microwatts.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPowerSummary {
    /// Windows observed.
    pub windows: u64,
    /// Median window power, µW.
    pub p50_uw: f64,
    /// 95th-percentile window power, µW.
    pub p95_uw: f64,
    /// 99th-percentile window power, µW.
    pub p99_uw: f64,
}

/// A recorded energy baseline: run parameters plus the per-instruction
/// distribution and windowed-power percentiles they produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSnapshot {
    /// Snapshot format version ([`BASELINE_VERSION`]).
    pub version: u64,
    /// Scenario label the snapshot was recorded from.
    pub scenario: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// Total energy, joules.
    pub total_energy_j: f64,
    /// Windowed-power percentile summary.
    pub window_power: WindowPowerSummary,
    /// Per-instruction rows, ledger order, zero-count rows omitted.
    pub rows: Vec<BaselineRow>,
}

/// Why recording, loading or comparing a baseline failed.
#[derive(Debug)]
pub enum BaselineError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The snapshot file is not valid JSON.
    Json(JsonError),
    /// The snapshot parsed but its shape is wrong.
    Format(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Io(e) => write!(f, "baseline I/O error: {e}"),
            BaselineError::Json(e) => write!(f, "baseline JSON error: {e}"),
            BaselineError::Format(msg) => write!(f, "baseline format error: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<io::Error> for BaselineError {
    fn from(e: io::Error) -> Self {
        BaselineError::Io(e)
    }
}

impl From<JsonError> for BaselineError {
    fn from(e: JsonError) -> Self {
        BaselineError::Json(e)
    }
}

/// Records a baseline by running the paper testbench for `cycles` at
/// `seed`, optionally scaling one sub-block's coefficients first (the
/// negative-test hook `check.sh` uses to prove the gate trips).
pub fn record_baseline(
    cycles: u64,
    seed: u64,
    inject: Option<(SubBlock, f64)>,
) -> BaselineSnapshot {
    let config = ahbpower::AnalysisConfig::paper_testbench();
    let tb = PaperTestbench::sized_for(cycles, seed);
    let mut bus = tb.build().expect("paper testbench is statically valid");
    let mut session = ahbpower::PowerSession::new(&config);
    if let Some((block, factor)) = inject {
        session.scale_model_block(block, factor);
    }
    session.run(&mut bus, cycles);

    let mut hist = CycleHistogram::new(&WINDOW_POWER_BOUNDS_UW);
    for p in session.trace_points() {
        hist.observe((p.total_w * 1e6).round() as u64);
    }
    let rows = session
        .ledger()
        .rows()
        .into_iter()
        .map(|r| BaselineRow {
            name: r.instruction.name(),
            count: r.count,
            total_j: r.total,
            mean_j: r.average,
        })
        .collect();
    BaselineSnapshot {
        version: BASELINE_VERSION,
        scenario: PaperTestbench::LABEL.to_string(),
        cycles,
        seed,
        total_energy_j: session.total_energy(),
        window_power: WindowPowerSummary {
            windows: hist.count(),
            p50_uw: hist.quantile(0.5),
            p95_uw: hist.quantile(0.95),
            p99_uw: hist.quantile(0.99),
        },
        rows,
    }
}

impl BaselineSnapshot {
    /// Renders the snapshot as a pretty-stable JSON document (one row
    /// per line so diffs stay reviewable).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(out, "  \"scenario\": \"{}\",", self.scenario);
        let _ = writeln!(out, "  \"cycles\": {},", self.cycles);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "  \"total_energy_j\": {},",
            json_num(self.total_energy_j)
        );
        let _ = writeln!(
            out,
            "  \"window_power\": {{\"windows\": {}, \"p50_uw\": {}, \"p95_uw\": {}, \"p99_uw\": {}}},",
            self.window_power.windows,
            json_num(self.window_power.p50_uw),
            json_num(self.window_power.p95_uw),
            json_num(self.window_power.p99_uw)
        );
        let _ = writeln!(out, "  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"count\": {}, \"total_j\": {}, \"mean_j\": {}}}{comma}",
                r.name,
                r.count,
                json_num(r.total_j),
                json_num(r.mean_j)
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a snapshot previously produced by
    /// [`BaselineSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`BaselineError::Json`] for malformed JSON,
    /// [`BaselineError::Format`] for a well-formed document of the wrong
    /// shape (missing fields, wrong types, unsupported version).
    pub fn from_json(text: &str) -> Result<BaselineSnapshot, BaselineError> {
        let doc = parse_json(text)?;
        let version = field_u64(&doc, "version")?;
        if version != BASELINE_VERSION {
            return Err(BaselineError::Format(format!(
                "unsupported baseline version {version} (expected {BASELINE_VERSION})"
            )));
        }
        let wp = doc
            .get("window_power")
            .ok_or_else(|| BaselineError::Format("missing field 'window_power'".to_string()))?;
        let rows_value = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| BaselineError::Format("missing array 'rows'".to_string()))?;
        let mut rows = Vec::with_capacity(rows_value.len());
        for r in rows_value {
            rows.push(BaselineRow {
                name: field_str(r, "name")?,
                count: field_u64(r, "count")?,
                total_j: field_f64(r, "total_j")?,
                mean_j: field_f64(r, "mean_j")?,
            });
        }
        Ok(BaselineSnapshot {
            version,
            scenario: field_str(&doc, "scenario")?,
            cycles: field_u64(&doc, "cycles")?,
            seed: field_u64(&doc, "seed")?,
            total_energy_j: field_f64(&doc, "total_energy_j")?,
            window_power: WindowPowerSummary {
                windows: field_u64(wp, "windows")?,
                p50_uw: field_f64(wp, "p50_uw")?,
                p95_uw: field_f64(wp, "p95_uw")?,
                p99_uw: field_f64(wp, "p99_uw")?,
            },
            rows,
        })
    }

    /// Loads a snapshot from a file.
    ///
    /// # Errors
    ///
    /// [`BaselineError::Io`] when unreadable, else as
    /// [`BaselineSnapshot::from_json`].
    pub fn load(path: &Path) -> Result<BaselineSnapshot, BaselineError> {
        BaselineSnapshot::from_json(&fs::read_to_string(path)?)
    }

    /// Writes the snapshot atomically (temp file + rename), so a crash
    /// mid-write can never truncate an existing baseline.
    ///
    /// # Errors
    ///
    /// [`BaselineError::Io`] on filesystem trouble.
    pub fn save(&self, path: &Path) -> Result<(), BaselineError> {
        write_atomic(path, &self.to_json())?;
        Ok(())
    }
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, BaselineError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| BaselineError::Format(format!("missing or non-integer field '{key}'")))
}

fn field_f64(v: &JsonValue, key: &str) -> Result<f64, BaselineError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| BaselineError::Format(format!("missing or non-numeric field '{key}'")))
}

fn field_str(v: &JsonValue, key: &str) -> Result<String, BaselineError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| BaselineError::Format(format!("missing or non-string field '{key}'")))
}

/// Writes `content` to `path` via a sibling temp file and an atomic
/// rename; readers never observe a half-written file.
pub fn write_atomic(path: &Path, content: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, content)?;
    fs::rename(&tmp, path)
}

/// One drift found by [`compare_baselines`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineViolation {
    /// What drifted (`total_energy_j`, `READ_READ mean_j`, ...).
    pub what: String,
    /// Baseline value.
    pub base: f64,
    /// Fresh value.
    pub fresh: f64,
    /// Signed drift, percent of the baseline.
    pub drift_pct: f64,
}

/// The outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// Quantities checked.
    pub checks: usize,
    /// Tolerance applied, percent.
    pub tolerance_pct: f64,
    /// Quantities that drifted beyond tolerance.
    pub violations: Vec<BaselineViolation>,
}

impl BaselineComparison {
    /// Whether every check stayed within tolerance.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable report, one line per violation.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            let _ = writeln!(
                out,
                "baseline OK: {} checks within {}% tolerance",
                self.checks, self.tolerance_pct
            );
        } else {
            let _ = writeln!(
                out,
                "baseline DRIFT: {} of {} checks beyond {}% tolerance",
                self.violations.len(),
                self.checks,
                self.tolerance_pct
            );
            for v in &self.violations {
                let _ = writeln!(
                    out,
                    "  {}: baseline {:.6e} fresh {:.6e} drift {:+.2}%",
                    v.what, v.base, v.fresh, v.drift_pct
                );
            }
        }
        out
    }
}

/// Signed percent drift of `fresh` relative to `base` (a zero baseline
/// with a nonzero fresh value reads as 100%).
fn drift_pct(base: f64, fresh: f64) -> f64 {
    if base == 0.0 {
        if fresh == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        (fresh - base) / base * 100.0
    }
}

/// Compares a fresh snapshot against the recorded baseline: total
/// energy, windowed-power percentiles, and each instruction's count,
/// total and mean. Instructions present on one side only are
/// violations outright.
pub fn compare_baselines(
    base: &BaselineSnapshot,
    fresh: &BaselineSnapshot,
    tolerance_pct: f64,
) -> BaselineComparison {
    let mut checks = 0usize;
    let mut violations = Vec::new();
    fn check(
        checks: &mut usize,
        violations: &mut Vec<BaselineViolation>,
        tolerance_pct: f64,
        what: &str,
        b: f64,
        f: f64,
    ) {
        *checks += 1;
        let drift = drift_pct(b, f);
        if drift.abs() > tolerance_pct {
            violations.push(BaselineViolation {
                what: what.to_string(),
                base: b,
                fresh: f,
                drift_pct: drift,
            });
        }
    }
    macro_rules! check {
        ($what:expr, $b:expr, $f:expr) => {
            check(&mut checks, &mut violations, tolerance_pct, $what, $b, $f)
        };
    }

    check!("total_energy_j", base.total_energy_j, fresh.total_energy_j);
    check!(
        "window_power.p50_uw",
        base.window_power.p50_uw,
        fresh.window_power.p50_uw
    );
    check!(
        "window_power.p95_uw",
        base.window_power.p95_uw,
        fresh.window_power.p95_uw
    );
    check!(
        "window_power.p99_uw",
        base.window_power.p99_uw,
        fresh.window_power.p99_uw
    );
    for b in &base.rows {
        match fresh.rows.iter().find(|f| f.name == b.name) {
            Some(f) => {
                check!(&format!("{} count", b.name), b.count as f64, f.count as f64);
                check!(&format!("{} total_j", b.name), b.total_j, f.total_j);
                check!(&format!("{} mean_j", b.name), b.mean_j, f.mean_j);
            }
            None => {
                checks += 1;
                violations.push(BaselineViolation {
                    what: format!("{} missing from fresh run", b.name),
                    base: b.count as f64,
                    fresh: 0.0,
                    drift_pct: -100.0,
                });
            }
        }
    }
    for f in &fresh.rows {
        if !base.rows.iter().any(|b| b.name == f.name) {
            checks += 1;
            violations.push(BaselineViolation {
                what: format!("{} absent from baseline", f.name),
                base: 0.0,
                fresh: f.count as f64,
                drift_pct: 100.0,
            });
        }
    }
    if base.scenario != fresh.scenario {
        checks += 1;
        violations.push(BaselineViolation {
            what: format!(
                "scenario mismatch: baseline '{}' vs fresh '{}'",
                base.scenario, fresh.scenario
            ),
            base: 0.0,
            fresh: 0.0,
            drift_pct: 100.0,
        });
    }
    BaselineComparison {
        checks,
        tolerance_pct,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: u64 = 20_000;
    const SEED: u64 = 2003;

    #[test]
    fn record_is_deterministic_and_round_trips_through_json() {
        let a = record_baseline(CYCLES, SEED, None);
        let b = record_baseline(CYCLES, SEED, None);
        assert_eq!(a, b, "same cycles+seed must snapshot identically");
        assert!(a.total_energy_j > 0.0);
        assert!(a.window_power.windows > 0);
        assert!(!a.rows.is_empty());

        let json = a.to_json();
        crate::json::validate_json(&json).expect("snapshot JSON is valid");
        let parsed = BaselineSnapshot::from_json(&json).expect("round-trip");
        assert_eq!(parsed, a, "Display-formatted floats round-trip exactly");
    }

    #[test]
    fn unchanged_run_compares_clean_at_zero_tolerance() {
        let base = record_baseline(CYCLES, SEED, None);
        let fresh = record_baseline(CYCLES, SEED, None);
        let cmp = compare_baselines(&base, &fresh, 0.0);
        assert!(cmp.passed(), "{}", cmp.render_text());
        assert!(cmp.checks > 10);
        assert!(cmp.render_text().starts_with("baseline OK"));
    }

    #[test]
    fn injected_coefficient_scaling_trips_the_gate() {
        let base = record_baseline(CYCLES, SEED, None);
        let drifted = record_baseline(CYCLES, SEED, Some((SubBlock::Arb, 2.0)));
        let cmp = compare_baselines(&base, &drifted, 2.0);
        assert!(!cmp.passed(), "doubling the arbiter must exceed 2%");
        let text = cmp.render_text();
        assert!(text.starts_with("baseline DRIFT"), "{text}");
        assert!(
            cmp.violations.iter().any(|v| v.what == "total_energy_j"),
            "{text}"
        );
        // Counts are untouched by an energy-only injection.
        assert!(
            cmp.violations.iter().all(|v| !v.what.ends_with(" count")),
            "instruction counts must not drift: {text}"
        );
    }

    #[test]
    fn missing_and_extra_instructions_are_violations() {
        let base = record_baseline(CYCLES, SEED, None);
        let mut fresh = base.clone();
        let moved = fresh.rows.remove(0);
        fresh.rows.push(BaselineRow {
            name: "BOGUS_BOGUS".to_string(),
            ..moved
        });
        let cmp = compare_baselines(&base, &fresh, 50.0);
        assert_eq!(cmp.violations.len(), 2, "{}", cmp.render_text());
    }

    #[test]
    fn malformed_snapshots_are_rejected_with_context() {
        assert!(matches!(
            BaselineSnapshot::from_json("not json"),
            Err(BaselineError::Json(_))
        ));
        let err = BaselineSnapshot::from_json("{\"version\": 99}").expect_err("bad version");
        assert!(err.to_string().contains("unsupported baseline version"));
        let err = BaselineSnapshot::from_json("{\"version\": 1}").expect_err("missing fields");
        assert!(matches!(err, BaselineError::Format(_)), "{err}");
    }

    #[test]
    fn save_and_load_are_atomic_and_lossless() {
        let dir = std::env::temp_dir().join(format!("ahb_baseline_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("baseline.json");
        let snap = record_baseline(CYCLES, SEED, None);
        snap.save(&path).expect("save");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        let loaded = BaselineSnapshot::load(&path).expect("load");
        assert_eq!(loaded, snap);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
