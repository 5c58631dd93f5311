//! On-line energy anomaly detection: EWMA + windowed z-score over the
//! residual between measured window energy and the macromodel-predicted
//! baseline for the window's instruction mix.
//!
//! The detector learns per-instruction mean energies during a warmup
//! phase, then predicts each window's energy as `Σ countᵢ × meanᵢ` and
//! tracks the relative residual `(measured − predicted) / predicted`
//! with an exponentially weighted mean and variance. A window whose
//! residual z-score exceeds the threshold *and* whose deviation exceeds
//! a minimum percentage is flagged as an [`AnomalyEvent`]; anomalous
//! windows do not update the learned baseline or the residual
//! statistics, so a sustained drift keeps firing instead of being
//! absorbed.
//!
//! The injection hook that makes this testable end-to-end is
//! [`crate::PowerSession::scale_model_block`]: scaling one sub-block's
//! coefficients mid-run shifts measured energy away from the learned
//! baseline without touching the instruction mix.

use crate::instruction::Instruction;
use crate::ledger::InstructionLedger;
use crate::telemetry::export::json_num;

/// Tuning knobs for the [`AnomalyDetector`]. The defaults flag a
/// sustained ≥5% energy shift within a couple of windows while staying
/// silent on the natural window-to-window variation of the paper
/// testbench and SoC scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyConfig {
    /// Cycles per detection window.
    pub window_cycles: u64,
    /// Windows spent learning the per-instruction baseline and priming
    /// the residual statistics before any window can be flagged.
    pub warmup_windows: u64,
    /// EWMA smoothing factor for the residual mean/variance (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Flag when `|z| > z_threshold` (and the deviation gate passes).
    pub z_threshold: f64,
    /// Ignore windows deviating less than this percentage from the
    /// prediction, whatever their z-score — guards against a tiny
    /// variance making noise look significant.
    pub min_deviation_pct: f64,
    /// Lower bound on the residual standard deviation used in the
    /// z-score denominator (relative units; 0.01 = 1%).
    pub sigma_floor: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            window_cycles: 1_000,
            warmup_windows: 8,
            ewma_alpha: 0.2,
            z_threshold: 6.0,
            min_deviation_pct: 5.0,
            sigma_floor: 0.01,
        }
    }
}

impl AnomalyConfig {
    /// Sets the detection window length in cycles (clamped to ≥ 1).
    pub fn with_window_cycles(mut self, cycles: u64) -> Self {
        self.window_cycles = cycles.max(1);
        self
    }

    /// Sets the number of warmup windows (clamped to ≥ 1).
    pub fn with_warmup_windows(mut self, windows: u64) -> Self {
        self.warmup_windows = windows.max(1);
        self
    }

    /// Sets the z-score threshold.
    pub fn with_z_threshold(mut self, z: f64) -> Self {
        self.z_threshold = z;
        self
    }

    /// Sets the minimum deviation percentage gate.
    pub fn with_min_deviation_pct(mut self, pct: f64) -> Self {
        self.min_deviation_pct = pct;
        self
    }
}

/// One flagged window: the measurement, the prediction it violated, and
/// the strength of the violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// Zero-based index of the flagged window.
    pub window: u64,
    /// First cycle of the flagged window.
    pub start_cycle: u64,
    /// Measured window energy, joules.
    pub measured_j: f64,
    /// Predicted window energy from the learned baseline, joules.
    pub predicted_j: f64,
    /// Signed deviation, percent of the prediction.
    pub deviation_pct: f64,
    /// Residual z-score against the EWMA statistics.
    pub z_score: f64,
}

impl AnomalyEvent {
    /// Renders the event as one JSONL line (matching the telemetry
    /// exporter's event-stream format).
    pub fn to_jsonl_line(&self) -> String {
        format!(
            "{{\"event\":\"anomaly\",\"window\":{},\"start_cycle\":{},\
             \"measured_j\":{},\"predicted_j\":{},\"deviation_pct\":{},\
             \"z_score\":{}}}",
            self.window,
            self.start_cycle,
            json_num(self.measured_j),
            json_num(self.predicted_j),
            json_num(self.deviation_pct),
            json_num(self.z_score),
        )
    }
}

/// A copyable snapshot of the detector's internal statistics, for
/// post-mortem bundles (the flight recorder) and live status surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorState {
    /// Closed (complete) windows so far.
    pub windows: u64,
    /// Clean windows absorbed into the learned baseline.
    pub baseline_updates: u64,
    /// Windows flagged so far.
    pub flagged: u64,
    /// EWMA mean of the relative residual.
    pub resid_mean: f64,
    /// EWMA variance of the relative residual.
    pub resid_var: f64,
    /// Whether the residual statistics have been primed by at least one
    /// clean window.
    pub resid_primed: bool,
}

/// The detector's full judgement of one closed window — what the event
/// bus publishes as `EnergyBooked` (always), `AnomalyFlagged` (when
/// [`WindowVerdict::flagged`] is set) and `BaselineUpdated` (when
/// [`WindowVerdict::absorbed`] is true).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowVerdict {
    /// Zero-based index of the closed window.
    pub window: u64,
    /// First cycle of the closed window.
    pub start_cycle: u64,
    /// Measured window energy, joules.
    pub measured_j: f64,
    /// Predicted window energy from the learned baseline, joules.
    pub predicted_j: f64,
    /// The anomaly event, when the window was flagged.
    pub flagged: Option<AnomalyEvent>,
    /// Whether the window was absorbed into the learned baseline
    /// (clean windows are; flagged windows never are).
    pub absorbed: bool,
}

impl WindowVerdict {
    /// The verdict on a window nobody judged: the prediction mirrors the
    /// measurement, nothing is flagged and nothing is absorbed. This is
    /// what a session without a detector publishes, and what
    /// [`AnomalyDetector::judge`] refines.
    pub fn unjudged(window: u64, start_cycle: u64, measured_j: f64) -> Self {
        WindowVerdict {
            window,
            start_cycle,
            measured_j,
            predicted_j: measured_j,
            flagged: None,
            absorbed: false,
        }
    }
}

/// Streaming detector judging one closed window at a time. The window's
/// per-instruction energy comes from the telemetry layer's window book
/// ([`crate::telemetry::Telemetry`]), which also keeps the window clock.
///
/// # Examples
///
/// ```
/// use ahbpower::telemetry::{AnomalyConfig, AnomalyDetector, WindowVerdict};
/// use ahbpower::{ActivityMode, Instruction, InstructionLedger};
///
/// let cfg = AnomalyConfig::default().with_window_cycles(10).with_warmup_windows(2);
/// let mut det = AnomalyDetector::new(cfg);
/// let insn = Instruction::new(ActivityMode::Read, ActivityMode::Read);
/// // A steady stream never alarms.
/// for w in 0..10 {
///     let mut window = InstructionLedger::new();
///     for _ in 0..10 {
///         window.record(insn, 1.0e-12);
///     }
///     let mut v = WindowVerdict::unjudged(w, w * 10, window.total_energy());
///     det.judge(&window, &mut v);
///     assert!(v.flagged.is_none());
/// }
/// assert!(det.events().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    cfg: AnomalyConfig,
    /// Learned baseline: every clean window's per-instruction counts and
    /// energy.
    baseline: InstructionLedger,
    // EWMA of the relative residual.
    resid_mean: f64,
    resid_var: f64,
    resid_primed: bool,
    baseline_updates: u64,
    events: Vec<AnomalyEvent>,
}

impl AnomalyDetector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: AnomalyConfig) -> Self {
        AnomalyDetector {
            cfg,
            baseline: InstructionLedger::new(),
            resid_mean: 0.0,
            resid_var: 0.0,
            resid_primed: false,
            baseline_updates: 0,
            events: Vec::new(),
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &AnomalyConfig {
        &self.cfg
    }

    /// Windows judged so far: each is either absorbed or flagged.
    pub fn windows(&self) -> u64 {
        self.baseline_updates + self.events.len() as u64
    }

    /// Every flagged window, in order.
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    /// Clean windows absorbed into the learned baseline so far (flagged
    /// windows never update it).
    pub fn baseline_updates(&self) -> u64 {
        self.baseline_updates
    }

    /// The most recent flagged window, if any.
    pub fn last_event(&self) -> Option<&AnomalyEvent> {
        self.events.last()
    }

    /// A snapshot of the residual statistics and window counters, for
    /// post-mortem bundles and live status surfaces.
    pub fn state(&self) -> DetectorState {
        DetectorState {
            windows: self.windows(),
            baseline_updates: self.baseline_updates,
            flagged: self.events.len() as u64,
            resid_mean: self.resid_mean,
            resid_var: self.resid_var,
            resid_primed: self.resid_primed,
        }
    }

    /// Predicted energy for a window. Instructions absent from the
    /// learned baseline contribute their measured energy, so a never-seen
    /// mix cannot alarm by itself.
    fn predict(&self, window: &InstructionLedger) -> f64 {
        let mut predicted = 0.0;
        for i in Instruction::all() {
            let count = window.count(i);
            if count == 0 {
                continue;
            }
            let base_count = self.baseline.count(i);
            if base_count > 0 {
                let mean = self.baseline.energy(i) / base_count as f64;
                predicted += count as f64 * mean;
            } else {
                predicted += window.energy(i);
            }
        }
        predicted
    }

    /// Judges one closed window whose per-instruction energy is `window`:
    /// fills `v`'s prediction, flag and absorption from the window's
    /// measured energy (`v.measured_j`). Clean windows are absorbed into
    /// the baseline; flagged ones are recorded as events and never
    /// absorbed, so a sustained drift keeps alarming.
    pub fn judge(&mut self, window: &InstructionLedger, v: &mut WindowVerdict) {
        let measured = v.measured_j;
        let predicted = self.predict(window);
        let rel = if predicted > 0.0 {
            (measured - predicted) / predicted
        } else {
            0.0
        };
        let in_warmup = v.window < self.cfg.warmup_windows;
        let mut flagged = None;
        if !in_warmup && self.resid_primed {
            let sigma = self.resid_var.max(0.0).sqrt().max(self.cfg.sigma_floor);
            let z = (rel - self.resid_mean) / sigma;
            let deviation_pct = rel * 100.0;
            if z.abs() > self.cfg.z_threshold && deviation_pct.abs() >= self.cfg.min_deviation_pct {
                let event = AnomalyEvent {
                    window: v.window,
                    start_cycle: v.start_cycle,
                    measured_j: measured,
                    predicted_j: predicted,
                    deviation_pct,
                    z_score: z,
                };
                self.events.push(event.clone());
                flagged = Some(event);
            }
        }

        let absorbed = flagged.is_none();
        if absorbed {
            self.baseline.merge(window);
            self.baseline_updates += 1;
            let a = self.cfg.ewma_alpha;
            if self.resid_primed {
                let diff = rel - self.resid_mean;
                let incr = a * diff;
                self.resid_mean += incr;
                self.resid_var = (1.0 - a) * (self.resid_var + diff * incr);
            } else {
                self.resid_mean = rel;
                self.resid_var = 0.0;
                self.resid_primed = true;
            }
        }
        v.predicted_j = predicted;
        v.flagged = flagged;
        v.absorbed = absorbed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ActivityMode;

    fn insn(from: ActivityMode, to: ActivityMode) -> Instruction {
        Instruction::new(from, to)
    }

    fn cfg() -> AnomalyConfig {
        AnomalyConfig::default()
            .with_window_cycles(100)
            .with_warmup_windows(3)
    }

    /// Feeds a detector one cycle at a time, as the telemetry layer
    /// does: cycles are booked into a window ledger, and every
    /// `window_cycles` cycles the window is judged and a new one begins.
    struct Feeder {
        det: AnomalyDetector,
        window: InstructionLedger,
        cycles: u64,
    }

    impl Feeder {
        fn new(cfg: AnomalyConfig) -> Self {
            Feeder {
                det: AnomalyDetector::new(cfg),
                window: InstructionLedger::new(),
                cycles: 0,
            }
        }

        fn observe_verdict(&mut self, i: Instruction, joules: f64) -> Option<WindowVerdict> {
            self.window.record(i, joules);
            self.cycles += 1;
            let window_cycles = self.det.config().window_cycles;
            if !self.cycles.is_multiple_of(window_cycles) {
                return None;
            }
            let w = self.cycles / window_cycles - 1;
            let mut v = WindowVerdict::unjudged(w, w * window_cycles, self.window.total_energy());
            self.det.judge(&self.window, &mut v);
            self.window = InstructionLedger::new();
            Some(v)
        }

        fn observe(&mut self, i: Instruction, joules: f64) -> Option<AnomalyEvent> {
            self.observe_verdict(i, joules).and_then(|v| v.flagged)
        }

        /// Drops the partial trailing window, which is never judged.
        fn finish(&mut self) {
            self.window = InstructionLedger::new();
        }

        fn cycles(&self) -> u64 {
            self.cycles
        }
    }

    impl std::ops::Deref for Feeder {
        type Target = AnomalyDetector;

        fn deref(&self) -> &AnomalyDetector {
            &self.det
        }
    }

    #[test]
    fn steady_stream_never_alarms() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Read, ActivityMode::Read);
        let b = insn(ActivityMode::Read, ActivityMode::Write);
        for c in 0..5_000u64 {
            let (i, e) = if c % 3 == 0 {
                (a, 2.0e-12)
            } else {
                (b, 3.0e-12)
            };
            assert!(det.observe(i, e).is_none());
        }
        det.finish();
        assert!(det.events().is_empty());
        assert_eq!(det.windows(), 50);
    }

    #[test]
    fn small_noise_stays_silent() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Write, ActivityMode::Write);
        for c in 0..10_000u64 {
            // ±2% deterministic ripple: below the 5% deviation gate.
            let ripple = 1.0 + 0.02 * ((c % 7) as f64 - 3.0) / 3.0;
            det.observe(a, 2.0e-12 * ripple);
        }
        det.finish();
        assert!(det.events().is_empty(), "{:?}", det.events());
    }

    #[test]
    fn step_change_is_flagged_within_one_window() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Read, ActivityMode::Read);
        for _ in 0..1_000u64 {
            assert!(det.observe(a, 2.0e-12).is_none());
        }
        // Double the per-cycle energy: the very next closed window must fire.
        let mut first = None;
        for _ in 0..200u64 {
            if let Some(e) = det.observe(a, 4.0e-12) {
                first = Some(e);
                break;
            }
        }
        let e = first.expect("doubling energy must alarm");
        assert_eq!(e.window, 10, "first full window after the step");
        assert!(
            e.deviation_pct > 90.0,
            "deviation ~100%: {}",
            e.deviation_pct
        );
        assert!(e.z_score > 6.0);
        assert_eq!(det.last_event(), Some(&e));
    }

    #[test]
    fn sustained_drift_keeps_alarming() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Read, ActivityMode::Read);
        for _ in 0..1_000u64 {
            det.observe(a, 2.0e-12);
        }
        for _ in 0..1_000u64 {
            det.observe(a, 3.0e-12);
        }
        det.finish();
        assert_eq!(
            det.events().len(),
            10,
            "anomalous windows must not be absorbed into the baseline"
        );
    }

    #[test]
    fn unseen_instruction_mix_does_not_alarm() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Idle, ActivityMode::Idle);
        for _ in 0..1_000u64 {
            det.observe(a, 1.0e-12);
        }
        // A brand-new instruction dominates the next windows; with no
        // baseline for it, its energy is taken at face value.
        let b = insn(ActivityMode::Write, ActivityMode::Read);
        for _ in 0..500u64 {
            assert!(det.observe(b, 9.0e-12).is_none());
        }
        det.finish();
        assert!(det.events().is_empty());
    }

    #[test]
    fn partial_trailing_window_is_dropped() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Read, ActivityMode::Read);
        for _ in 0..1_000u64 {
            det.observe(a, 2.0e-12);
        }
        // 50 cycles of doubled energy: only half a window, never judged.
        for _ in 0..50u64 {
            assert!(det.observe(a, 4.0e-12).is_none());
        }
        det.finish();
        assert!(det.events().is_empty());
        assert_eq!(det.windows(), 10);
        assert_eq!(det.cycles(), 1_050);
    }

    #[test]
    fn event_jsonl_line_is_valid_shape() {
        let e = AnomalyEvent {
            window: 12,
            start_cycle: 1_200,
            measured_j: 4.0e-9,
            predicted_j: 2.0e-9,
            deviation_pct: 100.0,
            z_score: 25.0,
        };
        let line = e.to_jsonl_line();
        assert!(line.starts_with("{\"event\":\"anomaly\",\"window\":12,"));
        assert!(line.contains("\"start_cycle\":1200"));
        assert!(line.ends_with('}'));
        let nan = AnomalyEvent {
            z_score: f64::NAN,
            ..e
        };
        assert!(nan.to_jsonl_line().contains("\"z_score\":null"));
    }

    #[test]
    fn verdicts_report_absorption_and_count_baseline_updates() {
        let mut det = Feeder::new(cfg());
        let a = insn(ActivityMode::Read, ActivityMode::Read);
        let mut verdicts = Vec::new();
        for _ in 0..1_000u64 {
            if let Some(v) = det.observe_verdict(a, 2.0e-12) {
                verdicts.push(v);
            }
        }
        assert_eq!(verdicts.len(), 10, "one verdict per closed window");
        assert!(verdicts.iter().all(|v| v.absorbed && v.flagged.is_none()));
        assert_eq!(verdicts[3].window, 3);
        assert_eq!(verdicts[3].start_cycle, 300);
        assert_eq!(det.baseline_updates(), 10);
        // A flagged window is reported but NOT absorbed.
        let mut flagged = None;
        for _ in 0..100u64 {
            if let Some(v) = det.observe_verdict(a, 4.0e-12) {
                flagged = Some(v);
            }
        }
        let v = flagged.expect("window closed");
        assert!(v.flagged.is_some());
        assert!(!v.absorbed);
        assert!(v.measured_j > v.predicted_j);
        assert_eq!(det.baseline_updates(), 10);
    }

    #[test]
    fn config_builders_clamp() {
        let c = AnomalyConfig::default()
            .with_window_cycles(0)
            .with_warmup_windows(0)
            .with_z_threshold(4.0)
            .with_min_deviation_pct(2.5);
        assert_eq!(c.window_cycles, 1);
        assert_eq!(c.warmup_windows, 1);
        assert_eq!(c.z_threshold, 4.0);
        assert_eq!(c.min_deviation_pct, 2.5);
    }
}
