//! Time-resolved power traces (the paper's Figs. 3-5).
//!
//! Per-cycle energies are accumulated over fixed windows and divided by the
//! window duration, yielding instantaneous power series for the whole bus
//! and for each sub-block.

use crate::macromodel::BlockEnergy;

/// One point of a power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Start time of the window, seconds.
    pub time_s: f64,
    /// Total bus power over the window, watts.
    pub total_w: f64,
    /// Decoder power, watts.
    pub dec_w: f64,
    /// M2S mux power, watts.
    pub m2s_w: f64,
    /// S2M mux power, watts.
    pub s2m_w: f64,
    /// Arbiter power, watts.
    pub arb_w: f64,
}

/// Windowed power-trace accumulator.
///
/// # Examples
///
/// ```
/// use ahbpower::{BlockEnergy, PowerTrace};
///
/// let mut trace = PowerTrace::new(10, 100e6); // 10-cycle windows at 100 MHz
/// for _ in 0..20 {
///     trace.push(BlockEnergy { dec: 1e-12, m2s: 2e-12, s2m: 1e-12, arb: 0.5e-12 });
/// }
/// let pts = trace.points();
/// assert_eq!(pts.len(), 2);
/// // 4.5 pJ/cycle at 100 MHz = 0.45 mW
/// assert!((pts[0].total_w - 0.45e-3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PowerTrace {
    window_cycles: u64,
    clk_hz: f64,
    acc: BlockEnergy,
    in_window: u64,
    cycle: u64,
    points: Vec<TracePoint>,
}

impl PowerTrace {
    /// Creates a trace with `window_cycles`-cycle windows at `clk_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles == 0` or `clk_hz <= 0`.
    pub fn new(window_cycles: u64, clk_hz: f64) -> Self {
        assert!(window_cycles > 0, "window must span at least one cycle");
        assert!(clk_hz > 0.0, "clock frequency must be positive");
        PowerTrace {
            window_cycles,
            clk_hz,
            acc: BlockEnergy::default(),
            in_window: 0,
            cycle: 0,
            points: Vec::new(),
        }
    }

    /// Window duration in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_cycles as f64 / self.clk_hz
    }

    /// Adds one cycle's energy.
    pub fn push(&mut self, e: BlockEnergy) {
        self.acc += e;
        self.in_window += 1;
        self.cycle += 1;
        if self.in_window == self.window_cycles {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.in_window == 0 {
            return;
        }
        let dt = self.in_window as f64 / self.clk_hz;
        let start_cycle = self.cycle - self.in_window;
        self.points.push(TracePoint {
            time_s: start_cycle as f64 / self.clk_hz,
            total_w: self.acc.total() / dt,
            dec_w: self.acc.dec / dt,
            m2s_w: self.acc.m2s / dt,
            s2m_w: self.acc.s2m / dt,
            arb_w: self.acc.arb / dt,
        });
        self.acc = BlockEnergy::default();
        self.in_window = 0;
    }

    /// Flushes a partial trailing window, if any.
    pub fn finish(&mut self) {
        self.flush();
    }

    /// The completed windows so far.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Cycles pushed so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Peak total power over the completed windows, watts.
    pub fn peak_power(&self) -> f64 {
        self.points.iter().map(|p| p.total_w).fold(0.0, f64::max)
    }

    /// Average total power over the completed windows, watts.
    pub fn average_power(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.total_w).sum::<f64>() / self.points.len() as f64
    }

    /// Restricts the series to points whose window **starts** strictly
    /// before `t_s` **seconds** (e.g. the paper's "first 4 µs" is
    /// `points_before(4e-6)` — not a window index, not cycles).
    ///
    /// The cut is strict: a window starting exactly at `t_s` is excluded,
    /// so `points_before(window_secs())` returns exactly the first window.
    pub fn points_before(&self, t_s: f64) -> &[TracePoint] {
        let end = self.points.partition_point(|p| p.time_s < t_s);
        &self.points[..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(total_pj: f64) -> BlockEnergy {
        BlockEnergy {
            dec: total_pj * 0.1e-12,
            m2s: total_pj * 0.5e-12,
            s2m: total_pj * 0.3e-12,
            arb: total_pj * 0.1e-12,
        }
    }

    #[test]
    fn windows_aggregate_energy_to_power() {
        let mut t = PowerTrace::new(5, 100e6);
        for _ in 0..10 {
            t.push(e(10.0));
        }
        let pts = t.points();
        assert_eq!(pts.len(), 2);
        // 10 pJ per 10 ns cycle = 1 mW
        assert!((pts[0].total_w - 1e-3).abs() < 1e-9);
        assert!((pts[1].time_s - 50e-9).abs() < 1e-15);
        assert!((pts[0].m2s_w / pts[0].total_w - 0.5).abs() < 1e-9);
    }

    #[test]
    fn finish_flushes_partial_window() {
        let mut t = PowerTrace::new(10, 100e6);
        for _ in 0..13 {
            t.push(e(1.0));
        }
        assert_eq!(t.points().len(), 1);
        t.finish();
        assert_eq!(t.points().len(), 2);
        // Partial window power equals full window power for constant input.
        let p = t.points();
        assert!((p[0].total_w - p[1].total_w).abs() < 1e-12);
        assert_eq!(t.cycles(), 13);
        t.finish();
        assert_eq!(t.points().len(), 2, "double finish is a no-op");
    }

    #[test]
    fn peak_and_average() {
        let mut t = PowerTrace::new(1, 1e9);
        t.push(e(1.0));
        t.push(e(3.0));
        t.push(e(2.0));
        assert!(t.peak_power() > t.average_power());
        let expected_avg = (1.0 + 3.0 + 2.0) / 3.0 * 1e-12 * 1e9;
        assert!((t.average_power() - expected_avg).abs() < 1e-9);
    }

    #[test]
    fn points_before_cuts_series() {
        let mut t = PowerTrace::new(1, 1e6); // 1 us windows
        for _ in 0..10 {
            t.push(e(1.0));
        }
        assert_eq!(t.points_before(4e-6).len(), 4);
        assert_eq!(t.points_before(100.0).len(), 10);
        assert_eq!(t.points_before(0.0).len(), 0);
    }

    #[test]
    fn points_before_is_strict_at_exact_window_edges() {
        // 5-cycle windows at 100 MHz start at 0 ns, 50 ns, 100 ns. A cut
        // placed exactly on a window's start time excludes that window:
        // the argument is seconds of elapsed time, and the comparison is
        // a strict `<`.
        let mut t = PowerTrace::new(5, 100e6);
        for _ in 0..15 {
            t.push(e(1.0));
        }
        assert_eq!(t.points().len(), 3);
        let first = t.points_before(50e-9);
        assert_eq!(first.len(), 1, "window starting at the cut is excluded");
        assert!((first[0].time_s - 0.0).abs() < 1e-15);
        assert_eq!(t.points_before(t.window_secs()).len(), 1);
        assert_eq!(t.points_before(100e-9).len(), 2);
        // Just past the edge the boundary window is included again.
        assert_eq!(t.points_before(100e-9 + 1e-12).len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        let _ = PowerTrace::new(0, 1e6);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be positive")]
    fn zero_clock_panics() {
        let _ = PowerTrace::new(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be positive")]
    fn negative_clock_panics() {
        let _ = PowerTrace::new(10, -100e6);
    }

    #[test]
    fn finish_on_empty_trace_emits_nothing() {
        let mut t = PowerTrace::new(10, 100e6);
        t.finish();
        assert!(t.points().is_empty());
        assert_eq!(t.cycles(), 0);
        assert_eq!(t.peak_power(), 0.0);
        assert_eq!(t.average_power(), 0.0);
    }

    #[test]
    fn partial_window_power_uses_actual_duration() {
        // 3 trailing cycles of 2 pJ each: the partial window must divide
        // by 3 cycles' worth of time, not the nominal 10, or its power
        // would be understated by 10/3.
        let mut t = PowerTrace::new(10, 100e6);
        for _ in 0..3 {
            t.push(e(2.0));
        }
        t.finish();
        let pts = t.points();
        assert_eq!(pts.len(), 1);
        // 2 pJ per 10 ns cycle = 0.2 mW regardless of window fill.
        assert!((pts[0].total_w - 0.2e-3).abs() < 1e-9, "{}", pts[0].total_w);
    }

    #[test]
    fn window_boundary_energy_attribution() {
        // Cycles 0-4 carry 1 pJ, cycles 5-9 carry 3 pJ, window = 5: each
        // window must contain exactly its own cycles' energy — no bleed
        // across the boundary.
        let mut t = PowerTrace::new(5, 100e6);
        for _ in 0..5 {
            t.push(e(1.0));
        }
        for _ in 0..5 {
            t.push(e(3.0));
        }
        let pts = t.points();
        assert_eq!(pts.len(), 2);
        // 1 pJ / 10 ns = 0.1 mW; 3 pJ / 10 ns = 0.3 mW.
        assert!((pts[0].total_w - 0.1e-3).abs() < 1e-9, "{}", pts[0].total_w);
        assert!((pts[1].total_w - 0.3e-3).abs() < 1e-9, "{}", pts[1].total_w);
        // Window start times align to the boundary cycle.
        assert!((pts[0].time_s - 0.0).abs() < 1e-15);
        assert!((pts[1].time_s - 50e-9).abs() < 1e-15);
        // Energy reconstructed from the two windows equals what was pushed.
        let window = t.window_secs();
        let total: f64 = pts.iter().map(|p| p.total_w * window).sum();
        assert!((total - 20.0e-12).abs() < 1e-20, "{total}");
    }
}
