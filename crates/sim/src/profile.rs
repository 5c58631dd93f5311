//! Opt-in wall-clock profiling of the kernel hot loop.
//!
//! When enabled via [`crate::Kernel::enable_profiling`], the kernel times
//! every delta cycle and every process activation. The accumulators are
//! pre-sized plain structs — the hot path performs two `Instant::now()`
//! calls and a few additions per measured span, with no allocation and no
//! hashing. When profiling is off the kernel pays a single branch per
//! delta cycle.

use std::fmt;
use std::time::Duration;

/// Accumulated timing for one kind of span (a process body, a delta
/// cycle, an update phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span executed.
    pub count: u64,
    /// Total wall-clock time spent inside the span.
    pub total: Duration,
    /// Longest single execution.
    pub max: Duration,
}

impl SpanStat {
    /// Folds one measured execution into the accumulator.
    #[inline]
    pub fn record(&mut self, elapsed: Duration) {
        self.record_n(elapsed, 1);
    }

    /// Folds one measured duration that covered `n` executions (a batch
    /// timed by a single clock pair). `elapsed` counts as one booking for
    /// `max`; `n = 0` is a no-op.
    #[inline]
    pub fn record_n(&mut self, elapsed: Duration, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.total += elapsed;
        if elapsed > self.max {
            self.max = elapsed;
        }
    }

    /// Mean time per execution (zero when the span never ran). Exact for
    /// any `count`: the total nanoseconds are divided in `u128`.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let ns = self.total.as_nanos() / u128::from(self.count);
        let secs = u64::try_from(ns / 1_000_000_000).unwrap_or(u64::MAX);
        // The remainder is below 1e9, so it always fits a u32.
        Duration::new(secs, (ns % 1_000_000_000) as u32)
    }
}

/// Wall-clock profile of a kernel run: per-delta-cycle timing plus a
/// per-process breakdown of where the evaluate phases spend their time.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    /// Whole delta cycles (evaluate + update + notify).
    pub delta: SpanStat,
    /// Update-and-notify phases alone.
    pub update: SpanStat,
    /// Per-process body execution, indexed by process index.
    pub per_process: Vec<SpanStat>,
}

impl KernelProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        KernelProfile::default()
    }

    /// The accumulator for process index `i` (see
    /// [`KernelProfile::per_process`]), growing the table if the process
    /// was registered after profiling started.
    #[inline]
    pub fn process_mut(&mut self, i: usize) -> &mut SpanStat {
        if self.per_process.len() <= i {
            self.per_process.resize(i + 1, SpanStat::default());
        }
        &mut self.per_process[i]
    }

    /// Total time attributed to process bodies.
    pub fn process_time(&self) -> Duration {
        self.per_process.iter().map(|s| s.total).sum()
    }

    /// `(process index, stat)` rows sorted by descending total time.
    pub fn hottest_processes(&self) -> Vec<(usize, SpanStat)> {
        let mut rows: Vec<(usize, SpanStat)> = self
            .per_process
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| s.count > 0)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total));
        rows
    }
}

impl fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deltas: {} ({:?} total, {:?} max)",
            self.delta.count, self.delta.total, self.delta.max
        )?;
        writeln!(
            f,
            "updates: {} ({:?} total)",
            self.update.count, self.update.total
        )?;
        for (i, s) in self.hottest_processes() {
            writeln!(
                f,
                "process #{i}: {} activations, {:?} total, {:?} max",
                s.count, s.total, s.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_accumulates() {
        let mut s = SpanStat::default();
        s.record(Duration::from_micros(2));
        s.record(Duration::from_micros(4));
        assert_eq!(s.count, 2);
        assert_eq!(s.total, Duration::from_micros(6));
        assert_eq!(s.max, Duration::from_micros(4));
        assert_eq!(s.mean(), Duration::from_micros(3));
        assert_eq!(SpanStat::default().mean(), Duration::ZERO);
    }

    #[test]
    fn mean_is_exact_past_u32_max_invocations() {
        // 5e9 executions of 100 ns each; the old u32-capped divisor
        // reported ~116 ns here.
        let s = SpanStat {
            count: 5_000_000_000,
            total: Duration::from_secs(500),
            max: Duration::from_nanos(100),
        };
        assert_eq!(s.mean(), Duration::from_nanos(100));
        let long = SpanStat {
            count: 3,
            total: Duration::new(7, 500_000_001),
            max: Duration::ZERO,
        };
        assert_eq!(long.mean(), Duration::new(2, 500_000_000));
    }

    #[test]
    fn profile_grows_per_process_table() {
        let mut p = KernelProfile::new();
        p.process_mut(3).record(Duration::from_nanos(10));
        assert_eq!(p.per_process.len(), 4);
        assert_eq!(p.per_process[3].count, 1);
        assert_eq!(p.process_time(), Duration::from_nanos(10));
        let hot = p.hottest_processes();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, 3);
    }

    #[test]
    fn display_lists_hot_processes() {
        let mut p = KernelProfile::new();
        p.delta.record(Duration::from_micros(1));
        p.process_mut(0).record(Duration::from_micros(1));
        let s = p.to_string();
        assert!(s.contains("deltas: 1"));
        assert!(s.contains("process #0"));
    }
}
