//! Named wall-clock spans for instrumented hot loops.
//!
//! [`SpanSet`] is the analysis-layer sibling of the kernel's
//! [`ahbpower_sim::KernelProfile`]: a flat table of [`SpanStat`]
//! accumulators addressed by [`SpanId`] handles, so timing a span costs
//! two `Instant::now()` calls and a few additions. Hot loops should time
//! a whole batch with one clock pair and book it with
//! [`SpanSet::record_n`]: the session's own `session_observe` span is one
//! clock pair per [`crate::PowerSession::run`], counted per cycle.

use std::time::{Duration, Instant};

use ahbpower_sim::SpanStat;

/// Handle to a registered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A set of named span accumulators.
///
/// # Examples
///
/// ```
/// use ahbpower::telemetry::SpanSet;
///
/// let mut spans = SpanSet::new();
/// let work = spans.register("observe");
/// let t = spans.start();
/// // ... hot work ...
/// spans.stop(work, t);
/// assert_eq!(spans.stat(work).count, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    names: Vec<String>,
    stats: Vec<SpanStat>,
}

impl SpanSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Registers (or finds) a span by name.
    pub fn register(&mut self, name: &str) -> SpanId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SpanId(i);
        }
        self.names.push(name.to_string());
        self.stats.push(SpanStat::default());
        SpanId(self.names.len() - 1)
    }

    /// Captures the current instant; pair with [`SpanSet::stop`].
    #[inline]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Closes a span opened by [`SpanSet::start`].
    #[inline]
    pub fn stop(&mut self, id: SpanId, started: Instant) {
        self.stats[id.0].record(started.elapsed());
    }

    /// Folds an externally measured duration into a span.
    #[inline]
    pub fn record(&mut self, id: SpanId, elapsed: Duration) {
        self.stats[id.0].record(elapsed);
    }

    /// Folds one externally measured duration covering `n` executions
    /// into a span: the count grows by `n`, the total by `elapsed`, and
    /// `elapsed` competes for `max` as one booking. `n = 0` is a no-op.
    #[inline]
    pub fn record_n(&mut self, id: SpanId, elapsed: Duration, n: u64) {
        self.stats[id.0].record_n(elapsed, n);
    }

    /// The accumulator for one span.
    pub fn stat(&self, id: SpanId) -> &SpanStat {
        &self.stats[id.0]
    }

    /// `(name, stat)` rows in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SpanStat)> {
        self.names.iter().map(String::as_str).zip(self.stats.iter())
    }

    /// Number of registered spans.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no spans are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_register_idempotently_and_accumulate() {
        let mut s = SpanSet::new();
        let a = s.register("observe");
        assert_eq!(s.register("observe"), a);
        let b = s.register("export");
        assert_ne!(a, b);
        s.record(a, Duration::from_micros(3));
        s.record(a, Duration::from_micros(1));
        assert_eq!(s.stat(a).count, 2);
        assert_eq!(s.stat(a).total, Duration::from_micros(4));
        assert_eq!(s.stat(b).count, 0);
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["observe", "export"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn record_n_books_one_batch_of_n_executions() {
        let mut s = SpanSet::new();
        let id = s.register("batch");
        s.record_n(id, Duration::from_micros(5), 17);
        s.record_n(id, Duration::from_micros(9), 23);
        s.record_n(id, Duration::from_micros(2), 3);
        let st = s.stat(id);
        assert_eq!(st.count, 43);
        assert_eq!(st.total, Duration::from_micros(16));
        assert_eq!(
            st.max,
            Duration::from_micros(9),
            "max is the largest booking"
        );
        // n = 0 is a no-op, even with a duration that would set a new max.
        s.record_n(id, Duration::from_secs(1), 0);
        let st = s.stat(id);
        assert_eq!(
            (st.count, st.total, st.max),
            (43, Duration::from_micros(16), Duration::from_micros(9))
        );
    }

    #[test]
    fn start_stop_measures_something() {
        let mut s = SpanSet::new();
        let id = s.register("tick");
        let t = s.start();
        s.stop(id, t);
        assert_eq!(s.stat(id).count, 1);
    }
}
