//! A small, allocation-conscious metrics registry.
//!
//! Metrics are registered once (idempotently, keyed by name + label set)
//! and updated through integer handles, so steady-state updates touch a
//! `Vec` slot and nothing else. The registry is a passive store: the
//! exporters in [`crate::telemetry::export`] render its contents.

use ahbpower_ahb::CycleHistogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// Name, help text and label set shared by every metric kind.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricMeta {
    /// Metric name in Prometheus style (`ahb_master_wait_cycles_total`).
    pub name: String,
    /// One-line human description, exported as `# HELP`.
    pub help: String,
    /// Label key/value pairs (`[("master", "1")]`).
    pub labels: Vec<(String, String)>,
}

impl MetricMeta {
    fn matches(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (lk, lv))| k == lk && v == lv)
    }
}

/// A monotonically increasing value (cycle counts, energy totals).
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    /// Identity of the metric.
    pub meta: MetricMeta,
    /// Current value. Energy totals make this an `f64` rather than `u64`.
    pub value: f64,
}

/// A point-in-time value (utilization ratios, rates).
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    /// Identity of the metric.
    pub meta: MetricMeta,
    /// Current value.
    pub value: f64,
}

/// A fixed-bucket distribution (latencies, burst lengths).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Identity of the metric.
    pub meta: MetricMeta,
    /// The underlying bucket store.
    pub hist: CycleHistogram,
}

impl Histogram {
    /// Folds another histogram of the same bucket layout into this one
    /// (see [`CycleHistogram::merge`]). The metric identity (`meta`) of
    /// `self` wins; only the sample population merges.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        self.hist.merge(&other.hist);
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Whether `name` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Rewrites an arbitrary string into a valid metric name: every invalid
/// character becomes `_`, and a leading digit gains a `_` prefix. An
/// empty input becomes `"_"`. Use this for names built from untrusted
/// input (scenario labels, file names) before registering them.
pub fn sanitize_metric_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Rejects an invalid metric name with an error naming the offender.
fn check_metric_name(name: &str) {
    assert!(
        is_valid_metric_name(name),
        "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]* \
         (sanitize_metric_name() rewrites arbitrary strings)"
    );
}

/// The registry: flat stores per metric kind, addressed by typed handles.
///
/// # Examples
///
/// ```
/// use ahbpower::telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// let c = reg.counter("ahb_cycles_total", "Bus cycles simulated.", &[]);
/// reg.add(c, 100.0);
/// reg.add(c, 20.0);
/// assert_eq!(reg.counters()[0].value, 120.0);
/// // Registration is idempotent: same name + labels, same handle.
/// assert_eq!(reg.counter("ahb_cycles_total", "", &[]), c);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter for `name` + `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid Prometheus metric name
    /// ([`is_valid_metric_name`]); pass untrusted names through
    /// [`sanitize_metric_name`] first.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        check_metric_name(name);
        if let Some(i) = self
            .counters
            .iter()
            .position(|c| c.meta.matches(name, labels))
        {
            return CounterId(i);
        }
        self.counters.push(Counter {
            meta: MetricMeta {
                name: name.to_string(),
                help: help.to_string(),
                labels: owned_labels(labels),
            },
            value: 0.0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge for `name` + `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid (see [`MetricsRegistry::counter`]).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        check_metric_name(name);
        if let Some(i) = self
            .gauges
            .iter()
            .position(|g| g.meta.matches(name, labels))
        {
            return GaugeId(i);
        }
        self.gauges.push(Gauge {
            meta: MetricMeta {
                name: name.to_string(),
                help: help.to_string(),
                labels: owned_labels(labels),
            },
            value: 0.0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram with the given bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid (see [`MetricsRegistry::counter`])
    /// or `bounds` is empty / not strictly increasing.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> HistogramId {
        check_metric_name(name);
        if let Some(i) = self
            .histograms
            .iter()
            .position(|h| h.meta.matches(name, labels))
        {
            return HistogramId(i);
        }
        self.histograms.push(Histogram {
            meta: MetricMeta {
                name: name.to_string(),
                help: help.to_string(),
                labels: owned_labels(labels),
            },
            hist: CycleHistogram::new(bounds),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].value += 1.0;
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: f64) {
        self.counters[id.0].value += delta;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].hist.observe(value);
    }

    /// Replaces a histogram's contents with an externally accumulated one
    /// (used to publish analyzer histograms without re-observing).
    pub fn set_histogram(&mut self, id: HistogramId, hist: &CycleHistogram) {
        self.histograms[id.0].hist = hist.clone();
    }

    /// All counters, in registration order.
    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    /// All gauges, in registration order.
    pub fn gauges(&self) -> &[Gauge] {
        &self.gauges
    }

    /// All histograms, in registration order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.histograms
    }

    /// Total number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a counter's value by name and labels (test/report helper).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.counters
            .iter()
            .find(|c| c.meta.matches(name, labels))
            .map(|c| c.value)
    }

    /// Looks up a gauge's value by name and labels (test/report helper).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.meta.matches(name, labels))
            .map(|g| g.value)
    }

    /// Looks up a histogram by name and labels (test/report helper).
    pub fn histogram_by_name(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&CycleHistogram> {
        self.histograms
            .iter()
            .find(|h| h.meta.matches(name, labels))
            .map(|h| &h.hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_validation() {
        assert!(is_valid_metric_name("ahb_cycles_total"));
        assert!(is_valid_metric_name("_private:scoped"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9lives"));
        assert!(!is_valid_metric_name("has space"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name("unicode_µ"));
    }

    #[test]
    fn sanitize_rewrites_into_valid_names() {
        for raw in ["", "9lives", "paper testbench", "a-b.c/d", "µW", "ok_name"] {
            let cleaned = sanitize_metric_name(raw);
            assert!(
                is_valid_metric_name(&cleaned),
                "{raw:?} -> {cleaned:?} must be valid"
            );
        }
        assert_eq!(sanitize_metric_name("a-b.c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name"), "ok_name");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registering_an_invalid_name_is_rejected() {
        let mut reg = MetricsRegistry::new();
        reg.counter("has space", "nope", &[]);
    }

    #[test]
    fn counters_register_idempotently() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "X.", &[("master", "0")]);
        let b = reg.counter("x_total", "X.", &[("master", "1")]);
        let a2 = reg.counter("x_total", "ignored on re-registration", &[("master", "0")]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        reg.inc(a);
        reg.add(b, 2.5);
        assert_eq!(reg.counter_value("x_total", &[("master", "0")]), Some(1.0));
        assert_eq!(reg.counter_value("x_total", &[("master", "1")]), Some(2.5));
        assert_eq!(reg.counter_value("x_total", &[]), None);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("ratio", "A ratio.", &[]);
        reg.set(g, 0.25);
        reg.set(g, 0.5);
        assert_eq!(reg.gauge_value("ratio", &[]), Some(0.5));
    }

    #[test]
    fn histograms_observe_and_import() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "Latency.", &[], &[1, 4]);
        reg.observe(h, 0);
        reg.observe(h, 9);
        let stored = reg.histogram_by_name("lat", &[]).unwrap();
        assert_eq!(stored.count(), 2);
        assert_eq!(stored.bucket_counts(), &[1, 0, 1]);

        let mut external = CycleHistogram::new(&[2]);
        external.observe(1);
        reg.set_histogram(h, &external);
        assert_eq!(reg.histogram_by_name("lat", &[]).unwrap().count(), 1);
    }
}
