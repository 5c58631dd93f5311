//! Exporters: render a [`MetricsRegistry`] as JSONL, CSV or Prometheus
//! text exposition, a transaction trace as Chrome trace-event JSON, and
//! an [`AttributionTable`] as folded flamegraph stacks. Prometheus text
//! has one writer, [`PromWriter`]: [`to_prometheus`] walks a registry
//! through it, and series defined against [`MetricSink`] write through
//! it without building a registry at all.
//!
//! All formats are produced by hand (the workspace's vendored `serde` is
//! an offline no-op stub), which also keeps the output format under test
//! here rather than behind a derive.

use std::fmt::Write as _;

use ahbpower_ahb::{CycleHistogram, SlaveId};

use crate::attribution::AttributionTable;
use crate::telemetry::events::Event;
use crate::telemetry::registry::{MetricMeta, MetricsRegistry};
use crate::trace::TracePoint;
use crate::txn::TxnRecord;

/// Run-level metadata stamped into exports.
#[derive(Debug, Clone, Default)]
pub struct ExportMeta {
    /// Scenario label (e.g. `paper_testbench`).
    pub scenario: String,
    /// Bus cycles simulated.
    pub cycles: u64,
    /// Seed the workload was generated from.
    pub seed: u64,
}

/// Escapes a string for embedding in a JSON string literal: `"`, `\`
/// and `\n` get their two-character escapes, every other control
/// character becomes a `\u00XX` escape. The output parses back to the
/// input under any RFC 8259 reader (property-tested against the bench
/// crate's hand-rolled parser).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON-compatible number (JSON has no infinities
/// or NaN; those become `null`). Every hand-built JSON document in the
/// workspace formats its floats through this one helper.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_labels(meta: &MetricMeta) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in meta.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Renders the registry as a JSONL event stream: one `meta` event, then
/// one event per metric. Histogram events carry bucket bounds, per-bucket
/// counts, sum and count.
pub fn to_jsonl(reg: &MetricsRegistry, meta: &ExportMeta) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"event\":\"meta\",\"scenario\":\"{}\",\"cycles\":{},\"seed\":{}}}",
        json_escape(&meta.scenario),
        meta.cycles,
        meta.seed
    );
    for c in reg.counters() {
        let _ = writeln!(
            out,
            "{{\"event\":\"counter\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            json_escape(&c.meta.name),
            json_labels(&c.meta),
            json_num(c.value)
        );
    }
    for g in reg.gauges() {
        let _ = writeln!(
            out,
            "{{\"event\":\"gauge\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            json_escape(&g.meta.name),
            json_labels(&g.meta),
            json_num(g.value)
        );
    }
    for h in reg.histograms() {
        let bounds: Vec<String> = h.hist.bounds().iter().map(|b| b.to_string()).collect();
        let counts: Vec<String> = h
            .hist
            .bucket_counts()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let _ = writeln!(
            out,
            "{{\"event\":\"histogram\",\"name\":\"{}\",\"labels\":{},\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"count\":{}}}",
            json_escape(&h.meta.name),
            json_labels(&h.meta),
            bounds.join(","),
            counts.join(","),
            h.hist.sum(),
            h.hist.count()
        );
    }
    out
}

/// Renders a batch of structured [`Event`]s as a JSONL document: the
/// standard `meta` line (scenario, cycles, seed — same shape as
/// [`to_jsonl`]) followed by one event object per line, oldest first.
/// This is what `repro serve` flushes to `results/events.jsonl`.
pub fn events_to_jsonl(events: &[Event], meta: &ExportMeta) -> String {
    let mut out = String::with_capacity(64 + 96 * events.len());
    let _ = writeln!(
        out,
        "{{\"event\":\"meta\",\"scenario\":\"{}\",\"cycles\":{},\"seed\":{}}}",
        json_escape(&meta.scenario),
        meta.cycles,
        meta.seed
    );
    for e in events {
        out.push_str(&e.to_json_obj());
        out.push('\n');
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_labels(meta: &MetricMeta) -> String {
    let joined: Vec<String> = meta
        .labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    csv_field(&joined.join(";"))
}

/// Renders the registry as CSV with columns `kind,name,labels,field,value`.
/// Scalars emit one `value` row; histograms emit one row per bucket
/// (`field` = `le=<bound>` / `le=+Inf`, cumulative counts) plus `sum`,
/// `count`, and interpolated `p50`/`p95`/`p99` rows (see
/// [`ahbpower_ahb::CycleHistogram::quantile`]).
pub fn to_csv(reg: &MetricsRegistry) -> String {
    let mut out = String::from("kind,name,labels,field,value\n");
    for c in reg.counters() {
        let _ = writeln!(
            out,
            "counter,{},{},value,{}",
            csv_field(&c.meta.name),
            csv_labels(&c.meta),
            c.value
        );
    }
    for g in reg.gauges() {
        let _ = writeln!(
            out,
            "gauge,{},{},value,{}",
            csv_field(&g.meta.name),
            csv_labels(&g.meta),
            g.value
        );
    }
    for h in reg.histograms() {
        let name = csv_field(&h.meta.name);
        let labels = csv_labels(&h.meta);
        let cumulative = h.hist.cumulative_counts();
        for (i, cum) in cumulative.iter().enumerate() {
            let le = match h.hist.bounds().get(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "histogram,{name},{labels},le={le},{cum}");
        }
        let _ = writeln!(out, "histogram,{name},{labels},sum,{}", h.hist.sum());
        let _ = writeln!(out, "histogram,{name},{labels},count,{}", h.hist.count());
        for (field, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            let _ = writeln!(
                out,
                "histogram,{name},{labels},{field},{}",
                h.hist.quantile(q)
            );
        }
    }
    out
}

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
/// [`prom_unescape_label`] inverts it exactly.
pub fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    push_prom_escaped(&mut out, v);
    out
}

/// Appends `v` escaped as [`prom_escape_label`] does.
fn push_prom_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Inverts [`prom_escape_label`]. Unknown escape sequences and a
/// trailing lone backslash are preserved literally (the exposition
/// format defines only the three escapes).
pub fn prom_unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// What a metric family holds: its `# TYPE` in the exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing total.
    #[default]
    Counter,
    /// A point-in-time value.
    Gauge,
    /// A fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` spelling.
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One counter or gauge sample value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleValue {
    /// An integral count, printed as an integer.
    Count(u64),
    /// A measurement, printed through `f64` `Display` (the shortest
    /// form that parses back to the same bits).
    Value(f64),
}

impl From<u64> for SampleValue {
    fn from(v: u64) -> Self {
        SampleValue::Count(v)
    }
}

impl From<f64> for SampleValue {
    fn from(v: f64) -> Self {
        SampleValue::Value(v)
    }
}

impl SampleValue {
    /// The value as the registry stores it.
    fn as_f64(self) -> f64 {
        match self {
            SampleValue::Count(v) => v as f64,
            SampleValue::Value(v) => v,
        }
    }

    /// Appends the value as the exposition writes it.
    fn push(self, out: &mut String) {
        let _ = match self {
            SampleValue::Count(v) => write!(out, "{v}"),
            SampleValue::Value(v) => write!(out, "{v}"),
        };
    }
}

/// A destination for metric families, written one family at a time:
/// [`MetricSink::family`] opens a family and the samples that follow
/// belong to it. [`PromWriter`] renders them as exposition text,
/// [`RegistrySink`] registers them into a [`MetricsRegistry`], so one
/// series definition can feed both.
pub trait MetricSink {
    /// Opens a family; the samples that follow belong to it.
    fn family(&mut self, name: &str, help: &str, kind: MetricKind);
    /// One counter or gauge sample of the open family.
    fn sample(&mut self, labels: &[(&str, &str)], value: impl Into<SampleValue>);
    /// One histogram of the open family: its cumulative buckets, sum
    /// and count.
    fn histogram(&mut self, labels: &[(&str, &str)], hist: &CycleHistogram);
}

/// Writes the Prometheus text exposition format (version 0.0.4)
/// straight into one `String`: `# HELP`/`# TYPE` once per family,
/// written just before its first sample (a family without samples
/// leaves no trace), then one line per counter/gauge sample and
/// cumulative `_bucket{le=...}`/`_sum`/`_count` lines per histogram.
/// Nothing is allocated per sample.
///
/// # Examples
///
/// ```
/// use ahbpower::telemetry::{MetricKind, MetricSink, PromWriter};
///
/// let mut w = PromWriter::default();
/// w.family("ahb_cycles_total", "Bus cycles.", MetricKind::Counter);
/// w.sample(&[("shard", "1")], 42u64);
/// let text = w.finish();
/// let lines: Vec<&str> = text.lines().collect();
/// assert_eq!(lines[0], "# HELP ahb_cycles_total Bus cycles.");
/// assert_eq!(lines[1], "# TYPE ahb_cycles_total counter");
/// assert_eq!(lines[2], "ahb_cycles_total{shard=\"1\"} 42");
/// ```
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    /// The open family's name, help text and kind.
    name: String,
    help: String,
    kind: MetricKind,
    /// Whether the open family's header is still unwritten.
    header_due: bool,
}

impl PromWriter {
    /// A writer whose buffer starts with room for `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        PromWriter {
            out: String::with_capacity(bytes),
            ..PromWriter::default()
        }
    }

    /// The exposition text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes the open family's header if it is still due, then
    /// `name{suffix}` and its labels, leaving the brace open when there
    /// are any.
    fn start_line(&mut self, suffix: &str, labels: &[(&str, &str)]) {
        if self.header_due {
            self.header_due = false;
            self.out.push_str("# HELP ");
            self.out.push_str(&self.name);
            self.out.push(' ');
            for (i, part) in self.help.split('\n').enumerate() {
                if i > 0 {
                    self.out.push(' ');
                }
                self.out.push_str(part);
            }
            self.out.push_str("\n# TYPE ");
            self.out.push_str(&self.name);
            self.out.push(' ');
            self.out.push_str(self.kind.as_str());
            self.out.push('\n');
        }
        self.out.push_str(&self.name);
        self.out.push_str(suffix);
        for (i, (k, v)) in labels.iter().enumerate() {
            self.out.push(if i == 0 { '{' } else { ',' });
            self.out.push_str(k);
            self.out.push_str("=\"");
            push_prom_escaped(&mut self.out, v);
            self.out.push('"');
        }
    }

    /// One `name{suffix}{labels} value` line.
    fn line(&mut self, suffix: &str, labels: &[(&str, &str)], value: SampleValue) {
        self.start_line(suffix, labels);
        if !labels.is_empty() {
            self.out.push('}');
        }
        self.out.push(' ');
        value.push(&mut self.out);
        self.out.push('\n');
    }
}

impl MetricSink for PromWriter {
    fn family(&mut self, name: &str, help: &str, kind: MetricKind) {
        self.name.clear();
        self.name.push_str(name);
        self.help.clear();
        self.help.push_str(help);
        self.kind = kind;
        self.header_due = true;
    }

    fn sample(&mut self, labels: &[(&str, &str)], value: impl Into<SampleValue>) {
        self.line("", labels, value.into());
    }

    fn histogram(&mut self, labels: &[(&str, &str)], hist: &CycleHistogram) {
        let mut cumulative = 0u64;
        for (i, count) in hist.bucket_counts().iter().enumerate() {
            cumulative += count;
            self.start_line("_bucket", labels);
            self.out.push_str(if labels.is_empty() {
                "{le=\""
            } else {
                ",le=\""
            });
            match hist.bounds().get(i) {
                Some(bound) => {
                    let _ = write!(self.out, "{bound}");
                }
                None => self.out.push_str("+Inf"),
            }
            let _ = writeln!(self.out, "\"}} {cumulative}");
        }
        self.line("_sum", labels, SampleValue::Count(hist.sum()));
        self.line("_count", labels, SampleValue::Count(hist.count()));
    }
}

/// A [`MetricSink`] that registers every sample into a
/// [`MetricsRegistry`] (counters add, gauges set, histograms are
/// copied), so series written for [`PromWriter`] also reach the
/// registry's other exporters.
#[derive(Debug, Default)]
pub struct RegistrySink {
    /// The registry the samples land in.
    pub registry: MetricsRegistry,
    name: String,
    help: String,
    kind: MetricKind,
}

impl MetricSink for RegistrySink {
    fn family(&mut self, name: &str, help: &str, kind: MetricKind) {
        self.name = name.to_string();
        self.help = help.to_string();
        self.kind = kind;
    }

    fn sample(&mut self, labels: &[(&str, &str)], value: impl Into<SampleValue>) {
        let (reg, value) = (&mut self.registry, value.into().as_f64());
        if self.kind == MetricKind::Gauge {
            let id = reg.gauge(&self.name, &self.help, labels);
            reg.set(id, value);
        } else {
            let id = reg.counter(&self.name, &self.help, labels);
            reg.add(id, value);
        }
    }

    fn histogram(&mut self, labels: &[(&str, &str)], hist: &CycleHistogram) {
        let reg = &mut self.registry;
        let id = reg.histogram(&self.name, &self.help, labels, hist.bounds());
        reg.set_histogram(id, hist);
    }
}

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4) through a [`PromWriter`]: counters, then gauges,
/// then histograms, each in registration order, with `# HELP`/`# TYPE`
/// once per metric name.
pub fn to_prometheus(reg: &MetricsRegistry) -> String {
    /// Opens `meta`'s family; a name seen before gets no second header.
    fn open<'r>(
        w: &mut PromWriter,
        seen: &mut Vec<&'r str>,
        meta: &'r MetricMeta,
        kind: MetricKind,
    ) {
        w.family(&meta.name, &meta.help, kind);
        if seen.contains(&meta.name.as_str()) {
            w.header_due = false;
        } else {
            seen.push(&meta.name);
        }
    }
    /// `meta`'s labels as borrowed pairs, in a reused buffer.
    fn labels<'r>(buf: &mut Vec<(&'r str, &'r str)>, meta: &'r MetricMeta) {
        buf.clear();
        buf.extend(meta.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    }
    let mut w = PromWriter::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut buf: Vec<(&str, &str)> = Vec::new();
    for c in reg.counters() {
        open(&mut w, &mut seen, &c.meta, MetricKind::Counter);
        labels(&mut buf, &c.meta);
        w.sample(&buf, c.value);
    }
    for g in reg.gauges() {
        open(&mut w, &mut seen, &g.meta, MetricKind::Gauge);
        labels(&mut buf, &g.meta);
        w.sample(&buf, g.value);
    }
    for h in reg.histograms() {
        open(&mut w, &mut seen, &h.meta, MetricKind::Histogram);
        labels(&mut buf, &h.meta);
        w.histogram(&buf, &h.hist);
    }
    w.finish()
}

/// Metadata for the Chrome trace-event exporter.
#[derive(Debug, Clone)]
pub struct TraceEventMeta {
    /// Scenario label (e.g. `paper_testbench`).
    pub scenario: String,
    /// Masters on the bus (one Perfetto track each).
    pub n_masters: usize,
    /// Bus clock period in picoseconds (cycle stamps → microseconds).
    pub period_ps: u64,
    /// Seed the workload was generated from.
    pub seed: u64,
}

/// The label a transaction's slave gets in exports: `S<n>`, or `default`
/// for transfers no HSEL line claimed (and idle attribution cells).
fn slave_label(slave: Option<SlaveId>) -> String {
    match slave {
        Some(s) => format!("{s}"),
        None => "default".to_string(),
    }
}

/// Renders completed transactions plus the windowed power trace as a
/// Chrome trace-event JSON document (the format `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev) open directly).
///
/// Layout: process 1 carries one thread ("track") per master, named
/// `M0..M<n>`, with one complete (`ph:"X"`) event per transaction —
/// timestamped in microseconds from the cycle stamps and `meta.period_ps`
/// — whose args carry slave, burst shape, wait/grant cycles and energy.
/// Process 2 carries counter (`ph:"C"`) tracks with the windowed total
/// and per-block power in milliwatts, reusing the session's
/// [`TracePoint`]s.
pub fn to_trace_events<'a>(
    records: impl IntoIterator<Item = &'a TxnRecord>,
    power: &[TracePoint],
    meta: &TraceEventMeta,
) -> String {
    let us_per_cycle = meta.period_ps as f64 / 1e6;
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"AHB transactions ({})\"}}}}",
        json_escape(&meta.scenario)
    ));
    for m in 0..meta.n_masters {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{m},\"args\":{{\"name\":\"M{m}\"}}}}"
        ));
    }
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"AHB windowed power\"}}"
            .to_string(),
    );
    for r in records {
        let name = format!(
            "{} {}",
            if r.write { "WRITE" } else { "READ" },
            slave_label(r.slave)
        );
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"txn\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"addr\":\"{:#010x}\",\"burst\":\"{:?}\",\"beats\":{},\"wait_cycles\":{},\"grant_wait_cycles\":{},\"energy_pj\":{}}}}}",
            json_escape(&name),
            r.master.index(),
            json_num(r.start_cycle as f64 * us_per_cycle),
            json_num(r.occupancy_cycles() as f64 * us_per_cycle),
            r.id,
            r.addr,
            r.burst,
            r.beats,
            r.wait_cycles,
            r.grant_wait_cycles,
            json_num(r.energy.total() * 1e12)
        ));
    }
    for p in power {
        let ts = json_num(p.time_s * 1e6);
        events.push(format!(
            "{{\"name\":\"total_power_mW\",\"ph\":\"C\",\"pid\":2,\"ts\":{ts},\"args\":{{\"total\":{}}}}}",
            json_num(p.total_w * 1e3)
        ));
        events.push(format!(
            "{{\"name\":\"block_power_mW\",\"ph\":\"C\",\"pid\":2,\"ts\":{ts},\"args\":{{\"m2s\":{},\"s2m\":{},\"dec\":{},\"arb\":{}}}}}",
            json_num(p.m2s_w * 1e3),
            json_num(p.s2m_w * 1e3),
            json_num(p.dec_w * 1e3),
            json_num(p.arb_w * 1e3)
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"scenario\":\"{}\",\"seed\":{}}}}}\n",
        events.join(","),
        json_escape(&meta.scenario),
        meta.seed
    )
}

/// Renders an [`AttributionTable`] as folded stacks —
/// `master;slave;instruction;block <femtojoules>`, one line per non-zero
/// cell×block — the input format of standard flamegraph tooling
/// (`inferno-flamegraph`, `flamegraph.pl`).
///
/// The sample count is the attributed energy in **femtojoules**, rounded
/// to an integer (the tools require integer counts); cells rounding to
/// zero are dropped.
pub fn to_folded(table: &AttributionTable) -> String {
    let mut out = String::new();
    for row in table.rows() {
        let stack = format!(
            "{};{};{}",
            row.master,
            slave_label(row.slave),
            row.instruction.name()
        );
        for (block, joules) in [
            ("M2S", row.energy.m2s),
            ("DEC", row.energy.dec),
            ("ARB", row.energy.arb),
            ("S2M", row.energy.s2m),
        ] {
            let fj = (joules * 1e15).round();
            if fj >= 1.0 {
                let _ = writeln!(out, "{stack};{block} {}", fj as u64);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("ahb_cycles_total", "Bus cycles.", &[]);
        reg.add(c, 100.0);
        let c = reg.counter("ahb_master_wait_cycles_total", "Waits.", &[("master", "0")]);
        reg.add(c, 7.0);
        let c = reg.counter("ahb_master_wait_cycles_total", "Waits.", &[("master", "1")]);
        reg.add(c, 3.0);
        let g = reg.gauge("ahb_bus_utilization_ratio", "Utilization.", &[]);
        reg.set(g, 0.5);
        let h = reg.histogram("ahb_arbitration_latency_cycles", "Latency.", &[], &[1, 4]);
        reg.observe(h, 0);
        reg.observe(h, 2);
        reg.observe(h, 99);
        reg
    }

    #[test]
    fn jsonl_is_line_delimited_json() {
        let reg = sample_registry();
        let meta = ExportMeta {
            scenario: "paper_testbench".to_string(),
            cycles: 100,
            seed: 2003,
        };
        let out = to_jsonl(&reg, &meta);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            1 + 3 + 1 + 1,
            "meta + 3 counters + gauge + histogram"
        );
        assert_eq!(
            lines[0],
            "{\"event\":\"meta\",\"scenario\":\"paper_testbench\",\"cycles\":100,\"seed\":2003}"
        );
        assert!(lines[2].contains("\"labels\":{\"master\":\"0\"}"));
        assert!(lines[5].contains("\"bounds\":[1,4]"));
        assert!(lines[5].contains("\"counts\":[1,1,1]"));
        assert!(lines[5].contains("\"sum\":101"));
        // Every line is a standalone JSON object.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn csv_expands_histogram_buckets() {
        let out = to_csv(&sample_registry());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "kind,name,labels,field,value");
        assert!(lines.contains(&"counter,ahb_master_wait_cycles_total,master=0,value,7"));
        assert!(lines.contains(&"histogram,ahb_arbitration_latency_cycles,,le=1,1"));
        assert!(lines.contains(&"histogram,ahb_arbitration_latency_cycles,,le=+Inf,3"));
        assert!(lines.contains(&"histogram,ahb_arbitration_latency_cycles,,sum,101"));
    }

    #[test]
    fn csv_emits_interpolated_percentiles() {
        let out = to_csv(&sample_registry());
        let lines: Vec<&str> = out.lines().collect();
        // Buckets: le=1 holds {0}, le=4 holds {2}, +Inf holds {99}.
        // p50: rank 1.5 of 3 → interpolates within (1,4].
        assert!(lines.contains(&"histogram,ahb_arbitration_latency_cycles,,p50,2.5"));
        // p95/p99: rank lands in the overflow bucket → clamped to le=4.
        assert!(lines.contains(&"histogram,ahb_arbitration_latency_cycles,,p95,4"));
        assert!(lines.contains(&"histogram,ahb_arbitration_latency_cycles,,p99,4"));
    }

    #[test]
    fn prom_label_escape_round_trips_known_cases() {
        for raw in [
            "plain",
            "back\\slash",
            "quo\"te",
            "new\nline",
            "\\\"\n",
            "trailing\\",
            "\\n literal",
        ] {
            let escaped = prom_escape_label(raw);
            assert!(!escaped.contains('\n'), "escaped form is single-line");
            assert_eq!(prom_unescape_label(&escaped), raw, "escaped: {escaped:?}");
        }
        // Unknown escapes and lone trailing backslashes survive unescape.
        assert_eq!(prom_unescape_label("\\x"), "\\x");
        assert_eq!(prom_unescape_label("end\\"), "end\\");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let out = to_prometheus(&sample_registry());
        assert!(out.contains("# HELP ahb_cycles_total Bus cycles.\n"));
        assert!(out.contains("# TYPE ahb_cycles_total counter\n"));
        assert!(out.contains("ahb_cycles_total 100\n"));
        assert!(out.contains("ahb_master_wait_cycles_total{master=\"0\"} 7\n"));
        assert!(out.contains("ahb_master_wait_cycles_total{master=\"1\"} 3\n"));
        // HELP/TYPE emitted once per family, not per labelled series.
        assert_eq!(
            out.matches("# TYPE ahb_master_wait_cycles_total").count(),
            1
        );
        assert!(out.contains("# TYPE ahb_bus_utilization_ratio gauge\n"));
        assert!(out.contains("# TYPE ahb_arbitration_latency_cycles histogram\n"));
        assert!(out.contains("ahb_arbitration_latency_cycles_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("ahb_arbitration_latency_cycles_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("ahb_arbitration_latency_cycles_sum 101\n"));
        assert!(out.contains("ahb_arbitration_latency_cycles_count 3\n"));
    }

    #[test]
    fn trace_events_have_tracks_counters_and_valid_shape() {
        use crate::instruction::{ActivityMode, Instruction};
        use crate::macromodel::BlockEnergy;
        use ahbpower_ahb::{HBurst, MasterId};

        let mut table = AttributionTable::new();
        table.record(
            MasterId(1),
            Some(SlaveId(0)),
            Instruction::new(ActivityMode::Idle, ActivityMode::Write),
            BlockEnergy {
                dec: 1e-12,
                m2s: 3e-12,
                s2m: 0.0,
                arb: 1e-12,
            },
        );
        let txn = TxnRecord {
            id: 0,
            master: MasterId(1),
            slave: Some(SlaveId(0)),
            write: true,
            addr: 0x40,
            burst: HBurst::Incr4,
            request_cycle: Some(0),
            grant_cycle: Some(1),
            grant_wait_cycles: 1,
            start_cycle: 2,
            complete_cycle: 6,
            beats: 4,
            ok_beats: 4,
            wait_cycles: 1,
            energy: BlockEnergy {
                dec: 1e-12,
                m2s: 3e-12,
                s2m: 0.0,
                arb: 1e-12,
            },
        };
        let power = [TracePoint {
            time_s: 0.0,
            total_w: 0.002,
            dec_w: 0.0005,
            m2s_w: 0.001,
            s2m_w: 0.0,
            arb_w: 0.0005,
        }];
        let meta = TraceEventMeta {
            scenario: "unit".to_string(),
            n_masters: 2,
            period_ps: 10_000,
            seed: 7,
        };
        let out = to_trace_events([&txn], &power, &meta);
        // One thread-name track per master.
        assert!(out.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"M0\"}}"));
        assert!(out.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"M1\"}}"));
        // The transaction: 10 ns cycles → start 0.02 µs, 5 cycles → 0.05 µs.
        assert!(out.contains("\"name\":\"WRITE S0\""), "{out}");
        assert!(out.contains("\"ts\":0.02,\"dur\":0.05"), "{out}");
        assert!(out.contains("\"burst\":\"Incr4\""));
        assert!(out.contains("\"energy_pj\":"));
        // Counter tracks in milliwatts.
        assert!(out.contains(
            "\"name\":\"total_power_mW\",\"ph\":\"C\",\"pid\":2,\"ts\":0,\"args\":{\"total\":2}"
        ));
        assert!(out.contains("\"name\":\"block_power_mW\""));
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.trim_end().ends_with("\"seed\":7}}"));
    }

    #[test]
    fn folded_stacks_are_integer_femtojoules() {
        use crate::instruction::{ActivityMode, Instruction};
        use crate::macromodel::BlockEnergy;
        use ahbpower_ahb::MasterId;

        let mut table = AttributionTable::new();
        table.record(
            MasterId(0),
            Some(SlaveId(2)),
            Instruction::new(ActivityMode::Write, ActivityMode::Read),
            BlockEnergy {
                dec: 2e-15,
                m2s: 7.4e-15,
                s2m: 0.2e-15, // rounds to 0 fJ: dropped
                arb: 1e-15,
            },
        );
        table.record(
            MasterId(1),
            None,
            Instruction::new(ActivityMode::Idle, ActivityMode::Idle),
            BlockEnergy {
                dec: 0.0,
                m2s: 0.0,
                s2m: 0.0,
                arb: 3e-15,
            },
        );
        let out = to_folded(&table);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                "M0;S2;WRITE_READ;M2S 7",
                "M0;S2;WRITE_READ;DEC 2",
                "M0;S2;WRITE_READ;ARB 1",
                "M1;default;IDLE_IDLE;ARB 3",
            ]
        );
        // Every line: stack frames joined by ';', space, integer count.
        for line in lines {
            let (stack, count) = line.rsplit_once(' ').expect("space separator");
            assert_eq!(stack.split(';').count(), 4);
            assert!(count.parse::<u64>().is_ok(), "{count}");
        }
    }

    #[test]
    fn escaping_is_applied() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("weird_total", "Help with \"quotes\".", &[("k", "a\"b,c")]);
        reg.add(c, 1.0);
        let jsonl = to_jsonl(&reg, &ExportMeta::default());
        assert!(jsonl.contains("\"k\":\"a\\\"b,c\""));
        let csv = to_csv(&reg);
        assert!(csv.contains("\"k=a\"\"b,c\""));
        let prom = to_prometheus(&reg);
        assert!(prom.contains("weird_total{k=\"a\\\"b,c\"} 1"));
    }
}
