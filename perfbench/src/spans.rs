//! Layer spans for the traced run.
//!
//! The benchmark times its own calls into each layer's public functions,
//! one span per batch of work, and keeps every span in memory until the
//! run ends. A [`SpanLog`] belongs to one thread: its root is the
//! thread's traced wall time, and each span under it is one layer call.
//! The root's self time (wall minus the layer spans) is what the spans
//! fail to explain; [`SpanLog::residual`] reports it as a share of the
//! wall, the time-conservation check.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;
use crate::Outcome;

/// Largest share of a traced thread's wall time its layer spans may
/// leave unexplained.
pub const RESIDUAL_BOUND: f64 = 0.05;

/// One timed layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    /// Start, nanoseconds after the run's origin.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work the call did, in the layer's unit (cycles, variants, slices,
    /// requests).
    pub units: u64,
}

/// The spans of one thread over one traced pass.
#[derive(Debug, Clone)]
pub struct SpanLog {
    pub thread: &'static str,
    origin: Instant,
    root_start: Instant,
    root_ns: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a log whose root span starts now.
    pub fn start(thread: &'static str, origin: Instant) -> Self {
        SpanLog {
            thread,
            origin,
            root_start: Instant::now(),
            root_ns: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` as one span of `layer` that did `units` of work.
    #[inline]
    pub fn time<T>(&mut self, layer: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(layer, t0, Instant::now(), units);
        out
    }

    /// Records an already-timed span.
    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant, units: u64) {
        self.spans.push(Span {
            layer,
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns: nanos(end.duration_since(start)),
            units,
        });
    }

    /// Closes the root span.
    pub fn finish(&mut self) {
        self.root_ns = nanos(self.root_start.elapsed());
    }

    /// The root span's wall time, seconds.
    pub fn wall_s(&self) -> f64 {
        self.root_ns as f64 / 1e9
    }

    /// Share of the root's wall time no layer span covers.
    pub fn residual(&self) -> f64 {
        let covered: u64 = self.spans.iter().map(|s| s.dur_ns).sum();
        1.0 - covered as f64 / self.root_ns.max(1) as f64
    }

    /// Nanoseconds per unit of work spent in `layer` (0 when it never
    /// ran).
    pub fn ns_per_unit(&self, layer: &str) -> f64 {
        let (ns, units) = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(ns, units), s| (ns + s.dur_ns, units + s.units));
        ns as f64 / units.max(1) as f64
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The median over `logs` of each log's nanoseconds per unit in `layer`.
pub fn median_ns_per_unit(logs: &[SpanLog], layer: &str) -> f64 {
    median(
        &logs
            .iter()
            .map(|l| l.ns_per_unit(layer))
            .collect::<Vec<_>>(),
    )
}

/// Closes a traced run: checks every log's time conservation against
/// [`RESIDUAL_BOUND`], reports the tracing overhead and the median
/// residual in percent, and writes every span to
/// `.bench_out/spans-<workload>-seed<seed>.jsonl`.
pub fn finish_trace(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    logs: &[SpanLog],
    traced_over_untraced: f64,
) -> Result<(), String> {
    let residuals: Vec<f64> = logs.iter().map(|l| l.residual().abs()).collect();
    for (i, r) in residuals.iter().enumerate() {
        out.check(*r <= RESIDUAL_BOUND, || {
            format!(
                "traced log {i}: spans leave {:.2}% of its wall unexplained",
                r * 100.0
            )
        });
    }
    let residual = median(&residuals) * 100.0;
    out.set(
        "bench.trace_overhead_pct",
        (traced_over_untraced - 1.0) * 100.0,
    );
    out.set("bench.conservation_residual_pct", residual);
    out.meta("residual_bound_pct", RESIDUAL_BOUND * 100.0);
    out.meta("traced_logs", logs.len());

    let path = format!(".bench_out/spans-{workload}-seed{seed}.jsonl");
    let mut text = String::new();
    for (i, log) in logs.iter().enumerate() {
        let _ = writeln!(
            text,
            "{{\"log\":{i},\"thread\":\"{}\",\"layer\":\"root\",\"dur_ns\":{},\"residual\":{}}}",
            log.thread,
            log.root_ns,
            log.residual()
        );
        for s in &log.spans {
            let _ = writeln!(
                text,
                "{{\"log\":{i},\"thread\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"units\":{}}}",
                log.thread, s.layer, s.start_ns, s.dur_ns, s.units
            );
        }
    }
    std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {path}: {e}"))?;
    out.lines.push(format!(
        "  traced/untraced = {traced_over_untraced:.4}; unexplained wall per traced log (median) = {residual:.3}%; spans in {path}"
    ));
    Ok(())
}
