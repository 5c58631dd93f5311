//! Structured diagnostics: rule id, severity, optional location, message.

use std::fmt;
use std::fmt::Write as _;

use ahbpower::telemetry::{json_escape, MetricsRegistry};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; does not fail the analysis.
    Warning,
    /// A model/protocol/source invariant is violated; fails the analysis.
    Error,
}

impl Severity {
    /// Lower-case label, as emitted in JSONL and Prometheus-style labels.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `map/overlap` or `lint/unwrap`.
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// What is being analyzed: a source path, a scenario name, a model
    /// label. Empty if the finding is global.
    pub subject: String,
    /// 1-based line number inside `subject`, when it is a text file.
    pub line: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(
        rule: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            subject: subject.into(),
            line: None,
            message: message.into(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(
        rule: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            subject: subject.into(),
            line: None,
            message: message.into(),
        }
    }

    /// Attaches a 1-based line number.
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}]", self.severity, self.rule)?;
        if !self.subject.is_empty() {
            write!(f, " {}", self.subject)?;
            if let Some(line) = self.line {
                write!(f, ":{line}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// The result of an analysis run: every diagnostic from every rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Wraps a list of diagnostics.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// Appends another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Appends a batch of diagnostics.
    pub fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True if no error-severity finding was recorded (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Human-readable rendering: one line per finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "analysis: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        );
        out
    }

    /// Registers per-rule finding counters
    /// (`analyzer_diagnostics_total{rule,severity}`) into a telemetry
    /// registry, so reports export through the existing JSONL/CSV/
    /// Prometheus exporters alongside other run metrics.
    pub fn to_metrics(&self, reg: &mut MetricsRegistry) {
        for d in &self.diagnostics {
            let id = reg.counter(
                "analyzer_diagnostics_total",
                "Static-analysis findings by rule and severity",
                &[("rule", d.rule), ("severity", d.severity.label())],
            );
            reg.add(id, 1.0);
        }
    }

    /// Renders each finding as one JSON object per line, matching the
    /// telemetry exporters' JSONL event-stream style.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = write!(
                out,
                "{{\"event\":\"diagnostic\",\"rule\":\"{}\",\"severity\":\"{}\"",
                json_escape(d.rule),
                d.severity.label()
            );
            if !d.subject.is_empty() {
                let _ = write!(out, ",\"subject\":\"{}\"", json_escape(&d.subject));
            }
            if let Some(line) = d.line {
                let _ = write!(out, ",\"line\":{line}");
            }
            let _ = writeln!(out, ",\"message\":\"{}\"}}", json_escape(&d.message));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_rule_location_and_message() {
        let d = Diagnostic::error("map/overlap", "paper_testbench", "windows collide").at_line(3);
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("map/overlap"));
        assert!(s.contains("paper_testbench:3"));
        assert!(s.contains("windows collide"));
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.extend(vec![
            Diagnostic::warning("map/gap", "m", "hole"),
            Diagnostic::error("map/overlap", "m", "collide"),
        ]);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.error_count(), 1);
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn jsonl_escapes_and_shapes_events() {
        let mut r = Report::new();
        r.extend(vec![
            Diagnostic::error("lint/unwrap", "a\"b.rs", "x").at_line(7)
        ]);
        let line = r.render_jsonl();
        assert!(line.starts_with("{\"event\":\"diagnostic\""));
        assert!(line.contains("\\\"b.rs"));
        assert!(line.contains("\"line\":7"));
    }

    #[test]
    fn metrics_aggregate_per_rule_and_severity() {
        let mut r = Report::new();
        r.extend(vec![
            Diagnostic::error("lint/unwrap", "a.rs", "x"),
            Diagnostic::error("lint/unwrap", "b.rs", "y"),
            Diagnostic::warning("map/gap", "m", "hole"),
        ]);
        let mut reg = MetricsRegistry::new();
        r.to_metrics(&mut reg);
        let jsonl = ahbpower::telemetry::to_jsonl(&reg, &Default::default());
        assert!(jsonl.contains("analyzer_diagnostics_total"));
        assert!(jsonl.contains("\"rule\":\"lint/unwrap\""));
        assert!(jsonl.contains("2"));
    }
}
