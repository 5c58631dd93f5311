//! `repro loadgen`: a std-only multi-threaded HTTP load generator for
//! the serve plane.
//!
//! Each worker thread opens one fresh connection per request (the
//! server is connection-per-request anyway), rotates through the
//! configured endpoint paths, and books the request's wall-clock into a
//! per-endpoint latency histogram. 503 answers are counted as shed —
//! the server's admission limit working as designed, not an error —
//! transport failures and other statuses as errors. Per-thread tallies
//! merge at the end through [`CycleHistogram::merge`], the same
//! composition the shard aggregator uses, and the report renders as the
//! `BENCH_serve.json` document `bench_snapshot.sh` collects.

use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

use ahbpower::telemetry::{json_escape, json_num};
use ahbpower_ahb::CycleHistogram;

use crate::serve::http_get;

/// Inclusive upper bounds (µs) for the per-endpoint latency
/// histograms; an implicit overflow bucket catches anything past a
/// second.
pub const LOADGEN_LATENCY_BOUNDS_US: [u64; 13] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Per-request socket timeout. Long enough for a loaded single-core
/// box, short enough that a hung server fails the run instead of
/// stalling it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// What `run_loadgen` drives.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// `host:port` of the server under test.
    pub addr: String,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// How long to generate load.
    pub duration: Duration,
    /// Endpoint paths each worker rotates through.
    pub endpoints: Vec<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            concurrency: 4,
            duration: Duration::from_secs(5),
            endpoints: vec![
                "/healthz".to_string(),
                "/status".to_string(),
                "/metrics".to_string(),
                "/query?series=energy&step=10".to_string(),
                "/events?since=0&max=64".to_string(),
            ],
        }
    }
}

/// One endpoint's merged tally.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// The path driven (query string included).
    pub path: String,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered 503 by the admission limit.
    pub shed: u64,
    /// Transport failures and unexpected statuses.
    pub errors: u64,
    /// Wall-clock per completed request, µs (any status).
    pub latency_us: CycleHistogram,
}

impl EndpointStats {
    fn new(path: &str) -> Self {
        EndpointStats {
            path: path.to_string(),
            ok: 0,
            shed: 0,
            errors: 0,
            latency_us: CycleHistogram::new(&LOADGEN_LATENCY_BOUNDS_US),
        }
    }

    /// Requests attempted against this endpoint.
    pub fn requests(&self) -> u64 {
        self.ok + self.shed + self.errors
    }
}

/// The whole run's merged outcome.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The server driven.
    pub addr: String,
    /// Client threads used.
    pub concurrency: usize,
    /// Measured wall-clock of the generation phase, seconds.
    pub duration_s: f64,
    /// Per-endpoint tallies, in configuration order.
    pub endpoints: Vec<EndpointStats>,
}

impl LoadgenReport {
    /// Requests attempted across every endpoint.
    pub fn requests(&self) -> u64 {
        self.endpoints.iter().map(EndpointStats::requests).sum()
    }

    /// Requests answered 200.
    pub fn ok(&self) -> u64 {
        self.endpoints.iter().map(|e| e.ok).sum()
    }

    /// Requests shed with 503.
    pub fn shed(&self) -> u64 {
        self.endpoints.iter().map(|e| e.shed).sum()
    }

    /// Transport failures and unexpected statuses.
    pub fn errors(&self) -> u64 {
        self.endpoints.iter().map(|e| e.errors).sum()
    }

    /// Attempted requests per second over the generation phase.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.requests() as f64 / self.duration_s
        } else {
            0.0
        }
    }
}

/// Drives the server at `cfg.addr` from `cfg.concurrency` threads for
/// `cfg.duration` and returns the merged tallies. Workers never abort
/// on individual request failures — errors are data here.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    let concurrency = cfg.concurrency.max(1);
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let tallies: Vec<Vec<EndpointStats>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                let addr = cfg.addr.as_str();
                let endpoints = cfg.endpoints.as_slice();
                scope.spawn(move || {
                    let mut stats: Vec<EndpointStats> =
                        endpoints.iter().map(|p| EndpointStats::new(p)).collect();
                    // Stagger start offsets so threads don't hit the
                    // same endpoint in lockstep.
                    let mut i = worker;
                    while Instant::now() < deadline {
                        let slot = i % endpoints.len();
                        i += 1;
                        let t0 = Instant::now();
                        let outcome = http_get(addr, &endpoints[slot], REQUEST_TIMEOUT);
                        let us = t0.elapsed().as_micros() as u64;
                        let s = &mut stats[slot];
                        s.latency_us.observe(us);
                        match outcome {
                            Ok(r) if r.status == 200 => s.ok += 1,
                            Ok(r) if r.status == 503 => s.shed += 1,
                            _ => s.errors += 1,
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let duration_s = started.elapsed().as_secs_f64();
    let mut merged: Vec<EndpointStats> = cfg
        .endpoints
        .iter()
        .map(|p| EndpointStats::new(p))
        .collect();
    for per_thread in &tallies {
        for (m, t) in merged.iter_mut().zip(per_thread) {
            m.ok += t.ok;
            m.shed += t.shed;
            m.errors += t.errors;
            m.latency_us.merge(&t.latency_us);
        }
    }
    LoadgenReport {
        addr: cfg.addr.clone(),
        concurrency,
        duration_s,
        endpoints: merged,
    }
}

/// Renders the report as the `BENCH_serve.json` document: run totals,
/// throughput, shed/error rates, and per-endpoint latency quantiles.
pub fn loadgen_report_json(report: &LoadgenReport, shards: usize) -> String {
    let requests = report.requests();
    let rate = |n: u64| {
        if requests > 0 {
            n as f64 / requests as f64
        } else {
            0.0
        }
    };
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"bench\":\"serve_loadgen\",\"addr\":\"{}\",\"shards\":{shards},\"concurrency\":{},\"duration_s\":{},\"requests\":{requests},\"ok\":{},\"shed\":{},\"errors\":{},\"throughput_rps\":{},\"shed_rate\":{},\"error_rate\":{},\"endpoints\":[",
        report.addr,
        report.concurrency,
        json_num(report.duration_s),
        report.ok(),
        report.shed(),
        report.errors(),
        json_num(report.throughput_rps()),
        json_num(rate(report.shed())),
        json_num(rate(report.errors()))
    );
    for (i, e) in report.endpoints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"path\":\"{}\",\"requests\":{},\"ok\":{},\"shed\":{},\"errors\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            json_escape(&e.path),
            e.requests(),
            e.ok,
            e.shed,
            e.errors,
            json_num(e.latency_us.quantile(0.5)),
            json_num(e.latency_us.quantile(0.95)),
            json_num(e.latency_us.quantile(0.99))
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, validate_json, JsonValue};

    #[test]
    fn report_json_validates_and_carries_quantiles() {
        let mut e = EndpointStats::new("/query?series=energy&step=10");
        for us in [100, 200, 300, 4000] {
            e.latency_us.observe(us);
        }
        e.ok = 3;
        e.shed = 1;
        let report = LoadgenReport {
            addr: "127.0.0.1:1".to_string(),
            concurrency: 2,
            duration_s: 2.0,
            endpoints: vec![e],
        };
        assert_eq!(report.requests(), 4);
        assert_eq!(report.throughput_rps(), 2.0);
        let doc = loadgen_report_json(&report, 2);
        validate_json(&doc).expect("report JSON validates");
        let parsed = parse_json(&doc).expect("report parses");
        assert_eq!(parsed.get("shards").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(parsed.get("requests").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(
            parsed.get("shed_rate").and_then(JsonValue::as_f64),
            Some(0.25)
        );
        let eps = parsed
            .get("endpoints")
            .and_then(JsonValue::as_array)
            .expect("endpoints");
        assert_eq!(eps.len(), 1);
        assert!(eps[0].get("p95_us").and_then(JsonValue::as_f64).is_some());
    }

    #[test]
    fn loadgen_against_dead_port_counts_errors_not_panics() {
        // Nothing listens on the reserved port 1 — every request must
        // come back as an error, quickly, from all threads.
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".to_string(),
            concurrency: 2,
            duration: Duration::from_millis(200),
            endpoints: vec!["/healthz".to_string()],
        };
        let report = run_loadgen(&cfg);
        assert!(report.requests() > 0, "workers attempted requests");
        assert_eq!(report.errors(), report.requests(), "all failed");
        assert_eq!(report.ok(), 0);
    }
}
