//! `serve-read`: closed-loop clients reading a fixed server state.
//!
//! An in-process `serve()` runs two shards on the mixed workload. Its
//! slice budget is drained before timing, so every response renders
//! from the same simulated state. Then up to `nproc` client threads,
//! each waiting for its reply before sending the next request, rotate
//! through `/healthz`, `/status`, `/metrics`, `/query` and `/events`.
//! One operation is one request. Percentiles are taken by rank over the
//! raw per-request samples; `latency_p99_us` is the median of the load
//! segments' p99s.

use std::thread;
use std::time::{Duration, Instant};

use ahbpower_bench::{
    http_get, parse_json, serve, validate_json, JsonValue, ScenarioMix, ServeConfig, ServerHandle,
};

use crate::probe::{probe_metrics, startup_probe};
use crate::spans::{finish_trace, SpanLog};
use crate::stats::{median, peak_rss_mb, rank_quantile, Digest, P99_WINDOWS};
use crate::{json_string, LiveCounts, Outcome, RunConfig};

/// `(name, path)` of every endpoint the clients rotate through.
pub const ENDPOINTS: [(&str, &str); 5] = [
    ("healthz", "/healthz"),
    ("status", "/status"),
    ("metrics", "/metrics"),
    ("query", "/query?series=energy&step=10"),
    ("events", "/events?since=0&max=64"),
];
/// Span layer of each endpoint, in [`ENDPOINTS`] order.
const HTTP_LAYERS: [&str; 5] = [
    "serve.http.healthz",
    "serve.http.status",
    "serve.http.metrics",
    "serve.http.query",
    "serve.http.events",
];
const VALIDATE: &str = "bench.validate";

const SHARDS: usize = 2;
const SLICES_PER_SHARD: u64 = 24;
/// Server starts per run; `setup_s` is their median.
const STARTS: usize = 9;
const TIMEOUT: Duration = Duration::from_secs(5);
/// Give up on a server that has not drained its budget by then.
const START_DEADLINE: Duration = Duration::from_secs(60);

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    endpoint: usize,
    us: f64,
    bytes: usize,
}

/// One client's requests: the good ones and what went wrong with the
/// rest.
#[derive(Debug, Default)]
struct ClientRun {
    samples: Vec<Sample>,
    failures: Vec<String>,
}

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        mix: ScenarioMix::Mixed,
        shards: SHARDS,
        max_slices: Some(SLICES_PER_SHARD),
        ..ServeConfig::default()
    }
}

/// A running server whose slice budget has drained.
struct Server {
    handle: ServerHandle,
    addr: String,
    setup_s: f64,
    cycles: u64,
}

impl Server {
    /// Starts a server and waits until its budget is drained and
    /// `/healthz` answers 200.
    fn start(seed: u64) -> Result<Server, String> {
        let t0 = Instant::now();
        let handle = serve(config(seed)).map_err(|e| format!("serve: {e}"))?;
        let addr = handle.addr().to_string();
        let want = SHARDS as u64 * SLICES_PER_SHARD;
        let drained = loop {
            let status = http_get(&addr, "/status", TIMEOUT)
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| parse_json(&r.body).ok());
            let field = |k: &str| status.as_ref().and_then(|s| s.get(k)?.as_u64());
            if field("slices").is_some_and(|s| s >= want) {
                break field("cycles");
            }
            if t0.elapsed() > START_DEADLINE {
                break None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        let healthy = http_get(&addr, "/healthz", TIMEOUT).is_ok_and(|r| r.status == 200);
        let setup_s = t0.elapsed().as_secs_f64();
        let server = Server {
            handle,
            addr,
            setup_s,
            cycles: drained.unwrap_or(0),
        };
        if drained.is_none() || !healthy {
            server.stop()?;
            return Err("server did not drain its slice budget and answer /healthz".to_string());
        }
        Ok(server)
    }

    fn get(&self, path: &str) -> Result<String, String> {
        match http_get(&self.addr, path, TIMEOUT) {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("{path}: HTTP {}", r.status)),
            Err(e) => Err(format!("{path}: {e}")),
        }
    }

    fn get_json(&self, path: &str) -> Result<JsonValue, String> {
        parse_json(&self.get(path)?).map_err(|e| format!("{path}: {e:?}"))
    }

    /// Stops the server and joins every thread it started.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.handle
            .wait()
            .map(|_| ())
            .map_err(|e| format!("server shutdown: {e}"))
    }
}

/// Whether a `/metrics` body is Prometheus text: every sample line ends
/// in a number.
fn prometheus_ok(text: &str) -> bool {
    !text.is_empty()
        && text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .all(|l| {
                l.rsplit_once(' ')
                    .is_some_and(|(name, v)| !name.is_empty() && v.parse::<f64>().is_ok())
            })
}

fn body_ok(endpoint: usize, body: &str) -> bool {
    if ENDPOINTS[endpoint].0 == "metrics" {
        prometheus_ok(body)
    } else {
        validate_json(body).is_ok()
    }
}

/// One closed-loop client until `deadline`, starting the rotation at
/// `first`. With a log, every request and every body check is a span.
fn client(addr: &str, first: usize, deadline: Instant, mut log: Option<&mut SpanLog>) -> ClientRun {
    let mut run = ClientRun::default();
    let mut k = first;
    while Instant::now() < deadline {
        let endpoint = k % ENDPOINTS.len();
        k += 1;
        let path = ENDPOINTS[endpoint].1;
        let t0 = Instant::now();
        let resp = http_get(addr, path, TIMEOUT);
        let t1 = Instant::now();
        let checked = match &resp {
            Ok(r) if r.status == 200 => body_ok(endpoint, &r.body),
            _ => false,
        };
        if let Some(l) = log.as_deref_mut() {
            l.record(HTTP_LAYERS[endpoint], t0, t1, 1);
            l.record(VALIDATE, t1, Instant::now(), 1);
        }
        match resp {
            Ok(r) if checked => run.samples.push(Sample {
                endpoint,
                us: t1.duration_since(t0).as_secs_f64() * 1e6,
                bytes: r.body.len(),
            }),
            Ok(r) => run
                .failures
                .push(format!("{path}: HTTP {} or invalid body", r.status)),
            Err(e) => run.failures.push(format!("{path}: {e}")),
        }
    }
    run
}

/// `threads` clients for `length`; with `traced`, one span log each.
fn load(
    addr: &str,
    threads: usize,
    length: Duration,
    traced: Option<Instant>,
) -> (Vec<ClientRun>, Vec<SpanLog>, f64) {
    let start = Instant::now();
    let deadline = start + length;
    let results: Vec<(ClientRun, Option<SpanLog>)> = thread::scope(|s| {
        let clients: Vec<_> = (0..threads)
            .map(|i| {
                s.spawn(move || {
                    let mut log = traced.map(|origin| SpanLog::start("client", origin));
                    let run = client(addr, i, deadline, log.as_mut());
                    if let Some(l) = &mut log {
                        l.finish();
                    }
                    (run, log)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let (runs, logs): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (runs, logs.into_iter().flatten().collect(), wall)
}

/// The simulated state the server renders: `/status` totals, Table 1
/// and the merged `/query` body.
fn state_digest(server: &Server) -> Result<(Digest, JsonValue), String> {
    let status = server.get_json("/status")?;
    let mut d = Digest::default();
    for path in [
        &["cycles"][..],
        &["total_energy_j"],
        &["transactions"],
        &["events", "published"],
        &["events", "dropped"],
        &["observatory", "windows"],
        &["anomalies", "count"],
    ] {
        d.f64(status_num(&status, path)?);
    }
    for row in status
        .get("instructions")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
    {
        d.bytes(
            row.get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .as_bytes(),
        );
        for k in ["count", "total_j"] {
            d.f64(row.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN));
        }
    }
    d.bytes(server.get(ENDPOINTS[3].1)?.as_bytes());
    Ok((d, status))
}

/// The number at `path` in a `/status` document.
fn status_num(status: &JsonValue, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(status, |v, k| v.get(k))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("/status lacks {}", path.join(".")))
}

/// Sum of a `/query` answer's bucket energies.
fn query_energy(server: &Server, path: &str) -> Result<f64, String> {
    let q = server.get_json(path)?;
    Ok(q.get("points")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|p| p.get("sum")?.as_f64())
        .sum())
}

/// The merged `/query` energy must equal the sum of the per-shard
/// answers.
fn check_merge(server: &Server, out: &mut Outcome) -> Result<(), String> {
    let path = ENDPOINTS[3].1;
    let merged = query_energy(server, path)?;
    let mut shards = 0.0;
    for k in 0..SHARDS {
        shards += query_energy(server, &format!("{path}&shard={k}"))?;
    }
    out.check(
        (merged - shards).abs() <= 1e-9 * shards.abs().max(f64::MIN_POSITIVE),
        || format!("merged /query energy {merged} != per-shard sum {shards}"),
    );
    Ok(())
}

fn samples(runs: &[ClientRun]) -> Vec<Sample> {
    runs.iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect()
}

fn tally(runs: Vec<ClientRun>, out: &mut Outcome) -> u64 {
    let mut errors = 0;
    for r in runs {
        errors += r.failures.len() as u64;
        out.tally((r.samples.len() + r.failures.len()) as u64, r.failures);
    }
    errors
}

pub fn run(cfg: &RunConfig, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.meta("shards", SHARDS);
    out.meta("slices_per_shard", SLICES_PER_SHARD);
    out.meta("clients", cfg.threads);
    if trace {
        let server = Server::start(cfg.seed)?;
        let result = run_traced(cfg, &server, &mut out);
        server.stop()?;
        result?;
    } else {
        let server = Server::start(cfg.seed)?;
        let mut setups = vec![server.setup_s];
        let mut ingest = vec![server.cycles as f64 / server.setup_s / 1e6];
        let result = run_untraced(cfg, &server, &mut out);
        server.stop()?;
        result?;
        // The memory one serving process needs, before the extra starts
        // below leave freed server memory in the allocator.
        out.set("peak_rss_mb", peak_rss_mb()?);
        for _ in 1..STARTS {
            let s = Server::start(cfg.seed)?;
            setups.push(s.setup_s);
            ingest.push(s.cycles as f64 / s.setup_s / 1e6);
            s.stop()?;
        }
        out.set("setup_s", median(&setups));
        out.set("sim_mcycles_per_s", median(&ingest));
    }
    Ok(out)
}

fn run_untraced(cfg: &RunConfig, server: &Server, out: &mut Outcome) -> Result<(), String> {
    let (digest, _) = state_digest(server)?;
    out.lines.push(format!("  digest {}", digest.hex()));
    out.meta("digest", json_string(&digest.hex()));
    // Warm-up: connections, allocator and the render paths.
    let _ = load(&server.addr, cfg.threads, Duration::from_millis(300), None);
    // The load runs in one segment per latency window, with a start-up
    // probe before each while the clients are idle, so the probes sample
    // the whole run.
    let segment = cfg.run / P99_WINDOWS as u32;
    let mut probes = Vec::with_capacity(P99_WINDOWS);
    let mut all = Vec::new();
    let mut p99s = Vec::with_capacity(P99_WINDOWS);
    let mut wall = 0.0;
    for _ in 0..P99_WINDOWS {
        probes.push(startup_probe(cfg.seed, out));
        let (runs, _, w) = load(&server.addr, cfg.threads, segment, None);
        let window = samples(&runs);
        if !window.is_empty() {
            p99s.push(rank_quantile(
                &window.iter().map(|s| s.us).collect::<Vec<_>>(),
                0.99,
            ));
        }
        all.extend(window);
        tally(runs, out);
        wall += w;
    }
    probe_metrics(&probes, out);
    check_merge(server, out)?;
    let (after, _) = state_digest(server)?;
    out.same_digest(digest, after, "after-load server state");
    if all.is_empty() {
        return Err("no request succeeded".to_string());
    }
    let us: Vec<f64> = all.iter().map(|s| s.us).collect();
    out.set("req_per_s", all.len() as f64 / wall);
    out.set("latency_p50_us", rank_quantile(&us, 0.5));
    out.set("latency_p99_us", median(&p99s));
    out.lines.push(format!(
        "  requests={} from {} closed-loop clients; p50 by rank over {} samples, p99 by rank per window (median of {}); whole-run p99 {:.1} us",
        all.len(),
        cfg.threads,
        us.len(),
        p99s.len(),
        rank_quantile(&us, 0.99)
    ));
    out.lines.extend(
        per_endpoint(&all)
            .into_iter()
            .map(|(name, n, p50, p99, bytes)| {
                format!("  {name:<8} samples={n:<7} p50_us={p50:.1} p99_us={p99:.1} bytes={bytes}")
            }),
    );
    out.meta("latency_samples", us.len());
    out.meta("run_s", wall);
    Ok(())
}

/// Per endpoint: `(name, samples, p50 µs, p99 µs, median bytes)`.
fn per_endpoint(all: &[Sample]) -> Vec<(&'static str, usize, f64, f64, f64)> {
    ENDPOINTS
        .iter()
        .enumerate()
        .filter_map(|(i, (name, _))| {
            let mine: Vec<&Sample> = all.iter().filter(|s| s.endpoint == i).collect();
            if mine.is_empty() {
                return None;
            }
            let us: Vec<f64> = mine.iter().map(|s| s.us).collect();
            let bytes: Vec<f64> = mine.iter().map(|s| s.bytes as f64).collect();
            Some((
                *name,
                mine.len(),
                rank_quantile(&us, 0.5),
                rank_quantile(&us, 0.99),
                median(&bytes),
            ))
        })
        .collect()
}

fn run_traced(cfg: &RunConfig, server: &Server, out: &mut Outcome) -> Result<(), String> {
    let (digest, _) = state_digest(server)?;
    out.lines.push(format!("  digest {}", digest.hex()));
    out.meta("digest", json_string(&digest.hex()));
    let _ = load(&server.addr, cfg.threads, Duration::from_millis(300), None);
    // Untraced and traced halves, each for half the run.
    let half = cfg.run / 2;
    let (plain, _, plain_wall) = load(&server.addr, cfg.threads, half, None);
    let origin = Instant::now();
    let (traced, logs, traced_wall) = load(&server.addr, cfg.threads, half, Some(origin));
    let plain_rps = samples(&plain).len() as f64 / plain_wall;
    let all = samples(&traced);
    let traced_rps = all.len() as f64 / traced_wall;
    let mut errors = tally(plain, out);
    errors += tally(traced, out);
    check_merge(server, out)?;
    let (after, status) = state_digest(server)?;
    out.same_digest(digest, after, "after-trace server state");

    let rows = per_endpoint(&all);
    if rows.len() != ENDPOINTS.len() {
        return Err("an endpoint answered no traced request".to_string());
    }
    for (name, n, p50, p99, bytes) in rows {
        out.set(format!("serve.http.{name}.p50_us"), p50);
        out.set(format!("serve.http.{name}.p99_us"), p99);
        out.set(format!("serve.http.{name}.bytes"), bytes);
        out.lines.push(format!(
            "  {name:<8} samples={n:<7} p50_us={p50:.1} p99_us={p99:.1}"
        ));
    }
    out.set(
        "serve.stage.render_p50_us",
        status_num(&status, &["stages", "render_us", "p50"])?,
    );
    let count = |path: &[&str]| status_num(&status, path).map(|v| v as u64);
    out.counts(
        &Default::default(),
        &LiveCounts {
            published: count(&["events", "published"])?,
            dropped: count(&["events", "dropped"])?,
            windows: count(&["observatory", "windows"])?,
            flagged: count(&["anomalies", "count"])?,
            shed: count(&["http", "shed"])?,
            errors,
        },
    );
    out.absent(&[
        "ahb.bus.step_ns",
        "core.power_fsm.observe_ns",
        "core.trace.push_ns",
        "core.replay.record_ns",
        "core.replay.encode_ns",
        "core.replay.decode_ns",
        "core.replay.lut_build_us",
        "core.replay.replay_ns",
        "core.telemetry.observe_ns",
        "core.session.self_time_ns",
        "core.telemetry.events.drain_ns",
        "workloads.build_ms",
        "workloads.build_s",
    ]);

    out.meta("latency_samples", all.len());
    finish_trace(out, "serve-read", cfg.seed, &logs, plain_rps / traced_rps)
}
