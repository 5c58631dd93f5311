//! End-to-end tests for the sharded serving plane: N worker shards
//! behind one thread-pool HTTP server, merged `/events`, `/query`,
//! `/status`, `/healthz` and `/metrics` with `?shard=` drill-down,
//! connection-limit load shedding, and the in-process load generator.

use std::time::Duration;

use ahbpower::telemetry::AnomalyConfig;
use ahbpower_bench::{
    http_get, loadgen_report_json, parse_json, run_loadgen, serve, validate_json, JsonValue,
    LoadgenConfig, ScenarioMix, ServeConfig, SHARD_SEED_STRIDE,
};

const TIMEOUT: Duration = Duration::from_secs(10);

fn sharded_config(shards: usize, max_slices: u64) -> ServeConfig {
    ServeConfig {
        mix: ScenarioMix::Paper,
        slice_cycles: 5_000,
        seed: 2003,
        max_slices: Some(max_slices),
        anomaly: AnomalyConfig::default().with_warmup_windows(4),
        shards,
        ..ServeConfig::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ahb_sharded_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls merged `/status` until every shard drained its slice budget.
fn wait_for_slices(addr: &str, want: u64) -> JsonValue {
    for _ in 0..400 {
        let status = http_get(addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(want) {
            return doc;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("shards never completed {want} slices");
}

fn energy_total(addr: &str, path: &str) -> f64 {
    let resp = http_get(addr, path, TIMEOUT).expect("query");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    validate_json(&resp.body).expect("query JSON validates");
    let doc = parse_json(&resp.body).expect("query parses");
    doc.get("points")
        .and_then(JsonValue::as_array)
        .expect("points")
        .iter()
        .map(|p| p.get("sum").and_then(JsonValue::as_f64).expect("sum"))
        .sum()
}

#[test]
fn merged_plane_aggregates_and_drills_down() {
    let dir = tmp_dir("plane");
    let cfg = ServeConfig {
        results_dir: Some(dir.clone()),
        ..sharded_config(2, 3)
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let doc = wait_for_slices(&addr, 6);

    // Merged /status: plane-level fields plus per-shard detail.
    assert_eq!(doc.get("shards").and_then(JsonValue::as_u64), Some(2));
    let merged_energy = doc
        .get("total_energy_j")
        .and_then(JsonValue::as_f64)
        .expect("total_energy_j");
    assert!(merged_energy > 0.0);
    let detail = doc
        .get("shard_detail")
        .and_then(JsonValue::as_array)
        .expect("shard_detail");
    assert_eq!(detail.len(), 2);
    let detail_sum: f64 = detail
        .iter()
        .map(|d| {
            d.get("total_energy_j")
                .and_then(JsonValue::as_f64)
                .expect("shard energy")
        })
        .sum();
    assert!(
        (merged_energy - detail_sum).abs() <= 1e-9 * merged_energy,
        "status energy {merged_energy} != shard detail sum {detail_sum}"
    );
    // Seed rotation: shard k runs at seed + k * stride, and the two
    // shards genuinely simulated different traffic.
    let seeds: Vec<u64> = detail
        .iter()
        .map(|d| d.get("seed").and_then(JsonValue::as_u64).expect("seed"))
        .collect();
    assert_eq!(seeds, vec![2003, 2003 + SHARD_SEED_STRIDE]);
    let energies: Vec<f64> = detail
        .iter()
        .map(|d| d.get("total_energy_j").and_then(JsonValue::as_f64).unwrap())
        .collect();
    assert_ne!(
        energies[0].to_bits(),
        energies[1].to_bits(),
        "different seed lanes must produce different energy"
    );

    // Per-shard /status drill-down: the same document, naming its shard.
    for k in 0..2u64 {
        let resp = http_get(&addr, &format!("/status?shard={k}"), TIMEOUT).expect("shard status");
        assert_eq!(resp.status, 200);
        let sdoc = parse_json(&resp.body).expect("shard status parses");
        assert_eq!(sdoc.get("shard").and_then(JsonValue::as_u64), Some(k));
        assert_eq!(sdoc.get("slices").and_then(JsonValue::as_u64), Some(3));
    }
    let bad = http_get(&addr, "/status?shard=2", TIMEOUT).expect("bad shard");
    assert_eq!(bad.status, 400);

    // ACCEPTANCE: merged /query energy equals the sum of the per-shard
    // observatory totals to 1e-9, end-to-end over HTTP, at every level.
    for step in [1u64, 10, 100] {
        let merged = energy_total(&addr, &format!("/query?series=energy&step={step}"));
        let per_shard: f64 = (0..2)
            .map(|k| {
                energy_total(
                    &addr,
                    &format!("/query?series=energy&step={step}&shard={k}"),
                )
            })
            .sum();
        assert!(merged > 0.0, "step {step} returned energy");
        assert!(
            (merged - per_shard).abs() <= 1e-9 * merged.abs(),
            "step {step}: merged {merged} != per-shard sum {per_shard}"
        );
    }
    // The /query totals agree with the /status aggregate as well.
    let q = energy_total(&addr, "/query?series=energy&step=1");
    assert!(
        (q - merged_energy).abs() <= 1e-9 * merged_energy,
        "query {q} vs status {merged_energy}"
    );

    // Merged /healthz names the plane; drill-down answers per shard.
    let health = http_get(&addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    let hdoc = parse_json(&health.body).expect("healthz parses");
    assert_eq!(hdoc.get("shards").and_then(JsonValue::as_u64), Some(2));
    let health0 = http_get(&addr, "/healthz?shard=1", TIMEOUT).expect("shard healthz");
    assert_eq!(health0.status, 200);

    // Merged /metrics: summed counters, plane gauges, per-shard labels.
    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    assert!(metrics.body.contains("serve_shards 2"));
    assert!(metrics.body.contains("serve_http_shed_total"));
    assert!(metrics.body.contains("shard=\"0\""));
    assert!(metrics.body.contains("shard=\"1\""));
    let shard_metrics = http_get(&addr, "/metrics?shard=1", TIMEOUT).expect("shard metrics");
    assert!(
        !shard_metrics.body.contains("shard=\"1\""),
        "drill-down serves the shard's own registry without plane labels"
    );

    // Merged /events: dot-joined cursors, per-shard loss accounting,
    // shard-tagged events.
    let events = http_get(&addr, "/events?since=0&max=64", TIMEOUT).expect("events");
    assert_eq!(events.status, 200);
    validate_json(&events.body).expect("merged events JSON validates");
    let edoc = parse_json(&events.body).expect("events parse");
    let next = edoc
        .get("next")
        .and_then(JsonValue::as_str)
        .expect("merged cursor is a string");
    assert_eq!(
        next.split('.').count(),
        2,
        "one component per shard: {next}"
    );
    assert_eq!(
        edoc.get("dropped")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(2)
    );
    let evs = edoc
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(!evs.is_empty());
    for e in evs {
        let shard = e.get("shard").and_then(JsonValue::as_u64).expect("tag");
        assert!(shard < 2);
    }
    // Resuming from the returned cursor never replays: drain to the
    // end, then poll again from there and expect nothing.
    let mut cursor = next.to_string();
    for _ in 0..200 {
        let resp = http_get(&addr, &format!("/events?since={cursor}&max=4096"), TIMEOUT)
            .expect("drain events");
        let d = parse_json(&resp.body).expect("drain parses");
        cursor = d
            .get("next")
            .and_then(JsonValue::as_str)
            .expect("cursor")
            .to_string();
        let n = d
            .get("events")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len);
        if n == 0 {
            break;
        }
    }
    // Per-shard drill-down keeps the numeric single-ring wire format.
    let shard_events = http_get(&addr, "/events?since=0&max=16&shard=1", TIMEOUT).expect("events");
    let sdoc = parse_json(&shard_events.body).expect("shard events parse");
    assert!(
        sdoc.get("next").and_then(JsonValue::as_u64).is_some(),
        "single-shard cursor stays numeric"
    );
    // A malformed merged cursor is a clean 400.
    let bad = http_get(&addr, "/events?since=1.2.3.4&max=16", TIMEOUT).expect("bad cursor");
    assert_eq!(bad.status, 400);

    // Shutdown: summary aggregates both shards; the flush writes
    // per-shard artifact files and per-shard flight-recorder dirs.
    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert_eq!(summary.shards, 2);
    assert_eq!(summary.slices, 6);
    assert_eq!(summary.cycles, 30_000);
    assert_eq!(
        summary.flushed.len(),
        6,
        "final jsonl + status + (events + observatory) x 2 shards"
    );
    for name in [
        "serve_final.jsonl",
        "serve_status.json",
        "events.jsonl",
        "observatory.jsonl",
        "events-shard1.jsonl",
        "observatory-shard1.jsonl",
    ] {
        assert!(dir.join(name).is_file(), "{name} flushed");
    }
    for shard in 0..2 {
        let rec = dir.join("flightrec").join(format!("shard-{shard}"));
        assert!(rec.is_dir(), "shard {shard} flight-recorder dir");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_limit_sheds_with_503() {
    // One connection slot: a parked long-poll holds it, so the next
    // connection must be shed with 503 — and the shed counter surfaces
    // in /metrics once the slot frees up.
    let cfg = ServeConfig {
        max_connections: 1,
        http_threads: 2,
        ..sharded_config(1, 1)
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Park a long-poll on a cursor far past the ring so it waits out
    // its full timeout while holding the only slot.
    let parked_addr = addr.clone();
    let parked = std::thread::spawn(move || {
        http_get(
            &parked_addr,
            "/events?since=999999999&timeout_ms=5000",
            TIMEOUT,
        )
    });
    // Let the parked poll win the race for the only slot before any
    // probe connects — otherwise a fast probe could hold the slot and
    // shed the poll instead.
    std::thread::sleep(Duration::from_millis(300));

    let mut shed_seen = false;
    for _ in 0..200 {
        match http_get(&addr, "/healthz", Duration::from_secs(2)) {
            Ok(r) if r.status == 503 => {
                assert!(
                    r.body.contains("shed"),
                    "503 body names the shed: {}",
                    r.body
                );
                shed_seen = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(shed_seen, "the admission limit must shed with 503");
    let parked_resp = parked
        .join()
        .expect("parked poll returns")
        .expect("poll ok");
    assert_eq!(parked_resp.status, 200, "the admitted poll still answers");

    // The slot is free again: /metrics answers and counts the sheds.
    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics after shed");
    assert_eq!(metrics.status, 200);
    let shed_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("serve_http_shed_total"))
        .expect("shed counter exported");
    let count: f64 = shed_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("counter value");
    assert!(count >= 1.0, "sheds counted: {shed_line}");

    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.shed >= 1, "summary carries the shed count");
}

#[test]
fn loadgen_drives_sharded_server_and_reports() {
    // The in-process spelling of `repro loadgen`: a 2-shard server with
    // a drained slice budget, driven briefly from 2 threads. Debug
    // builds are slow, so assert structure and error-freeness here; the
    // >= 1000 req/s acceptance bar runs in release via check.sh.
    let handle = serve(sharded_config(2, 1)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    wait_for_slices(&addr, 2);

    let cfg = LoadgenConfig {
        addr: addr.clone(),
        concurrency: 2,
        duration: Duration::from_millis(800),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg);
    assert!(report.requests() > 0, "loadgen drove requests");
    assert_eq!(report.errors(), 0, "no transport errors on loopback");
    assert_eq!(report.ok() + report.shed(), report.requests());
    assert!(report.throughput_rps() > 0.0);
    let json = loadgen_report_json(&report, 2);
    validate_json(&json).expect("report JSON validates");
    let doc = parse_json(&json).expect("report parses");
    assert_eq!(
        doc.get("bench").and_then(JsonValue::as_str),
        Some("serve_loadgen")
    );
    let endpoints = doc
        .get("endpoints")
        .and_then(JsonValue::as_array)
        .expect("endpoints");
    assert_eq!(endpoints.len(), cfg.endpoints.len());
    for e in endpoints {
        assert!(
            e.get("p99_us").and_then(JsonValue::as_f64).is_some(),
            "every endpoint reports latency quantiles"
        );
    }

    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    handle.wait().expect("clean shutdown");
}

/// The unlabelled (plane-level) value of `name{instruction="..."}` in a
/// Prometheus body, by instruction.
fn instruction_series(body: &str, name: &str) -> std::collections::BTreeMap<String, f64> {
    let prefix = format!("{name}{{instruction=\"");
    body.lines()
        .filter_map(|line| {
            let (instruction, value) = line.strip_prefix(&prefix)?.split_once("\"} ")?;
            Some((instruction.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn merged_instruction_means_are_total_over_count() {
    // A mean is total/count of the merged rows, never a sum of the
    // per-shard means: /metrics and /status must agree with each other
    // and with their own totals for every instruction.
    let handle = serve(sharded_config(2, 3)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let doc = wait_for_slices(&addr, 6);
    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    let means = instruction_series(&metrics.body, "power_instruction_mean_energy_joules");
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    let rows = doc
        .get("instructions")
        .and_then(JsonValue::as_array)
        .expect("instructions");
    assert!(!rows.is_empty());
    for row in rows {
        let name = row.get("name").and_then(JsonValue::as_str).expect("name");
        let count = row.get("count").and_then(JsonValue::as_f64).expect("count");
        let total = row
            .get("total_j")
            .and_then(JsonValue::as_f64)
            .expect("total");
        let status_mean = row.get("mean_j").and_then(JsonValue::as_f64).expect("mean");
        let metrics_mean = *means
            .get(name)
            .unwrap_or_else(|| panic!("{name} in /metrics"));
        assert!(
            close(status_mean, total / count),
            "{name}: /status mean_j {status_mean} != total/count {}",
            total / count
        );
        assert!(
            close(metrics_mean, status_mean),
            "{name}: /metrics mean {metrics_mean} != /status mean_j {status_mean}"
        );
    }
    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    handle.wait().expect("clean shutdown");
}

#[test]
fn malformed_drill_down_cursors_are_rejected() {
    // A single-ring drill-down parses `since` like the merged plane: a
    // non-numeric or multi-part cursor is a clean 400, not a silent
    // restart from the oldest event.
    let handle = serve(sharded_config(2, 1)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    for bad in ["/events?since=abc&shard=0", "/events?since=1.2&shard=0"] {
        let resp = http_get(&addr, bad, TIMEOUT).expect("bad cursor");
        assert_eq!(resp.status, 400, "{bad} must answer 400: {}", resp.body);
        assert!(resp.body.contains("bad since"), "{bad}: {}", resp.body);
    }
    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    handle.wait().expect("clean shutdown");
}

/// Splits a sample line into its series with any `shard="K"` label
/// removed, that shard, and the value.
fn split_shard(line: &str) -> (String, Option<String>, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample value");
    let value = value.parse().expect("numeric sample");
    let Some(at) = series.find("shard=\"") else {
        return (series.to_string(), None, value);
    };
    let end = at + 7 + series[at + 7..].find('"').expect("closed shard label");
    let shard = series[at + 7..end].to_string();
    let (before, after) = (&series[..at], &series[end + 1..]);
    let base = match (before.strip_suffix(','), after.strip_prefix(',')) {
        (Some(b), _) => format!("{b}{after}"),
        (None, Some(a)) => format!("{before}{a}"),
        (None, None) => format!("{}{}", &before[..before.len() - 1], &after[1..]),
    };
    (base, Some(shard), value)
}

#[test]
fn metrics_exposition_is_family_major_and_additive() {
    let handle = serve(sharded_config(2, 3)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    wait_for_slices(&addr, 6);
    let get = |path: &str| {
        let resp = http_get(&addr, path, TIMEOUT).expect("metrics");
        assert_eq!(resp.status, 200, "{path}");
        if let Err(e) = ahbpower_bench::validate_prometheus(&resp.body) {
            panic!("{path}: {e}");
        }
        resp.body
    };
    let merged = get("/metrics");
    let drills = [get("/metrics?shard=0"), get("/metrics?shard=1")];

    // Every additive family (counters, and histogram buckets, sums and
    // counts) sums over its shard="K" samples to the merged sample:
    // exactly for counts, to 1e-9 relative for joules.
    let additive: Vec<&str> = merged
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|decl| decl.split_once(' '))
        .filter(|(_, kind)| matches!(*kind, "counter" | "histogram"))
        .map(|(name, _)| name)
        .collect();
    let mut merged_samples = std::collections::BTreeMap::new();
    let mut shard_samples = std::collections::BTreeMap::<String, Vec<(String, f64)>>::new();
    for line in merged.lines().filter(|l| !l.starts_with('#')) {
        match split_shard(line) {
            (base, Some(k), value) => shard_samples.entry(base).or_default().push((k, value)),
            (base, None, value) => {
                merged_samples.insert(base, value);
            }
        }
    }
    let mut checked = 0;
    for (base, shards) in &shard_samples {
        let name = base.split(['{', ' ']).next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| additive.contains(f))
            .unwrap_or(name);
        if !additive.contains(&family) {
            continue;
        }
        let total = *merged_samples
            .get(base)
            .unwrap_or_else(|| panic!("{base}: no merged sample"));
        let sum: f64 = shards.iter().map(|(_, v)| v).sum();
        if name.ends_with("_joules") {
            assert!(
                (total - sum).abs() <= 1e-9 * total.abs(),
                "{base}: merged {total} != shard sum {sum}"
            );
        } else {
            assert_eq!(total, sum, "{base}: merged != shard sum");
        }
        // The drill-down renders that shard's own sample.
        for (k, value) in shards {
            let k: usize = k.parse().expect("shard index");
            let own = drills[k]
                .lines()
                .find_map(|l| {
                    let (s, v) = l.rsplit_once(' ')?;
                    (s == base).then(|| v.parse::<f64>().expect("value"))
                })
                .unwrap_or_else(|| panic!("{base} missing from /metrics?shard={k}"));
            assert_eq!(own, *value, "{base} shard {k}");
        }
        checked += 1;
    }
    assert!(
        checked > 40,
        "only {checked} additive series carried shard samples"
    );
    for name in ["power_instruction_energy_joules", "ahb_cycles_total"] {
        assert!(
            merged.contains(&format!("{name}{{")) || merged.contains(&format!("{name} ")),
            "{name} exported"
        );
    }

    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    handle.wait().expect("clean shutdown");
}
