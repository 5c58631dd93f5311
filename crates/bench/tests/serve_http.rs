//! End-to-end tests for the live monitoring service: every endpoint
//! answers over a real TCP socket, `/quit` shuts down gracefully, and
//! the final flush leaves complete artifacts behind.

use std::time::Duration;

use ahbpower::telemetry::AnomalyConfig;
use ahbpower::SubBlock;
use ahbpower_bench::{
    http_get, parse_json, serve, validate_json, Injection, JsonValue, ScenarioMix, ServeConfig,
};

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServeConfig {
    ServeConfig {
        mix: ScenarioMix::Paper,
        slice_cycles: 5_000,
        seed: 2003,
        max_slices: Some(3),
        anomaly: AnomalyConfig::default().with_warmup_windows(4),
        ..ServeConfig::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ahb_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn endpoints_answer_with_valid_payloads() {
    let handle = serve(test_config()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let health = http_get(&addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    validate_json(&health.body).expect("healthz JSON is valid");
    let hdoc = parse_json(&health.body).expect("healthz parses");
    assert_eq!(hdoc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert!(
        hdoc.get("degraded").and_then(JsonValue::as_bool).is_some(),
        "healthz reports the degraded flag"
    );
    assert!(
        hdoc.get("high_water").is_some(),
        "healthz carries the slice/window high-water marks"
    );

    // Give the worker at least one slice before inspecting metrics:
    // poll /status until slices > 0 (bounded retries, no sleeps needed
    // beyond the poll interval).
    let mut slices = 0u64;
    for _ in 0..200 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        assert_eq!(status.status, 200);
        validate_json(&status.body).expect("status JSON is valid");
        let doc = parse_json(&status.body).expect("status JSON parses");
        slices = doc
            .get("slices")
            .and_then(JsonValue::as_u64)
            .expect("slices field");
        if slices > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(slices > 0, "worker never completed a slice");

    let status = http_get(&addr, "/status", TIMEOUT).expect("status");
    let doc = parse_json(&status.body).expect("status JSON parses");
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(
        doc.get("scenario_mix").and_then(JsonValue::as_str),
        Some("paper")
    );
    let energy = doc
        .get("total_energy_j")
        .and_then(JsonValue::as_f64)
        .expect("total_energy_j");
    assert!(energy > 0.0, "a completed slice books energy");
    let instructions = doc
        .get("instructions")
        .and_then(JsonValue::as_array)
        .expect("instructions array");
    assert!(!instructions.is_empty());

    // The startup replay self-calibration ran before the first slice,
    // so its numbers are already live in the status document.
    let replay = doc.get("replay").expect("replay object");
    assert!(replay.get("trace_cycles").and_then(JsonValue::as_u64) > Some(0));
    assert!(replay.get("variants").and_then(JsonValue::as_u64) > Some(0));
    assert!(
        replay
            .get("cycles_per_sec")
            .and_then(JsonValue::as_f64)
            .expect("cycles_per_sec")
            > 0.0,
        "calibration measured a positive replay throughput"
    );

    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("# TYPE ahb_cycles_total counter"));
    assert!(metrics.body.contains("power_instruction_energy_joules"));
    assert!(metrics.body.contains("serve_replay_cycles_per_second"));
    assert!(metrics.body.contains("serve_uptime_seconds"));
    assert!(metrics
        .body
        .contains("serve_window_power_microwatts_bucket"));

    let missing = http_get(&addr, "/nope", TIMEOUT).expect("404 route");
    assert_eq!(missing.status, 404);

    let summary = handle.wait().expect("clean shutdown");
    assert_eq!(summary.slices, 3);
    assert_eq!(summary.cycles, 15_000);
    assert!(summary.total_energy_j > 0.0);
}

#[test]
fn quit_flushes_complete_artifacts() {
    let dir = tmp_dir("quit");
    let cfg = ServeConfig {
        max_slices: None,
        results_dir: Some(dir.clone()),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Wait for one slice so the flush has content.
    for _ in 0..200 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) > Some(0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.slices > 0);
    assert_eq!(
        summary.flushed.len(),
        4,
        "jsonl + status + events.jsonl + observatory.jsonl"
    );

    // The flushed files are complete: the JSONL is line-by-line valid
    // JSON, the status document parses whole, and no .tmp staging file
    // survived the atomic rename.
    let jsonl = std::fs::read_to_string(dir.join("serve_final.jsonl")).expect("jsonl flushed");
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        validate_json(line).expect("every JSONL line is valid JSON");
    }
    let status = std::fs::read_to_string(dir.join("serve_status.json")).expect("status flushed");
    let doc = parse_json(&status).expect("final status parses");
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events flushed");
    assert!(!events.is_empty(), "at least the export header is written");
    for line in events.lines() {
        validate_json(line).expect("every event line is valid JSON");
    }
    let obs = std::fs::read_to_string(dir.join("observatory.jsonl")).expect("observatory flushed");
    assert!(!obs.is_empty(), "the retention snapshot is written");
    for line in obs.lines() {
        validate_json(line).expect("every observatory line is valid JSON");
    }
    // /quit also leaves a post-mortem bundle behind (shard 0 is the
    // only shard, so its subdirectory holds everything).
    let flightrec: Vec<_> = std::fs::read_dir(dir.join("flightrec").join("shard-0"))
        .expect("flightrec dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(
        !flightrec.is_empty(),
        "quit writes a flight-recorder bundle"
    );
    for entry in &flightrec {
        let body = std::fs::read_to_string(entry.path()).expect("bundle reads");
        validate_json(&body).expect("bundle is valid JSON");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("results dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(leftovers.is_empty(), "no partial .tmp files survive");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_fault_is_detected_and_reported() {
    // Paper-only mix, deterministic seed: arbiter coefficients tripled
    // from slice 3 onward (~+10% total energy, comfortably past the 5%
    // deviation gate) must raise anomalies once warmup has passed, and
    // they surface in /status and the Prometheus export.
    let cfg = ServeConfig {
        slice_cycles: 10_000,
        max_slices: Some(6),
        anomaly: AnomalyConfig::default().with_warmup_windows(6),
        inject: Some(Injection {
            block: SubBlock::Arb,
            factor: 3.0,
            at_slice: 3,
        }),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Wait until the slice budget drains.
    for _ in 0..400 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(6) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    let status = http_get(&addr, "/status", TIMEOUT).expect("status");
    let doc = parse_json(&status.body).expect("status parses");
    let anomalies = doc.get("anomalies").expect("anomalies object");
    let count = anomalies
        .get("count")
        .and_then(JsonValue::as_u64)
        .expect("count");
    assert!(count > 0, "doubled arbiter coefficients must be flagged");
    let last = anomalies.get("last").expect("last event");
    let deviation = last
        .get("deviation_pct")
        .and_then(JsonValue::as_f64)
        .expect("deviation");
    assert!(deviation > 0.0, "injection raises energy above baseline");

    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    assert!(metrics.body.contains("energy_anomaly_events_total"));

    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.anomalies > 0);
}

#[test]
fn clean_paper_run_stays_silent() {
    let cfg = ServeConfig {
        slice_cycles: 10_000,
        max_slices: Some(6),
        anomaly: AnomalyConfig::default().with_warmup_windows(6),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    for _ in 0..400 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(6) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let summary = handle.wait().expect("clean shutdown");
    assert_eq!(summary.slices, 6);
    assert_eq!(
        summary.anomalies, 0,
        "an uninjected paper run must not alarm"
    );
}

/// Pulls a `u64` field out of a parsed event object.
fn event_u64(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("event field {key} missing"))
}

#[test]
fn dashboard_events_stream_and_causal_trace() {
    // One injected run exercises the whole observability surface: the
    // self-hosted dashboard, the long-poll /events stream, the stage
    // histograms, and — after shutdown — the flushed events.jsonl whose
    // every AnomalyFlagged must chain through an EnergyBooked to a
    // TxnComplete of the same window and slice.
    let dir = tmp_dir("events");
    let cfg = ServeConfig {
        slice_cycles: 10_000,
        max_slices: Some(6),
        anomaly: AnomalyConfig::default().with_warmup_windows(6),
        inject: Some(Injection {
            block: SubBlock::Arb,
            factor: 3.0,
            at_slice: 3,
        }),
        results_dir: Some(dir.clone()),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // The dashboard answers before the first slice lands: one
    // self-contained HTML document that polls the JSON endpoints.
    let dash = http_get(&addr, "/", TIMEOUT).expect("dashboard");
    assert_eq!(dash.status, 200);
    assert!(dash.body.contains("<canvas"), "dashboard draws a sparkline");
    assert!(
        dash.body.contains("/events?since="),
        "dashboard polls the event stream"
    );

    // Long-poll /events until completed transactions stream out.
    let mut saw_txn = false;
    for _ in 0..200 {
        let resp =
            http_get(&addr, "/events?since=0&max=4096&timeout_ms=2000", TIMEOUT).expect("events");
        assert_eq!(resp.status, 200);
        validate_json(&resp.body).expect("events payload is valid JSON");
        if resp.body.contains("\"event\":\"TxnComplete\"") {
            saw_txn = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(saw_txn, "the live stream must carry TxnComplete events");
    assert!(
        handle.events_bus().published() > 0,
        "the shared ring records publishes"
    );

    // Wait until the slice budget drains, then inspect the new fields.
    for _ in 0..400 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(6) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let status = http_get(&addr, "/status", TIMEOUT).expect("status");
    let doc = parse_json(&status.body).expect("status parses");
    let events_obj = doc.get("events").expect("events object");
    assert_eq!(
        events_obj.get("enabled").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(events_obj.get("published").and_then(JsonValue::as_u64) > Some(0));
    let per_master = doc
        .get("per_master_j")
        .and_then(JsonValue::as_array)
        .expect("per-master energy array");
    assert!(!per_master.is_empty());
    let stages = doc.get("stages").expect("stages object");
    let sim = stages.get("sim_us").expect("sim stage");
    assert!(sim.get("count").and_then(JsonValue::as_u64) > Some(0));
    assert!(sim.get("p95").and_then(JsonValue::as_f64).is_some());

    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    assert!(metrics
        .body
        .contains("energy_anomaly_baseline_updates_total"));
    assert!(metrics.body.contains("serve_stage_duration_microseconds"));
    assert!(metrics.body.contains("serve_events_published_total"));
    assert!(metrics.body.contains("power_master_energy_joules"));

    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.anomalies > 0, "injection must flag anomalies");

    // Causal-chain check on the flushed log: every flagged window links
    // through an energy booking to a completed transaction of the same
    // slice — the drill-down path the dashboard walks.
    let jsonl = std::fs::read_to_string(dir.join("events.jsonl")).expect("events flushed");
    let mut flagged = Vec::new();
    let mut booked_windows = std::collections::HashSet::new();
    let mut txn_keys = std::collections::HashSet::new();
    let mut saw_replay_start = false;
    let mut saw_replay_done = false;
    for line in jsonl.lines() {
        let doc = parse_json(line).expect("event line parses");
        match doc.get("event").and_then(JsonValue::as_str) {
            Some("AnomalyFlagged") => {
                flagged.push((event_u64(&doc, "window"), event_u64(&doc, "slice")));
            }
            Some("EnergyBooked") => {
                booked_windows.insert(event_u64(&doc, "window"));
            }
            Some("TxnComplete") => {
                txn_keys.insert((event_u64(&doc, "window"), event_u64(&doc, "slice")));
            }
            Some("ReplayStart") => saw_replay_start = true,
            Some("ReplayDone") => {
                saw_replay_done = true;
                assert!(
                    doc.get("a").and_then(JsonValue::as_f64).expect("a field") > 0.0,
                    "ReplayDone carries the measured cycles/s"
                );
            }
            _ => {}
        }
    }
    assert!(!flagged.is_empty(), "the log records the flagged windows");
    assert!(
        saw_replay_start && saw_replay_done,
        "the startup calibration brackets itself with ReplayStart/ReplayDone"
    );
    for (window, slice) in flagged {
        assert!(
            booked_windows.contains(&window),
            "window {window} flagged without an EnergyBooked"
        );
        assert!(
            txn_keys.contains(&(window, slice)),
            "window {window} (slice {slice}) has no TxnComplete to drill into"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_endpoint_conserves_energy_across_levels() {
    // One run, three zoom levels: the energy sum reported by /query must
    // be identical (to 1e-9 relative) at raw, 10x and 100x resolution,
    // and the step parameter must select the documented level.
    let cfg = ServeConfig {
        slice_cycles: 10_000,
        max_slices: Some(6),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    for _ in 0..400 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(6) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    let mut sums = Vec::new();
    for (step, want_factor) in [(1u64, 1u64), (10, 10), (100, 100)] {
        let path = format!("/query?series=energy&step={step}");
        let resp = http_get(&addr, &path, TIMEOUT).expect("query");
        assert_eq!(resp.status, 200, "step {step}");
        validate_json(&resp.body).expect("query payload is valid JSON");
        let doc = parse_json(&resp.body).expect("query parses");
        assert_eq!(
            doc.get("series").and_then(JsonValue::as_str),
            Some("energy")
        );
        assert_eq!(
            doc.get("factor").and_then(JsonValue::as_u64),
            Some(want_factor),
            "step {step} selects the {want_factor}x level"
        );
        let points = doc
            .get("points")
            .and_then(JsonValue::as_array)
            .expect("points array");
        assert!(!points.is_empty(), "step {step} returns data");
        let total: f64 = points
            .iter()
            .map(|p| p.get("sum").and_then(JsonValue::as_f64).expect("sum"))
            .sum();
        let windows: u64 = points
            .iter()
            .map(|p| {
                p.get("windows")
                    .and_then(JsonValue::as_u64)
                    .expect("windows")
            })
            .sum();
        sums.push((step, total, windows));
    }
    let (_, raw_sum, raw_windows) = sums[0];
    assert!(raw_sum > 0.0, "six slices book energy");
    for &(step, total, windows) in &sums[1..] {
        assert!(
            (total - raw_sum).abs() <= 1e-9 * raw_sum.abs(),
            "step {step}: {total} vs raw {raw_sum} — cascade lost energy"
        );
        assert_eq!(windows, raw_windows, "step {step} covers every raw window");
    }

    // Parameter validation: every failure mode answers a clean 400
    // with a message naming the problem, never a 500 or a silent
    // fallback to defaults.
    let missing = http_get(&addr, "/query", TIMEOUT).expect("missing series");
    assert_eq!(missing.status, 400);
    let unknown = http_get(&addr, "/query?series=nope", TIMEOUT).expect("unknown series");
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("nope"));
    let zero_step = http_get(&addr, "/query?series=energy&step=0", TIMEOUT).expect("step=0");
    assert_eq!(zero_step.status, 400);
    assert!(zero_step.body.contains("step"), "{}", zero_step.body);
    let inverted = http_get(&addr, "/query?series=energy&from=9&to=3", TIMEOUT).expect("from > to");
    assert_eq!(inverted.status, 400);
    assert!(inverted.body.contains("empty range"), "{}", inverted.body);
    for bad in [
        "/query?series=energy&from=abc",
        "/query?series=energy&to=1.5",
        "/query?series=energy&step=-2",
    ] {
        let resp = http_get(&addr, bad, TIMEOUT).expect("non-numeric parameter");
        assert_eq!(resp.status, 400, "{bad} must answer 400");
        assert!(resp.body.contains("bad"), "{bad}: {}", resp.body);
    }
    let bad_shard = http_get(&addr, "/query?series=energy&shard=9", TIMEOUT).expect("bad shard");
    assert_eq!(bad_shard.status, 400);
    assert!(
        bad_shard.body.contains("out of range"),
        "{}",
        bad_shard.body
    );

    let summary = handle.wait().expect("clean shutdown");
    assert_eq!(summary.slices, 6);
}

#[test]
fn anomaly_writes_flight_recorder_bundle_with_causal_chain() {
    // An injected fault must leave post-mortem bundles behind while the
    // server is still running: JSON-valid, carrying the detector state,
    // the surrounding raw windows, and a causal chain that reaches a
    // TxnComplete of the flagged window.
    let dir = tmp_dir("flightrec");
    let cfg = ServeConfig {
        slice_cycles: 10_000,
        max_slices: Some(6),
        anomaly: AnomalyConfig::default().with_warmup_windows(6),
        inject: Some(Injection {
            block: SubBlock::Arb,
            factor: 3.0,
            at_slice: 3,
        }),
        results_dir: Some(dir.clone()),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    for _ in 0..400 {
        let status = http_get(&addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(6) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // Status reports the bundle count before shutdown.
    let status = http_get(&addr, "/status", TIMEOUT).expect("status");
    let doc = parse_json(&status.body).expect("status parses");
    let bundles = doc
        .get("flightrec")
        .and_then(|f| f.get("bundles"))
        .and_then(JsonValue::as_u64)
        .expect("flightrec.bundles");
    assert!(bundles > 0, "anomalies must dump bundles while live");

    let rec_dir = dir.join("flightrec").join("shard-0");
    let mut saw_causal_txn = false;
    let entries: Vec<_> = std::fs::read_dir(&rec_dir)
        .expect("flightrec dir exists before shutdown")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(!entries.is_empty(), "at least one anomaly bundle on disk");
    for entry in &entries {
        let body = std::fs::read_to_string(entry.path()).expect("bundle reads");
        validate_json(&body).expect("bundle is valid JSON");
        let bundle = parse_json(&body).expect("bundle parses");
        assert_eq!(
            bundle.get("reason").and_then(JsonValue::as_str),
            Some("anomaly")
        );
        assert!(bundle.get("detector").is_some(), "detector state captured");
        let raw = bundle
            .get("raw_windows")
            .and_then(JsonValue::as_array)
            .expect("raw window context");
        assert!(!raw.is_empty(), "surrounding raw windows captured");
        let causal = bundle.get("causal").expect("causal section");
        let txns = causal
            .get("txn_complete")
            .and_then(JsonValue::as_array)
            .expect("txn_complete array");
        if !txns.is_empty() {
            saw_causal_txn = true;
        }
    }
    assert!(
        saw_causal_txn,
        "at least one bundle's causal chain reaches a TxnComplete"
    );

    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.anomalies > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_in_slice_dumps_post_mortem_and_server_survives() {
    // A seeded panic inside the simulation slice must not take the HTTP
    // server down: the worker catches it, dumps a "panic" bundle, and
    // the endpoints keep answering until /quit.
    let dir = tmp_dir("panic");
    let cfg = ServeConfig {
        max_slices: None,
        panic_at_slice: Some(2),
        results_dir: Some(dir.clone()),
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Wait for the panic bundle to land.
    let rec_dir = dir.join("flightrec").join("shard-0");
    let mut bundle = None;
    for _ in 0..400 {
        if let Ok(entries) = std::fs::read_dir(&rec_dir) {
            bundle = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|x| x == "json"));
            if bundle.is_some() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let bundle = bundle.expect("panic bundle written");
    let body = std::fs::read_to_string(&bundle).expect("bundle reads");
    validate_json(&body).expect("bundle is valid JSON");
    let doc = parse_json(&body).expect("bundle parses");
    assert_eq!(doc.get("reason").and_then(JsonValue::as_str), Some("panic"));

    // The server is still serving after the worker died.
    let health = http_get(&addr, "/healthz", TIMEOUT).expect("healthz after panic");
    assert_eq!(health.status, 200);
    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.slices < 3, "the panic cut the run short");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_is_a_merge_of_one() {
    // On a 1-shard plane the merged view and the shard-0 drill-down
    // render the same snapshot: once the slice budget has drained, every
    // aggregate of /status agrees and the event pages are byte-identical.
    let handle = serve(test_config()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let status = |path: &str| {
        let resp = http_get(&addr, path, TIMEOUT).expect("status");
        assert_eq!(resp.status, 200, "{path}");
        parse_json(&resp.body).expect("status parses")
    };
    for _ in 0..400 {
        if status("/status").get("slices").and_then(JsonValue::as_u64) == Some(3) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let merged = status("/status");
    let drilled = status("/status?shard=0");
    assert_eq!(merged.get("slices").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(
        drilled.get("shard").and_then(JsonValue::as_u64),
        Some(0),
        "drill-down names its shard"
    );
    for key in [
        "shards",
        "scenario_mix",
        "slices",
        "cycles",
        "seed",
        "total_energy_j",
        "window_power_uw",
        "anomalies",
        "transactions",
        "per_master_j",
        "events",
        "degraded",
        "high_water",
        "observatory",
        "flightrec",
        "replay",
        "instructions",
        "shard_detail",
    ] {
        assert!(merged.get(key).is_some(), "/status lacks {key}");
        assert_eq!(merged.get(key), drilled.get(key), "/status {key}");
    }
    let merged_stages = merged.get("stages").expect("stages");
    let drilled_stages = drilled.get("stages").expect("stages");
    for stage in ["sim_us", "publish_us"] {
        assert_eq!(
            merged_stages.get(stage),
            drilled_stages.get(stage),
            "{stage}"
        );
    }

    let events = http_get(&addr, "/events?since=0", TIMEOUT).expect("events");
    let drilled_events = http_get(&addr, "/events?since=0&shard=0", TIMEOUT).expect("events");
    assert_eq!(events.status, 200);
    assert_eq!(events.body, drilled_events.body, "one ring, one page");

    // The single ring parses `since` like the merged plane does: a
    // malformed cursor is a clean 400 with or without `shard=0`.
    for bad in [
        "/events?since=abc",
        "/events?since=abc&shard=0",
        "/events?since=1.2&shard=0",
    ] {
        let resp = http_get(&addr, bad, TIMEOUT).expect("bad cursor");
        assert_eq!(resp.status, 400, "{bad} must answer 400: {}", resp.body);
    }

    let summary = handle.wait().expect("clean shutdown");
    assert_eq!(summary.slices, 3);
}

#[test]
fn injection_spec_parses() {
    let inj = Injection::parse("arb:2.0@3").expect("full spec");
    assert_eq!(inj.block, SubBlock::Arb);
    assert_eq!(inj.factor, 2.0);
    assert_eq!(inj.at_slice, 3);
    let inj = Injection::parse("dec:1.5").expect("default slice");
    assert_eq!(inj.block, SubBlock::Dec);
    assert_eq!(inj.at_slice, 2);
    assert!(Injection::parse("nope:2.0").is_none());
    assert!(Injection::parse("arb").is_none());
    assert!(Injection::parse("arb:x").is_none());
    for bad in ["arb:nan", "arb:inf", "arb:-1"] {
        assert!(Injection::parse(bad).is_none(), "{bad} must be rejected");
    }
}

#[test]
fn trickled_request_line_is_answered_408_within_the_deadline() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    // One pool thread: a client sending its request line one byte per
    // 1.5 s must not hold it past the 2 s request deadline.
    let cfg = ServeConfig {
        http_threads: 1,
        ..test_config()
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let trickler = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(&addr).expect("connect");
            s.set_read_timeout(Some(TIMEOUT)).expect("timeout");
            for byte in *b"GE" {
                s.write_all(&[byte]).expect("trickle");
                std::thread::sleep(Duration::from_millis(1_500));
            }
            let mut reply = String::new();
            let _ = s.read_to_string(&mut reply);
            reply
        })
    };
    // Let the only pool thread pick the trickler up first.
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    let health = http_get(&addr, "/healthz", TIMEOUT).expect("healthz");
    let waited = started.elapsed();
    assert_eq!(health.status, 200);
    assert!(
        waited <= Duration::from_secs(3),
        "/healthz waited {waited:?} behind a trickling client"
    );
    let reply = trickler.join().expect("trickler");
    assert!(reply.starts_with("HTTP/1.1 408 "), "trickler got {reply:?}");

    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    let timeouts: f64 = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("serve_http_request_timeouts_total "))
        .expect("timeout counter exported")
        .parse()
        .expect("numeric counter");
    assert!(timeouts >= 1.0, "timeouts counted: {timeouts}");
    handle.wait().expect("clean shutdown");
}
