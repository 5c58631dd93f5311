//! The ahbpower benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-explore|soc-live|serve-read --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it alternates untraced and traced passes and reports
//! the per-layer metrics. Metric names and units come from the
//! repository's `BENCHMARK.json`, so the printed set cannot drift from
//! the declared one. The last stdout line is the result object; the exit
//! code is 1 when an output check failed and 2 on a usage error.

mod paper_explore;
mod probe;
mod serve_read;
mod soc_live;
mod spans;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use ahbpower_ahb::BusStats;
use ahbpower_bench::{parse_json, JsonValue};

use crate::stats::Digest;

/// The benchmark's declaration: workloads and metrics with their units.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Closed-loop HTTP clients, before the cap at the host's cores.
const LOAD_THREADS: usize = 2;

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// How long the measured loop runs.
    pub run: Duration,
    /// The host's available parallelism.
    pub nproc: usize,
    /// Closed-loop HTTP clients.
    pub threads: usize,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines (digest, Table 1, sample counts).
    pub lines: Vec<String>,
    /// Extra fields for the JSON `meta` line, values already rendered.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one output check; a failure is reported and counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Counts `attempted` checks made elsewhere, of which `failures`
    /// failed.
    pub fn tally(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.lines
            .extend(failures.into_iter().map(|f| format!("CHECK FAILED: {f}")));
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Reports 0 for per-layer metrics of layers this workload never
    /// calls.
    pub fn absent(&mut self, layers: &[&str]) {
        for &layer in layers {
            self.set(layer, 0.0);
        }
    }

    /// Reports 0 for every HTTP-layer metric (workloads without a server).
    pub fn absent_http(&mut self) {
        for (name, _) in serve_read::ENDPOINTS {
            for field in ["p50_us", "p99_us", "bytes"] {
                self.set(format!("serve.http.{name}.{field}"), 0.0);
            }
        }
        self.set("serve.stage.render_p50_us", 0.0);
    }

    /// The exact-count per-layer metrics.
    pub fn counts(&mut self, bus: &BusStats, live: &LiveCounts) {
        self.set("ahb.bus.transfers_ok", bus.transfers_ok as f64);
        self.set("ahb.bus.wait_cycles", bus.wait_cycles as f64);
        self.set("ahb.bus.handovers", bus.handovers as f64);
        self.set("ahb.bus.idle_cycles", bus.idle_cycles as f64);
        self.set("core.telemetry.events.published", live.published as f64);
        self.set("core.telemetry.events.dropped", live.dropped as f64);
        self.set(
            "core.telemetry.events.dropped_ratio",
            live.dropped as f64 / live.published.max(1) as f64,
        );
        self.set("core.telemetry.observatory.windows", live.windows as f64);
        self.set("core.telemetry.anomaly.flagged", live.flagged as f64);
        self.set("serve.shed", live.shed as f64);
        self.set("serve.errors", live.errors as f64);
    }

    /// Checks that a run's output digest equals the reference one.
    pub fn same_digest(&mut self, want: Digest, got: Digest, what: &str) {
        self.check(want.hex() == got.hex(), || {
            format!("{what} digest {} != reference {}", got.hex(), want.hex())
        });
    }

    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }
}

/// Live-path counters a workload reports (zero where it has none).
#[derive(Debug, Default, Clone, Copy)]
pub struct LiveCounts {
    pub published: u64,
    pub dropped: u64,
    pub windows: u64,
    pub flagged: u64,
    pub shed: u64,
    pub errors: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper-explore|soc-live|serve-read> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &JsonValue, list: &str) -> Result<Vec<(String, String)>, String> {
    let items = spec
        .get(list)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no '{list}' list"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a '{list}' entry lacks '{k}'"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match parse_json(SPEC) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json does not parse: {e:?}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        seed: args.seed,
        run: Duration::from_secs(args.seconds),
        nproc,
        threads: LOAD_THREADS.min(nproc),
    };
    let result = match args.workload.as_str() {
        "paper-explore" => paper_explore::run(&cfg, args.trace),
        "soc-live" => soc_live::run(&cfg, args.trace),
        "serve-read" => serve_read::run(&cfg, args.trace),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !out.metrics.contains_key("peak_rss_mb") {
        match stats::peak_rss_mb() {
            Ok(mb) => out.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wanted = match declared(&spec, list) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.nproc,
        cfg.threads
    );
    for line in &out.lines {
        println!("{line}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "checks attempted={} failed={} error_rate={error_rate}",
        out.attempted, out.failed
    );

    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let Some(&value) = out.metrics.get(name) else {
            eprintln!("perfbench: {} did not measure '{name}'", args.workload);
            return ExitCode::from(2);
        };
        if !value.is_finite() {
            eprintln!("perfbench: '{name}' measured {value}");
            return ExitCode::from(2);
        }
        println!("  {name:<36} {value:>16} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    let mut meta = vec![
        format!("\"workload\":{}", json_string(&args.workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"trace\":{}", args.trace),
        format!("\"nproc\":{}", cfg.nproc),
        format!("\"threads\":{}", cfg.threads),
        format!("\"error_rate\":{error_rate}"),
    ];
    meta.extend(
        out.meta
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k))),
    );
    println!("{{\"meta\":{{{}}}}}", meta.join(","));
    let correct = out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
