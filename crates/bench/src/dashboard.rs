//! The self-hosted monitoring dashboard served at `GET /` by
//! `repro serve`: one static HTML page, zero external assets, whose
//! inline script polls `/status`, `/events` and `/query` and renders a
//! window energy sparkline, a zoomable historical chart backed by the
//! power observatory (raw → 10× → 100× retention levels with min/max
//! bands and an anomaly timeline), per-master attribution bars, stage
//! latencies, an event-ring health badge (drops + drain lag), and an
//! anomaly log with causal drill-down (anomaly window → booked energy
//! → the transactions inside that window).
//!
//! On a multi-shard plane the header grows a shard selector: the "all"
//! view renders the merged endpoints plus a per-shard overview table
//! (from `/status`'s `shard_detail`), while picking a shard appends
//! `shard=K` to every poll for single-shard drill-down. The `/events`
//! cursor is treated as opaque — numeric on one shard, dot-joined on
//! the merged plane — so the same polling loop serves both.
//!
//! Everything is vanilla DOM + one `<canvas>`; the page works from the
//! same std-only HTTP server as `/metrics` with no build step.

/// The dashboard page, served verbatim.
pub const DASHBOARD_HTML: &str = r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>ahbpower live</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         margin: 0; background: #11151c; color: #d8dee9; }
  header { padding: 10px 16px; background: #181d26; border-bottom: 1px solid #2a3140; }
  header h1 { font-size: 15px; margin: 0 0 4px; color: #88c0d0; }
  #summary span { margin-right: 18px; color: #9aa5b5; }
  #summary b { color: #eceff4; font-weight: 600; }
  main { display: grid; grid-template-columns: 1fr 1fr; gap: 14px; padding: 14px 16px; }
  section { background: #181d26; border: 1px solid #2a3140; border-radius: 6px; padding: 10px 12px; }
  section h2 { font-size: 12px; margin: 0 0 8px; color: #81a1c1; text-transform: uppercase;
               letter-spacing: 0.08em; }
  canvas { width: 100%; height: 120px; display: block; }
  .bar-row { display: flex; align-items: center; margin: 3px 0; }
  .bar-label { width: 90px; color: #9aa5b5; }
  .bar-track { flex: 1; background: #11151c; border-radius: 3px; height: 14px; }
  .bar-fill { background: #5e81ac; height: 14px; border-radius: 3px; min-width: 2px; }
  .bar-val { width: 110px; text-align: right; color: #9aa5b5; padding-left: 8px; }
  table { width: 100%; border-collapse: collapse; }
  th, td { text-align: right; padding: 2px 8px; border-bottom: 1px solid #222836; }
  th:first-child, td:first-child { text-align: left; }
  th { color: #81a1c1; font-weight: 600; }
  #anomalies tr.flag { color: #bf616a; cursor: pointer; }
  #anomalies tr.flag:hover { background: #232a38; }
  #drill { white-space: pre; color: #a3be8c; max-height: 200px; overflow: auto;
           background: #11151c; border-radius: 4px; padding: 8px; margin-top: 8px; }
  #err { color: #bf616a; padding: 4px 16px; }
  .badge { background: #bf616a; color: #eceff4; border-radius: 3px;
           padding: 0 6px; margin-right: 18px; font-weight: 600; }
  .zoom button { font: inherit; background: #232a38; color: #9aa5b5; border: 1px solid #2a3140;
                 border-radius: 3px; padding: 1px 8px; margin-left: 6px; cursor: pointer; }
  .zoom button.on { background: #5e81ac; color: #eceff4; }
  #histmeta { color: #9aa5b5; margin-top: 4px; }
</style>
</head>
<body>
<header>
  <h1>ahbpower &mdash; AMBA AHB power model, live
    <select id="shardsel" style="display:none; float:right; font:inherit;
      background:#232a38; color:#d8dee9; border:1px solid #2a3140;"></select>
  </h1>
  <div id="summary">connecting&hellip;</div>
</header>
<div id="err"></div>
<main>
  <section>
    <h2>Window energy (J) &mdash; measured vs predicted</h2>
    <canvas id="spark" width="560" height="120"></canvas>
  </section>
  <section>
    <h2>Per-master energy attribution</h2>
    <div id="masters"></div>
    <h2 style="margin-top:12px">Stage latency (&micro;s)</h2>
    <table id="stages"><thead><tr><th>stage</th><th>count</th><th>p50</th><th>p95</th><th>p99</th></tr></thead><tbody></tbody></table>
  </section>
  <section style="grid-column: 1 / -1">
    <h2 class="zoom">Power history &mdash; observatory
      <button id="z1" data-step="1">raw</button>
      <button id="z10" data-step="10" class="on">10&times;</button>
      <button id="z100" data-step="100">100&times;</button>
    </h2>
    <canvas id="hist" width="1140" height="140"></canvas>
    <div id="histmeta">loading history&hellip;</div>
  </section>
  <section id="shardview" style="grid-column: 1 / -1; display: none">
    <h2>Shards &mdash; merged plane overview</h2>
    <table id="shardtable"><thead><tr><th>shard</th><th>mix</th><th>seed</th><th>slices</th><th>cycles</th><th>energy J</th><th>txns</th><th>anomalies</th><th>ring drop/lag</th><th>bundles</th></tr></thead><tbody></tbody></table>
  </section>
  <section style="grid-column: 1 / -1">
    <h2>Anomaly log (click a row for the causal trace)</h2>
    <table id="anomalies"><thead><tr><th>window</th><th>slice</th><th>start cycle</th><th>deviation %</th><th>z</th></tr></thead><tbody></tbody></table>
    <div id="drill">no anomaly selected</div>
  </section>
</main>
<script>
"use strict";
var cursor = 0;            // opaque: numeric on one shard, dot-joined merged
var buffer = [];           // retained events, oldest first
var BUFFER_CAP = 20000;
var masterNames = ["cpu", "dma", "stream", "m3", "m4", "m5", "m6", "m7"];
var shard = "";            // "" = merged plane, "K" = drill into shard K
var shardCount = 1;

// Appends the shard drill-down parameter; sep is "?" or "&" depending
// on whether the path already has a query string.
function shardQ(sep) { return shard === "" ? "" : sep + "shard=" + shard; }

function setShard(value) {
  shard = value;
  cursor = 0; buffer = [];   // each shard (and the merged plane) has its own cursor space
  renderSpark(); renderAnomalies(); poll(); pollHistory();
}

function renderShardSelector(s) {
  // Every /status (merged or drill-down) carries the plane-level
  // "shards" count; keep the largest seen so the selector is built once.
  var n = s.shards || 1;
  var sel = byId("shardsel");
  if (n > shardCount) {
    shardCount = n;
    var opts = '<option value="">all shards</option>';
    for (var i = 0; i < n; i++) { opts += '<option value="' + i + '">shard ' + i + "</option>"; }
    sel.innerHTML = opts;
    sel.value = shard;
  }
  sel.style.display = shardCount < 2 ? "none" : "";
}

function renderShardTable(s) {
  var detail = s.shard_detail || [];
  var view = byId("shardview");
  if (shard !== "" || detail.length < 2) { view.style.display = "none"; return; }
  view.style.display = "";
  var rows = "";
  detail.forEach(function (d) {
    var ev = d.events || {};
    rows += "<tr><td>" + d.shard + (d.degraded ? ' <span class="badge">degraded</span>' : "") +
      "</td><td>" + esc(d.scenario_mix) + "</td><td>" + d.seed + "</td><td>" + d.slices +
      "</td><td>" + d.cycles + "</td><td>" + fmt(d.total_energy_j, 9) +
      "</td><td>" + (d.transactions || 0) + "</td><td>" + (d.anomalies || 0) +
      "</td><td>" + (ev.dropped || 0) + "/" + (ev.lag || 0) +
      "</td><td>" + (d.flightrec_bundles || 0) + "</td></tr>";
  });
  byId("shardtable").tBodies[0].innerHTML = rows;
}

byId("shardsel").addEventListener("change", function () {
  setShard(byId("shardsel").value);
});

function byId(id) { return document.getElementById(id); }
function fmt(x, d) { return (x == null) ? "-" : Number(x).toFixed(d == null ? 2 : d); }
function esc(s) { return String(s).replace(/[&<>]/g, function (c) {
  return { "&": "&amp;", "<": "&lt;", ">": "&gt;" }[c]; }); }

function renderSummary(s) {
  // Ring health: a red badge whenever events were lost to wraparound or
  // the worker's drain cursor is lagging the publish counter.
  var drops = s.events ? (s.events.dropped || 0) : 0;
  var lag = s.events ? (s.events.lag || 0) : 0;
  var badges = "";
  if (drops > 0 || lag > 0) {
    badges += '<span class="badge">ring: ' + drops + " dropped / lag " + lag + "</span>";
  }
  if (s.degraded) { badges += '<span class="badge">degraded</span>'; }
  byId("summary").innerHTML =
    "<span>mix <b>" + esc(s.scenario_mix) + "</b></span>" +
    "<span>slices <b>" + s.slices + "</b></span>" +
    "<span>cycles <b>" + s.cycles + "</b></span>" +
    "<span>txns <b>" + (s.transactions || 0) + "</b></span>" +
    "<span>energy <b>" + fmt(s.total_energy_j, 6) + " J</b></span>" +
    "<span>anomalies <b>" + s.anomalies.count + "/" + s.anomalies.windows + "</b></span>" +
    "<span>events <b>" + (s.events ? s.events.published : 0) +
      (s.events && s.events.dropped ? " (-" + s.events.dropped + ")" : "") + "</b></span>" +
    "<span>up <b>" + fmt(s.uptime_s, 0) + "s</b></span>" + badges;
}

function renderMasters(s) {
  var per = s.per_master_j || [];
  var max = Math.max.apply(null, per.concat([1e-12]));
  var html = "";
  for (var i = 0; i < per.length; i++) {
    var pct = Math.max(0.5, 100 * per[i] / max);
    html += '<div class="bar-row"><div class="bar-label">' +
      esc(masterNames[i] || ("m" + i)) + '</div>' +
      '<div class="bar-track"><div class="bar-fill" style="width:' + pct + '%"></div></div>' +
      '<div class="bar-val">' + fmt(per[i], 6) + ' J</div></div>';
  }
  byId("masters").innerHTML = html || "no data yet";
}

function renderStages(s) {
  var rows = "";
  var st = s.stages || {};
  ["sim_us", "publish_us", "render_us"].forEach(function (k) {
    var h = st[k] || {};
    rows += "<tr><td>" + k.replace("_us", "") + "</td><td>" + (h.count || 0) +
      "</td><td>" + fmt(h.p50, 0) + "</td><td>" + fmt(h.p95, 0) +
      "</td><td>" + fmt(h.p99, 0) + "</td></tr>";
  });
  byId("stages").tBodies[0].innerHTML = rows;
}

function renderSpark() {
  var booked = buffer.filter(function (e) { return e.event === "EnergyBooked"; }).slice(-120);
  var c = byId("spark");
  var g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  if (!booked.length) { return; }
  var max = 1e-15;
  booked.forEach(function (e) { max = Math.max(max, e.a || 0, e.b || 0); });
  function plot(key, color) {
    g.strokeStyle = color;
    g.lineWidth = key === "a" ? 1.6 : 1;
    g.beginPath();
    booked.forEach(function (e, i) {
      var x = i * (c.width - 4) / Math.max(1, booked.length - 1) + 2;
      var y = c.height - 4 - (e[key] || 0) / max * (c.height - 10);
      if (i === 0) { g.moveTo(x, y); } else { g.lineTo(x, y); }
    });
    g.stroke();
  }
  plot("b", "#4c566a");   // predicted, dim
  plot("a", "#88c0d0");   // measured, bright
  // flag anomalous windows in red
  var flagged = {};
  buffer.forEach(function (e) { if (e.event === "AnomalyFlagged") { flagged[e.window] = true; } });
  g.fillStyle = "#bf616a";
  booked.forEach(function (e, i) {
    if (flagged[e.window]) {
      var x = i * (c.width - 4) / Math.max(1, booked.length - 1) + 2;
      var y = c.height - 4 - (e.a || 0) / max * (c.height - 10);
      g.fillRect(x - 2, y - 2, 4, 4);
    }
  });
}

function drill(win) {
  var lines = [];
  buffer.forEach(function (e) {
    if (e.window !== win) { return; }
    if (e.event === "AnomalyFlagged") {
      lines.unshift("AnomalyFlagged  window=" + e.window + " slice=" + e.slice +
        " deviation=" + fmt(e.a, 1) + "% z=" + fmt(e.b, 2));
    } else if (e.event === "EnergyBooked") {
      lines.push("EnergyBooked    window=" + e.window + " measured=" + fmt(e.a, 9) +
        "J predicted=" + fmt(e.b, 9) + "J");
    } else if (e.event === "TxnComplete") {
      lines.push("TxnComplete     txn=" + e.txn + " master=" +
        (masterNames[e.tag] || ("m" + e.tag)) + " beats=" + fmt(e.a, 0) +
        " waits=" + fmt(e.b, 0) + " cycle=" + e.cycle);
    }
  });
  byId("drill").textContent = lines.length
    ? lines.join("\n")
    : "window " + win + ": transactions already evicted from the client buffer";
}

function renderAnomalies() {
  var flags = buffer.filter(function (e) { return e.event === "AnomalyFlagged"; }).slice(-50);
  var rows = "";
  flags.reverse().forEach(function (e) {
    rows += '<tr class="flag" data-w="' + e.window + '"><td>' + e.window + "</td><td>" +
      e.slice + "</td><td>" + e.cycle + "</td><td>" + fmt(e.a, 1) + "</td><td>" +
      fmt(e.b, 2) + "</td></tr>";
  });
  byId("anomalies").tBodies[0].innerHTML =
    rows || '<tr><td colspan="5">none flagged</td></tr>';
}

byId("anomalies").addEventListener("click", function (ev) {
  var tr = ev.target.closest("tr.flag");
  if (tr) { drill(Number(tr.getAttribute("data-w"))); }
});

// --- Historical chart: the power observatory behind GET /query. The
// step parameter picks the retention level (1 = raw windows, 10 and
// 100 the downsampled rings), so zooming out never loses the run's
// history — it just answers from a coarser ring.
var histStep = 10;

function setZoom(step) {
  histStep = step;
  ["z1", "z10", "z100"].forEach(function (id) {
    var b = byId(id);
    b.className = Number(b.getAttribute("data-step")) === step ? "on" : "";
  });
  pollHistory();
}
["z1", "z10", "z100"].forEach(function (id) {
  byId(id).addEventListener("click", function () {
    setZoom(Number(byId(id).getAttribute("data-step")));
  });
});

function renderHistory(energy, anomalies) {
  var c = byId("hist");
  var g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  var pts = energy.points || [];
  if (!pts.length) { byId("histmeta").textContent = "no history yet"; return; }
  var max = 1e-15;
  pts.forEach(function (p) { max = Math.max(max, p.max || 0); });
  function x(i) { return i * (c.width - 4) / Math.max(1, pts.length - 1) + 2; }
  function y(v) { return c.height - 14 - (v || 0) / max * (c.height - 24); }
  // min/max band across each bucket's raw windows
  g.fillStyle = "rgba(136,192,208,0.18)";
  g.beginPath();
  pts.forEach(function (p, i) {
    if (i === 0) { g.moveTo(x(i), y(p.max)); } else { g.lineTo(x(i), y(p.max)); }
  });
  for (var i = pts.length - 1; i >= 0; i--) { g.lineTo(x(i), y(pts[i].min)); }
  g.closePath();
  g.fill();
  // per-window mean energy line
  g.strokeStyle = "#88c0d0";
  g.lineWidth = 1.6;
  g.beginPath();
  pts.forEach(function (p, i) {
    var mean = p.sum / Math.max(1, p.windows || 1);
    if (i === 0) { g.moveTo(x(i), y(mean)); } else { g.lineTo(x(i), y(mean)); }
  });
  g.stroke();
  // anomaly timeline strip along the bottom (red tick = flagged windows
  // inside that bucket)
  var flagged = {};
  (anomalies.points || []).forEach(function (p) {
    if (p.sum > 0) { flagged[p.bucket] = p.sum; }
  });
  g.fillStyle = "#bf616a";
  pts.forEach(function (p, i) {
    if (flagged[p.bucket]) { g.fillRect(x(i) - 1, c.height - 8, 3, 6); }
  });
  var first = pts[0];
  var last = pts[pts.length - 1];
  byId("histmeta").textContent =
    "level " + energy.level + " (" + energy.factor + " window(s)/bucket), " +
    pts.length + " buckets, windows " + first.start_window + "–" +
    (last.start_window + Math.max(1, last.windows || 1) - 1) +
    ", peak " + Number(max).toExponential(3) + " J";
}

function pollHistory() {
  var step = histStep;
  Promise.all([
    fetch("/query?series=energy&step=" + step + shardQ("&")).then(function (r) { return r.json(); }),
    fetch("/query?series=anomalies&step=" + step + shardQ("&")).then(function (r) { return r.json(); })
  ]).then(function (rs) {
    if (histStep === step) { byId("err").textContent = ""; renderHistory(rs[0], rs[1]); }
  }).catch(function (e) { byId("err").textContent = "query: " + e; });
}

function poll() {
  fetch("/status" + shardQ("?")).then(function (r) { return r.json(); }).then(function (s) {
    byId("err").textContent = "";
    renderSummary(s); renderMasters(s); renderStages(s);
    renderShardSelector(s); renderShardTable(s);
  }).catch(function (e) { byId("err").textContent = "status: " + e; });
  fetch("/events?since=" + cursor + "&max=4096" + shardQ("&")).then(function (r) { return r.json(); })
    .then(function (b) {
      cursor = b.next;
      if (b.events.length) {
        buffer = buffer.concat(b.events);
        if (buffer.length > BUFFER_CAP) { buffer = buffer.slice(buffer.length - BUFFER_CAP); }
        renderSpark(); renderAnomalies();
      }
    }).catch(function (e) { byId("err").textContent = "events: " + e; });
}
poll();
pollHistory();
setInterval(poll, 1000);
setInterval(pollHistory, 2000);
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_is_self_contained() {
        // No external fetches beyond the service's own endpoints: every
        // src/href/fetch target must be a local absolute path.
        assert!(!DASHBOARD_HTML.contains("http://"));
        assert!(!DASHBOARD_HTML.contains("https://"));
        assert!(!DASHBOARD_HTML.contains("<script src"));
        assert!(!DASHBOARD_HTML.contains("<link"));
        for endpoint in ["/status", "/events?since=", "/query?series="] {
            assert!(
                DASHBOARD_HTML.contains(endpoint),
                "dashboard must poll {endpoint}"
            );
        }
    }

    #[test]
    fn dashboard_zooms_across_retention_levels_and_badges_ring_health() {
        // The history chart must offer all three observatory resolutions
        // and the header must be able to flag ring drops/lag in red.
        for step in ["data-step=\"1\"", "data-step=\"10\"", "data-step=\"100\""] {
            assert!(DASHBOARD_HTML.contains(step), "zoom button {step}");
        }
        assert!(DASHBOARD_HTML.contains("series=anomalies"));
        assert!(DASHBOARD_HTML.contains("class=\"badge\""));
        assert!(DASHBOARD_HTML.contains("dropped"));
    }

    #[test]
    fn dashboard_has_shard_selector_and_merged_overview() {
        // The shard selector drives ?shard= drill-down on every poll,
        // the merged view renders the per-shard overview table, and the
        // events cursor is passed through opaquely (never parsed), so
        // the dot-joined merged cursor works unchanged.
        assert!(DASHBOARD_HTML.contains("id=\"shardsel\""));
        assert!(DASHBOARD_HTML.contains("shardQ"));
        assert!(DASHBOARD_HTML.contains("id=\"shardtable\""));
        assert!(DASHBOARD_HTML.contains("shard_detail"));
        assert!(DASHBOARD_HTML.contains("cursor = b.next"));
        assert!(
            !DASHBOARD_HTML.contains("Number(b.next)"),
            "the cursor must stay opaque"
        );
    }

    #[test]
    fn dashboard_renders_the_causal_chain() {
        // The drill-down names the three event kinds of the causal
        // chain the acceptance test checks in events.jsonl.
        for kind in ["AnomalyFlagged", "EnergyBooked", "TxnComplete"] {
            assert!(DASHBOARD_HTML.contains(kind), "drill-down must show {kind}");
        }
    }
}
