//! `chirp-dash` — render the benchmark trajectory (and optionally the
//! run ledger) into one static HTML dashboard.
//!
//! ```text
//! chirp-dash --trajectory BENCH_runner.json --out results/dashboard.html
//! chirp-dash --trajectory BENCH_runner.json --store results/store --out dash.html
//! ```
//!
//! Every number on the dashboard comes out of the query engine: each
//! panel is one query run through [`chirp_query::run_query`] and embedded
//! as the exact JSONL that `chirp-query --json` prints for that query —
//! byte-identical, because both call [`chirp_query::Answer::render_json`]
//! on the same index. The payload lands in a
//! `<script type="application/json" id="chirp-data">` block; a small
//! inline script renders SVG trajectory charts (sequential and factored
//! throughput, serve p50/p99) with regression markers wherever a point drops
//! more than 10% below its predecessor — the same `new < 0.9 * prev`
//! rule `scripts/bench.sh`'s guard applies — plus a per-policy MPKI
//! panel (`mean mpki from runs group by policy`) when a store is given.
//!
//! Flags:
//!
//! ```text
//! --trajectory FILE  bench trajectory JSONL (default BENCH_runner.json)
//! --store DIR        run ledger for the per-policy MPKI panel
//! --out FILE         output HTML file (default results/dashboard.html)
//! ```

use chirp_query::{run_query, QueryIndex};
use chirp_store::JsonObject;
use std::path::PathBuf;
use std::process::ExitCode;

/// The dashboard panels: id, chart title, and the query whose
/// `chirp-query --json` output the panel plots. Trajectory panels read
/// the `bench` table; the MPKI panel reads `runs` and only renders when
/// a store is attached.
const TRAJECTORY_PANELS: [(&str, &str, &str); 5] = [
    (
        "sim_throughput",
        "Simulator throughput (instr/s, sequential baseline)",
        "show instr_per_sec_1t from bench where bench=sim_throughput",
    ),
    (
        "sim_throughput_factored",
        "Factored lineup throughput (instr/s, 1 front end + 9 back-ends)",
        "show instr_per_sec_1t_factored from bench where bench=sim_throughput",
    ),
    (
        "serve_req_per_sec",
        "chirp-serve request throughput (req/s)",
        "show serve_req_per_sec from bench where bench=serve_loadgen",
    ),
    (
        "serve_p50_ms",
        "chirp-serve latency p50 (ms)",
        "show serve_p50_ms from bench where bench=serve_loadgen",
    ),
    (
        "serve_p99_ms",
        "chirp-serve latency p99 (ms)",
        "show serve_p99_ms from bench where bench=serve_loadgen",
    ),
];

const MPKI_PANEL: (&str, &str, &str) =
    ("mpki_by_policy", "Mean MPKI per policy (run ledger)", "mean mpki from runs group by policy");

struct Args {
    trajectory: PathBuf,
    store: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trajectory: PathBuf::from("BENCH_runner.json"),
        store: None,
        out: PathBuf::from("results/dashboard.html"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trajectory" => {
                args.trajectory = it.next().ok_or("--trajectory needs a file")?.into();
            }
            "--store" => args.store = Some(it.next().ok_or("--store needs a directory")?.into()),
            "--out" => args.out = it.next().ok_or("--out needs a file")?.into(),
            "--help" | "-h" => {
                return Err(
                    "usage: chirp-dash [--trajectory FILE] [--store DIR] [--out FILE]".to_string()
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("chirp-dash: {message}");
            return ExitCode::from(2);
        }
    };

    let mut index = QueryIndex::new();
    if let Err(e) = index.add_jsonl_file("bench", &args.trajectory) {
        eprintln!("chirp-dash: cannot load trajectory {}: {e}", args.trajectory.display());
        return ExitCode::from(2);
    }
    if let Some(store) = &args.store {
        if let Err(e) = index.add_store_root(store) {
            eprintln!("chirp-dash: cannot load store {}: {e}", store.display());
            return ExitCode::from(2);
        }
    }

    // One payload entry per panel: the query text and the byte-exact
    // `chirp-query --json` answer for it.
    let mut panels: Vec<(&str, &str, &str)> = TRAJECTORY_PANELS.to_vec();
    if args.store.is_some() {
        panels.push(MPKI_PANEL);
    }
    let mut payload = JsonObject::new();
    for (id, title, query) in &panels {
        let jsonl = match run_query(query, &index) {
            Ok(answer) => answer.render_json(),
            Err(e) => {
                eprintln!("chirp-dash: query for panel {id} failed: {e}");
                return ExitCode::from(2);
            }
        };
        let mut entry = JsonObject::new();
        entry.set_str("title", title);
        entry.set_str("query", query);
        entry.set_str("jsonl", &jsonl);
        payload.set_str(id, &entry.to_json());
    }

    let html = render_html(&payload);
    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("chirp-dash: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, html) {
        eprintln!("chirp-dash: cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "chirp-dash: {} panels from {} -> {}",
        panels.len(),
        args.trajectory.display(),
        args.out.display()
    );
    ExitCode::SUCCESS
}

/// The static page: embedded data payload plus an inline renderer. The
/// payload is the only dynamic part; `<\/` escaping keeps the JSON block
/// from terminating the script element early.
fn render_html(payload: &JsonObject) -> String {
    let data = payload.to_json().replace("</", "<\\/");
    format!(
        r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>CHiRP benchmark trajectory</title>
<style>
body {{ font: 14px/1.4 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #222; }}
h1 {{ font-size: 1.4rem; }}
h2 {{ font-size: 1.05rem; margin: 1.5rem 0 0.25rem; }}
.query {{ color: #777; font: 12px ui-monospace, monospace; margin: 0 0 0.5rem; }}
svg {{ background: #fafafa; border: 1px solid #ddd; }}
.empty {{ color: #999; font-style: italic; }}
table {{ border-collapse: collapse; }}
td, th {{ padding: 2px 10px; text-align: right; border-bottom: 1px solid #eee; }}
th:first-child, td:first-child {{ text-align: left; }}
.bar {{ fill: #4878b0; }}
.warn {{ color: #b03030; font-weight: 600; }}
</style>
</head>
<body>
<h1>CHiRP benchmark trajectory</h1>
<p>Every number below is a <code>chirp-query --json</code> answer embedded verbatim;
red markers flag points more than 10% below their predecessor — the same rule
<code>scripts/bench.sh</code>'s regression guard applies.</p>
<div id="panels"></div>
<script type="application/json" id="chirp-data">{data}</script>
<script>
"use strict";
const payload = JSON.parse(document.getElementById("chirp-data").textContent);
const root = document.getElementById("panels");

function rowsOf(entry) {{
  return entry.jsonl.split("\n").filter(Boolean).map(JSON.parse)
    .filter(r => !("scalar" in r) || Object.keys(r).length > 1);
}}

function metricOf(rows) {{
  if (!rows.length) return null;
  const skip = new Set(["source", "benchmark", "bench", "policy", "workload", "epoch", "key", "n", "scalar"]);
  for (const k of Object.keys(rows[0])) {{
    if (!skip.has(k) && typeof rows[0][k] === "number") return k;
  }}
  return null;
}}

function fmt(v) {{
  if (v >= 1e6) return (v / 1e6).toFixed(2) + "M";
  if (v >= 1e3) return (v / 1e3).toFixed(1) + "k";
  return (Math.round(v * 1000) / 1000).toString();
}}

function chart(values, sources) {{
  const W = 640, H = 180, PAD = 42;
  const min = Math.min(...values), max = Math.max(...values);
  const span = (max - min) || 1;
  const x = i => values.length === 1 ? W / 2 :
    PAD + i * (W - 2 * PAD) / (values.length - 1);
  const y = v => H - PAD - (v - min) * (H - 2 * PAD) / span;
  let s = `<svg width="${{W}}" height="${{H}}" role="img">`;
  s += `<text x="4" y="${{y(max) + 4}}" font-size="11" fill="#777">${{fmt(max)}}</text>`;
  s += `<text x="4" y="${{y(min) + 4}}" font-size="11" fill="#777">${{fmt(min)}}</text>`;
  const pts = values.map((v, i) => `${{x(i)}},${{y(v)}}`).join(" ");
  s += `<polyline points="${{pts}}" fill="none" stroke="#4878b0" stroke-width="2"/>`;
  let regressions = 0;
  values.forEach((v, i) => {{
    const regressed = i > 0 && v < 0.9 * values[i - 1];
    if (regressed) regressions++;
    s += `<circle cx="${{x(i)}}" cy="${{y(v)}}" r="${{regressed ? 5 : 3}}"` +
         ` fill="${{regressed ? "#b03030" : "#4878b0"}}">` +
         `<title>${{sources[i]}}: ${{v}}${{regressed ? " (regressed >10%)" : ""}}</title></circle>`;
  }});
  s += `</svg>`;
  return {{ svg: s, regressions }};
}}

function barTable(rows, metric, keyField) {{
  const max = Math.max(...rows.map(r => r[metric])) || 1;
  let s = `<table><tr><th>${{keyField}}</th><th>${{metric}}</th><th></th></tr>`;
  for (const r of rows) {{
    const w = Math.max(1, Math.round(160 * r[metric] / max));
    s += `<tr><td>${{r[keyField]}}</td><td>${{r[metric]}}</td>` +
         `<td><svg width="170" height="12"><rect class="bar" width="${{w}}" height="12"/></svg></td></tr>`;
  }}
  return s + `</table>`;
}}

for (const [id, raw] of Object.entries(payload)) {{
  const entry = JSON.parse(raw);
  const rows = rowsOf(entry);
  const div = document.createElement("div");
  let body;
  const metric = metricOf(rows);
  if (!rows.length || metric === null) {{
    body = `<p class="empty">no data in trajectory</p>`;
  }} else if (id === "mpki_by_policy") {{
    body = barTable(rows, metric, "policy");
  }} else {{
    const values = rows.map(r => r[metric]);
    const sources = rows.map(r => r.source || "");
    const c = chart(values, sources);
    body = c.svg + (c.regressions
      ? `<p class="warn">${{c.regressions}} regression marker(s) &gt;10% below predecessor</p>`
      : "");
  }}
  div.innerHTML = `<h2>${{entry.title}}</h2><p class="query">$ ${{entry.query}}</p>` + body;
  root.appendChild(div);
}}
</script>
</body>
</html>
"##
    )
}
