//! `loadgen` — closed-loop load generator for `chirp-serve`.
//!
//! ```text
//! loadgen (--addr HOST:PORT | --spawn) [--sessions N] [--requests N]
//!         [--benchmarks N] [--instructions N] [--policies a,b,c]
//!         [--chunk-delay-ms N] [--mem-budget BYTES[K|M|G]]
//!         [--store DIR] [--bench-out FILE]
//! ```
//!
//! Drives N concurrent submit sessions against a live server (`--addr`)
//! or against a private in-process server over a temporary store
//! (`--spawn`). Prints the throughput/latency report and, with
//! `--bench-out`, appends one JSON trajectory line in the
//! `BENCH_runner.json` format (`scripts/bench.sh` guards
//! `serve_req_per_sec` against regressions). A usage error (an unknown
//! flag, a missing or invalid value, neither `--addr` nor `--spawn`)
//! exits with status 2; a failed run (a server that cannot be reached, a
//! failed request) exits with status 1.

use chirp_serve::loadgen::{run_load, LoadGenConfig};
use chirp_serve::server::{serve, ServeConfig};
use chirp_serve::{exit_on_err, exit_on_usage_err, parse_bytes};
use chirp_store::JsonObject;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: loadgen (--addr HOST:PORT | --spawn) [--sessions N] [--requests N] \
                     [--benchmarks N] [--instructions N] [--policies a,b,c] [--chunk-delay-ms N] \
                     [--mem-budget BYTES[K|M|G]] [--store DIR] [--bench-out FILE]";

/// What the flags ask for.
struct Args {
    /// The load; its address is the server's when `spawn` is false.
    load: LoadGenConfig,
    spawn: bool,
    store: Option<PathBuf>,
    mem_budget: Option<u64>,
    bench_out: Option<PathBuf>,
}

fn main() {
    let Some(args) = exit_on_usage_err(parse_args(std::env::args().skip(1)), USAGE) else {
        println!("{USAGE}");
        return;
    };
    let Args { mut load, spawn, store, mem_budget, bench_out } = args;

    // A spawned server lives exactly as long as the load run; its store
    // is private (temp dir) unless --store pins one, so repeated bench
    // runs measure the same cold-ledger work.
    let (_tmp, handle) = if spawn {
        let (tmp, root) = match &store {
            Some(dir) => (None, dir.clone()),
            None => {
                let tmp = chirp_store::TempDir::new("loadgen");
                let root = tmp.path().to_path_buf();
                (Some(tmp), root)
            }
        };
        let handle = exit_on_err(
            serve(ServeConfig { store: root, mem_budget, ..ServeConfig::default() }),
            "spawn server",
        );
        load.addr = handle.addr();
        (tmp, Some(handle))
    } else {
        (None, None)
    };

    let report = exit_on_err(run_load(&load), "run load");
    println!("[loadgen] {}", report.render());

    if let Some(path) = bench_out {
        let mut line = JsonObject::new();
        line.set_str("bench", "serve_loadgen")
            .set_u64("sessions", load.sessions as u64)
            .set_u64("requests", load.requests as u64)
            .set_u64("benchmarks", load.benchmarks as u64)
            .set_u64("instructions", load.instructions as u64)
            // One closed-loop pass per invocation; recorded so every
            // trajectory line carries its repetition count.
            .set_u64("reps", 1)
            .set_u64("ok", report.ok)
            .set_u64("busy", report.busy)
            .set_u64("dropped", report.dropped)
            .set_u64("errors", report.errors)
            .set_u64("serve_req_per_sec", report.req_per_sec().round() as u64)
            .set_u64("serve_p50_ms", report.p50_ms())
            .set_u64("serve_p99_ms", report.p99_ms());
        exit_on_err(append_line(&path, &line.to_json()), format!("append {}", path.display()));
        println!("[loadgen] appended trajectory line to {}", path.display());
    }

    if let Some(handle) = handle {
        exit_on_err(handle.shutdown(), "shut down spawned server");
    }
    if report.errors > 0 {
        eprintln!("loadgen: {} requests failed", report.errors);
        std::process::exit(1);
    }
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// The run the flags describe, or `None` for `--help`.
fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Option<Args>, String> {
    let mut addr: Option<SocketAddr> = None;
    let mut parsed = Args {
        load: LoadGenConfig { sessions: 4, requests: 8, ..LoadGenConfig::default() },
        spawn: false,
        store: None,
        mem_budget: None,
        bench_out: None,
    };
    let load = &mut parsed.load;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => {
                let v = value("--addr")?;
                addr = Some(v.parse().map_err(|_| format!("--addr: invalid address {v}"))?);
            }
            "--spawn" => parsed.spawn = true,
            "--store" => parsed.store = Some(PathBuf::from(value("--store")?)),
            "--bench-out" => parsed.bench_out = Some(PathBuf::from(value("--bench-out")?)),
            "--sessions" => load.sessions = parse_num(&value("--sessions")?, "--sessions")?,
            "--requests" => load.requests = parse_num(&value("--requests")?, "--requests")?,
            "--benchmarks" => load.benchmarks = parse_num(&value("--benchmarks")?, "--benchmarks")?,
            "--instructions" => {
                load.instructions = parse_num(&value("--instructions")?, "--instructions")?
            }
            "--policies" => {
                load.policies = value("--policies")?.split(',').map(str::to_string).collect()
            }
            "--chunk-delay-ms" => {
                let ms = parse_num(&value("--chunk-delay-ms")?, "--chunk-delay-ms")? as u64;
                load.chunk_delay = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--mem-budget" => {
                let v = value("--mem-budget")?;
                parsed.mem_budget = Some(parse_bytes(&v).ok_or(format!(
                    "--mem-budget: invalid byte count {v} (use e.g. 64M, 2G, 500000)"
                ))?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !parsed.spawn {
        load.addr = addr.ok_or("need --addr or --spawn")?;
    }
    Ok(Some(parsed))
}

fn parse_num(v: &str, flag: &str) -> Result<usize, String> {
    v.replace('_', "").parse().map_err(|_| format!("{flag}: invalid number {v}"))
}
