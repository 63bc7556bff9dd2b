//! `chirp-serve` — the trace-ingest simulation server.
//!
//! ```text
//! chirp-serve [--bind ADDR] [--store DIR]
//!             [--mem-budget BYTES[K|M|G]] [--retry-after-ms N]
//!             [--max-sessions N]
//! ```
//!
//! Binds one listener, prints `chirp-serve listening on ADDR` (`--bind`
//! port 0 picks an ephemeral port — scripts parse this line), then
//! serves until a client sends `Shutdown`. A usage error (an unknown
//! flag, a missing or invalid value) exits with status 2, a failure to
//! start with status 1.

use chirp_serve::server::{serve, ServeConfig};
use chirp_serve::{exit_on_err, exit_on_usage_err, parse_bytes};
use std::net::SocketAddr;
use std::path::PathBuf;

const USAGE: &str = "usage: chirp-serve [--bind ADDR] [--store DIR] \
                     [--mem-budget BYTES[K|M|G]] [--retry-after-ms N] [--max-sessions N]\n\
                     an unknown flag or a missing or invalid value exits with status 2";

fn main() {
    let Some(config) = exit_on_usage_err(parse_args(std::env::args().skip(1)), USAGE) else {
        println!("{USAGE}");
        return;
    };
    let handle = exit_on_err(serve(config), "start server");
    println!("chirp-serve listening on {}", handle.addr());
    handle.join();
    println!("chirp-serve: shut down cleanly");
}

/// The server configuration the flags describe, or `None` for `--help`.
fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Option<ServeConfig>, String> {
    let mut config = ServeConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], 4650)),
        store: PathBuf::from("results/serve-store"),
        ..ServeConfig::default()
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str, what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match arg.as_str() {
            "--bind" => {
                let v = value("--bind", "an address")?;
                config.bind = v.parse().map_err(|_| format!("--bind: invalid address {v}"))?;
            }
            "--store" => config.store = PathBuf::from(value("--store", "a directory")?),
            "--mem-budget" => {
                let v = value("--mem-budget", "a byte count")?;
                let bytes = parse_bytes(&v).filter(|&b| b > 0).ok_or(format!(
                    "--mem-budget: invalid byte count {v} (use e.g. 64M, 2G, 500000)"
                ))?;
                config.mem_budget = Some(bytes);
            }
            "--retry-after-ms" => {
                let v = value("--retry-after-ms", "a number")?;
                config.retry_after_ms =
                    v.parse().map_err(|_| format!("--retry-after-ms: invalid number {v}"))?;
            }
            "--max-sessions" => {
                let v = value("--max-sessions", "a number")?;
                config.max_sessions = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--max-sessions: invalid positive number {v}"))?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(config))
}
