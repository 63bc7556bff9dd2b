//! `chirp-serve` — the trace-ingest simulation server.
//!
//! ```text
//! chirp-serve [--bind ADDR] [--store DIR]
//!             [--mem-budget BYTES[K|M|G]] [--retry-after-ms N]
//! ```
//!
//! Binds one listener, prints `chirp-serve listening on ADDR` (`--bind`
//! port 0 picks an ephemeral port — scripts parse this line), then
//! serves until a client sends `Shutdown`.

use chirp_serve::exit_on_err;
use chirp_serve::server::{serve, ServeConfig};
use std::net::SocketAddr;
use std::path::PathBuf;

const USAGE: &str = "usage: chirp-serve [--bind ADDR] [--store DIR] \
                     [--mem-budget BYTES[K|M|G]] [--retry-after-ms N]";

fn main() {
    let mut config = ServeConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], 4650)),
        store: PathBuf::from("results/serve-store"),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bind" => {
                let v = exit_on_err(args.next().ok_or("--bind needs an address"), USAGE);
                config.bind = exit_on_err(v.parse(), format!("--bind: invalid address {v}"));
            }
            "--store" => {
                let v = exit_on_err(args.next().ok_or("--store needs a directory"), USAGE);
                config.store = PathBuf::from(v);
            }
            "--mem-budget" => {
                let v = exit_on_err(args.next().ok_or("--mem-budget needs a byte count"), USAGE);
                let bytes = exit_on_err(
                    parse_bytes(&v).ok_or("use e.g. 64M, 2G, 500000"),
                    format!("--mem-budget: invalid byte count {v}"),
                );
                config.mem_budget = Some(bytes);
            }
            "--retry-after-ms" => {
                let v = exit_on_err(args.next().ok_or("--retry-after-ms needs a number"), USAGE);
                config.retry_after_ms =
                    exit_on_err(v.parse(), format!("--retry-after-ms: invalid number {v}"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => exit_on_err(Err(format!("unknown flag {other}")), USAGE),
        }
    }
    if config.mem_budget == Some(0) {
        exit_on_err(Err::<(), _>("--mem-budget must be positive"), USAGE);
    }

    let handle = exit_on_err(serve(config), "start server");
    println!("chirp-serve listening on {}", handle.addr());
    handle.join();
    println!("chirp-serve: shut down cleanly");
}

/// Byte count with an optional binary K/M/G suffix; `_` separators are
/// allowed in the digits. Mirrors `chirp-bench`'s `--mem-budget` syntax.
fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.replace('_', "");
    let (digits, shift) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 10),
        b'm' | b'M' => (&v[..v.len() - 1], 20),
        b'g' | b'G' => (&v[..v.len() - 1], 30),
        _ => (v.as_str(), 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(1u64 << shift)
}
