//! `chirp-client` — command-line client for `chirp-serve`.
//!
//! ```text
//! chirp-client ping     --addr HOST:PORT
//! chirp-client stats    --addr HOST:PORT
//! chirp-client submit   --addr HOST:PORT --file TRACE.chrp
//!                       [--name N] [--category C] [--seed S]
//!                       [--policies a,b,c] [--telemetry]
//! chirp-client run      --addr HOST:PORT --hash HEX16
//!                       [--name N] [--category C] [--seed S]
//!                       [--policies a,b,c] [--telemetry]
//! chirp-client shutdown --addr HOST:PORT
//! ```
//!
//! `submit` streams a `CHRP` trace file and prints the per-policy
//! verdict table; `run` re-runs a trace already in the server's archive
//! by content hash (`trace_tool hash <file>` prints it) without
//! uploading anything. When the server is saturated both print the
//! `BUSY` hint and exit with status 3 so scripts can distinguish
//! backpressure from failure.

use chirp_serve::client::{shutdown_server, Client, SubmitOutcome};
use chirp_serve::exit_on_err;
use chirp_serve::wire::VerdictReply;
use chirp_store::parse_hex16;
use std::net::SocketAddr;

const USAGE: &str = "usage: chirp-client <ping|stats|submit|run|shutdown> --addr HOST:PORT \
                     [--file TRACE.chrp] [--hash HEX16] [--name N] [--category C] [--seed S] \
                     [--policies a,b,c] [--telemetry]";

struct Args {
    addr: SocketAddr,
    file: Option<String>,
    hash: Option<u64>,
    name: Option<String>,
    category: String,
    seed: u64,
    policies: Vec<String>,
    telemetry: bool,
}

fn parse_args<I: Iterator<Item = String>>(mut it: I) -> Result<Args, String> {
    let mut addr = None;
    let mut out = Args {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        file: None,
        hash: None,
        name: None,
        category: "mixed".to_string(),
        seed: 1,
        policies: vec!["lru".to_string(), "chirp".to_string()],
        telemetry: false,
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => {
                let v = value("--addr")?;
                addr = Some(v.parse().map_err(|_| format!("--addr: invalid address {v}"))?);
            }
            "--file" => out.file = Some(value("--file")?),
            "--hash" => {
                let v = value("--hash")?;
                out.hash = Some(
                    parse_hex16(&v).ok_or(format!("--hash: expected 16 hex digits, got {v}"))?,
                );
            }
            "--name" => out.name = Some(value("--name")?),
            "--category" => out.category = value("--category")?,
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v.parse().map_err(|_| format!("--seed: invalid number {v}"))?;
            }
            "--policies" => {
                out.policies = value("--policies")?.split(',').map(str::to_string).collect();
            }
            "--telemetry" => out.telemetry = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    out.addr = addr.ok_or("--addr is required")?;
    Ok(out)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if command == "--help" || command == "-h" {
        println!("{USAGE}");
        return;
    }
    let args = exit_on_err(parse_args(argv), USAGE);

    match command.as_str() {
        "ping" => {
            let mut client = exit_on_err(Client::connect(args.addr), "connect");
            exit_on_err(client.ping(), "ping");
            println!("pong from {}", args.addr);
        }
        "stats" => {
            let mut client = exit_on_err(Client::connect(args.addr), "connect");
            print!("{}", exit_on_err(client.stats(), "stats"));
        }
        "shutdown" => {
            exit_on_err(shutdown_server(args.addr), "shutdown");
            println!("server at {} acknowledged shutdown", args.addr);
        }
        "submit" => {
            let file = exit_on_err(args.file.clone().ok_or("submit needs --file"), USAGE);
            let bytes = exit_on_err(std::fs::read(&file), format!("read trace file {file}"));
            let hash = chirp_store::fnv64(&bytes);
            let name = args
                .name
                .clone()
                .unwrap_or_else(|| format!("upload.{}.s{}", chirp_store::hex16(hash), args.seed));
            let mut client = exit_on_err(Client::connect(args.addr), "connect");
            let outcome = exit_on_err(
                client.submit_bytes(
                    &name,
                    &args.category,
                    args.seed,
                    &args.policies,
                    args.telemetry,
                    &bytes,
                ),
                format!("submit {file}"),
            );
            report(outcome);
        }
        "run" => {
            let hash = exit_on_err(args.hash.ok_or("run needs --hash"), USAGE);
            let name = args
                .name
                .clone()
                .unwrap_or_else(|| format!("upload.{}.s{}", chirp_store::hex16(hash), args.seed));
            let mut client = exit_on_err(Client::connect(args.addr), "connect");
            let outcome = exit_on_err(
                client.run_archived(
                    hash,
                    &name,
                    &args.category,
                    args.seed,
                    &args.policies,
                    args.telemetry,
                ),
                format!("run archived {}", chirp_store::hex16(hash)),
            );
            report(outcome);
        }
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn report(outcome: SubmitOutcome) {
    match outcome {
        SubmitOutcome::Verdict(reply) => print_verdict(&reply),
        SubmitOutcome::Busy { retry_after_ms, in_flight_bytes, budget_bytes } => {
            eprintln!(
                "BUSY: {in_flight_bytes} of {budget_bytes} budget bytes in flight; retry in \
                 {retry_after_ms} ms"
            );
            std::process::exit(3);
        }
    }
}

fn print_verdict(reply: &VerdictReply) {
    println!(
        "{} ({} records, content hash {})",
        reply.name,
        reply.trace_records,
        chirp_store::hex16(reply.content_hash)
    );
    println!("{:<12} {:>10} {:>12} {:>12} {:>8}", "policy", "mpki", "misses", "cycles", "source");
    for v in &reply.verdicts {
        println!(
            "{:<12} {:>10.4} {:>12} {:>12} {:>8}",
            v.policy,
            v.mpki,
            v.misses,
            v.cycles,
            if v.from_ledger { "ledger" } else { "sim" }
        );
    }
    println!("best: {}", reply.best_policy);
    if let Some(summary) = &reply.summary {
        println!("--- server telemetry ---\n{summary}");
    }
}
