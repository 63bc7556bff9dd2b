//! # chirp-serve
//!
//! A concurrent trace-ingest simulation service for the CHiRP
//! reproduction: clients stream packed traces (or name archived ones by
//! content hash) to a long-lived server, which runs each request's
//! missing policies as one group on the simulator's chunk driver, on the
//! request's own session thread, and answers with MPKI /
//! policy-comparison verdicts.
//!
//! The service is deliberately built on blocking `std::net` sockets and
//! one OS thread per session — the workspace is offline, so there is no
//! async runtime to lean on, and none is needed: simulation is
//! CPU-bound, sessions are few and long-lived, and a thread per session
//! keeps the control flow linear (see DESIGN.md).
//!
//! Layers:
//!
//! * [`wire`] — length-prefixed framing and message codec;
//! * [`server`] — the admission-controlled service itself;
//! * [`client`] — blocking client library used by `chirp-client` and the
//!   tests;
//! * [`loadgen`] — closed-loop load generator measuring request
//!   throughput and latency quantiles.
//!
//! ## Quick start
//!
//! ```
//! use chirp_serve::client::{Client, SubmitOutcome};
//! use chirp_serve::server::{serve, ServeConfig};
//! use chirp_trace::suite::{build_suite, SuiteConfig};
//! use chirp_trace::write_trace_packed;
//!
//! let root = chirp_store::TempDir::new("serve-doc");
//! let handle = serve(ServeConfig {
//!     store: root.path().to_path_buf(),
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//!
//! let spec = &build_suite(&SuiteConfig { benchmarks: 1 })[0];
//! let bytes = write_trace_packed(&spec.generate_packed(5_000));
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let outcome = client
//!     .submit_bytes(&spec.name, spec.category.label(), spec.seed, &["lru".into()], false, &bytes)
//!     .unwrap();
//! match outcome {
//!     SubmitOutcome::Verdict(v) => assert_eq!(v.best_policy, "lru"),
//!     SubmitOutcome::Busy { .. } => unreachable!("empty server always admits"),
//! }
//! drop(client);
//! handle.shutdown().unwrap();
//! ```

pub mod client;
pub mod loadgen;
mod metrics;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, SubmitOutcome};
pub use loadgen::{run_load, LoadGenConfig, LoadReport};
pub use server::{serve, ServeConfig, ServeError, ServerHandle};

/// Unwraps a command-line parse in one of this crate's binaries: a usage
/// error (an unknown flag, a missing or invalid flag value) prints the
/// error and `usage` to stderr and exits with status 2, as `chirp-bench`'s
/// binaries do, so scripts can tell a bad invocation from a failed run.
pub fn exit_on_usage_err<T, E: std::fmt::Display>(result: Result<T, E>, usage: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Unwraps a top-level fallible operation in one of this crate's
/// binaries, printing a contextual error to stderr and exiting with
/// status 1 instead of panicking with a backtrace. Mirrors the helper of
/// the same name in `chirp-bench`: for operator-facing failures (refused
/// connections, missing files) the message is the useful part. Usage
/// errors go through [`exit_on_usage_err`] instead.
pub fn exit_on_err<T, E: std::fmt::Display>(result: Result<T, E>, context: impl AsRef<str>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {}: {e}", context.as_ref());
            std::process::exit(1);
        }
    }
}
