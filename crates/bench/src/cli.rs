//! Minimal command-line parsing shared by every harness binary.
//!
//! All binaries accept the same flags:
//!
//! ```text
//! --benchmarks N      number of suite benchmarks (default 96)
//! --instructions M    instructions simulated per benchmark (default 1_000_000)
//! --threads T         worker threads (default: available parallelism)
//! --store DIR         chirp-store directory: skip runs whose results are
//!                     already in the ledger, stream traces the archive
//!                     holds (rewriting corrupt ones)
//! --mem-budget BYTES  cap on packed-trace bytes in flight across workers
//!                     (suffixes K/M/G; default unbounded)
//! --full              shorthand for the paper-scale run (870 benchmarks)
//! --telemetry MODE    off|summary|epochs (default off; epochs records a
//!                     per-epoch JSONL time series next to the results)
//! --epoch-instructions N
//!                     measured instructions per telemetry epoch
//!                     (default 100_000)
//! --telemetry-out DIR where telemetry series land
//!                     (default results/telemetry)
//! --stream-chunk N    records per streamed batch, which every suite run
//!                     takes (default 65_536; results are bit-identical at
//!                     any chunk size)
//! --resume            require prior progress: fail fast unless the
//!                     `--store` ledger already holds results to resume
//!                     from (binaries that support incremental runs)
//! --input FILE        read a previously written data file instead of
//!                     simulating (binaries that support report-only mode)
//! ```
//!
//! Flag parsing lives here and only here — binaries get new flags by
//! adding a field to [`HarnessArgs`], never by hand-rolling `env::args`
//! loops.

use chirp_core::ChirpConfig;
use chirp_sim::{PolicyKind, RunnerConfig, TelemetrySpec};
use chirp_telemetry::TelemetryMode;
use std::path::PathBuf;

/// The 9-policy extended lineup: the paper's six
/// ([`PolicyKind::paper_lineup`]) plus the extension baselines this
/// repository adds — DRRIP, perceptron reuse prediction and a
/// short-history (8-entry path) CHiRP variant. The single definition
/// shared by the harness binaries and Criterion benches, so every
/// "extended lineup" table and trajectory line means the same nine
/// policies.
pub fn lineup9() -> Vec<PolicyKind> {
    let mut policies = PolicyKind::paper_lineup();
    policies.push(PolicyKind::Drrip);
    policies.push(PolicyKind::PerceptronReuse);
    policies.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
    policies
}

/// Display label for a policy in report tables. Same as
/// [`PolicyKind::name`] except that non-default CHiRP configurations get
/// their path length appended (`chirp-p8`), so the two CHiRP variants in
/// [`lineup9`] stay distinguishable in output rows.
pub fn policy_label(kind: &PolicyKind) -> String {
    match kind {
        PolicyKind::Chirp(c) if *c != ChirpConfig::default() => {
            format!("chirp-p{}", c.path_length)
        }
        _ => kind.name().to_string(),
    }
}

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Number of benchmarks sampled from the suite.
    pub benchmarks: usize,
    /// Instructions simulated per benchmark.
    pub instructions: usize,
    /// Worker threads.
    pub threads: usize,
    /// Optional `chirp-store` directory for incremental execution.
    pub store: Option<PathBuf>,
    /// Optional cap on packed-trace bytes resident across workers.
    pub mem_budget: Option<u64>,
    /// Telemetry mode for binaries that support instrumented runs.
    pub telemetry: TelemetryMode,
    /// Measured instructions per telemetry epoch.
    pub epoch_instructions: u64,
    /// Directory where telemetry series are written.
    pub telemetry_out: PathBuf,
    /// Records per streamed batch of every suite run (`0` means the
    /// runner's [`chirp_sim::DEFAULT_STREAM_CHUNK`]).
    pub stream_chunk: usize,
    /// When set, binaries that run incrementally fail fast unless the
    /// `--store` ledger already holds progress to resume from.
    pub resume: bool,
    /// Previously written data file for binaries with a report-only mode.
    pub input: Option<PathBuf>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            benchmarks: 96,
            instructions: 1_000_000,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            store: None,
            mem_budget: None,
            telemetry: TelemetryMode::Off,
            epoch_instructions: 100_000,
            telemetry_out: PathBuf::from("results/telemetry"),
            stream_chunk: 0,
            resume: false,
            input: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments; unknown flags are errors.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed flags or values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--benchmarks" => out.benchmarks = next_num(&mut it, &arg)?,
                "--instructions" => out.instructions = next_num(&mut it, &arg)?,
                "--threads" => out.threads = next_num(&mut it, &arg)?,
                "--store" => {
                    let dir = it.next().ok_or_else(|| format!("{arg} needs a directory"))?;
                    out.store = Some(PathBuf::from(dir));
                }
                "--mem-budget" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a byte count"))?;
                    out.mem_budget = Some(parse_bytes(&v).ok_or_else(|| {
                        format!("{arg}: invalid byte count {v} (use e.g. 64M, 2G, 500000)")
                    })?);
                }
                "--full" => {
                    out.benchmarks = 870;
                    out.instructions = 10_000_000;
                }
                "--telemetry" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a mode"))?;
                    out.telemetry = v.parse().map_err(|e| format!("{arg}: {e}"))?;
                }
                "--epoch-instructions" => {
                    out.epoch_instructions = next_num(&mut it, &arg)? as u64;
                }
                "--telemetry-out" => {
                    let dir = it.next().ok_or_else(|| format!("{arg} needs a directory"))?;
                    out.telemetry_out = PathBuf::from(dir);
                }
                "--stream-chunk" => {
                    out.stream_chunk = next_num(&mut it, &arg)?;
                    if out.stream_chunk == 0 {
                        return Err("--stream-chunk must be positive".to_string());
                    }
                }
                "--resume" => out.resume = true,
                "--input" => {
                    let file = it.next().ok_or_else(|| format!("{arg} needs a file path"))?;
                    if out.input.is_some() {
                        return Err(format!("{arg} given more than once"));
                    }
                    out.input = Some(PathBuf::from(file));
                }
                "--help" | "-h" => {
                    return Err(format!(
                        "usage: [--benchmarks N] [--instructions M] [--threads T] \
                         [--store DIR] [--mem-budget BYTES[K|M|G]] [--full] \
                         [--telemetry {}] [--epoch-instructions N] [--telemetry-out DIR] \
                         [--stream-chunk N] [--resume] [--input FILE]",
                        TelemetryMode::HELP
                    ))
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if out.benchmarks == 0 || out.instructions == 0 || out.threads == 0 {
            return Err("flag values must be positive".to_string());
        }
        if out.mem_budget == Some(0) {
            return Err("--mem-budget must be positive".to_string());
        }
        if out.epoch_instructions == 0 {
            return Err("--epoch-instructions must be positive".to_string());
        }
        if out.resume && out.store.is_none() {
            return Err("--resume needs --store DIR: there is no ledger to resume from".to_string());
        }
        Ok(out)
    }

    /// Parses the current process arguments, exiting with the usage string
    /// on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The [`RunnerConfig`] these arguments describe — the single place
    /// that maps harness flags (including `--store` and `--mem-budget`)
    /// onto the runner.
    pub fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            instructions: self.instructions,
            threads: self.threads,
            store: self.store.clone(),
            mem_budget: self.mem_budget,
            stream_chunk: self.stream_chunk,
            ..Default::default()
        }
    }

    /// The [`TelemetrySpec`] these arguments describe.
    pub fn telemetry_spec(&self) -> TelemetrySpec {
        TelemetrySpec { mode: self.telemetry, epoch_instructions: self.epoch_instructions }
    }
}

/// Unwraps a top-level fallible operation in a harness binary, printing
/// a contextual error to stderr and exiting with status 1 instead of
/// panicking with a backtrace. For operator-facing I/O failures (missing
/// directories, permissions), the message is the useful part.
pub fn exit_on_err<T, E: std::fmt::Display>(result: Result<T, E>, context: impl AsRef<str>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {}: {e}", context.as_ref());
            std::process::exit(1);
        }
    }
}

/// Prints the scheduler's one-line summary for the experiment that just
/// ran, tagged with `label`. Prints only a summary recorded since the
/// previous call, so an experiment that scheduled nothing (every pair
/// came from the ledger, or it never uses the scheduler) prints nothing
/// rather than an earlier experiment's summary.
pub fn print_scheduler_summary(label: &str) {
    if let Some(summary) = chirp_sim::take_scheduler_summary() {
        println!("[scheduler] {label}: {}", summary.render());
    }
}

/// Parses a byte count with an optional K/M/G (binary) suffix; `_`
/// separators are allowed in the digits. Returns `None` on anything else.
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

fn next_num<I: Iterator<Item = String>>(it: &mut I, flag: &str) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.replace('_', "").parse().map_err(|_| format!("{flag}: invalid number {v}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn lineup9_is_paper_six_plus_extensions() {
        let lineup = lineup9();
        assert_eq!(lineup.len(), 9);
        let names: Vec<&str> = lineup.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["lru", "random", "srrip", "ship", "ghrp", "chirp", "drrip", "perceptron", "chirp"]
        );
        let labels: Vec<String> = lineup.iter().map(policy_label).collect();
        assert_eq!(labels[5], "chirp");
        assert_eq!(labels[8], "chirp-p8", "short-history variant gets a distinct label");
    }

    #[test]
    fn defaults_when_empty() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.benchmarks, 96);
        assert_eq!(a.instructions, 1_000_000);
        assert_eq!(a.store, None);
        assert_eq!(a.mem_budget, None);
    }

    #[test]
    fn parses_flags() {
        let a =
            parse(&["--benchmarks", "10", "--instructions", "5_000", "--threads", "2"]).unwrap();
        assert_eq!(
            a,
            HarnessArgs {
                benchmarks: 10,
                instructions: 5_000,
                threads: 2,
                ..HarnessArgs::default()
            }
        );
    }

    #[test]
    fn telemetry_flags_parse_and_reach_the_spec() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.telemetry, TelemetryMode::Off);
        assert!(!a.telemetry_spec().mode.is_enabled(), "telemetry defaults off");

        let a = parse(&[
            "--telemetry",
            "epochs",
            "--epoch-instructions",
            "50_000",
            "--telemetry-out",
            "out/t",
        ])
        .unwrap();
        assert_eq!(a.telemetry, TelemetryMode::Epochs);
        assert_eq!(a.telemetry_out, PathBuf::from("out/t"));
        let spec = a.telemetry_spec();
        assert_eq!(spec.mode, TelemetryMode::Epochs);
        assert_eq!(spec.epoch_instructions, 50_000);

        assert_eq!(parse(&["--telemetry", "summary"]).unwrap().telemetry, TelemetryMode::Summary);
        assert!(parse(&["--telemetry", "loud"]).is_err());
        assert!(parse(&["--telemetry"]).is_err());
        assert!(parse(&["--epoch-instructions", "0"]).is_err());
        assert!(parse(&["--telemetry-out"]).is_err());
    }

    #[test]
    fn full_sets_paper_scale() {
        let a = parse(&["--full"]).unwrap();
        assert_eq!(a.benchmarks, 870);
        assert_eq!(a.instructions, 10_000_000);
    }

    #[test]
    fn store_flag_reaches_runner_config() {
        let a = parse(&["--store", "results/store"]).unwrap();
        assert_eq!(a.store.as_deref(), Some(std::path::Path::new("results/store")));
        let config = a.runner_config();
        assert_eq!(config.store, a.store);
        assert_eq!(config.instructions, a.instructions);
        assert_eq!(config.threads, a.threads);
        assert!(parse(&["--store"]).is_err(), "--store requires a directory");
    }

    #[test]
    fn mem_budget_parses_suffixes_and_reaches_runner_config() {
        assert_eq!(parse(&["--mem-budget", "4096"]).unwrap().mem_budget, Some(4096));
        assert_eq!(parse(&["--mem-budget", "64K"]).unwrap().mem_budget, Some(64 << 10));
        assert_eq!(parse(&["--mem-budget", "64m"]).unwrap().mem_budget, Some(64 << 20));
        assert_eq!(parse(&["--mem-budget", "2G"]).unwrap().mem_budget, Some(2 << 30));
        assert_eq!(parse(&["--mem-budget", "1_024"]).unwrap().mem_budget, Some(1024));
        let config = parse(&["--mem-budget", "8M"]).unwrap().runner_config();
        assert_eq!(config.mem_budget, Some(8 << 20));
    }

    #[test]
    fn mem_budget_rejects_garbage() {
        assert!(parse(&["--mem-budget"]).is_err(), "needs a value");
        assert!(parse(&["--mem-budget", "lots"]).is_err());
        assert!(parse(&["--mem-budget", "0"]).is_err());
        assert!(parse(&["--mem-budget", "M"]).is_err(), "suffix without digits");
        assert!(parse(&["--mem-budget", "99999999999G"]).is_err(), "overflow");
    }

    #[test]
    fn stream_chunk_flag_reaches_runner_config() {
        assert_eq!(parse(&[]).unwrap().stream_chunk, 0, "defaults to the runner default");
        let a = parse(&["--stream-chunk", "8_192"]).unwrap();
        assert_eq!(a.stream_chunk, 8_192);
        assert_eq!(a.runner_config().stream_chunk, 8_192);
        assert_eq!(a.runner_config().stream_chunk_records(), 8_192);
        assert!(parse(&["--stream-chunk", "0"]).is_err());
        assert!(parse(&["--stream-chunk"]).is_err());
    }

    #[test]
    fn resume_requires_a_store() {
        assert!(!parse(&[]).unwrap().resume);
        assert!(parse(&["--resume"]).is_err(), "--resume without --store is an error");
        let a = parse(&["--resume", "--store", "results/store"]).unwrap();
        assert!(a.resume);
    }

    #[test]
    fn input_flag_parses_once() {
        assert_eq!(parse(&[]).unwrap().input, None);
        let a = parse(&["--input", "results/telemetry/series.jsonl"]).unwrap();
        assert_eq!(a.input, Some(PathBuf::from("results/telemetry/series.jsonl")));
        assert!(parse(&["--input"]).is_err());
        assert!(parse(&["--input", "a", "--input", "b"]).is_err(), "duplicate --input");
    }

    #[test]
    fn rejects_unknown_and_zero() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--benchmarks"]).is_err());
        assert!(parse(&["--benchmarks", "abc"]).is_err());
    }
}
