//! Production full-suite driver on the streaming path.
//!
//! Runs the 9-policy extended lineup over the suite through
//! [`chirp_sim::run_suite_streamed`]: every (benchmark × policy) unit
//! streams its trace in bounded batches (peak per-unit residency is
//! O(`--stream-chunk`), not O(trace)), finished units land in the store
//! ledger as they complete, and a rerun resumes from whatever a previous
//! invocation — interrupted or not — already recorded.
//!
//! ```text
//! full_suite --store results/store --benchmarks 8 --instructions 1_000_000
//! full_suite --store results/store --resume       # continue, fail if no progress
//! ```
//!
//! `--store DIR` is required (resumability lives in the ledger).
//! `--resume` additionally asserts the ledger already holds results, so a
//! typo'd store path fails fast instead of silently starting over. The
//! usual harness flags (`--threads`, `--mem-budget`, `--stream-chunk`,
//! `--telemetry*`) apply; `--stream-chunk` sets the batch size of every
//! suite run, and results are bit-identical to `run_all`'s at any thread
//! count, budget or chunk size.

use chirp_bench::{exit_on_err, lineup9, policy_label, print_scheduler_summary, HarnessArgs};
use chirp_sim::run_suite_streamed;
use chirp_store::Store;
use chirp_trace::suite::{build_suite, SuiteConfig};

fn main() {
    let args = HarnessArgs::from_env();
    let Some(root) = &args.store else {
        eprintln!("full_suite needs --store DIR: incremental progress lives in the ledger");
        std::process::exit(2);
    };

    if args.resume {
        let store = exit_on_err(Store::open(root), format!("cannot open store {}", root.display()));
        let prior = store.ledger.len();
        if prior == 0 {
            eprintln!(
                "--resume: ledger at {} holds no results to resume from \
                 (run once without --resume first)",
                root.display()
            );
            std::process::exit(1);
        }
        eprintln!("[resume] ledger already holds {prior} results");
    }

    let suite = build_suite(&SuiteConfig { benchmarks: args.benchmarks });
    let policies = lineup9();
    let config = args.runner_config();
    let units = suite.len() * policies.len();
    eprintln!(
        "[full-suite] {} benchmarks x {} policies = {units} units at {} instructions \
         (chunk {}, {} threads)",
        suite.len(),
        policies.len(),
        args.instructions,
        config.stream_chunk_records(),
        config.worker_threads(),
    );

    let t0 = std::time::Instant::now();
    let (runs, stats) = exit_on_err(
        run_suite_streamed(&suite, &policies, &config, root),
        "streamed full-suite run failed",
    );
    let elapsed = t0.elapsed().as_secs_f64();

    let simulated_instr = stats.simulated as u64 * args.instructions as u64;
    eprintln!(
        "[full-suite] {} simulated, {} from ledger ({} archive streams, {} generated, \
         {} regenerated) in {elapsed:.1}s ({:.1}M instr/s)",
        stats.simulated,
        stats.ledger_hits,
        stats.trace_hits,
        stats.trace_generated,
        stats.trace_regenerated,
        simulated_instr as f64 / elapsed.max(1e-9) / 1e6,
    );
    print_scheduler_summary("full suite");

    // Per-policy rollup over the whole suite — the same numbers
    // `chirp-query 'mean mpki from runs group by policy'` answers from
    // the ledger this run just wrote.
    println!("{:<12} {:>10} {:>10} {:>12}", "policy", "mean MPKI", "mean IPC", "benchmarks");
    for (pi, policy) in policies.iter().enumerate() {
        let rows: Vec<_> = runs.iter().skip(pi).step_by(policies.len()).collect();
        let n = rows.len().max(1) as f64;
        let mpki = rows.iter().map(|r| r.result.mpki()).sum::<f64>() / n;
        let ipc = rows.iter().map(|r| r.result.ipc()).sum::<f64>() / n;
        println!("{:<12} {:>10.4} {:>10.4} {:>12}", policy_label(policy), mpki, ipc, rows.len());
    }
}
