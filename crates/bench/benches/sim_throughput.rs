//! Single-thread simulation throughput: the monomorphized columnar
//! reference loop (`Simulator::with_policy` over `PolicyDispatch` +
//! `run_columnar`) and the factored engine
//! (one shared front-end pass + 9 replay back-ends per benchmark,
//! `FactoredTrace::build` + `replay_factored`), per policy and over the whole (benchmark ×
//! policy) matrix, in instructions per second.
//!
//! Besides the Criterion lines, appends one JSON object to
//! `BENCH_runner.json` at the workspace root (override with
//! `CHIRP_BENCH_OUT`) carrying `instr_per_sec_1t` — the sequential
//! `run_columnar` baseline — and the factored trio
//! `instr_per_sec_1t_factored` / `frontend_events_per_instr` /
//! `factored_speedup` (factored over sequential at lineup width 9).
//! `scripts/bench.sh` compares the sequential and factored numbers
//! against the previous line and warns on >10% regressions, and checks
//! the `factored_speedup >= 3.0` acceptance floor.
//!
//! Each headline number is the best of `CHIRP_BENCH_REPS` sweeps
//! (default 3) and the line records the reps used. Best-of-N is the
//! noise protocol: a genuine code regression slows every sweep, while a
//! noisy-host slide (CPU contention in a shared container) leaves at
//! least one clean sweep at higher N — raise the env var before trusting
//! a drop. The committed trajectory's 25.3M -> 15.4M instr/s slide is of
//! the second kind: it spans entries with no simulator-code changes and
//! tracks host load (see EXPERIMENTS.md "Throughput trajectory noise").

use chirp_bench::{lineup9, policy_label};
use chirp_sim::{PolicyKind, SimConfig, Simulator};
use chirp_trace::suite::{build_suite, BenchmarkSpec, SuiteConfig};
use chirp_trace::PackedTrace;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::path::PathBuf;
use std::time::Instant;

const BENCHMARKS: usize = 4;
const INSTRUCTIONS: usize = 60_000;

fn run_columnar(config: &SimConfig, policy: &PolicyKind, trace: &PackedTrace, seed: u64) -> u64 {
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    sim.run_columnar(trace, config.warmup_fraction).instructions
}

/// Instructions per second over the whole (benchmark × policy) matrix
/// through the sequential `run_columnar` loop, best of `reps` sweeps so a
/// scheduler hiccup cannot sink the number.
fn matrix_instr_per_sec(
    suite: &[(BenchmarkSpec, PackedTrace)],
    policies: &[PolicyKind],
    config: &SimConfig,
    reps: usize,
) -> f64 {
    let total: u64 = (suite.len() * policies.len()) as u64 * INSTRUCTIONS as u64;
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for (bench, trace) in suite {
            for policy in policies {
                run_columnar(config, policy, trace, bench.seed);
            }
        }
        best = best.max(total as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// One front-end pass over `trace` replayed by every policy in `built`.
fn factored_group(
    config: &SimConfig,
    trace: &PackedTrace,
    sig_config: &chirp_core::ChirpConfig,
    built: Vec<chirp_sim::PolicyDispatch>,
) -> Vec<(chirp_sim::RunResult, chirp_sim::Backend<chirp_sim::PolicyDispatch>)> {
    let events = chirp_sim::FactoredTrace::build(config, trace, config.warmup_fraction, sig_config);
    chirp_sim::replay_factored(config, &events, built)
}

/// Instructions per second over the whole matrix through the factored
/// engine: per benchmark, ONE front-end pass over the trace and one tiny
/// replay back-end per policy (`factored_group` at lineup width 9).
/// Best of `reps` sweeps, like [`matrix_instr_per_sec`]. The instruction
/// denominator is the same matrix total, so the ratio to the sequential
/// baseline is the lineup-level speedup of sharing the front end.
fn matrix_instr_per_sec_factored(
    suite: &[(BenchmarkSpec, PackedTrace)],
    policies: &[PolicyKind],
    config: &SimConfig,
    reps: usize,
) -> f64 {
    let total: u64 = (suite.len() * policies.len()) as u64 * INSTRUCTIONS as u64;
    let sig_config = chirp_sim::group_sig_config(policies.iter());
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for (bench, trace) in suite {
            let built: Vec<chirp_sim::PolicyDispatch> =
                policies.iter().map(|p| p.build_dispatch(config.tlb.l2, bench.seed)).collect();
            factored_group(config, trace, &sig_config, built);
        }
        best = best.max(total as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Compactness of the front-end event stream: L2-TLB access + control
/// events emitted per instruction, averaged over the suite. This is the
/// number that makes the factored speedup legible — each back-end
/// replays only this fraction of the work.
fn frontend_events_per_instr(suite: &[(BenchmarkSpec, PackedTrace)], config: &SimConfig) -> f64 {
    let sig_config = chirp_core::ChirpConfig::default();
    let mut events = 0usize;
    let mut instructions = 0u64;
    for (_, trace) in suite {
        let stream =
            chirp_sim::FactoredTrace::build(config, trace, config.warmup_fraction, &sig_config);
        events += stream.access_events() + stream.control_events();
        instructions += stream.instructions();
    }
    events as f64 / (instructions as f64).max(1.0)
}

fn bench_sim_throughput(c: &mut Criterion) {
    let config = SimConfig::default();
    let policies = lineup9();
    let suite: Vec<(BenchmarkSpec, PackedTrace)> =
        build_suite(&SuiteConfig { benchmarks: BENCHMARKS })
            .into_iter()
            .map(|b| {
                let trace = b.generate_packed(INSTRUCTIONS);
                (b, trace)
            })
            .collect();

    // Per-policy Criterion lines on the first benchmark's trace: the
    // sequential columnar path.
    let (bench0, trace0) = &suite[0];
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace0.len() as u64));
    for policy in &policies {
        let label = policy_label(policy);
        group.bench_function(&format!("columnar/{label}"), |b| {
            b.iter_batched(
                || {
                    Simulator::with_policy(
                        &config,
                        policy.build_dispatch(config.tlb.l2, bench0.seed),
                    )
                },
                |mut sim| sim.run_columnar(trace0, config.warmup_fraction),
                BatchSize::LargeInput,
            );
        });
    }
    // The whole 9-policy lineup as one factored group on the same trace:
    // throughput is per trace pass, so compare against 9× a columnar line.
    let sig_config = chirp_sim::group_sig_config(policies.iter());
    group.bench_function("factored9/lineup", |b| {
        b.iter_batched(
            || {
                policies
                    .iter()
                    .map(|p| p.build_dispatch(config.tlb.l2, bench0.seed))
                    .collect::<Vec<_>>()
            },
            |built| factored_group(&config, trace0, &sig_config, built),
            BatchSize::LargeInput,
        );
    });
    group.finish();

    // Headline numbers for the trajectory file: whole-matrix throughput,
    // best of CHIRP_BENCH_REPS sweeps each.
    let reps = std::env::var("CHIRP_BENCH_REPS")
        .ok()
        .and_then(|v| v.replace('_', "").parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    let sequential = matrix_instr_per_sec(&suite, &policies, &config, reps);
    let factored = matrix_instr_per_sec_factored(&suite, &policies, &config, reps);
    let factored_speedup = factored / sequential.max(1e-9);
    let events_per_instr = frontend_events_per_instr(&suite, &config);
    println!("sim_throughput: sequential {sequential:.0} instr/s (best of {reps} reps)");
    println!(
        "sim_throughput: factored {factored:.0} instr/s ({factored_speedup:.2}x over sequential \
         at lineup width 9, {events_per_instr:.3} front-end events/instr, best of {reps} reps)"
    );
    write_trajectory(sequential, reps, factored, events_per_instr);
}

fn write_trajectory(sequential: f64, reps: usize, factored: f64, events_per_instr: f64) {
    let factored_speedup = factored / sequential.max(1e-9);
    let line = format!(
        "{{\"bench\":\"sim_throughput\",\"benchmarks\":{BENCHMARKS},\"policies\":9,\
         \"instructions\":{INSTRUCTIONS},\"reps\":{reps},\"instr_per_sec_1t\":{sequential:.0},\
         \"instr_per_sec_1t_factored\":{factored:.0},\
         \"frontend_events_per_instr\":{events_per_instr:.4},\
         \"factored_speedup\":{factored_speedup:.3}}}"
    );
    let path = std::env::var_os("CHIRP_BENCH_OUT").map(PathBuf::from).unwrap_or_else(|| {
        // crates/bench/Cargo.toml -> workspace root is two levels up.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_runner.json")
    });
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open BENCH_runner.json");
    writeln!(f, "{line}").expect("append BENCH_runner.json");
    println!("appended sim_throughput trajectory to {}", path.display());
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
