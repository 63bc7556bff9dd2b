//! Suite-runner benchmark: the item scheduler at 1 and N threads over a
//! 4-benchmark × 9-policy matrix, plus an epoch-telemetry variant that
//! guards instrumentation overhead (`telemetry_overhead_8t` in the
//! trajectory is instrumented wall-clock over uninstrumented at 8
//! threads).
//!
//! Prints the usual Criterion lines and appends one JSON object per
//! invocation to `BENCH_runner.json` at the workspace root (override with
//! `CHIRP_BENCH_OUT`), so wall-clock and peak-trace-memory trajectories
//! accumulate across commits. Peak trace memory is the scheduler's
//! estimate of the packed trace bytes its in-flight items hold.

use chirp_bench::lineup9;
use chirp_sim::{
    last_scheduler_summary, run_suite, run_suite_telemetry, RunnerConfig, TelemetrySpec,
};
use chirp_telemetry::TelemetryMode;
use chirp_trace::suite::{build_suite, BenchmarkSpec, SuiteConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

const BENCHMARKS: usize = 4;
const INSTRUCTIONS: usize = 60_000;
const THREADS_HIGH: usize = 8;
/// Criterion samples per variant; the trajectory line records this as
/// `reps` so every line in BENCH_runner.json carries its sample count.
const SAMPLES: usize = 3;

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig { instructions: INSTRUCTIONS, threads, ..Default::default() }
}

/// Median of the recorded per-iteration wall times, in seconds.
fn median_secs(samples: &Mutex<Vec<f64>>) -> f64 {
    let mut v = samples.lock().expect("samples lock").clone();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

struct Measured {
    name: &'static str,
    median_secs: f64,
    peak_trace_bytes: u64,
}

/// Which runner a benchmark variant exercises.
#[derive(Clone, Copy)]
enum Variant {
    Sched,
    /// Scheduler with epoch telemetry on — the instrumentation overhead
    /// guard. Must stay close to `Sched` wall-clock.
    SchedTelemetry,
}

fn bench_suite_runner(c: &mut Criterion) {
    let suite: Vec<BenchmarkSpec> = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();
    let telemetry =
        TelemetrySpec { mode: TelemetryMode::Epochs, epoch_instructions: INSTRUCTIONS as u64 / 10 };

    // Equivalence sanity before timing anything: the variants must agree
    // bit-for-bit or the comparison is meaningless. This pins the
    // telemetry guarantee: instrumented results match plain runs.
    assert_eq!(
        run_suite_telemetry(&suite, &policies, &config(2), &telemetry).0,
        run_suite(&suite, &policies, &config(2)),
        "instrumented runs must reproduce plain runs bit-for-bit"
    );

    let mut measured: Vec<Measured> = Vec::new();
    let mut group = c.benchmark_group("suite_runner");
    group.sample_size(SAMPLES);

    for (name, threads, variant) in [
        ("sched_packed_1t", 1, Variant::Sched),
        ("sched_packed_8t", THREADS_HIGH, Variant::Sched),
        ("telemetry_epochs_8t", THREADS_HIGH, Variant::SchedTelemetry),
    ] {
        let samples = Mutex::new(Vec::new());
        let mut peak_bytes = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = config(threads);
                let t0 = Instant::now();
                let runs = match variant {
                    Variant::Sched => run_suite(&suite, &policies, &cfg),
                    Variant::SchedTelemetry => {
                        run_suite_telemetry(&suite, &policies, &cfg, &telemetry).0
                    }
                };
                samples.lock().expect("samples lock").push(t0.elapsed().as_secs_f64());
                runs
            })
        });
        peak_bytes =
            last_scheduler_summary().expect("scheduler ran").peak_resident_bytes.max(peak_bytes);
        measured.push(Measured {
            name,
            median_secs: median_secs(&samples),
            peak_trace_bytes: peak_bytes,
        });
    }
    group.finish();

    write_trajectory(&measured);
}

/// Appends one JSON line with every measurement plus the derived headline
/// ratios to the trajectory file.
fn write_trajectory(measured: &[Measured]) {
    let by_name = |n: &str| measured.iter().find(|m| m.name == n).expect("measured");
    let sched_8t = by_name("sched_packed_8t");
    let telemetry_8t = by_name("telemetry_epochs_8t");
    let telemetry_overhead_8t = telemetry_8t.median_secs / sched_8t.median_secs.max(1e-9);
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // On a single logical CPU an 8-thread run cannot beat 1-thread wall
    // clock; the flag keeps the 1t/8t pair from reading as a regression.
    let scaling_expected = cpus > 1;

    let fields: Vec<String> = measured
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"median_secs\":{:.6},\"peak_trace_bytes\":{}}}",
                m.name, m.median_secs, m.peak_trace_bytes
            )
        })
        .collect();
    let line = format!(
        "{{\"bench\":\"suite_runner\",\"benchmarks\":{BENCHMARKS},\"policies\":9,\
         \"instructions\":{INSTRUCTIONS},\"reps\":{SAMPLES},\"cpus\":{cpus},\
         \"thread_scaling_expected\":{scaling_expected},{},\
         \"telemetry_overhead_8t\":{telemetry_overhead_8t:.3}}}",
        fields.join(",")
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
    println!("appended suite_runner trajectory to {}", path.display());
}

criterion_group!(benches, bench_suite_runner);
criterion_main!(benches);
