//! `archive_suite`: the `full_suite` path. One op is one
//! `run_suite_streamed` call over an archive populated during set-up,
//! starting from an empty ledger, so every (benchmark × policy) unit
//! streams its trace from the archive, is simulated and is appended to
//! the ledger.

use crate::check::{self, LINEUP9};
use crate::speed::Reference;
use crate::stats::{self, median};
use crate::tracer::Tracer;
use crate::{Outcome, WorkDir};
use chirp_sim::store_cache::{record_from_run, run_key};
use chirp_sim::{
    group_sig_config, last_scheduler_summary, replay_factored, run_suite_streamed, BenchRun,
    FactoredTrace, RunnerConfig, SimConfig, DEFAULT_STREAM_CHUNK,
};
use chirp_store::{ArchiveOutcome, ArchiveTraceStream, RunLedger, Store, StoreError, TraceArchive};
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::TraceStream;
use std::path::Path;
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Benchmarks in the suite (8 cover all 8 generator families).
    pub benchmarks: usize,
    /// Instructions per benchmark trace.
    pub instructions: usize,
    /// Times the archive is populated during set-up; `setup_s` is the
    /// median.
    pub setups: usize,
}

/// The size the benchmark runs at.
pub const SIZES: Sizes = Sizes { benchmarks: 8, instructions: 1_000_000, setups: 7 };

/// Generates, encodes and archives every trace of `suite` under `root`.
fn populate(
    root: &Path,
    suite: &[BenchmarkSpec],
    len: usize,
    tracer: &mut Tracer,
) -> Result<(), StoreError> {
    let mut archive = TraceArchive::open(root)?;
    for bench in suite {
        let trace = tracer.time("trace.generate", || bench.generate_packed(len));
        let encoded = tracer.time("trace.encode", || TraceArchive::encode_packed(&trace));
        let key = TraceArchive::content_key(bench, len);
        let path = archive.trace_path(key);
        let started = Instant::now();
        TraceArchive::store_file(&path, &encoded)?;
        archive.commit(key, &encoded, ArchiveOutcome::MissGenerated)?;
        tracer.record("store.archive_write", started, Instant::now());
    }
    Ok(())
}

/// Runs the workload for `seconds`. With `traced`, each even pass
/// re-executes the op's pieces on the same inputs after the op — stream
/// decode, front end, replay, ledger appends — attributed to it, and odd
/// passes run untraced.
pub fn run(seed: u64, seconds: f64, traced: bool, sizes: Sizes) -> Outcome {
    let sim = SimConfig::default();
    let kinds = check::policies(&LINEUP9);
    let suite = check::suite(seed, sizes.benchmarks);
    let threads = stats::threads();
    let config =
        RunnerConfig { instructions: sizes.instructions, threads, sim, ..RunnerConfig::default() };
    let work = WorkDir::new("archive_suite");
    let mut tracer = Tracer::new(traced);
    let mut out = Outcome::default();
    let mut reference = Reference::new(threads);

    let mut setup_reference = Reference::new(1);
    let mut root = work.path().to_path_buf();
    for k in 0..sizes.setups.max(1) {
        let _ = std::fs::remove_dir_all(&root);
        root = work.path().join(format!("store{k}"));
        let started = Instant::now();
        populate(&root, &suite, sizes.instructions, &mut tracer).expect("populate the archive");
        out.end_setup(started, &mut setup_reference);
    }
    let archive = TraceArchive::open(&root).expect("reopen the archive");
    let ledger_path = root.join("runs.jsonl");
    let units = suite.len() * kinds.len();
    let op_instr = (units * sizes.instructions) as f64;

    // Per op: the digests of every (benchmark × policy) unit in suite
    // order, or `None` when the op failed outright.
    let mut digests: Vec<Option<Vec<u64>>> = Vec::new();
    let mut sched = (Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut accesses, mut stream_bytes) = (0u64, 0u64, 0u64);
    out.host_start();
    let started = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        let traced_pass = traced && pass.is_multiple_of(2);
        tracer.set_enabled(traced_pass);
        tracer.next_op();
        let _ = std::fs::remove_file(&ledger_path);
        // An op is a whole pass here: bracket it with reference samples.
        for _ in 0..4 {
            reference.sample();
        }
        let t0 = Instant::now();
        let result = run_suite_streamed(&suite, &kinds, &config, &root);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        let op = tracer.record("op", t0, t1);
        out.op(ms, &mut reference);
        digests.push(match result {
            Ok((runs, cache))
                if cache.simulated == units
                    && cache.trace_hits == suite.len() as u64
                    && runs.len() == units =>
            {
                if pass == 0 {
                    out.l2_misses = runs.iter().map(|r| r.result.l2_tlb.misses).sum();
                    out.l2_measured_instr = runs.iter().map(|r| r.result.instructions).sum();
                }
                Some(runs.iter().map(|r| check::digest_result(&r.result)).collect())
            }
            _ => None,
        });

        if traced_pass {
            let wall = last_scheduler_summary().map_or(0.0, |s| s.wall.as_secs_f64() * 1e3);
            tracer.adopt(op);
            let _ = std::fs::remove_file(&ledger_path);
            tracer.time("store.ledger_open", || Store::open(&root)).expect("open the store");
            let ledger_dir = work.path().join("ledger");
            let _ = std::fs::remove_dir_all(&ledger_dir);
            let mut ledger = RunLedger::open(&ledger_dir).expect("open the scratch ledger");
            let sig = group_sig_config(kinds.iter());
            let mut work_ms = 0.0;
            for bench in &suite {
                let key = TraceArchive::content_key(bench, sizes.instructions);
                let meta = archive.entry_meta(key).expect("archived during set-up");
                let path = archive.trace_path(key);
                let t = Instant::now();
                let mut stream = ArchiveTraceStream::open(&path, meta, DEFAULT_STREAM_CHUNK)
                    .expect("open the archived trace");
                while stream.next_batch().expect("stream the archived trace").is_some() {}
                tracer.record("store.stream_decode", t, Instant::now());
                stream_bytes += meta.bytes;
                let trace =
                    TraceArchive::decode_file(&path, meta).expect("decode the archived trace");
                let factored = tracer.time("frontend", || {
                    FactoredTrace::build(&sim, &trace, sim.warmup_fraction, &sig)
                });
                events += (factored.access_events() + factored.control_events()) as u64;
                accesses += (factored.access_events() * kinds.len()) as u64;
                let results = tracer.time("replay", || {
                    let built = kinds.iter().map(|k| k.build_dispatch(sim.tlb.l2, bench.seed));
                    replay_factored(&sim, &factored, built.collect())
                });
                for (kind, (result, _)) in kinds.iter().zip(results) {
                    let key = run_key(&sim, kind, &bench.name, sizes.instructions);
                    let run = BenchRun {
                        benchmark: bench.name.clone(),
                        category: bench.category,
                        result,
                    };
                    let t = Instant::now();
                    ledger
                        .append(key, record_from_run(&run, &sim, kind))
                        .expect("append to the ledger");
                    tracer.record("store.ledger_append", t, Instant::now());
                }
            }
            tracer.release(op);
            for name in ["store.stream_decode", "frontend", "replay", "store.ledger_append"] {
                work_ms += tracer.per_op_ms(name).last().copied().unwrap_or(0.0);
            }
            let open_ms = tracer.per_op_ms("store.ledger_open").last().copied().unwrap_or(0.0);
            sched.0.push(wall);
            sched.1.push(ms - (open_ms + work_ms) / threads as f64);
            sched.2.push(wall - work_ms / threads as f64);
        }
        out.end_pass(ms, op_instr, &mut reference);
        pass += 1;
    }
    out.host_end();
    out.peak_rss_mib = stats::peak_rss_mib();

    let reference: Vec<u64> = check::reference(&sim, seed, &suite, sizes.instructions)
        .unwrap_or_else(check::no_reference)
        .into_iter()
        .flatten()
        .collect();
    out.attempted = digests.len() as u64;
    out.failed = digests.iter().filter(|d| d.as_ref() != Some(&reference)).count() as u64;
    out.op_digests = digests.into_iter().map(Option::unwrap_or_default).collect();
    out.ops_label = "op = one run_suite_streamed over the whole suite x 9 policies";

    if traced {
        let traced_ops = pass.div_ceil(2) as f64;
        let instr = traced_ops * (suite.len() * sizes.instructions) as f64;
        let frontend = tracer.total_ms("frontend");
        let pieces: f64 = [
            "store.ledger_open",
            "store.stream_decode",
            "frontend",
            "replay",
            "store.ledger_append",
        ]
        .iter()
        .map(|n| tracer.total_ms(n))
        .sum();
        out.layer("trace.generate_ms", tracer.median_span_ms("trace.generate"));
        out.layer("trace.encode_ms", tracer.median_span_ms("trace.encode"));
        out.layer("store.archive_write_ms", tracer.median_span_ms("store.archive_write"));
        out.layer("store.ledger_open_ms", tracer.median_ms("store.ledger_open"));
        out.layer("store.stream_decode_ms", tracer.median_ms("store.stream_decode"));
        out.layer("store.stream_mib", stream_bytes as f64 / traced_ops / (1024.0 * 1024.0));
        out.layer("store.ledger_append_ms", tracer.median_span_ms("store.ledger_append"));
        out.layer("frontend.ms", tracer.median_ms("frontend"));
        out.layer("frontend.ns_per_instr", frontend * 1e6 / instr);
        out.layer("frontend.events_per_instr", events as f64 / instr);
        out.layer("replay.ms", tracer.median_ms("replay"));
        out.layer("replay.ns_per_event", tracer.total_ms("replay") * 1e6 / accesses as f64);
        out.layer("sched.wall_ms", median(&sched.0));
        out.layer("sched.residual_ms", median(&sched.1));
        out.layer("sched.queue_wait_ms", median(&sched.2));
        out.layer("span.explained_pct", 100.0 * pieces / threads as f64 / tracer.total_ms("op"));
        out.overhead();
    }
    out.tracer = tracer;
    out
}
