//! Parallel suite runner: simulates every benchmark under every policy,
//! one work item (benchmark × its policy group) at a time per worker.
//!
//! [`run_suite`] without a store generates each benchmark's trace and
//! simulates everything. With [`RunnerConfig::store`] set it runs
//! [`run_suite_streamed`], the one store-backed runner: only (benchmark ×
//! policy) pairs missing from the run ledger are simulated, each over one
//! bounded trace stream (an archived entry when the archive holds a valid
//! one, else the generator), and each finished item is appended to the
//! ledger at once. A corrupt archive entry is rewritten; a missing one
//! stays missing — generating a trace is faster than decoding it, so only
//! `trace_tool pack` fills the archive.
//!
//! Both run on the item scheduler in [`crate::sched`]: a worker obtains
//! one benchmark's trace, runs its whole policy group through the engine
//! in one call ([`run_policy_group`] or its streamed counterpart
//! [`run_stream_group`]) and drops the trace, and
//! [`RunnerConfig::mem_budget`] caps the estimated trace bytes in flight.
//! The archive and ledger mutexes are held only for index probes and
//! appends, so workers on different items stream and simulate
//! concurrently.

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::frontend::{group_sig_config, replay_stream_group, replay_trace_group, ReplayForm};
use crate::metrics::RunResult;
use crate::registry::PolicyKind;
use crate::sched::{run_items, WorkItem};
use crate::store_cache::{record_from_run, run_from_record, run_key};
use chirp_store::{ArchiveTraceStream, RunLedger, Store, StoreError, TraceArchive};
use chirp_telemetry::EpochRow;
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{Category, PackedTrace, StreamError, TraceStream};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Runner parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Instructions generated (and simulated) per benchmark.
    pub instructions: usize,
    /// Worker threads.
    pub threads: usize,
    /// Simulator configuration shared by all runs.
    pub sim: SimConfig,
    /// When set, [`run_suite`] routes through the `chirp-store` directory
    /// at this path ([`run_suite_streamed`]): ledger hits skip simulation,
    /// traces stream from the archive when it holds them (a corrupt entry
    /// is rewritten, a missing one is generated and not archived), and
    /// fresh results are recorded for the next run.
    pub store: Option<PathBuf>,
    /// Cap on estimated trace bytes in flight across workers, `None` for
    /// unbounded. One item is always admitted regardless, so a budget
    /// smaller than a single trace degrades to serial trace residency
    /// rather than deadlock. Does not enter result identity: ledger keys
    /// ignore it, and results are bit-identical at any budget.
    pub mem_budget: Option<u64>,
    /// Records per streamed batch for [`run_suite_streamed`] (and so for
    /// [`run_suite`] with a store); `0` means [`DEFAULT_STREAM_CHUNK`].
    /// Purely an execution-strategy knob: streamed results are
    /// bit-identical at any chunk size (batch boundaries carry no
    /// simulation meaning), so it is excluded from ledger run keys by
    /// construction — `run_key` never sees it.
    #[serde(default)]
    pub stream_chunk: usize,
}

/// Records per streamed batch when [`RunnerConfig::stream_chunk`] is 0:
/// ~64k records ≈ 0.8 MiB packed, big enough to amortise channel and
/// bookkeeping costs, small enough that a unit's pipeline stays a few MiB.
pub const DEFAULT_STREAM_CHUNK: usize = 65_536;

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            instructions: 1_000_000,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            sim: SimConfig::default(),
            store: None,
            mem_budget: None,
            stream_chunk: 0,
        }
    }
}

impl RunnerConfig {
    /// Worker threads actually spawned: `threads` clamped to at least 1,
    /// so a zero (e.g. from a miscomputed division) degrades to serial
    /// execution instead of deadlocking with no workers to drain the
    /// queue.
    pub fn worker_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Per-trace byte estimate used for budget admission of a
    /// materialized work item.
    pub(crate) fn trace_estimate(&self) -> u64 {
        PackedTrace::estimate_bytes(self.instructions)
    }

    /// Records per streamed batch actually used: `stream_chunk` with 0
    /// mapped to [`DEFAULT_STREAM_CHUNK`].
    pub fn stream_chunk_records(&self) -> usize {
        if self.stream_chunk == 0 {
            DEFAULT_STREAM_CHUNK
        } else {
            self.stream_chunk
        }
    }

    /// Estimated peak packed-trace bytes of one in-flight streamed work
    /// item, for budget admission: the consumer's batch plus the producer
    /// pipeline ([`chirp_trace::STREAM_PIPELINE_CHUNKS`] buffered + one
    /// being filled).
    pub(crate) fn stream_unit_estimate(&self) -> u64 {
        let chunk = self.stream_chunk_records().min(self.instructions.max(1));
        PackedTrace::estimate_bytes(chunk) * (chirp_trace::STREAM_PIPELINE_CHUNKS as u64 + 2)
    }
}

/// One (benchmark × policy) result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Benchmark category.
    pub category: Category,
    /// The measured result (policy name inside).
    pub result: RunResult,
}

/// Runs `policies` over `suite` in parallel. Each benchmark's trace is
/// generated once (packed) and shared by its whole policy group, so
/// results are directly comparable. Output order matches `suite` ×
/// `policies`.
///
/// With `config.store` set, this delegates to [`run_suite_streamed`] —
/// only missing (benchmark × policy) pairs are simulated. An unusable
/// store (I/O error) degrades to a plain uncached run with a warning
/// rather than aborting the experiment.
pub fn run_suite(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
) -> Vec<BenchRun> {
    if let Some(root) = &config.store {
        match run_suite_streamed(suite, policies, config, root) {
            Ok((runs, _)) => return runs,
            Err(e) => {
                eprintln!("warning: store at {} unusable ({e}); running without it", root.display())
            }
        }
    }
    run_generated(suite, policies, config, None).into_iter().map(|(run, _)| run).collect()
}

/// The uncached suite run behind [`run_suite`] and
/// [`run_suite_telemetry`](crate::telemetry::run_suite_telemetry): one
/// work item per benchmark, whose trace is generated and run through
/// [`run_group`] with `epoch`. Output in `suite` × `policies` order, each
/// run beside its epoch series (empty without `epoch`).
pub(crate) fn run_generated(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    epoch: Option<u64>,
) -> Vec<(BenchRun, Vec<EpochRow>)> {
    let work: Vec<WorkItem> = (0..suite.len())
        .map(|bench| WorkItem { bench, policies: (0..policies.len()).collect() })
        .collect();
    let (results, _) = run_items(
        &work,
        config.worker_threads(),
        config.trace_estimate(),
        config.mem_budget,
        |item| {
            let bench = &suite[item.bench];
            let trace = bench.generate_packed(config.instructions);
            let kinds: Vec<&PolicyKind> = item.policies.iter().map(|&pi| &policies[pi]).collect();
            let runs = run_group(&config.sim, &kinds, bench.seed, &trace, epoch);
            Ok(runs.into_iter().map(|(result, rows)| (label(bench, result), rows)).collect())
        },
    )
    .expect("direct fetch is infallible");
    results.into_iter().flatten().collect()
}

fn label(bench: &BenchmarkSpec, result: RunResult) -> BenchRun {
    BenchRun { benchmark: bench.name.clone(), category: bench.category, result }
}

fn label_runs(bench: &BenchmarkSpec, results: Vec<RunResult>) -> Vec<BenchRun> {
    results.into_iter().map(|result| label(bench, result)).collect()
}

/// Runs one same-trace group of policies over a resident trace — the
/// primitive of the uncached suite run. With `factored` set,
/// a group of two or more runs as one front-end pass + per-policy replay
/// back-ends over 4096-record segments (the chunk driver behind
/// [`run_stream_group`], replaying on a second thread when a core would
/// otherwise sit idle), the signature stream computed under the
/// group's first CHiRP configuration ([`group_sig_config`]); a group of
/// one runs [`Simulator::run_columnar`], which is faster when there is
/// nothing to share. With `factored` unset every policy runs
/// `run_columnar`, the reference loop. Results are bit-identical either
/// way, in input order.
pub fn run_policy_group(
    sim: &SimConfig,
    kinds: &[&PolicyKind],
    seed: u64,
    trace: &PackedTrace,
    factored: bool,
) -> Vec<RunResult> {
    if factored {
        run_group(sim, kinds, seed, trace, None).into_iter().map(|(result, _)| result).collect()
    } else {
        kinds.iter().map(|kind| run_columnar(sim, kind, seed, trace)).collect()
    }
}

/// [`run_policy_group`]'s factored engines, with telemetry: each result
/// comes with its epoch series, sampled every `epoch` measured
/// instructions (empty without). A group that samples runs on the chunk
/// driver even when it holds one policy, since `run_columnar` has no
/// sampler.
pub(crate) fn run_group(
    sim: &SimConfig,
    kinds: &[&PolicyKind],
    seed: u64,
    trace: &PackedTrace,
    epoch: Option<u64>,
) -> Vec<(RunResult, Vec<EpochRow>)> {
    if epoch.is_none() && kinds.len() < 2 {
        return kinds
            .iter()
            .map(|kind| (run_columnar(sim, kind, seed, trace), Vec::new()))
            .collect();
    }
    let sig_config = group_sig_config(kinds.iter().copied());
    let policies = kinds.iter().map(|kind| kind.build_dispatch(sim.tlb.l2, seed)).collect();
    let (form, _core) = ReplayForm::choose();
    replay_trace_group(sim, &sig_config, policies, trace, sim.warmup_fraction, epoch, form)
}

fn run_columnar(sim: &SimConfig, kind: &PolicyKind, seed: u64, trace: &PackedTrace) -> RunResult {
    let policy = kind.build_dispatch(sim.tlb.l2, seed);
    Simulator::with_policy(sim, policy).run_columnar(trace, sim.warmup_fraction)
}

/// The streamed counterpart of [`run_policy_group`] — the primitive
/// `run_suite_streamed` and `chirp-serve` share: one pass over `stream`
/// for the whole group on the factored chunk driver, which replays on a
/// second thread when a core would otherwise sit idle. A group of one
/// that would replay inline runs [`Simulator::run_stream`] instead,
/// which is faster when there is neither a group to share the front end
/// nor a core to overlap it with. Results are bit-identical to
/// `run_columnar` of each policy over the same records, in input order.
///
/// # Errors
///
/// Propagates the stream's first error; every run is then mid-trace and
/// the group must be retried from scratch on a fresh stream.
pub fn run_stream_group(
    sim: &SimConfig,
    kinds: &[&PolicyKind],
    seed: u64,
    stream: &mut dyn TraceStream,
) -> Result<Vec<RunResult>, StreamError> {
    let build = |kind: &PolicyKind| kind.build_dispatch(sim.tlb.l2, seed);
    let (form, _core) = ReplayForm::choose();
    if let ([kind], ReplayForm::Inline) = (kinds, form) {
        return Ok(vec![
            Simulator::with_policy(sim, build(kind)).run_stream(stream, sim.warmup_fraction)?
        ]);
    }
    let sig_config = group_sig_config(kinds.iter().copied());
    let policies = kinds.iter().map(|k| build(k)).collect();
    let outcomes =
        replay_stream_group(sim, &sig_config, policies, stream, sim.warmup_fraction, form)?;
    Ok(outcomes.into_iter().map(|(result, _)| result).collect())
}

/// What [`run_suite_streamed`] did to satisfy a request. Each work item
/// counts under exactly one of the three trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// (benchmark × policy) pairs simulated this call.
    pub simulated: usize,
    /// Pairs answered from the run ledger without simulating.
    pub ledger_hits: usize,
    /// Items streamed in full from a valid archive entry.
    pub trace_hits: u64,
    /// Items streamed from the generator because the archive has no
    /// entry for their trace; the entry stays absent.
    pub trace_generated: u64,
    /// Items whose archive entry failed to stream (open, decode, count or
    /// checksum): the entry was rewritten and the item streamed from the
    /// generator.
    pub trace_regenerated: u64,
}

/// The (benchmark × policy) result matrix of a store-backed run, filled
/// first from the ledger and then from simulation.
struct Matrix {
    /// Row-major `suite × policies` slots.
    slots: Vec<Option<BenchRun>>,
    policies: usize,
}

impl Matrix {
    /// The ledger-resolution prologue of the store-backed runner: probes
    /// every pair's run key, fills the hits, and collects the rest as
    /// per-benchmark work items (benchmarks with nothing missing get no
    /// item). Returns the matrix, the work and the hit count.
    fn resolve(
        ledger: &RunLedger,
        suite: &[BenchmarkSpec],
        policies: &[PolicyKind],
        config: &RunnerConfig,
    ) -> (Matrix, Vec<WorkItem>, usize) {
        let mut slots = vec![None; suite.len() * policies.len()];
        let mut work = Vec::new();
        let mut hits = 0;
        for (bi, bench) in suite.iter().enumerate() {
            let mut need = Vec::new();
            for (pi, policy) in policies.iter().enumerate() {
                let key = run_key(&config.sim, policy, &bench.name, config.instructions);
                match ledger.get(key).and_then(run_from_record) {
                    Some(run) => {
                        slots[bi * policies.len() + pi] = Some(run);
                        hits += 1;
                    }
                    None => need.push(pi),
                }
            }
            if !need.is_empty() {
                work.push(WorkItem { bench: bi, policies: need });
            }
        }
        (Matrix { slots, policies: policies.len() }, work, hits)
    }

    /// Places one simulated pair.
    fn place(&mut self, bench: usize, policy: usize, run: BenchRun) {
        self.slots[bench * self.policies + policy] = Some(run);
    }

    fn into_runs(self) -> Vec<BenchRun> {
        self.slots
            .into_iter()
            .map(|slot| slot.expect("every pair resolved from ledger or simulation"))
            .collect()
    }
}

/// Like [`run_suite`], but incremental — the store-backed runner behind
/// `run_suite` with [`RunnerConfig::store`] and behind `full_suite`.
/// Results already in the run ledger under `store_root` are returned
/// without simulating; for the rest:
///
/// * each missing (benchmark × policies) work item opens ONE trace
///   stream — archive-backed when a valid entry exists, else a generator
///   stream — and runs all its missing policies over it in one pass
///   ([`run_stream_group`]), so peak per-item trace residency is
///   O(stream chunk) instead of O(trace);
/// * results are appended to the run ledger as each item completes (not
///   batched at the end), so a run interrupted mid-suite keeps every
///   finished item and a rerun resumes from the ledger;
/// * a corrupt archive entry (open, decode, count or checksum failure at
///   any point in the stream) is never fatal: the entry is rewritten
///   ([`TraceArchive::pack`]) and the item reruns from a generator stream
///   on fresh simulators, so the next run streams it cleanly;
/// * a trace the archive lacks is generated, not archived: generating a
///   benchmark trace is faster than decoding it, so `trace_tool pack` is
///   the one way to fill the archive.
///
/// Output order and values match the uncached `run_suite` exactly: batch
/// boundaries carry no simulation meaning, the warmup cut lands on the
/// same absolute instruction, and ledger keys cover everything that can
/// affect a result (see [`crate::store_cache::run_key`]).
pub fn run_suite_streamed(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    store_root: &Path,
) -> Result<(Vec<BenchRun>, CacheStats), StoreError> {
    let mut store = Store::open(store_root)?;
    let (mut matrix, work, ledger_hits) = Matrix::resolve(&store.ledger, suite, policies, config);
    let mut stats = CacheStats { ledger_hits, ..CacheStats::default() };

    if !work.is_empty() {
        let archive = Mutex::new(&mut store.archive);
        let ledger = Mutex::new(&mut store.ledger);
        let counters = Mutex::new(CacheStats::default());
        let (results, _) = run_items(
            &work,
            config.worker_threads(),
            config.stream_unit_estimate(),
            config.mem_budget,
            |item| {
                let runs = stream_one_item(&archive, suite, policies, config, item, &counters)?;
                // Persist this item immediately: interrupt-resumability
                // hinges on completed items being in the ledger before
                // the next item starts.
                let mut ledger = ledger.lock();
                for (&pi, run) in item.policies.iter().zip(&runs) {
                    let key = run_key(
                        &config.sim,
                        &policies[pi],
                        &suite[item.bench].name,
                        config.instructions,
                    );
                    ledger.append(key, record_from_run(run, &config.sim, &policies[pi]))?;
                }
                Ok(runs)
            },
        )?;

        let streamed = counters.into_inner();
        stats.trace_hits = streamed.trace_hits;
        stats.trace_generated = streamed.trace_generated;
        stats.trace_regenerated = streamed.trace_regenerated;
        for (item, runs) in work.iter().zip(results) {
            for (&pi, run) in item.policies.iter().zip(runs) {
                matrix.place(item.bench, pi, run);
                stats.simulated += 1;
            }
        }
    }
    Ok((matrix.into_runs(), stats))
}

/// Runs one streamed work item: probes the archive under its lock, then
/// (unlocked) streams the trace once through the item's whole policy
/// group. An archive-stream failure rewrites the entry — under the lock,
/// which only a corrupt entry ever costs — and falls back to a generator
/// stream on fresh simulators.
fn stream_one_item(
    archive: &Mutex<&mut TraceArchive>,
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    item: &WorkItem,
    counters: &Mutex<CacheStats>,
) -> Result<Vec<BenchRun>, StoreError> {
    let bench = &suite[item.bench];
    let chunk = config.stream_chunk_records();
    let kinds: Vec<&PolicyKind> = item.policies.iter().map(|&pi| &policies[pi]).collect();
    let run_item =
        |stream: &mut dyn TraceStream| run_stream_group(&config.sim, &kinds, bench.seed, stream);

    let key = TraceArchive::content_key(bench, config.instructions);
    let probe = {
        let a = archive.lock();
        a.entry_meta(key).map(|meta| (a.trace_path(key), meta))
    };
    if let Some((path, meta)) = probe {
        let attempt = ArchiveTraceStream::open(&path, meta, chunk)
            .and_then(|mut stream| run_item(&mut stream));
        if let Ok(results) = attempt {
            counters.lock().trace_hits += 1;
            return Ok(label_runs(bench, results));
        }
        // Rewrite the entry, so later runs stream it instead of failing
        // on it again.
        archive.lock().pack(bench, config.instructions)?;
        counters.lock().trace_regenerated += 1;
    } else {
        counters.lock().trace_generated += 1;
    }
    let mut stream = bench.stream(config.instructions, chunk);
    let results = run_item(&mut stream)
        .map_err(|e| StoreError::Corrupt(format!("generator stream failed: {e}")))?;
    Ok(label_runs(bench, results))
}

/// Groups per-policy results for one benchmark out of a flat `run_suite`
/// output: returns, per benchmark (suite order), the runs in policy order.
pub fn group_by_benchmark(runs: &[BenchRun], policies: usize) -> Vec<&[BenchRun]> {
    assert!(policies > 0 && runs.len().is_multiple_of(policies), "ragged run matrix");
    runs.chunks(policies).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_store::TempDir;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    /// Fills the archive under `root` with `suite`'s traces, as
    /// `trace_tool pack` does.
    fn pack(root: &Path, suite: &[BenchmarkSpec], instructions: usize) {
        let mut archive = TraceArchive::open(root).unwrap();
        for bench in suite {
            archive.pack(bench, instructions).unwrap();
        }
    }

    #[test]
    fn runs_every_benchmark_under_every_policy() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let policies = [PolicyKind::Lru, PolicyKind::Srrip];
        let config = RunnerConfig { instructions: 20_000, threads: 2, ..Default::default() };
        let runs = run_suite(&suite, &policies, &config);
        assert_eq!(runs.len(), 8);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.benchmark, suite[i / 2].name);
            assert_eq!(run.result.policy, policies[i % 2].name());
            assert!(run.result.instructions > 0);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let policies = [PolicyKind::Lru];
        let serial = RunnerConfig { instructions: 10_000, threads: 1, ..Default::default() };
        let parallel = RunnerConfig { instructions: 10_000, threads: 4, ..Default::default() };
        assert_eq!(run_suite(&suite, &policies, &serial), run_suite(&suite, &policies, &parallel));
    }

    /// The oracle: a serial loop of `Simulator::run_columnar`, one fresh
    /// simulator per (benchmark × policy), in suite × policy order.
    fn columnar_oracle(
        suite: &[BenchmarkSpec],
        policies: &[PolicyKind],
        config: &RunnerConfig,
    ) -> Vec<BenchRun> {
        let mut runs = Vec::new();
        for bench in suite {
            let trace = bench.generate_packed(config.instructions);
            for policy in policies {
                let mut sim = Simulator::with_policy(
                    &config.sim,
                    policy.build_dispatch(config.sim.tlb.l2, bench.seed),
                );
                let result = sim.run_columnar(&trace, config.sim.warmup_fraction);
                runs.push(BenchRun {
                    benchmark: bench.name.clone(),
                    category: bench.category,
                    result,
                });
            }
        }
        runs
    }

    /// The runner equivalence gate: every entry point — plain, with a
    /// store and streamed — must reproduce the serial `run_columnar`
    /// oracle bit-for-bit over a 4-benchmark × 3-policy matrix, at several
    /// thread counts and under an item-at-a-time memory budget.
    #[test]
    fn runners_reproduce_the_columnar_oracle_exactly() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let policies = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Ghrp];
        let base_config = RunnerConfig { instructions: 12_000, threads: 2, ..Default::default() };
        let oracle = columnar_oracle(&suite, &policies, &base_config);
        assert_eq!(oracle.len(), 12);
        for threads in [1, 4] {
            for mem_budget in [None, Some(1)] {
                let config = RunnerConfig { threads, mem_budget, ..base_config.clone() };
                let label = format!("threads={threads} mem_budget={mem_budget:?}");
                assert_eq!(run_suite(&suite, &policies, &config), oracle, "plain {label}");
                let root = TempDir::new("runner-oracle-stored");
                let stored =
                    RunnerConfig { store: Some(root.path().to_path_buf()), ..config.clone() };
                assert_eq!(run_suite(&suite, &policies, &stored), oracle, "stored {label}");
                let root = TempDir::new("runner-oracle-streamed");
                let (streamed, _) =
                    run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
                assert_eq!(streamed, oracle, "streamed {label}");
            }
        }
    }

    /// `run_policy_group`'s two engines — the factored group (or
    /// `run_columnar` for a group of one) and the all-`run_columnar`
    /// reference — agree bit for bit, in input order.
    #[test]
    fn policy_group_engines_agree() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let config = SimConfig::default();
        let lineup = [
            PolicyKind::Lru,
            PolicyKind::Chirp(Default::default()),
            PolicyKind::Ghrp,
            PolicyKind::Drrip,
        ];
        for bench in &suite {
            let trace = bench.generate_packed(20_000);
            for width in [1, lineup.len()] {
                let kinds: Vec<&PolicyKind> = lineup[..width].iter().collect();
                let factored = run_policy_group(&config, &kinds, bench.seed, &trace, true);
                let reference = run_policy_group(&config, &kinds, bench.seed, &trace, false);
                assert_eq!(factored, reference, "{} at width {width}", bench.name);
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_serial_instead_of_deadlocking() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let policies = [PolicyKind::Lru];
        let config = RunnerConfig { instructions: 5_000, threads: 0, ..Default::default() };
        assert_eq!(config.worker_threads(), 1);
        let runs = run_suite(&suite, &policies, &config);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn store_field_routes_run_suite_through_cache() {
        let root = TempDir::new("runner-field");
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let policies = [PolicyKind::Lru];
        let plain_config = RunnerConfig { instructions: 5_000, threads: 2, ..Default::default() };
        let stored_config =
            RunnerConfig { store: Some(root.path().to_path_buf()), ..plain_config.clone() };
        let plain = run_suite(&suite, &policies, &plain_config);
        assert_eq!(run_suite(&suite, &policies, &stored_config), plain);
        // Second pass answers from the populated store.
        assert_eq!(run_suite(&suite, &policies, &stored_config), plain);
        assert!(root.path().join("runs.jsonl").is_file());
        // Harness runs read the archive but never grow it.
        assert!(TraceArchive::open(root.path()).unwrap().is_empty());
    }

    #[test]
    fn streamed_run_matches_plain() {
        let stream_root = TempDir::new("runner-streamed");
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let policies = [PolicyKind::Lru, PolicyKind::Srrip];
        // A tiny chunk exercises many batch boundaries per run.
        let config = RunnerConfig {
            instructions: 10_000,
            threads: 2,
            stream_chunk: 700,
            ..Default::default()
        };

        let plain = run_suite(&suite, &policies, &config);
        let (streamed, stats) =
            run_suite_streamed(&suite, &policies, &config, stream_root.path()).unwrap();
        assert_eq!(streamed, plain, "streamed must be bit-identical to plain");
        assert_eq!(stats.simulated, 6);
        assert_eq!(stats.ledger_hits, 0);
        assert_eq!(stats.trace_generated, 3, "no archive entries yet: generator streams");

        // Second pass answers entirely from the ledger.
        let (second, stats) =
            run_suite_streamed(&suite, &policies, &config, stream_root.path()).unwrap();
        assert_eq!(second, plain);
        assert_eq!(stats.simulated, 0);
        assert_eq!(stats.ledger_hits, 6);
    }

    #[test]
    fn streamed_run_replays_archived_traces() {
        let root = TempDir::new("runner-streamed-archive");
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let config = RunnerConfig { instructions: 8_000, threads: 2, ..Default::default() };

        // Pack the archive and record lru; the second pass then replays
        // the archived entries for the new policy only.
        pack(root.path(), &suite, config.instructions);
        let (first, _) =
            run_suite_streamed(&suite, &[PolicyKind::Lru], &config, root.path()).unwrap();
        let (streamed, stats) = run_suite_streamed(
            &suite,
            &[PolicyKind::Lru, PolicyKind::Random],
            &config,
            root.path(),
        )
        .unwrap();
        assert_eq!(stats.ledger_hits, 2, "lru results come from the ledger");
        assert_eq!(stats.simulated, 2, "only random is simulated");
        assert_eq!(stats.trace_hits, 2, "traces stream from the archive");
        assert_eq!(stats.trace_generated, 0);
        assert_eq!(&streamed[0], &first[0]);
        let plain = run_suite(&suite, &[PolicyKind::Lru, PolicyKind::Random], &config);
        assert_eq!(streamed, plain, "archive-streamed must equal plain");
    }

    #[test]
    fn streamed_run_resumes_from_a_partial_ledger() {
        let root = TempDir::new("runner-streamed-resume");
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let policies = [PolicyKind::Lru, PolicyKind::Random];
        let config = RunnerConfig { instructions: 6_000, threads: 2, ..Default::default() };

        // Simulate an interrupted run: only the first benchmark's items
        // made it into the ledger before the "crash".
        run_suite_streamed(&suite[..1], &policies, &config, root.path()).unwrap();

        let (runs, stats) = run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
        assert_eq!(stats.ledger_hits, 2, "the finished benchmark is not re-simulated");
        assert_eq!(stats.simulated, 4, "only the remaining benchmarks run");
        assert_eq!(runs, run_suite(&suite, &policies, &config));
    }

    /// A corrupt entry costs one regeneration: the run that finds it
    /// rewrites it, and the next run that needs the trace streams it.
    #[test]
    fn streamed_run_heals_corrupt_archive_entries() {
        let root = TempDir::new("runner-streamed-corrupt");
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let config = RunnerConfig { instructions: 6_000, threads: 1, ..Default::default() };

        // Pack the archive, then flip a byte in the stored trace.
        pack(root.path(), &suite, config.instructions);
        let archive = TraceArchive::open(root.path()).unwrap();
        let path = archive.trace_path(TraceArchive::content_key(&suite[0], config.instructions));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (runs, stats) =
            run_suite_streamed(&suite, &[PolicyKind::Random], &config, root.path()).unwrap();
        assert_eq!(stats.trace_regenerated, 1, "corrupt entry falls back to the generator");
        assert_eq!(stats.trace_hits, 0);
        assert_eq!(runs, run_suite(&suite, &[PolicyKind::Random], &config));

        let (runs, stats) =
            run_suite_streamed(&suite, &[PolicyKind::Lru], &config, root.path()).unwrap();
        assert_eq!(stats.trace_hits, 1, "the rewritten entry streams");
        assert_eq!(stats.trace_regenerated, 0);
        assert_eq!(runs, run_suite(&suite, &[PolicyKind::Lru], &config));
        let (valid, corrupt) = TraceArchive::open(root.path()).unwrap().verify();
        assert_eq!((valid, corrupt.len()), (1, 0), "archive must be healed");
    }

    #[test]
    fn streamed_run_respects_memory_budget_and_chunk_sizes() {
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let policies = [PolicyKind::Lru, PolicyKind::Random];
        let plain = run_suite(
            &suite,
            &policies,
            &RunnerConfig { instructions: 6_000, threads: 4, ..Default::default() },
        );
        for (chunk, budget) in [(0usize, Some(1u64)), (1, None), (257, Some(1))] {
            let root = TempDir::new(&format!("runner-streamed-budget-{chunk}"));
            let config = RunnerConfig {
                instructions: 6_000,
                threads: 4,
                mem_budget: budget,
                stream_chunk: chunk,
                ..Default::default()
            };
            let (streamed, stats) =
                run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
            assert_eq!(streamed, plain, "chunk={chunk} budget={budget:?}");
            assert_eq!(stats.simulated, 6);
        }
    }

    #[test]
    fn grouping_slices_by_policy_count() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let policies = [PolicyKind::Lru, PolicyKind::Random];
        let config = RunnerConfig { instructions: 5_000, threads: 2, ..Default::default() };
        let runs = run_suite(&suite, &policies, &config);
        let grouped = group_by_benchmark(&runs, 2);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0][0].benchmark, grouped[0][1].benchmark);
    }
}
