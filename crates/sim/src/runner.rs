//! Parallel suite runner: simulates every benchmark under every policy,
//! one work item (benchmark × its policy group) at a time per worker.
//!
//! [`run_suite`] always simulates everything; [`run_suite_cached`] fronts
//! it with a `chirp-store` directory and only simulates (benchmark ×
//! policy) pairs whose results are not already in the run ledger, pulling
//! traces from the content-addressed archive instead of regenerating them;
//! [`run_suite_streamed`] does the same over bounded trace streams.
//!
//! All three run on the item scheduler in [`crate::sched`]: a worker
//! obtains one benchmark's trace, runs its whole policy group through
//! the engine in one call ([`run_policy_group`] or its streamed
//! counterpart) and drops the trace, and [`RunnerConfig::mem_budget`]
//! caps the estimated trace bytes in flight. On the cached path the
//! archive mutex is held only for index bookkeeping — decode, generation
//! and encode all run outside it, so workers needing different traces
//! fetch concurrently.

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::frontend::{group_sig_config, replay_trace_group, run_stream_factored, ReplayForm};
use crate::metrics::RunResult;
use crate::registry::PolicyKind;
use crate::sched::{run_items, WorkItem};
use crate::store_cache::{record_from_run, run_from_record, run_key};
use chirp_store::archive::ArchiveOutcome;
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
    /// at this path: ledger hits skip simulation, traces come from the
    /// archive, and fresh results are recorded for the next run.
    pub store: Option<PathBuf>,
    /// Cap on estimated trace bytes in flight across workers, `None` for
    /// unbounded. One item is always admitted regardless, so a budget
    /// smaller than a single trace degrades to serial trace residency
    /// rather than deadlock. Does not enter result identity: ledger keys
    /// ignore it, and results are bit-identical at any budget.
    pub mem_budget: Option<u64>,
    /// Records per streamed batch for [`run_suite_streamed`]; `0` means
    /// [`DEFAULT_STREAM_CHUNK`]. Purely an execution-strategy knob:
    /// streamed results are bit-identical at any chunk size (batch
    /// boundaries carry no simulation meaning), so it is excluded from
    /// ledger run keys by construction — `run_key` never sees it.
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
/// With `config.store` set, this delegates to [`run_suite_cached`] — only
/// missing (benchmark × policy) pairs are simulated. An unusable store
/// (I/O error) degrades to a plain uncached run with a warning rather
/// than aborting the experiment.
pub fn run_suite(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
) -> Vec<BenchRun> {
    if let Some(root) = &config.store {
        match run_suite_cached(suite, policies, config, root) {
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
/// [`simulate_item`] with `epoch`. Output in `suite` × `policies` order,
/// each run beside its epoch series (empty without `epoch`).
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
            let trace = suite[item.bench].generate_packed(config.instructions);
            Ok(simulate_item(suite, policies, config, item, &trace, epoch))
        },
    )
    .expect("direct fetch is infallible");
    results.into_iter().flatten().collect()
}

/// Runs one work item's policy group over its resident trace
/// ([`run_group`]) and labels the results with the benchmark.
fn simulate_item(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    item: &WorkItem,
    trace: &PackedTrace,
    epoch: Option<u64>,
) -> Vec<(BenchRun, Vec<EpochRow>)> {
    let bench = &suite[item.bench];
    let kinds: Vec<&PolicyKind> = item.policies.iter().map(|&pi| &policies[pi]).collect();
    let runs = run_group(&config.sim, &kinds, bench.seed, trace, epoch);
    runs.into_iter().map(|(result, rows)| (label(bench, result), rows)).collect()
}

fn label(bench: &BenchmarkSpec, result: RunResult) -> BenchRun {
    BenchRun { benchmark: bench.name.clone(), category: bench.category, result }
}

fn label_runs(bench: &BenchmarkSpec, results: Vec<RunResult>) -> Vec<BenchRun> {
    results.into_iter().map(|result| label(bench, result)).collect()
}

/// Runs one same-trace group of policies — the primitive the suite
/// runners and `chirp-serve` share. With `factored` set, a group of two
/// or more runs as one front-end pass + per-policy replay back-ends over
/// 4096-record segments (the chunk driver behind
/// [`run_stream_factored`], replaying on a second thread when a core
/// would otherwise sit idle), the signature stream computed under the
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

/// The streamed counterpart of [`run_policy_group`]: one pass over
/// `stream` for the whole group — the factored engine
/// ([`run_stream_factored`]) for two or more policies,
/// [`Simulator::run_stream`] for one.
fn run_stream_group(
    sim: &SimConfig,
    kinds: &[&PolicyKind],
    seed: u64,
    stream: &mut dyn TraceStream,
) -> Result<Vec<RunResult>, StreamError> {
    let build = |kind: &PolicyKind| kind.build_dispatch(sim.tlb.l2, seed);
    if let [kind] = kinds {
        return Ok(vec![
            Simulator::with_policy(sim, build(kind)).run_stream(stream, sim.warmup_fraction)?
        ]);
    }
    let sig_config = group_sig_config(kinds.iter().copied());
    let policies = kinds.iter().map(|k| build(k)).collect();
    let outcomes = run_stream_factored(sim, &sig_config, policies, stream, sim.warmup_fraction)?;
    Ok(outcomes.into_iter().map(|(result, _)| result).collect())
}

/// What `run_suite_cached` did to satisfy a request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// (benchmark × policy) pairs simulated this call.
    pub simulated: usize,
    /// Pairs answered from the run ledger without simulating.
    pub ledger_hits: usize,
    /// Traces decoded from the archive rather than generated.
    pub trace_hits: u64,
    /// Traces generated and archived (absent from the archive).
    pub trace_generated: u64,
    /// Traces regenerated over a corrupt archive entry.
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
    /// The ledger-resolution prologue of the store-backed runners: probes
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

/// Like [`run_suite`], but incremental: results already in the run ledger
/// under `store_root` are returned without simulating, and traces for the
/// remaining pairs come from the content-addressed archive (generated and
/// archived on first use, transparently regenerated if a file is corrupt).
/// Freshly simulated results are appended to the ledger, so a second call
/// with identical inputs performs zero simulations.
///
/// Output order and values match `run_suite` exactly — archived traces
/// decode to the same records generation produces, and ledger keys cover
/// everything that can affect a result (see
/// [`crate::store_cache::run_key`]).
///
/// The archive mutex guards only index probes and manifest bookkeeping;
/// decode/generate/encode — the expensive steps — run outside it (see the
/// locking discipline on [`TraceArchive`]), so workers fetching different
/// traces overlap.
pub fn run_suite_cached(
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
        let (results, _) = run_items(
            &work,
            config.worker_threads(),
            config.trace_estimate(),
            config.mem_budget,
            |item| {
                let trace = fetch_archived(&archive, &suite[item.bench], config.instructions)?;
                let runs = simulate_item(suite, policies, config, item, &trace, None);
                Ok(runs.into_iter().map(|(run, _)| run).collect())
            },
        )?;

        let archive_stats = store.archive.stats();
        stats.trace_hits = archive_stats.hits;
        stats.trace_generated = archive_stats.misses;
        stats.trace_regenerated = archive_stats.corrupt_regenerated;

        // Record fresh results in deterministic (suite × policy) order.
        for (item, runs) in work.iter().zip(results) {
            for (&pi, run) in item.policies.iter().zip(runs) {
                let key = run_key(
                    &config.sim,
                    &policies[pi],
                    &suite[item.bench].name,
                    config.instructions,
                );
                store.ledger.append(key, record_from_run(&run, &config.sim, &policies[pi]))?;
                matrix.place(item.bench, pi, run);
                stats.simulated += 1;
            }
        }
    }
    Ok((matrix.into_runs(), stats))
}

/// Like [`run_suite_cached`], but with streamed traces and per-item
/// ledger persistence — the production path for long traces:
///
/// * each missing (benchmark × policies) work item opens ONE trace
///   stream — archive-backed when a valid entry exists, else a generator
///   stream — and runs all its missing policies over it in one pass
///   (the factored engine for a group, `Simulator::run_stream` for a
///   single policy), so peak per-item trace residency is O(stream chunk)
///   instead of O(trace);
/// * results are appended to the run ledger as each item completes (not
///   batched at the end), so a run interrupted mid-suite keeps every
///   finished item and a rerun resumes from the ledger;
/// * a corrupt archive entry (I/O, decode or checksum failure at any
///   point in the stream) falls back to a fresh generator stream, never
///   fatal — mirroring the materialized path's regenerate-on-corruption.
///
/// Results are bit-identical to [`run_suite_cached`] (and thus to
/// [`run_suite`]): batch boundaries carry no simulation meaning and the
/// warmup cut lands on the same absolute instruction. The one
/// operational difference: generated traces are *not* archived (there
/// is no resident trace to encode).
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
/// group. Any archive-stream failure falls back to a generator stream on
/// fresh simulators.
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
    let had_entry = probe.is_some();
    if let Some((path, meta)) = probe {
        let attempt = ArchiveTraceStream::open(&path, meta, chunk)
            .and_then(|mut stream| run_item(&mut stream));
        if let Ok(results) = attempt {
            counters.lock().trace_hits += 1;
            return Ok(label_runs(bench, results));
        }
        // Corrupt entry (open, decode or checksum failure): fall back to
        // regeneration below, like the materialized path.
    }
    let mut counts = counters.lock();
    if had_entry {
        counts.trace_regenerated += 1;
    } else {
        counts.trace_generated += 1;
    }
    drop(counts);
    let mut stream = bench.stream(config.instructions, chunk);
    let results = run_item(&mut stream)
        .map_err(|e| StoreError::Corrupt(format!("generator stream failed: {e}")))?;
    Ok(label_runs(bench, results))
}

/// Fetches one benchmark's packed trace through the archive, holding the
/// archive lock only for the index probe and the final bookkeeping — the
/// decode / generate / encode work in between runs lock-free, so fetches
/// for *different* benchmarks proceed concurrently. Work items are
/// per-benchmark, so no two workers ever race on the same key.
fn fetch_archived(
    archive: &Mutex<&mut TraceArchive>,
    bench: &BenchmarkSpec,
    instructions: usize,
) -> Result<PackedTrace, StoreError> {
    let key = TraceArchive::content_key(bench, instructions);
    // Lock 1 (index probe): does the archive claim to have this trace?
    let probe = {
        let a = archive.lock();
        a.entry_meta(key).map(|meta| (a.trace_path(key), meta))
    };
    let had_entry = probe.is_some();
    if let Some((path, meta)) = probe {
        // Unlocked: read + checksum + decode.
        if let Some(trace) = TraceArchive::decode_file(&path, meta) {
            archive.lock().record_hit();
            return Ok(trace);
        }
    }
    // Miss (or corrupt entry): generate, encode and write unlocked.
    let trace = bench.generate_packed(instructions);
    let encoded = TraceArchive::encode_packed(&trace);
    let path = archive.lock().trace_path(key);
    TraceArchive::store_file(&path, &encoded)?;
    let outcome =
        if had_entry { ArchiveOutcome::CorruptRegenerated } else { ArchiveOutcome::MissGenerated };
    // Lock 2 (bookkeeping): manifest append + index insert.
    archive.lock().commit(key, &encoded, outcome)?;
    Ok(trace)
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

    /// The runner equivalence gate: every entry point — plain, cached
    /// and streamed — must reproduce the serial `run_columnar` oracle
    /// bit-for-bit over a 4-benchmark × 3-policy matrix, at several
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
                let root = TempDir::new("runner-oracle-cached");
                let (cached, _) =
                    run_suite_cached(&suite, &policies, &config, root.path()).unwrap();
                assert_eq!(cached, oracle, "cached {label}");
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
    fn cached_run_matches_uncached_and_second_pass_simulates_nothing() {
        let root = TempDir::new("runner-cache");
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let policies = [PolicyKind::Lru, PolicyKind::Srrip];
        let config = RunnerConfig { instructions: 10_000, threads: 2, ..Default::default() };

        let plain = run_suite(&suite, &policies, &config);
        let (first, stats) = run_suite_cached(&suite, &policies, &config, root.path()).unwrap();
        assert_eq!(first, plain);
        assert_eq!(stats.simulated, 6);
        assert_eq!(stats.ledger_hits, 0);
        assert_eq!(stats.trace_generated, 3);

        let (second, stats) = run_suite_cached(&suite, &policies, &config, root.path()).unwrap();
        assert_eq!(second, plain);
        assert_eq!(stats.simulated, 0);
        assert_eq!(stats.ledger_hits, 6);
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
    }

    #[test]
    fn cached_run_simulates_only_new_policies() {
        let root = TempDir::new("runner-partial");
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let config = RunnerConfig { instructions: 8_000, threads: 2, ..Default::default() };

        run_suite_cached(&suite, &[PolicyKind::Lru], &config, root.path()).unwrap();
        let (_, stats) =
            run_suite_cached(&suite, &[PolicyKind::Lru, PolicyKind::Random], &config, root.path())
                .unwrap();
        assert_eq!(stats.ledger_hits, 2, "lru results come from the ledger");
        assert_eq!(stats.simulated, 2, "only random is simulated");
        assert_eq!(stats.trace_hits, 2, "traces decode from the archive");
    }

    #[test]
    fn cached_run_respects_memory_budget() {
        let root = TempDir::new("runner-budget");
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let policies = [PolicyKind::Lru, PolicyKind::Random];
        let config = RunnerConfig {
            instructions: 6_000,
            threads: 4,
            mem_budget: Some(1),
            ..Default::default()
        };
        let plain =
            run_suite(&suite, &policies, &RunnerConfig { mem_budget: None, ..config.clone() });
        let (cached, stats) = run_suite_cached(&suite, &policies, &config, root.path()).unwrap();
        assert_eq!(cached, plain, "budget must not change results");
        assert_eq!(stats.simulated, 6);
        // Residency under a tight budget is asserted at the scheduler
        // level (`sched::tests::budget_keeps_one_trace_resident_at_a_time`);
        // the global last-summary slot is racy across parallel tests.
    }

    #[test]
    fn streamed_run_matches_cached_and_plain() {
        let cache_root = TempDir::new("runner-streamed-vs-cached");
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
        let (cached, _) = run_suite_cached(&suite, &policies, &config, cache_root.path()).unwrap();
        let (streamed, stats) =
            run_suite_streamed(&suite, &policies, &config, stream_root.path()).unwrap();
        assert_eq!(streamed, plain, "streamed must be bit-identical to plain");
        assert_eq!(streamed, cached, "streamed must be bit-identical to cached");
        assert_eq!(stats.simulated, 6);
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

        // The cached (materialized) pass populates the archive; the
        // streamed pass then replays those entries for new policies.
        let (cached, _) =
            run_suite_cached(&suite, &[PolicyKind::Lru], &config, root.path()).unwrap();
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
        assert_eq!(&streamed[0], &cached[0]);
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

    #[test]
    fn streamed_run_regenerates_corrupt_archive_entries() {
        let root = TempDir::new("runner-streamed-corrupt");
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let config = RunnerConfig { instructions: 6_000, threads: 1, ..Default::default() };

        // Populate the archive, then flip a byte in the stored trace.
        run_suite_cached(&suite, &[PolicyKind::Lru], &config, root.path()).unwrap();
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
            let (streamed, _) =
                run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
            assert_eq!(streamed, plain, "chunk={chunk} budget={budget:?}");
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
