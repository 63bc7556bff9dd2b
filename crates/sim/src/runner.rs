//! Parallel suite runner: simulates every benchmark under every policy,
//! one work item (benchmark × its policy group) at a time per worker.
//!
//! Every suite run goes through one body: each work item streams its
//! benchmark's trace once, in bounded batches, through its whole policy
//! group on the factored chunk driver ([`run_stream_group`]), a group of
//! one included, and [`RunnerConfig::mem_budget`] admits every item at
//! the same estimate.
//! Without a store ([`run_suite`] uncached, and
//! [`run_suite_telemetry`](crate::telemetry::run_suite_telemetry), which
//! also samples epoch series) every pair is simulated over a generator
//! stream. With one ([`run_suite_streamed`], and [`run_suite`] with
//! [`RunnerConfig::store`]) only pairs missing from the run ledger are
//! simulated, an item streams from the archive when it holds a valid
//! entry, and each finished item is appended to the ledger at once.
//! Items run on the scheduler in [`crate::sched`]; the archive and ledger
//! mutexes are held only for index probes and appends.

use crate::config::SimConfig;
use crate::engine::{Simulator, CHUNK_SIZE};
use crate::frontend::{replay_stream_group, ReplayForm};
use crate::metrics::RunResult;
use crate::registry::PolicyKind;
use crate::sched::{run_items, WorkItem};
use crate::store_cache::{record_from_run, run_from_record, run_key};
use chirp_store::{ArchiveTraceStream, Store, StoreError, TraceArchive};
use chirp_telemetry::EpochRow;
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{Category, MaterializedStream, PackedTrace, StreamError, TraceStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Runner parameters.
#[derive(Debug, Clone, PartialEq)]
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
    /// smaller than a single item degrades to serial items rather than
    /// deadlock. Does not enter result identity: ledger keys ignore it,
    /// and results are bit-identical at any budget.
    pub mem_budget: Option<u64>,
    /// Records per streamed batch of every suite run; `0` means
    /// [`DEFAULT_STREAM_CHUNK`]. Purely an execution-strategy knob:
    /// results are bit-identical at any chunk size (batch boundaries carry
    /// no simulation meaning), so it is excluded from ledger run keys by
    /// construction — `run_key` never sees it.
    pub stream_chunk: usize,
}

/// Records per streamed batch when [`RunnerConfig::stream_chunk`] is 0:
/// ~64k records ≈ 0.8 MiB packed, big enough to amortise per-batch
/// bookkeeping, small enough that a unit's batch stays about a MiB.
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

    /// Records per streamed batch actually used: `stream_chunk` with 0
    /// mapped to [`DEFAULT_STREAM_CHUNK`].
    pub fn stream_chunk_records(&self) -> usize {
        if self.stream_chunk == 0 {
            DEFAULT_STREAM_CHUNK
        } else {
            self.stream_chunk
        }
    }

    /// Estimated peak packed-trace bytes of one in-flight work item, for
    /// budget admission: the one batch its stream has lent, but never
    /// more than the whole trace, which is all a stream of fewer batches
    /// can hold.
    pub(crate) fn stream_unit_estimate(&self) -> u64 {
        PackedTrace::estimate_bytes(self.stream_chunk_records().min(self.instructions))
    }
}

/// One (benchmark × policy) result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Benchmark category.
    pub category: Category,
    /// The measured result (policy name inside).
    pub result: RunResult,
}

/// One (benchmark × policy) unit of [`run_units`]: its run beside its
/// epoch series (empty unless the run samples, and for a ledger hit).
pub(crate) type Unit = (BenchRun, Vec<EpochRow>);

/// Runs `policies` over `suite` in parallel. Each benchmark's trace is
/// streamed once and shared by its whole policy group, so results are
/// directly comparable. Output order matches `suite` × `policies`.
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
    let (units, _) = run_units(suite, policies, config, None, None).expect(NO_STORE_TO_FAIL);
    units.into_iter().map(|(run, _)| run).collect()
}

/// [`run_units`] without a store fails only on a generator stream, which never errors.
pub(crate) const NO_STORE_TO_FAIL: &str = "a suite run without a store has nothing to fail";

/// Runs one same-trace group of policies over a resident trace. With
/// `factored` set, the group, whatever its size, runs as one front-end
/// pass + per-policy replay back-ends over 4096-record segments: the
/// trace is fed as a [`MaterializedStream`] through the chunk driver
/// behind [`run_stream_group`], which replays on a second thread when a
/// core would otherwise sit idle, its front end running one instance of
/// each control-flow history the members declare.
/// With `factored` unset every policy runs [`Simulator::run_columnar`],
/// the reference model, for tests and checks that compare the two.
/// Results are bit-identical either way, in input order.
pub fn run_policy_group(
    sim: &SimConfig,
    kinds: &[&PolicyKind],
    seed: u64,
    trace: &PackedTrace,
    factored: bool,
) -> Vec<RunResult> {
    if !factored {
        return kinds.iter().map(|kind| run_columnar(sim, kind, seed, trace)).collect();
    }
    let policies = kinds.iter().map(|kind| kind.build_dispatch(sim.tlb.l2, seed)).collect();
    let (form, _core) = ReplayForm::choose();
    let mut stream = MaterializedStream::new(trace, CHUNK_SIZE);
    replay_stream_group(sim, policies, &mut stream, sim.warmup_fraction, None, form)
        .expect("a resident trace has no stream to fail")
        .into_iter()
        .map(|(result, _, _)| result)
        .collect()
}

fn run_columnar(sim: &SimConfig, kind: &PolicyKind, seed: u64, trace: &PackedTrace) -> RunResult {
    let policy = kind.build_dispatch(sim.tlb.l2, seed);
    Simulator::with_policy(sim, policy).run_columnar(trace, sim.warmup_fraction)
}

/// The streamed counterpart of [`run_policy_group`] — the primitive every
/// suite run and `chirp-serve` share: one pass over `stream` for the
/// whole group, whatever its size, on the factored chunk driver, which
/// replays on a second thread when a core would otherwise sit idle.
/// Results are bit-identical to [`Simulator::run_columnar`] of each
/// policy over the same records, in input order.
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
    let outcomes = sample_stream_group(sim, kinds, seed, stream, None)?;
    Ok(outcomes.into_iter().map(|(result, _)| result).collect())
}

/// [`run_stream_group`] with telemetry: each result comes with its epoch
/// series, sampled every `epoch` measured instructions (empty without).
fn sample_stream_group(
    sim: &SimConfig,
    kinds: &[&PolicyKind],
    seed: u64,
    stream: &mut dyn TraceStream,
    epoch: Option<u64>,
) -> Result<Vec<(RunResult, Vec<EpochRow>)>, StreamError> {
    let (form, _core) = ReplayForm::choose();
    let policies = kinds.iter().map(|kind| kind.build_dispatch(sim.tlb.l2, seed)).collect();
    let outcomes = replay_stream_group(sim, policies, stream, sim.warmup_fraction, epoch, form)?;
    Ok(outcomes.into_iter().map(|(result, _, rows)| (result, rows)).collect())
}

/// What a store-backed run ([`run_suite_streamed`]) did to satisfy a
/// request. Each work item counts under exactly one of the three trace
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// (benchmark × policy) pairs simulated this call.
    pub simulated: usize,
    /// Pairs answered from the run ledger without simulating.
    pub ledger_hits: usize,
    /// Items streamed in full from a valid archive entry.
    pub trace_hits: u64,
    /// Items streamed from the generator because there is no archive
    /// entry for their trace (or no store at all); the entry stays absent.
    pub trace_generated: u64,
    /// Items whose archive entry failed to stream (open, decode, count or
    /// checksum): the entry was rewritten and the item streamed from the
    /// generator.
    pub trace_regenerated: u64,
}

/// Like [`run_suite`], but incremental — the store-backed runner behind
/// `run_suite` with [`RunnerConfig::store`] and behind `full_suite`.
/// Results already in the run ledger under `store_root` are returned
/// without simulating; for the rest:
///
/// * each missing (benchmark × policies) work item opens ONE trace
///   stream — archive-backed when a valid entry exists, else a generator
///   stream — and runs all its missing policies over it in one pass
///   ([`run_stream_group`]);
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
    let (units, stats) = run_units(suite, policies, config, Some(&mut store), None)?;
    Ok((units.into_iter().map(|(run, _)| run).collect(), stats))
}

/// The one suite runner body, in `suite` × `policies` order. With a
/// store, pairs the ledger holds are answered from it (with no series),
/// items stream from the archive when it holds a valid entry, and each
/// finished item is appended to the ledger; without one, every pair is
/// simulated over a generator stream. With an `epoch` length each
/// simulated unit carries its epoch series.
pub(crate) fn run_units(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    store: Option<&mut Store>,
    epoch: Option<u64>,
) -> Result<(Vec<Unit>, CacheStats), StoreError> {
    let (archive, ledger) = match store {
        Some(Store { archive, ledger }) => (Some(archive), Some(ledger)),
        None => (None, None),
    };
    // Resolve every pair from the ledger; the rest becomes one work item
    // per benchmark that has anything missing.
    let mut slots: Vec<Option<Unit>> = Vec::with_capacity(suite.len() * policies.len());
    let mut work = Vec::new();
    for (bi, bench) in suite.iter().enumerate() {
        let mut need = Vec::new();
        for (pi, policy) in policies.iter().enumerate() {
            let key = || run_key(&config.sim, policy, &bench.name, config.instructions);
            let hit = ledger.as_deref().and_then(|ledger| ledger.get(key()));
            let unit = hit.and_then(run_from_record).map(|run| (run, Vec::new()));
            if unit.is_none() {
                need.push(pi);
            }
            slots.push(unit);
        }
        if !need.is_empty() {
            work.push(WorkItem { bench: bi, policies: need });
        }
    }
    let simulated = work.iter().map(|item| item.policies.len()).sum();
    let ledger_hits = slots.len() - simulated;
    let counters = Mutex::new(CacheStats { simulated, ledger_hits, ..CacheStats::default() });

    if !work.is_empty() {
        let (archive, ledger) = (archive.map(Mutex::new), ledger.map(Mutex::new));
        let (results, _) = run_items(
            &work,
            config.worker_threads(),
            config.stream_unit_estimate(),
            config.mem_budget,
            |item| {
                let units = stream_one_item(
                    archive.as_ref(),
                    suite,
                    policies,
                    config,
                    item,
                    epoch,
                    &counters,
                )?;
                // Persist this item immediately: interrupt-resumability
                // hinges on completed items being in the ledger before
                // the next item starts.
                if let Some(ledger) = &ledger {
                    let mut ledger = ledger.lock().expect(POISONED);
                    for (&pi, (run, _)) in item.policies.iter().zip(&units) {
                        let policy = &policies[pi];
                        let key = run_key(
                            &config.sim,
                            policy,
                            &suite[item.bench].name,
                            config.instructions,
                        );
                        ledger.append(key, record_from_run(run, &config.sim, policy))?;
                    }
                }
                Ok(units)
            },
        )?;
        for (item, units) in work.iter().zip(results) {
            for (&pi, unit) in item.policies.iter().zip(units) {
                slots[item.bench * policies.len() + pi] = Some(unit);
            }
        }
    }
    let units = slots.into_iter().map(|slot| slot.expect("every pair resolved or simulated"));
    Ok((units.collect(), counters.into_inner().expect(POISONED)))
}

/// A worker that panicked holding one of the runner's locks has already
/// failed the run, so the poisoned lock fails it here too.
const POISONED: &str = "a suite worker panicked while holding a runner lock";

/// Runs one work item: with an archive, probes it under its lock, then
/// (unlocked) streams the trace once through the item's whole policy
/// group. An archive-stream failure rewrites the entry — under the lock,
/// which only a corrupt entry ever costs — and falls back to a generator
/// stream on fresh simulators. Without an archive, or without an entry,
/// the item streams from the generator.
fn stream_one_item(
    archive: Option<&Mutex<&mut TraceArchive>>,
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    item: &WorkItem,
    epoch: Option<u64>,
    counters: &Mutex<CacheStats>,
) -> Result<Vec<Unit>, StoreError> {
    let bench = &suite[item.bench];
    let chunk = config.stream_chunk_records();
    let kinds: Vec<&PolicyKind> = item.policies.iter().map(|&pi| &policies[pi]).collect();
    let run_item = |stream: &mut dyn TraceStream| {
        let outcomes = sample_stream_group(&config.sim, &kinds, bench.seed, stream, epoch)?;
        let run =
            |result| BenchRun { benchmark: bench.name.clone(), category: bench.category, result };
        Ok(outcomes.into_iter().map(|(result, rows)| (run(result), rows)).collect())
    };

    let probe = archive.and_then(|archive| {
        let key = TraceArchive::content_key(bench, config.instructions);
        let a = archive.lock().expect(POISONED);
        a.entry_meta(key).map(|meta| (archive, a.trace_path(key), meta))
    });
    if let Some((archive, path, meta)) = probe {
        let attempt = ArchiveTraceStream::open(&path, meta, chunk)
            .and_then(|mut stream| run_item(&mut stream));
        if let Ok(units) = attempt {
            counters.lock().expect(POISONED).trace_hits += 1;
            return Ok(units);
        }
        // Rewrite the entry, so later runs stream it instead of failing
        // on it again.
        archive.lock().expect(POISONED).pack(bench, config.instructions)?;
        counters.lock().expect(POISONED).trace_regenerated += 1;
    } else {
        counters.lock().expect(POISONED).trace_generated += 1;
    }
    let mut stream = bench.stream(config.instructions, chunk);
    run_item(&mut stream).map_err(|e| StoreError::Corrupt(format!("generator stream failed: {e}")))
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
    use chirp_trace::gen::Emitter;
    use chirp_trace::suite::{build_suite, SuiteConfig};
    use chirp_trace::{GenStream, TraceRecord};

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

    /// `run_policy_group`'s two engines — the factored group, a group of
    /// one included, and the all-`run_columnar` reference — agree bit for
    /// bit, in input order.
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

    /// An item reserves one stream batch, but never more than its whole
    /// trace: a trace shorter than a batch cannot keep more in flight
    /// than it has.
    #[test]
    fn stream_unit_estimate_is_capped_at_the_whole_trace() {
        let estimate = |instructions, stream_chunk| {
            RunnerConfig { instructions, stream_chunk, ..Default::default() }.stream_unit_estimate()
        };
        assert_eq!(estimate(200_000, 0), PackedTrace::estimate_bytes(DEFAULT_STREAM_CHUNK));
        assert_eq!(estimate(40_000, 0), PackedTrace::estimate_bytes(40_000));
        assert_eq!(
            estimate(1_000_000, 0),
            PackedTrace::estimate_bytes(DEFAULT_STREAM_CHUNK),
            "the cap changes nothing at one or more batches"
        );
        assert_eq!(estimate(5_000, 1_000), PackedTrace::estimate_bytes(1_000));
    }

    /// A generator that panics mid-trace makes its group panic, instead
    /// of ending its stream early and returning a short trace's results.
    #[test]
    fn a_generator_panic_mid_trace_reaches_the_caller() {
        let mut stream = GenStream::new(100_000, 4_096, |em: &mut Emitter<'_>| {
            for i in 0..50_000 {
                em.push(TraceRecord::alu(0x40_0000 + 4 * i));
            }
            panic!("generator fails mid-trace");
        });
        let sim = SimConfig::default();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stream_group(&sim, &[&PolicyKind::Lru], 1, &mut stream)
        }));
        let panic = outcome.expect_err("the generator's panic must reach the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"generator fails mid-trace"));
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
