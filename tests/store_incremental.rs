//! End-to-end tests of the incremental experiment pipeline: the
//! content-addressed trace archive plus run ledger must make a repeated
//! suite run free of simulation, and archive corruption must heal
//! transparently.

use chirp_repro::sim::runner::{run_suite, run_suite_streamed, RunnerConfig};
use chirp_repro::sim::PolicyKind;
use chirp_repro::store::{Store, TempDir, TraceArchive};
use chirp_repro::trace::suite::{build_suite, BenchmarkSpec, SuiteConfig};
use std::fs;
use std::path::Path;

fn fresh_store(tag: &str) -> TempDir {
    TempDir::new(&format!("e2e-{tag}"))
}

/// Fills the archive under `root` with `suite`'s traces, as `trace_tool
/// pack` does: suite runs read the archive but never grow it.
fn pack(root: &Path, suite: &[BenchmarkSpec], instructions: usize) {
    let mut archive = TraceArchive::open(root).unwrap();
    for bench in suite {
        archive.pack(bench, instructions).unwrap();
    }
}

#[test]
fn second_cached_run_performs_zero_simulations() {
    let root = fresh_store("rerun");
    let suite = build_suite(&SuiteConfig { benchmarks: 4 });
    let policies = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Ship];
    let config = RunnerConfig { instructions: 20_000, threads: 2, ..Default::default() };

    let (first, stats) = run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
    assert_eq!(first.len(), suite.len() * policies.len());
    assert_eq!(stats.simulated, suite.len() * policies.len());
    assert_eq!(stats.ledger_hits, 0);

    let (second, stats) = run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
    assert_eq!(stats.simulated, 0, "a repeat run must not simulate anything");
    assert_eq!(stats.ledger_hits, suite.len() * policies.len());
    assert_eq!(second, first, "cached results must be byte-identical");

    // And the cached results agree with a plain uncached run.
    assert_eq!(run_suite(&suite, &policies, &config), first);
}

#[test]
fn config_change_invalidates_only_affected_runs() {
    let root = fresh_store("invalidate");
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let policies = [PolicyKind::Lru];
    let config = RunnerConfig { instructions: 15_000, threads: 1, ..Default::default() };
    pack(root.path(), &suite, config.instructions);
    run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();

    // Same store, different simulator configuration: nothing can be
    // reused, but the archived traces are.
    let mut changed = config.clone();
    changed.sim = changed.sim.with_walk_penalty(changed.sim.tlb.walk_penalty + 50);
    let (_, stats) = run_suite_streamed(&suite, &policies, &changed, root.path()).unwrap();
    assert_eq!(stats.ledger_hits, 0);
    assert_eq!(stats.simulated, suite.len());
    assert_eq!(stats.trace_hits, suite.len() as u64, "traces must come from the archive");

    // Re-running the original configuration still hits its old entries.
    let (_, stats) = run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
    assert_eq!(stats.simulated, 0);
}

#[test]
fn corrupted_archive_file_is_transparently_regenerated() {
    let root = fresh_store("corrupt");
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let policies = [PolicyKind::Lru];
    let config = RunnerConfig { instructions: 15_000, threads: 1, ..Default::default() };
    pack(root.path(), &suite, config.instructions);
    let (first, _) = run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();

    // Corrupt every archived trace in place.
    let traces_dir = root.path().join("traces");
    let mut corrupted = 0;
    for entry in fs::read_dir(&traces_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "chrp") {
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, suite.len());

    // The ledger still answers, so nothing even touches the corrupt files…
    let (again, stats) = run_suite_streamed(&suite, &policies, &config, root.path()).unwrap();
    assert_eq!(again, first);
    assert_eq!(stats.simulated, 0);

    // …but a run that needs the traces detects the damage and heals it
    // rather than failing.
    let (_, stats) =
        run_suite_streamed(&suite, &[PolicyKind::Random], &config, root.path()).unwrap();
    assert_eq!(stats.trace_regenerated, suite.len() as u64);
    assert_eq!(stats.simulated, suite.len());

    let store = Store::open(root.path()).unwrap();
    let (valid, corrupt) = store.archive.verify();
    assert_eq!((valid, corrupt.len()), (suite.len(), 0), "archive must be healed");
}

#[test]
fn archive_keys_are_stable_across_processes() {
    // Content keys are FNV-1a over explicit fields; they must not depend
    // on anything ambient (hash randomisation, platform, build).
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let key = TraceArchive::content_key(&suite[0], 10_000);
    assert_eq!(key, TraceArchive::content_key(&suite[0], 10_000));
    assert_ne!(key, TraceArchive::content_key(&suite[0], 10_001));
}
