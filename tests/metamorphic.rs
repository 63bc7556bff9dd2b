//! Metamorphic relations of the timing model, checked through the
//! production engine — the factored chunk driver behind
//! `run_policy_group(.., true)` and `run_stream_group` — rather than the
//! reference `Simulator`. Each relation compares runs of the engine with
//! each other, so none needs an expected value:
//!
//! * LRU stack inclusion: at a fixed set count, a wider L2 TLB holds a
//!   superset of a narrower one's pages after every access, so its L2
//!   misses never rise as ways grow from 1 to 16;
//! * the walk penalty and the paging-structure cache act only on the
//!   cost of a miss: sweeping the penalty from 20 to 340 cycles, with the
//!   PSC on or off, leaves every policy's hits, misses and dead evictions
//!   identical, and cycles never fall as the penalty grows.

use chirp_repro::sim::experiments::fig10_penalty::PAPER_PENALTIES;
use chirp_repro::sim::{run_policy_group, run_stream_group, PolicyKind, RunResult, SimConfig};
use chirp_repro::tlb::TlbGeometry;
use chirp_repro::trace::suite::{build_suite, SuiteConfig};
use proptest::prelude::*;

const INSTRUCTIONS: usize = 20_000;

/// Benchmarks the relations draw from: the suite's first 16, which span
/// every category (its first five are one of each).
const BENCHMARKS: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// LRU's L2 misses never rise as the L2 TLB's ways grow from 1 to 16
    /// at a fixed set count, on any suite benchmark.
    #[test]
    fn lru_misses_never_rise_with_ways(bench_ix in 0usize..BENCHMARKS, sets_log2 in 0u32..8) {
        let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
        let bench = &suite[bench_ix];
        let trace = bench.generate_packed(INSTRUCTIONS);
        let sets = 1usize << sets_log2;
        let mut narrower: Option<u64> = None;
        for ways in 1..=16 {
            let mut config = SimConfig::default();
            config.tlb.l2 = TlbGeometry { entries: sets * ways, ways };
            let run = run_policy_group(&config, &[&PolicyKind::Lru], bench.seed, &trace, true);
            let misses = run[0].l2_tlb.misses;
            if let Some(narrower) = narrower {
                prop_assert!(
                    misses <= narrower,
                    "{} with {sets} sets: {ways} ways miss {misses} times, {} ways {narrower}",
                    bench.name,
                    ways - 1
                );
            }
            narrower = Some(misses);
        }
    }
}

/// The paper's six policies over `bench`'s generator stream under
/// `config`.
fn lineup_runs(
    config: &SimConfig,
    bench: &chirp_repro::trace::suite::BenchmarkSpec,
) -> Vec<RunResult> {
    let lineup = PolicyKind::paper_lineup();
    let kinds: Vec<&PolicyKind> = lineup.iter().collect();
    let mut stream = bench.stream(INSTRUCTIONS, 4_096);
    run_stream_group(config, &kinds, bench.seed, &mut stream).expect("generator stream")
}

/// Sweeping the walk penalty over the paper's 20–340 cycles, with the
/// PSC off and on, changes no policy's L2 outcome — hits, misses, dead
/// evictions and cold fills all equal the 20-cycle flat run's — and
/// cycles never fall as the penalty grows.
#[test]
fn walk_penalty_and_psc_change_cycles_never_outcomes() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    for bench in &suite[..5] {
        let mut base: Option<Vec<RunResult>> = None;
        for psc in [None, Some((64, 30))] {
            let mut cheaper: Option<Vec<RunResult>> = None;
            for penalty in PAPER_PENALTIES {
                let mut config = SimConfig::default().with_walk_penalty(penalty);
                config.tlb.psc = psc;
                let runs = lineup_runs(&config, bench);
                let base = base.get_or_insert_with(|| runs.clone());
                for (run, base) in runs.iter().zip(base.iter()) {
                    assert_eq!(
                        run.l2_tlb, base.l2_tlb,
                        "{} {}: walk penalty {penalty}, psc {psc:?} changed the L2 outcome",
                        bench.name, run.policy
                    );
                }
                if let Some(cheaper) = &cheaper {
                    for (run, cheaper) in runs.iter().zip(cheaper) {
                        assert!(
                            run.cycles >= cheaper.cycles,
                            "{} {}: {} cycles at walk penalty {penalty} but {} below it \
                             (psc {psc:?})",
                            bench.name,
                            run.policy,
                            run.cycles,
                            cheaper.cycles
                        );
                    }
                }
                cheaper = Some(runs);
            }
        }
    }
}
