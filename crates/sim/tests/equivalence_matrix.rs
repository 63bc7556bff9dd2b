//! The equivalence gates for every execution engine.
//!
//! `Simulator::run_columnar` is the oracle. Each layer pins bit-identical
//! `RunResult`s (which embed the measured `TlbStats`), L2 totals and
//! CHiRP's internal counters against it:
//!
//! 1. **Streamed**: `Simulator::run_stream` over bounded generator
//!    streams, across chunk sizes and warmup cuts.
//! 2. **Factored**: the shared front end + per-policy replay back-ends
//!    ([`chirp_sim::replay_factored`], materialized and streamed),
//!    across warmup cuts, chunk sizes, signature-config mismatches and
//!    wrong-path-pollution configurations — plus the policy-invariance
//!    gate: the front-end event stream is byte-identical no matter which
//!    policy (if any) consumes it.
//! 3. **OPT back end**: Bélády OPT replayed over the front end's own vpn
//!    stream equals a columnar OPT run with the same oracle, and bounds
//!    every lineup policy's measured misses from below.

use chirp_core::{Chirp, ChirpConfig};
use chirp_sim::{PolicyKind, RunResult, SimConfig, Simulator};
use chirp_tlb::policies::{OptOracle, OptPolicy};
use chirp_tlb::{TlbReplacementPolicy, TlbStats};
use chirp_trace::suite::{build_suite, SuiteConfig};
use chirp_trace::PackedTrace;
use proptest::prelude::*;

const INSTRUCTIONS: usize = 30_000;
const BENCHMARKS: usize = 4;

/// The 9-policy lineup: the paper's six plus the three extension
/// baselines (DRRIP, perceptron reuse, short-history CHiRP).
fn lineup9() -> Vec<PolicyKind> {
    let mut policies = PolicyKind::paper_lineup();
    policies.push(PolicyKind::Drrip);
    policies.push(PolicyKind::PerceptronReuse);
    policies.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
    policies
}

#[derive(PartialEq, Debug)]
struct PathOutcome {
    result: RunResult,
    stats_total: TlbStats,
    chirp: Option<chirp_core::policy::ChirpCounters>,
}

fn outcome_of(sim: Simulator<chirp_sim::PolicyDispatch>, result: RunResult) -> PathOutcome {
    let stats_total = sim.tlbs().l2().stats();
    let chirp = sim
        .tlbs()
        .l2()
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<Chirp>())
        .map(|c| c.counters());
    PathOutcome { result, stats_total, chirp }
}

fn columnar_path(
    policy: &PolicyKind,
    config: &SimConfig,
    trace: &PackedTrace,
    seed: u64,
) -> PathOutcome {
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    let result = sim.run_columnar(trace, config.warmup_fraction);
    outcome_of(sim, result)
}

/// One streamed unit: fresh simulator fed from a generator stream with
/// the given chunk size, compared field-for-field (including policy
/// state) against the sequential columnar run of the materialized trace.
fn streamed_path(
    policy: &PolicyKind,
    config: &SimConfig,
    bench: &chirp_trace::suite::BenchmarkSpec,
    len: usize,
    chunk: usize,
) -> PathOutcome {
    let mut stream = bench.stream(len, chunk);
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, bench.seed));
    let result = sim.run_stream(&mut stream, config.warmup_fraction).expect("generator stream");
    outcome_of(sim, result)
}

/// The streaming gate: every policy in the lineup, fed the suite
/// benchmarks through bounded generator streams, must be bit-identical —
/// run totals, L2 stats and CHiRP internal counters — to the sequential
/// columnar run over the materialized trace. Chunk sizes cover the
/// 1-record degenerate case, sizes that do not divide the trace length,
/// and a chunk larger than the whole trace (single-batch stream).
#[test]
fn streamed_matches_materialized_for_every_policy_and_benchmark() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let config = SimConfig::default();
    let policies = lineup9();

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for policy in &policies {
            let want = columnar_path(policy, &config, &trace, bench.seed);
            for chunk in [977, 4_096, INSTRUCTIONS + 1] {
                let got = streamed_path(policy, &config, bench, INSTRUCTIONS, chunk);
                assert_eq!(
                    got,
                    want,
                    "streamed diverged: {} on {} at chunk {chunk}",
                    policy.name(),
                    bench.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random chunk sizes (from the 1-record degenerate case up through
    /// sizes that do not divide the trace), random trace lengths and
    /// random warmup fractions whose cut lands mid-chunk and mid-batch:
    /// the streamed run stays bit-identical to the materialized columnar
    /// run for every policy in the lineup.
    #[test]
    fn streamed_matches_materialized_under_random_chunks_and_warmup(
        warmup_pm in 0u32..1001,
        chunk in 1usize..9_000,
        len in 1usize..9_000,
        policy_ix in 0usize..9,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        let policy = &lineup9()[policy_ix];
        let trace = bench.generate_packed(len);
        let want = columnar_path(policy, &config, &trace, bench.seed);
        let got = streamed_path(policy, &config, bench, len, chunk);
        prop_assert_eq!(
            got, want,
            "policy={} len={} chunk={} warmup={}", policy.name(), len, chunk, warmup
        );
    }
}

/// One factored group: shared front end + per-policy replay back-ends
/// over a materialized trace, each unit's outcome (result, L2 totals,
/// CHiRP counters) in input order.
fn factored_group_path(
    policies: &[PolicyKind],
    config: &SimConfig,
    trace: &PackedTrace,
    seed: u64,
) -> Vec<PathOutcome> {
    let sig_config = chirp_sim::group_sig_config(policies.iter());
    let built: Vec<chirp_sim::PolicyDispatch> =
        policies.iter().map(|p| p.build_dispatch(config.tlb.l2, seed)).collect();
    let events =
        chirp_sim::FactoredTrace::build(config, trace, config.warmup_fraction, &sig_config);
    chirp_sim::replay_factored(config, &events, built)
        .into_iter()
        .map(|(result, backend)| backend_outcome(result, &backend))
        .collect()
}

fn backend_outcome(
    result: RunResult,
    backend: &chirp_sim::Backend<chirp_sim::PolicyDispatch>,
) -> PathOutcome {
    let stats_total = backend.l2().stats();
    let chirp = backend
        .l2()
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<Chirp>())
        .map(|c| c.counters());
    PathOutcome { result, stats_total, chirp }
}

/// The factored gate: the whole 9-policy lineup as one group (one front
/// end, nine back-ends) on every suite benchmark, at warmup extremes and
/// a mid-chunk cut, must be bit-identical per unit to its sequential
/// `run_columnar` — run totals, L2 stats and CHiRP internal counters.
#[test]
fn factored_engine_matches_sequential_for_every_policy_and_benchmark() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for warmup in [0.0, 0.1337, 0.5, 1.0] {
            let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
            let got = factored_group_path(&policies, &config, &trace, bench.seed);
            for (policy, outcome) in policies.iter().zip(got) {
                let want = columnar_path(policy, &config, &trace, bench.seed);
                assert_eq!(
                    outcome,
                    want,
                    "factored diverged: {} on {} at warmup {warmup}",
                    policy.name(),
                    bench.name
                );
                if matches!(policy, PolicyKind::Chirp(_)) {
                    assert!(outcome.chirp.is_some(), "CHiRP counters must be reachable");
                }
            }
        }
    }
}

/// Signature-config corner cases: a group whose stream is computed under
/// a wrong-path-pollution configuration (front end must fold the pseudo
/// wrong-path events), containing a second CHiRP whose signature code
/// does NOT match (must fall back to its local registers) plus policies
/// needing branches and needing nothing.
#[test]
fn factored_engine_handles_pollution_and_mismatched_signature_configs() {
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let config = SimConfig::default();
    let polluted = ChirpConfig { wrong_path_pollution: 3, ..ChirpConfig::default() };
    let groups: Vec<Vec<PolicyKind>> = vec![
        // Polluted CHiRP first: the stream carries polluted signatures;
        // the default-config CHiRP must reject them and self-compute.
        vec![
            PolicyKind::Chirp(polluted),
            PolicyKind::Chirp(ChirpConfig::default()),
            PolicyKind::Ghrp,
            PolicyKind::Lru,
        ],
        // No CHiRP at all: stream signatures are computed under the
        // default config and nobody consumes them.
        vec![PolicyKind::Ghrp, PolicyKind::PerceptronReuse, PolicyKind::Srrip],
        // Only the short-history CHiRP: its own config drives the stream.
        vec![
            PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }),
            PolicyKind::Random,
        ],
    ];
    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for group in &groups {
            let got = factored_group_path(group, &config, &trace, bench.seed);
            for (policy, outcome) in group.iter().zip(got) {
                let want = columnar_path(policy, &config, &trace, bench.seed);
                assert_eq!(
                    outcome,
                    want,
                    "factored diverged: {} on {} in group {:?}",
                    policy.name(),
                    bench.name,
                    group.iter().map(PolicyKind::name).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// An empty trace and a single-policy group must pass through the
/// factored engine without panicking or diverging.
#[test]
fn factored_engine_handles_empty_and_degenerate_groups() {
    let config = SimConfig::default();
    let empty = PackedTrace::from_records(&[]);
    let got = factored_group_path(&lineup9(), &config, &empty, 0);
    for outcome in &got {
        assert_eq!(outcome.result.instructions, 0, "empty trace must measure zero instructions");
    }
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let bench = &suite[0];
    let trace = bench.generate_packed(10_000);
    let solo = [PolicyKind::Chirp(ChirpConfig::default())];
    let got = factored_group_path(&solo, &config, &trace, bench.seed);
    assert_eq!(got[0], columnar_path(&solo[0], &config, &trace, bench.seed));
}

/// The streamed factored gate: the lineup through
/// [`chirp_sim::run_stream_factored`] over generator streams must equal
/// each policy's sequential columnar run of the materialized trace, at
/// chunk sizes that do not divide the trace, the chunk boundary itself
/// and a single-batch stream.
#[test]
fn factored_stream_matches_materialized_for_every_policy() {
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let config = SimConfig::default();
    let policies = lineup9();

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        let wants: Vec<PathOutcome> =
            policies.iter().map(|p| columnar_path(p, &config, &trace, bench.seed)).collect();
        for chunk in [977, 4_096, INSTRUCTIONS + 1] {
            let sig_config = chirp_sim::group_sig_config(policies.iter());
            let built: Vec<chirp_sim::PolicyDispatch> =
                policies.iter().map(|p| p.build_dispatch(config.tlb.l2, bench.seed)).collect();
            let mut stream = bench.stream(INSTRUCTIONS, chunk);
            let got = chirp_sim::run_stream_factored(
                &config,
                &sig_config,
                built,
                &mut stream,
                config.warmup_fraction,
            )
            .expect("generator stream");
            for ((policy, want), (result, backend)) in policies.iter().zip(&wants).zip(got) {
                let outcome = backend_outcome(result, &backend);
                assert_eq!(
                    &outcome,
                    want,
                    "factored stream diverged: {} on {} at chunk {chunk}",
                    policy.name(),
                    bench.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random warmup fractions (cutting mid-chunk and mid-burst) and
    /// random trace lengths straddling the 4096-record chunk size: the
    /// factored group stays bit-identical per unit to its sequential run.
    #[test]
    fn factored_engine_matches_sequential_under_random_warmup_cuts(
        warmup_pm in 0u32..1001,
        len in 1usize..9_000,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        let policies = lineup9();
        let trace = bench.generate_packed(len);
        let got = factored_group_path(&policies, &config, &trace, bench.seed);
        for (policy, outcome) in policies.iter().zip(got) {
            let want = columnar_path(policy, &config, &trace, bench.seed);
            prop_assert_eq!(
                &outcome, &want,
                "policy={} len={} warmup={}", policy.name(), len, warmup
            );
        }
    }

    /// The policy-invariance gate (the cut line's defining property): the
    /// front-end event stream serializes to the same bytes no matter
    /// which policy — or none at all — later consumes it, and rebuilding
    /// it is deterministic. Streams under different signature configs
    /// agree on everything except the signature values: same event
    /// counts, same instructions.
    #[test]
    fn frontend_event_stream_is_byte_identical_regardless_of_policy(
        warmup_pm in 0u32..1001,
        len in 1usize..9_000,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig::default();
        let sig_config = ChirpConfig::default();
        let trace = bench.generate_packed(len);

        let stream = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
        let bytes = stream.wire_bytes();

        // Replay through every policy in the lineup (and through nobody),
        // rebuilding the stream after each: the bytes never change.
        for policy in &lineup9() {
            let built = vec![policy.build_dispatch(config.tlb.l2, bench.seed)];
            let _ = chirp_sim::replay_factored(&config, &stream, built);
            let rebuilt = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
            prop_assert_eq!(
                rebuilt.wire_bytes(), bytes.clone(),
                "front-end stream depends on {} being attached", policy.name()
            );
        }
        let unconsumed = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
        prop_assert_eq!(unconsumed.wire_bytes(), bytes.clone());

        // A different signature config changes signature values only:
        // the invariant skeleton (event counts, instructions) is fixed.
        let other = ChirpConfig { path_length: 8, use_cond: false, ..ChirpConfig::default() };
        let reconfigured = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &other);
        prop_assert_eq!(reconfigured.access_events(), stream.access_events());
        prop_assert_eq!(reconfigured.control_events(), stream.control_events());
        prop_assert_eq!(reconfigured.instructions(), stream.instructions());
    }
}

/// The OPT layer: on every matrix benchmark at two warmup cuts, the
/// Bélády back end replayed over the front end's vpn stream equals a
/// columnar OPT run driven by the same oracle — run totals and L2
/// stats, bit for bit — and its measured L2 misses are no more than
/// those of any `lineup9` policy on the same trace.
#[test]
fn opt_backend_matches_columnar_and_bounds_the_lineup() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();
    let sig_config = chirp_sim::group_sig_config(policies.iter());

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for warmup in [0.1337, 0.5] {
            let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
            let events = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
            let vpns: Vec<u64> =
                events.warmup.vpns().iter().chain(events.measured.vpns()).copied().collect();
            let oracle = OptOracle::from_vpns(vpns);

            let opt = OptPolicy::new(config.tlb.l2, oracle.clone());
            let (replayed, backend) = chirp_sim::replay_factored(&config, &events, vec![opt])
                .pop()
                .expect("one back end");
            let mut sim = Simulator::with_policy(&config, OptPolicy::new(config.tlb.l2, oracle));
            let columnar = sim.run_columnar(&trace, warmup);
            let label = format!("{} at warmup {warmup}", bench.name);
            assert_eq!(replayed, columnar, "OPT back end diverged: {label}");
            assert_eq!(backend.l2().stats(), sim.tlbs().l2().stats(), "OPT totals: {label}");

            for policy in &policies {
                let other = columnar_path(policy, &config, &trace, bench.seed).result;
                assert!(
                    replayed.l2_tlb.misses <= other.l2_tlb.misses,
                    "OPT ({}) misses more than {} ({}): {label}",
                    replayed.l2_tlb.misses,
                    policy.name(),
                    other.l2_tlb.misses
                );
            }
        }
    }
}
