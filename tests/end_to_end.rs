//! End-to-end integration tests: the paper's qualitative results must hold
//! on small suite samples, across crate boundaries.

use chirp_repro::core::{Chirp, ChirpConfig};
use chirp_repro::sim::{PolicyKind, RunnerConfig, SimConfig, Simulator};
use chirp_repro::tlb::policies::Lru;
use chirp_repro::trace::gen::{ContextCopy, ScanIndex, WorkloadGen};
use chirp_repro::trace::suite::{build_suite, SuiteConfig};

fn mpki_for(policy: PolicyKind, trace: &chirp_repro::trace::PackedTrace, seed: u64) -> f64 {
    let config = SimConfig::default();
    let mut sim = Simulator::with_policy(&config, policy.build_dispatch(config.tlb.l2, seed));
    sim.run_columnar(trace, config.warmup_fraction).mpki()
}

#[test]
fn chirp_beats_lru_on_the_context_copy_mechanism_workload() {
    let trace = ContextCopy::default().generate_packed(600_000, 1);
    let lru = mpki_for(PolicyKind::Lru, &trace, 1);
    let chirp = mpki_for(PolicyKind::Chirp(ChirpConfig::default()), &trace, 1);
    assert!(chirp < lru * 0.8, "CHiRP ({chirp:.2}) must cut at least 20% of LRU misses ({lru:.2})");
}

#[test]
fn ship_cannot_separate_contexts_through_shared_pcs() {
    // Paper Observation 2: on the mixed-context workload, PC-indexed SHiP
    // degenerates to roughly LRU.
    let trace = ContextCopy::default().generate_packed(600_000, 1);
    let lru = mpki_for(PolicyKind::Lru, &trace, 1);
    let ship = mpki_for(PolicyKind::Ship, &trace, 1);
    let chirp = mpki_for(PolicyKind::Chirp(ChirpConfig::default()), &trace, 1);
    assert!(
        (ship - lru).abs() < lru * 0.15,
        "SHiP ({ship:.2}) should track LRU ({lru:.2}) within 15%"
    );
    assert!(chirp < ship, "CHiRP ({chirp:.2}) must beat SHiP ({ship:.2})");
}

#[test]
fn chirp_beats_lru_on_database_scans() {
    let trace = ScanIndex::default().generate_packed(600_000, 3);
    let lru = mpki_for(PolicyKind::Lru, &trace, 3);
    let chirp = mpki_for(PolicyKind::Chirp(ChirpConfig::default()), &trace, 3);
    assert!(chirp < lru * 0.85, "CHiRP ({chirp:.2}) vs LRU ({lru:.2}) on scan+index");
}

#[test]
fn suite_average_ordering_matches_the_paper_shape() {
    let suite = build_suite(&SuiteConfig { benchmarks: 12 });
    let config = RunnerConfig { instructions: 150_000, threads: 4, ..Default::default() };
    let policies = PolicyKind::paper_lineup();
    let runs = chirp_repro::sim::run_suite(&suite, &policies, &config);
    let mut sums = vec![0.0f64; policies.len()];
    for (i, run) in runs.iter().enumerate() {
        sums[i % policies.len()] += run.result.mpki();
    }
    let lru = sums[0];
    let chirp = sums[5];
    let ghrp = sums[4];
    assert!(chirp <= lru, "CHiRP avg must not exceed LRU");
    assert!(chirp <= ghrp + lru * 0.01, "CHiRP must match or beat GHRP at suite level");
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let suite = build_suite(&SuiteConfig { benchmarks: 3 });
    let config = RunnerConfig { instructions: 60_000, threads: 2, ..Default::default() };
    let policies = [PolicyKind::Lru, PolicyKind::Chirp(ChirpConfig::default())];
    let a = chirp_repro::sim::run_suite(&suite, &policies, &config);
    let b = chirp_repro::sim::run_suite(&suite, &policies, &config);
    assert_eq!(a, b);
}

#[test]
fn warmup_window_is_excluded_from_measurement() {
    let trace = ContextCopy::default().generate_packed(200_000, 0);
    let config = SimConfig::default();
    let mut sim = Simulator::with_policy(&config, Lru::new(config.tlb.l2));
    let r = sim.run_columnar(&trace, 0.5);
    assert_eq!(r.instructions, 100_000);
    let mut sim = Simulator::with_policy(&config, Lru::new(config.tlb.l2));
    let r_full = sim.run_columnar(&trace, 0.0);
    assert_eq!(r_full.instructions, 200_000);
    // Cold-start misses land in the warmup half: measured MPKI after warmup
    // must not exceed the whole-run MPKI by much.
    assert!(r.mpki() <= r_full.mpki() * 1.5 + 1.0);
}

#[test]
fn chirp_metadata_cost_matches_table_i() {
    let config = SimConfig::default();
    let chirp = Chirp::new(config.tlb.l2, ChirpConfig::default());
    let storage = chirp_repro::tlb::TlbReplacementPolicy::storage(&chirp);
    // 1 KB counters + 2 KB signatures + 128 B prediction bits + registers
    // (+ LRU fallback bits). Must stay in the paper's few-KB envelope.
    let total = storage.total_bytes();
    assert!(
        (3000..6000).contains(&total),
        "CHiRP total storage {total} B out of the Table I envelope"
    );
}
