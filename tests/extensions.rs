//! Integration tests for the extension features: extra baselines, mixed
//! page sizes, PSC, and wrong-path modelling.

use chirp_repro::core::{Chirp, ChirpConfig, SignatureBuilder};
use chirp_repro::sim::{PolicyKind, SimConfig, Simulator};
use chirp_repro::tlb::mixed::{MixedPolicy, MixedTlb, ThpMapper};
use chirp_repro::tlb::{TlbGeometry, TlbHierarchyConfig};
use chirp_repro::trace::gen::{ContextCopy, Interpreter, WorkloadGen};

#[test]
fn drrip_and_perceptron_run_end_to_end() {
    let trace = ContextCopy::default().generate_packed(200_000, 1);
    let config = SimConfig::default();
    for kind in [PolicyKind::Drrip, PolicyKind::PerceptronReuse] {
        let mut sim = Simulator::with_policy(&config, kind.build_dispatch(config.tlb.l2, 1));
        let r = sim.run_columnar(&trace, config.warmup_fraction);
        assert_eq!(r.policy, kind.name());
        assert!(r.mpki() > 0.0);
    }
}

#[test]
fn perceptron_beats_lru_on_context_workload_but_not_chirp() {
    let trace = ContextCopy::default().generate_packed(600_000, 2);
    let config = SimConfig::default();
    let run = |kind: PolicyKind| {
        let mut sim = Simulator::with_policy(&config, kind.build_dispatch(config.tlb.l2, 2));
        sim.run_columnar(&trace, config.warmup_fraction).mpki()
    };
    let lru = run(PolicyKind::Lru);
    let perceptron = run(PolicyKind::PerceptronReuse);
    let chirp = run(PolicyKind::Chirp(ChirpConfig::default()));
    assert!(perceptron < lru, "perceptron {perceptron:.2} must beat LRU {lru:.2}");
    assert!(chirp <= perceptron * 1.05, "chirp {chirp:.2} vs perceptron {perceptron:.2}");
}

#[test]
fn indirect_history_matters_on_threaded_interpreters() {
    let trace = Interpreter::default().generate_packed(800_000, 11);
    let config = SimConfig::default();
    let run = |cfg: ChirpConfig| {
        let mut sim = Simulator::with_policy(&config, Chirp::new(config.tlb.l2, cfg));
        sim.run_columnar(&trace, config.warmup_fraction).mpki()
    };
    let full = run(ChirpConfig::default());
    let no_indirect = run(ChirpConfig { use_uncond: false, ..Default::default() });
    assert!(
        full < no_indirect,
        "indirect history must help on threaded dispatch: {full:.2} vs {no_indirect:.2}"
    );
}

#[test]
fn psc_reduces_cycles_without_changing_miss_counts() {
    let trace = ContextCopy::default().generate_packed(200_000, 3);
    let mut base_cfg = SimConfig::default();
    base_cfg.tlb = TlbHierarchyConfig { psc: None, ..base_cfg.tlb };
    let mut psc_cfg = SimConfig::default();
    psc_cfg.tlb = TlbHierarchyConfig { psc: Some((64, 30)), ..psc_cfg.tlb };

    let mut sim =
        Simulator::with_policy(&base_cfg, PolicyKind::Lru.build_dispatch(base_cfg.tlb.l2, 0));
    let base = sim.run_columnar(&trace, 0.5);
    let mut sim =
        Simulator::with_policy(&psc_cfg, PolicyKind::Lru.build_dispatch(psc_cfg.tlb.l2, 0));
    let psc = sim.run_columnar(&trace, 0.5);

    assert_eq!(base.l2_tlb.misses, psc.l2_tlb.misses, "PSC must not change TLB behaviour");
    assert!(psc.cycles < base.cycles, "PSC must cut walk cycles");
}

#[test]
fn mixed_tlb_with_real_signatures_over_a_real_trace() {
    let trace = ContextCopy::default().generate(150_000, 4);
    let mut tlb = MixedTlb::new(TlbGeometry::default(), MixedPolicy::SizeAwareReuse);
    let mut signatures = SignatureBuilder::new(&ChirpConfig::default());
    let mapper = ThpMapper { fragmentation_percent: 50 };
    for rec in &trace {
        if let Some(class) = rec.kind.branch_class() {
            signatures.record_branch(rec.pc, class);
        }
        if rec.kind.is_memory() {
            tlb.access(&mapper, rec.effective_address, signatures.signature(rec.pc));
            signatures.record_access(rec.pc);
        }
    }
    let stats = tlb.stats();
    assert!(stats.accesses() > 10_000);
    assert!(stats.hits_2m > 0, "THP at 50% must produce huge-page hits");
    assert!(stats.hits_4k > 0, "fragmented regions must produce base-page hits");
}

#[test]
fn wrong_path_pollution_is_off_by_default() {
    // With the default config, mispredictions must not touch the policy's
    // histories: two runs — one on a machine with a cold branch predictor,
    // one warmed — give identical signatures for identical committed paths.
    let cfg = ChirpConfig::default();
    assert_eq!(cfg.wrong_path_pollution, 0);
}
