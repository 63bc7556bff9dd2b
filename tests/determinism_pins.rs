//! Byte-level pins of everything the trace RNG, the factored front end
//! and the wire codec emit.
//!
//! The synthetic generators stand in for the paper's CVP-1 traces, so
//! their xoshiro256++ stream *is* the benchmark suite: a changed draw
//! changes every trace, every archive checksum and every ledger key's
//! meaning without changing `GEN_CODE_VERSION`. The front end's event
//! columns are what every back end replays, so a moved event changes
//! every result. These digests were recorded once and must never be
//! regenerated; a failure means the emitted bytes changed, not that the
//! pin is stale.

use chirp_repro::core::ChirpConfig;
use chirp_repro::serve::wire::{
    err, write_request, write_response, PolicyVerdict, Request, Response, VerdictReply,
};
use chirp_repro::sim::{group_sig_config, EventSegment, FactoredTrace, FrontEnd};
use chirp_repro::sim::{PolicyKind, SimConfig};
use chirp_repro::store::fnv64;
use chirp_repro::tlb::policies::RandomPolicy;
use chirp_repro::tlb::{TlbAccess, TlbGeometry, TlbReplacementPolicy, TranslationKind};
use chirp_repro::trace::gen::{Interpreter, WorkloadGen, Zipf};
use chirp_repro::trace::rng::Xoshiro256pp;
use chirp_repro::trace::suite::{build_suite, PAPER_SUITE_SIZE};
use chirp_repro::trace::{workload_family, write_trace_packed, BenchmarkSpec, SuiteConfig};

const INSTRUCTIONS: usize = 50_000;

/// Records per front-end pin: enough for every family to reach the L2
/// TLB, mispredict and fill several segments' worth of events.
const FRONT_END_INSTRUCTIONS: usize = 100_000;

/// Digest of a sequence of small integers, one byte each.
fn digest_u8s(values: impl IntoIterator<Item = usize>) -> u64 {
    let bytes: Vec<u8> =
        values.into_iter().map(|v| u8::try_from(v).expect("value fits a byte")).collect();
    fnv64(&bytes)
}

#[test]
fn every_generator_family_emits_pinned_bytes() {
    let suite = build_suite(&SuiteConfig { benchmarks: PAPER_SUITE_SIZE });
    let mut seen: Vec<(&str, &str, u64)> = Vec::new();
    for bench in &suite {
        let family = workload_family(&bench.name);
        if seen.iter().any(|(f, _, _)| *f == family) {
            continue;
        }
        let bytes = write_trace_packed(&bench.generate_packed(INSTRUCTIONS));
        seen.push((family, &bench.name, fnv64(&bytes)));
    }
    let pinned: &[(&str, &str, u64)] = &[
        ("ctxcopy", "mixed.ctxcopy.h384s16c4.7e6e#s0", 0x4f24_067e_5a0a_f32b),
        ("scanidx", "db.scanidx.i256z0.7b32.e5fd#s0", 0x4233_341c_7a83_89ea),
        ("stream", "crypto.stream.t256l2.67bd#s0", 0x5d01_396a_4e0e_b25a),
        ("stencil", "sci.stencil.t32s256.a70b#s0", 0x518f_29d1_3289_5c43),
        ("loops", "spec.loops.a1p32.f2df#s0", 0x8bfa_1fa4_49dd_939c),
        ("serve", "web.serve.h256z0.6.3c0a#s0", 0xfda6_02fa_63c1_f204),
        ("chase", "bigdata.chase.p4096z0.9.88fe#s0", 0xb0ec_ffbc_4647_48e0),
        ("gups", "bigdata.gups.t2048z1.0.21b4#s0", 0x3f32_6146_a9bd_5d39),
    ];
    assert_eq!(seen, pinned);
}

/// The 9-policy lineup: the paper's six plus DRRIP, perceptron reuse
/// and a short-history CHiRP.
fn lineup9() -> Vec<PolicyKind> {
    let mut policies = PolicyKind::paper_lineup();
    policies.push(PolicyKind::Drrip);
    policies.push(PolicyKind::PerceptronReuse);
    policies.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
    policies
}

/// The first benchmark of each generator family, in suite order.
fn one_per_family() -> Vec<BenchmarkSpec> {
    let mut picked: Vec<BenchmarkSpec> = Vec::new();
    for bench in build_suite(&SuiteConfig { benchmarks: PAPER_SUITE_SIZE }) {
        let family = workload_family(&bench.name);
        if !picked.iter().any(|b| workload_family(&b.name) == family) {
            picked.push(bench);
        }
    }
    picked
}

#[test]
fn every_generator_family_builds_pinned_front_end_events() {
    let config = SimConfig::default();
    let sig = group_sig_config(lineup9().iter());
    let mut seen: Vec<(String, u64)> = Vec::new();
    for bench in one_per_family() {
        let trace = bench.generate_packed(FRONT_END_INSTRUCTIONS);
        let factored = FactoredTrace::build(&config, &trace, config.warmup_fraction, &sig);
        seen.push((bench.name.clone(), fnv64(&factored.wire_bytes())));
    }
    let pinned: &[(&str, u64)] = &[
        ("mixed.ctxcopy.h384s16c4.7e6e#s0", 0x6448_32d5_99cf_bd99),
        ("db.scanidx.i256z0.7b32.e5fd#s0", 0x1d70_0499_0391_161f),
        ("crypto.stream.t256l2.67bd#s0", 0xf2ee_09f7_f0e2_3439),
        ("sci.stencil.t32s256.a70b#s0", 0x7fad_4c8a_d209_263a),
        ("spec.loops.a1p32.f2df#s0", 0x81c6_78a3_331b_4a8d),
        ("web.serve.h256z0.6.3c0a#s0", 0x8800_302e_37e5_1f2d),
        ("bigdata.chase.p4096z0.9.88fe#s0", 0x9d1b_53c7_af43_df89),
        ("bigdata.gups.t2048z1.0.21b4#s0", 0xd369_f3b0_20c4_4e59),
    ];
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(seen, pinned);
}

/// A chunk split mid-burst (the front end works in 64-record bursts) and
/// fed as its two halves emits the pinned events: the split halves'
/// side-table cursors and burst passes must line up exactly.
#[test]
fn a_chunk_split_mid_burst_builds_pinned_front_end_events() {
    let config = SimConfig::default();
    let sig = group_sig_config(lineup9().iter());
    let trace = build_suite(&SuiteConfig { benchmarks: 1 })[0].generate_packed(20_000);
    let mut fe = FrontEnd::new(&config, &sig);
    let mut segments = vec![EventSegment::default(); 3];
    for (i, chunk) in trace.chunks(4_096).enumerate() {
        if i == 2 {
            // 1_037 = 16 bursts of 64 and 13 records.
            let (head, tail) = chunk.split_at(1_037);
            fe.process_chunk(&head, &mut segments[1]);
            fe.process_chunk(&tail, &mut segments[2]);
        } else {
            fe.process_chunk(&chunk, &mut segments[usize::from(i > 2) * 2]);
        }
    }
    let bytes: Vec<u8> = segments.iter().flat_map(EventSegment::wire_bytes).collect();
    assert_eq!((bytes.len(), fnv64(&bytes)), (228_614, 0x151a_891e_10d3_3599));
}

#[test]
fn interpreter_outside_the_grid_emits_pinned_bytes() {
    let trace = Interpreter::default().generate_packed(INSTRUCTIONS, 1);
    assert_eq!(fnv64(&write_trace_packed(&trace)), 0x1b27_0be3_5ee1_f020);
}

#[test]
fn random_policy_victims_are_pinned() {
    let acc = TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set: 0 };
    let mut digests = Vec::new();
    for ways in [8, 12] {
        for seed in [1, 90_210] {
            let mut policy = RandomPolicy::new(TlbGeometry { entries: ways * 128, ways }, seed);
            digests.push(digest_u8s((0..10_000).map(|_| policy.choose_victim(&acc))));
        }
    }
    assert_eq!(
        digests,
        [
            0x765f_3dbd_c633_d676,
            0xe2be_f1c9_5c88_c7fe,
            0x5874_034f_27bf_8f9f,
            0x9e9a_b612_5799_a266
        ]
    );
}

#[test]
fn zipf_samples_are_pinned() {
    let zipf = Zipf::new(200, 0.9);
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let ranks = digest_u8s((0..10_000).map(|_| zipf.sample(&mut rng)));
    assert_eq!(ranks, 0x1ebe_8d82_ab37_a324);
}

fn sample_verdict() -> VerdictReply {
    VerdictReply {
        name: "web.serve.1a2b#s3".into(),
        content_hash: 0xdead_beef_cafe_f00d,
        trace_records: 10_000,
        verdicts: vec![PolicyVerdict {
            policy: "chirp".into(),
            from_ledger: true,
            instructions: 5_000,
            cycles: 9_000,
            hits: 400,
            misses: 17,
            dead_evictions: 3,
            cold_fills: 2,
            l2_accesses: 417,
            prediction_table_accesses: 120,
            l2_accesses_total: 900,
            efficiency: 0.875,
            mpki: 3.4,
        }],
        best_policy: "chirp".into(),
        summary: Some("sessions 1".into()),
    }
}

#[test]
fn every_wire_frame_encodes_to_pinned_bytes() {
    let requests = [
        Request::Ping,
        Request::Submit {
            name: "upload.abc".into(),
            category: "web".into(),
            seed: 7,
            policies: vec!["lru".into(), "chirp".into()],
            trace_bytes: 12_345,
            records: 9_000,
            telemetry: true,
        },
        Request::TraceChunk(vec![1, 2, 3, 255]),
        Request::TraceEnd,
        Request::RunArchived {
            hash: u64::MAX,
            name: "bench".into(),
            category: "crypto".into(),
            seed: 0,
            policies: vec!["srrip".into()],
            telemetry: false,
        },
        Request::Stats,
        Request::Shutdown,
    ];
    let responses = [
        Response::Pong,
        Response::Go,
        Response::Busy { retry_after_ms: 50, in_flight_bytes: 1 << 20, budget_bytes: 1 << 21 },
        Response::Verdict(sample_verdict()),
        Response::Verdict(VerdictReply { summary: None, ..sample_verdict() }),
        Response::Error { code: err::NOT_FOUND, message: "no such trace".into() },
        Response::StatsReply("requests 3\n".into()),
        Response::ShutdownAck,
    ];
    let mut frames: Vec<(usize, u64)> = Vec::new();
    for req in &requests {
        let mut bytes = Vec::new();
        write_request(&mut bytes, req).unwrap();
        frames.push((bytes.len(), fnv64(&bytes)));
    }
    for resp in &responses {
        let mut bytes = Vec::new();
        write_response(&mut bytes, resp).unwrap();
        frames.push((bytes.len(), fnv64(&bytes)));
    }
    let pinned: &[(usize, u64)] = &[
        (7, 0x6ab2_d926_ece4_cc76),
        (73, 0x8708_abea_8c6a_c4bc),
        (15, 0xf764_2176_e079_8bd1),
        (7, 0xaa1d_48fb_5f71_e065),
        (56, 0xcfe1_3a46_cea8_3be7),
        (7, 0x90bf_82a6_64d3_0b9f),
        (7, 0x8410_9f7b_e783_a13c),
        (7, 0x1341_43e8_452f_9af6),
        (7, 0x0692_60bd_c7e0_3093),
        (27, 0xfeb3_8c1a_8a10_63a6),
        (170, 0x00cf_eac5_7321_df42),
        (156, 0xb5d8_5d10_8053_1d0f),
        (26, 0x3d67_a8bb_7886_04c2),
        (22, 0xd344_0340_0dfc_dd5a),
        (7, 0x2c9f_0a3d_3fce_6fbc),
    ];
    assert_eq!(frames, pinned);
}
