//! Criterion micro-benchmarks: reference-model throughput per replacement
//! policy (`Simulator::run_columnar`, one policy at a time — how much the
//! policy itself costs per L2 TLB access in the reference model, which no
//! production path runs; the engine's speed is perfbench's `lineup`),
//! plus the isolated CHiRP signature/table operations that sit on the
//! TLB path.

use chirp_core::{ChirpConfig, HistoryRegister, PredictionTable, SignatureBuilder};
use chirp_sim::{PolicyKind, SimConfig, Simulator};
use chirp_trace::gen::{ContextCopy, WorkloadGen};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn bench_policies(c: &mut Criterion) {
    let trace = ContextCopy::default().generate_packed(200_000, 1);
    let config = SimConfig::default();
    let mut group = c.benchmark_group("simulate_200k_instructions");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for policy in PolicyKind::paper_lineup() {
        group.bench_function(policy.name(), |b| {
            b.iter_batched(
                || Simulator::with_policy(&config, policy.build_dispatch(config.tlb.l2, 0)),
                |mut sim| sim.run_columnar(&trace, 0.5),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_chirp_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("chirp_components");

    group.bench_function("signature_compose", |b| {
        let builder = SignatureBuilder::new(&ChirpConfig::default());
        let mut pc = 0x400000u64;
        b.iter(|| {
            pc = pc.wrapping_add(4);
            std::hint::black_box(builder.signature(pc))
        });
    });

    group.bench_function("path_history_push", |b| {
        let mut h = HistoryRegister::path(16, true);
        let mut pc = 0x400000u64;
        b.iter(|| {
            pc = pc.wrapping_add(4);
            h.push(pc);
            std::hint::black_box(h.folded())
        });
    });

    group.bench_function("prediction_table_update", |b| {
        let mut t = PredictionTable::new(4096, 2);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 123) & 4095;
            t.increment(i);
            std::hint::black_box(t.read(i))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_policies, bench_chirp_components);
criterion_main!(benches);
