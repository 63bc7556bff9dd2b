//! `lineup`: the `run_all` path. One op runs one benchmark of each of the
//! 8 generator families, each a resident trace through the 9-policy group
//! on one thread — a shared front-end pass plus nine replay back ends,
//! with no I/O. An op spans every family so that ops cost alike and their
//! median is not the boundary between two families' costs.

use crate::check::{self, LINEUP9};
use crate::speed::Reference;
use crate::tracer::Tracer;
use crate::Outcome;
use chirp_sim::{group_sig_config, replay_factored, run_policy_group, FactoredTrace, SimConfig};
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Benchmarks in the suite: 16 cover all 8 generator families twice,
    /// so a pass is two ops.
    pub benchmarks: usize,
    /// Instructions per benchmark trace.
    pub instructions: usize,
    /// Times the suite is generated during set-up; `setup_s` is the
    /// median.
    pub setups: usize,
}

/// The size the benchmark runs at.
pub const SIZES: Sizes = Sizes { benchmarks: 16, instructions: 1_000_000, setups: 9 };

/// Benchmarks per op: one of each default generator family.
const OP_BENCHMARKS: usize = 8;

/// Runs the workload for `seconds`. With `traced`, even passes split each
/// op into its front-end and replay halves under spans and odd passes run
/// untraced, so the tracing overhead is the difference of the two.
pub fn run(seed: u64, seconds: f64, traced: bool, sizes: Sizes) -> Outcome {
    let sim = SimConfig::default();
    let kinds = check::policies(&LINEUP9);
    let kind_refs: Vec<_> = kinds.iter().collect();
    let sig = group_sig_config(kinds.iter());
    let suite = check::suite(seed, sizes.benchmarks);
    let mut tracer = Tracer::new(traced);
    let mut out = Outcome::default();
    let mut reference = Reference::new(1);

    let mut traces = Vec::new();
    for _ in 0..sizes.setups.max(1) {
        traces.clear();
        let started = Instant::now();
        for bench in &suite {
            traces
                .push(tracer.time("trace.generate", || bench.generate_packed(sizes.instructions)));
        }
        out.end_setup(started, &mut reference);
    }
    let pass_instr: u64 = traces.iter().map(|t| (t.len() * kinds.len()) as u64).sum();

    // Per op: which slice of the suite it ran, and the digests of its
    // (benchmark × policy) results.
    let mut digests: Vec<(usize, Vec<u64>)> = Vec::new();
    let mut events = 0u64;
    let mut accesses = 0u64;
    out.host_start();
    let started = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        let traced_pass = traced && pass.is_multiple_of(2);
        tracer.set_enabled(traced_pass);
        let mut pass_total = 0.0;
        for first in (0..suite.len()).step_by(OP_BENCHMARKS) {
            let last = (first + OP_BENCHMARKS).min(suite.len());
            tracer.next_op();
            let t0 = Instant::now();
            let op = tracer.begin("op");
            let mut results = Vec::with_capacity((last - first) * kinds.len());
            for (bench, trace) in suite[first..last].iter().zip(&traces[first..last]) {
                if traced_pass {
                    let factored = tracer.time("frontend", || {
                        FactoredTrace::build(&sim, trace, sim.warmup_fraction, &sig)
                    });
                    let replayed = tracer.time("replay", || {
                        let built = kinds.iter().map(|k| k.build_dispatch(sim.tlb.l2, bench.seed));
                        replay_factored(&sim, &factored, built.collect())
                    });
                    events += (factored.access_events() + factored.control_events()) as u64;
                    accesses += (factored.access_events() * kinds.len()) as u64;
                    results.extend(replayed.into_iter().map(|(r, _)| r));
                } else {
                    results.extend(run_policy_group(&sim, &kind_refs, bench.seed, trace, true));
                }
            }
            tracer.end(op);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            pass_total += ms;
            out.op(ms, &mut reference);
            if pass == 0 {
                out.l2_misses += results.iter().map(|r| r.l2_tlb.misses).sum::<u64>();
                out.l2_measured_instr += results.iter().map(|r| r.instructions).sum::<u64>();
            }
            digests.push((first, results.iter().map(check::digest_result).collect()));
        }
        out.end_pass(pass_total, pass_instr as f64, &mut reference);
        pass += 1;
    }
    out.host_end();
    out.peak_rss_mib = crate::stats::peak_rss_mib();

    let reference: Vec<u64> = check::reference(&sim, seed, &suite, sizes.instructions)
        .unwrap_or_else(check::no_reference)
        .into_iter()
        .flatten()
        .collect();
    out.attempted = digests.len() as u64;
    out.failed = digests
        .iter()
        .filter(|(first, d)| {
            let start = first * kinds.len();
            reference.get(start..start + d.len()) != Some(d.as_slice())
        })
        .count() as u64;
    out.op_digests = digests.into_iter().map(|(_, d)| d).collect();
    out.ops_label = "op = 8 benchmarks (one per generator family) x 9 policies";

    if traced {
        let instr: u64 = suite.len() as u64 * sizes.instructions as u64 * pass.div_ceil(2) as u64;
        let frontend = tracer.total_ms("frontend");
        let replay = tracer.total_ms("replay");
        out.layer("trace.generate_ms", tracer.median_span_ms("trace.generate"));
        out.layer("frontend.ms", tracer.median_ms("frontend"));
        out.layer("frontend.ns_per_instr", frontend * 1e6 / instr as f64);
        out.layer("frontend.events_per_instr", events as f64 / instr as f64);
        out.layer("replay.ms", tracer.median_ms("replay"));
        out.layer("replay.ns_per_event", replay * 1e6 / accesses as f64);
        out.layer("span.explained_pct", 100.0 * (frontend + replay) / tracer.total_ms("op"));
        out.overhead();
    }
    out.tracer = tracer;
    out
}
