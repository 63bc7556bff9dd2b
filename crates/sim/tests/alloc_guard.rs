//! Zero-allocation guard for the monomorphized columnar hot loop, the
//! factored replay and the chunk-pipelined factored group.
//!
//! A counting global allocator wraps the system allocator; the tests then
//! measure each engine on a short and a long trace with the same
//! policies. Every per-run constant (the policy-name `String` in the
//! result, for instance) appears in both counts, so the counts can only
//! differ if something inside the per-instruction loop allocates — which
//! is exactly what the packed-age/flat-array rework eliminated. The
//! single-threaded engines are counted on the measuring thread alone;
//! the pipelined group, which replays on a thread of its own, is counted
//! process-wide. This file is a separate integration test so the
//! allocator swap owns its process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chirp_core::ChirpConfig;
use chirp_sim::{PolicyKind, SimConfig, Simulator};
use chirp_trace::suite::{build_suite, SuiteConfig};

struct CountingAlloc;

/// Allocations on every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations on the current thread. Const-initialised and without
    /// a destructor, so the allocator can touch it at any point of a
    /// thread's life without allocating itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `ALLOCATIONS` is process-global, but libtest runs the tests below
/// on separate threads: one test's allocations could land inside the
/// pipelined test's measured window and fail it spuriously. Each test
/// holds this lock for its whole body so that window owns the counter.
static GATE: Mutex<()> = Mutex::new(());

/// The fewest process-wide allocations `count` reports over `runs`
/// calls, for the multi-threaded pipelined group. Work on other threads
/// can still land in its window — the harness's bookkeeping for a test
/// that has just released `GATE`, or the wait context and wait-list
/// entry the standard library allocates the first time a thread blocks
/// on a channel, which depends on timing — but it only ever adds to
/// some runs, while an allocation per segment adds to every run.
fn fewest(runs: usize, mut count: impl FnMut() -> u64) -> u64 {
    (0..runs).map(|_| count()).min().expect("at least one run")
}

/// Allocation count of one `run_columnar` call on this thread,
/// simulator construction excluded.
fn allocs_for_run(policy: &PolicyKind, config: &SimConfig, instructions: usize, seed: u64) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    let before = thread_allocations();
    let result = sim.run_columnar(&trace, config.warmup_fraction);
    let after = thread_allocations();
    assert!(result.instructions > 0 || instructions == 0);
    after - before
}

fn lineup9() -> Vec<PolicyKind> {
    let mut p = PolicyKind::paper_lineup();
    p.push(PolicyKind::Drrip);
    p.push(PolicyKind::PerceptronReuse);
    p.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
    p
}

#[test]
fn hot_loop_does_not_allocate_per_instruction() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = SimConfig::default();
    for policy in &lineup9() {
        let short = allocs_for_run(policy, &config, 4_000, 7);
        let long = allocs_for_run(policy, &config, 40_000, 7);
        assert_eq!(
            long,
            short,
            "policy {} allocates per instruction: {short} allocations over 4k instructions \
             vs {long} over 40k",
            policy.name()
        );
    }
}

/// Allocation count of replaying a prebuilt front-end event stream
/// through all 9 policy back-ends (`chirp_sim::replay_factored`) on this
/// thread. The stream and the trace are built outside the measured
/// window; backend construction, the measured-window snapshots and the policy-name
/// `String`s in the results are per-run constants appearing in both
/// counts.
fn allocs_for_factored_replay(config: &SimConfig, instructions: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let policies = lineup9();
    let sig_config = chirp_sim::group_sig_config(policies.iter());
    let stream =
        chirp_sim::FactoredTrace::build(config, &trace, config.warmup_fraction, &sig_config);
    let built: Vec<_> = policies.iter().map(|p| p.build_dispatch(config.tlb.l2, 7)).collect();
    let before = thread_allocations();
    let outcomes = chirp_sim::replay_factored(config, &stream, built);
    let after = thread_allocations();
    assert_eq!(outcomes.len(), 9);
    after - before
}

/// The factored back-end replay must do zero per-instruction (and
/// per-event) allocations: a 10× longer event stream may not add a
/// single allocation over the short one.
#[test]
fn factored_replay_does_not_allocate_per_instruction() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = SimConfig::default();
    let short = allocs_for_factored_replay(&config, 4_000);
    let long = allocs_for_factored_replay(&config, 40_000);
    assert_eq!(
        long, short,
        "factored replay allocates per instruction: {short} allocations over 4k instructions \
         vs {long} over 40k"
    );
}

/// Process-wide allocation count of one `run_policy_group` call over the
/// 9-policy lineup: the factored chunk driver, pipelined whenever the
/// host has more than one CPU (no other simulation thread runs in this
/// process). Backend construction, the segment pool (each segment sized
/// for a full chunk up front), the channels, the replay thread and the
/// result `String`s are per-run constants.
fn allocs_for_policy_group(config: &SimConfig, instructions: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let policies = lineup9();
    let kinds: Vec<&PolicyKind> = policies.iter().collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let results = chirp_sim::run_policy_group(config, &kinds, 7, &trace, true);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(results.len(), 9);
    after - before
}

/// The pipelined group must not allocate per segment: a 5× longer trace
/// (49 chunks against 10) may not add a single allocation. Whether a
/// side of a channel blocks at all in a given run depends on timing
/// (see [`fewest`]), hence the larger run count; a per-segment
/// allocation would add about 39 to every long run.
#[test]
fn pipelined_group_does_not_allocate_per_segment() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        // One CPU: the group replays inline, through one segment that
        // grows to the largest chunk seen, so a longer trace may add a
        // doubling. There is no pipelined form to measure.
        eprintln!("single CPU: the factored group replays inline; nothing to measure");
        return;
    }
    let config = SimConfig::default();
    // Warm-up: process-wide lazy state (the cached CPU count, the test
    // thread's channel wait context) is set up outside the comparison.
    allocs_for_policy_group(&config, 40_000);
    let short = fewest(5, || allocs_for_policy_group(&config, 40_000));
    let long = fewest(5, || allocs_for_policy_group(&config, 200_000));
    assert_eq!(
        long, short,
        "the factored group allocates per segment: {short} allocations over 40k instructions \
         vs {long} over 200k"
    );
}
