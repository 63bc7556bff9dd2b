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
//! process-wide. Its two threads meet only on a mutex and condvars,
//! which never allocate, so one run of each length gives an exact count
//! whichever thread waits when. This file is a separate integration test
//! so the allocator swap owns its process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use chirp_core::ChirpConfig;
use chirp_sim::{PolicyDispatch, PolicyKind, SimConfig, Simulator};
use chirp_tlb::{PolicyStorage, TlbAccess, TlbReplacementPolicy};
use chirp_trace::suite::{build_suite, SuiteConfig};
use chirp_trace::{StreamError, TraceChunk, TraceStream};

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
/// pipelined tests' measured windows and fail them spuriously. Each test
/// holds this lock for its whole body so that window owns the counter.
static GATE: Mutex<()> = Mutex::new(());

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
/// process), inline otherwise. Backend construction, the segment ring
/// (each segment sized for a full chunk up front), the replay thread and
/// the result `String`s are per-run constants.
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

/// The factored group must not allocate per segment: a 5× longer trace
/// (49 chunks against 10) may not add a single allocation, in one run
/// of each length.
#[test]
fn pipelined_group_does_not_allocate_per_segment() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = SimConfig::default();
    // Warm-up: process-wide lazy state (the cached CPU count) is set up
    // outside the comparison.
    allocs_for_policy_group(&config, 40_000);
    let short = allocs_for_policy_group(&config, 40_000);
    let long = allocs_for_policy_group(&config, 200_000);
    assert_eq!(
        long, short,
        "the factored group allocates per segment: {short} allocations over 40k instructions \
         vs {long} over 200k"
    );
}

/// A lineup policy that, at its first access, meets each of its
/// barriers in turn. Barriers wait on a mutex and a condvar, so meeting
/// one allocates nothing.
struct Meet {
    inner: PolicyDispatch,
    barriers: Vec<Arc<Barrier>>,
}

impl Meet {
    fn access(&mut self) {
        for barrier in self.barriers.drain(..) {
            barrier.wait();
        }
    }
}

impl TlbReplacementPolicy for Meet {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        self.inner.choose_victim(acc)
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        self.access();
        self.inner.on_hit(acc, way);
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        self.access();
        self.inner.on_fill(acc, way);
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        self.inner.on_evict(set, way);
    }

    fn storage(&self) -> PolicyStorage {
        self.inner.storage()
    }
}

/// Lends prebuilt chunk views of a resident trace (lending allocates
/// nothing) and meets `hold` before lending batch `hold_at`.
struct Prebuilt<'a> {
    batches: VecDeque<TraceChunk<'a>>,
    len: usize,
    served: usize,
    hold_at: usize,
    hold: Arc<Barrier>,
}

impl TraceStream for Prebuilt<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn feed(&mut self, take: &mut dyn FnMut(&TraceChunk<'_>) -> bool) -> Result<(), StreamError> {
        loop {
            if self.served == self.hold_at {
                self.hold.wait();
            }
            self.served += 1;
            match self.batches.pop_front() {
                Some(batch) if take(&batch) => {}
                _ => return Ok(()),
            }
        }
    }
}

/// Process-wide allocation count of one pipelined `run_stream_factored`
/// call in which the front-end thread claims backends. The stream holds
/// the front end before the batch that overfills its 4-segment ring
/// until backend 0 has started its first replay — on the replay thread —
/// and backend 0 waits there until backend 1, which only the front end
/// is left to claim, starts too.
fn allocs_for_front_end_claims(config: &SimConfig, instructions: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let batches = trace.chunks(4096).collect();
    let started = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let meet = |barriers: Vec<Arc<Barrier>>| Meet {
        inner: PolicyKind::Lru.build_dispatch(config.tlb.l2, 7),
        barriers,
    };
    let policies = vec![
        meet(vec![started.clone(), release.clone()]),
        meet(vec![release]),
        meet(Vec::new()),
        meet(Vec::new()),
    ];
    let mut stream = Prebuilt { batches, len: trace.len(), served: 0, hold_at: 4, hold: started };
    let sig = ChirpConfig::default();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let results = chirp_sim::run_stream_factored(config, &sig, policies, &mut stream, 0.5)
        .expect("prebuilt batches do not fail");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(results.len(), 4);
    after - before
}

/// The claim path — the front-end thread replaying backends while its
/// ring is full — must not allocate per segment or per claim either.
#[test]
fn front_end_claims_do_not_allocate() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        // One CPU: the group replays inline and the front end never
        // claims; backend 0 would wait forever for backend 1.
        eprintln!("single CPU: the factored group replays inline; nothing to measure");
        return;
    }
    let config = SimConfig::default();
    allocs_for_front_end_claims(&config, 40_000);
    let short = allocs_for_front_end_claims(&config, 40_000);
    let long = allocs_for_front_end_claims(&config, 200_000);
    assert_eq!(
        long, short,
        "front-end claims allocate: {short} allocations over 40k instructions vs {long} over 200k"
    );
}
