//! Peak-residency gauge for the streaming path.
//!
//! A live-bytes tracking global allocator wraps the system allocator and
//! records the high-water mark of outstanding heap bytes (across all
//! threads, so the driver's replay thread is counted beside the calling
//! thread, which runs the generator and the front end). The test streams a trace two orders of magnitude
//! larger than the chunk size through a one-policy group on the chunk
//! driver and asserts the peak heap growth during the run exceeds that of
//! a run ten chunks long by at most a small multiple of one chunk — i.e.
//! O(chunk), not O(trace). The driver builds its segment ring, memory
//! stage and back end inside the call, so the short run gauges those
//! fixed costs. The materialized path would retain the whole packed trace
//! (~25 bytes per record), so an accidental materialization anywhere in
//! the pipeline trips the bound immediately. Separate integration test
//! so the allocator swap owns its process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use chirp_sim::{run_stream_group, PolicyKind, SimConfig};
use chirp_trace::suite::{build_suite, SuiteConfig};
use chirp_trace::PackedTrace;

struct LiveBytesAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grow(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

/// Peak heap growth of one streamed LRU group of one over the first
/// `len` records of the suite's first benchmark.
fn gauge(len: usize, chunk: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let bench = &suite[0];
    let config = SimConfig::default();
    let mut stream = bench.stream(len, chunk);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let results = run_stream_group(&config, &[&PolicyKind::Lru], bench.seed, &mut stream).unwrap();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(results[0].instructions as usize, len - len / 2, "measured window covers half");
    peak
}

#[test]
fn streamed_run_keeps_trace_residency_proportional_to_chunk() {
    const LEN: usize = 400_000;
    const CHUNK: usize = 4_096;

    // The driver's fixed costs (segment ring, memory stage, back end) and
    // the generator's one chunk, over a run of ten chunks.
    let fixed = gauge(10 * CHUNK, CHUNK);
    let peak = gauge(LEN, CHUNK);

    let chunk_bytes = PackedTrace::estimate_bytes(CHUNK);
    let trace_bytes = PackedTrace::estimate_bytes(LEN);
    // The generator's emitter holds one chunk at a time, which it lends
    // to the front end on the same thread; 16× leaves slack for builder
    // growth doubling and per-batch scratch while staying ~6× under the
    // materialized trace size.
    let slack = chunk_bytes * 16;
    assert!(
        slack * 4 < trace_bytes,
        "test is vacuous: slack {slack} must sit well under the trace size {trace_bytes}"
    );
    let bound = fixed + slack;
    assert!(
        peak <= bound,
        "streamed peak residency {peak} bytes exceeds the ten-chunk run's {fixed} bytes plus \
         the O(chunk) slack {slack} (chunk {chunk_bytes} bytes, materialized trace would be \
         {trace_bytes} bytes)"
    );
}
