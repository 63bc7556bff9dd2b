//! Instruction trace model and synthetic workload generation for the CHiRP
//! reproduction.
//!
//! The CHiRP paper ([MICRO 2020]) evaluates TLB replacement policies on 870
//! proprietary traces released for the Championship Value Prediction
//! competition (CVP-1). Those traces are not redistributable, so this crate
//! provides the closest synthetic equivalent: deterministic, seeded workload
//! generators that reproduce the *statistical regimes* the predictor cares
//! about — page-level reuse/stream mixes selected by calling context,
//! zipfian index lookups, large instruction footprints, pointer chasing and
//! tiled numeric kernels — across the same workload categories the paper
//! names (SPEC, database, crypto, scientific, web, big data).
//!
//! # Quick start
//!
//! ```
//! use chirp_trace::gen::{ContextCopy, WorkloadGen};
//!
//! let workload = ContextCopy::default();
//! let trace = workload.generate(10_000, 42);
//! assert_eq!(trace.len(), 10_000);
//! // Traces are deterministic for a given (spec, seed) pair.
//! assert_eq!(trace, workload.generate(10_000, 42));
//! ```
//!
//! [MICRO 2020]: https://doi.org/10.1109/MICRO50266.2020.00031

pub mod codec;
pub mod gen;
pub mod hash;
pub mod packed;
pub mod record;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod suite;

pub use codec::{
    peek_record_count, read_trace, read_trace_hashed, read_trace_packed, write_trace,
    write_trace_hashed, write_trace_packed, ByteDigest, ChunkedDecodeError, ChunkedDecoder,
    CodecError,
};
pub use gen::Category;
pub use hash::{fnv64, Fnv64};
pub use packed::{PackedTrace, PackedTraceBuilder, TraceChunk, TraceChunks};
pub use record::{BranchClass, InstrKind, TraceRecord};
pub use stats::TraceStats;
pub use stream::{
    collect_stream, GenStream, MaterializedStream, SliceStream, StreamError, TraceStream,
};
pub use suite::{workload_family, BenchmarkSpec, SuiteConfig, GEN_CODE_VERSION, ZIPFIAN_FAMILIES};

/// Number of bytes covered by one page (the paper studies the standard 4 KB
/// page size exclusively; see §V of the paper).
pub const PAGE_SIZE: u64 = 4096;

/// Number of low-order address bits covered by a page.
pub const PAGE_SHIFT: u32 = 12;

/// Extracts the virtual page number of a virtual address.
///
/// ```
/// assert_eq!(chirp_trace::vpn(0x1234_5678), 0x1234_5678 >> 12);
/// ```
#[inline]
pub fn vpn(va: u64) -> u64 {
    va >> PAGE_SHIFT
}
