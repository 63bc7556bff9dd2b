//! Synthetic workload generators.
//!
//! Each generator models one workload family from the categories the CHiRP
//! paper evaluates (SPEC, database, crypto, scientific, web, big data, plus
//! mixed-context kernels). Generators are deterministic: the same
//! `(parameters, seed, length)` triple always yields the identical trace.
//!
//! The generators are built so that the *mechanisms* the paper identifies are
//! present in the instruction stream:
//!
//! * many PCs map onto few TLB entries (coarse 4 KB granularity), so PC-only
//!   signatures saturate (paper Observation 2);
//! * the liveness of a page is frequently a function of *calling context*
//!   (which call site invoked the shared helper that touches it), visible in
//!   branch-path history but invisible to a single PC (paper §II-E);
//! * streaming phases thrash LRU while resident hot sets want protection.

mod context_copy;
mod crypto;
mod gups;
mod interpreter;
mod pointer_chase;
mod scan_index;
mod scientific;
mod spec_loop;
mod web;

pub use context_copy::ContextCopy;
pub use crypto::CryptoStream;
pub use gups::Gups;
pub use interpreter::Interpreter;
pub use pointer_chase::PointerChase;
pub use scan_index::ScanIndex;
pub use scientific::TiledStencil;
pub use spec_loop::SpecLoops;
pub use web::WebServe;

use crate::packed::{PackedTrace, TraceChunk};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Workload category labels mirroring the paper's description of the CVP-1
/// suite ("SPEC, database, crypto, scientific, web, 'big data' and other
/// applications", §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Loop-nest compute kernels in the spirit of SPEC CPU.
    Spec,
    /// Index lookup + table scan database workloads.
    Database,
    /// Block ciphers / hashes over streaming input.
    Crypto,
    /// Tiled numeric kernels.
    Scientific,
    /// Large-code-footprint request servers.
    Web,
    /// Pointer-chasing and random-update "big data" kernels.
    BigData,
    /// Mixed-context kernels (shared helpers invoked from multiple sites).
    Mixed,
}

impl Category {
    /// All categories, in a stable order.
    pub const ALL: [Category; 7] = [
        Category::Spec,
        Category::Database,
        Category::Crypto,
        Category::Scientific,
        Category::Web,
        Category::BigData,
        Category::Mixed,
    ];

    /// Short lowercase label used in benchmark names.
    pub fn label(self) -> &'static str {
        match self {
            Category::Spec => "spec",
            Category::Database => "db",
            Category::Crypto => "crypto",
            Category::Scientific => "sci",
            Category::Web => "web",
            Category::BigData => "bigdata",
            Category::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic trace generator.
pub trait WorkloadGen {
    /// Human-readable name including the distinguishing parameters.
    fn name(&self) -> String;

    /// The workload category this generator belongs to.
    fn category(&self) -> Category;

    /// Emits records into `em` until [`Emitter::is_full`] reports true,
    /// using `seed` for all random choices. Must be deterministic in
    /// `(self, em.limit, seed)` — the emitter decides where the records
    /// go (an in-memory buffer or chunk by chunk to a stream's consumer),
    /// the generator only decides *what* they are. This is the one method a
    /// generator implements; both the materialized and the streaming
    /// trace paths are derived from it, which is what makes the two
    /// bit-identical by construction.
    fn emit_into(&self, em: &mut Emitter, seed: u64);

    /// Generates exactly `len` trace records in packed struct-of-arrays
    /// form using `seed` for all random choices. Materializes the whole
    /// trace; for bounded-memory production use
    /// [`crate::stream::GenStream`], which drives the same
    /// [`WorkloadGen::emit_into`] one chunk at a time.
    fn generate_packed(&self, len: usize, seed: u64) -> PackedTrace {
        let mut em = Emitter::new(len);
        self.emit_into(&mut em, seed);
        em.finish_packed()
    }

    /// Generates exactly `len` trace records as a flat vector. Convenience
    /// wrapper over [`WorkloadGen::generate_packed`] for callers that want
    /// slice access.
    fn generate(&self, len: usize, seed: u64) -> Vec<TraceRecord> {
        self.generate_packed(len, seed).to_records()
    }
}

/// Accumulates trace records up to a limit, packing them as they arrive.
///
/// Generators emit whole loop iterations and check [`Emitter::is_full`]
/// between them; records pushed past the limit are discarded, so the
/// finished trace holds exactly the requested length (the moral equivalent
/// of the old truncate-at-the-end, without buffering the overshoot).
///
/// An emitter built by [`Emitter::new`] buffers everything (the
/// materialized path). One built by `Emitter::feeding` (behind
/// `crate::stream::GenStream`) lends every `chunk` accepted records to a
/// consumer as one [`TraceChunk`], on the generator's own thread, then
/// reuses its columns for the next; once the consumer declines a batch
/// the emitter reads as full, so the generator returns. Which records are
/// kept, and in which order, is the same either way, so the lent batches
/// concatenate to the buffered trace.
pub struct Emitter<'t> {
    /// Accepted records not yet lent: the whole trace when buffering.
    trace: PackedTrace,
    /// The length of `trace` at which [`Emitter::push`] must lend it or,
    /// at the limit, drop the record: a chunk, or the rest of the limit
    /// if that is less.
    room: usize,
    /// Records per lent batch; `usize::MAX` when buffering.
    chunk: usize,
    /// The consumer batches are lent to; `None` when buffering.
    take: Option<&'t mut dyn FnMut(&TraceChunk<'_>) -> bool>,
    /// Records lent so far.
    lent: usize,
    limit: usize,
}

impl<'t> Emitter<'t> {
    /// Creates an emitter that stops accepting records once `limit` is hit.
    pub fn new(limit: usize) -> Self {
        let trace = PackedTrace::with_capacity(limit);
        Emitter { trace, room: limit, chunk: usize::MAX, take: None, lent: 0, limit }
    }

    /// Creates an emitter that lends every `chunk` accepted records to
    /// `take` and keeps at most one chunk resident. [`Emitter::lend`]
    /// hands over the last, partial chunk.
    pub(crate) fn feeding(
        limit: usize,
        chunk: usize,
        take: &'t mut dyn FnMut(&TraceChunk<'_>) -> bool,
    ) -> Self {
        let room = chunk.max(1).min(limit);
        let trace = PackedTrace::with_capacity(room);
        Emitter { trace, room, chunk: chunk.max(1), take: Some(take), lent: 0, limit }
    }

    /// True once at least `limit` records have been emitted (or the
    /// consumer declined a batch: nothing more can be delivered).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.limit
    }

    /// Number of records emitted so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.lent + self.trace.len()
    }

    /// True if nothing has been emitted yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one record; a no-op once the limit is reached.
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        if self.trace.len() >= self.room && !self.make_room() {
            return;
        }
        self.trace.push_parts(rec.pc, rec.kind, rec.taken, rec.effective_address, rec.target);
    }

    /// Makes room for one more record once `trace` holds `room`: lends
    /// the full chunk, unless the limit is reached. Returns whether the
    /// record is kept.
    #[inline(never)]
    fn make_room(&mut self) -> bool {
        if self.is_full() {
            return false;
        }
        self.lend();
        !self.is_full()
    }

    /// Lends the records not yet lent to the consumer, if any, and clears
    /// them; a declined batch lowers the limit to what was emitted, so
    /// the emitter reads as full. A buffering emitter keeps its records.
    pub(crate) fn lend(&mut self) {
        let Some(take) = &mut self.take else { return };
        let n = self.trace.len();
        if n > 0 && !take(&self.trace.as_chunk()) {
            self.limit = self.lent + n;
        }
        self.lent += n;
        self.trace.clear();
        self.room = self.chunk.min(self.limit - self.lent);
    }

    /// The finished packed trace, exactly `limit` records (or fewer if the
    /// generator stopped early). Only meaningful for buffered emitters.
    pub fn finish_packed(self) -> PackedTrace {
        self.trace
    }

    /// The finished trace as a flat vector.
    pub fn finish(self) -> Vec<TraceRecord> {
        self.finish_packed().to_records()
    }
}

impl std::fmt::Debug for Emitter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emitter")
            .field("emitted", &self.len())
            .field("limit", &self.limit)
            .field("chunk", &self.chunk)
            .finish()
    }
}

/// Hands out non-overlapping page-aligned code and data regions.
///
/// Code regions start at a conventional text base; data regions in a distant
/// heap area, so instruction and data pages never alias.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next_code: u64,
    next_data: u64,
    code_regions: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates a fresh layout with conventional text/heap bases.
    pub fn new() -> Self {
        AddressSpace { next_code: 0x0040_0000, next_data: 0x1000_0000_0000, code_regions: 0 }
    }

    /// Reserves `pages` pages of code and returns the base address.
    ///
    /// Bases carry a deterministic sub-page offset, the way a linker packs
    /// functions: without it every function would start at offset 0 and
    /// the PC bits \[11:4\] that branch-history predictors record would be
    /// identical across call sites. Offsets are 32-byte aligned, matching
    /// compilers' hot-loop alignment — so PC bits \[4:0\] coincide across
    /// functions while bits \[11:5\] differ (the paper's §III-A point that
    /// *which* PC bits a history folds in decides what it can see).
    pub fn code_region(&mut self, pages: u64) -> u64 {
        self.code_regions += 1;
        let offset = (self.code_regions.wrapping_mul(0x9E37_79B9) >> 9 & 0x7F) * 32;
        let base = self.next_code + offset;
        // One guard page between regions keeps regions from sharing pages
        // (the sub-page offset stays within the guard slack).
        self.next_code += (pages + 1) * PAGE_SIZE;
        base
    }

    /// Reserves `pages` pages of data and returns the base address.
    pub fn data_region(&mut self, pages: u64) -> u64 {
        let base = self.next_data;
        self.next_data += (pages + 1) * PAGE_SIZE;
        base
    }
}

/// A function placed in the code region: a base PC from which instruction
/// addresses are derived at 4-byte granularity.
#[derive(Debug, Clone, Copy)]
pub struct CodeBlock {
    base: u64,
}

impl CodeBlock {
    /// Wraps a base address (must be 4-byte aligned in practice).
    pub fn new(base: u64) -> Self {
        CodeBlock { base }
    }

    /// The entry PC.
    #[inline]
    pub fn entry(&self) -> u64 {
        self.base
    }

    /// PC of the `idx`-th 4-byte instruction slot.
    #[inline]
    pub fn pc(&self, idx: u64) -> u64 {
        self.base + idx * 4
    }
}

/// Zipfian sampler over `0..n` with exponent `s` (cumulative-table inversion).
///
/// Each sample costs one [`Xoshiro256pp::next_f64`] draw and a binary
/// search; `n` up to a few hundred thousand is fine.
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for ranks `0..n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cum.push(total);
        }
        let norm = total;
        for c in &mut cum {
            *c /= norm;
        }
        Zipf { cum }
    }

    /// Draws one rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64();
        match self.cum.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in cdf")) {
            Ok(i) => i,
            Err(i) => i.min(self.cum.len() - 1),
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True if the domain is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_truncates_to_limit() {
        let mut em = Emitter::new(3);
        for i in 0..5 {
            em.push(TraceRecord::alu(i * 4));
        }
        assert!(em.is_full());
        let t = em.finish();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn address_space_regions_do_not_overlap() {
        let mut asp = AddressSpace::new();
        let a = asp.code_region(4);
        let b = asp.code_region(4);
        assert!(b >= a + 4 * PAGE_SIZE, "code regions must not overlap");
        let d1 = asp.data_region(100);
        let d2 = asp.data_region(1);
        assert!(d2 >= d1 + 100 * PAGE_SIZE);
        assert!(d1 > b, "data region must be disjoint from code");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[500]);
        // Every sample must stay in-domain (implicitly checked by indexing).
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "counts {counts:?} not uniform");
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipf_rejects_empty_domain() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn code_block_pcs_are_sequential() {
        let f = CodeBlock::new(0x400000);
        assert_eq!(f.entry(), 0x400000);
        assert_eq!(f.pc(3), 0x40000c);
    }
}
