//! Struct-of-arrays trace storage.
//!
//! A [`TraceRecord`] is 40 bytes with padding, but most of those bytes are
//! zero for most records: only loads/stores carry an effective address and
//! only branches carry a target. [`PackedTrace`] stores each field in its
//! own stream — a dense `u64` PC array, a `u8` kind array, a one-bit-per-
//! record `taken` bitset, and side tables holding effective addresses and
//! targets *only* for the records whose kind defines them. For the
//! workload mixes the suite generates (~25–35 % memory, ~15–25 % branch
//! records) this cuts resident trace memory by roughly two thirds and
//! keeps the simulator's replay loop walking small, contiguous arrays.
//!
//! The packing is lossless for canonical records — records whose
//! `effective_address` is zero unless the kind is a memory access and
//! whose `target` is zero unless the kind is a branch, which is exactly
//! the invariant [`TraceRecord`] documents and the on-disk codec already
//! relies on. Non-canonical field values are dropped, the same way
//! [`crate::write_trace`] drops them.

use crate::record::{InstrKind, TraceRecord};

/// Struct-of-arrays storage for an instruction trace.
///
/// Build one with [`PackedTraceBuilder`] or [`PackedTrace::from_records`];
/// read it back through [`PackedTrace::iter`], which yields the identical
/// [`TraceRecord`] sequence the trace was built from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedTrace {
    /// Instruction virtual address per record.
    pcs: Vec<u64>,
    /// `InstrKind` discriminant per record.
    kinds: Vec<u8>,
    /// One bit per record: the `taken` flag, 64 records per word.
    taken: Vec<u64>,
    /// Effective addresses, only for records whose kind is a memory access,
    /// in record order.
    eas: Vec<u64>,
    /// Branch targets, only for records whose kind is a branch, in record
    /// order.
    targets: Vec<u64>,
}

impl PackedTrace {
    /// Packs a flat record slice. Inverse of [`PackedTrace::to_records`]
    /// for canonical records (see the module docs).
    pub fn from_records(records: &[TraceRecord]) -> PackedTrace {
        let mut builder = PackedTraceBuilder::with_capacity(records.len());
        for rec in records {
            builder.push(*rec);
        }
        builder.finish()
    }

    /// An empty trace with its per-record columns sized for `len`
    /// records. The side tables grow on demand unless
    /// [`PackedTrace::reserve_side_tables`] sizes them.
    pub(crate) fn with_capacity(len: usize) -> PackedTrace {
        PackedTrace {
            pcs: Vec::with_capacity(len),
            kinds: Vec::with_capacity(len),
            taken: Vec::with_capacity(len.div_ceil(64)),
            eas: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Reserves the side tables for `len` more records, as though every
    /// record were a memory access and a branch: the whole-buffer
    /// decode's bound, so neither table grows by doubling over a whole
    /// trace. Capacity a kind mix leaves unused is never written.
    pub(crate) fn reserve_side_tables(&mut self, len: usize) {
        self.eas.reserve(len);
        self.targets.reserve(len);
    }

    /// Appends one record from its parts: `ea` is kept only for a memory
    /// kind and `target` only for a branch kind. The one writer of the
    /// columns, for the builder and the codec's decoder alike.
    #[inline]
    pub(crate) fn push_parts(
        &mut self,
        pc: u64,
        kind: InstrKind,
        taken: bool,
        ea: u64,
        target: u64,
    ) {
        let idx = self.pcs.len();
        self.pcs.push(pc);
        self.kinds.push(kind as u8);
        if idx.is_multiple_of(64) {
            self.taken.push(0);
        }
        if taken {
            *self.taken.last_mut().expect("word pushed above") |= 1 << (idx % 64);
        }
        if kind.is_memory() {
            self.eas.push(ea);
        }
        if kind.is_branch() {
            self.targets.push(target);
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when the trace holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Iterates the trace, materialising one [`TraceRecord`] per step.
    pub fn iter(&self) -> PackedIter<'_> {
        PackedIter { trace: self, idx: 0, ea: 0, target: 0 }
    }

    /// Iterates the trace as columnar [`TraceChunk`]s of at most
    /// `chunk_size` records each. The chunks partition the trace in order:
    /// concatenating the record sequence of every chunk reproduces
    /// [`Self::iter`] exactly (tail chunk included; an empty trace yields
    /// no chunks). Consumers stream the column slices directly instead of
    /// materialising a [`TraceRecord`] per step.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn chunks(&self, chunk_size: usize) -> TraceChunks<'_> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        TraceChunks { trace: self, chunk_size, idx: 0, ea: 0, target: 0 }
    }

    /// The whole trace as one [`TraceChunk`].
    pub fn as_chunk(&self) -> TraceChunk<'_> {
        TraceChunk {
            base: 0,
            pcs: &self.pcs,
            kinds: &self.kinds,
            taken: &self.taken,
            eas: &self.eas,
            targets: &self.targets,
        }
    }

    /// Removes every record, keeping the columns' capacity.
    pub(crate) fn clear(&mut self) {
        self.pcs.clear();
        self.kinds.clear();
        self.taken.clear();
        self.eas.clear();
        self.targets.clear();
    }

    /// Unpacks into a flat record vector.
    pub fn to_records(&self) -> Vec<TraceRecord> {
        self.iter().collect()
    }

    /// Bytes of heap payload this trace keeps resident — the quantity the
    /// suite runner's memory budget accounts in.
    pub fn resident_bytes(&self) -> u64 {
        (self.pcs.len() * 8
            + self.kinds.len()
            + self.taken.len() * 8
            + self.eas.len() * 8
            + self.targets.len() * 8) as u64
    }

    /// Conservative upper bound on [`Self::resident_bytes`] for a trace of
    /// `len` records, assuming every record carries both side-table
    /// entries. Used for admission control before a trace exists.
    pub fn estimate_bytes(len: usize) -> u64 {
        (len * (8 + 1 + 8 + 8) + len.div_ceil(64) * 8) as u64
    }

    #[inline]
    fn taken_bit(&self, idx: usize) -> bool {
        self.taken[idx / 64] >> (idx % 64) & 1 != 0
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = TraceRecord;
    type IntoIter = PackedIter<'a>;

    fn into_iter(self) -> PackedIter<'a> {
        self.iter()
    }
}

/// Incrementally builds a [`PackedTrace`] one record at a time; the
/// generators' [`Emitter`] (see [`crate::gen`]) feed one of these. The
/// codec's decoder appends decoded parts without building a record.
///
/// [`Emitter`]: crate::gen::Emitter
#[derive(Debug, Default)]
pub struct PackedTraceBuilder {
    trace: PackedTrace,
}

impl PackedTraceBuilder {
    /// An empty builder.
    pub fn new() -> PackedTraceBuilder {
        PackedTraceBuilder::default()
    }

    /// An empty builder with capacity reserved for `len` records.
    pub fn with_capacity(len: usize) -> PackedTraceBuilder {
        PackedTraceBuilder { trace: PackedTrace::with_capacity(len) }
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        self.trace.push_parts(rec.pc, rec.kind, rec.taken, rec.effective_address, rec.target);
    }

    /// Records pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// True when nothing has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finalises the trace.
    pub fn finish(self) -> PackedTrace {
        self.trace
    }
}

/// Iterator over a [`PackedTrace`], reassembling records from the streams.
#[derive(Debug, Clone)]
pub struct PackedIter<'a> {
    trace: &'a PackedTrace,
    idx: usize,
    ea: usize,
    target: usize,
}

impl Iterator for PackedIter<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let idx = self.idx;
        if idx >= self.trace.len() {
            return None;
        }
        self.idx += 1;
        let kind = InstrKind::from_u8(self.trace.kinds[idx])
            .expect("builder stores only valid kind discriminants");
        let effective_address = if kind.is_memory() {
            let ea = self.trace.eas[self.ea];
            self.ea += 1;
            ea
        } else {
            0
        };
        let target = if kind.is_branch() {
            let t = self.trace.targets[self.target];
            self.target += 1;
            t
        } else {
            0
        };
        Some(TraceRecord {
            pc: self.trace.pcs[idx],
            kind,
            effective_address,
            target,
            taken: self.trace.taken_bit(idx),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.idx;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

/// One columnar window of a [`PackedTrace`]: struct-of-arrays slices over
/// a contiguous run of records, produced by [`PackedTrace::chunks`].
///
/// `pcs` and `kinds` have one element per record. `eas` and `targets`
/// hold side-table entries for exactly the memory / branch records of this
/// chunk, in record order — a consumer walking `kinds` advances its own
/// cursor into each. `taken(i)` reads record `i`'s taken bit (defined for
/// every record, exactly as [`PackedIter`] yields it). The shared front
/// end in `chirp-sim` steps straight over these columns, so a record is
/// never reassembled on the simulation's hot path.
#[derive(Debug, Clone, Copy)]
pub struct TraceChunk<'a> {
    /// Absolute index of the chunk's first record in the source trace
    /// (addresses the shared taken bitset).
    base: usize,
    pcs: &'a [u64],
    kinds: &'a [u8],
    /// The whole trace's taken bitset words, indexed by absolute record
    /// index.
    taken: &'a [u64],
    eas: &'a [u64],
    targets: &'a [u64],
}

impl<'a> TraceChunk<'a> {
    /// Number of records in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when the chunk holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Per-record instruction addresses.
    #[inline]
    pub fn pcs(&self) -> &'a [u64] {
        self.pcs
    }

    /// Per-record [`InstrKind`] discriminants.
    #[inline]
    pub fn kinds(&self) -> &'a [u8] {
        self.kinds
    }

    /// Effective addresses of this chunk's memory records, in order.
    #[inline]
    pub fn eas(&self) -> &'a [u64] {
        self.eas
    }

    /// Targets of this chunk's branch records, in order.
    #[inline]
    pub fn targets(&self) -> &'a [u64] {
        self.targets
    }

    /// The taken bit of record `i` (chunk-relative).
    #[inline]
    pub fn taken(&self, i: usize) -> bool {
        debug_assert!(i < self.len());
        let idx = self.base + i;
        self.taken[idx / 64] >> (idx % 64) & 1 != 0
    }

    /// Splits the chunk into the first `k` records and the rest, keeping
    /// both halves' side tables consistent. Used by the simulator to open
    /// the measured window when the warmup boundary falls inside a chunk.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.len()`.
    pub fn split_at(&self, k: usize) -> (TraceChunk<'a>, TraceChunk<'a>) {
        let (mem, branch) = count_kinds(&self.kinds[..k]);
        let head = TraceChunk {
            base: self.base,
            pcs: &self.pcs[..k],
            kinds: &self.kinds[..k],
            taken: self.taken,
            eas: &self.eas[..mem],
            targets: &self.targets[..branch],
        };
        let tail = TraceChunk {
            base: self.base + k,
            pcs: &self.pcs[k..],
            kinds: &self.kinds[k..],
            taken: self.taken,
            eas: &self.eas[mem..],
            targets: &self.targets[branch..],
        };
        (head, tail)
    }

    /// Iterates the chunk's records, materialising each from the columns —
    /// the reference semantics the columnar consumers must match.
    pub fn records(&self) -> ChunkRecords<'a> {
        ChunkRecords { chunk: *self, idx: 0, ea: 0, target: 0 }
    }
}

/// Iterator over the [`TraceChunk`]s of a trace; see
/// [`PackedTrace::chunks`].
#[derive(Debug, Clone)]
pub struct TraceChunks<'a> {
    trace: &'a PackedTrace,
    chunk_size: usize,
    idx: usize,
    ea: usize,
    target: usize,
}

impl<'a> Iterator for TraceChunks<'a> {
    type Item = TraceChunk<'a>;

    fn next(&mut self) -> Option<TraceChunk<'a>> {
        let start = self.idx;
        if start >= self.trace.len() {
            return None;
        }
        let end = (start + self.chunk_size).min(self.trace.len());
        let (mem, branch) = count_kinds(&self.trace.kinds[start..end]);
        let chunk = TraceChunk {
            base: start,
            pcs: &self.trace.pcs[start..end],
            kinds: &self.trace.kinds[start..end],
            taken: &self.trace.taken,
            eas: &self.trace.eas[self.ea..self.ea + mem],
            targets: &self.trace.targets[self.target..self.target + branch],
        };
        self.idx = end;
        self.ea += mem;
        self.target += branch;
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.trace.len() - self.idx).div_ceil(self.chunk_size);
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceChunks<'_> {}

/// Records that carry a side-table entry in `kinds`: (memory, branch).
#[inline]
fn count_kinds(kinds: &[u8]) -> (usize, usize) {
    let mut mem = 0;
    let mut branch = 0;
    for &k in kinds {
        let kind = InstrKind::from_u8(k).expect("builder stores only valid kind discriminants");
        mem += usize::from(kind.is_memory());
        branch += usize::from(kind.is_branch());
    }
    (mem, branch)
}

/// Iterator over one chunk's records; see [`TraceChunk::records`].
#[derive(Debug, Clone)]
pub struct ChunkRecords<'a> {
    chunk: TraceChunk<'a>,
    idx: usize,
    ea: usize,
    target: usize,
}

impl Iterator for ChunkRecords<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let idx = self.idx;
        if idx >= self.chunk.len() {
            return None;
        }
        self.idx += 1;
        let kind = InstrKind::from_u8(self.chunk.kinds[idx])
            .expect("builder stores only valid kind discriminants");
        let effective_address = if kind.is_memory() {
            let ea = self.chunk.eas[self.ea];
            self.ea += 1;
            ea
        } else {
            0
        };
        let target = if kind.is_branch() {
            let t = self.chunk.targets[self.target];
            self.target += 1;
            t
        } else {
            0
        };
        Some(TraceRecord {
            pc: self.chunk.pcs[idx],
            kind,
            effective_address,
            target,
            taken: self.chunk.taken(idx),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.chunk.len() - self.idx;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ChunkRecords<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    fn mixed_trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::store(0x400008, 0x1_0000_0000),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::cond_branch(0x40000c, 0x400010, false),
            TraceRecord::call(0x400010, 0x500000),
            TraceRecord::ret(0x500040, 0x400014),
            TraceRecord::indirect_jump(0x400014, 0x600000),
        ]
    }

    #[test]
    fn roundtrips_mixed_records() {
        let trace = mixed_trace();
        let packed = PackedTrace::from_records(&trace);
        assert_eq!(packed.len(), trace.len());
        assert_eq!(packed.to_records(), trace);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let packed = PackedTrace::from_records(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.iter().count(), 0);
        assert_eq!(packed.resident_bytes(), 0);
    }

    #[test]
    fn taken_bits_survive_across_word_boundaries() {
        // 200 records straddle three bitset words; alternate taken flags.
        let trace: Vec<TraceRecord> = (0..200)
            .map(|i| TraceRecord::cond_branch(0x400000 + i * 4, 0x400000, i % 3 == 0))
            .collect();
        assert_eq!(PackedTrace::from_records(&trace).to_records(), trace);
    }

    #[test]
    fn resident_bytes_beat_flat_storage_by_half() {
        // A representative mix: ~60 % ALU, ~25 % memory, ~15 % branches.
        let trace: Vec<TraceRecord> = (0..10_000u64)
            .map(|i| match i % 20 {
                0..=11 => TraceRecord::alu(0x400000 + i * 4),
                12..=16 => TraceRecord::load(0x400000 + i * 4, 0x7000_0000 + i * 8),
                _ => TraceRecord::cond_branch(0x400000 + i * 4, 0x400000, i % 2 == 0),
            })
            .collect();
        let packed = PackedTrace::from_records(&trace);
        let flat = (trace.len() * size_of::<TraceRecord>()) as u64;
        assert!(
            packed.resident_bytes() * 2 <= flat,
            "packed {} bytes vs flat {} bytes: must save at least half",
            packed.resident_bytes(),
            flat
        );
    }

    #[test]
    fn estimate_bounds_actual_usage() {
        let trace = mixed_trace();
        let packed = PackedTrace::from_records(&trace);
        assert!(packed.resident_bytes() <= PackedTrace::estimate_bytes(trace.len()));
        assert_eq!(PackedTrace::estimate_bytes(0), 0);
    }

    #[test]
    fn iterator_is_exact_size() {
        let packed = PackedTrace::from_records(&mixed_trace());
        let mut it = packed.iter();
        assert_eq!(it.len(), 8);
        it.next();
        assert_eq!(it.len(), 7);
    }

    #[test]
    fn chunks_partition_with_tail() {
        let trace = mixed_trace(); // 8 records
        let packed = PackedTrace::from_records(&trace);
        let chunks: Vec<_> = packed.chunks(3).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(|c| c.len()).collect::<Vec<_>>(), vec![3, 3, 2]);
        let rebuilt: Vec<TraceRecord> = chunks.iter().flat_map(|c| c.records()).collect();
        assert_eq!(rebuilt, trace);
    }

    #[test]
    fn chunks_of_empty_trace_yield_nothing() {
        let packed = PackedTrace::from_records(&[]);
        assert_eq!(packed.chunks(16).count(), 0);
    }

    #[test]
    fn chunk_split_at_keeps_side_tables_consistent() {
        let trace = mixed_trace();
        let packed = PackedTrace::from_records(&trace);
        let chunk = packed.chunks(trace.len()).next().expect("one chunk");
        for k in 0..=trace.len() {
            let (head, tail) = chunk.split_at(k);
            assert_eq!(head.len(), k);
            assert_eq!(tail.len(), trace.len() - k);
            let rebuilt: Vec<TraceRecord> = head.records().chain(tail.records()).collect();
            assert_eq!(rebuilt, trace, "split at {k} must not lose or shift records");
        }
    }

    /// Rebuilds records from a chunk's columns the way the front end in
    /// `chirp-sim` walks them: `pcs`, `kinds` and `taken(i)` per record,
    /// one cursor of its own into each side table, in bursts of `burst`
    /// records.
    fn walk_columns(chunk: &TraceChunk<'_>, burst: usize, out: &mut Vec<TraceRecord>) {
        let (mut ea, mut target) = (0, 0);
        let mut start = 0;
        while start < chunk.len() {
            let end = (start + burst).min(chunk.len());
            for i in start..end {
                let kind = InstrKind::from_u8(chunk.kinds()[i]).expect("valid kind");
                let mut rec = TraceRecord::alu(chunk.pcs()[i]);
                rec.kind = kind;
                rec.taken = chunk.taken(i);
                if kind.is_memory() {
                    rec.effective_address = chunk.eas()[ea];
                    ea += 1;
                }
                if kind.is_branch() {
                    rec.target = chunk.targets()[target];
                    target += 1;
                }
                out.push(rec);
            }
            start = end;
        }
        assert_eq!((ea, target), (chunk.eas().len(), chunk.targets().len()));
    }

    #[test]
    fn column_walk_matches_record_iteration() {
        let trace = mixed_trace();
        let packed = PackedTrace::from_records(&trace);
        let chunk = packed.chunks(trace.len()).next().expect("one chunk");
        for burst in 1..=trace.len() + 1 {
            let mut rebuilt = Vec::new();
            walk_columns(&chunk, burst, &mut rebuilt);
            assert_eq!(rebuilt, trace, "burst {burst} must reproduce the chunk");
        }
    }

    #[test]
    fn column_walk_survives_warmup_split_halves() {
        let trace = mixed_trace();
        let packed = PackedTrace::from_records(&trace);
        let chunk = packed.chunks(trace.len()).next().expect("one chunk");
        for k in 0..=trace.len() {
            let (head, tail) = chunk.split_at(k);
            let mut rebuilt = Vec::new();
            for part in [head, tail] {
                walk_columns(&part, 3, &mut rebuilt);
            }
            assert_eq!(rebuilt, trace, "column walk over split at {k} must not shift side tables");
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_rejected() {
        let _ = PackedTrace::from_records(&mixed_trace()).chunks(0);
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Canonical records: side-table fields zero unless the kind
        /// defines them — the invariant `TraceRecord` documents and the
        /// codec shares.
        fn arb_record() -> impl Strategy<Value = TraceRecord> {
            (0usize..InstrKind::ALL.len(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>())
                .prop_map(|(k, pc, ea, target, taken)| {
                    let kind = InstrKind::ALL[k];
                    TraceRecord {
                        pc,
                        kind,
                        effective_address: if kind.is_memory() { ea } else { 0 },
                        target: if kind.is_branch() { target } else { 0 },
                        taken,
                    }
                })
        }

        proptest! {
            #[test]
            fn pack_iterate_roundtrips_exactly(trace in vec(arb_record(), 0..300usize)) {
                let packed = PackedTrace::from_records(&trace);
                prop_assert_eq!(packed.len(), trace.len());
                prop_assert_eq!(packed.to_records(), trace);
            }

            #[test]
            fn packed_never_exceeds_estimate(trace in vec(arb_record(), 0..300usize)) {
                let packed = PackedTrace::from_records(&trace);
                prop_assert!(packed.resident_bytes() <= PackedTrace::estimate_bytes(trace.len()));
            }

            /// The columnar-path equivalence satellite: chunked iteration
            /// (any chunk size, tail chunks, empty traces) yields the
            /// identical record sequence as the per-record iterator.
            #[test]
            fn chunked_iteration_matches_per_record_path(
                trace in vec(arb_record(), 0..300usize),
                chunk_size in 1usize..80,
            ) {
                let packed = PackedTrace::from_records(&trace);
                let per_record: Vec<TraceRecord> = packed.iter().collect();
                let chunked: Vec<TraceRecord> =
                    packed.chunks(chunk_size).flat_map(|c| c.records()).collect();
                prop_assert_eq!(&chunked, &per_record);
                prop_assert_eq!(&chunked, &trace);
                // The chunks partition: lengths sum to the trace length and
                // every chunk except possibly the last is full.
                let lens: Vec<usize> = packed.chunks(chunk_size).map(|c| c.len()).collect();
                prop_assert_eq!(lens.iter().sum::<usize>(), trace.len());
                for (i, &l) in lens.iter().enumerate() {
                    if i + 1 < lens.len() {
                        prop_assert_eq!(l, chunk_size);
                    } else {
                        prop_assert!(l > 0 && l <= chunk_size);
                    }
                }
            }

            /// Walking the columns in bursts of any size over any chunking
            /// yields the identical record sequence — the contract the
            /// front end's column walk rests on, however its chunks split.
            #[test]
            fn column_walk_matches_per_record_path(
                trace in vec(arb_record(), 0..300usize),
                chunk_size in 1usize..80,
                burst in 1usize..48,
            ) {
                let packed = PackedTrace::from_records(&trace);
                let mut rebuilt = Vec::new();
                for chunk in packed.chunks(chunk_size) {
                    walk_columns(&chunk, burst, &mut rebuilt);
                }
                prop_assert_eq!(rebuilt, trace);
            }

            /// Splitting any chunk at any point preserves the sequence —
            /// the warmup-boundary case the simulator relies on.
            #[test]
            fn chunk_split_preserves_sequence(
                trace in vec(arb_record(), 1..200usize),
                split in 0usize..200,
            ) {
                let packed = PackedTrace::from_records(&trace);
                let chunk = packed.chunks(trace.len()).next().expect("non-empty");
                let k = split % (trace.len() + 1);
                let (head, tail) = chunk.split_at(k);
                let rebuilt: Vec<TraceRecord> =
                    head.records().chain(tail.records()).collect();
                prop_assert_eq!(rebuilt, trace);
            }
        }
    }
}
