//! Streaming trace sources.
//!
//! A materialized [`PackedTrace`] is resident whole per benchmark — fine
//! for short runs, but at production lengths (1M+ instructions × hundreds
//! of suite units) the trace dominates memory. A [`TraceStream`] instead
//! lends its records to a consumer in bounded batches, on the consumer's
//! own thread ([`TraceStream::feed`]), so peak per-unit residency is
//! O(chunk) rather than O(trace):
//!
//! - [`GenStream`] runs a workload generator inline, into an
//!   [`Emitter`] that lends every chunk to the consumer as it fills and
//!   then reuses its columns; one chunk exists at a time.
//! - [`MaterializedStream`] lends an already-resident trace's own chunk
//!   views, copying nothing, so one consumer loop serves both worlds —
//!   and equivalence tests can diff them.
//! - [`SliceStream`] decodes an in-memory `CHRP` encoding (an upload the
//!   server has just received) in batches, so the bytes are never
//!   materialized as a whole trace.
//! - The archive-backed stream lives in `chirp-store` (it checks the
//!   file against the archive manifest) but speaks this trait.
//!
//! Batch boundaries carry no meaning: concatenating the batches of any
//! stream yields exactly the record sequence of the materialized trace
//! for the same (generator, seed, len). The equivalence-matrix tests pin
//! this bit-identity across every policy.

use crate::codec::{ChunkedDecodeError, ChunkedDecoder, CodecError};
use crate::gen::Emitter;
use crate::packed::{PackedTrace, PackedTraceBuilder, TraceChunk, TraceChunks};
use std::fmt;

/// Errors surfaced while feeding a [`TraceStream`].
#[derive(Debug)]
pub enum StreamError {
    /// The underlying encoded bytes are not a valid trace.
    Codec(CodecError),
    /// An I/O failure from a file-backed stream.
    Io(std::io::Error),
    /// The stream's bytes decoded but failed an integrity check
    /// (e.g. an archive checksum mismatch detected at end-of-stream).
    Corrupt(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Codec(e) => write!(f, "{e}"),
            StreamError::Io(e) => write!(f, "trace stream I/O error: {e}"),
            StreamError::Corrupt(why) => write!(f, "trace stream corrupt: {why}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        StreamError::Codec(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<ChunkedDecodeError> for StreamError {
    fn from(e: ChunkedDecodeError) -> Self {
        match e {
            ChunkedDecodeError::Codec(c) => StreamError::Codec(c),
            ChunkedDecodeError::Io(io) => StreamError::Io(io),
        }
    }
}

/// A trace lent to a consumer in bounded batches.
///
/// Contract: [`feed`](TraceStream::feed) lends the batches in order, and
/// concatenating them yields the full record sequence; batches are
/// non-empty, hold at most the chunk size the stream was built with, and
/// live only for the call to `take` that receives them. A stream is fed
/// once: feeding it again after its end lends nothing.
pub trait TraceStream {
    /// Total records the stream intends to yield. Streams may end early
    /// (a generator that stops before its limit), mirroring the
    /// materialized path where such a generator produces a short trace.
    fn len(&self) -> usize;

    /// Whether the stream intends to yield no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lends each batch, in order, to `take`, on the calling thread,
    /// until the stream ends or `take` returns `false`.
    ///
    /// # Errors
    ///
    /// Fails when the underlying source fails (decode, I/O, integrity);
    /// the batches lent before the error stand.
    fn feed(&mut self, take: &mut dyn FnMut(&TraceChunk<'_>) -> bool) -> Result<(), StreamError>;
}

/// A workload generator as a [`TraceStream`]: `feed` runs `produce` on
/// the calling thread, into an [`Emitter`] limited to `len` records that
/// lends every `chunk` of them to `take`. Generator code is identical to
/// the materialized path (`emit_into`), which is what makes streamed ≡
/// materialized hold by construction. A `take` that declines a batch
/// makes the emitter read as full, so the generator returns at its next
/// check; a generator that panics unwinds through `feed` to its caller.
pub struct GenStream<F> {
    produce: Option<F>,
    len: usize,
    chunk: usize,
}

impl<F: FnOnce(&mut Emitter<'_>)> GenStream<F> {
    /// A stream of the first `len` records `produce` emits, lent in
    /// `chunk`-record batches.
    pub fn new(len: usize, chunk: usize, produce: F) -> GenStream<F> {
        GenStream { produce: Some(produce), len, chunk: chunk.max(1) }
    }
}

impl<F: FnOnce(&mut Emitter<'_>)> TraceStream for GenStream<F> {
    fn len(&self) -> usize {
        self.len
    }

    fn feed(&mut self, take: &mut dyn FnMut(&TraceChunk<'_>) -> bool) -> Result<(), StreamError> {
        if let Some(produce) = self.produce.take() {
            let mut em = Emitter::feeding(self.len, self.chunk, take);
            produce(&mut em);
            em.lend();
        }
        Ok(())
    }
}

impl<F> fmt::Debug for GenStream<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GenStream")
            .field("len", &self.len)
            .field("chunk", &self.chunk)
            .field("fed", &self.produce.is_none())
            .finish()
    }
}

/// An already-resident trace adapted to the [`TraceStream`] interface:
/// it lends the trace's own [`PackedTrace::chunks`] views, so nothing is
/// copied. `run_policy_group` feeds resident traces through the chunk
/// driver this way.
#[derive(Debug)]
pub struct MaterializedStream<'a> {
    chunks: TraceChunks<'a>,
    len: usize,
}

impl<'a> MaterializedStream<'a> {
    /// Streams `trace` in `chunk`-record batches.
    pub fn new(trace: &'a PackedTrace, chunk: usize) -> MaterializedStream<'a> {
        MaterializedStream { chunks: trace.chunks(chunk.max(1)), len: trace.len() }
    }
}

impl TraceStream for MaterializedStream<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn feed(&mut self, take: &mut dyn FnMut(&TraceChunk<'_>) -> bool) -> Result<(), StreamError> {
        for chunk in self.chunks.by_ref() {
            if !take(&chunk) {
                break;
            }
        }
        Ok(())
    }
}

/// An in-memory `CHRP` encoding decoded in bounded batches: the
/// [`ChunkedDecoder`] over a byte slice. It accepts exactly the buffers
/// [`read_trace_packed`](crate::read_trace_packed) accepts and yields the
/// same records, but never holds more than one batch decoded. Every
/// declared record is decoded or the stream fails; bytes past the last
/// record are not decoded, as `read_trace_packed` does not decode them,
/// but [`SliceStream::finish`] hashes them with the rest.
pub struct SliceStream<'a> {
    decoder: ChunkedDecoder<&'a [u8]>,
    len: usize,
    chunk: usize,
}

impl<'a> SliceStream<'a> {
    /// Reads the header of `bytes` and streams its records in
    /// `chunk`-record batches.
    ///
    /// # Errors
    ///
    /// Fails when the header is cut short or carries the wrong magic or
    /// version.
    pub fn new(bytes: &'a [u8], chunk: usize) -> Result<SliceStream<'a>, StreamError> {
        let decoder = ChunkedDecoder::new(bytes)?;
        let len = decoder.remaining();
        Ok(SliceStream { decoder, len, chunk: chunk.max(1) })
    }

    /// The [`fnv64`](crate::hash::fnv64) of the whole slice, hashed as it
    /// was decoded; bytes of records not yet decoded are hashed without
    /// being decoded.
    pub fn finish(self) -> u64 {
        self.decoder.finish().expect("reading a slice cannot fail").checksum
    }
}

impl TraceStream for SliceStream<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn feed(&mut self, take: &mut dyn FnMut(&TraceChunk<'_>) -> bool) -> Result<(), StreamError> {
        while let Some(batch) = self.decoder.next_chunk(self.chunk)? {
            if !take(&batch.as_chunk()) {
                break;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for SliceStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SliceStream")
            .field("len", &self.len)
            .field("chunk", &self.chunk)
            .field("remaining", &self.decoder.remaining())
            .finish()
    }
}

/// Drains a stream into one resident [`PackedTrace`] — the bridge back to
/// the materialized world for tests and consumers that need whole-trace
/// access. Defeats the purpose of streaming for large traces; prefer
/// consuming batches.
///
/// # Errors
///
/// Propagates the first [`StreamError`] the stream reports.
pub fn collect_stream<S: TraceStream + ?Sized>(stream: &mut S) -> Result<PackedTrace, StreamError> {
    let mut builder = PackedTraceBuilder::with_capacity(stream.len());
    stream.feed(&mut |batch| {
        batch.records().for_each(|rec| builder.push(rec));
        true
    })?;
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ContextCopy, WorkloadGen};

    fn gen_stream(len: usize, chunk: usize) -> GenStream<impl FnOnce(&mut Emitter<'_>)> {
        let g = ContextCopy::default();
        GenStream::new(len, chunk, move |em| g.emit_into(em, 7))
    }

    /// Batches a further `feed` lends.
    fn lent(stream: &mut dyn TraceStream) -> usize {
        let mut batches = 0;
        stream
            .feed(&mut |_| {
                batches += 1;
                true
            })
            .unwrap();
        batches
    }

    #[test]
    fn gen_stream_concatenates_to_materialized_trace() {
        let want = ContextCopy::default().generate_packed(10_000, 7);
        for chunk in [1usize, 333, 4096, 20_000] {
            let mut stream = gen_stream(10_000, chunk);
            assert_eq!(stream.len(), 10_000);
            let got = collect_stream(&mut stream).unwrap();
            assert_eq!(got.to_records(), want.to_records(), "chunk {chunk}");
        }
    }

    #[test]
    fn gen_stream_batches_are_bounded_and_nonempty() {
        let mut stream = gen_stream(5_000, 512);
        let mut total = 0usize;
        stream
            .feed(&mut |batch| {
                assert!(!batch.is_empty());
                assert!(batch.len() <= 512);
                total += batch.len();
                true
            })
            .unwrap();
        assert_eq!(total, 5_000);
        // Exhausted streams lend nothing more.
        assert_eq!(lent(&mut stream), 0);
    }

    /// A sink that declines the first batch of a long stream gets `feed`
    /// back with the generator stopped: it emits less than a second
    /// batch's worth of records beyond the first.
    #[test]
    fn a_declining_sink_stops_the_generator_within_a_batch() {
        let emitted = std::cell::Cell::new(0);
        let g = ContextCopy::default();
        let mut stream = GenStream::new(1_000_000, 256, |em: &mut Emitter<'_>| {
            g.emit_into(em, 7);
            emitted.set(em.len());
        });
        let mut first = 0;
        stream
            .feed(&mut |batch| {
                first = batch.len();
                false
            })
            .unwrap();
        assert_eq!(first, 256);
        assert!(emitted.get() < 2 * 256, "{} records emitted", emitted.get());
    }

    #[test]
    fn materialized_stream_matches_source_trace() {
        let trace = ContextCopy::default().generate_packed(7_777, 3);
        for chunk in [1usize, 100, 1024, 9_999] {
            let mut stream = MaterializedStream::new(&trace, chunk);
            assert_eq!(stream.len(), trace.len());
            let got = collect_stream(&mut stream).unwrap();
            assert_eq!(got.to_records(), trace.to_records(), "chunk {chunk}");
        }
    }

    #[test]
    fn slice_stream_matches_the_whole_buffer_decode() {
        let trace = ContextCopy::default().generate_packed(30_000, 5);
        let bytes = crate::write_trace_packed(&trace);
        // Past one 64 KiB read window, so records straddle refills.
        assert!(bytes.len() > 2 * 64 * 1024, "{} bytes", bytes.len());
        for chunk in [1usize, 997, 4096, 40_000] {
            let mut stream = SliceStream::new(&bytes, chunk).unwrap();
            assert_eq!(stream.len(), trace.len());
            let got = collect_stream(&mut stream).unwrap();
            assert_eq!(got.to_records(), trace.to_records(), "chunk {chunk}");
            assert_eq!(lent(&mut stream), 0, "exhausted");
        }
    }

    #[test]
    fn slice_stream_fails_where_the_whole_buffer_decode_fails() {
        let trace = ContextCopy::default().generate_packed(30_000, 5);
        let bytes = crate::write_trace_packed(&trace);
        assert!(matches!(
            SliceStream::new(&bytes[..5], 64),
            Err(StreamError::Codec(CodecError::Truncated))
        ));
        assert!(matches!(
            SliceStream::new(b"NOPE\x01\0\0\0\0\0\0\0\0", 64),
            Err(StreamError::Codec(CodecError::BadMagic))
        ));
        // A bad kind byte well past the first read window.
        let mut bad = bytes.clone();
        let at = find_record_start(&bad, 100 * 1024);
        bad[at] = 0xEE;
        assert!(crate::read_trace_packed(&bad).is_err());
        let outcome = SliceStream::new(&bad, 4096).and_then(|mut s| collect_stream(&mut s));
        assert!(matches!(outcome, Err(StreamError::Codec(CodecError::BadKind(0xEE)))));
        // Cut short: the declared records are not all there.
        let outcome = SliceStream::new(&bytes[..bytes.len() - 3], 4096)
            .and_then(|mut s| collect_stream(&mut s));
        assert!(matches!(outcome, Err(StreamError::Codec(CodecError::Truncated))));
    }

    /// Offset of the first record that starts at or after `from`. The
    /// encoding of a prefix of the records is a prefix of the encoding
    /// (the header has a fixed size), so the offset of record `n` is the
    /// length of the first `n` records' encoding.
    fn find_record_start(bytes: &[u8], from: usize) -> usize {
        let records = crate::read_trace(bytes).unwrap();
        let offset = |n: usize| crate::write_trace(&records[..n]).len();
        let (mut lo, mut hi) = (0, records.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if offset(mid) < from {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        assert!(lo < records.len(), "trace shorter than {from} bytes");
        offset(lo)
    }

    #[test]
    fn empty_streams_yield_nothing() {
        let trace = PackedTrace::from_records(&[]);
        let mut m = MaterializedStream::new(&trace, 64);
        assert!(m.is_empty());
        assert_eq!(lent(&mut m), 0);

        let mut g = gen_stream(0, 64);
        assert!(g.is_empty());
        assert_eq!(lent(&mut g), 0);
    }
}
