//! Streaming trace sources.
//!
//! A materialized [`PackedTrace`] is resident whole per benchmark — fine
//! for short runs, but at production lengths (1M+ instructions × hundreds
//! of suite units) the trace dominates memory. A [`TraceStream`] instead yields bounded
//! [`PackedTrace`] batches on demand, so peak per-unit residency is
//! O(chunk) rather than O(trace):
//!
//! - [`GenStream`] runs a workload generator on a producer thread behind a
//!   bounded channel; at most a few chunks exist at once.
//! - [`MaterializedStream`] adapts an already-resident trace to the same
//!   interface (batches are copied views), so one consumer loop serves
//!   both worlds — and equivalence tests can diff them.
//! - [`SliceStream`] decodes an in-memory `CHRP` encoding (an upload the
//!   server has just received) in batches, so the bytes are never
//!   materialized as a whole trace.
//! - The archive-backed stream lives in `chirp-store` (it needs file and
//!   checksum plumbing) but speaks this trait.
//!
//! Batch boundaries carry no meaning: concatenating the batches of any
//! stream yields exactly the record sequence of the materialized trace
//! for the same (generator, seed, len). The equivalence-matrix tests pin
//! this bit-identity across every policy.

use crate::codec::{ChunkedDecodeError, ChunkedDecoder, CodecError};
use crate::gen::Emitter;
use crate::packed::{PackedTrace, PackedTraceBuilder, TraceChunks};
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

/// Chunks a producer keeps in flight beyond the one the consumer holds:
/// the channel buffers two and the producer fills a third, so peak
/// residency per streamed unit is ~4 chunks regardless of trace length.
pub const STREAM_PIPELINE_CHUNKS: usize = 2;

/// Errors surfaced while pulling batches from a [`TraceStream`].
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

/// A trace delivered as bounded [`PackedTrace`] batches.
///
/// Contract: concatenating every `Ok(Some(batch))` in order yields the
/// full record sequence; batches are non-empty and hold at most
/// [`chunk_records`](TraceStream::chunk_records) records; after the first
/// `Ok(None)` or `Err`, the stream is exhausted.
pub trait TraceStream {
    /// Total records the stream intends to yield. Streams may end early
    /// (a generator that stops before its limit), mirroring the
    /// materialized path where such a generator produces a short trace.
    fn len(&self) -> usize;

    /// Whether the stream intends to yield no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on records per batch.
    fn chunk_records(&self) -> usize;

    /// Pulls the next batch; `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Fails when the underlying source fails (decode, I/O, integrity);
    /// the stream must not be polled again after an error.
    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError>;
}

impl<T: TraceStream + ?Sized> TraceStream for Box<T> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn chunk_records(&self) -> usize {
        (**self).chunk_records()
    }

    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
        (**self).next_batch()
    }
}

/// A workload generator running on a producer thread behind a bounded
/// channel. The generator pushes into a streaming [`Emitter`] that flushes
/// a [`PackedTrace`] every `chunk` records; the channel holds
/// [`STREAM_PIPELINE_CHUNKS`] batches, so the producer stalls instead of
/// buffering an unbounded backlog.
///
/// Dropping the stream mid-trace is clean: the channel disconnects, the
/// emitter reports itself full, the generator returns, and `Drop` joins
/// the thread.
pub struct GenStream {
    rx: Option<Receiver<PackedTrace>>,
    join: Option<JoinHandle<()>>,
    len: usize,
    chunk: usize,
    yielded: usize,
}

impl GenStream {
    /// Spawns `produce` on a named producer thread. `produce` receives a
    /// streaming emitter limited to `len` records and flushing every
    /// `chunk` — generator code is identical to the materialized path
    /// (`emit_into`), which is what makes streamed ≡ materialized hold by
    /// construction.
    pub fn spawn<F>(len: usize, chunk: usize, produce: F) -> GenStream
    where
        F: FnOnce(&mut Emitter) + Send + 'static,
    {
        let chunk = chunk.max(1);
        let (tx, rx) = sync_channel(STREAM_PIPELINE_CHUNKS);
        let join = std::thread::Builder::new()
            .name("chirp-genstream".into())
            .spawn(move || {
                let mut em = Emitter::streaming(len, chunk, tx);
                produce(&mut em);
                em.finish_stream();
            })
            .expect("spawn trace producer thread");
        GenStream { rx: Some(rx), join: Some(join), len, chunk, yielded: 0 }
    }

    fn shutdown(&mut self) {
        // Disconnect first so a mid-trace producer unblocks and exits.
        drop(self.rx.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl TraceStream for GenStream {
    fn len(&self) -> usize {
        self.len
    }

    fn chunk_records(&self) -> usize {
        self.chunk
    }

    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
        let Some(rx) = self.rx.as_ref() else { return Ok(None) };
        match rx.recv() {
            Ok(batch) => {
                self.yielded += batch.len();
                if self.yielded >= self.len {
                    self.shutdown();
                }
                Ok(Some(batch))
            }
            // Producer closed early: the generator emitted fewer records
            // than its limit — a short trace, same as the materialized
            // path would produce. End of stream, not an error.
            Err(_) => {
                self.shutdown();
                Ok(None)
            }
        }
    }
}

impl Drop for GenStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for GenStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GenStream")
            .field("len", &self.len)
            .field("chunk", &self.chunk)
            .field("yielded", &self.yielded)
            .finish()
    }
}

/// An already-resident trace adapted to the [`TraceStream`] interface.
/// Batches are copies (the trait hands out owned [`PackedTrace`]s), so
/// this is for equivalence testing and for consumers that only speak
/// streams — hot paths with a resident trace should walk its
/// [`PackedTrace::chunks`] directly.
#[derive(Debug)]
pub struct MaterializedStream<'a> {
    chunks: TraceChunks<'a>,
    len: usize,
    chunk: usize,
}

impl<'a> MaterializedStream<'a> {
    /// Streams `trace` in `chunk`-record batches.
    pub fn new(trace: &'a PackedTrace, chunk: usize) -> MaterializedStream<'a> {
        let chunk = chunk.max(1);
        MaterializedStream { chunks: trace.chunks(chunk), len: trace.len(), chunk }
    }
}

impl TraceStream for MaterializedStream<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn chunk_records(&self) -> usize {
        self.chunk
    }

    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
        match self.chunks.next() {
            Some(view) => {
                let mut builder = PackedTraceBuilder::with_capacity(view.len());
                for rec in view.records() {
                    builder.push(rec);
                }
                Ok(Some(builder.finish()))
            }
            None => Ok(None),
        }
    }
}

/// An in-memory `CHRP` encoding decoded in bounded batches: the
/// [`ChunkedDecoder`] over a byte slice. It accepts exactly the buffers
/// [`read_trace_packed`](crate::read_trace_packed) accepts and yields the
/// same records, but never holds more than one batch decoded. Every
/// declared record is decoded or the stream fails; bytes past the last
/// record are ignored, as `read_trace_packed` ignores them.
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
}

impl TraceStream for SliceStream<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn chunk_records(&self) -> usize {
        self.chunk
    }

    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
        Ok(self.decoder.next_chunk(self.chunk)?)
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
pub fn collect_stream<S: TraceStream>(stream: &mut S) -> Result<PackedTrace, StreamError> {
    let mut builder = PackedTraceBuilder::with_capacity(stream.len());
    while let Some(batch) = stream.next_batch()? {
        for rec in batch.iter() {
            builder.push(rec);
        }
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ContextCopy, WorkloadGen};

    fn gen_stream(len: usize, chunk: usize) -> GenStream {
        let g = ContextCopy::default();
        GenStream::spawn(len, chunk, move |em| g.emit_into(em, 7))
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
        while let Some(batch) = stream.next_batch().unwrap() {
            assert!(!batch.is_empty());
            assert!(batch.len() <= 512);
            total += batch.len();
        }
        assert_eq!(total, 5_000);
        // Exhausted streams keep answering None.
        assert!(stream.next_batch().unwrap().is_none());
    }

    #[test]
    fn dropping_a_gen_stream_mid_trace_does_not_hang() {
        let mut stream = gen_stream(1_000_000, 256);
        let first = stream.next_batch().unwrap().expect("first batch");
        assert_eq!(first.len(), 256);
        drop(stream); // joins the producer; must return promptly
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
            assert!(stream.next_batch().unwrap().is_none(), "exhausted");
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
        assert!(m.next_batch().unwrap().is_none());

        let mut g = gen_stream(0, 64);
        assert!(g.is_empty());
        assert!(g.next_batch().unwrap().is_none());
    }
}
