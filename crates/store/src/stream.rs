//! Archive-backed trace streaming.
//!
//! [`ArchiveTraceStream`] decodes an archived `.chrp` file in bounded
//! batches through the codec's chunked path, so replaying an archived
//! trace never materialises it: peak residency is O(chunk) plus the
//! decoder's 64 KiB read window. Integrity matches the materialized
//! archive path — the file's FNV-1a checksum is accumulated as the
//! decoder reads each block into its window and verified against the
//! manifest entry before the final batch is handed out, so a consumer
//! that receives every batch has replayed a checksum-clean file. On any
//! failure (I/O, decode, checksum) callers treat the entry as corrupt and
//! regenerate, exactly like
//! [`TraceArchive::decode_file`](crate::TraceArchive::decode_file)
//! returning `None`.
//!
//! Locking discipline mirrors the materialized path: probe
//! `entry_meta`/`trace_path` under the archive lock, then open and drain
//! the stream with the lock released.

use crate::archive::EntryMeta;
use crate::hash::Fnv64;
use chirp_trace::codec::ChunkedDecoder;
use chirp_trace::stream::{StreamError, TraceStream};
use chirp_trace::PackedTrace;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// A reader adapter that checksums and counts every byte read through
/// it. The decoder reads the file through it in 64 KiB blocks, so the
/// hash is updated once per block and each byte is hashed exactly once,
/// when it enters the decoder's window. Bytes read ahead of the last
/// decoded record are already counted, and [`ArchiveTraceStream`] drains
/// the rest of the file to EOF before comparing, so the checksum covers
/// the whole file.
#[derive(Debug)]
struct HashingReader<R> {
    inner: R,
    hasher: Fnv64,
    consumed: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> HashingReader<R> {
        HashingReader { inner, hasher: Fnv64::new(), consumed: 0 }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        self.consumed += n as u64;
        Ok(n)
    }
}

/// Streams an archived trace file in bounded [`PackedTrace`] batches,
/// verifying the manifest checksum over the whole file as a side effect
/// of consumption.
pub struct ArchiveTraceStream {
    decoder: Option<ChunkedDecoder<HashingReader<File>>>,
    meta: EntryMeta,
    chunk: usize,
    len: usize,
}

impl std::fmt::Debug for ArchiveTraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArchiveTraceStream")
            .field("meta", &self.meta)
            .field("chunk", &self.chunk)
            .field("len", &self.len)
            .finish()
    }
}

impl ArchiveTraceStream {
    /// Opens the archived file at `path` for streaming against its
    /// manifest metadata. `chunk` bounds the records per batch.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be opened or its header is invalid;
    /// callers treat any error as a corrupt entry and regenerate.
    pub fn open(
        path: &Path,
        meta: EntryMeta,
        chunk: usize,
    ) -> Result<ArchiveTraceStream, StreamError> {
        let file = File::open(path)?;
        let decoder = ChunkedDecoder::new(HashingReader::new(file))?;
        let len = decoder.remaining();
        Ok(ArchiveTraceStream { decoder: Some(decoder), meta, chunk: chunk.max(1), len })
    }

    /// Drains the rest of the file through the hasher and checks length
    /// and checksum against the manifest entry.
    fn verify_checksum(&mut self) -> Result<(), StreamError> {
        let Some(decoder) = self.decoder.take() else { return Ok(()) };
        let mut reader = decoder.into_inner();
        // The record section may be followed by trailing bytes (a corrupt
        // or tampered file); they are part of the checksummed length, so
        // consume to EOF before comparing.
        std::io::copy(&mut reader, &mut std::io::sink())?;
        if reader.consumed != self.meta.bytes {
            return Err(StreamError::Corrupt(format!(
                "archived trace is {} bytes, manifest says {}",
                reader.consumed, self.meta.bytes
            )));
        }
        let checksum = reader.hasher.finish();
        if checksum != self.meta.checksum {
            return Err(StreamError::Corrupt(format!(
                "archived trace checksum {checksum:016x} != manifest {:016x}",
                self.meta.checksum
            )));
        }
        Ok(())
    }
}

impl TraceStream for ArchiveTraceStream {
    fn len(&self) -> usize {
        self.len
    }

    fn chunk_records(&self) -> usize {
        self.chunk
    }

    fn next_batch(&mut self) -> Result<Option<PackedTrace>, StreamError> {
        let Some(decoder) = self.decoder.as_mut() else { return Ok(None) };
        match decoder.next_chunk(self.chunk) {
            Ok(Some(batch)) => {
                if decoder.remaining() == 0 {
                    // Verify before handing out the last batch, so a
                    // consumer never finishes a corrupt replay cleanly.
                    self.verify_checksum()?;
                }
                Ok(Some(batch))
            }
            Ok(None) => {
                self.verify_checksum()?;
                Ok(None)
            }
            Err(e) => {
                self.decoder = None;
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::TraceArchive;
    use crate::TempDir;
    use chirp_trace::stream::collect_stream;
    use chirp_trace::suite::{build_suite, SuiteConfig};
    use std::fs;

    fn archived(root: &TempDir, len: usize) -> (TraceArchive, u64, PackedTrace) {
        let spec = build_suite(&SuiteConfig { benchmarks: 3 }).remove(1);
        let mut archive = TraceArchive::open(root.path()).unwrap();
        let (trace, _) = archive.get_or_generate_packed(&spec, len).unwrap();
        let key = TraceArchive::content_key(&spec, len);
        (archive, key, trace)
    }

    #[test]
    fn streamed_archive_matches_materialized_decode() {
        let root = TempDir::new("archive-stream-ok");
        // 6k records fit one read window; 25k (~150 KB) take several
        // refills, so records straddle window boundaries.
        for len in [6_000usize, 25_000] {
            let (archive, key, want) = archived(&root, len);
            let meta = archive.entry_meta(key).unwrap();
            if len > 20_000 {
                assert!(meta.bytes > 2 * 64 * 1024, "{} bytes", meta.bytes);
            }
            for chunk in [1usize, 497, 4096, 10_000] {
                let mut stream =
                    ArchiveTraceStream::open(&archive.trace_path(key), meta, chunk).unwrap();
                assert_eq!(stream.len(), len);
                let got = collect_stream(&mut stream).unwrap();
                assert_eq!(got.to_records(), want.to_records(), "len {len} chunk {chunk}");
            }
        }
    }

    #[test]
    fn corrupt_file_fails_before_the_stream_completes() {
        let root = TempDir::new("archive-stream-corrupt");
        let (archive, key, _) = archived(&root, 4_000);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let outcome = ArchiveTraceStream::open(&path, meta, 512)
            .and_then(|mut stream| collect_stream(&mut stream).map(|_| ()));
        assert!(outcome.is_err(), "byte flip must not stream cleanly");
    }

    #[test]
    fn truncated_file_fails() {
        let root = TempDir::new("archive-stream-trunc");
        let (archive, key, _) = archived(&root, 4_000);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let outcome = ArchiveTraceStream::open(&path, meta, 512)
            .and_then(|mut stream| collect_stream(&mut stream).map(|_| ()));
        assert!(outcome.is_err(), "truncated file must not stream cleanly");
    }

    #[test]
    fn trailing_garbage_fails_checksum() {
        let root = TempDir::new("archive-stream-trailing");
        let (archive, key, _) = archived(&root, 2_000);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        fs::write(&path, &bytes).unwrap();

        let outcome = ArchiveTraceStream::open(&path, meta, 512)
            .and_then(|mut stream| collect_stream(&mut stream).map(|_| ()));
        assert!(matches!(outcome, Err(StreamError::Corrupt(_))), "got {outcome:?}");
    }

    #[test]
    fn missing_file_is_an_open_error() {
        let root = TempDir::new("archive-stream-missing");
        let meta = EntryMeta { checksum: 0, bytes: 0 };
        assert!(ArchiveTraceStream::open(&root.path().join("nope.chrp"), meta, 64).is_err());
    }
}
