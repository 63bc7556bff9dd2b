//! Archive-backed trace streaming.
//!
//! [`ArchiveTraceStream`] decodes an archived `.chrp` file in bounded
//! batches through the codec's chunked path, so replaying an archived
//! trace never materialises it: peak residency is O(chunk) plus the
//! decoder's 64 KiB read window. Integrity matches the materialized
//! archive path — the decoder folds the file's FNV-1a checksum in as it
//! decodes each record, and the checksum and length of the whole file,
//! bytes past the last record included, are verified against the
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
use chirp_trace::codec::ChunkedDecoder;
use chirp_trace::stream::{StreamError, TraceStream};
use chirp_trace::PackedTrace;
use std::fs::File;
use std::path::Path;

/// Streams an archived trace file in bounded [`PackedTrace`] batches,
/// verifying the manifest checksum over the whole file as a side effect
/// of consumption.
pub struct ArchiveTraceStream {
    decoder: Option<ChunkedDecoder<File>>,
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
        let decoder = ChunkedDecoder::new(file)?;
        let len = decoder.remaining();
        Ok(ArchiveTraceStream { decoder: Some(decoder), meta, chunk: chunk.max(1), len })
    }

    /// Reads the rest of the file through the decoder's checksum and
    /// checks length and checksum against the manifest entry. Bytes past
    /// the last record (a corrupt or tampered file) count toward both.
    fn verify_checksum(&mut self) -> Result<(), StreamError> {
        let Some(decoder) = self.decoder.take() else { return Ok(()) };
        let digest = decoder.finish()?;
        if digest.bytes != self.meta.bytes {
            return Err(StreamError::Corrupt(format!(
                "archived trace is {} bytes, manifest says {}",
                digest.bytes, self.meta.bytes
            )));
        }
        let checksum = digest.checksum;
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
        archive.pack(&spec, len).unwrap();
        let key = TraceArchive::content_key(&spec, len);
        let meta = archive.entry_meta(key).unwrap();
        let trace = TraceArchive::decode_file(&archive.trace_path(key), meta).unwrap();
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

    /// Damaged copies of `bytes`: one flipped bit at the first byte, in
    /// the record count's low byte, at either side of the decoder's
    /// first 64 KiB window refill and at the last byte; one byte
    /// appended; a cut one byte into the record nearest the middle.
    fn damaged(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
        const WINDOW: usize = 64 * 1024;
        let mut out = Vec::new();
        for at in [0, 5, WINDOW - 1, WINDOW, WINDOW + 1, bytes.len() - 1] {
            let mut bad = bytes.to_vec();
            bad[at] ^= 0x01;
            out.push((format!("flip at {at}"), bad));
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        out.push(("one trailing byte".into(), longer));
        let records = chirp_trace::read_trace(bytes).unwrap();
        let middle = chirp_trace::write_trace(&records[..records.len() / 2]).len();
        out.push((format!("cut at {}", middle + 1), bytes[..middle + 1].to_vec()));
        out
    }

    #[test]
    fn every_damaged_file_fails_before_the_last_batch() {
        let root = TempDir::new("archive-stream-damage");
        // An odd count: the flip in its low byte declares one record
        // fewer, so the last real record becomes trailing bytes.
        let len = 25_001;
        let (archive, key, want) = archived(&root, len);
        let meta = archive.entry_meta(key).unwrap();
        let path = archive.trace_path(key);
        let bytes = fs::read(&path).unwrap();
        assert!(meta.bytes as usize > 2 * 64 * 1024, "{} bytes", meta.bytes);
        for (what, bad) in damaged(&bytes) {
            fs::write(&path, &bad).unwrap();
            assert_eq!(TraceArchive::decode_file(&path, meta), None, "{what}");
            let Ok(mut stream) = ArchiveTraceStream::open(&path, meta, 512) else { continue };
            let mut yielded = 0;
            let outcome = loop {
                match stream.next_batch() {
                    Ok(Some(batch)) => yielded += batch.len(),
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            assert!(outcome.is_err(), "{what}: streamed cleanly");
            assert!(yielded < len.min(stream.len()), "{what}: {yielded} records handed out");
        }
        fs::write(&path, &bytes).unwrap();
        let mut stream = ArchiveTraceStream::open(&path, meta, 512).unwrap();
        assert_eq!(collect_stream(&mut stream).unwrap().to_records(), want.to_records());
    }

    #[test]
    fn missing_file_is_an_open_error() {
        let root = TempDir::new("archive-stream-missing");
        let meta = EntryMeta { checksum: 0, bytes: 0 };
        assert!(ArchiveTraceStream::open(&root.path().join("nope.chrp"), meta, 64).is_err());
    }
}
