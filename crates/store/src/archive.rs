//! Content-addressed trace archive.
//!
//! Materialises benchmark traces to disk once, in the `CHRP` codec, keyed
//! by a content hash of everything that determines the trace bytes: the
//! spec name, the full generator parameter set, the seed, the instruction
//! count and the codec version. Layout under the store root:
//!
//! ```text
//! <root>/traces/<key>.chrp        one trace per content key
//! <root>/traces/MANIFEST.jsonl    append-only: one JSON line per file
//! ```
//!
//! Writes are atomic (tmp file + rename in the same directory), every file
//! carries an FNV-1a checksum in the manifest, and corruption — missing
//! file, bad checksum, undecodable bytes — is never fatal: the trace is
//! regenerated from its spec and the archive entry is rewritten.

use crate::hash::{fnv64, hex16, Fnv64};
use crate::json::JsonObject;
use crate::StoreError;
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{read_trace_hashed, write_trace_hashed, PackedTrace};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version of the archive keying/layout scheme; bumping it invalidates
/// every archived trace (it participates in the content key).
pub const ARCHIVE_VERSION: u32 = 1;

/// How a trace request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveOutcome {
    /// Decoded from a valid archived file.
    Hit,
    /// Not present; generated and archived.
    MissGenerated,
    /// Present but corrupt (checksum/decode failure); regenerated and
    /// rewritten.
    CorruptRegenerated,
}

/// Counters for archive activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Traces served from disk.
    pub hits: u64,
    /// Traces generated because no archive entry existed.
    pub misses: u64,
    /// Traces regenerated over a corrupt archive entry.
    pub corrupt_regenerated: u64,
}

/// Manifest metadata for one archived trace: everything needed to validate
/// and decode the file *without* holding the archive lock. Obtained under
/// the lock via [`TraceArchive::entry_meta`]; consumed lock-free by
/// [`TraceArchive::decode_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// FNV-1a checksum of the file bytes.
    pub checksum: u64,
    /// Expected file length in bytes.
    pub bytes: u64,
}

/// A trace encoded for archiving, produced lock-free by
/// [`TraceArchive::encode_packed`] and committed under the lock by
/// [`TraceArchive::commit`].
#[derive(Debug, Clone)]
pub struct EncodedTrace {
    /// The `CHRP` codec bytes.
    pub bytes: Vec<u8>,
    /// FNV-1a checksum of `bytes`.
    pub checksum: u64,
    /// Record count of the encoded trace.
    pub records: u64,
}

/// The on-disk trace archive.
///
/// # Locking discipline
///
/// The struct itself is not thread-safe; parallel callers (the suite
/// runner) share it behind a mutex. To keep codec work out of that
/// critical section, the expensive steps are exposed as lock-free
/// associated functions operating on plain data:
///
/// 1. under the lock: [`TraceArchive::entry_meta`] + [`TraceArchive::trace_path`] (index probe);
/// 2. lock released: [`TraceArchive::decode_file`] (read + checksum + decode)
///    or an [`ArchiveTraceStream`](crate::ArchiveTraceStream), or to write
///    [`TraceArchive::encode_packed`] + [`TraceArchive::store_file`];
/// 3. under the lock again: [`TraceArchive::record_hit`] or
///    [`TraceArchive::commit`] (manifest append + index insert — bookkeeping only).
///
/// [`TraceArchive::pack`] runs the write steps in one `&mut self` call;
/// the suite runner takes the lock for it only to rewrite a corrupt
/// entry, which is rare enough not to matter.
#[derive(Debug)]
pub struct TraceArchive {
    dir: PathBuf,
    manifest_path: PathBuf,
    entries: HashMap<u64, EntryMeta>,
    /// Record counts the manifest declares, by key: a subset of
    /// `entries`' keys (a line without a count leaves its key out).
    records: HashMap<u64, u64>,
    stats: ArchiveStats,
}

impl TraceArchive {
    /// Opens (creating if needed) the archive under `store_root/traces`.
    pub fn open(store_root: &Path) -> Result<TraceArchive, StoreError> {
        let dir = store_root.join("traces");
        fs::create_dir_all(&dir).map_err(|e| StoreError::io("create archive dir", e))?;
        let manifest_path = dir.join("MANIFEST.jsonl");
        let mut entries = HashMap::new();
        let mut records = HashMap::new();
        if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)
                .map_err(|e| StoreError::io("read archive manifest", e))?;
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // A torn final line (interrupted append) parses as an
                // error; skip it — the trace it described will simply be
                // treated as absent or fail its checksum.
                let Ok(obj) = JsonObject::parse(line) else { continue };
                let (Some(key), Some(checksum), Some(bytes)) = (
                    obj.str_field("key").and_then(crate::hash::parse_hex16),
                    obj.str_field("checksum").and_then(crate::hash::parse_hex16),
                    obj.u64_field("bytes"),
                ) else {
                    continue;
                };
                // Later lines win: a rewritten (regenerated) trace appends
                // a fresh manifest line for the same key.
                entries.insert(key, EntryMeta { checksum, bytes });
                match obj.u64_field("records") {
                    Some(n) => records.insert(key, n),
                    None => records.remove(&key),
                };
            }
        }
        Ok(TraceArchive { dir, manifest_path, entries, records, stats: ArchiveStats::default() })
    }

    /// The content key for (`spec`, `len`): covers the benchmark name, the
    /// full generator parameter set (via its `Debug` form, which is part of
    /// the spec's serialised identity), the seed, the instruction count and
    /// the codec/archive version.
    pub fn content_key(spec: &BenchmarkSpec, len: usize) -> u64 {
        let mut h = Fnv64::new();
        h.update_field(&spec.name)
            .update_u64(spec.seed)
            .update_field(&format!("{:?}", spec.spec))
            .update_u64(len as u64)
            .update_u64(u64::from(ARCHIVE_VERSION));
        h.finish()
    }

    /// Path of the trace file for `key`.
    pub fn trace_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.chrp", hex16(key)))
    }

    /// Manifest metadata for `key`, if the archive knows it. Cheap — safe
    /// to call with the archive lock held.
    pub fn entry_meta(&self, key: u64) -> Option<EntryMeta> {
        self.entries.get(&key).copied()
    }

    /// The record count the manifest declares for `key`'s trace, if the
    /// archive knows the entry and its line carries one. Lets a caller
    /// size a run of the trace without touching the file; the file's own
    /// header is what a decode then checks it against.
    pub fn entry_records(&self, key: u64) -> Option<u64> {
        self.records.get(&key).copied()
    }

    /// Validates and decodes an archived trace file against its manifest
    /// metadata — the expensive read path, deliberately free of `self` so
    /// parallel callers run it *outside* the archive lock. The checksum
    /// is computed in the decoding pass. Returns `None` on any mismatch
    /// (missing file, short/long read, bad checksum, undecodable bytes);
    /// callers treat that as corruption and regenerate.
    pub fn decode_file(path: &Path, meta: EntryMeta) -> Option<PackedTrace> {
        let bytes = fs::read(path).ok()?;
        if bytes.len() as u64 != meta.bytes {
            return None;
        }
        let (trace, checksum) = read_trace_hashed(&bytes).ok()?;
        (checksum == meta.checksum).then_some(trace)
    }

    /// Encodes a packed trace for archiving — codec plus checksum, hashed
    /// as the bytes are written, free of `self` so it runs outside the
    /// archive lock.
    pub fn encode_packed(trace: &PackedTrace) -> EncodedTrace {
        let (bytes, checksum) = write_trace_hashed(trace);
        EncodedTrace { checksum, records: trace.len() as u64, bytes }
    }

    /// Atomically writes encoded trace bytes to `path` (tmp + rename).
    /// Free of `self`; the entry is not visible to the index until
    /// [`TraceArchive::commit`] runs.
    pub fn store_file(path: &Path, encoded: &EncodedTrace) -> Result<(), StoreError> {
        write_atomic(path, &encoded.bytes)
    }

    /// Publishes an entry written by [`TraceArchive::store_file`]: appends
    /// the manifest line, updates the in-memory index and bumps the
    /// counter for `outcome`. This is the only write step that needs the
    /// archive lock, and it does no codec work.
    pub fn commit(
        &mut self,
        key: u64,
        encoded: &EncodedTrace,
        outcome: ArchiveOutcome,
    ) -> Result<(), StoreError> {
        let mut line = JsonObject::new();
        line.set_str("key", &hex16(key))
            .set_str("checksum", &hex16(encoded.checksum))
            .set_u64("bytes", encoded.bytes.len() as u64)
            .set_u64("records", encoded.records)
            .set_u64("version", u64::from(ARCHIVE_VERSION));
        append_line(&self.manifest_path, &line.to_json())?;
        self.records.insert(key, encoded.records);
        self.entries.insert(
            key,
            EntryMeta { checksum: encoded.checksum, bytes: encoded.bytes.len() as u64 },
        );
        match outcome {
            ArchiveOutcome::Hit => {}
            ArchiveOutcome::MissGenerated => self.stats.misses += 1,
            ArchiveOutcome::CorruptRegenerated => self.stats.corrupt_regenerated += 1,
        }
        Ok(())
    }

    /// Counts a trace served from a valid archived file.
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Materialises (`spec`, `len`) if absent or invalid, without decoding
    /// an existing file: it counts as a hit when its length and checksum
    /// match the manifest's. Returns the outcome.
    pub fn pack(&mut self, spec: &BenchmarkSpec, len: usize) -> Result<ArchiveOutcome, StoreError> {
        let key = Self::content_key(spec, len);
        if let Some(meta) = self.entries.get(&key) {
            if let Ok(bytes) = fs::read(self.trace_path(key)) {
                if bytes.len() as u64 == meta.bytes && fnv64(&bytes) == meta.checksum {
                    self.stats.hits += 1;
                    return Ok(ArchiveOutcome::Hit);
                }
            }
            return self.regenerate(spec, len, key, ArchiveOutcome::CorruptRegenerated);
        }
        self.regenerate(spec, len, key, ArchiveOutcome::MissGenerated)
    }

    fn regenerate(
        &mut self,
        spec: &BenchmarkSpec,
        len: usize,
        key: u64,
        outcome: ArchiveOutcome,
    ) -> Result<ArchiveOutcome, StoreError> {
        let trace = spec.generate_packed(len);
        let encoded = Self::encode_packed(&trace);
        Self::store_file(&self.trace_path(key), &encoded)?;
        self.commit(key, &encoded, outcome)?;
        Ok(outcome)
    }

    /// Checksum-audits and decodes every manifest entry. Returns `(valid,
    /// corrupt)` counts; corrupt entries (missing files count as corrupt)
    /// are listed by key in the second element.
    pub fn verify(&self) -> (usize, Vec<u64>) {
        let mut valid = 0usize;
        let mut corrupt = Vec::new();
        for (&key, &entry) in &self.entries {
            if Self::decode_file(&self.trace_path(key), entry).is_some() {
                valid += 1;
            } else {
                corrupt.push(key);
            }
        }
        corrupt.sort_unstable();
        (valid, corrupt)
    }

    /// Number of manifest entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Activity counters since open.
    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }
}

/// Writes `bytes` to `path` atomically: a unique tmp file in the same
/// directory, then rename. Readers never observe a half-written file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = path.parent().ok_or_else(|| {
        StoreError::corrupt(format!("path {} has no parent directory", path.display()))
    })?;
    let tmp = dir.join(format!(
        ".tmp.{}.{:x}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("trace"),
        std::process::id(),
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io("create tmp file", e))?;
        f.write_all(bytes).map_err(|e| StoreError::io("write tmp file", e))?;
        f.sync_all().map_err(|e| StoreError::io("sync tmp file", e))?;
        fs::rename(&tmp, path).map_err(|e| StoreError::io("rename tmp file", e))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Appends `line` + newline to `path`, creating it if needed.
pub(crate) fn append_line(path: &Path, line: &str) -> Result<(), StoreError> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| StoreError::io("open for append", e))?;
    f.write_all(line.as_bytes()).map_err(|e| StoreError::io("append line", e))?;
    f.write_all(b"\n").map_err(|e| StoreError::io("append newline", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};
    use chirp_trace::write_trace_packed;

    fn tmpdir(tag: &str) -> crate::TempDir {
        crate::TempDir::new(&format!("store-archive-{tag}"))
    }

    fn spec() -> BenchmarkSpec {
        build_suite(&SuiteConfig { benchmarks: 3 }).remove(1)
    }

    /// Decodes `spec`'s archived trace of `len` records, `None` when the
    /// entry is absent or fails its checksum or decode.
    fn decoded(archive: &TraceArchive, len: usize) -> Option<PackedTrace> {
        let key = TraceArchive::content_key(&spec(), len);
        TraceArchive::decode_file(&archive.trace_path(key), archive.entry_meta(key)?)
    }

    #[test]
    fn miss_then_hit_roundtrips_identical_trace() {
        let root = tmpdir("hit");
        let mut archive = TraceArchive::open(root.path()).unwrap();
        assert_eq!(archive.pack(&spec(), 5_000).unwrap(), ArchiveOutcome::MissGenerated);
        let first = decoded(&archive, 5_000).expect("packed entry decodes");
        assert_eq!(first.to_records(), spec().generate_packed(5_000).to_records());
        // A reopened archive still hits.
        let mut reopened = TraceArchive::open(root.path()).unwrap();
        assert_eq!(reopened.pack(&spec(), 5_000).unwrap(), ArchiveOutcome::Hit);
        assert_eq!(decoded(&reopened, 5_000), Some(first));
    }

    #[test]
    fn different_lengths_get_different_keys() {
        let s = spec();
        assert_ne!(TraceArchive::content_key(&s, 1000), TraceArchive::content_key(&s, 2000));
    }

    #[test]
    fn corruption_is_detected_and_regenerated() {
        let root = tmpdir("corrupt");
        let mut archive = TraceArchive::open(root.path()).unwrap();
        archive.pack(&spec(), 4_000).unwrap();
        let original = decoded(&archive, 4_000).unwrap();
        let key = TraceArchive::content_key(&spec(), 4_000);
        let path = archive.trace_path(key);

        // Flip bytes in the stored file.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let mut reopened = TraceArchive::open(root.path()).unwrap();
        let (_, corrupt) = reopened.verify();
        assert_eq!(corrupt, vec![key]);
        assert_eq!(decoded(&reopened, 4_000), None);
        assert_eq!(reopened.pack(&spec(), 4_000).unwrap(), ArchiveOutcome::CorruptRegenerated);
        assert_eq!(decoded(&reopened, 4_000), Some(original));
        // The rewrite healed the archive.
        let (valid, corrupt) = reopened.verify();
        assert_eq!((valid, corrupt.len()), (1, 0));
        assert_eq!(reopened.stats().corrupt_regenerated, 1);
    }

    #[test]
    fn missing_file_with_manifest_entry_regenerates() {
        let root = tmpdir("missing");
        let mut archive = TraceArchive::open(root.path()).unwrap();
        archive.pack(&spec(), 2_000).unwrap();
        let key = TraceArchive::content_key(&spec(), 2_000);
        fs::remove_file(archive.trace_path(key)).unwrap();
        let mut reopened = TraceArchive::open(root.path()).unwrap();
        assert_eq!(reopened.pack(&spec(), 2_000).unwrap(), ArchiveOutcome::CorruptRegenerated);
    }

    #[test]
    fn pack_skips_valid_entries() {
        let root = tmpdir("pack");
        let mut archive = TraceArchive::open(root.path()).unwrap();
        assert_eq!(archive.pack(&spec(), 3_000).unwrap(), ArchiveOutcome::MissGenerated);
        assert_eq!(archive.pack(&spec(), 3_000).unwrap(), ArchiveOutcome::Hit);
        assert_eq!(archive.len(), 1);
    }

    #[test]
    fn manifest_record_counts_survive_reopen() {
        let root = tmpdir("records");
        let mut archive = TraceArchive::open(root.path()).unwrap();
        let key = TraceArchive::content_key(&spec(), 2_500);
        assert_eq!(archive.entry_records(key), None);
        archive.pack(&spec(), 2_500).unwrap();
        assert_eq!(archive.entry_records(key), Some(2_500));
        let reopened = TraceArchive::open(root.path()).unwrap();
        assert_eq!(reopened.entry_records(key), Some(2_500));
        // A line without a count leaves the entry without one.
        let line =
            format!("{{\"key\":\"{}\",\"checksum\":\"0000000000000000\",\"bytes\":1}}", hex16(key));
        append_line(&root.path().join("traces/MANIFEST.jsonl"), &line).unwrap();
        let reopened = TraceArchive::open(root.path()).unwrap();
        assert!(reopened.entry_meta(key).is_some());
        assert_eq!(reopened.entry_records(key), None);
    }

    #[test]
    fn torn_manifest_line_is_skipped() {
        let root = tmpdir("torn");
        let mut archive = TraceArchive::open(root.path()).unwrap();
        archive.pack(&spec(), 1_000).unwrap();
        // Simulate an interrupted append.
        append_line(&root.path().join("traces/MANIFEST.jsonl"), "{\"key\":\"dead").unwrap();
        let reopened = TraceArchive::open(root.path()).unwrap();
        assert_eq!(reopened.len(), 1);
    }

    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        // Archive checksums and serve content hashes are computed over the
        // encoded bytes, so an encoder change that alters them would
        // silently orphan every stored trace and cached result.
        let spec = build_suite(&SuiteConfig { benchmarks: 1 }).remove(0);
        let bytes = write_trace_packed(&spec.generate_packed(20_000));
        assert_eq!(bytes.len(), 156_735);
        assert_eq!(fnv64(&bytes), 0xeaf1_084c_3a60_3a8c);
    }

    #[test]
    fn encoded_checksum_is_the_pinned_fnv64() {
        // The checksum hashed while encoding is the pinned hash above.
        let spec = build_suite(&SuiteConfig { benchmarks: 1 }).remove(0);
        let encoded = TraceArchive::encode_packed(&spec.generate_packed(20_000));
        assert_eq!((encoded.bytes.len(), encoded.checksum), (156_735, 0xeaf1_084c_3a60_3a8c));
        assert_eq!(encoded.checksum, fnv64(&encoded.bytes));
    }
}
