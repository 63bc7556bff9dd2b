//! Compact binary trace codec.
//!
//! The CVP-1 traces the paper uses are delta-compressed binary files; this
//! module provides an equivalent on-disk representation so generated suites
//! can be materialised once and replayed across policy runs. The format is:
//!
//! ```text
//! magic   : 4 bytes  "CHRP"
//! version : u8       (currently 1)
//! count   : u64 LE   number of records
//! records : count × { kind:u8, flags:u8, pc:varint-delta,
//!                     [ea:varint], [target:varint] }
//! ```
//!
//! PCs are encoded as zig-zag deltas from the previous record's PC, which
//! makes sequential code nearly free to store. Effective addresses and
//! targets are encoded only when the kind requires them (flag-driven).
//!
//! Every decode path — [`read_trace_packed`], [`read_trace`] (its records
//! unpacked) and [`ChunkedDecoder`] (behind `SliceStream` and the store's
//! archive stream) — runs one decoder core that writes each record
//! straight into the [`PackedTrace`] columns: the pc and kind columns, the
//! taken bitset, and the effective-address and target side tables for the
//! kinds that define them (the flags decide what is *read*, the kind what
//! is *kept*). A one-byte varint (most PC deltas) is taken from its byte;
//! a longer one is read with one little-endian `u64` load whenever eight
//! bytes are buffered: the first byte without a continuation bit is the
//! lowest set bit of `!word & 0x8080…`, and three mask-and-shift steps
//! pack the 7-bit groups. Only a varint within eight bytes of the
//! buffer's end, or one longer than eight bytes, takes the byte loop,
//! which also decides every varint error. All paths therefore accept the
//! same buffers, yield the same records and fail with the same
//! [`CodecError`].
//!
//! Every pass also folds the bytes it walks into an FNV-1a checksum
//! ([`Fnv64`]) as it goes: after each record, the whole 8-byte blocks
//! behind the cursor are hashed, so the hash's serial multiply chain runs
//! beside the record work instead of as a second pass over the buffer.
//! The header, the bytes left short of a block when [`ChunkedDecoder`]
//! refills its window, and any bytes past the last record are hashed too,
//! so [`read_trace_hashed`], [`ChunkedDecoder::finish`] and
//! [`write_trace_hashed`] hand back [`fnv64`](crate::hash::fnv64) of the
//! whole buffer or stream as a by-product.

use crate::hash::Fnv64;
use crate::packed::PackedTrace;
use crate::record::{InstrKind, TraceRecord};
use std::fmt;
use std::io::{ErrorKind, Read};

const MAGIC: &[u8; 4] = b"CHRP";
const VERSION: u8 = 1;
/// Magic + version + record count.
const HEADER_BYTES: usize = 4 + 1 + 8;
/// Longest encoded record: kind + flags + three 10-byte varints. A
/// decoder holding this many bytes can decode the next record (or fail
/// it) without running off the end of its buffer.
const MAX_RECORD_BYTES: usize = 1 + 1 + 3 * 10;
/// Shortest encoded record: kind + flags + a one-byte PC delta. Bounds
/// how many records a buffer can hold, whatever its header declares.
const MIN_RECORD_BYTES: usize = 3;
/// Size of [`ChunkedDecoder`]'s read window: the most it asks its source
/// for in one `read`.
const WINDOW_BYTES: usize = 64 * 1024;

const FLAG_TAKEN: u8 = 1 << 0;
const FLAG_HAS_EA: u8 = 1 << 1;
const FLAG_HAS_TARGET: u8 = 1 << 2;

/// Errors produced while decoding a trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the `CHRP` magic.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u8),
    /// The buffer ended before the declared record count was reached.
    Truncated,
    /// A record carried an unknown [`InstrKind`] discriminant.
    BadKind(u8),
    /// A varint ran past its maximum length.
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "trace buffer does not begin with CHRP magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace buffer ended before declared record count"),
            CodecError::BadKind(k) => write!(f, "unknown instruction kind discriminant {k}"),
            CodecError::BadVarint => write!(f, "malformed varint in trace buffer"),
        }
    }
}

impl std::error::Error for CodecError {}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads the varint at `data[*pos..]`, advancing `pos` past it: a
/// one-byte varint straight from its byte, a longer one with one word
/// load when eight bytes are buffered and the varint fits in them, else
/// [`get_varint_bytes`].
#[inline(always)]
fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    // Most PC deltas take one byte; the word path's mask-and-shift steps
    // would cost them more than the branch.
    if let Some(&byte) = data.get(*pos) {
        if byte & 0x80 == 0 {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    if let Some(word) = data.get(*pos..*pos + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            // Keep the varint's bytes (through the lowest stop bit), drop
            // the continuation bits, then close the 1-bit gaps between
            // 7-bit groups, the 2-bit gaps between 14-bit groups and the
            // 4-bit gap between the two 28-bit groups.
            let x = word & (stops ^ (stops - 1)) & 0x7f7f_7f7f_7f7f_7f7f;
            let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
            let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
            let x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
            *pos += stops.trailing_zeros() as usize / 8 + 1;
            return Ok(x);
        }
    }
    get_varint_bytes(data, pos)
}

/// The byte loop: at most ten bytes, [`CodecError::Truncated`] at the end
/// of `data`, [`CodecError::BadVarint`] when the tenth byte still has its
/// continuation bit. Bits past the 64th are dropped.
#[cold]
fn get_varint_bytes(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut shift = 0u32;
    let mut out = 0u64;
    for _ in 0..10 {
        let byte = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
    Err(CodecError::BadVarint)
}

/// The FNV-1a checksum and length of every byte a [`ChunkedDecoder`]
/// consumed: the header, the records and anything after them up to the
/// end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteDigest {
    /// [`fnv64`](crate::hash::fnv64) of the bytes.
    pub checksum: u64,
    /// How many bytes there were.
    pub bytes: u64,
}

/// FNV-1a over a buffer a codec pass walks front to back, folded in
/// 8-byte blocks that trail the pass's cursor. `data[..done]` is hashed.
#[derive(Debug, Clone, Copy, Default)]
struct TrailingHash {
    hash: Fnv64,
    done: usize,
}

impl TrailingHash {
    /// Folds every whole 8-byte block of `data[done..cursor]`; called
    /// once per record, so the fold overlaps the next record's work.
    #[inline(always)]
    fn trail(&mut self, data: &[u8], cursor: usize) {
        while self.done + 8 <= cursor {
            let block: &[u8; 8] = data[self.done..self.done + 8].try_into().expect("8 bytes");
            self.hash.update(block);
            self.done += 8;
        }
    }

    /// Folds the rest of `data[done..cursor]`, bytes short of a block
    /// included.
    fn catch_up(&mut self, data: &[u8], cursor: usize) {
        self.hash.update(&data[self.done..cursor]);
        self.done = cursor;
    }
}

/// Serialises a trace into the compact binary format.
///
/// ```
/// use chirp_trace::{read_trace, write_trace, TraceRecord};
///
/// let trace = vec![TraceRecord::alu(0x400000), TraceRecord::load(0x400004, 0x7000_0000)];
/// let bytes = write_trace(&trace);
/// assert_eq!(read_trace(&bytes)?, trace);
/// # Ok::<(), chirp_trace::CodecError>(())
/// ```
pub fn write_trace(records: &[TraceRecord]) -> Vec<u8> {
    encode(records.len(), records.iter().copied()).0
}

/// Serialises a [`PackedTrace`] into the same binary format as
/// [`write_trace`] — the encoding depends only on the record sequence, not
/// on the in-memory representation.
pub fn write_trace_packed(trace: &PackedTrace) -> Vec<u8> {
    write_trace_hashed(trace).0
}

/// [`write_trace_packed`] with the [`fnv64`](crate::hash::fnv64) of the
/// bytes, hashed as they are written.
pub fn write_trace_hashed(trace: &PackedTrace) -> (Vec<u8>, u64) {
    encode(trace.len(), trace.iter())
}

/// The encoding of `records` and its checksum, which [`write_trace`] and
/// [`write_trace_packed`] drop.
fn encode<I: Iterator<Item = TraceRecord>>(count: usize, records: I) -> (Vec<u8>, u64) {
    let mut buf = Vec::with_capacity(HEADER_BYTES + count * 4);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(count as u64).to_le_bytes());
    let mut hash = TrailingHash::default();
    let mut prev_pc = 0u64;
    for rec in records {
        let mut flags = 0u8;
        if rec.taken {
            flags |= FLAG_TAKEN;
        }
        let has_ea = rec.kind.is_memory();
        let has_target = rec.kind.is_branch();
        if has_ea {
            flags |= FLAG_HAS_EA;
        }
        if has_target {
            flags |= FLAG_HAS_TARGET;
        }
        buf.push(rec.kind as u8);
        buf.push(flags);
        put_varint(&mut buf, zigzag_encode(rec.pc.wrapping_sub(prev_pc) as i64));
        prev_pc = rec.pc;
        if has_ea {
            put_varint(&mut buf, rec.effective_address);
        }
        if has_target {
            put_varint(&mut buf, rec.target);
        }
        hash.trail(&buf, buf.len());
    }
    hash.catch_up(&buf, buf.len());
    (buf, hash.hash.finish())
}

/// Record-level decode state shared by every decode path: header
/// validation up front, then records decoded in runs by
/// [`DecoderCore::decode`] straight into a [`PackedTrace`]'s columns.
/// [`read_trace_packed`] hands it the whole buffer and [`ChunkedDecoder`]
/// its read window, so the paths cannot diverge. The checksum of the
/// bytes trails the decode cursor through the same buffer.
struct DecoderCore {
    remaining: usize,
    prev_pc: u64,
    hash: TrailingHash,
}

impl DecoderCore {
    /// Validates the header at the start of `data`; records begin at
    /// [`HEADER_BYTES`].
    fn read_header(data: &[u8]) -> Result<DecoderCore, CodecError> {
        let count = peek_record_count(data)?;
        // A count past `usize` cannot be backed by a buffer: saturate and
        // let decoding fail as `Truncated`.
        Ok(DecoderCore {
            remaining: usize::try_from(count).unwrap_or(usize::MAX),
            prev_pc: 0,
            hash: TrailingHash::default(),
        })
    }

    /// Decodes up to `want` records (at most [`Self::remaining`]) from
    /// `data[*pos..]`, appending them to `out`, and returns how many it
    /// decoded. With `last`, `data` holds every byte left and a record
    /// cut short fails as [`CodecError::Truncated`]; without, decoding
    /// stops before a record that may not be wholly buffered (fewer than
    /// [`MAX_RECORD_BYTES`] left), for the caller to refill. The whole
    /// 8-byte blocks of `data` behind the last decoded record are hashed.
    fn decode(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        out: &mut PackedTrace,
        want: usize,
        last: bool,
    ) -> Result<usize, CodecError> {
        let want = want.min(self.remaining);
        let mut p = *pos;
        let mut hash = self.hash;
        let mut done = 0;
        while done < want && (last || p + MAX_RECORD_BYTES <= data.len()) {
            let kind_byte = *data.get(p).ok_or(CodecError::Truncated)?;
            let kind = InstrKind::from_u8(kind_byte).ok_or(CodecError::BadKind(kind_byte))?;
            let flags = *data.get(p + 1).ok_or(CodecError::Truncated)?;
            p += 2;
            let pc = self.prev_pc.wrapping_add(zigzag_decode(get_varint(data, &mut p)?) as u64);
            let ea = if flags & FLAG_HAS_EA != 0 { get_varint(data, &mut p)? } else { 0 };
            let target = if flags & FLAG_HAS_TARGET != 0 { get_varint(data, &mut p)? } else { 0 };
            self.prev_pc = pc;
            // The flags said what was encoded; the kind decides what is
            // kept.
            out.push_parts(pc, kind, flags & FLAG_TAKEN != 0, ea, target);
            hash.trail(data, p);
            done += 1;
        }
        *pos = p;
        self.hash = hash;
        self.remaining -= done;
        Ok(done)
    }
}

/// Errors produced by the chunked (reader-backed) decode path: either a
/// malformed encoding or an I/O failure from the underlying reader.
#[derive(Debug)]
pub enum ChunkedDecodeError {
    /// The byte stream is not a valid `CHRP` encoding.
    Codec(CodecError),
    /// The underlying reader failed (not end-of-stream — a premature EOF
    /// surfaces as `Codec(Truncated)`).
    Io(std::io::Error),
}

impl From<CodecError> for ChunkedDecodeError {
    fn from(e: CodecError) -> Self {
        ChunkedDecodeError::Codec(e)
    }
}

impl fmt::Display for ChunkedDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkedDecodeError::Codec(e) => write!(f, "{e}"),
            ChunkedDecodeError::Io(e) => write!(f, "trace stream read failed: {e}"),
        }
    }
}

impl std::error::Error for ChunkedDecodeError {}

/// Chunked decode path over any [`std::io::Read`]: records come out in
/// bounded [`PackedTrace`] batches, so peak decode memory is O(chunk)
/// instead of O(trace). The decoder reads its source in 64 KiB blocks
/// into a window of its own (no `BufReader` needed) and decodes records
/// out of that window with the same decoder core as the in-memory paths,
/// so the decoded record sequence — and the error for a malformed one —
/// is identical to [`read_trace_packed`] on the concatenated bytes.
/// [`ChunkedDecoder::finish`] reads the source to its end and returns the
/// checksum and length of everything read, hashed as it was decoded.
///
/// ```
/// use chirp_trace::{codec::ChunkedDecoder, write_trace, TraceRecord};
///
/// let trace = vec![TraceRecord::alu(0x400000), TraceRecord::load(0x400004, 0x7000)];
/// let bytes = write_trace(&trace);
/// let mut dec = ChunkedDecoder::new(&bytes[..])?;
/// assert_eq!(dec.remaining(), 2);
/// let chunk = dec.next_chunk(1)?.expect("first record");
/// assert_eq!(chunk.len(), 1);
/// # Ok::<(), chirp_trace::codec::ChunkedDecodeError>(())
/// ```
pub struct ChunkedDecoder<R: Read> {
    reader: R,
    /// Bytes read from `reader`; `window[pos..end]` is not yet decoded.
    window: Box<[u8]>,
    pos: usize,
    end: usize,
    /// The reader has returned end of stream.
    eof: bool,
    /// Bytes read from `reader` so far.
    read: u64,
    core: DecoderCore,
}

impl<R: Read> ChunkedDecoder<R> {
    /// Reads and validates the `CHRP` header, leaving the decoder
    /// positioned at the first record.
    ///
    /// # Errors
    ///
    /// Fails on a bad magic/version, a header cut short
    /// (`Codec(Truncated)`), or a reader I/O error.
    pub fn new(reader: R) -> Result<ChunkedDecoder<R>, ChunkedDecodeError> {
        let mut dec = ChunkedDecoder {
            reader,
            window: vec![0u8; WINDOW_BYTES].into_boxed_slice(),
            pos: 0,
            end: 0,
            eof: false,
            read: 0,
            core: DecoderCore { remaining: 0, prev_pc: 0, hash: TrailingHash::default() },
        };
        dec.fill(HEADER_BYTES)?;
        dec.core = DecoderCore::read_header(&dec.window[..dec.end])?;
        dec.pos = HEADER_BYTES;
        Ok(dec)
    }

    /// Records not yet decoded (per the header's declared count).
    pub fn remaining(&self) -> usize {
        self.core.remaining
    }

    /// Decodes up to `max` records into a fresh [`PackedTrace`]; `None`
    /// once the declared record count is exhausted.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`read_trace`], plus reader I/O errors. After
    /// an error the decoder is poisoned — further calls are unspecified
    /// (the stream position is mid-record).
    pub fn next_chunk(&mut self, max: usize) -> Result<Option<PackedTrace>, ChunkedDecodeError> {
        if self.core.remaining == 0 {
            return Ok(None);
        }
        let take = max.max(1).min(self.core.remaining);
        let mut out = PackedTrace::with_capacity(take);
        let mut left = take;
        while left > 0 {
            self.fill(MAX_RECORD_BYTES)?;
            // Decode straight out of the window while a whole record is
            // guaranteed buffered. Past EOF the window holds all that is
            // left: decode to its end, where a record cut short fails as
            // `Truncated`.
            let mut pos = self.pos;
            left -=
                self.core.decode(&self.window[..self.end], &mut pos, &mut out, left, self.eof)?;
            self.pos = pos;
        }
        Ok(Some(out))
    }

    /// Reads the source to its end and returns the checksum and length of
    /// every byte it yielded: the header, the records and anything after
    /// the last declared record. Bytes of records not yet decoded are
    /// hashed without being decoded, so a caller that needs them checked
    /// drains [`Self::next_chunk`] first.
    ///
    /// # Errors
    ///
    /// Fails on a reader I/O error.
    pub fn finish(mut self) -> Result<ByteDigest, ChunkedDecodeError> {
        self.core.hash.catch_up(&self.window, self.end);
        let mut hash = self.core.hash.hash;
        while !self.eof {
            match self.reader.read(&mut self.window) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    hash.update(&self.window[..n]);
                    self.read += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ChunkedDecodeError::Io(e)),
            }
        }
        Ok(ByteDigest { checksum: hash.finish(), bytes: self.read })
    }

    /// Reads until at least `want` undecoded bytes are buffered or the
    /// reader hits EOF, first moving the undecoded tail to the front of
    /// the window (and hashing the decoded bytes it drops).
    fn fill(&mut self, want: usize) -> Result<(), ChunkedDecodeError> {
        if self.end - self.pos >= want || self.eof {
            return Ok(());
        }
        self.core.hash.catch_up(&self.window, self.pos);
        self.core.hash.done = 0;
        self.window.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < want {
            match self.reader.read(&mut self.window[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.end += n;
                    self.read += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ChunkedDecodeError::Io(e)),
            }
        }
        Ok(())
    }
}

/// Deserialises a trace previously produced by [`write_trace`]: the
/// records of [`read_trace_packed`], unpacked. Field values the format
/// carries for a kind that does not define them (an effective address on
/// a branch, say) are dropped, as [`PackedTrace`] drops them.
///
/// # Errors
///
/// Returns a [`CodecError`] if the buffer is truncated, carries an unknown
/// version or kind, or contains a malformed varint.
pub fn read_trace(data: &[u8]) -> Result<Vec<TraceRecord>, CodecError> {
    read_trace_packed(data).map(|trace| trace.to_records())
}

/// Reads the record count out of a `CHRP` header without decoding any
/// records — lets a client declare a trace's size (for server-side
/// admission control) from the first 13 bytes of the file.
///
/// # Errors
///
/// Rejects buffers whose header is truncated, carries the wrong magic or
/// an unsupported version. The records themselves are not validated.
pub fn peek_record_count(data: &[u8]) -> Result<u64, CodecError> {
    // A buffer shorter than a header is Truncated even when its first
    // bytes would also fail the magic check.
    if data.len() < HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if data[4] != VERSION {
        return Err(CodecError::UnsupportedVersion(data[4]));
    }
    Ok(u64::from_le_bytes(data[5..HEADER_BYTES].try_into().expect("8-byte slice")))
}

/// Deserialises a trace directly into [`PackedTrace`] form, never
/// materialising the flat 40-byte-per-record vector — the suite runner's
/// archive-decode path. Accepts exactly the buffers [`read_trace`] accepts
/// and yields the identical record sequence.
///
/// # Errors
///
/// Same failure modes as [`read_trace`].
pub fn read_trace_packed(data: &[u8]) -> Result<PackedTrace, CodecError> {
    read_trace_hashed(data).map(|(trace, _)| trace)
}

/// [`read_trace_packed`] with the [`fnv64`](crate::hash::fnv64) of the
/// whole of `data`, bytes past the last record included, hashed in the
/// decoding pass.
///
/// # Errors
///
/// Same failure modes as [`read_trace`].
pub fn read_trace_hashed(data: &[u8]) -> Result<(PackedTrace, u64), CodecError> {
    let mut core = DecoderCore::read_header(data)?;
    // Reserve every column for the declared count, capped by what the
    // buffer can hold, so no column doubles its way through the trace and
    // a corrupt count cannot force a huge allocation before decoding
    // fails.
    let len = core.remaining.min(data.len() / MIN_RECORD_BYTES);
    let mut out = PackedTrace::with_capacity(len);
    out.reserve_side_tables(len);
    let mut pos = HEADER_BYTES;
    core.decode(data, &mut pos, &mut out, usize::MAX, true)?;
    core.hash.catch_up(data, data.len());
    Ok((out, core.hash.hash.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_trace(&[]);
        assert_eq!(read_trace(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn mixed_trace_roundtrips() {
        let trace = vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::store(0x400008, 0x1_0000_0000),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::cond_branch(0x40000c, 0x400010, false),
            TraceRecord::call(0x400010, 0x500000),
            TraceRecord::ret(0x500040, 0x400014),
            TraceRecord::indirect_jump(0x400014, 0x600000),
        ];
        let bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn backward_pc_deltas_roundtrip() {
        // Returns jump backwards; zig-zag must handle negative deltas.
        let trace = vec![TraceRecord::alu(0x9000_0000), TraceRecord::alu(0x400000)];
        assert_eq!(read_trace(&write_trace(&trace)).unwrap(), trace);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[0] = b'X';
        assert_eq!(read_trace(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[4] = 99;
        assert_eq!(read_trace(&bytes), Err(CodecError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let bytes = write_trace(&[TraceRecord::load(0x400000, 0x12345678)]);
        for cut in 0..bytes.len() {
            assert!(read_trace(&bytes[..cut]).is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = write_trace(&[TraceRecord::alu(4)]);
        // kind byte of first record sits right after the 13-byte header
        bytes[13] = 42;
        assert_eq!(read_trace(&bytes), Err(CodecError::BadKind(42)));
    }

    #[test]
    fn huge_declared_count_fails_without_preallocating() {
        // A corrupt count must fail as Truncated, not size an allocation.
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[5..13].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(read_trace(&bytes), Err(CodecError::Truncated));
        assert_eq!(read_trace_packed(&bytes).map(|t| t.len()), Err(CodecError::Truncated));
        assert_eq!(drain_chunked(&bytes[..], 1 << 16), Err(CodecError::Truncated));
    }

    #[test]
    fn packed_write_matches_flat_write() {
        let trace = vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::ret(0x500040, 0x400014),
        ];
        let packed = crate::packed::PackedTrace::from_records(&trace);
        assert_eq!(write_trace_packed(&packed), write_trace(&trace));
    }

    #[test]
    fn packed_read_matches_flat_read() {
        let trace = vec![
            TraceRecord::store(0x400008, 0x1_0000_0000),
            TraceRecord::indirect_jump(0x400014, 0x600000),
            TraceRecord::alu(0x400018),
        ];
        let bytes = write_trace(&trace);
        let packed = read_trace_packed(&bytes).unwrap();
        assert_eq!(packed.to_records(), trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn packed_read_rejects_what_flat_read_rejects() {
        let mut bytes = write_trace(&[TraceRecord::alu(0)]);
        bytes[0] = b'X';
        assert_eq!(read_trace_packed(&bytes), Err(CodecError::BadMagic));
        let bytes = write_trace(&[TraceRecord::load(0x400000, 0x12345678)]);
        for cut in 0..bytes.len() {
            assert!(read_trace_packed(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn peek_reads_count_without_decoding() {
        let trace = vec![TraceRecord::alu(0x400000), TraceRecord::load(0x400004, 0x7000)];
        let bytes = write_trace(&trace);
        assert_eq!(peek_record_count(&bytes), Ok(2));
        // Header-only prefix still answers; shorter prefixes are truncated.
        assert_eq!(peek_record_count(&bytes[..13]), Ok(2));
        assert_eq!(peek_record_count(&bytes[..12]), Err(CodecError::Truncated));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(peek_record_count(&bad), Err(CodecError::BadMagic));
        let mut bad = bytes;
        bad[4] = 7;
        assert_eq!(peek_record_count(&bad), Err(CodecError::UnsupportedVersion(7)));
    }

    #[test]
    fn chunked_decode_matches_whole_buffer_decode() {
        let trace = vec![
            TraceRecord::alu(0x400000),
            TraceRecord::load(0x400004, 0x7fff_0000_1234),
            TraceRecord::cond_branch(0x40000c, 0x400000, true),
            TraceRecord::call(0x400010, 0x500000),
            TraceRecord::ret(0x500040, 0x400014),
        ];
        let bytes = write_trace(&trace);
        for chunk in [1usize, 2, 3, 5, 64] {
            let mut dec = ChunkedDecoder::new(&bytes[..]).unwrap();
            let mut got = Vec::new();
            while let Some(batch) = dec.next_chunk(chunk).unwrap() {
                assert!(batch.len() <= chunk);
                got.extend(batch.iter());
            }
            assert_eq!(got, trace, "chunk size {chunk}");
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn chunked_decode_rejects_what_whole_buffer_decode_rejects() {
        let mut bad = write_trace(&[TraceRecord::alu(0)]);
        bad[0] = b'X';
        assert!(matches!(
            ChunkedDecoder::new(&bad[..]),
            Err(ChunkedDecodeError::Codec(CodecError::BadMagic))
        ));
        let bytes = write_trace(&[TraceRecord::load(0x400000, 0x12345678)]);
        for cut in 0..bytes.len() {
            let drained = ChunkedDecoder::new(&bytes[..cut]).and_then(|mut dec| {
                while dec.next_chunk(4)?.is_some() {}
                Ok(())
            });
            assert!(drained.is_err(), "prefix of length {cut} must not decode");
        }
    }

    #[test]
    fn chunked_decode_empty_trace_yields_no_chunks() {
        let bytes = write_trace(&[]);
        let mut dec = ChunkedDecoder::new(&bytes[..]).unwrap();
        assert_eq!(dec.remaining(), 0);
        assert!(dec.next_chunk(16).unwrap().is_none());
    }

    /// Reader that hands out at most `k` bytes per `read` and fails every
    /// third call with `Interrupted`, so records straddle refills.
    struct ShortReads<'a> {
        data: &'a [u8],
        pos: usize,
        k: usize,
        calls: usize,
    }

    impl<'a> ShortReads<'a> {
        fn new(data: &'a [u8], k: usize) -> ShortReads<'a> {
            ShortReads { data, pos: 0, k, calls: 0 }
        }
    }

    impl std::io::Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = self.k.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Drains a [`ChunkedDecoder`] in batches of `chunk`, checking each
    /// batch's bound; an I/O error fails the test.
    fn drain_chunked<R: Read>(reader: R, chunk: usize) -> Result<Vec<TraceRecord>, CodecError> {
        let run = || -> Result<Vec<TraceRecord>, ChunkedDecodeError> {
            let mut dec = ChunkedDecoder::new(reader)?;
            let mut got = Vec::new();
            while let Some(batch) = dec.next_chunk(chunk)? {
                assert!(batch.len() <= chunk);
                got.extend(batch.iter());
            }
            assert_eq!(dec.remaining(), 0);
            Ok(got)
        };
        run().map_err(|e| match e {
            ChunkedDecodeError::Codec(e) => e,
            ChunkedDecodeError::Io(e) => panic!("unexpected I/O error: {e}"),
        })
    }

    /// Reader handing out between 1 and `k` bytes per `read`, the
    /// count drawn from a small LCG, so records straddle refills at
    /// every offset.
    struct RaggedReads<'a> {
        data: &'a [u8],
        k: usize,
        state: u64,
    }

    impl std::io::Read for RaggedReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.state = self.state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let want = 1 + (self.state >> 33) as usize % self.k;
            let n = want.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// [`drain_chunked`], then [`ChunkedDecoder::finish`]: the records
    /// and the digest of every byte the reader yielded.
    fn drain_and_finish<R: Read>(
        reader: R,
        chunk: usize,
    ) -> Result<(Vec<TraceRecord>, ByteDigest), CodecError> {
        let run = || -> Result<(Vec<TraceRecord>, ByteDigest), ChunkedDecodeError> {
            let mut dec = ChunkedDecoder::new(reader)?;
            let mut got = Vec::new();
            while let Some(batch) = dec.next_chunk(chunk)? {
                got.extend(batch.iter());
            }
            Ok((got, dec.finish()?))
        };
        run().map_err(|e| match e {
            ChunkedDecodeError::Codec(e) => e,
            ChunkedDecodeError::Io(e) => panic!("unexpected I/O error: {e}"),
        })
    }

    #[test]
    fn chunked_decode_crosses_window_refills() {
        // Every field a 10-byte varint (a PC delta with the top bit set,
        // addresses and targets >= 2^63): 40k records of up to 32 bytes
        // span many 64 KiB windows, so records cross real refills.
        let trace: Vec<TraceRecord> = (0..40_000u64)
            .map(|i| {
                let high = (1u64 << 63) | i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let pc = if i % 2 == 0 { high } else { i };
                match i % 3 {
                    0 => TraceRecord::load(pc, high),
                    1 => TraceRecord::cond_branch(pc, high ^ 0x55, i % 5 == 0),
                    _ => TraceRecord::alu(pc),
                }
            })
            .collect();
        let bytes = write_trace(&trace);
        assert!(bytes.len() > 8 * WINDOW_BYTES, "{} bytes", bytes.len());
        for chunk in [1usize, 997, 65_536] {
            assert_eq!(drain_chunked(&bytes[..], chunk).unwrap(), trace, "chunk {chunk}");
        }
        for k in [1usize, 31, 40] {
            let got = drain_chunked(ShortReads::new(&bytes, k), 4_096).unwrap();
            assert_eq!(got, trace, "k {k}");
        }
    }

    #[test]
    fn reader_failure_surfaces_as_io() {
        /// Serves `good` bytes of `data`, then fails hard.
        struct FailAfter<'a> {
            data: &'a [u8],
            good: usize,
        }
        impl std::io::Read for FailAfter<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.good == 0 {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = self.good.min(buf.len()).min(self.data.len());
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                self.good -= n;
                Ok(n)
            }
        }
        let trace: Vec<TraceRecord> = (0..1_000).map(|i| TraceRecord::alu(i * 4)).collect();
        let bytes = write_trace(&trace);
        assert!(matches!(
            ChunkedDecoder::new(FailAfter { data: &bytes, good: 5 }),
            Err(ChunkedDecodeError::Io(_))
        ));
        let mut dec = ChunkedDecoder::new(FailAfter { data: &bytes, good: 100 }).unwrap();
        let outcome = (|| {
            while dec.next_chunk(64)?.is_some() {}
            Ok::<(), ChunkedDecodeError>(())
        })();
        assert!(matches!(outcome, Err(ChunkedDecodeError::Io(_))), "got {outcome:?}");
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x7fff_ffff_ffff] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Any encodable record: the codec stores effective addresses only
        /// for memory kinds and targets only for branch kinds, so those
        /// fields are zeroed where the format does not carry them.
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
            fn arbitrary_streams_roundtrip(trace in vec(arb_record(), 0..200usize)) {
                let bytes = write_trace(&trace);
                prop_assert_eq!(read_trace(&bytes).as_ref(), Ok(&trace));
            }

            #[test]
            fn every_strict_prefix_is_rejected(trace in vec(arb_record(), 0..40usize)) {
                // The header declares a record count, so no strict prefix
                // of a valid encoding may decode successfully.
                let bytes = write_trace(&trace);
                for cut in 0..bytes.len() {
                    prop_assert!(
                        read_trace(&bytes[..cut]).is_err(),
                        "prefix of length {} decoded",
                        cut
                    );
                }
            }

            #[test]
            fn packed_and_flat_decoders_agree(trace in vec(arb_record(), 0..200usize)) {
                let bytes = write_trace(&trace);
                let packed = read_trace_packed(&bytes).unwrap();
                prop_assert_eq!(packed.to_records(), trace.clone());
                prop_assert_eq!(write_trace_packed(&packed), bytes);
            }

            #[test]
            fn chunked_decode_agrees_with_flat_decode(
                trace in vec(arb_record(), 0..300usize),
                k in 1usize..41,
                chunk in 1usize..64,
            ) {
                let bytes = write_trace(&trace);
                let want = read_trace_packed(&bytes).unwrap().to_records();
                prop_assert_eq!(drain_chunked(ShortReads::new(&bytes, k), chunk), Ok(want));
            }

            #[test]
            fn damaged_buffers_fail_like_the_slice_path(
                trace in vec(arb_record(), 0..60usize),
                at in any::<u64>(),
                flip in 1u16..256,
                cut in any::<bool>(),
                k in 1usize..41,
            ) {
                // One flipped byte or a cut at any point: the chunked
                // decoder yields the same records, or the same error, as
                // the whole-buffer decoder.
                let mut bytes = write_trace(&trace);
                let i = (at % bytes.len() as u64) as usize;
                if cut {
                    bytes.truncate(i);
                } else {
                    bytes[i] ^= flip as u8;
                }
                let want = read_trace_packed(&bytes).map(|t| t.to_records());
                prop_assert_eq!(drain_chunked(ShortReads::new(&bytes, k), 7), want);
            }

            #[test]
            fn version_byte_is_enforced(trace in vec(arb_record(), 0..8usize), v in any::<u8>()) {
                let mut bytes = write_trace(&trace);
                bytes[4] = v;
                if v == VERSION {
                    prop_assert!(read_trace(&bytes).is_ok());
                } else {
                    prop_assert_eq!(read_trace(&bytes), Err(CodecError::UnsupportedVersion(v)));
                }
            }
        }
    }

    /// The decoder core checked against a deliberately simple reference
    /// decoder, over encodings [`write_trace`] never produces: any flag
    /// combination on any kind, 10-byte varints, `u64::MAX` fields and
    /// negative PC deltas, then damaged copies of them, then all of it
    /// through [`ChunkedDecoder`] over ragged reads.
    mod differential {
        use super::*;
        use crate::hash::fnv64;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// One record as the bytes encode it: a kind byte (valid), a
        /// flags byte (any) and the three field values. The flags alone
        /// decide which fields are encoded, so an ALU record may carry an
        /// effective address and a load may carry none.
        #[derive(Debug, Clone, Copy)]
        struct RawRecord {
            kind: u8,
            flags: u8,
            pc: u64,
            ea: u64,
            target: u64,
        }

        /// Field values weighted toward the encoding's edges: zero, one-
        /// and eight-byte varints, the 9- and 10-byte varints of values
        /// at or past 2^56 and 2^63, and `u64::MAX`.
        fn arb_value() -> impl Strategy<Value = u64> {
            prop_oneof![
                any::<u64>(),
                Just(0u64),
                Just(u64::MAX),
                0u64..128,
                (1u64 << 49)..(1u64 << 56),
                (1u64 << 56)..(1u64 << 63),
                (1u64 << 63)..u64::MAX,
            ]
        }

        fn arb_raw() -> impl Strategy<Value = RawRecord> {
            (0u8..9, any::<u8>(), arb_value(), arb_value(), arb_value())
                .prop_map(|(kind, flags, pc, ea, target)| RawRecord { kind, flags, pc, ea, target })
        }

        /// Encodes raw records under a header declaring their count.
        fn encode_raw(records: &[RawRecord]) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.push(VERSION);
            buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
            let mut prev_pc = 0u64;
            for rec in records {
                buf.push(rec.kind);
                buf.push(rec.flags);
                put_varint(&mut buf, zigzag_encode(rec.pc.wrapping_sub(prev_pc) as i64));
                prev_pc = rec.pc;
                if rec.flags & FLAG_HAS_EA != 0 {
                    put_varint(&mut buf, rec.ea);
                }
                if rec.flags & FLAG_HAS_TARGET != 0 {
                    put_varint(&mut buf, rec.target);
                }
            }
            buf
        }

        /// The reference: one checked byte at a time, one record at a
        /// time, each field kept only where its kind defines it.
        fn reference_decode(data: &[u8]) -> Result<Vec<TraceRecord>, CodecError> {
            fn byte(data: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
                let b = *data.get(*pos).ok_or(CodecError::Truncated)?;
                *pos += 1;
                Ok(b)
            }
            fn varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
                let mut out = 0u64;
                for i in 0..10 {
                    let b = byte(data, pos)?;
                    out |= u64::from(b & 0x7f) << (7 * i);
                    if b & 0x80 == 0 {
                        return Ok(out);
                    }
                }
                Err(CodecError::BadVarint)
            }
            if data.len() < HEADER_BYTES {
                return Err(CodecError::Truncated);
            }
            if &data[..4] != MAGIC {
                return Err(CodecError::BadMagic);
            }
            if data[4] != VERSION {
                return Err(CodecError::UnsupportedVersion(data[4]));
            }
            let count = u64::from_le_bytes(data[5..13].try_into().unwrap());
            let mut pos = HEADER_BYTES;
            let mut prev_pc = 0u64;
            let mut out = Vec::new();
            for _ in 0..count {
                let k = byte(data, &mut pos)?;
                let kind = InstrKind::from_u8(k).ok_or(CodecError::BadKind(k))?;
                let flags = byte(data, &mut pos)?;
                let pc = prev_pc.wrapping_add(zigzag_decode(varint(data, &mut pos)?) as u64);
                prev_pc = pc;
                let ea = if flags & FLAG_HAS_EA != 0 { varint(data, &mut pos)? } else { 0 };
                let target = if flags & FLAG_HAS_TARGET != 0 { varint(data, &mut pos)? } else { 0 };
                out.push(TraceRecord {
                    pc,
                    kind,
                    effective_address: if kind.is_memory() { ea } else { 0 },
                    target: if kind.is_branch() { target } else { 0 },
                    taken: flags & FLAG_TAKEN != 0,
                });
            }
            Ok(out)
        }

        /// Batch sizes at and around a taken word (64 records), one, a
        /// front-end chunk and a stream batch.
        const BATCHES: [usize; 6] = [1, 63, 64, 65, 4_096, 65_536];

        /// Every decode path against the reference on `bytes`: whole
        /// buffer, unpacked, and chunked over ragged reads at every batch
        /// size.
        fn check_all_paths(bytes: &[u8], k: usize, seed: u64) {
            let want = reference_decode(bytes);
            assert_eq!(read_trace(bytes), want, "read_trace");
            assert_eq!(read_trace_packed(bytes).map(|t| t.to_records()), want, "read_trace_packed");
            for batch in BATCHES {
                let reader = RaggedReads { data: bytes, k, state: seed };
                assert_eq!(drain_chunked(reader, batch), want, "chunked, k {k}, batch {batch}");
            }
        }

        #[test]
        fn long_raw_stream_matches_reference_across_window_refills() {
            // Every field present and a 9- or 10-byte varint: > 2 windows.
            let records: Vec<RawRecord> = (0..12_000u64)
                .map(|i| {
                    let wide = (1u64 << 56) | i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    RawRecord {
                        kind: (i % 9) as u8,
                        flags: (i % 8) as u8 | 0xf0,
                        pc: if i % 2 == 0 { wide } else { i },
                        ea: wide,
                        target: u64::MAX - i,
                    }
                })
                .collect();
            let bytes = encode_raw(&records);
            assert!(bytes.len() > 2 * WINDOW_BYTES, "{} bytes", bytes.len());
            let want = reference_decode(&bytes).expect("valid encoding");
            assert_eq!(want.len(), records.len());
            assert_eq!(read_trace(&bytes).as_ref(), Ok(&want));
            for batch in BATCHES {
                assert_eq!(drain_chunked(&bytes[..], batch).as_ref(), Ok(&want), "batch {batch}");
                let reader = RaggedReads { data: &bytes, k: 40, state: batch as u64 };
                assert_eq!(drain_chunked(reader, batch).as_ref(), Ok(&want), "ragged, {batch}");
            }
        }

        proptest! {
            #[test]
            fn raw_records_decode_like_the_reference(
                records in vec(arb_raw(), 0..150usize),
                k in 1usize..41,
                seed in any::<u64>(),
            ) {
                let bytes = encode_raw(&records);
                prop_assert!(reference_decode(&bytes).is_ok());
                check_all_paths(&bytes, k, seed);
            }

            #[test]
            fn damaged_raw_records_fail_like_the_reference(
                records in vec(arb_raw(), 0..60usize),
                damage in vec((any::<u64>(), 1u16..256), 1..4usize),
                cut in any::<u64>(),
                k in 1usize..41,
                seed in any::<u64>(),
            ) {
                // A few flipped bytes, then a cut at any point (or none):
                // every path yields the reference's records or its error.
                let mut bytes = encode_raw(&records);
                for (at, flip) in damage {
                    let i = (at % bytes.len() as u64) as usize;
                    bytes[i] ^= flip as u8;
                }
                bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
                check_all_paths(&bytes, k, seed);
            }

            #[test]
            fn every_path_hashes_every_byte_it_consumed(
                records in vec(arb_raw(), 0..60usize),
                damage in vec((any::<u64>(), 1u16..256), 0..3usize),
                tail in vec(any::<u8>(), 0..48usize),
                cut in any::<u64>(),
                k in 1usize..41,
                seed in any::<u64>(),
            ) {
                // Flipped bytes, bytes past the last record, then a cut
                // at any point (or none): wherever the decode succeeds,
                // its checksum is `fnv64` of the whole buffer.
                let mut bytes = encode_raw(&records);
                bytes.extend_from_slice(&tail);
                for (at, flip) in damage {
                    let i = (at % bytes.len() as u64) as usize;
                    bytes[i] ^= flip as u8;
                }
                bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
                let whole = read_trace_hashed(&bytes).map(|(t, h)| (t.to_records(), h));
                if let Ok((_, checksum)) = &whole {
                    prop_assert_eq!(*checksum, fnv64(&bytes));
                }
                let reader = RaggedReads { data: &bytes, k, state: seed };
                let chunked = drain_and_finish(reader, 7)
                    .map(|(records, digest)| (records, digest.checksum, digest.bytes));
                prop_assert_eq!(
                    chunked,
                    whole.map(|(records, checksum)| (records, checksum, bytes.len() as u64))
                );
            }
        }
    }

    /// The checksum each pass folds in as it decodes or encodes, against
    /// `fnv64` over the same bytes.
    mod checksum {
        use super::*;
        use crate::gen::{ContextCopy, WorkloadGen};
        use crate::hash::fnv64;

        /// An encoding spanning several read windows.
        fn long_encoding() -> Vec<u8> {
            let bytes = write_trace_packed(&ContextCopy::default().generate_packed(30_001, 5));
            assert!(bytes.len() > 2 * WINDOW_BYTES + 1, "{} bytes", bytes.len());
            bytes
        }

        fn digest_of(bytes: &[u8]) -> ByteDigest {
            ByteDigest { checksum: fnv64(bytes), bytes: bytes.len() as u64 }
        }

        /// Offset of the first record at or past `from`: the encoding of
        /// a prefix of the records is a prefix of the encoding.
        fn record_start(bytes: &[u8], from: usize) -> usize {
            let records = read_trace(bytes).unwrap();
            let offset = |n: usize| write_trace(&records[..n]).len();
            let (mut lo, mut hi) = (0, records.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if offset(mid) < from {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            assert!(lo < records.len(), "encoding shorter than {from} bytes");
            offset(lo)
        }

        /// Damaged copies of `bytes`: one flipped bit at the first byte,
        /// in the record count, at either side of the first window
        /// refill and at the last byte; one byte, then more than a window
        /// of bytes, appended; a cut inside a record.
        fn damaged(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
            let mut out = Vec::new();
            for at in [0, 5, WINDOW_BYTES - 1, WINDOW_BYTES, WINDOW_BYTES + 1, bytes.len() - 1] {
                let mut bad = bytes.to_vec();
                bad[at] ^= 0x01;
                out.push((format!("flip at {at}"), bad));
            }
            let mut longer = bytes.to_vec();
            longer.push(0);
            out.push(("one trailing byte".into(), longer));
            // Past the last record by more than a window: read only by
            // `finish`.
            let mut longer = bytes.to_vec();
            longer.extend((0..WINDOW_BYTES + 3).map(|i| i as u8));
            out.push(("a window of trailing bytes".into(), longer));
            let cut = record_start(bytes, bytes.len() / 2) + 1;
            out.push((format!("cut at {cut}"), bytes[..cut].to_vec()));
            out
        }

        #[test]
        fn every_pass_hands_back_the_fnv64_of_the_whole_buffer() {
            let bytes = long_encoding();
            let trace = read_trace_packed(&bytes).unwrap();
            assert_eq!(write_trace_hashed(&trace), (bytes.clone(), fnv64(&bytes)));
            assert_eq!(read_trace_hashed(&bytes).map(|(_, h)| h), Ok(fnv64(&bytes)));
            let records = trace.to_records();
            for k in [1usize, 7, 40, 4_096, WINDOW_BYTES + 1] {
                for chunk in [997usize, 65_536] {
                    let reader = RaggedReads { data: &bytes, k, state: k as u64 };
                    let got = drain_and_finish(reader, chunk);
                    assert_eq!(
                        got,
                        Ok((records.clone(), digest_of(&bytes))),
                        "k {k} chunk {chunk}"
                    );
                }
            }
            // No records: the header alone.
            let empty = write_trace(&[]);
            assert_eq!(drain_and_finish(&empty[..], 64), Ok((Vec::new(), digest_of(&empty))));
        }

        #[test]
        fn a_finish_before_the_last_record_hashes_the_rest_undecoded() {
            let bytes = long_encoding();
            let mut dec =
                ChunkedDecoder::new(RaggedReads { data: &bytes, k: 40, state: 3 }).unwrap();
            assert_eq!(dec.next_chunk(1_000).unwrap().map(|c| c.len()), Some(1_000));
            assert_eq!(dec.finish().unwrap(), digest_of(&bytes));
        }

        #[test]
        fn damaged_buffers_fail_or_hash_every_byte() {
            let bytes = long_encoding();
            for (what, bad) in damaged(&bytes) {
                assert_ne!(fnv64(&bad), fnv64(&bytes), "{what}");
                let whole = read_trace_hashed(&bad).map(|(t, h)| (t.to_records(), h));
                if let Ok((_, checksum)) = &whole {
                    assert_eq!(*checksum, fnv64(&bad), "{what}");
                }
                for k in [1usize, 40, 5_000] {
                    let reader = RaggedReads { data: &bad, k, state: k as u64 };
                    let chunked = drain_and_finish(reader, 997);
                    let want = whole.clone().map(|(records, _)| (records, digest_of(&bad)));
                    assert_eq!(chunked, want, "{what}, k {k}");
                }
            }
        }
    }
}
