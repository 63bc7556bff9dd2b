//! Length-prefixed wire protocol for `chirp-serve`.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! magic   : u8   0xC5
//! version : u8   1
//! tag     : u8   message discriminant
//! len     : u32 LE  body length in bytes (capped at MAX_FRAME_BYTES)
//! body    : len bytes
//! ```
//!
//! Bodies are flat little-endian encodings, written straight behind the
//! header into one buffer and read back through a bounds-checked cursor
//! over the received bytes. Strings carry a `u32` length prefix; `f64`
//! fields travel as their IEEE-754 bit pattern via [`f64::to_bits`], so
//! MPKI values round-trip **bit-identically** — the loopback test
//! compares server verdicts to direct `run_suite` results with `==` on
//! `f64`.
//!
//! A trace upload is *chunked*: the client sends [`Request::Submit`]
//! (which declares the encoded byte and record totals so the server can
//! run admission **before** buffering anything), waits for
//! [`Response::Go`] or [`Response::Busy`], then streams the `CHRP` codec
//! bytes as [`Request::TraceChunk`] frames terminated by
//! [`Request::TraceEnd`]. Admission-before-transfer is what makes
//! `BUSY` a cheap backpressure signal instead of an after-the-fact OOM.

use std::fmt;
use std::io::{Read, Write};

/// First byte of every frame.
pub const WIRE_MAGIC: u8 = 0xC5;
/// Protocol version; bumped on any incompatible change.
pub const WIRE_VERSION: u8 = 1;
/// Upper bound on a frame body. Large traces are streamed as multiple
/// chunk frames, so no legitimate frame approaches this.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;
/// Chunk size the client library uses when streaming trace bytes.
pub const TRACE_CHUNK_BYTES: usize = 64 << 10;

/// Errors produced while encoding, decoding or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket/stream failed.
    Io(std::io::Error),
    /// The peer closed the connection mid-frame.
    UnexpectedEof,
    /// A frame did not start with [`WIRE_MAGIC`].
    BadMagic(u8),
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u8),
    /// Unknown message discriminant.
    BadTag(u8),
    /// A declared frame length exceeded [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// A frame body ended before its fields did, or carried extra bytes.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::UnexpectedEof => write!(f, "connection closed mid-frame"),
            WireError::BadMagic(b) => write!(f, "frame does not start with magic (got {b:#04x})"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::Malformed(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::UnexpectedEof
        } else {
            WireError::Io(e)
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Announces a chunked trace upload. The server answers [`Response::Go`]
    /// (stream the chunks) or [`Response::Busy`] (admission rejected —
    /// nothing was transferred).
    Submit {
        /// Benchmark identity used for ledger keys and reporting.
        name: String,
        /// Category label (see `chirp_trace::Category::label`).
        category: String,
        /// Seed for randomised policies, part of run identity by
        /// convention: clients must derive `name` from the trace content
        /// and seed (the CLI uses `upload.<hash>.s<seed>`).
        seed: u64,
        /// Policy names to evaluate (see `PolicyKind::parse`).
        policies: Vec<String>,
        /// Declared total `CHRP` bytes about to be streamed.
        trace_bytes: u64,
        /// Declared record count (admission sizes the decoded trace).
        records: u64,
        /// Request a telemetry summary in the verdict.
        telemetry: bool,
    },
    /// One fragment of the `CHRP` byte stream announced by `Submit`.
    TraceChunk(Vec<u8>),
    /// Terminates the chunk stream; the server validates the total length
    /// against the declaration and then simulates.
    TraceEnd,
    /// Runs policies over a trace already in the server's archive, named
    /// by content hash — no bytes travel.
    RunArchived {
        /// Content hash of the archived `CHRP` bytes
        /// (`trace_tool hash <file>` prints it).
        hash: u64,
        /// Benchmark identity for ledger keys and reporting.
        name: String,
        /// Category label.
        category: String,
        /// Seed for randomised policies.
        seed: u64,
        /// Policy names to evaluate.
        policies: Vec<String>,
        /// Request a telemetry summary in the verdict.
        telemetry: bool,
    },
    /// Asks for the server's metric snapshot.
    Stats,
    /// Asks the server to stop: it acknowledges, stops accepting
    /// connections, lets in-flight requests on other sessions finish,
    /// and closes this session.
    Shutdown,
}

/// One policy's result inside a [`VerdictReply`] — a faithful wire image
/// of `chirp_sim::RunResult` plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyVerdict {
    /// Policy name as evaluated.
    pub policy: String,
    /// True when the result came from the run ledger without simulating.
    pub from_ledger: bool,
    /// Instructions in the measurement window.
    pub instructions: u64,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// L2 TLB hits.
    pub hits: u64,
    /// L2 TLB misses.
    pub misses: u64,
    /// Dead evictions.
    pub dead_evictions: u64,
    /// Cold fills.
    pub cold_fills: u64,
    /// L2 TLB accesses in the measurement window.
    pub l2_accesses: u64,
    /// Prediction-table accesses over the whole run.
    pub prediction_table_accesses: u64,
    /// L2 TLB accesses over the whole run.
    pub l2_accesses_total: u64,
    /// Whole-run TLB efficiency (bit-exact over the wire).
    pub efficiency: f64,
    /// Misses per 1000 instructions (bit-exact over the wire).
    pub mpki: f64,
}

/// The server's answer to a `Submit` or `RunArchived` request.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictReply {
    /// Benchmark identity the results were keyed under.
    pub name: String,
    /// Content hash of the trace's `CHRP` bytes — submit once, then
    /// [`Request::RunArchived`] with this hash.
    pub content_hash: u64,
    /// Records in the trace.
    pub trace_records: u64,
    /// Per-policy results, in request order.
    pub verdicts: Vec<PolicyVerdict>,
    /// Policy with the lowest MPKI (first on ties).
    pub best_policy: String,
    /// Rendered telemetry summary, when the request asked for one.
    pub summary: Option<String>,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Admission granted: stream the announced chunks now.
    Go,
    /// Admission rejected — backpressure, not failure. Retry after the
    /// hinted delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
        /// Bytes of trace work currently admitted.
        in_flight_bytes: u64,
        /// The server's admission budget.
        budget_bytes: u64,
    },
    /// Results for a submitted or archived trace.
    Verdict(VerdictReply),
    /// The request failed; the connection stays usable unless the error
    /// was a protocol violation.
    Error {
        /// Machine-readable code (see the `err` module constants).
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Metric snapshot, rendered as one `name value` pair per line.
    StatsReply(String),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck,
}

/// Error codes carried by [`Response::Error`].
pub mod err {
    /// Request was structurally valid but semantically unusable.
    pub const BAD_REQUEST: u16 = 1;
    /// A policy name did not parse.
    pub const UNKNOWN_POLICY: u16 = 2;
    /// No archived trace under the given content hash.
    pub const NOT_FOUND: u16 = 3;
    /// Uploaded bytes did not decode as a `CHRP` trace.
    pub const BAD_TRACE: u16 = 4;
    /// Frames arrived in an order the protocol forbids.
    pub const PROTOCOL: u16 = 5;
    /// Server-side failure (store I/O, ...).
    pub const INTERNAL: u16 = 6;
    /// The server already has its cap of sessions open and closed this
    /// connection; retry once another client disconnects.
    pub const TOO_MANY_SESSIONS: u16 = 7;
}

// --- request tags ---
const TAG_PING: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_TRACE_CHUNK: u8 = 0x03;
const TAG_TRACE_END: u8 = 0x04;
const TAG_RUN_ARCHIVED: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;
// --- response tags ---
const TAG_PONG: u8 = 0x81;
const TAG_GO: u8 = 0x82;
const TAG_BUSY: u8 = 0x83;
const TAG_VERDICT: u8 = 0x84;
const TAG_ERROR: u8 = 0x85;
const TAG_STATS_REPLY: u8 = 0x86;
const TAG_SHUTDOWN_ACK: u8 = 0x87;

/// Bytes in a frame header: magic, version, tag and the `u32` body length.
const HEADER_BYTES: usize = 7;

/// An empty frame: header bytes reserved, to be filled by [`seal`] once
/// the body behind them is written.
fn frame() -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + 64);
    buf.resize(HEADER_BYTES, 0);
    buf
}

/// Writes the header of a frame built on [`frame`].
fn seal(mut buf: Vec<u8>, tag: u8) -> Vec<u8> {
    let len = (buf.len() - HEADER_BYTES) as u32;
    buf[..3].copy_from_slice(&[WIRE_MAGIC, WIRE_VERSION, tag]);
    buf[3..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    buf
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_strs(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.push(u8::from(b));
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Bounds-checked reader over a frame body: every take checks the bytes
/// left before reading, so a short or hostile body is an error, never a
/// panic.
struct Body<'a> {
    rest: &'a [u8],
}

impl<'a> Body<'a> {
    fn new(bytes: &'a [u8]) -> Body<'a> {
        Body { rest: bytes }
    }

    /// The next `n` bytes, or `Malformed(what)` when fewer remain.
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Malformed(what));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        Ok(self.take(N, what)?.try_into().expect("take returns exactly N bytes"))
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8 past end")?[0])
    }

    fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool out of range")),
        }
    }

    fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array("u16 past end")?))
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array("u32 past end")?))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array("u64 past end")?))
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.take_u32()? as usize;
        Ok(self.take(len, "byte field past end")?.to_vec())
    }

    fn take_str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.take_bytes()?).map_err(|_| WireError::Malformed("non-utf8 string"))
    }

    fn take_strs(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.take_u32()? as usize;
        // Each entry needs at least its 4-byte length prefix; this bounds
        // allocation against a hostile count.
        if n > self.rest.len() / 4 {
            return Err(WireError::Malformed("string list count past end"));
        }
        (0..n).map(|_| self.take_str()).collect()
    }

    fn finish(self) -> Result<(), WireError> {
        if !self.rest.is_empty() {
            return Err(WireError::Malformed("trailing bytes after body"));
        }
        Ok(())
    }
}

/// The whole frame of `req`, header included.
fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = frame();
    let tag = match req {
        Request::Ping => TAG_PING,
        Request::Submit { name, category, seed, policies, trace_bytes, records, telemetry } => {
            put_str(&mut buf, name);
            put_str(&mut buf, category);
            put_u64(&mut buf, *seed);
            put_strs(&mut buf, policies);
            put_u64(&mut buf, *trace_bytes);
            put_u64(&mut buf, *records);
            put_bool(&mut buf, *telemetry);
            TAG_SUBMIT
        }
        Request::TraceChunk(bytes) => {
            let mut out = Vec::new();
            write_trace_chunk(&mut out, bytes).expect("a Vec takes every write");
            return out;
        }
        Request::TraceEnd => TAG_TRACE_END,
        Request::RunArchived { hash, name, category, seed, policies, telemetry } => {
            put_u64(&mut buf, *hash);
            put_str(&mut buf, name);
            put_str(&mut buf, category);
            put_u64(&mut buf, *seed);
            put_strs(&mut buf, policies);
            put_bool(&mut buf, *telemetry);
            TAG_RUN_ARCHIVED
        }
        Request::Stats => TAG_STATS,
        Request::Shutdown => TAG_SHUTDOWN,
    };
    seal(buf, tag)
}

/// Writes one [`Request::TraceChunk`] frame carrying `chunk`, copied once
/// into the frame from the borrowed slice: the bytes
/// `write_request(w, &Request::TraceChunk(chunk.to_vec()))` writes, which
/// encodes through this function too.
pub(crate) fn write_trace_chunk<W: Write>(w: &mut W, chunk: &[u8]) -> Result<(), WireError> {
    let mut buf = frame();
    buf.reserve(4 + chunk.len());
    put_u32(&mut buf, chunk.len() as u32);
    buf.extend_from_slice(chunk);
    write_frame(w, &seal(buf, TAG_TRACE_CHUNK))
}

fn decode_request(tag: u8, body: &[u8]) -> Result<Request, WireError> {
    let mut b = Body::new(body);
    let req = match tag {
        TAG_PING => Request::Ping,
        TAG_SUBMIT => Request::Submit {
            name: b.take_str()?,
            category: b.take_str()?,
            seed: b.take_u64()?,
            policies: b.take_strs()?,
            trace_bytes: b.take_u64()?,
            records: b.take_u64()?,
            telemetry: b.take_bool()?,
        },
        TAG_TRACE_CHUNK => Request::TraceChunk(b.take_bytes()?),
        TAG_TRACE_END => Request::TraceEnd,
        TAG_RUN_ARCHIVED => Request::RunArchived {
            hash: b.take_u64()?,
            name: b.take_str()?,
            category: b.take_str()?,
            seed: b.take_u64()?,
            policies: b.take_strs()?,
            telemetry: b.take_bool()?,
        },
        TAG_STATS => Request::Stats,
        TAG_SHUTDOWN => Request::Shutdown,
        other => return Err(WireError::BadTag(other)),
    };
    b.finish()?;
    Ok(req)
}

/// The whole frame of `resp`, header included.
fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = frame();
    let tag = match resp {
        Response::Pong => TAG_PONG,
        Response::Go => TAG_GO,
        Response::Busy { retry_after_ms, in_flight_bytes, budget_bytes } => {
            put_u32(&mut buf, *retry_after_ms);
            put_u64(&mut buf, *in_flight_bytes);
            put_u64(&mut buf, *budget_bytes);
            TAG_BUSY
        }
        Response::Verdict(v) => {
            put_str(&mut buf, &v.name);
            put_u64(&mut buf, v.content_hash);
            put_u64(&mut buf, v.trace_records);
            put_u32(&mut buf, v.verdicts.len() as u32);
            for p in &v.verdicts {
                put_str(&mut buf, &p.policy);
                put_bool(&mut buf, p.from_ledger);
                for field in [
                    p.instructions,
                    p.cycles,
                    p.hits,
                    p.misses,
                    p.dead_evictions,
                    p.cold_fills,
                    p.l2_accesses,
                    p.prediction_table_accesses,
                    p.l2_accesses_total,
                ] {
                    put_u64(&mut buf, field);
                }
                put_f64(&mut buf, p.efficiency);
                put_f64(&mut buf, p.mpki);
            }
            put_str(&mut buf, &v.best_policy);
            match &v.summary {
                Some(s) => {
                    put_bool(&mut buf, true);
                    put_str(&mut buf, s);
                }
                None => put_bool(&mut buf, false),
            }
            TAG_VERDICT
        }
        Response::Error { code, message } => {
            buf.extend_from_slice(&code.to_le_bytes());
            put_str(&mut buf, message);
            TAG_ERROR
        }
        Response::StatsReply(text) => {
            put_str(&mut buf, text);
            TAG_STATS_REPLY
        }
        Response::ShutdownAck => TAG_SHUTDOWN_ACK,
    };
    seal(buf, tag)
}

fn decode_response(tag: u8, body: &[u8]) -> Result<Response, WireError> {
    let mut b = Body::new(body);
    let resp = match tag {
        TAG_PONG => Response::Pong,
        TAG_GO => Response::Go,
        TAG_BUSY => Response::Busy {
            retry_after_ms: b.take_u32()?,
            in_flight_bytes: b.take_u64()?,
            budget_bytes: b.take_u64()?,
        },
        TAG_VERDICT => {
            let name = b.take_str()?;
            let content_hash = b.take_u64()?;
            let trace_records = b.take_u64()?;
            let n = b.take_u32()? as usize;
            if n > MAX_FRAME_BYTES as usize / 8 {
                return Err(WireError::Malformed("verdict count past end"));
            }
            let mut verdicts = Vec::with_capacity(n);
            for _ in 0..n {
                verdicts.push(PolicyVerdict {
                    policy: b.take_str()?,
                    from_ledger: b.take_bool()?,
                    instructions: b.take_u64()?,
                    cycles: b.take_u64()?,
                    hits: b.take_u64()?,
                    misses: b.take_u64()?,
                    dead_evictions: b.take_u64()?,
                    cold_fills: b.take_u64()?,
                    l2_accesses: b.take_u64()?,
                    prediction_table_accesses: b.take_u64()?,
                    l2_accesses_total: b.take_u64()?,
                    efficiency: b.take_f64()?,
                    mpki: b.take_f64()?,
                });
            }
            let best_policy = b.take_str()?;
            let summary = if b.take_bool()? { Some(b.take_str()?) } else { None };
            Response::Verdict(VerdictReply {
                name,
                content_hash,
                trace_records,
                verdicts,
                best_policy,
                summary,
            })
        }
        TAG_ERROR => Response::Error { code: b.take_u16()?, message: b.take_str()? },
        TAG_STATS_REPLY => Response::StatsReply(b.take_str()?),
        TAG_SHUTDOWN_ACK => Response::ShutdownAck,
        other => return Err(WireError::BadTag(other)),
    };
    b.finish()?;
    Ok(resp)
}

fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// One read into `buf`, retried when interrupted by a signal.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// Reads frames, keeping a partly read frame across read errors.
///
/// A socket with a read timeout fails a read that waits too long, also
/// in the middle of a frame. The bytes read so far stay here, so the next
/// call resumes the frame where the timeout cut it off: a client that
/// pauses inside a frame loses nothing.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; HEADER_BYTES],
    /// Header bytes read so far.
    header_len: usize,
    /// The body, allocated at its declared length once the header is in.
    body: Vec<u8>,
    /// Body bytes read so far.
    body_len: usize,
}

impl FrameReader {
    /// Reads the rest of the current frame. `Ok(None)` means the peer
    /// closed the connection cleanly *between* frames; closing mid-frame
    /// is [`WireError::UnexpectedEof`]. On an I/O error the bytes read so
    /// far are kept for the next call.
    fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        while self.header_len < HEADER_BYTES {
            // Never reads past the header: the body length is not known yet.
            let n = read_some(r, &mut self.header[self.header_len..])?;
            if n == 0 {
                return if self.header_len == 0 { Ok(None) } else { Err(WireError::UnexpectedEof) };
            }
            if self.header[0] != WIRE_MAGIC {
                return Err(WireError::BadMagic(self.header[0]));
            }
            self.header_len += n;
            if self.header_len == HEADER_BYTES {
                let version = self.header[1];
                if version != WIRE_VERSION {
                    return Err(WireError::UnsupportedVersion(version));
                }
                let len = u32::from_le_bytes(self.header[3..].try_into().expect("4 length bytes"));
                if len > MAX_FRAME_BYTES {
                    return Err(WireError::Oversized(len));
                }
                self.body = vec![0u8; len as usize];
            }
        }
        while self.body_len < self.body.len() {
            let n = read_some(r, &mut self.body[self.body_len..])?;
            if n == 0 {
                return Err(WireError::UnexpectedEof);
            }
            self.body_len += n;
        }
        let tag = self.header[2];
        self.header_len = 0;
        self.body_len = 0;
        Ok(Some((tag, std::mem::take(&mut self.body))))
    }

    /// Reads one request frame; `Ok(None)` on clean close between frames.
    pub fn read_request<R: Read>(&mut self, r: &mut R) -> Result<Option<Request>, WireError> {
        match self.read_frame(r)? {
            None => Ok(None),
            Some((tag, body)) => decode_request(tag, &body).map(Some),
        }
    }
}

/// Writes one request frame.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), WireError> {
    write_frame(w, &encode_request(req))
}

/// Reads one request frame; `Ok(None)` on clean close between frames.
/// A read error mid-frame loses the partial frame: a reader that expects
/// timeouts keeps a [`FrameReader`] instead.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, WireError> {
    FrameReader::default().read_request(r)
}

/// Writes one response frame.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), WireError> {
    write_frame(w, &encode_response(resp))
}

/// Reads one response frame; `Ok(None)` on clean close between frames.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, WireError> {
    match FrameReader::default().read_frame(r)? {
        None => Ok(None),
        Some((tag, body)) => decode_response(tag, &body).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_bytes(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        write_request(&mut out, req).unwrap();
        out
    }

    fn response_bytes(resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        write_response(&mut out, resp).unwrap();
        out
    }

    fn sample_verdict() -> Response {
        Response::Verdict(VerdictReply {
            name: "web_serve.1a2b#s3".into(),
            content_hash: 0xdead_beef_cafe_f00d,
            trace_records: 10_000,
            verdicts: vec![PolicyVerdict {
                policy: "chirp".into(),
                from_ledger: true,
                instructions: 5_000,
                cycles: 9_000,
                hits: 400,
                misses: 17,
                dead_evictions: 3,
                cold_fills: 2,
                l2_accesses: 417,
                prediction_table_accesses: 120,
                l2_accesses_total: 900,
                efficiency: 0.875,
                mpki: 3.4,
            }],
            best_policy: "chirp".into(),
            summary: Some("sessions 1".into()),
        })
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Submit {
                name: "upload.abc".into(),
                category: "web".into(),
                seed: 7,
                policies: vec!["lru".into(), "chirp".into()],
                trace_bytes: 12_345,
                records: 9_000,
                telemetry: true,
            },
            Request::TraceChunk(vec![1, 2, 3, 255]),
            Request::TraceChunk(Vec::new()),
            Request::TraceEnd,
            Request::RunArchived {
                hash: u64::MAX,
                name: String::new(),
                category: "crypto".into(),
                seed: 0,
                policies: Vec::new(),
                telemetry: false,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in &reqs {
            let bytes = request_bytes(req);
            let mut r = &bytes[..];
            assert_eq!(read_request(&mut r).unwrap().as_ref(), Some(req));
            assert!(r.is_empty(), "frame must consume exactly its bytes");
        }
    }

    /// The borrowed chunk encoder writes exactly the owned request's frame.
    #[test]
    fn borrowed_trace_chunk_encodes_like_the_owned_request() {
        for len in [0, 1, TRACE_CHUNK_BYTES] {
            let chunk: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut borrowed = Vec::new();
            write_trace_chunk(&mut borrowed, &chunk).unwrap();
            assert_eq!(borrowed, request_bytes(&Request::TraceChunk(chunk)), "{len}-byte chunk");
            assert_eq!(borrowed.len(), HEADER_BYTES + 4 + len);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Pong,
            Response::Go,
            Response::Busy { retry_after_ms: 50, in_flight_bytes: 1 << 20, budget_bytes: 1 << 21 },
            sample_verdict(),
            Response::Error { code: err::NOT_FOUND, message: "no such trace".into() },
            Response::StatsReply("requests 3\n".into()),
            Response::ShutdownAck,
        ];
        for resp in &resps {
            let bytes = response_bytes(resp);
            let mut r = &bytes[..];
            assert_eq!(read_response(&mut r).unwrap().as_ref(), Some(resp));
            assert!(r.is_empty());
        }
    }

    #[test]
    fn mpki_travels_bit_identically() {
        // A value with no short decimal representation must survive.
        let ugly = f64::from_bits(0x3FF5_55AA_1234_5678);
        let mut v = sample_verdict();
        if let Response::Verdict(ref mut reply) = v {
            reply.verdicts[0].mpki = ugly;
        }
        let bytes = response_bytes(&v);
        match read_response(&mut &bytes[..]).unwrap().unwrap() {
            Response::Verdict(reply) => {
                assert_eq!(reply.verdicts[0].mpki.to_bits(), ugly.to_bits());
            }
            other => panic!("expected verdict, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_is_none_mid_frame_is_error() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_request(&mut empty), Ok(None)));
        let bytes = request_bytes(&Request::Ping);
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            assert!(read_request(&mut r).is_err(), "prefix of {cut} bytes must error");
        }
    }

    #[test]
    fn bad_magic_version_tag_and_oversize_rejected() {
        let mut bytes = request_bytes(&Request::Ping);
        bytes[0] = 0x00;
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::BadMagic(0))));

        let mut bytes = request_bytes(&Request::Ping);
        bytes[1] = 9;
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::UnsupportedVersion(9))));

        let mut bytes = request_bytes(&Request::Ping);
        bytes[2] = 0x7f;
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::BadTag(0x7f))));

        let mut bytes = request_bytes(&Request::Ping);
        bytes[3..7].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::Oversized(_))));
    }

    #[test]
    fn trailing_bytes_in_body_rejected() {
        let mut bytes = request_bytes(&Request::TraceEnd);
        // Grow the declared body by one byte and append it.
        bytes[3..7].copy_from_slice(&1u32.to_le_bytes());
        bytes.push(0xAA);
        assert!(matches!(read_request(&mut &bytes[..]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn hostile_string_count_is_bounded() {
        // A Submit body whose policy count claims u32::MAX entries must be
        // rejected before allocating.
        let mut buf = Vec::new();
        put_str(&mut buf, "n");
        put_str(&mut buf, "web");
        put_u64(&mut buf, 0);
        put_u32(&mut buf, u32::MAX); // policy count
        let err = decode_request(TAG_SUBMIT, &buf).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    /// `Read` adapter that returns at most `stride` bytes per call — the
    /// split-read torture the kernel can inflict on any TCP stream.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        stride: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.stride).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn split_reads_reassemble() {
        let req = Request::Submit {
            name: "x".into(),
            category: "web".into(),
            seed: 1,
            policies: vec!["lru".into()],
            trace_bytes: 10,
            records: 2,
            telemetry: false,
        };
        let bytes = request_bytes(&req);
        for stride in 1..=4 {
            let mut r = Dribble { data: &bytes, pos: 0, stride };
            assert_eq!(read_request(&mut r).unwrap(), Some(req.clone()), "stride {stride}");
        }
    }

    /// `Read` adapter that fails every other call with `WouldBlock`, as a
    /// socket read timeout does, and otherwise returns `stride` bytes.
    struct Stalling<'a> {
        data: &'a [u8],
        pos: usize,
        stride: usize,
        stall: bool,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.stride).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts() {
        let reqs = [
            Request::Ping,
            Request::TraceChunk(vec![7; 40]),
            Request::RunArchived {
                hash: 3,
                name: "n".into(),
                category: "web".into(),
                seed: 1,
                policies: vec!["lru".into()],
                telemetry: true,
            },
        ];
        let bytes: Vec<u8> = reqs.iter().flat_map(request_bytes).collect();
        for stride in [1, 3, 7] {
            let mut r = Stalling { data: &bytes, pos: 0, stride, stall: false };
            let mut frames = FrameReader::default();
            let mut got = Vec::new();
            let mut timeouts = 0;
            loop {
                match frames.read_request(&mut r) {
                    Ok(Some(req)) => got.push(req),
                    Ok(None) => break,
                    Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        timeouts += 1;
                    }
                    Err(e) => panic!("stride {stride}: {e}"),
                }
            }
            assert_eq!(got, reqs, "stride {stride}");
            assert!(timeouts > reqs.len(), "stride {stride}: timeouts fell inside frames");
        }
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Wire-typical identifier alphabet (the vendored proptest stub
        /// has no regex strategies, so strings are built from index
        /// vectors over this charset).
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._#-";

        fn arb_string(max: usize) -> impl Strategy<Value = String> {
            vec(0usize..CHARSET.len(), 0..max)
                .prop_map(|ix| ix.into_iter().map(|i| CHARSET[i] as char).collect())
        }

        fn arb_strings() -> impl Strategy<Value = Vec<String>> {
            vec(arb_string(12), 0..5)
        }

        fn arb_request() -> impl Strategy<Value = Request> {
            prop_oneof![
                Just(Request::Ping),
                Just(Request::TraceEnd),
                Just(Request::Stats),
                Just(Request::Shutdown),
                vec(any::<u8>(), 0..2048).prop_map(Request::TraceChunk),
                (
                    (arb_string(24), arb_string(10), any::<u64>()),
                    (arb_strings(), any::<u64>(), any::<u64>(), any::<bool>())
                )
                    .prop_map(
                        |((name, category, seed), (policies, trace_bytes, records, telemetry))| {
                            Request::Submit {
                                name,
                                category,
                                seed,
                                policies,
                                trace_bytes,
                                records,
                                telemetry,
                            }
                        }
                    ),
                ((arb_string(24), arb_string(10)), (any::<u64>(), any::<u64>(), arb_strings()))
                    .prop_map(|((name, category), (hash, seed, policies))| {
                        Request::RunArchived {
                            hash,
                            name,
                            category,
                            seed,
                            policies,
                            telemetry: false,
                        }
                    }),
            ]
        }

        fn arb_verdict() -> impl Strategy<Value = PolicyVerdict> {
            (
                (arb_string(10), any::<bool>()),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                // f64 fields generated as raw bit patterns (NaNs included)
                // to prove the codec is a pure bit transport.
                (any::<u64>(), any::<u64>()),
            )
                .prop_map(|((policy, from_ledger), a, b, (eff_bits, mpki_bits))| {
                    PolicyVerdict {
                        policy,
                        from_ledger,
                        instructions: a.0,
                        cycles: a.1,
                        hits: a.2,
                        misses: a.3,
                        dead_evictions: a.4,
                        cold_fills: b.0,
                        l2_accesses: b.1,
                        prediction_table_accesses: b.2,
                        l2_accesses_total: b.3,
                        efficiency: f64::from_bits(eff_bits),
                        mpki: f64::from_bits(mpki_bits),
                    }
                })
        }

        fn arb_summary() -> impl Strategy<Value = Option<String>> {
            prop_oneof![Just(None::<String>), arb_string(60).prop_map(Some)]
        }

        fn arb_response() -> impl Strategy<Value = Response> {
            prop_oneof![
                Just(Response::Pong),
                Just(Response::Go),
                Just(Response::ShutdownAck),
                (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(r, i, b)| Response::Busy {
                    retry_after_ms: r,
                    in_flight_bytes: i,
                    budget_bytes: b,
                }),
                (any::<u16>(), arb_string(40))
                    .prop_map(|(code, message)| Response::Error { code, message }),
                arb_string(200).prop_map(Response::StatsReply),
                (
                    (arb_string(24), any::<u64>(), any::<u64>()),
                    vec(arb_verdict(), 0..4),
                    (arb_string(10), arb_summary())
                )
                    .prop_map(
                        |((name, hash, records), verdicts, (best, summary))| {
                            Response::Verdict(VerdictReply {
                                name,
                                content_hash: hash,
                                trace_records: records,
                                verdicts,
                                best_policy: best,
                                summary,
                            })
                        }
                    ),
            ]
        }

        /// Compares responses with f64 fields by bit pattern (NaN-safe).
        fn bits_eq(a: &Response, b: &Response) -> bool {
            match (a, b) {
                (Response::Verdict(x), Response::Verdict(y)) => {
                    let key = |v: &VerdictReply| {
                        (
                            v.name.clone(),
                            v.content_hash,
                            v.trace_records,
                            v.best_policy.clone(),
                            v.summary.clone(),
                            v.verdicts
                                .iter()
                                .map(|p| {
                                    (
                                        p.policy.clone(),
                                        p.from_ledger,
                                        [
                                            p.instructions,
                                            p.cycles,
                                            p.hits,
                                            p.misses,
                                            p.dead_evictions,
                                            p.cold_fills,
                                            p.l2_accesses,
                                            p.prediction_table_accesses,
                                            p.l2_accesses_total,
                                            p.efficiency.to_bits(),
                                            p.mpki.to_bits(),
                                        ],
                                    )
                                })
                                .collect::<Vec<_>>(),
                        )
                    };
                    key(x) == key(y)
                }
                _ => a == b,
            }
        }

        proptest! {
            #[test]
            fn requests_roundtrip(req in arb_request()) {
                let bytes = request_bytes(&req);
                prop_assert_eq!(read_request(&mut &bytes[..]).unwrap(), Some(req));
            }

            #[test]
            fn requests_roundtrip_through_split_reads(
                req in arb_request(),
                stride in 1usize..7,
            ) {
                let bytes = request_bytes(&req);
                let mut r = Dribble { data: &bytes, pos: 0, stride };
                prop_assert_eq!(read_request(&mut r).unwrap(), Some(req));
            }

            #[test]
            fn responses_roundtrip(resp in arb_response()) {
                let bytes = response_bytes(&resp);
                let decoded = read_response(&mut &bytes[..]).unwrap().unwrap();
                prop_assert!(bits_eq(&decoded, &resp), "decoded {:?} != {:?}", decoded, resp);
            }

            #[test]
            fn truncated_requests_error_cleanly(req in arb_request(), pick in any::<u64>()) {
                let bytes = request_bytes(&req);
                let cut = (pick % bytes.len() as u64) as usize;
                if cut > 0 && cut < bytes.len() {
                    // Must error (never panic, never decode a partial frame).
                    prop_assert!(read_request(&mut &bytes[..cut]).is_err());
                }
            }

            #[test]
            fn garbage_bodies_never_panic(tag in any::<u8>(), body in vec(any::<u8>(), 0..256)) {
                // Any (tag, body) pair must decode or error — no panics.
                let _ = decode_request(tag, &body);
                let _ = decode_response(tag, &body);
            }
        }
    }
}
