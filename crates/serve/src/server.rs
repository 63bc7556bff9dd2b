//! The admission-controlled simulation server.
//!
//! One blocking accept loop hands each data connection to a dedicated
//! session thread; a second listener (the *control socket*) answers
//! `Stats` and `Shutdown` without competing with trace uploads. All
//! sessions share one [`Store`]: the run ledger doubles as a response
//! cache — a (trace, policy, config) pair already in the ledger is
//! answered without simulating — and uploaded traces land in the
//! content-addressed archive keyed by the FNV-1a hash of their `CHRP`
//! bytes (the hash `trace_tool hash` prints), so clients can re-run them
//! with [`crate::wire::Request::RunArchived`] without re-uploading.
//!
//! Admission control happens **before** any trace bytes travel: `Submit`
//! declares its encoded and decoded sizes, and the server answers
//! [`Response::Busy`] instead of buffering when the declared cost would
//! push admitted bytes past `--mem-budget`. Like the scheduler's budget
//! (`chirp_sim::sched`), one request is always admitted when nothing is
//! in flight, so a single oversized trace degrades to serial service
//! rather than livelock.
//!
//! Each request touches its trace bytes once. An upload is hashed chunk by
//! chunk as it arrives; the run keys take their instruction count from the
//! `CHRP` header; the ledger is probed before any decode. Only the
//! policies the ledger does not answer run, in one streamed pass
//! ([`chirp_sim::run_stream_group`]) that decodes the bytes batch by batch
//! as the engine consumes them — never a whole decoded trace. An upload is
//! archived, and its runs appended to the ledger, only once that pass has
//! decoded every declared record; a full ledger hit on bytes the archive
//! already holds (same checksum and length) skips decoding altogether.
//! `RunArchived` streams the archived file the same way, checking its
//! checksum before the last batch is replayed.

use crate::wire::{
    self, err, read_request, write_response, FrameReader, Request, Response, VerdictReply,
    WireError,
};
use chirp_sim::sched::{run_items, WorkItem};
use chirp_sim::store_cache::{record_from_run, run_from_record, run_key};
use chirp_sim::{run_stream_group, BenchRun, PolicyKind, SimConfig, DEFAULT_STREAM_CHUNK};
use chirp_store::archive::ArchiveOutcome;
use chirp_store::{
    hex16, ArchiveTraceStream, EncodedTrace, EntryMeta, Fnv64, Store, StoreError, TraceArchive,
};
use chirp_telemetry::{Gauge, Registry};
use chirp_trace::{
    peek_record_count, Category, PackedTrace, SliceStream, StreamError, TraceStream,
};
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Address to bind the data listener on. Port 0 picks an ephemeral
    /// port; the bound address is reported by [`ServerHandle::addr`].
    pub bind: SocketAddr,
    /// `chirp-store` directory backing the ledger cache and trace
    /// archive (created if absent).
    pub store: PathBuf,
    /// Worker threads per simulation request.
    pub threads: usize,
    /// Admission budget: cap on bytes of trace work admitted across
    /// sessions (`None` = unbounded). Cost of a request = declared
    /// encoded bytes + the packed-trace estimate for its record count.
    pub mem_budget: Option<u64>,
    /// Backoff hint carried by `Busy` responses.
    pub retry_after_ms: u32,
    /// Simulator configuration shared by every request — part of ledger
    /// identity, so it must match the harness config for cache interop.
    pub sim: SimConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            store: PathBuf::from("results/serve-store"),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            mem_budget: None,
            retry_after_ms: 50,
            sim: SimConfig::default(),
        }
    }
}

/// Errors starting or stopping the server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io {
        /// What the server was doing.
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The backing store could not be opened.
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "serve i/o ({context}): {source}"),
            ServeError::Store(e) => write!(f, "serve store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> ServeError {
    move |source| ServeError::Io { context, source }
}

/// Read timeout on session sockets: how often a session waiting on its
/// client re-checks the stop flag, so it notices a shutdown promptly. A
/// timeout inside a frame loses nothing: the session's [`FrameReader`]
/// resumes the frame on the next read. A control connection gets the
/// same timeout and is closed when it expires, so a silent control
/// client cannot hold the one control thread.
const SESSION_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Write timeout on session and control sockets: a reply that cannot
/// make progress for this long means the client stopped reading, and the
/// failed write ends its connection. Without it, a client that floods
/// requests and never reads the replies would hold its session (and so
/// a shutdown), or the one control thread, for as long as it stays
/// connected.
const SESSION_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// State shared by the accept loop, the control loop and every session.
struct Shared {
    config: ServeConfig,
    store: Mutex<Store>,
    metrics: Registry,
    /// Bytes of trace work currently admitted; guarded by a mutex so
    /// check-and-reserve is atomic. The registry gauge mirrors it for
    /// `Stats`.
    admitted: Mutex<u64>,
    in_flight: Arc<Gauge>,
    /// Archive entries whose file failed to stream on a `RunArchived`
    /// (checksum, decode or I/O): no longer treated as archived, until an
    /// upload of the same bytes rewrites them. Locked after `store`, never
    /// before.
    distrusted: Mutex<HashSet<u64>>,
    stop: AtomicBool,
}

impl Shared {
    /// Tries to admit a request costing `cost` bytes. The *alone* rule
    /// mirrors the scheduler's: when nothing is in flight the request is
    /// admitted even over budget, so progress is guaranteed.
    fn admit(&self, cost: u64) -> Result<AdmitGuard<'_>, (u64, u64)> {
        let mut admitted = self.admitted.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(budget) = self.config.mem_budget {
            if *admitted > 0 && admitted.saturating_add(cost) > budget {
                return Err((*admitted, budget));
            }
        }
        *admitted += cost;
        self.in_flight.set(*admitted as i64);
        Ok(AdmitGuard { shared: self, cost })
    }

    fn lock_store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The manifest entry for `hash` in the locked `store`, unless its
    /// file has failed to stream since the server started.
    fn trusted_entry(&self, store: &Store, hash: u64) -> Option<EntryMeta> {
        let meta = store.archive.entry_meta(hash)?;
        let distrusted = self.distrusted.lock().unwrap_or_else(|e| e.into_inner());
        (!distrusted.contains(&hash)).then_some(meta)
    }

    /// Whether the archive holds trusted bytes with content hash `hash`
    /// and length `len`: bytes that decoded cleanly when archived.
    fn holds(&self, store: &Store, hash: u64, len: usize) -> bool {
        self.trusted_entry(store, hash) == Some(EntryMeta { checksum: hash, bytes: len as u64 })
    }

    fn release(&self, cost: u64) {
        let mut admitted = self.admitted.lock().unwrap_or_else(|e| e.into_inner());
        *admitted = admitted.saturating_sub(cost);
        self.in_flight.set(*admitted as i64);
    }
}

/// Releases an admission reservation on every exit path — success,
/// protocol error, or panic in the simulator.
struct AdmitGuard<'a> {
    shared: &'a Shared,
    cost: u64,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.shared.release(self.cost);
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process-exit
/// path); tests and the binary should shut down or join explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    control_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Address of the data listener (submit/run/stats requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the control listener (stats/shutdown).
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// Asks the server to stop and waits for the accept loop, the control
    /// loop and every in-flight session to finish.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Blocking accepts only notice the flag when a connection lands;
        // self-connect to wake both listeners.
        let _ = TcpStream::connect(self.addr);
        let _ = TcpStream::connect(self.control_addr);
        self.join_threads();
        Ok(())
    }

    /// Waits until the server exits on its own (a client sent `Shutdown`
    /// on the control socket). Used by the `chirp-serve` binary.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.control.take() {
            let _ = h.join();
        }
    }
}

/// Starts the server described by `config`. Returns once both listeners
/// are bound; all request handling happens on background threads.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(config.bind).map_err(io_err("bind data listener"))?;
    let addr = listener.local_addr().map_err(io_err("read data listener addr"))?;
    // Control listener binds an ephemeral port on the same interface.
    let control_bind = SocketAddr::new(addr.ip(), 0);
    let control_listener =
        TcpListener::bind(control_bind).map_err(io_err("bind control listener"))?;
    let control_addr = control_listener.local_addr().map_err(io_err("read control addr"))?;

    let store = Store::open(&config.store)?;
    let metrics = Registry::new();
    // Pre-register the cache counters so a fresh server's Stats shows
    // them at zero instead of omitting them until the first request.
    metrics.counter("ledger_hits");
    metrics.counter("ledger_misses");
    let in_flight = metrics.gauge("in_flight_bytes");
    // Request latency, then the stages a request spends it in: receiving
    // and hashing an upload, the streamed pass, the archive write.
    for stage in ["request_us", "ingest_us", "simulate_us", "archive_us"] {
        metrics.histogram(stage);
    }
    let shared = Arc::new(Shared {
        config,
        store: Mutex::new(store),
        metrics,
        admitted: Mutex::new(0),
        in_flight,
        distrusted: Mutex::new(HashSet::new()),
        stop: AtomicBool::new(false),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    let control = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || control_loop(&control_listener, &shared, addr))
    };

    Ok(ServerHandle { addr, control_addr, shared, accept: Some(accept), control: Some(control) })
}

/// Accepts data connections until the stop flag is set, then joins every
/// session thread so shutdown drains in-flight requests.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                shared.metrics.counter("sessions_total").inc();
                let shared = Arc::clone(shared);
                sessions.push(std::thread::spawn(move || session(stream, &shared)));
                // Opportunistically reap finished sessions so a
                // long-lived server does not accumulate handles.
                sessions.retain(|h| !h.is_finished());
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (e.g. aborted handshake).
            }
        }
    }
    for h in sessions {
        let _ = h.join();
    }
}

/// Serves `Stats`/`Shutdown`/`Ping` on the control listener, one
/// connection at a time; a connection that sends nothing for
/// [`SESSION_READ_TIMEOUT`], or reads no reply for
/// [`SESSION_WRITE_TIMEOUT`], is closed. A `Shutdown` request acknowledges,
/// sets the stop flag and wakes the data accept loop with a
/// self-connection.
fn control_loop(listener: &TcpListener, shared: &Arc<Shared>, data_addr: SocketAddr) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((mut stream, _)) = listener.accept() else { continue };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_read_timeout(Some(SESSION_READ_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SESSION_WRITE_TIMEOUT));
        loop {
            match read_request(&mut stream) {
                Ok(Some(Request::Ping)) => {
                    if write_response(&mut stream, &Response::Pong).is_err() {
                        break;
                    }
                }
                Ok(Some(Request::Stats)) => {
                    let text = stats_text(shared);
                    if write_response(&mut stream, &Response::StatsReply(text)).is_err() {
                        break;
                    }
                }
                Ok(Some(Request::Shutdown)) => {
                    let _ = write_response(&mut stream, &Response::ShutdownAck);
                    shared.stop.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(data_addr);
                    return;
                }
                Ok(Some(_)) => {
                    let resp = error_response(
                        err::BAD_REQUEST,
                        "only ping/stats/shutdown on the control socket".into(),
                    );
                    if write_response(&mut stream, &resp).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// The `Stats` reply: the metrics registry followed by a ledger summary
/// rendered through `chirp-query`, so the service reports exactly the
/// numbers the query CLI would return for the same store.
fn stats_text(shared: &Shared) -> String {
    let mut text = shared.metrics.render_text();
    let store = shared.lock_store();
    text.push_str(&chirp_query::ledger_overview(&store.ledger));
    text
}

/// Whether a read failed on the session read timeout (`WouldBlock` or
/// `TimedOut`, depending on the platform).
fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn error_response(code: u16, message: String) -> Response {
    Response::Error { code, message }
}

/// One client session on the data socket: a request/response loop that
/// lives until the client disconnects or violates the protocol.
fn session(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(SESSION_READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SESSION_WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut frames = FrameReader::default();
    loop {
        let req = match frames.read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(WireError::Io(e)) if timed_out(&e) => {
                // Idle, or a client pausing mid-frame (the reader keeps
                // its bytes): re-check the stop flag and wait on.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        shared.metrics.counter("requests_total").inc();
        let started = Instant::now();
        let keep_going = match req {
            Request::Ping => write_response(&mut stream, &Response::Pong).is_ok(),
            Request::Stats => {
                let text = stats_text(shared);
                write_response(&mut stream, &Response::StatsReply(text)).is_ok()
            }
            Request::Shutdown => {
                let resp = error_response(
                    err::BAD_REQUEST,
                    "shutdown is accepted on the control socket only".into(),
                );
                write_response(&mut stream, &resp).is_ok()
            }
            Request::TraceChunk(_) | Request::TraceEnd => {
                shared.metrics.counter("protocol_errors").inc();
                let resp =
                    error_response(err::PROTOCOL, "trace frames outside a submit stream".into());
                let _ = write_response(&mut stream, &resp);
                false
            }
            Request::Submit { name, category, seed, policies, trace_bytes, records, telemetry } => {
                handle_submit(
                    &mut stream,
                    &mut frames,
                    shared,
                    SubmitHeader {
                        name,
                        category,
                        seed,
                        policies,
                        trace_bytes,
                        records,
                        telemetry,
                    },
                )
            }
            Request::RunArchived { hash, name, category, seed, policies, telemetry } => {
                let resp = run_archived(
                    shared,
                    hash,
                    RunSpec::parse(shared, &name, &category, seed, &policies, telemetry),
                );
                write_response(&mut stream, &resp).is_ok()
            }
        };
        shared.metrics.histogram("request_us").record(elapsed_us(started));
        if !keep_going {
            return;
        }
    }
}

/// The declared fields of a `Submit` request.
struct SubmitHeader {
    name: String,
    category: String,
    seed: u64,
    policies: Vec<String>,
    trace_bytes: u64,
    records: u64,
    telemetry: bool,
}

/// A validated run request: parsed policies plus identity fields.
struct RunSpec {
    name: String,
    category: Category,
    seed: u64,
    labels: Vec<String>,
    policies: Vec<PolicyKind>,
    telemetry: bool,
}

impl RunSpec {
    /// Validates names against the policy registry and the category
    /// label set; `Err` is a ready-to-send error response.
    fn parse(
        shared: &Shared,
        name: &str,
        category: &str,
        seed: u64,
        labels: &[String],
        telemetry: bool,
    ) -> Result<RunSpec, Response> {
        if name.is_empty() {
            return Err(error_response(
                err::BAD_REQUEST,
                "benchmark name must be non-empty".into(),
            ));
        }
        if labels.is_empty() {
            return Err(error_response(err::BAD_REQUEST, "at least one policy required".into()));
        }
        let Some(category) = Category::ALL.into_iter().find(|c| c.label() == category) else {
            let known: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
            return Err(error_response(
                err::BAD_REQUEST,
                format!("unknown category {category:?} (known: {})", known.join(", ")),
            ));
        };
        let mut policies = Vec::with_capacity(labels.len());
        for label in labels {
            match PolicyKind::parse(label) {
                Some(kind) => policies.push(kind),
                None => {
                    shared.metrics.counter("unknown_policy").inc();
                    return Err(error_response(
                        err::UNKNOWN_POLICY,
                        format!("unknown policy {label:?}"),
                    ));
                }
            }
        }
        Ok(RunSpec {
            name: name.to_string(),
            category,
            seed,
            labels: labels.to_vec(),
            policies,
            telemetry,
        })
    }
}

/// Handles one `Submit`: admission, then one pass over the uploaded
/// bytes. They are hashed as they arrive; a full ledger hit on bytes the
/// archive already holds is answered without decoding them; otherwise the
/// bytes are decoded in batches straight into the missing policies' run,
/// and only once every declared record has decoded is the trace archived
/// and the ledger appended. Returns false when the session must close
/// (protocol error).
fn handle_submit(
    stream: &mut TcpStream,
    frames: &mut FrameReader,
    shared: &Arc<Shared>,
    header: SubmitHeader,
) -> bool {
    shared.metrics.counter("submits").inc();
    // Validate before admitting: a rejected request reserves nothing and
    // the client never streams (it waits for Go).
    let spec = match RunSpec::parse(
        shared,
        &header.name,
        &header.category,
        header.seed,
        &header.policies,
        header.telemetry,
    ) {
        Ok(spec) => spec,
        Err(resp) => return write_response(stream, &resp).is_ok(),
    };
    if header.trace_bytes == 0 || header.trace_bytes > u64::from(u32::MAX) {
        let resp = error_response(
            err::BAD_REQUEST,
            format!("declared trace size {} out of range", header.trace_bytes),
        );
        return write_response(stream, &resp).is_ok();
    }

    // Admission before transfer: encoded bytes buffered + a decoded-trace
    // estimate (an upper bound: the pass holds one decoded batch).
    let cost = header.trace_bytes + PackedTrace::estimate_bytes(header.records as usize);
    let guard = match shared.admit(cost) {
        Ok(guard) => guard,
        Err((in_flight_bytes, budget_bytes)) => {
            shared.metrics.counter("busy_rejections").inc();
            let resp = Response::Busy {
                retry_after_ms: shared.config.retry_after_ms,
                in_flight_bytes,
                budget_bytes,
            };
            return write_response(stream, &resp).is_ok();
        }
    };
    if write_response(stream, &Response::Go).is_err() {
        return false;
    }

    // Ingest the declared chunk stream, hashing each chunk on receipt.
    let ingest = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(header.trace_bytes as usize);
    let mut hasher = Fnv64::new();
    loop {
        match frames.read_request(stream) {
            Ok(Some(Request::TraceChunk(chunk))) => {
                if buf.len() as u64 + chunk.len() as u64 > header.trace_bytes {
                    shared.metrics.counter("protocol_errors").inc();
                    let resp =
                        error_response(err::PROTOCOL, "chunk stream exceeds declared size".into());
                    let _ = write_response(stream, &resp);
                    return false;
                }
                hasher.update(&chunk);
                buf.extend_from_slice(&chunk);
            }
            Ok(Some(Request::TraceEnd)) => break,
            Ok(Some(_)) => {
                shared.metrics.counter("protocol_errors").inc();
                let resp =
                    error_response(err::PROTOCOL, "expected trace chunks after submit".into());
                let _ = write_response(stream, &resp);
                return false;
            }
            Err(WireError::Io(e)) if timed_out(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return false;
                }
                continue;
            }
            Ok(None) | Err(_) => return false,
        }
    }
    shared.metrics.histogram("ingest_us").record(elapsed_us(ingest));
    if buf.len() as u64 != header.trace_bytes {
        let resp = error_response(
            err::BAD_REQUEST,
            format!("declared {} trace bytes, received {}", header.trace_bytes, buf.len()),
        );
        return write_response(stream, &resp).is_ok();
    }
    shared.metrics.counter("trace_bytes_received").add(buf.len() as u64);
    let resp = verdict_response(submit_trace(shared, &spec, header.records, hasher.finish(), buf));
    drop(guard);
    write_response(stream, &resp).is_ok()
}

/// Answers a fully received upload whose content hash is `hash`.
fn submit_trace(
    shared: &Shared,
    spec: &RunSpec,
    records: u64,
    hash: u64,
    bytes: Vec<u8>,
) -> Result<VerdictReply, Response> {
    let bad_trace = |e: &dyn fmt::Display| {
        shared.metrics.counter("bad_traces").inc();
        error_response(err::BAD_TRACE, format!("trace bytes do not decode: {e}"))
    };
    // The run keys take the instruction count from the header, so it must
    // be the count admission was sized for; decoding then proves it.
    let declared = peek_record_count(&bytes).map_err(|e| bad_trace(&e))?;
    if declared != records {
        return Err(error_response(
            err::BAD_REQUEST,
            format!("declared {records} records, trace has {declared}"),
        ));
    }
    let probe = Probe::new(shared, spec, records);
    // Bytes the archive already holds decoded cleanly when they were
    // archived, so a full ledger hit on them needs no second decode.
    let archived = shared.holds(&shared.lock_store(), hash, bytes.len());
    let fresh = if archived && probe.missing.is_empty() {
        Vec::new()
    } else {
        let mut trace =
            SliceStream::new(&bytes, DEFAULT_STREAM_CHUNK).map_err(|e| bad_trace(&e))?;
        simulate(shared, spec, &probe.missing, &mut trace).map_err(|e| bad_trace(&e))?
    };
    let started = Instant::now();
    let stored = archive_upload(shared, hash, records, bytes);
    shared.metrics.histogram("archive_us").record(elapsed_us(started));
    if let Err(e) = stored {
        shared.metrics.counter("internal_errors").inc();
        return Err(error_response(err::INTERNAL, format!("archive upload: {e}")));
    }
    probe.commit(shared, spec, hash, fresh)
}

/// Stores validated `CHRP` bytes in the archive under their content
/// hash, with the hash as checksum. Bytes the archive already holds (an
/// identical upload may have landed meanwhile) only count a hit; an entry
/// the server no longer trusts is rewritten.
fn archive_upload(
    shared: &Shared,
    hash: u64,
    records: u64,
    bytes: Vec<u8>,
) -> Result<(), StoreError> {
    let mut store = shared.lock_store();
    if shared.holds(&store, hash, bytes.len()) {
        store.archive.record_hit();
        return Ok(());
    }
    let outcome = if store.archive.entry_meta(hash).is_some() {
        ArchiveOutcome::CorruptRegenerated
    } else {
        ArchiveOutcome::MissGenerated
    };
    let encoded = EncodedTrace { checksum: hash, records, bytes };
    let path = store.archive.trace_path(hash);
    TraceArchive::store_file(&path, &encoded)?;
    store.archive.commit(hash, &encoded, outcome)?;
    shared.distrusted.lock().unwrap_or_else(|e| e.into_inner()).remove(&hash);
    shared.metrics.counter("traces_archived").inc();
    Ok(())
}

/// Handles one `RunArchived`: the ledger is probed first, so a full hit
/// never touches the file; otherwise, with admission sized from the
/// manifest, the archived file is streamed through the missing policies'
/// run with its checksum verified before the last batch. A file that
/// fails to stream is no longer treated as archived, so the next upload
/// of the same bytes heals it.
fn run_archived(shared: &Arc<Shared>, hash: u64, spec: Result<RunSpec, Response>) -> Response {
    let spec = match spec {
        Ok(spec) => spec,
        Err(resp) => return resp,
    };
    shared.metrics.counter("archived_runs").inc();
    let entry = {
        let store = shared.lock_store();
        shared.trusted_entry(&store, hash).and_then(|meta| {
            Some((store.archive.trace_path(hash), meta, store.archive.entry_records(hash)?))
        })
    };
    let Some((path, meta, records)) = entry else {
        return error_response(
            err::NOT_FOUND,
            format!("no archived trace with hash {}", hex16(hash)),
        );
    };
    let probe = Probe::new(shared, &spec, records);
    if probe.missing.is_empty() {
        return verdict_response(probe.commit(shared, &spec, hash, Vec::new()));
    }
    let cost = meta.bytes + PackedTrace::estimate_bytes(records as usize);
    let _guard = match shared.admit(cost) {
        Ok(guard) => guard,
        Err((in_flight_bytes, budget_bytes)) => {
            shared.metrics.counter("busy_rejections").inc();
            return Response::Busy {
                retry_after_ms: shared.config.retry_after_ms,
                in_flight_bytes,
                budget_bytes,
            };
        }
    };
    let fresh = ArchiveTraceStream::open(&path, meta, DEFAULT_STREAM_CHUNK)
        .and_then(|trace| {
            if trace.len() as u64 == records {
                Ok(trace)
            } else {
                Err(StreamError::Corrupt(format!(
                    "archived trace has {} records, manifest says {records}",
                    trace.len()
                )))
            }
        })
        .and_then(|mut trace| simulate(shared, &spec, &probe.missing, &mut trace));
    match fresh {
        Ok(fresh) => verdict_response(probe.commit(shared, &spec, hash, fresh)),
        Err(e) => {
            shared.distrusted.lock().unwrap_or_else(|e| e.into_inner()).insert(hash);
            shared.metrics.counter("internal_errors").inc();
            error_response(err::INTERNAL, format!("archived trace unusable: {e}"))
        }
    }
}

fn verdict_response(reply: Result<VerdictReply, Response>) -> Response {
    reply.map_or_else(|resp| resp, Response::Verdict)
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// A run request's ledger probe: the run keys for its instruction count
/// and each policy's stored run, if any.
struct Probe {
    instructions: u64,
    keys: Vec<u64>,
    resolved: Vec<Option<BenchRun>>,
    /// Positions of the policies the ledger does not answer.
    missing: Vec<usize>,
}

impl Probe {
    /// Probes the ledger under the store lock — cheap, no simulation
    /// inside.
    fn new(shared: &Shared, spec: &RunSpec, instructions: u64) -> Probe {
        let sim_config = &shared.config.sim;
        let keys: Vec<u64> = spec
            .policies
            .iter()
            .map(|p| run_key(sim_config, p, &spec.name, instructions as usize))
            .collect();
        let resolved: Vec<Option<BenchRun>> = {
            let store = shared.lock_store();
            keys.iter().map(|&key| store.ledger.get(key).and_then(run_from_record)).collect()
        };
        let missing = (0..resolved.len()).filter(|&i| resolved[i].is_none()).collect();
        Probe { instructions, keys, resolved, missing }
    }

    /// Appends the `fresh` runs of the missing policies to the ledger and
    /// builds the verdict.
    fn commit(
        self,
        shared: &Shared,
        spec: &RunSpec,
        hash: u64,
        fresh: Vec<BenchRun>,
    ) -> Result<VerdictReply, Response> {
        let Probe { instructions, keys, mut resolved, missing } = self;
        let sim_config = &shared.config.sim;
        shared.metrics.counter("ledger_hits").add((resolved.len() - missing.len()) as u64);
        shared.metrics.counter("ledger_misses").add(missing.len() as u64);
        if !fresh.is_empty() {
            let mut store = shared.lock_store();
            for (&i, run) in missing.iter().zip(fresh) {
                let record = record_from_run(&run, sim_config, &spec.policies[i]);
                if let Err(e) = store.ledger.append(keys[i], record) {
                    shared.metrics.counter("internal_errors").inc();
                    return Err(error_response(err::INTERNAL, format!("ledger append: {e}")));
                }
                resolved[i] = Some(run);
            }
        }

        let mut verdicts = Vec::with_capacity(resolved.len());
        let mut best = 0usize;
        let mut best_mpki = f64::INFINITY;
        for (i, run) in resolved.into_iter().enumerate() {
            let r = run.expect("all policies resolved").result;
            if r.mpki() < best_mpki {
                best = i;
                best_mpki = r.mpki();
            }
            verdicts.push(wire::PolicyVerdict {
                policy: spec.labels[i].clone(),
                from_ledger: !missing.contains(&i),
                instructions: r.instructions,
                cycles: r.cycles,
                hits: r.l2_tlb.hits,
                misses: r.l2_tlb.misses,
                dead_evictions: r.l2_tlb.dead_evictions,
                cold_fills: r.l2_tlb.cold_fills,
                l2_accesses: r.l2_accesses,
                prediction_table_accesses: r.prediction_table_accesses,
                l2_accesses_total: r.l2_accesses_total,
                efficiency: r.efficiency,
                mpki: r.mpki(),
            });
        }
        Ok(VerdictReply {
            name: spec.name.clone(),
            content_hash: hash,
            trace_records: instructions,
            verdicts,
            best_policy: spec.labels[best].clone(),
            summary: spec.telemetry.then(|| shared.metrics.render_text()),
        })
    }
}

/// One streamed pass over `trace`: the `missing` policies run through
/// the scheduler as one group on the chunk driver (`run_stream_group`:
/// one shared front end and a replay back end per policy, however many
/// are missing), bit-identical to per-policy `run_columnar` over the
/// same records. With no policy missing the pass only decodes, to
/// validate the bytes. Every declared record is decoded, or the pass
/// fails.
fn simulate(
    shared: &Shared,
    spec: &RunSpec,
    missing: &[usize],
    trace: &mut (dyn TraceStream + Send),
) -> Result<Vec<BenchRun>, StreamError> {
    let started = Instant::now();
    let results = if missing.is_empty() {
        while trace.next_batch()?.is_some() {}
        Vec::new()
    } else {
        shared.metrics.counter("simulated_pairs").add(missing.len() as u64);
        let sim_config = &shared.config.sim;
        let trace = Mutex::new(trace);
        let work = [WorkItem { bench: 0, policies: missing.to_vec() }];
        let est = PackedTrace::estimate_bytes(DEFAULT_STREAM_CHUNK);
        // The scheduler fails only with the error `exec` returns, which
        // cannot carry the stream's own error; that waits here.
        let failure = Mutex::new(None);
        let outcome = run_items(&work, shared.config.threads, est, None, |item| {
            let kinds: Vec<&PolicyKind> =
                item.policies.iter().map(|&i| &spec.policies[i]).collect();
            let mut trace = trace.lock().unwrap_or_else(|e| e.into_inner());
            run_stream_group(sim_config, &kinds, spec.seed, &mut **trace).map_err(|e| {
                let why = e.to_string();
                *failure.lock().unwrap_or_else(|e| e.into_inner()) = Some(e);
                StoreError::Corrupt(why)
            })
        });
        match outcome {
            Ok((mut rows, _)) => rows.pop().expect("one work item yields one result row"),
            Err(_) => {
                let failure = failure.into_inner().unwrap_or_else(|e| e.into_inner());
                return Err(failure.expect("only the streamed pass fails"));
            }
        }
    };
    shared.metrics.histogram("simulate_us").record(elapsed_us(started));
    Ok(results
        .into_iter()
        .map(|result| BenchRun { benchmark: spec.name.clone(), category: spec.category, result })
        .collect())
}
