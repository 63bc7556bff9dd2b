//! End-to-end loopback tests: a real server on an ephemeral port, real
//! TCP clients, and the full submit → admit → stream → simulate →
//! verdict path. The headline assertions:
//!
//! * server verdicts are **bit-identical** to a direct `run_suite` over
//!   the same benchmarks (every `u64` field equal, `f64` compared by bit
//!   pattern);
//! * a second submission of the same trace is answered entirely from the
//!   run ledger without simulating (`from_ledger` on every verdict);
//! * `RunArchived` by content hash reproduces the submit verdict with no
//!   bytes travelling;
//! * admission under a tiny `--mem-budget` answers `Busy`
//!   deterministically, and the load generator drives through the
//!   backpressure to completion;
//! * an upload that fails to decode is neither archived nor written to
//!   the ledger, even when the ledger already answers every policy, and
//!   an archived file that fails its checksum heals when the same bytes
//!   are uploaded again;
//! * the content hash covers every uploaded byte, trailing bytes after
//!   the declared records included, and comes out of the decoding pass;
//! * a client that pauses inside a frame for longer than the server's
//!   session read timeout keeps its session, and neither a silent client
//!   nor a client that never reads its replies blocks a shutdown;
//! * `Stats` lists every metric, zeros included, in one fixed order.

use chirp_serve::client::{shutdown_server, Client, SubmitOutcome};
use chirp_serve::loadgen::{run_load, LoadGenConfig};
use chirp_serve::server::{serve, ServeConfig, ServerHandle};
use chirp_serve::wire::{self, err, read_response, write_request, Request, Response, VerdictReply};
use chirp_sim::{run_suite, BenchRun, PolicyKind, RunnerConfig};
use chirp_store::{fnv64, TempDir, TraceArchive};
use chirp_trace::suite::{build_suite, BenchmarkSpec, SuiteConfig};
use chirp_trace::{read_trace, write_trace, write_trace_packed};
use std::io::Write;
use std::net::TcpStream;
use std::net::{Shutdown, SocketAddr};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const INSTRUCTIONS: usize = 8_000;
const POLICIES: [&str; 2] = ["lru", "chirp"];

fn policy_labels() -> Vec<String> {
    POLICIES.iter().map(|p| p.to_string()).collect()
}

fn start_server(root: &TempDir, mem_budget: Option<u64>) -> ServerHandle {
    serve(ServeConfig {
        store: root.path().to_path_buf(),
        mem_budget,
        retry_after_ms: 5,
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

fn submit(client: &mut Client, spec: &BenchmarkSpec, bytes: &[u8]) -> VerdictReply {
    match client
        .submit_bytes(&spec.name, spec.category.label(), spec.seed, &policy_labels(), false, bytes)
        .expect("submit succeeds")
    {
        SubmitOutcome::Verdict(v) => v,
        SubmitOutcome::Busy { .. } => panic!("unbudgeted server must not answer busy"),
    }
}

/// Asserts a server verdict equals a direct `BenchRun` field-for-field,
/// with `f64` compared by bit pattern.
fn assert_matches_run(verdict: &wire::PolicyVerdict, run: &BenchRun, what: &str) {
    let r = &run.result;
    assert_eq!(verdict.instructions, r.instructions, "{what}: instructions");
    assert_eq!(verdict.cycles, r.cycles, "{what}: cycles");
    assert_eq!(verdict.hits, r.l2_tlb.hits, "{what}: hits");
    assert_eq!(verdict.misses, r.l2_tlb.misses, "{what}: misses");
    assert_eq!(verdict.dead_evictions, r.l2_tlb.dead_evictions, "{what}: dead evictions");
    assert_eq!(verdict.cold_fills, r.l2_tlb.cold_fills, "{what}: cold fills");
    assert_eq!(verdict.l2_accesses, r.l2_accesses, "{what}: l2 accesses");
    assert_eq!(
        verdict.prediction_table_accesses, r.prediction_table_accesses,
        "{what}: prediction table accesses"
    );
    assert_eq!(verdict.l2_accesses_total, r.l2_accesses_total, "{what}: l2 accesses total");
    assert_eq!(
        verdict.efficiency.to_bits(),
        r.efficiency.to_bits(),
        "{what}: efficiency must be bit-identical"
    );
    assert_eq!(verdict.mpki.to_bits(), r.mpki().to_bits(), "{what}: mpki must be bit-identical");
}

#[test]
fn submit_is_bit_identical_to_direct_run_and_reuses_the_ledger() {
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let policies: Vec<PolicyKind> =
        POLICIES.iter().map(|p| PolicyKind::parse(p).expect("known policy")).collect();
    // The reference: the same benchmarks through the in-process harness
    // path, no store involved.
    let direct = run_suite(
        &suite,
        &policies,
        &RunnerConfig { instructions: INSTRUCTIONS, ..RunnerConfig::default() },
    );

    let root = TempDir::new("serve-loopback");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut hashes = Vec::new();
    for (bi, spec) in suite.iter().enumerate() {
        let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
        let verdict = submit(&mut client, spec, &bytes);
        assert_eq!(verdict.name, spec.name);
        assert_eq!(verdict.trace_records, INSTRUCTIONS as u64);
        assert_eq!(verdict.verdicts.len(), POLICIES.len());
        for (pi, pv) in verdict.verdicts.iter().enumerate() {
            assert_eq!(pv.policy, POLICIES[pi]);
            assert!(!pv.from_ledger, "first submission simulates fresh");
            assert_matches_run(pv, &direct[bi * POLICIES.len() + pi], &spec.name);
        }
        hashes.push(verdict.content_hash);
    }

    // Second submission of the same traces: every policy answered from
    // the run ledger, results still identical.
    for (bi, spec) in suite.iter().enumerate() {
        let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
        let verdict = submit(&mut client, spec, &bytes);
        assert_eq!(verdict.content_hash, hashes[bi], "content hash is deterministic");
        for (pi, pv) in verdict.verdicts.iter().enumerate() {
            assert!(pv.from_ledger, "{}: repeat submission must hit the ledger", spec.name);
            assert_matches_run(pv, &direct[bi * POLICIES.len() + pi], &spec.name);
        }
    }

    // RunArchived by content hash: no upload, same verdict.
    for (bi, spec) in suite.iter().enumerate() {
        let outcome = client
            .run_archived(
                hashes[bi],
                &spec.name,
                spec.category.label(),
                spec.seed,
                &policy_labels(),
                false,
            )
            .expect("archived run succeeds");
        let SubmitOutcome::Verdict(verdict) = outcome else { panic!("expected verdict") };
        for (pi, pv) in verdict.verdicts.iter().enumerate() {
            assert!(pv.from_ledger);
            assert_matches_run(pv, &direct[bi * POLICIES.len() + pi], &spec.name);
        }
    }

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn telemetry_summary_rides_along_when_requested() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));

    let root = TempDir::new("serve-telemetry");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let outcome = client
        .submit_bytes(&spec.name, spec.category.label(), spec.seed, &policy_labels(), true, &bytes)
        .expect("submit succeeds");
    let SubmitOutcome::Verdict(verdict) = outcome else { panic!("expected verdict") };
    let summary = verdict.summary.expect("telemetry=true returns a summary");
    assert!(summary.contains("requests_total"), "summary lists counters: {summary}");

    let stats = client.stats().expect("stats");
    assert!(stats.contains("submits"), "stats snapshot lists submit counter: {stats}");
    assert!(stats.contains("ledger_misses"), "stats counts ledger misses alongside hits: {stats}");
    assert!(
        stats.contains("ledger_runs") && stats.contains("ledger_best_efficiency"),
        "stats appends the query-layer ledger overview: {stats}"
    );
    client.ping().expect("ping");

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

/// Raw-wire admission hold: session A receives `Go` (its reservation is
/// live) but has not streamed yet, so session B's submit is rejected
/// `Busy` deterministically — no sleeps, no races.
#[test]
fn tiny_budget_answers_busy_while_a_reservation_is_held() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));

    let root = TempDir::new("serve-busy");
    let handle = start_server(&root, Some(1));

    let submit_req = |trace: &[u8]| Request::Submit {
        name: spec.name.clone(),
        category: spec.category.label().to_string(),
        seed: spec.seed,
        policies: policy_labels(),
        trace_bytes: trace.len() as u64,
        records: INSTRUCTIONS as u64,
        telemetry: false,
    };

    // Session A: announce, get Go, hold the reservation open.
    let mut a = TcpStream::connect(handle.addr()).expect("connect A");
    write_request(&mut a, &submit_req(&bytes)).expect("send submit A");
    match read_response(&mut a).expect("read A").expect("response A") {
        Response::Go => {}
        other => panic!("alone request must be admitted, got {other:?}"),
    }

    // Session B: the budget (1 byte) is exceeded while A is in flight.
    let mut b = TcpStream::connect(handle.addr()).expect("connect B");
    write_request(&mut b, &submit_req(&bytes)).expect("send submit B");
    match read_response(&mut b).expect("read B").expect("response B") {
        Response::Busy { in_flight_bytes, budget_bytes, .. } => {
            assert!(in_flight_bytes > 0, "busy reports A's reservation");
            assert_eq!(budget_bytes, 1);
        }
        other => panic!("expected busy while A holds the budget, got {other:?}"),
    }
    drop(b);

    // A completes its upload and still gets a verdict: backpressure never
    // cancels an admitted request.
    for chunk in bytes.chunks(wire::TRACE_CHUNK_BYTES) {
        write_request(&mut a, &Request::TraceChunk(chunk.to_vec())).expect("stream chunk");
    }
    write_request(&mut a, &Request::TraceEnd).expect("end stream");
    match read_response(&mut a).expect("read verdict").expect("verdict") {
        Response::Verdict(v) => assert_eq!(v.trace_records, INSTRUCTIONS as u64),
        other => panic!("expected verdict, got {other:?}"),
    }
    drop(a);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn loadgen_drives_through_backpressure_to_completion() {
    let root = TempDir::new("serve-loadgen");
    // Budget of one byte: at most one upload in flight at a time, so
    // overlapping sessions are guaranteed to see Busy at least once.
    let handle = start_server(&root, Some(1));

    let config = LoadGenConfig {
        addr: handle.addr(),
        sessions: 3,
        requests: 2,
        benchmarks: 2,
        instructions: 6_000,
        // Stretch each upload so reservations overlap reliably.
        chunk_delay: Some(Duration::from_millis(5)),
        max_retries: 10_000,
        ..LoadGenConfig::default()
    };
    let report = run_load(&config).expect("load run completes");

    assert_eq!(report.errors, 0, "no transport/server errors: {}", report.render());
    assert_eq!(report.dropped, 0, "retries must converge: {}", report.render());
    assert_eq!(report.ok, (config.sessions * config.requests) as u64, "{}", report.render());
    assert!(report.busy >= 1, "serialized budget must reject at least once: {}", report.render());
    assert!(report.wall > Duration::ZERO);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn error_codes_reach_the_client() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(1_000));

    let root = TempDir::new("serve-errors");
    let handle = start_server(&root, None);

    // Unknown policy.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let err_resp = client
        .submit_bytes(&spec.name, spec.category.label(), 1, &["mystery".into()], false, &bytes)
        .expect_err("unknown policy must fail");
    match err_resp {
        chirp_serve::ClientError::Server { code, .. } => assert_eq!(code, err::UNKNOWN_POLICY),
        other => panic!("expected server error, got {other}"),
    }

    // Unknown archived hash. The connection survives semantic errors.
    let err_resp = client
        .run_archived(0xdead_beef, &spec.name, spec.category.label(), 1, &policy_labels(), false)
        .expect_err("missing hash must fail");
    match err_resp {
        chirp_serve::ClientError::Server { code, message } => {
            assert_eq!(code, err::NOT_FOUND);
            assert!(message.contains("00000000deadbeef"), "names the hash: {message}");
        }
        other => panic!("expected server error, got {other}"),
    }

    // Garbage trace bytes: the client library refuses them locally, so
    // drive the wire by hand to prove the server-side check.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    let garbage = vec![0xABu8; 64];
    write_request(
        &mut raw,
        &Request::Submit {
            name: "garbage".into(),
            category: "mixed".into(),
            seed: 1,
            policies: policy_labels(),
            trace_bytes: garbage.len() as u64,
            records: 7,
            telemetry: false,
        },
    )
    .expect("send submit");
    match read_response(&mut raw).expect("read").expect("response") {
        Response::Go => {}
        other => panic!("expected go, got {other:?}"),
    }
    write_request(&mut raw, &Request::TraceChunk(garbage)).expect("send chunk");
    write_request(&mut raw, &Request::TraceEnd).expect("send end");
    match read_response(&mut raw).expect("read").expect("response") {
        Response::Error { code, .. } => assert_eq!(code, err::BAD_TRACE),
        other => panic!("expected bad-trace error, got {other:?}"),
    }
    drop(raw);

    // Trace frames outside a submit stream are a protocol violation and
    // close the session.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    write_request(&mut raw, &Request::TraceEnd).expect("send stray end");
    match read_response(&mut raw).expect("read").expect("response") {
        Response::Error { code, .. } => assert_eq!(code, err::PROTOCOL),
        other => panic!("expected protocol error, got {other:?}"),
    }

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

/// A `Shutdown` on one session is acknowledged, a request already sent
/// on another session still gets its verdict, and the server joins.
#[test]
fn shutdown_drains_in_flight_requests() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    let root = TempDir::new("serve-shutdown");
    let handle = start_server(&root, None);

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping before shutdown");
    // A whole submit is on the wire before the shutdown, its verdict not
    // yet read.
    let mut raw = raw_connect(&handle);
    write_request(&mut raw, &submit_request(spec, &bytes, INSTRUCTIONS as u64))
        .expect("send submit");
    match read_response(&mut raw) {
        Ok(Some(Response::Go)) => {}
        other => panic!("expected go, got {other:?}"),
    }
    for chunk in bytes.chunks(wire::TRACE_CHUNK_BYTES) {
        write_request(&mut raw, &Request::TraceChunk(chunk.to_vec())).expect("stream chunk");
    }
    write_request(&mut raw, &Request::TraceEnd).expect("end stream");

    shutdown_server(handle.addr()).expect("shutdown acked");
    match read_response(&mut raw) {
        Ok(Some(Response::Verdict(v))) => assert_eq!(v.trace_records, INSTRUCTIONS as u64),
        other => panic!("the in-flight submit must still get its verdict, got {other:?}"),
    }
    handle.join();
}

/// A `Submit` of `bytes` declaring `records` records, without telemetry.
fn submit_request(spec: &BenchmarkSpec, bytes: &[u8], records: u64) -> Request {
    Request::Submit {
        name: spec.name.clone(),
        category: spec.category.label().to_string(),
        seed: spec.seed,
        policies: policy_labels(),
        trace_bytes: bytes.len() as u64,
        records,
        telemetry: false,
    }
}

/// Lines in the store's run ledger (0 before the first append).
fn ledger_lines(root: &Path) -> usize {
    std::fs::read_to_string(root.join("runs.jsonl")).map_or(0, |text| text.lines().count())
}

fn server_error(outcome: Result<SubmitOutcome, chirp_serve::ClientError>) -> (u16, String) {
    match outcome {
        Err(chirp_serve::ClientError::Server { code, message }) => (code, message),
        Err(other) => panic!("expected a server error, got {other}"),
        Ok(_) => panic!("expected a server error, got an answer"),
    }
}

/// Offset of the first record at or past `from` in an encoded trace: the
/// encoding of a prefix of the records is a prefix of the encoding, so
/// record `n` starts where the first `n` records' encoding ends.
fn record_start(bytes: &[u8], from: usize) -> usize {
    let records = read_trace(bytes).expect("valid trace");
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
    assert!(lo < records.len(), "trace shorter than {from} bytes");
    offset(lo)
}

#[test]
fn undecodable_upload_is_neither_archived_nor_recorded() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let mut bytes = write_trace_packed(&spec.generate_packed(30_000));
    // A valid header and a first 64 KiB that decode: the bad kind byte
    // only shows once the streamed pass is well under way.
    let at = record_start(&bytes, 100 << 10);
    bytes[at] = 0xEE;
    let hash = fnv64(&bytes);

    let root = TempDir::new("serve-bad-kind");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (code, message) = server_error(client.submit_bytes(
        &spec.name,
        spec.category.label(),
        spec.seed,
        &policy_labels(),
        false,
        &bytes,
    ));
    assert_eq!(code, err::BAD_TRACE, "{message}");
    let archive = TraceArchive::open(root.path()).expect("open archive");
    assert!(archive.entry_meta(hash).is_none(), "an undecodable upload must not be archived");
    assert_eq!(ledger_lines(root.path()), 0, "an undecodable upload must not reach the ledger");
    client.ping().expect("the session survives a bad trace");

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn corrupt_archived_upload_heals_on_resubmit() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    let root = TempDir::new("serve-heal");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let hash = submit(&mut client, spec, &bytes).content_hash;

    let path = TraceArchive::open(root.path()).expect("open archive").trace_path(hash);
    let mut flipped = std::fs::read(&path).expect("archived file");
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).expect("corrupt the archived file");

    // A policy the ledger does not hold, so the file must be read.
    let srrip = vec!["srrip".to_string()];
    let run = |client: &mut Client| {
        client.run_archived(hash, &spec.name, spec.category.label(), spec.seed, &srrip, false)
    };
    let lines = ledger_lines(root.path());
    let (code, message) = server_error(run(&mut client));
    assert_eq!(code, err::INTERNAL, "{message}");
    assert_eq!(ledger_lines(root.path()), lines, "a failed stream appends nothing");
    let (code, message) = server_error(run(&mut client));
    assert_eq!(code, err::NOT_FOUND, "the corrupt entry no longer counts as archived: {message}");

    // The resubmit is a full ledger hit, yet it must decode and rewrite
    // the distrusted file.
    let verdict = submit(&mut client, spec, &bytes);
    assert!(verdict.verdicts.iter().all(|v| v.from_ledger));
    assert_eq!(std::fs::read(&path).expect("rewritten file"), bytes, "file healed");
    let SubmitOutcome::Verdict(healed) = run(&mut client).expect("archived run answers") else {
        panic!("expected a verdict")
    };
    assert_eq!(healed.verdicts.len(), 1);
    assert!(!healed.verdicts[0].from_ledger);
    assert_eq!(ledger_lines(root.path()), lines + 1);

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

/// Runs `srrip`, a policy the ledger does not hold after a `lru,chirp`
/// submit, over the archived trace `hash`: the file must be streamed.
fn run_srrip(client: &mut Client, spec: &BenchmarkSpec, hash: u64) -> VerdictReply {
    let srrip = vec!["srrip".to_string()];
    match client.run_archived(hash, &spec.name, spec.category.label(), spec.seed, &srrip, false) {
        Ok(SubmitOutcome::Verdict(v)) => v,
        other => panic!("expected a verdict for {hash:016x}, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_part_of_the_content_hash_and_stay_servable() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let mut bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    bytes.extend_from_slice(b"tail");
    let root = TempDir::new("serve-trailing");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let verdict = submit(&mut client, spec, &bytes);
    assert_eq!(verdict.content_hash, fnv64(&bytes), "the hash covers the trailing bytes");
    assert_eq!(verdict.trace_records, INSTRUCTIONS as u64);
    let path = TraceArchive::open(root.path()).expect("open archive").trace_path(fnv64(&bytes));
    assert_eq!(std::fs::read(&path).expect("archived file"), bytes);
    let rerun = run_srrip(&mut client, spec, verdict.content_hash);
    assert!(!rerun.verdicts[0].from_ledger, "the archived file streams");

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn full_ledger_hit_on_unarchived_bytes_decodes_hashes_and_archives_them() {
    // The run keys name the benchmark and its length, not the bytes: a
    // second trace of the same length under the same name is a full
    // ledger hit on bytes the archive does not hold.
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let spec = &suite[0];
    let first = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    let second = write_trace_packed(&suite[1].generate_packed(INSTRUCTIONS));
    let root = TempDir::new("serve-hit-unarchived");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    submit(&mut client, spec, &first);
    let lines = ledger_lines(root.path());

    let verdict = submit(&mut client, spec, &second);
    assert!(verdict.verdicts.iter().all(|v| v.from_ledger), "a full ledger hit");
    assert_eq!(verdict.content_hash, fnv64(&second));
    assert_eq!(ledger_lines(root.path()), lines, "a full hit appends nothing");
    let archive = TraceArchive::open(root.path()).expect("open archive");
    let path = archive.trace_path(fnv64(&second));
    assert_eq!(std::fs::read(&path).expect("archived file"), second);
    run_srrip(&mut client, spec, verdict.content_hash);

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn full_ledger_hit_on_undecodable_bytes_is_refused() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    let root = TempDir::new("serve-hit-undecodable");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    submit(&mut client, spec, &bytes);
    let lines = ledger_lines(root.path());

    // Same name and record count, so the ledger answers every policy;
    // the bytes must still decode before they are archived.
    let mut bad = bytes.clone();
    let at = record_start(&bad, bad.len() / 2);
    bad[at] = 0xEE;
    let (code, message) = server_error(client.submit_bytes(
        &spec.name,
        spec.category.label(),
        spec.seed,
        &policy_labels(),
        false,
        &bad,
    ));
    assert_eq!(code, err::BAD_TRACE, "{message}");
    let archive = TraceArchive::open(root.path()).expect("open archive");
    assert!(archive.entry_meta(fnv64(&bad)).is_none(), "undecodable bytes are not archived");
    assert_eq!(ledger_lines(root.path()), lines);
    client.ping().expect("the session survives a bad trace");

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn stats_break_requests_into_stages() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    let root = TempDir::new("serve-stages");
    let handle = start_server(&root, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    submit(&mut client, spec, &bytes);

    let stats = client.stats().expect("stats");
    for stage in ["request_us", "ingest_us", "simulate_us", "archive_us"] {
        let line = stats
            .lines()
            .find(|line| line.starts_with(&format!("{stage} ")))
            .unwrap_or_else(|| panic!("stats lists {stage}: {stats}"));
        assert!(line.ends_with("(1 samples)"), "one submit, one {stage} sample: {line}");
    }

    drop(client);
    handle.shutdown().expect("clean shutdown");
}

/// Three times the server's 250 ms session read timeout: a pause this
/// long inside a frame spans several timed-out reads on the server.
const STALL: Duration = Duration::from_millis(750);

fn frame_bytes(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_request(&mut bytes, req).expect("encode request");
    bytes
}

/// Sends `frame` as its first `split` bytes, a [`STALL`], then the rest.
fn write_stalled(stream: &mut TcpStream, frame: &[u8], split: usize) {
    stream.write_all(&frame[..split]).expect("send frame head");
    std::thread::sleep(STALL);
    stream.write_all(&frame[split..]).expect("send frame tail");
}

/// A raw client socket that gives up on a reply after ten seconds.
fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect raw");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set client timeout");
    stream
}

#[test]
fn ping_stalled_mid_header_is_answered() {
    let root = TempDir::new("serve-stall-ping");
    let handle = start_server(&root, None);
    let mut raw = raw_connect(&handle);
    write_stalled(&mut raw, &frame_bytes(&Request::Ping), 3);
    match read_response(&mut raw) {
        Ok(Some(Response::Pong)) => {}
        other => panic!("a stalled ping must be answered, got {other:?}"),
    }
    drop(raw);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn trace_chunk_stalled_mid_body_gets_the_unstalled_verdict() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));

    let plain_root = TempDir::new("serve-stall-plain");
    let plain = start_server(&plain_root, None);
    let expected = submit(&mut Client::connect(plain.addr()).expect("connect"), spec, &bytes);
    plain.shutdown().expect("clean shutdown");

    let root = TempDir::new("serve-stall-chunk");
    let handle = start_server(&root, None);
    let mut raw = raw_connect(&handle);
    write_request(
        &mut raw,
        &Request::Submit {
            name: spec.name.clone(),
            category: spec.category.label().to_string(),
            seed: spec.seed,
            policies: policy_labels(),
            trace_bytes: bytes.len() as u64,
            records: INSTRUCTIONS as u64,
            telemetry: false,
        },
    )
    .expect("send submit");
    match read_response(&mut raw) {
        Ok(Some(Response::Go)) => {}
        other => panic!("expected go, got {other:?}"),
    }
    for (i, chunk) in bytes.chunks(wire::TRACE_CHUNK_BYTES).enumerate() {
        let frame = frame_bytes(&Request::TraceChunk(chunk.to_vec()));
        if i == 0 {
            // Past the 7-byte header and the 4-byte length: mid-body.
            write_stalled(&mut raw, &frame, 11 + chunk.len() / 2);
        } else {
            raw.write_all(&frame).expect("send chunk");
        }
    }
    write_request(&mut raw, &Request::TraceEnd).expect("end stream");
    match read_response(&mut raw) {
        Ok(Some(Response::Verdict(verdict))) => assert_eq!(verdict, expected),
        other => panic!("a stalled chunk must still get the verdict, got {other:?}"),
    }
    drop(raw);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn session_stalled_mid_frame_exits_on_shutdown() {
    let root = TempDir::new("serve-stall-shutdown");
    let handle = start_server(&root, None);
    let addr = handle.addr();
    let mut raw = raw_connect(&handle);
    write_stalled(&mut raw, &frame_bytes(&Request::Ping), 5);
    match read_response(&mut raw) {
        Ok(Some(Response::Pong)) => {}
        other => panic!("a stalled ping must be answered, got {other:?}"),
    }
    // Start another frame and never finish it: the session is mid-frame
    // when the shutdown arrives, and must still exit for the server to
    // join.
    raw.write_all(&frame_bytes(&Request::Ping)[..3]).expect("send frame head");
    std::thread::sleep(STALL);
    shutdown_server(addr).expect("shutdown acked");
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done.send(());
    });
    joined.recv_timeout(Duration::from_secs(10)).expect("server joins with a session mid-frame");
}

/// A client that connects and sends nothing does not block `Shutdown`
/// on a second connection: it is acknowledged while the silent client
/// stays connected, and the server joins.
#[test]
fn silent_client_does_not_block_shutdown() {
    let root = TempDir::new("serve-silent");
    let handle = start_server(&root, None);
    let addr = handle.addr();
    let silent = TcpStream::connect(addr).expect("connect silent client");
    let (acked, ack) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = acked.send(shutdown_server(addr));
    });
    ack.recv_timeout(Duration::from_secs(2))
        .expect("shutdown answered within 2 s despite a silent client")
        .expect("shutdown acked");
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done.send(());
    });
    joined.recv_timeout(Duration::from_secs(10)).expect("server joins");
    drop(silent);
}

/// Starts a client that pipelines `Stats` requests to `addr` and never
/// reads a reply, and returns once it has sent 20,000 of them (or its
/// writes stalled for 2 s), by when the server's replies have long
/// filled the socket buffers and the server is blocked writing. Returns
/// a handle on the socket, to close it, and the writer thread.
fn flood_without_reading(addr: SocketAddr) -> (TcpStream, JoinHandle<()>) {
    let mut stream = TcpStream::connect(addr).expect("connect flooding client");
    let handle = stream.try_clone().expect("clone flooding socket");
    let sent = Arc::new(AtomicUsize::new(0));
    let writer = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            let frame = frame_bytes(&Request::Stats);
            for _ in 0..200_000 {
                if stream.write_all(&frame).is_err() {
                    return;
                }
                sent.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let started = Instant::now();
    let mut last = (0, Instant::now());
    while sent.load(Ordering::Relaxed) < 20_000 {
        let now = sent.load(Ordering::Relaxed);
        if now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() > Duration::from_secs(2) {
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(30), "flooding client never got going");
        std::thread::sleep(Duration::from_millis(10));
    }
    (handle, writer)
}

/// A client that floods `Stats` requests and never reads a reply does
/// not hold the server past an acknowledged `Shutdown`: the session's
/// blocked reply write times out and the session ends, so the server
/// joins while the client still holds its socket open.
#[test]
fn client_that_never_reads_replies_does_not_block_shutdown() {
    let root = TempDir::new("serve-unread-replies");
    let handle = start_server(&root, None);
    let addr = handle.addr();
    let (flood, writer) = flood_without_reading(addr);
    shutdown_server(addr).expect("shutdown acked");
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done.send(());
    });
    let outcome = joined.recv_timeout(Duration::from_secs(10));
    let _ = flood.shutdown(Shutdown::Both);
    let _ = writer.join();
    outcome.expect("server joins within 10 s despite a client that never reads");
}

/// A `Shutdown` on a second connection is acknowledged while a client
/// that floods `Stats` requests and never reads a reply stays connected.
#[test]
fn shutdown_beside_a_client_that_never_reads_replies_is_acked() {
    let root = TempDir::new("serve-unread-beside");
    let handle = start_server(&root, None);
    let addr = handle.addr();
    let (flood, writer) = flood_without_reading(addr);
    let (acked, ack) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = acked.send(shutdown_server(addr));
    });
    let outcome = ack.recv_timeout(Duration::from_secs(10));
    let _ = flood.shutdown(Shutdown::Both);
    let _ = writer.join();
    outcome
        .expect("shutdown answered within 10 s despite a client that never reads")
        .expect("shutdown acked");
    handle.join();
}

/// Every metric `Stats` lists, in its order.
const METRICS: [&str; 19] = [
    "sessions_total",
    "requests_total",
    "submits",
    "archived_runs",
    "busy_rejections",
    "trace_bytes_received",
    "traces_archived",
    "ledger_hits",
    "ledger_misses",
    "simulated_pairs",
    "unknown_policy",
    "bad_traces",
    "protocol_errors",
    "internal_errors",
    "in_flight_bytes",
    "request_us",
    "ingest_us",
    "simulate_us",
    "archive_us",
];

/// The metric lines of a `Stats` reply: every line before the ledger
/// overview, which starts at `ledger_runs`.
fn metric_lines(stats: &str) -> Vec<&str> {
    stats.lines().take_while(|line| !line.starts_with("ledger_runs ")).collect()
}

fn metric_names<'a>(lines: &[&'a str]) -> Vec<&'a str> {
    lines.iter().map(|line| line.split(' ').next().unwrap_or("")).collect()
}

/// The value of counter `name` in a `Stats` reply.
fn counter(stats: &str, name: &str) -> u64 {
    let line = metric_lines(stats)
        .into_iter()
        .find(|line| line.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("stats lists {name}: {stats}"));
    line[name.len() + 1..].parse().unwrap_or_else(|_| panic!("{name} is a counter: {line}"))
}

/// A fresh server's `Stats` lists all 19 metrics, unused ones at zero,
/// and keeps that order whichever requests ran since: a `Busy`, a bad
/// trace and a successful submit here.
#[test]
fn stats_lists_every_metric_in_a_fixed_order() {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let spec = &suite[0];
    let bytes = write_trace_packed(&spec.generate_packed(INSTRUCTIONS));
    let root = TempDir::new("serve-metric-order");
    let handle = start_server(&root, Some(1));

    let fresh = Client::connect(handle.addr()).expect("connect").stats().expect("stats");
    let lines = metric_lines(&fresh);
    assert_eq!(metric_names(&lines), METRICS, "{fresh}");
    for line in &lines[..14] {
        // The Stats request itself is the one session and one request.
        let want = if line.starts_with("sessions_total ") || line.starts_with("requests_total ") {
            1
        } else {
            0
        };
        assert!(line.ends_with(&format!(" {want}")), "fresh counter: {line}");
    }
    assert_eq!(lines[14], "in_flight_bytes 0 (peak 0)");
    for line in &lines[15..] {
        assert!(line.ends_with("p50 0 / p99 0 (0 samples)"), "fresh histogram: {line}");
    }

    // A holds the one-byte budget, so B is Busy; A then completes.
    let mut a = raw_connect(&handle);
    write_request(&mut a, &submit_request(spec, &bytes, INSTRUCTIONS as u64))
        .expect("send submit A");
    match read_response(&mut a) {
        Ok(Some(Response::Go)) => {}
        other => panic!("alone request must be admitted, got {other:?}"),
    }
    let mut b = raw_connect(&handle);
    write_request(&mut b, &submit_request(spec, &bytes, INSTRUCTIONS as u64))
        .expect("send submit B");
    match read_response(&mut b) {
        Ok(Some(Response::Busy { .. })) => {}
        other => panic!("expected busy while A holds the budget, got {other:?}"),
    }
    for chunk in bytes.chunks(wire::TRACE_CHUNK_BYTES) {
        write_request(&mut a, &Request::TraceChunk(chunk.to_vec())).expect("stream chunk");
    }
    write_request(&mut a, &Request::TraceEnd).expect("end stream");
    match read_response(&mut a) {
        Ok(Some(Response::Verdict(_))) => {}
        other => panic!("expected verdict, got {other:?}"),
    }
    // Bytes that do not decode.
    let garbage = vec![0xABu8; 64];
    let mut raw = raw_connect(&handle);
    write_request(&mut raw, &submit_request(spec, &garbage, 7)).expect("send garbage submit");
    match read_response(&mut raw) {
        Ok(Some(Response::Go)) => {}
        other => panic!("expected go, got {other:?}"),
    }
    write_request(&mut raw, &Request::TraceChunk(garbage)).expect("send chunk");
    write_request(&mut raw, &Request::TraceEnd).expect("send end");
    match read_response(&mut raw) {
        Ok(Some(Response::Error { code, .. })) => assert_eq!(code, err::BAD_TRACE),
        other => panic!("expected bad-trace error, got {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).expect("connect");
    let after = client.stats().expect("stats");
    let lines = metric_lines(&after);
    assert_eq!(metric_names(&lines), METRICS, "same order after use: {after}");
    assert_eq!(counter(&after, "submits"), 3, "{after}");
    assert_eq!(counter(&after, "busy_rejections"), 1, "{after}");
    assert_eq!(counter(&after, "bad_traces"), 1, "{after}");
    assert_eq!(counter(&after, "traces_archived"), 1, "{after}");
    assert!(lines[14].starts_with("in_flight_bytes 0 (peak "), "{after}");
    assert_ne!(lines[14], "in_flight_bytes 0 (peak 0)", "A's reservation peaked: {after}");

    drop((a, b, raw, client));
    handle.shutdown().expect("clean shutdown");
}
