//! `serve`: one `chirp-serve` request at a time from one client, closed
//! loop, no think time. Per trace, three interleaved requests:
//!
//! * `fresh` — submit the trace for the paper's six policies: upload,
//!   decode, hash, archive write, factored simulation, ledger appends;
//! * `repeat` — the same submit again: upload, decode and hash, then the
//!   ledger answers;
//! * `rerun` — run one policy outside the paper lineup over the archived
//!   trace by content hash: archive read, the single-policy columnar
//!   engine, one ledger append.
//!
//! Each pass over the traces gets a fresh server on an empty store, so
//! every pass does the same work: each `fresh` is a ledger miss that
//! writes its trace to the archive.

use crate::check::{self, LINEUP9, PAPER6};
use crate::speed::Reference;
use crate::stats::{self, median};
use crate::tracer::Tracer;
use crate::{Outcome, WorkDir};
use chirp_serve::client::{Client, SubmitOutcome};
use chirp_serve::server::{serve, ServeConfig, ServerHandle};
use chirp_serve::wire::VerdictReply;
use chirp_sim::store_cache::{record_from_run, run_key};
use chirp_sim::{group_sig_config, replay_factored, BenchRun, FactoredTrace, SimConfig, Simulator};
use chirp_store::{fnv64, ArchiveOutcome, EncodedTrace, EntryMeta, RunLedger, TraceArchive};
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{read_trace_packed, write_trace_packed};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct traces per pass.
    pub traces: usize,
    /// Instructions per trace.
    pub instructions: usize,
    /// Times the server is started and the traces are generated and
    /// encoded during set-up; `setup_s` is the median.
    pub setups: usize,
}

/// The size the benchmark runs at.
pub const SIZES: Sizes = Sizes { traces: 8, instructions: 1_000_000, setups: 5 };

/// The `rerun` policies, rotated over the traces.
const RERUN: [&str; 3] = [LINEUP9[6], LINEUP9[7], LINEUP9[8]];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Repeat,
    Rerun,
}

/// One request's outcome, checked against the reference after the run.
#[derive(Debug)]
struct Request {
    trace: usize,
    class: Class,
    rtt_ms: f64,
    /// Verdict digests, or `None` for an error, `Busy` or a reply whose
    /// shape (policy count, cache flags, content hash) is wrong.
    digests: Option<Vec<u64>>,
    ledger_hits: usize,
    policies: usize,
}

/// A running server with one connected client.
struct Live {
    handle: ServerHandle,
    client: Client,
    root: PathBuf,
}

impl Live {
    fn start(root: PathBuf) -> Live {
        let config = ServeConfig { store: root.clone(), threads: 1, ..ServeConfig::default() };
        let handle = serve(config).expect("start the server");
        let client = Client::connect(handle.addr()).expect("connect to the server");
        Live { handle, client, root }
    }

    fn stop(self) {
        drop(self.client);
        self.handle.shutdown().expect("shut the server down");
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// An encoded trace ready to upload.
struct Upload {
    bytes: Vec<u8>,
    hash: u64,
}

fn encode_all(suite: &[BenchmarkSpec], len: usize, tracer: &mut Tracer) -> Vec<Upload> {
    suite
        .iter()
        .map(|bench| {
            let trace = tracer.time("trace.generate", || bench.generate_packed(len));
            let bytes = tracer.time("trace.encode", || write_trace_packed(&trace));
            Upload { hash: fnv64(&bytes), bytes }
        })
        .collect()
}

/// Checks a reply's shape and returns its digests and ledger-hit count.
fn verdicts(
    reply: Result<SubmitOutcome, chirp_serve::ClientError>,
    policies: &[&str],
    hash: u64,
    busy: &mut u64,
) -> (Option<Vec<u64>>, usize) {
    match reply {
        Ok(SubmitOutcome::Verdict(VerdictReply { content_hash, verdicts, .. }))
            if content_hash == hash
                && verdicts.len() == policies.len()
                && verdicts.iter().zip(policies).all(|(v, p)| v.policy == *p) =>
        {
            let hits = verdicts.iter().filter(|v| v.from_ledger).count();
            (Some(verdicts.iter().map(check::digest_verdict).collect()), hits)
        }
        Ok(SubmitOutcome::Busy { .. }) => {
            *busy += 1;
            (None, 0)
        }
        _ => (None, 0),
    }
}

/// In-process re-execution of a request's server-side steps, for the
/// traced run: the same public functions on the same inputs, attributed
/// to the request's round-trip span.
struct Reexec<'a> {
    sim: &'a SimConfig,
    archive: TraceArchive,
    ledger: RunLedger,
    len: usize,
}

impl Reexec<'_> {
    /// Returns (front-end events, access events x policies, L2 misses,
    /// measured instructions).
    fn fresh(&mut self, tracer: &mut Tracer, bench: &BenchmarkSpec, up: &Upload) -> [u64; 4] {
        let trace = tracer.time("trace.decode", || read_trace_packed(&up.bytes).expect("decodes"));
        let hash = tracer.time("store.hash", || fnv64(&up.bytes));
        let encoded =
            EncodedTrace { checksum: hash, records: trace.len() as u64, bytes: up.bytes.clone() };
        let t = Instant::now();
        let path = self.archive.trace_path(hash);
        TraceArchive::store_file(&path, &encoded).expect("write the archive copy");
        self.archive.commit(hash, &encoded, ArchiveOutcome::MissGenerated).expect("commit");
        tracer.record("store.archive_write", t, Instant::now());
        let kinds = check::policies(PAPER6);
        let sig = group_sig_config(kinds.iter());
        let sim = self.sim;
        let factored = tracer
            .time("frontend", || FactoredTrace::build(sim, &trace, sim.warmup_fraction, &sig));
        let results = tracer.time("replay", || {
            let built = kinds.iter().map(|k| k.build_dispatch(sim.tlb.l2, bench.seed));
            replay_factored(sim, &factored, built.collect())
        });
        let misses = results.iter().map(|(r, _)| r.l2_tlb.misses).sum();
        let measured = results.iter().map(|(r, _)| r.instructions).sum();
        for (kind, (result, _)) in kinds.iter().zip(results) {
            self.append(tracer, bench, kind, result);
        }
        [
            (factored.access_events() + factored.control_events()) as u64,
            (factored.access_events() * kinds.len()) as u64,
            misses,
            measured,
        ]
    }

    fn repeat(&mut self, tracer: &mut Tracer, up: &Upload) {
        tracer.time("trace.decode", || read_trace_packed(&up.bytes).expect("decodes"));
        tracer.time("store.hash", || fnv64(&up.bytes));
    }

    fn rerun(&mut self, tracer: &mut Tracer, bench: &BenchmarkSpec, up: &Upload, policy: &str) {
        let meta = EntryMeta { checksum: up.hash, bytes: up.bytes.len() as u64 };
        let path = self.archive.trace_path(up.hash);
        let trace = tracer
            .time("store.archive_read", || TraceArchive::decode_file(&path, meta))
            .expect("archive copy decodes");
        let kind = &check::policies(&[policy])[0];
        let sim = self.sim;
        let result = tracer.time("engine", || {
            Simulator::with_policy(sim, kind.build_dispatch(sim.tlb.l2, bench.seed))
                .run_columnar(&trace, sim.warmup_fraction)
        });
        self.append(tracer, bench, kind, result);
    }

    fn append(
        &mut self,
        tracer: &mut Tracer,
        bench: &BenchmarkSpec,
        kind: &chirp_sim::PolicyKind,
        result: chirp_sim::RunResult,
    ) {
        let key = run_key(self.sim, kind, &bench.name, self.len);
        let run = BenchRun { benchmark: bench.name.clone(), category: bench.category, result };
        let t = Instant::now();
        self.ledger.append(key, record_from_run(&run, self.sim, kind)).expect("ledger append");
        tracer.record("store.ledger_append", t, Instant::now());
    }
}

/// Pins glibc's mmap threshold at 1 MiB. By default glibc raises it to
/// the size of each large block freed, so whether a trace-sized buffer
/// comes from a fresh mapping or from a thread arena's heap (and stays
/// resident) depends on the order in which the server's session threads
/// freed earlier buffers; that order makes `VmHWM` vary by ±15% from run
/// to run. With the threshold pinned, every block of 1 MiB or more is its
/// own mapping, returned when freed, and the peak is a property of the
/// requests alone.
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only updates allocator tuning parameters; glibc
    // serialises it against concurrent allocations.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

/// Runs the workload for `seconds`. With `traced`, each request of an
/// even pass is followed by the in-process re-execution of its
/// server-side steps; odd passes run untraced.
pub fn run(seed: u64, seconds: f64, traced: bool, sizes: Sizes) -> Outcome {
    fix_mmap_threshold();
    let sim = SimConfig::default();
    let suite = check::suite(seed, sizes.traces);
    let work = WorkDir::new("serve");
    let mut tracer = Tracer::new(traced);
    let mut out = Outcome::default();
    let mut reference = Reference::new(1);
    let mut stores = 0usize;
    let mut next_root = |dir: &Path| {
        stores += 1;
        dir.join(format!("store{stores}"))
    };

    let mut live = None;
    let mut uploads = Vec::new();
    for _ in 0..sizes.setups.max(1) {
        if let Some(previous) = live.take() {
            Live::stop(previous);
        }
        uploads.clear();
        let started = Instant::now();
        let server = Live::start(next_root(work.path()));
        uploads = encode_all(&suite, sizes.instructions, &mut tracer);
        live = Some(server);
        out.end_setup(started, &mut reference);
    }
    let mut live = live.expect("at least one set-up");

    let reexec_dir = work.path().join("reexec");
    let mut reexec = Reexec {
        sim: &sim,
        archive: TraceArchive::open(&reexec_dir).expect("open the re-execution archive"),
        ledger: RunLedger::open(&reexec_dir).expect("open the re-execution ledger"),
        len: sizes.instructions,
    };
    let paper6: Vec<String> = PAPER6.iter().map(|s| s.to_string()).collect();
    let mut requests: Vec<Request> = Vec::new();
    let mut residual: [Vec<f64>; 3] = Default::default();
    let (mut busy, mut events, mut accesses, mut reruns) = (0u64, 0u64, 0u64, 0u64);
    let upload_bytes: u64 = uploads.iter().map(|u| 2 * u.bytes.len() as u64).sum();
    let pass_instr = (suite.len() * (PAPER6.len() + 1) * sizes.instructions) as f64;
    out.host_start();
    let started = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        if pass > 0 {
            Live::stop(live);
            live = Live::start(next_root(work.path()));
        }
        let traced_pass = traced && pass.is_multiple_of(2);
        tracer.set_enabled(traced_pass);
        let mut pass_total = 0.0;
        for (i, (bench, up)) in suite.iter().zip(&uploads).enumerate() {
            let (name, category) = (bench.name.as_str(), bench.category.label());
            let rerun_policy = RERUN[i % RERUN.len()];
            let mut triple = 0.0;
            for class in [Class::Fresh, Class::Repeat, Class::Rerun] {
                tracer.next_op();
                let t0 = Instant::now();
                let reply = match class {
                    Class::Fresh | Class::Repeat => live
                        .client
                        .submit_bytes(name, category, bench.seed, &paper6, false, &up.bytes),
                    Class::Rerun => live.client.run_archived(
                        up.hash,
                        name,
                        category,
                        bench.seed,
                        &[rerun_policy.to_string()],
                        false,
                    ),
                };
                let t1 = Instant::now();
                let rtt_ms = (t1 - t0).as_secs_f64() * 1e3;
                triple += rtt_ms;
                let policies: &[&str] =
                    if class == Class::Rerun { &[rerun_policy] } else { PAPER6 };
                let (digests, ledger_hits) = verdicts(reply, policies, up.hash, &mut busy);
                requests.push(Request {
                    trace: i,
                    class,
                    rtt_ms,
                    digests,
                    ledger_hits,
                    policies: policies.len(),
                });

                let span = tracer.record(
                    match class {
                        Class::Fresh => "request.fresh",
                        Class::Repeat => "request.repeat",
                        Class::Rerun => "request.rerun",
                    },
                    t0,
                    t1,
                );
                if traced_pass {
                    tracer.adopt(span);
                    let before = tracer.spans().len();
                    match class {
                        Class::Fresh => {
                            let [e, a, misses, measured] = reexec.fresh(&mut tracer, bench, up);
                            events += e;
                            accesses += a;
                            if pass == 0 {
                                out.l2_misses += misses;
                                out.l2_measured_instr += measured;
                            }
                        }
                        Class::Repeat => reexec.repeat(&mut tracer, up),
                        Class::Rerun => {
                            reexec.rerun(&mut tracer, bench, up, rerun_policy);
                            reruns += 1;
                        }
                    }
                    tracer.release(span);
                    let attributed: f64 = tracer.spans()[before..].iter().map(|s| s.ms()).sum();
                    residual[class as usize].push(rtt_ms - attributed);
                }
            }
            out.op(triple, &mut reference);
            pass_total += triple;
        }
        out.end_pass(pass_total, pass_instr, &mut reference);
        pass += 1;
    }
    out.host_end();
    out.peak_rss_mib = stats::peak_rss_mib();
    Live::stop(live);

    let reference = check::reference(&sim, seed, &suite, sizes.instructions)
        .unwrap_or_else(check::no_reference);
    let expected = |r: &Request| -> Option<(Vec<u64>, usize)> {
        let refs = reference.get(r.trace)?;
        Some(match r.class {
            Class::Fresh => (refs[..PAPER6.len()].to_vec(), 0),
            Class::Repeat => (refs[..PAPER6.len()].to_vec(), PAPER6.len()),
            Class::Rerun => (vec![refs[PAPER6.len() + r.trace % RERUN.len()]], 0),
        })
    };
    out.attempted = requests.len() as u64;
    out.failed = requests
        .iter()
        .filter(|r| expected(r) != r.digests.clone().map(|d| (d, r.ledger_hits)))
        .count() as u64;
    out.ops_label = "op = one trace's fresh + repeat + rerun round trips";

    let class_ms = |class: Class| -> Vec<f64> {
        requests.iter().filter(|r| r.class == class).map(|r| r.rtt_ms).collect()
    };
    let hit_ratio = |class: Class| -> f64 {
        let (hits, total) = requests
            .iter()
            .filter(|r| r.class == class)
            .fold((0, 0), |(h, t), r| (h + r.ledger_hits, t + r.policies));
        hits as f64 / total.max(1) as f64
    };
    let total_ms: f64 = requests.iter().map(|r| r.rtt_ms).sum();
    let p50 = [Class::Fresh, Class::Repeat, Class::Rerun].map(|c| median(&class_ms(c)));
    out.notes = vec![
        ("fresh_p50_ms".into(), p50[0], "ms"),
        ("repeat_p50_ms".into(), p50[1], "ms"),
        ("rerun_p50_ms".into(), p50[2], "ms"),
        ("req_per_s".into(), requests.len() as f64 / (total_ms / 1e3), "req/s"),
    ];
    out.op_digests = requests.iter().map(|r| r.digests.clone().unwrap_or_default()).collect();

    if traced {
        out.layer("serve.fresh_p50_ms", p50[0]);
        out.layer("serve.repeat_p50_ms", p50[1]);
        out.layer("serve.rerun_p50_ms", p50[2]);
        out.layer("serve.busy", busy as f64);
        out.layer("store.ledger_hit_ratio.fresh", hit_ratio(Class::Fresh));
        out.layer("store.ledger_hit_ratio.repeat", hit_ratio(Class::Repeat));
        out.layer("store.ledger_hit_ratio.rerun", hit_ratio(Class::Rerun));
        out.layer("wire.upload_mib", upload_bytes as f64 / (1024.0 * 1024.0));
        for (name, class) in [
            ("wire.residual_ms.fresh", Class::Fresh),
            ("wire.residual_ms.repeat", Class::Repeat),
            ("wire.residual_ms.rerun", Class::Rerun),
        ] {
            let r = &residual[class as usize];
            out.layer(name, if r.is_empty() { 0.0 } else { median(r) });
        }
        let fresh_instr = (pass.div_ceil(2) * suite.len() * sizes.instructions) as f64;
        out.layer("trace.generate_ms", tracer.median_span_ms("trace.generate"));
        out.layer("trace.encode_ms", tracer.median_span_ms("trace.encode"));
        out.layer("trace.decode_ms", tracer.median_span_ms("trace.decode"));
        out.layer("store.hash_ms", tracer.median_span_ms("store.hash"));
        out.layer("store.archive_write_ms", tracer.median_span_ms("store.archive_write"));
        out.layer("store.archive_read_ms", tracer.median_span_ms("store.archive_read"));
        out.layer("store.ledger_append_ms", tracer.median_span_ms("store.ledger_append"));
        out.layer("frontend.ms", tracer.median_ms("frontend"));
        out.layer("frontend.ns_per_instr", tracer.total_ms("frontend") * 1e6 / fresh_instr);
        out.layer("frontend.events_per_instr", events as f64 / fresh_instr);
        out.layer("replay.ms", tracer.median_ms("replay"));
        out.layer("replay.ns_per_event", tracer.total_ms("replay") * 1e6 / accesses.max(1) as f64);
        out.layer("engine.ms", tracer.median_ms("engine"));
        out.layer(
            "engine.ns_per_instr",
            tracer.total_ms("engine") * 1e6 / (reruns.max(1) as usize * sizes.instructions) as f64,
        );
        let requests_ms: f64 = ["request.fresh", "request.repeat", "request.rerun"]
            .iter()
            .map(|n| tracer.total_ms(n))
            .sum();
        let attributed: f64 = residual.iter().flatten().sum::<f64>();
        out.layer("span.explained_pct", 100.0 * (1.0 - attributed / requests_ms));
        out.overhead();
    }
    out.tracer = tracer;
    out
}
