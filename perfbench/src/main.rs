//! End-to-end and per-layer benchmark of the CHiRP reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lineup|archive_suite|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The traced run also writes its spans to `perfbench/out/`. See
//! `perfbench/README.md` for what each workload and metric means.

mod archive;
mod check;
mod lineup;
mod serve;
mod speed;
mod stats;
mod tracer;

use stats::{median, percentile, HostSample};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tracer::Tracer;

/// End-to-end metrics of every workload: (name, unit).
const END_TO_END: [(&str, &str); 4] =
    [("minstr_per_s", "Minstr/s"), ("op_p50_ms", "ms"), ("peak_rss_mib", "MiB"), ("setup_s", "s")];

/// Per-layer metrics of the traced run: (name, unit). A layer a workload
/// does not cross reports 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("trace.generate_ms", "ms"),
    ("trace.encode_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("frontend.ms", "ms"),
    ("frontend.ns_per_instr", "ns"),
    ("frontend.events_per_instr", "count"),
    ("replay.ms", "ms"),
    ("replay.ns_per_event", "ns"),
    ("replay.l2_misses_per_ki", "count"),
    ("engine.ms", "ms"),
    ("engine.ns_per_instr", "ns"),
    ("sched.wall_ms", "ms"),
    ("sched.residual_ms", "ms"),
    ("sched.queue_wait_ms", "ms"),
    ("store.stream_decode_ms", "ms"),
    ("store.stream_mib", "MiB"),
    ("store.archive_read_ms", "ms"),
    ("store.archive_write_ms", "ms"),
    ("store.ledger_open_ms", "ms"),
    ("store.ledger_append_ms", "ms"),
    ("store.hash_ms", "ms"),
    ("store.ledger_hit_ratio.fresh", "ratio"),
    ("store.ledger_hit_ratio.repeat", "ratio"),
    ("store.ledger_hit_ratio.rerun", "ratio"),
    ("wire.upload_mib", "MiB"),
    ("wire.residual_ms.fresh", "ms"),
    ("wire.residual_ms.repeat", "ms"),
    ("wire.residual_ms.rerun", "ms"),
    ("serve.busy", "count"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.rerun_p50_ms", "ms"),
    ("span.explained_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.steal_ms", "ms"),
    ("host.loadavg", "count"),
    ("host.nproc", "count"),
    ("host.ref_ms", "ms"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops whose results did not match the reference, or that failed.
    pub failed: u64,
    /// Wall time of each set-up repetition, in s.
    pub setup_s: Vec<f64>,
    /// One-thread reference-kernel time after each set-up repetition, in
    /// ms.
    pub setup_ref_ms: Vec<f64>,
    /// Op time of each pass, in ms.
    pub pass_ms: Vec<f64>,
    /// Simulated (benchmark × policy) instructions per host second, per
    /// pass, in millions.
    pub pass_minstr_per_s: Vec<f64>,
    /// Reference-kernel time after each pass, in ms.
    pub pass_ref_ms: Vec<f64>,
    /// Latency of every op, in ms.
    pub op_ms: Vec<f64>,
    /// The pass each op ran in.
    pub op_pass: Vec<usize>,
    /// Result digests of every op, in op order.
    pub op_digests: Vec<Vec<u64>>,
    /// What one op is, for the summary.
    pub ops_label: &'static str,
    /// Further end-to-end figures for the summary: (name, value, unit).
    pub notes: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics measured by the traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// `VmHWM` at the end of the timed phase, in MiB.
    pub peak_rss_mib: f64,
    /// L2 TLB misses over one pass of the op list, all policies.
    pub l2_misses: u64,
    /// Measured-window instructions over the same results.
    pub l2_measured_instr: u64,
    host: Option<(HostSample, HostSample)>,
    /// The traced run's spans.
    pub tracer: Tracer,
}

impl Outcome {
    /// Records one op's latency in the current pass, then samples the
    /// reference kernel.
    fn op(&mut self, ms: f64, reference: &mut speed::Reference) {
        self.op_ms.push(ms);
        self.op_pass.push(self.pass_ref_ms.len());
        reference.sample();
    }

    /// Closes a pass whose ops took `ms` and simulated `instructions`
    /// (benchmark × policy): its throughput, and the reference kernel's
    /// median over the pass (topped up to at least 8 rounds).
    fn end_pass(&mut self, ms: f64, instructions: f64, reference: &mut speed::Reference) {
        self.pass_ms.push(ms);
        self.pass_minstr_per_s.push(instructions / (ms * 1e3));
        self.pass_ref_ms.push(reference.take(8));
    }

    /// Closes a set-up repetition that started at `started`, and samples
    /// the one-thread reference kernel right after it (set-up runs on one
    /// thread).
    fn end_setup(&mut self, started: std::time::Instant, reference: &mut speed::Reference) {
        self.setup_s.push(started.elapsed().as_secs_f64());
        self.setup_ref_ms.push(reference.take(8));
    }

    /// Per-pass throughput corrected to the nominal host speed.
    fn corrected_minstr_per_s(&self) -> Vec<f64> {
        let passes = self.pass_minstr_per_s.iter().zip(&self.pass_ref_ms);
        passes.map(|(v, r)| v / speed::correction(*r)).collect()
    }

    /// Op latencies corrected to the nominal host speed.
    fn corrected_op_ms(&self) -> Vec<f64> {
        let ops = self.op_ms.iter().zip(&self.op_pass);
        ops.map(|(ms, &p)| ms * speed::correction(self.pass_ref_ms[p])).collect()
    }

    /// Set-up times corrected to the nominal host speed, each by the
    /// kernel sampled right after it: the host's speed during set-up can
    /// differ from its speed over the timed phase.
    fn corrected_setup_s(&self) -> Vec<f64> {
        let setups = self.setup_s.iter().zip(&self.setup_ref_ms);
        setups.map(|(s, r)| s * speed::correction(*r)).collect()
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Samples the host as the timed phase starts.
    fn host_start(&mut self) {
        let now = HostSample::now();
        self.host = Some((now, now));
    }

    /// Samples the host as the timed phase ends.
    fn host_end(&mut self) {
        if let Some((_, end)) = &mut self.host {
            *end = HostSample::now();
        }
    }

    /// Records the tracing overhead: the corrected op time of the traced
    /// (even) passes over that of the untraced (odd) ones.
    fn overhead(&mut self) {
        let corrected = self.pass_ms.iter().zip(&self.pass_ref_ms);
        let mut halves = [Vec::new(), Vec::new()];
        for (i, (ms, r)) in corrected.enumerate() {
            halves[i % 2].push(ms * speed::correction(*r));
        }
        if halves.iter().all(|v| !v.is_empty()) {
            let (traced, untraced) = (median(&halves[0]), median(&halves[1]));
            self.layer("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
        }
    }
}

/// Where the benchmark writes: reports, and the stores its workloads use.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory named after `tag` and this process.
    pub fn new(tag: &str) -> WorkDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("work-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["lineup", "archive_suite", "serve"].contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be lineup, archive_suite or serve (got {:?})",
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// Runs `workload` at its benchmark size.
fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "lineup" => lineup::run(args.seed, args.seconds, args.trace, lineup::SIZES),
        "archive_suite" => archive::run(args.seed, args.seconds, args.trace, archive::SIZES),
        "serve" => serve::run(args.seed, args.seconds, args.trace, serve::SIZES),
        other => unreachable!("parse_args admits no workload {other}"),
    }
}

/// The metrics object of the result line: `(name, value, unit)`.
fn metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        let mut layers = outcome.layers.clone();
        if outcome.l2_measured_instr > 0 {
            let per_ki = 1e3 * outcome.l2_misses as f64 / outcome.l2_measured_instr as f64;
            layers.insert("replay.l2_misses_per_ki", per_ki);
        }
        if let Some((start, end)) = outcome.host {
            layers.insert("host.steal_ms", end.steal_ms - start.steal_ms);
            layers.insert("host.loadavg", end.loadavg);
        }
        layers.insert("host.nproc", stats::nproc() as f64);
        layers.insert("host.ref_ms", median(&outcome.pass_ref_ms));
        PER_LAYER.iter().map(|&(n, u)| (n, layers.get(n).copied().unwrap_or(0.0), u)).collect()
    } else {
        let values = [
            median(&outcome.corrected_minstr_per_s()),
            median(&outcome.corrected_op_ms()),
            outcome.peak_rss_mib,
            median(&outcome.corrected_setup_s()),
        ];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line.
fn result_json(outcome: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable lines: every figure with its unit and sample count.
fn summary(args: &Args, outcome: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "workload {} seed {} | {} ops attempted, {} failed | {} passes | {}",
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.pass_minstr_per_s.len(),
        outcome.ops_label
    )];
    let ops = outcome.op_ms.len();
    let (minstr, op_ms, setup) =
        (outcome.corrected_minstr_per_s(), outcome.corrected_op_ms(), outcome.corrected_setup_s());
    lines.push(format!(
        "  times below are corrected to the host speed at which the reference kernel takes {} \
         ms (measured: median {:.2} ms over {} passes); raw figures in brackets",
        speed::NOMINAL_MS,
        median(&outcome.pass_ref_ms),
        outcome.pass_ref_ms.len()
    ));
    lines.push(format!(
        "  minstr_per_s {:.2} Minstr/s [{:.2}] (median of {} passes)",
        median(&minstr),
        median(&outcome.pass_minstr_per_s),
        minstr.len()
    ));
    lines.push(format!(
        "  op_p50_ms {:.2} ms [{:.2}] (median of {ops} ops)",
        median(&op_ms),
        median(&outcome.op_ms)
    ));
    match (percentile(&op_ms, 0.9), percentile(&outcome.op_ms, 0.9)) {
        (Some(p90), Some(raw)) => {
            lines.push(format!("  op_p90_ms {p90:.2} ms [{raw:.2}] ({ops} ops)"))
        }
        _ => lines.push(format!("  op_p90_ms not reported: {ops} ops leave < 10 above p90")),
    }
    for (name, value, unit) in &outcome.notes {
        lines.push(format!("  {name} {value:.3} {unit} [raw]"));
    }
    let per_pass = outcome.pass_minstr_per_s.iter().zip(&outcome.pass_ref_ms);
    let per_pass: Vec<String> = per_pass.map(|(m, r)| format!("{m:.1}/{r:.2}")).collect();
    lines.push(format!("  per pass, raw Minstr/s / reference ms: {}", per_pass.join(" ")));
    lines.push(format!("  peak_rss_mib {:.1} MiB", outcome.peak_rss_mib));
    let setups: Vec<String> = setup.iter().map(|s| format!("{s:.3}")).collect();
    lines.push(format!(
        "  setup_s {:.3} s [{:.3}] (median of {} set-ups: {})",
        median(&setup),
        median(&outcome.setup_s),
        setup.len(),
        setups.join(" ")
    ));
    if let Some((start, end)) = outcome.host {
        lines.push(format!(
            "  host: nproc {} | steal {:.0} ms over the timed phase | loadavg {:.2}",
            stats::nproc(),
            end.steal_ms - start.steal_ms,
            end.loadavg
        ));
    }
    lines
}

/// Writes the traced run's report: per-layer metrics, host record, spans.
fn write_trace_report(args: &Args, outcome: &Outcome, metrics: &[(&str, f64, &str)]) {
    let mut body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"metrics\":{{",
        args.workload,
        args.seed,
        stats::nproc()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        );
    }
    let _ = write!(body, "}},\"trace\":{}}}", outcome.tracer.to_json());
    let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload lineup|archive_suite|serve --seed N --seconds S \
                 --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = run_workload(&args);
    for line in summary(&args, &outcome) {
        println!("{line}");
    }
    let metrics = metrics(&outcome, args.trace);
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("  {name} {value:.4} {unit}");
        }
        write_trace_report(&args, &outcome, &metrics);
    }
    println!("{}", result_json(&outcome, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&argv("--workload serve --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args, Args { workload: "serve".into(), seed: 42, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload lineup --trace 2")).is_err());
        assert!(parse_args(&argv("--workload lineup --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload lineup --seed")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "no metric beyond the lists");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            setup_s: vec![0.5, 0.7, 0.6],
            setup_ref_ms: vec![speed::NOMINAL_MS, speed::NOMINAL_MS, 2.0 * speed::NOMINAL_MS],
            pass_ms: vec![100.0, 200.0],
            pass_minstr_per_s: vec![10.0, 12.0],
            pass_ref_ms: vec![speed::NOMINAL_MS, 2.0 * speed::NOMINAL_MS],
            op_ms: vec![1.0, 2.0, 3.0],
            op_pass: vec![0, 0, 1],
            peak_rss_mib: 40.0,
            ..Outcome::default()
        };
        let line = result_json(&outcome, &metrics(&outcome, false));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        // The second pass ran at half the nominal host speed: its
        // throughput doubles and its op halves once corrected.
        assert!(line.contains("\"minstr_per_s\": {\"value\": 17, \"unit\": \"Minstr/s\"}"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        // The third set-up ran at half speed: 0.6 s corrects to 0.3 s,
        // and the median of 0.5, 0.7 and 0.3 is 0.5.
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let traced = metrics(&outcome, true);
        assert_eq!(traced.len(), PER_LAYER.len());
    }

    /// One tiny pass of every workload, untraced and traced: every op
    /// checks out against the reference and every metric is finite.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for trace in [false, true] {
            let runs = [
                lineup::run(
                    5,
                    0.0,
                    trace,
                    lineup::Sizes { benchmarks: 8, instructions: 20_000, setups: 2 },
                ),
                archive::run(
                    5,
                    0.0,
                    trace,
                    archive::Sizes { benchmarks: 8, instructions: 20_000, setups: 2 },
                ),
                serve::run(
                    5,
                    0.0,
                    trace,
                    serve::Sizes { traces: 3, instructions: 20_000, setups: 2 },
                ),
            ];
            for outcome in &runs {
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.failed, 0, "{}", outcome.ops_label);
                assert_eq!(outcome.setup_s.len(), 2);
                for (name, value, _) in metrics(outcome, trace) {
                    assert!(value.is_finite(), "{name} = {value}");
                }
            }
            if trace {
                let layer = |name: &str| runs[2].layers[name];
                assert_eq!(layer("store.ledger_hit_ratio.fresh"), 0.0);
                assert_eq!(layer("store.ledger_hit_ratio.repeat"), 1.0);
                assert_eq!(layer("store.ledger_hit_ratio.rerun"), 0.0);
                assert_eq!(layer("serve.busy"), 0.0);
                assert!(runs.iter().all(|o| o.tracer.spans().iter().any(|s| s.name == "frontend")));
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_op_digests() {
        let sizes = lineup::Sizes { benchmarks: 8, instructions: 10_000, setups: 1 };
        let a = lineup::run(9, 0.0, false, sizes);
        let b = lineup::run(9, 0.0, false, sizes);
        let c = lineup::run(10, 0.0, false, sizes);
        assert_eq!(a.op_digests, b.op_digests);
        assert_ne!(a.op_digests, c.op_digests);
    }
}
