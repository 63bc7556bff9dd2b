//! The server's metrics: one typed field per metric, so an update is a
//! field access and `Stats` lists every metric, zeros included, in one
//! fixed order.

use chirp_telemetry::{Counter, Log2Histogram};
use std::fmt::Write as _;

/// Every metric `chirp-serve` keeps, in the order [`Metrics::render`]
/// lists them (the admitted bytes, which the admission state holds, sit
/// between the counters and the histograms).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Data connections accepted.
    pub sessions_total: Counter,
    /// Requests read, of every kind.
    pub requests_total: Counter,
    /// `Submit` requests.
    pub submits: Counter,
    /// `RunArchived` requests with a valid run spec.
    pub archived_runs: Counter,
    /// Requests answered `Busy`.
    pub busy_rejections: Counter,
    /// Upload bytes received in full.
    pub trace_bytes_received: Counter,
    /// Uploads written to the archive.
    pub traces_archived: Counter,
    /// Policies answered from the run ledger.
    pub ledger_hits: Counter,
    /// Policies the run ledger did not hold.
    pub ledger_misses: Counter,
    /// (trace, policy) pairs simulated.
    pub simulated_pairs: Counter,
    /// Requests naming a policy the registry does not know.
    pub unknown_policy: Counter,
    /// Uploads whose bytes do not decode.
    pub bad_traces: Counter,
    /// Sessions closed for a framing violation.
    pub protocol_errors: Counter,
    /// Archive writes, ledger appends or archived files that failed.
    pub internal_errors: Counter,
    /// Request latency, µs.
    pub request_us: Log2Histogram,
    /// Receiving an upload, µs.
    pub ingest_us: Log2Histogram,
    /// The streamed pass (decode, checksum and simulation), µs.
    pub simulate_us: Log2Histogram,
    /// The archive write, µs.
    pub archive_us: Log2Histogram,
}

impl Metrics {
    /// One line per metric: counters as `name V`, the admitted trace
    /// bytes as `in_flight_bytes V (peak P)`, histograms as
    /// `name p50 A / p99 B (N samples)`.
    pub fn render(&self, in_flight_bytes: u64, in_flight_peak: u64) -> String {
        let counters = [
            ("sessions_total", &self.sessions_total),
            ("requests_total", &self.requests_total),
            ("submits", &self.submits),
            ("archived_runs", &self.archived_runs),
            ("busy_rejections", &self.busy_rejections),
            ("trace_bytes_received", &self.trace_bytes_received),
            ("traces_archived", &self.traces_archived),
            ("ledger_hits", &self.ledger_hits),
            ("ledger_misses", &self.ledger_misses),
            ("simulated_pairs", &self.simulated_pairs),
            ("unknown_policy", &self.unknown_policy),
            ("bad_traces", &self.bad_traces),
            ("protocol_errors", &self.protocol_errors),
            ("internal_errors", &self.internal_errors),
        ];
        let histograms = [
            ("request_us", &self.request_us),
            ("ingest_us", &self.ingest_us),
            ("simulate_us", &self.simulate_us),
            ("archive_us", &self.archive_us),
        ];
        let mut out = String::new();
        for (name, counter) in counters {
            let _ = writeln!(out, "{name} {}", counter.value());
        }
        let _ = writeln!(out, "in_flight_bytes {in_flight_bytes} (peak {in_flight_peak})");
        for (name, histogram) in histograms {
            let h = histogram.snapshot();
            let _ = writeln!(
                out,
                "{name} p50 {} / p99 {} ({} samples)",
                h.quantile(0.5),
                h.quantile(0.99),
                h.total()
            );
        }
        out
    }
}
