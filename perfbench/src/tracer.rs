//! In-memory spans for the traced run.
//!
//! A span is recorded around a call into one layer, from the benchmark's
//! own code: name, start, end, the span it is attributed to, and the op it
//! belongs to. Spans stay in memory and are written out as JSON when the
//! run ends. A disabled tracer records nothing, so the untraced run pays
//! only a branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `frontend` or `store.ledger_append`.
    pub name: &'static str,
    /// Start offset in ns.
    pub start_ns: u64,
    /// End offset in ns.
    pub end_ns: u64,
    /// Index of the span this one is attributed to.
    pub parent: Option<usize>,
    /// Identifier of the op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Spans opened while another is open are attributed to
/// it; [`Tracer::adopt`] attributes later spans to an already-closed one
/// (the serve workload re-executes a request's server-side steps after
/// its round trip and attributes them to it).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Turns recording on or off (traced and untraced passes alternate).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new op; later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` attributed to the innermost
    /// open span; returns its index (or `None` when disabled).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        let now = Instant::now();
        let id = self.record(name, now, now)?;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Attributes the following spans to the closed span `id` until
    /// [`Tracer::release`].
    pub fn adopt(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.open.push(id);
        }
    }

    /// Ends an [`Tracer::adopt`].
    pub fn release(&mut self, id: Option<usize>) {
        if id.is_some() {
            self.open.pop();
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per op, the summed duration (ms) of spans named `name`; ops with
    /// no such span are absent.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// Median over ops of the per-op total of `name`, or 0 when the layer
    /// was never crossed.
    pub fn median_ms(&self, name: &str) -> f64 {
        let per_op = self.per_op_ms(name);
        if per_op.is_empty() {
            0.0
        } else {
            crate::stats::median(&per_op)
        }
    }

    /// Median duration of single spans named `name` (for steps repeated
    /// within one op or during set-up), or 0 when there are none.
    pub fn median_span_ms(&self, name: &str) -> f64 {
        let spans: Vec<f64> = self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect();
        if spans.is_empty() {
            0.0
        } else {
            crate::stats::median(&spans)
        }
    }

    /// Per layer name: span count, total and self time in ms. Self time is
    /// a span's duration minus the durations of the spans attributed to
    /// it.
    pub fn layers(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ms) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ms();
            entry.2 += s.ms() - children;
        }
        out
    }

    /// The spans and per-layer totals as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"layers\":{");
        for (i, (name, (count, total, self_ms))) in self.layers().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"total_ms\":{total},\"self_ms\":{self_ms}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op");
        assert_eq!(t.time("leaf", || 5), 5);
        t.end(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_ms("op"), 0.0);
    }

    #[test]
    fn self_time_subtracts_attributed_children() {
        let mut t = Tracer::new(true);
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        t.next_op();
        let op = t.record("op", at(0), at(10));
        t.adopt(op);
        t.record("child", at(10), at(13));
        t.record("child", at(13), at(17));
        t.release(op);
        t.next_op();
        t.record("op", at(20), at(26));
        let layers = t.layers();
        let (count, total, self_ms) = layers["op"];
        assert_eq!(count, 2);
        assert!((total - 16.0).abs() < 1e-6);
        assert!((self_ms - 9.0).abs() < 1e-6, "10 - 7 + 6");
        assert_eq!(t.per_op_ms("child").len(), 1);
        assert!((t.median_ms("child") - 7.0).abs() < 1e-6);
        assert!((t.total_ms("op") - 16.0).abs() < 1e-6);
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn nested_spans_attribute_to_the_open_span() {
        let mut t = Tracer::new(true);
        let op = t.begin("op");
        t.time("leaf", || std::thread::sleep(Duration::from_millis(1)));
        t.end(op);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].ms() >= t.spans()[1].ms());
    }
}
