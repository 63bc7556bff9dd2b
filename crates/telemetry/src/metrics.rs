//! Metric primitives: counters and fixed-bucket log2 histograms.
//!
//! Everything here is lock-free on the record path — a metric update is
//! one relaxed atomic RMW — so instrumented code can record from any
//! worker thread without serialising against readers or other writers.
//! Reads (`value`, `snapshot`) are racy-but-monotonic in the usual
//! statistics sense: they may miss in-flight updates but never invent
//! counts.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("value", &self.value()).finish()
    }
}

/// Number of buckets in a [`Log2Histogram`]: one for zero plus one per
/// bit length of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram: bucket 0 holds zeros, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`. Recording is a single
/// relaxed increment, so it is cheap enough for per-task latencies.
pub struct Log2Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest value a bucket admits.
    pub fn bucket_lower_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log2Histogram").field("snapshot", &self.snapshot()).finish()
    }
}

/// An immutable copy of a [`Log2Histogram`]'s buckets, with quantile and
/// rendering helpers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw bucket counts (length [`HISTOGRAM_BUCKETS`], or 0 if default).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper bound (exclusive, saturating) of the bucket containing the
    /// `q`-quantile observation, or 0 for an empty histogram. Quantiles on
    /// a log2 histogram are bucket-resolution approximations — good enough
    /// to tell 2ms tasks from 200ms ones, which is all the scheduler
    /// report needs.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if bucket >= 63 {
                    u64::MAX
                } else {
                    (1u64 << bucket)
                        .saturating_sub(1)
                        .max(Log2Histogram::bucket_lower_bound(bucket))
                };
            }
        }
        u64::MAX
    }

    /// `(lower_bound, count)` for every non-empty bucket.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Log2Histogram::bucket_lower_bound(b), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), threads * per_thread, "no increment may be lost");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for bucket in 1..HISTOGRAM_BUCKETS {
            let low = Log2Histogram::bucket_lower_bound(bucket);
            assert_eq!(Log2Histogram::bucket_of(low), bucket, "lower bound lands in its bucket");
            assert_eq!(
                Log2Histogram::bucket_of(low - 1),
                bucket - 1,
                "one below the bound lands one bucket down"
            );
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_resolution() {
        let h = Log2Histogram::new();
        for _ in 0..90 {
            h.record(3); // bucket 2: [2, 4)
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10: [512, 1024)
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 100);
        assert_eq!(snap.quantile(0.5), 3, "p50 sits in the [2, 4) bucket");
        assert_eq!(snap.quantile(0.99), 1023, "p99 sits in the [512, 1024) bucket");
        assert_eq!(snap.nonzero(), vec![(2, 90), (512, 10)]);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }
}
