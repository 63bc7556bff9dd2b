//! TLB access statistics.

/// Hit/miss accounting for one TLB level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses satisfied by evicting a predicted-dead entry rather than the
    /// LRU fallback (0 for non-predictive policies).
    pub dead_evictions: u64,
    /// Misses that filled an invalid way (no eviction at all).
    pub cold_fills: u64,
}

impl TlbStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses per 1000 instructions — the paper's primary metric.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Outcome counts for fill-time dead/live predictions, scored at
/// eviction (telemetry; see `L2Tlb::enable_outcome_tracking`).
///
/// When an entry whose policy issued a prediction at fill time is
/// evicted, the prediction is scored against what actually happened:
/// "dead" was right iff the entry saw no hit between fill and eviction.
/// Entries of non-predictive policies (and entries still resident at the
/// end of a run) are not scored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadOutcomes {
    /// Predicted dead at fill; never hit before eviction. Correct.
    pub true_dead: u64,
    /// Predicted dead at fill; hit at least once before eviction. Wrong —
    /// the policy would have evicted a live entry.
    pub false_dead: u64,
    /// Predicted live at fill; hit at least once before eviction. Correct.
    pub true_live: u64,
    /// Predicted live at fill; never hit before eviction. Wrong — the
    /// entry occupied a way for nothing.
    pub false_live: u64,
}

impl DeadOutcomes {
    /// Total scored evictions.
    pub fn total(&self) -> u64 {
        self.true_dead + self.false_dead + self.true_live + self.false_live
    }

    /// Fraction of scored predictions that were correct, 0 when none.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_dead + self.true_live) as f64 / total as f64
        }
    }

    /// Field-wise sum.
    pub fn merged(&self, other: &DeadOutcomes) -> DeadOutcomes {
        DeadOutcomes {
            true_dead: self.true_dead + other.true_dead,
            false_dead: self.false_dead + other.false_dead,
            true_live: self.true_live + other.true_live,
            false_live: self.false_live + other.false_live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_outcome_accuracy() {
        let o = DeadOutcomes { true_dead: 6, false_dead: 1, true_live: 2, false_live: 1 };
        assert_eq!(o.total(), 10);
        assert!((o.accuracy() - 0.8).abs() < 1e-12);
        assert_eq!(DeadOutcomes::default().accuracy(), 0.0);
        let sum = o.merged(&o);
        assert_eq!(sum.total(), 20);
        assert_eq!(sum.true_dead, 12);
    }

    #[test]
    fn mpki_and_ratio() {
        let s = TlbStats { hits: 900, misses: 100, dead_evictions: 10, cold_fills: 5 };
        assert_eq!(s.accesses(), 1000);
        assert!((s.mpki(100_000) - 1.0).abs() < 1e-12);
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_instruction_guard() {
        assert_eq!(TlbStats::default().mpki(0), 0.0);
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }
}
