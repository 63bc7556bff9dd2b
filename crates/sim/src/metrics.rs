//! Result records and metric helpers.

use chirp_tlb::TlbStats;

/// The measured outcome of simulating one trace under one policy.
///
/// All counters cover the measurement window only (after warmup), except
/// `efficiency` and `table_access_rate`, which are whole-run properties.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Replacement policy name.
    pub policy: String,
    /// Instructions in the measurement window.
    pub instructions: u64,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// L2 TLB statistics in the measurement window.
    pub l2_tlb: TlbStats,
    /// L2 TLB accesses in the measurement window.
    pub l2_accesses: u64,
    /// Prediction-table accesses over the whole run.
    pub prediction_table_accesses: u64,
    /// L2 TLB accesses over the whole run (Figure 11 denominator).
    pub l2_accesses_total: u64,
    /// TLB efficiency over the whole run (Figure 1 metric).
    pub efficiency: f64,
}

impl RunResult {
    /// L2 TLB misses per 1000 instructions.
    pub fn mpki(&self) -> f64 {
        self.l2_tlb.mpki(self.instructions)
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Prediction-table accesses per L2 TLB access (Figure 11). Can exceed
    /// 1.0 for policies that both read and train per access.
    pub fn table_access_rate(&self) -> f64 {
        if self.l2_accesses_total == 0 {
            0.0
        } else {
            self.prediction_table_accesses as f64 / self.l2_accesses_total as f64
        }
    }

    /// Speedup of this run relative to `baseline` (IPC ratio − 1, as a
    /// fraction; 0.048 = the paper's 4.8%).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        let base = baseline.ipc();
        if base == 0.0 {
            0.0
        } else {
            self.ipc() / base - 1.0
        }
    }
}

/// Geometric mean of `1 + x` over the values, minus 1 — the conventional
/// way to average speedups. Returns 0 for an empty slice.
pub fn geomean_speedup(speedups: &[f64]) -> f64 {
    if speedups.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = speedups.iter().map(|s| (1.0 + s).ln()).sum();
    (log_sum / speedups.len() as f64).exp() - 1.0
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Relative reduction of `new` versus `base` as a fraction
/// (`0.28` = 28% lower). Returns 0 when `base` is 0.
pub fn reduction(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(policy: &str, instructions: u64, cycles: u64, misses: u64) -> RunResult {
        RunResult {
            policy: policy.into(),
            instructions,
            cycles,
            l2_tlb: TlbStats { hits: 0, misses, dead_evictions: 0, cold_fills: 0 },
            l2_accesses: misses,
            prediction_table_accesses: 0,
            l2_accesses_total: misses.max(1),
            efficiency: 0.0,
        }
    }

    #[test]
    fn mpki_and_ipc() {
        let r = result("lru", 1_000_000, 2_000_000, 1510);
        assert!((r.mpki() - 1.51).abs() < 1e-9);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_ipc_ratio() {
        let base = result("lru", 1000, 2000, 0);
        let fast = result("chirp", 1000, 1904, 0); // ~5% faster
        assert!((fast.speedup_over(&base) - (2000.0 / 1904.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_equal_speedups_is_that_speedup() {
        assert!((geomean_speedup(&[0.05, 0.05, 0.05]) - 0.05).abs() < 1e-12);
        assert_eq!(geomean_speedup(&[]), 0.0);
    }

    #[test]
    fn reduction_fraction() {
        assert!((reduction(1.51, 1.08) - 0.2847).abs() < 1e-3);
        assert_eq!(reduction(0.0, 1.0), 0.0);
    }

    #[test]
    fn zero_guards() {
        let r = result("x", 0, 0, 0);
        assert_eq!(r.mpki(), 0.0);
        assert_eq!(r.ipc(), 0.0);
    }
}
