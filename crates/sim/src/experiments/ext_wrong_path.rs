//! Extension experiment: commit-time vs naive-speculative history (paper
//! §VI-E).
//!
//! The paper states CHiRP "only updates the tables of counters at commit
//! with right-path branches to prevent pollution of the tables" and keeps
//! a non-speculative history for recovery. This ablation quantifies why:
//! a naive implementation that folds wrong-path fetch into its history
//! registers (no recovery) corrupts the signatures of accesses issued
//! near mispredicted branches.

use crate::metrics::{mean, reduction};
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::{group_by_benchmark, run_suite, RunnerConfig};
use chirp_core::ChirpConfig;
use chirp_trace::suite::BenchmarkSpec;

/// The wrong-path ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct WrongPathResult {
    /// (pollution events per mispredict, mean MPKI, reduction vs LRU).
    pub rows: Vec<(u32, f64, f64)>,
    /// LRU mean MPKI for reference.
    pub lru_mpki: f64,
}

/// Runs the ablation: pollution ∈ {0 (commit-time), 4, 8, 16}.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> WrongPathResult {
    let pollutions = [0u32, 4, 8, 16];
    let mut policies = vec![PolicyKind::Lru];
    for &p in &pollutions {
        policies
            .push(PolicyKind::Chirp(ChirpConfig { wrong_path_pollution: p, ..Default::default() }));
    }
    let runs = run_suite(suite, &policies, config);
    let grouped = group_by_benchmark(&runs, policies.len());
    let mean_mpki = |idx: usize| {
        let v: Vec<f64> = grouped.iter().map(|g| g[idx].result.mpki()).collect();
        mean(&v)
    };
    let lru_mpki = mean_mpki(0);
    let rows = pollutions
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let m = mean_mpki(i + 1);
            (p, m, reduction(lru_mpki, m))
        })
        .collect();
    WrongPathResult { rows, lru_mpki }
}

/// Renders the ablation table.
pub fn render(result: &WrongPathResult) -> String {
    let mut out = String::new();
    out.push_str("Extension: commit-time vs naive-speculative history (VI-E)\n");
    out.push_str(&format!("LRU mean MPKI: {:.3}\n", result.lru_mpki));
    let mut table = Table::new(["wrong-path events/mispredict", "mean MPKI", "reduction vs LRU"]);
    for (p, m, r) in &result.rows {
        let label = if *p == 0 { "0 (commit-time, paper)".to_string() } else { format!("{p}") };
        table.row([label, format!("{m:.3}"), format!("{:+.2}%", r * 100.0)]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn commit_time_history_is_at_least_as_good_as_polluted() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let config = RunnerConfig { instructions: 120_000, threads: 2, ..Default::default() };
        let result = run(&suite, &config);
        assert_eq!(result.rows.len(), 4);
        let clean = result.rows[0].1;
        let heavy = result.rows[3].1;
        assert!(
            clean <= heavy + result.lru_mpki * 0.02,
            "commit-time ({clean:.3}) must not lose to heavy pollution ({heavy:.3})"
        );
        assert!(render(&result).contains("commit-time"));
    }
}
