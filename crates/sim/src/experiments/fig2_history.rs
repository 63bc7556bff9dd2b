//! Figure 2 + Observation 3: speedup as a function of the global PC
//! history length, with and without branch-path histories.
//!
//! The paper finds PC-only history plateaus around length 15, while adding
//! branch-path history lets CHiRP exploit effective history lengths beyond
//! 30.

use crate::metrics::geomean_speedup;
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::{group_by_benchmark, run_suite, RunnerConfig};
use chirp_core::ChirpVariant;
use chirp_trace::suite::BenchmarkSpec;

/// History lengths swept (the paper plots 4–40; our registers support up
/// to 32 path events with injected zeros).
pub const PAPER_LENGTHS: [u32; 8] = [4, 8, 12, 15, 16, 20, 24, 32];

/// The Figure 2 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Lengths swept.
    pub lengths: Vec<u32>,
    /// Geomean speedup over LRU per length, PC-history-only signature.
    pub pc_only: Vec<f64>,
    /// Geomean speedup over LRU per length, with branch histories (CHiRP).
    pub with_branches: Vec<f64>,
}

/// Runs the Figure 2 sweep.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig, lengths: &[u32]) -> Fig2Result {
    let mut policies = vec![PolicyKind::Lru];
    for &len in lengths {
        policies.push(PolicyKind::Chirp(ChirpVariant::with_path_length(len, false).config));
    }
    for &len in lengths {
        policies.push(PolicyKind::Chirp(ChirpVariant::with_path_length(len, true).config));
    }
    let runs = run_suite(suite, &policies, config);
    let grouped = group_by_benchmark(&runs, policies.len());
    let geomean_for = |policy_idx: usize| {
        let speedups: Vec<f64> =
            grouped.iter().map(|g| g[policy_idx].result.speedup_over(&g[0].result)).collect();
        geomean_speedup(&speedups)
    };
    let pc_only = (0..lengths.len()).map(|i| geomean_for(1 + i)).collect();
    let with_branches = (0..lengths.len()).map(|i| geomean_for(1 + lengths.len() + i)).collect();
    Fig2Result { lengths: lengths.to_vec(), pc_only, with_branches }
}

/// Renders the sweep as a table.
pub fn render(result: &Fig2Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 2: speedup vs global PC history length\n");
    let mut table = Table::new(["history length", "PC-only", "PC + branch history"]);
    for (i, len) in result.lengths.iter().enumerate() {
        table.row([
            format!("{len}"),
            format!("{:+.2}%", result.pc_only[i] * 100.0),
            format!("{:+.2}%", result.with_branches[i] * 100.0),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn branch_history_beats_pc_only_at_long_lengths() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let config = RunnerConfig { instructions: 120_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config, &[8, 16]);
        assert_eq!(result.lengths, vec![8, 16]);
        let best_pc = result.pc_only.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let best_br = result.with_branches.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_br >= best_pc - 1e-9,
            "branch history must help: pc-only {best_pc:.4} vs +branches {best_br:.4}"
        );
        assert!(render(&result).contains("history length"));
    }
}
