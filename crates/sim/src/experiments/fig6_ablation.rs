//! Figure 6: effect of correlating features, input transforms, signature
//! formula and table-update policies on L2 TLB miss reduction.
//!
//! The ladder goes from previous policies (SHiP, GHRP, SRRIP) through
//! CHiRP feature subsets (path-only; +conditional history without/with
//! injected zeros; every-hit vs first-hit training; without/with selective
//! hit update) to the full CHiRP configuration.

use crate::metrics::{mean, reduction};
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::{group_by_benchmark, run_suite, RunnerConfig};
use chirp_core::ChirpVariant;
use chirp_trace::suite::BenchmarkSpec;

/// The Figure 6 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// (variant name, mean-MPKI reduction vs LRU as a fraction).
    pub rungs: Vec<(String, f64)>,
}

/// Runs the ablation ladder.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig6Result {
    let mut policies = vec![PolicyKind::Lru, PolicyKind::Ship, PolicyKind::Ghrp, PolicyKind::Srrip];
    let mut names: Vec<String> = policies.iter().map(|p| p.name().to_string()).collect();
    for variant in ChirpVariant::ablation_ladder() {
        names.push(variant.name.clone());
        policies.push(PolicyKind::Chirp(variant.config));
    }
    let runs = run_suite(suite, &policies, config);
    let grouped = group_by_benchmark(&runs, policies.len());
    let mean_mpki = |idx: usize| {
        let v: Vec<f64> = grouped.iter().map(|g| g[idx].result.mpki()).collect();
        mean(&v)
    };
    let lru = mean_mpki(0);
    let rungs = names
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, name)| (name.clone(), reduction(lru, mean_mpki(i))))
        .collect();
    Fig6Result { rungs }
}

/// Renders the ladder as a bar table.
pub fn render(result: &Fig6Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: MPKI reduction vs LRU per feature/optimisation rung\n");
    let mut table = Table::new(["variant", "reduction", "bar"]);
    let max = result.rungs.iter().map(|(_, r)| r.abs()).fold(1e-9, f64::max);
    for (name, r) in &result.rungs {
        let bar_len = ((r.max(0.0) / max) * 40.0).round() as usize;
        table.row([name.clone(), format!("{:+.2}%", r * 100.0), "#".repeat(bar_len)]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn full_chirp_tops_the_ladder_rungs() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let config = RunnerConfig { instructions: 120_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config);
        let full = result.rungs.iter().find(|(n, _)| n == "chirp").unwrap().1;
        let path_only = result.rungs.iter().find(|(n, _)| n == "chirp-path-only").unwrap().1;
        assert!(
            full >= path_only - 0.02,
            "full chirp ({full:.4}) should be at least near path-only ({path_only:.4})"
        );
        assert_eq!(result.rungs.len(), 3 + 6);
        assert!(render(&result).contains("chirp"));
    }
}
