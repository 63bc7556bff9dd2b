//! Figure 7 + §VI-A: MPKI comparison of all policies over the suite,
//! rendered as an S-curve sorted by LRU MPKI, with the paper's headline
//! averages.

use crate::metrics::{mean, reduction};
use crate::registry::PolicyKind;
use crate::report::{render_scurve, Table};
use crate::runner::{group_by_benchmark, run_suite, BenchRun, RunnerConfig};
use chirp_trace::suite::BenchmarkSpec;

/// Per-policy summary of the MPKI comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySummary {
    /// Policy name.
    pub policy: String,
    /// Arithmetic mean MPKI over the suite.
    pub mean_mpki: f64,
    /// Reduction of mean MPKI relative to LRU (fraction; 0.28 = 28%).
    pub reduction_vs_lru: f64,
    /// Best single-benchmark reduction vs LRU (fraction).
    pub best_reduction: f64,
}

/// The Figure 7 result: per-benchmark MPKI series plus summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Benchmark names, suite order.
    pub benchmarks: Vec<String>,
    /// (policy name, per-benchmark MPKI in suite order).
    pub series: Vec<(String, Vec<f64>)>,
    /// Per-policy summaries (LRU first).
    pub summaries: Vec<PolicySummary>,
}

/// Runs the Figure 7 experiment.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig7Result {
    let policies = PolicyKind::paper_lineup();
    let runs = run_suite(suite, &policies, config);
    from_runs(&runs, policies.len())
}

/// Builds the result from pre-computed runs (shared with other figures).
pub fn from_runs(runs: &[BenchRun], policies: usize) -> Fig7Result {
    let grouped = group_by_benchmark(runs, policies);
    let benchmarks: Vec<String> = grouped.iter().map(|g| g[0].benchmark.clone()).collect();
    let mut series: Vec<(String, Vec<f64>)> = (0..policies)
        .map(|p| (grouped[0][p].result.policy.clone(), Vec::with_capacity(grouped.len())))
        .collect();
    for group in &grouped {
        for (p, run) in group.iter().enumerate() {
            series[p].1.push(run.result.mpki());
        }
    }
    let lru_mean = mean(&series[0].1);
    let summaries = series
        .iter()
        .map(|(name, mpkis)| {
            let m = mean(mpkis);
            let best = mpkis
                .iter()
                .zip(&series[0].1)
                .map(|(v, lru)| reduction(*lru, *v))
                .fold(f64::NEG_INFINITY, f64::max);
            PolicySummary {
                policy: name.clone(),
                mean_mpki: m,
                reduction_vs_lru: reduction(lru_mean, m),
                best_reduction: best,
            }
        })
        .collect();
    Fig7Result { benchmarks, series, summaries }
}

/// Renders the textual figure.
pub fn render(result: &Fig7Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: MPKI S-curve (benchmarks sorted by LRU MPKI)\n");
    out.push_str(&render_scurve(&result.series, 16, 100));
    out.push('\n');
    let mut table = Table::new(["policy", "mean MPKI", "reduction vs LRU", "best case"]);
    for s in &result.summaries {
        table.row([
            s.policy.clone(),
            format!("{:.3}", s.mean_mpki),
            format!("{:+.2}%", s.reduction_vs_lru * 100.0),
            format!("{:+.2}%", s.best_reduction * 100.0),
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
    fn chirp_beats_lru_on_a_small_suite() {
        let suite = build_suite(&SuiteConfig { benchmarks: 6 });
        let config = RunnerConfig { instructions: 120_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config);
        assert_eq!(result.summaries[0].policy, "lru");
        assert_eq!(result.summaries.last().unwrap().policy, "chirp");
        let lru = result.summaries[0].mean_mpki;
        let chirp = result.summaries.last().unwrap().mean_mpki;
        assert!(chirp <= lru, "chirp {chirp} must not exceed lru {lru}");
        let text = render(&result);
        for p in ["lru", "random", "srrip", "ship", "ghrp", "chirp"] {
            assert!(text.contains(p), "render must mention {p}");
        }
    }
}
