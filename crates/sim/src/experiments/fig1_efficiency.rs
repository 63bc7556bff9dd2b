//! Figure 1 + §VI-D: TLB efficiency (live-time fraction of entries) per
//! benchmark per policy, scaled by LRU — the paper's heat map.

use crate::metrics::mean;
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::{group_by_benchmark, run_suite, BenchRun, RunnerConfig};
use chirp_trace::suite::BenchmarkSpec;

/// The Figure 1 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// Benchmark names, sorted by LRU efficiency ascending (the paper sorts
    /// rows from low to high efficiency).
    pub benchmarks: Vec<String>,
    /// (policy, per-benchmark efficiency in the sorted order).
    pub series: Vec<(String, Vec<f64>)>,
    /// (policy, mean absolute efficiency improvement over LRU in
    /// percentage points).
    pub mean_improvement: Vec<(String, f64)>,
}

/// Runs the Figure 1 experiment.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig1Result {
    let policies = PolicyKind::paper_lineup();
    let runs = run_suite(suite, &policies, config);
    from_runs(&runs, policies.len())
}

/// Builds the result from pre-computed runs (policy 0 must be LRU).
pub fn from_runs(runs: &[BenchRun], policies: usize) -> Fig1Result {
    let grouped = group_by_benchmark(runs, policies);
    let mut order: Vec<usize> = (0..grouped.len()).collect();
    order.sort_by(|&a, &b| {
        grouped[a][0]
            .result
            .efficiency
            .partial_cmp(&grouped[b][0].result.efficiency)
            .expect("efficiency is finite")
    });
    let benchmarks = order.iter().map(|&i| grouped[i][0].benchmark.clone()).collect();
    let series: Vec<(String, Vec<f64>)> = (0..policies)
        .map(|p| {
            (
                grouped[0][p].result.policy.clone(),
                order.iter().map(|&i| grouped[i][p].result.efficiency).collect(),
            )
        })
        .collect();
    let lru = &series[0].1;
    let mean_improvement = series
        .iter()
        .map(|(name, eff)| {
            let deltas: Vec<f64> = eff.iter().zip(lru).map(|(e, l)| (e - l) * 100.0).collect();
            (name.clone(), mean(&deltas))
        })
        .collect();
    Fig1Result { benchmarks, series, mean_improvement }
}

/// Renders the heat map as rows of shade characters plus the summary table.
pub fn render(result: &Fig1Result) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 1: TLB efficiency heat map (rows: benchmarks low->high; cols: policies)\n",
    );
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let names: Vec<&str> = result.series.iter().map(|(n, _)| n.as_str()).collect();
    out.push_str(&format!("{:>32}  {}\n", "benchmark", names.join(" ")));
    let n = result.benchmarks.len();
    // Show up to 40 evenly-sampled rows to keep the figure readable.
    let rows = n.min(40);
    for r in 0..rows {
        let i = r * n / rows;
        let mut line = format!("{:>32}  ", truncate(&result.benchmarks[i], 32));
        for (name, eff) in &result.series {
            let shade = shades[((eff[i] * 9.0).round() as usize).min(9)];
            let w = name.len().max(1);
            line.push_str(&format!("{:^w$} ", shade));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push('\n');
    let mut table = Table::new(["policy", "mean efficiency", "improvement vs LRU (pp)"]);
    for ((name, eff), (_, imp)) in result.series.iter().zip(&result.mean_improvement) {
        table.row([name.clone(), format!("{:.3}", mean(eff)), format!("{imp:+.2}")]);
    }
    out.push_str(&table.render());
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s[..n].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn chirp_improves_efficiency_over_lru() {
        let suite = build_suite(&SuiteConfig { benchmarks: 5 });
        let config = RunnerConfig { instructions: 150_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config);
        let chirp = result.mean_improvement.iter().find(|(n, _)| n == "chirp").unwrap().1;
        assert!(chirp >= 0.0, "chirp must not reduce mean efficiency, got {chirp:.3}pp");
        // LRU improvement over itself is identically zero.
        assert!(result.mean_improvement[0].1.abs() < 1e-12);
        // Rows are sorted by LRU efficiency.
        let lru = &result.series[0].1;
        assert!(lru.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(render(&result).contains("heat map"));
    }
}
