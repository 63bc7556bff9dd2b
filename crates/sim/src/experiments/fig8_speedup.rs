//! Figure 8 + §VI-C: per-benchmark speedup over LRU at a 150-cycle page
//! walk penalty, with geometric-mean summaries.

use crate::metrics::geomean_speedup;
use crate::registry::PolicyKind;
use crate::report::{render_scurve, Table};
use crate::runner::{group_by_benchmark, run_suite, BenchRun, RunnerConfig};
use chirp_trace::suite::BenchmarkSpec;

/// The Figure 8 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// Walk penalty used (150 in the paper's headline figure).
    pub walk_penalty: u64,
    /// (policy, per-benchmark speedup fraction over LRU), LRU excluded.
    pub series: Vec<(String, Vec<f64>)>,
    /// (policy, geometric-mean speedup fraction), LRU excluded.
    pub geomeans: Vec<(String, f64)>,
}

/// Runs the Figure 8 experiment at the configured walk penalty.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig8Result {
    let policies = PolicyKind::paper_lineup();
    let runs = run_suite(suite, &policies, config);
    from_runs(&runs, policies.len(), config.sim.tlb.walk_penalty)
}

/// Builds the result from pre-computed runs (policy 0 must be LRU).
pub fn from_runs(runs: &[BenchRun], policies: usize, walk_penalty: u64) -> Fig8Result {
    let grouped = group_by_benchmark(runs, policies);
    let mut series: Vec<(String, Vec<f64>)> = (1..policies)
        .map(|p| (grouped[0][p].result.policy.clone(), Vec::with_capacity(grouped.len())))
        .collect();
    for group in &grouped {
        let lru = &group[0].result;
        for p in 1..policies {
            series[p - 1].1.push(group[p].result.speedup_over(lru));
        }
    }
    let geomeans = series.iter().map(|(name, sp)| (name.clone(), geomean_speedup(sp))).collect();
    Fig8Result { walk_penalty, series, geomeans }
}

/// Renders the textual figure.
pub fn render(result: &Fig8Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 8: speedup over LRU at a {}-cycle walk penalty\n",
        result.walk_penalty
    ));
    // Percentage series for the S-curve.
    let pct: Vec<(String, Vec<f64>)> = result
        .series
        .iter()
        .map(|(n, v)| (n.clone(), v.iter().map(|s| s * 100.0).collect()))
        .collect();
    out.push_str(&render_scurve(&pct, 12, 100));
    out.push('\n');
    let mut table = Table::new(["policy", "geomean speedup"]);
    for (name, g) in &result.geomeans {
        table.row([name.clone(), format!("{:+.2}%", g * 100.0)]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn chirp_has_the_best_geomean_speedup() {
        let suite = build_suite(&SuiteConfig { benchmarks: 5 });
        let config = RunnerConfig { instructions: 150_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config);
        assert_eq!(result.walk_penalty, 150);
        let chirp = result.geomeans.iter().find(|(n, _)| n == "chirp").unwrap().1;
        for (name, g) in &result.geomeans {
            if name != "chirp" {
                assert!(
                    chirp >= *g - 1e-9,
                    "chirp ({chirp:.4}) must match or beat {name} ({g:.4})"
                );
            }
        }
        assert!(render(&result).contains("geomean"));
    }
}
