//! Figure 10: average speedup over LRU across a range of L2 TLB miss
//! penalties (the paper sweeps 20–340 cycles; predictive policies' gains
//! grow with the penalty).

use crate::metrics::geomean_speedup;
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::{group_by_benchmark, run_suite, RunnerConfig};
use chirp_trace::suite::BenchmarkSpec;

/// The penalties the paper sweeps (cycles).
pub const PAPER_PENALTIES: [u64; 9] = [20, 60, 100, 150, 200, 240, 280, 320, 340];

/// The Figure 10 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// Penalties swept.
    pub penalties: Vec<u64>,
    /// (policy, geomean speedup fraction per penalty), LRU excluded.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Runs the Figure 10 sweep. One full suite simulation per penalty.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig, penalties: &[u64]) -> Fig10Result {
    let policies = PolicyKind::paper_lineup();
    let mut series: Vec<(String, Vec<f64>)> =
        policies.iter().skip(1).map(|p| (p.name().to_string(), Vec::new())).collect();
    for &penalty in penalties {
        let mut cfg = config.clone();
        cfg.sim = cfg.sim.with_walk_penalty(penalty);
        let runs = run_suite(suite, &policies, &cfg);
        let grouped = group_by_benchmark(&runs, policies.len());
        for p in 1..policies.len() {
            let speedups: Vec<f64> =
                grouped.iter().map(|g| g[p].result.speedup_over(&g[0].result)).collect();
            series[p - 1].1.push(geomean_speedup(&speedups));
        }
    }
    Fig10Result { penalties: penalties.to_vec(), series }
}

/// Renders the sweep as a table (penalty per row).
pub fn render(result: &Fig10Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 10: geomean speedup over LRU vs page-walk penalty\n");
    let mut headers = vec!["penalty".to_string()];
    headers.extend(result.series.iter().map(|(n, _)| n.clone()));
    let mut table = Table::new(headers);
    for (i, penalty) in result.penalties.iter().enumerate() {
        let mut row = vec![format!("{penalty}")];
        for (_, v) in &result.series {
            row.push(format!("{:+.2}%", v[i] * 100.0));
        }
        table.row(row);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn chirp_speedup_grows_with_penalty() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let config = RunnerConfig { instructions: 120_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config, &[20, 320]);
        let chirp = &result.series.iter().find(|(n, _)| n == "chirp").unwrap().1;
        assert!(chirp[1] > chirp[0], "chirp speedup must grow with walk penalty: {chirp:?}");
        assert!(render(&result).contains("320"));
    }
}
