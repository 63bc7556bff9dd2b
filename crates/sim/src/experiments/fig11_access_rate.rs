//! Figure 11 + §VI-B: density of prediction-table accesses per L2 TLB
//! access for SHiP, GHRP and CHiRP.
//!
//! SHiP and GHRP consult their tables on every access (often twice — a
//! read for the prediction and a write for training), so their rates
//! exceed 100%. CHiRP's first-hit-only and selective-hit-update rules cut
//! table traffic by an order of magnitude (the paper reports a 10.14%
//! mean rate).

use crate::metrics::mean;
use crate::registry::PolicyKind;
use crate::report::{render_density, Table};
use crate::runner::{group_by_benchmark, run_suite, BenchRun, RunnerConfig};
use chirp_trace::suite::BenchmarkSpec;

/// The Figure 11 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// (policy, per-benchmark table-access rate), predictive policies only.
    pub series: Vec<(String, Vec<f64>)>,
    /// (policy, mean rate).
    pub means: Vec<(String, f64)>,
}

/// Runs the Figure 11 experiment.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig11Result {
    let policies = PolicyKind::paper_lineup();
    let runs = run_suite(suite, &policies, config);
    from_runs(&runs, policies.len())
}

/// Builds the result from pre-computed runs.
pub fn from_runs(runs: &[BenchRun], policies: usize) -> Fig11Result {
    let grouped = group_by_benchmark(runs, policies);
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for p in 0..policies {
        let name = grouped[0][p].result.policy.clone();
        if !matches!(name.as_str(), "ship" | "ghrp" | "chirp") {
            continue;
        }
        series.push((name, grouped.iter().map(|g| g[p].result.table_access_rate()).collect()));
    }
    let means = series.iter().map(|(n, v)| (n.clone(), mean(v))).collect();
    Fig11Result { series, means }
}

/// Renders density plots plus the summary table.
pub fn render(result: &Fig11Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 11: prediction-table accesses per L2 TLB access\n\n");
    let hi =
        result.series.iter().flat_map(|(_, v)| v.iter()).cloned().fold(0.0f64, f64::max).max(0.1);
    for (name, values) in &result.series {
        out.push_str(&render_density(name, values, 0.0, hi, 20));
        out.push('\n');
    }
    let mut table = Table::new(["policy", "mean table-access rate"]);
    for (name, m) in &result.means {
        table.row([name.clone(), format!("{:.2}%", m * 100.0)]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn chirp_accesses_tables_far_less_than_ship_and_ghrp() {
        let suite = build_suite(&SuiteConfig { benchmarks: 5 });
        let config = RunnerConfig { instructions: 150_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config);
        let get = |p: &str| result.means.iter().find(|(n, _)| n == p).unwrap().1;
        let (ship, ghrp, chirp) = (get("ship"), get("ghrp"), get("chirp"));
        assert!(chirp < ship, "chirp {chirp:.3} must access less than ship {ship:.3}");
        assert!(chirp < ghrp, "chirp {chirp:.3} must access less than ghrp {ghrp:.3}");
        assert!(ghrp > 1.0, "ghrp reads + trains on every access, rate {ghrp:.3}");
        assert!(render(&result).contains("mean table-access rate"));
    }
}
