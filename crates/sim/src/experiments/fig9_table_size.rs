//! Figure 9 + §VI-F: CHiRP MPKI improvement over LRU across prediction
//! table sizes (128 B – 8 KB in the paper).

use crate::metrics::{mean, reduction};
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::{group_by_benchmark, run_suite, RunnerConfig};
use chirp_core::ChirpVariant;
use chirp_trace::suite::BenchmarkSpec;

/// The Figure 9 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// (table bytes, mean-MPKI reduction vs LRU as a fraction).
    pub points: Vec<(usize, f64)>,
}

/// Runs the table-size sweep.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> Fig9Result {
    let variants = ChirpVariant::table_size_sweep();
    let mut policies = vec![PolicyKind::Lru];
    let mut sizes = Vec::new();
    for v in &variants {
        sizes.push(v.config.table_bytes() as usize);
        policies.push(PolicyKind::Chirp(v.config));
    }
    let runs = run_suite(suite, &policies, config);
    let grouped = group_by_benchmark(&runs, policies.len());
    let mean_mpki = |idx: usize| {
        let v: Vec<f64> = grouped.iter().map(|g| g[idx].result.mpki()).collect();
        mean(&v)
    };
    let lru = mean_mpki(0);
    let points = sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| (bytes, reduction(lru, mean_mpki(i + 1))))
        .collect();
    Fig9Result { points }
}

/// Renders the sweep as a table with bars.
pub fn render(result: &Fig9Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 9: CHiRP MPKI improvement over LRU vs prediction-table size\n");
    let mut table = Table::new(["table size", "improvement", "bar"]);
    let max = result.points.iter().map(|(_, r)| r.abs()).fold(1e-9, f64::max);
    for (bytes, r) in &result.points {
        let label =
            if *bytes >= 1024 { format!("{}KB", bytes / 1024) } else { format!("{bytes}B") };
        let bar_len = ((r.max(0.0) / max) * 40.0).round() as usize;
        table.row([label, format!("{:+.2}%", r * 100.0), "#".repeat(bar_len)]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn larger_tables_do_not_hurt() {
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let config = RunnerConfig { instructions: 120_000, threads: 4, ..Default::default() };
        let result = run(&suite, &config);
        assert_eq!(result.points.len(), 7);
        assert_eq!(result.points[0].0, 128);
        assert_eq!(result.points.last().unwrap().0, 8192);
        // The 1KB point (the paper's budget) should be within noise of the
        // largest table.
        let at_1k = result.points.iter().find(|(b, _)| *b == 1024).unwrap().1;
        let at_8k = result.points.last().unwrap().1;
        assert!(
            at_8k >= at_1k - 0.1,
            "8KB ({at_8k:.4}) should not be much worse than 1KB ({at_1k:.4})"
        );
        assert!(render(&result).contains("1KB"));
    }
}
