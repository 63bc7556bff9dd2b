//! Extension experiment: Bélády-optimal upper bound.
//!
//! The paper cites Bélády's algorithm as the unreachable ideal for pure
//! replacement (§V). Because the L1 TLBs are fixed-LRU, the L2 access
//! stream is policy-independent: the factored front end emits it once
//! per benchmark, LRU and CHiRP replay it as ordinary back ends, and the
//! offline-optimal policy replays it as one more back end whose oracle is
//! built from that same stream's page numbers. The gap between CHiRP and
//! OPT quantifies how much headroom remains.

use crate::frontend::{group_sig_config, replay_factored, FactoredTrace};
use crate::metrics::{mean, RunResult};
use crate::registry::PolicyKind;
use crate::report::Table;
use crate::runner::RunnerConfig;
use chirp_tlb::policies::{OptOracle, OptPolicy};
use chirp_trace::suite::BenchmarkSpec;
use serde::{Deserialize, Serialize};

/// The OPT-bound result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptBoundResult {
    /// Per-benchmark (name, LRU MPKI, CHiRP MPKI, OPT MPKI).
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Mean MPKI (LRU, CHiRP, OPT).
    pub means: (f64, f64, f64),
    /// Fraction of the LRU→OPT gap that CHiRP closes, averaged over
    /// benchmarks with a non-trivial gap.
    pub gap_closed: f64,
}

/// Runs the OPT-bound comparison: one front-end pass per benchmark,
/// replayed by LRU, CHiRP and OPT back ends.
pub fn run(suite: &[BenchmarkSpec], config: &RunnerConfig) -> OptBoundResult {
    let sim_cfg = config.sim;
    let kinds = [PolicyKind::Lru, PolicyKind::Chirp(chirp_core::ChirpConfig::default())];
    let sig_config = group_sig_config(kinds.iter());
    let mut rows = Vec::with_capacity(suite.len());
    let mut gaps = Vec::new();
    for bench in suite {
        let trace = bench.generate_packed(config.instructions);
        let events = FactoredTrace::build(&sim_cfg, &trace, sim_cfg.warmup_fraction, &sig_config);
        let policies = kinds.iter().map(|k| k.build_dispatch(sim_cfg.tlb.l2, bench.seed)).collect();
        let replayed: Vec<RunResult> =
            replay_factored(&sim_cfg, &events, policies).into_iter().map(|(r, _)| r).collect();
        let (lru, chirp) = (&replayed[0], &replayed[1]);
        let opt = opt_replay(&sim_cfg, &events);

        let (l, c, o) = (lru.mpki(), chirp.mpki(), opt.mpki());
        if l - o > 0.05 {
            gaps.push(((l - c) / (l - o)).clamp(-1.0, 1.5));
        }
        rows.push((bench.name.clone(), l, c, o));
    }
    let means = (
        mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>()),
    );
    OptBoundResult { rows, means, gap_closed: mean(&gaps) }
}

/// Replays `events` through a Bélády-OPT back end whose oracle is the
/// stream's own L2 access sequence (warmup, then measured).
fn opt_replay(config: &crate::SimConfig, events: &FactoredTrace) -> RunResult {
    let vpns = events.warmup.vpns().iter().chain(events.measured.vpns()).copied();
    let opt = OptPolicy::new(config.tlb.l2, OptOracle::from_vpns(vpns));
    let (result, _) = replay_factored(config, events, vec![opt]).pop().expect("one back end");
    result
}

/// Renders the comparison table.
pub fn render(result: &OptBoundResult) -> String {
    let mut out = String::new();
    out.push_str("Extension: Belady-OPT bound vs LRU and CHiRP (MPKI)\n");
    let mut table = Table::new(["benchmark", "LRU", "CHiRP", "OPT"]);
    for (name, l, c, o) in &result.rows {
        table.row([name.clone(), format!("{l:.3}"), format!("{c:.3}"), format!("{o:.3}")]);
    }
    table.row([
        "MEAN".to_string(),
        format!("{:.3}", result.means.0),
        format!("{:.3}", result.means.1),
        format!("{:.3}", result.means.2),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nCHiRP closes {:.1}% of the LRU->OPT gap on average\n",
        result.gap_closed * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::suite::{build_suite, SuiteConfig};

    #[test]
    fn opt_lower_bounds_both_policies() {
        let suite = build_suite(&SuiteConfig { benchmarks: 3 });
        let config = RunnerConfig { instructions: 120_000, threads: 1, ..Default::default() };
        let result = run(&suite, &config);
        for (name, lru, _chirp, opt) in &result.rows {
            assert!(*opt <= *lru + 1e-9, "{name}: OPT ({opt:.3}) must not exceed LRU ({lru:.3})");
        }
        assert!(result.means.2 <= result.means.0);
        assert!(render(&result).contains("OPT"));
    }
}
