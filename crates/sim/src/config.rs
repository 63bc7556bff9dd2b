//! Simulation configuration (paper Table II).

use chirp_branch::BranchConfig;
use chirp_mem::HierarchyConfig;
use chirp_tlb::TlbHierarchyConfig;

/// Full simulator configuration. Defaults reproduce Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Cache hierarchy and DRAM.
    pub mem: HierarchyConfig,
    /// Branch prediction unit.
    pub branch: BranchConfig,
    /// TLB hierarchy (the structure under study).
    pub tlb: TlbHierarchyConfig,
    /// Fraction of the trace used to warm structures before measuring
    /// (the paper warms on the first half, §V).
    pub warmup_fraction: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem: HierarchyConfig::default(),
            branch: BranchConfig::default(),
            tlb: TlbHierarchyConfig::default(),
            warmup_fraction: 0.5,
        }
    }
}

impl SimConfig {
    /// A configuration with the given page-walk penalty (Figure 10 sweep).
    pub fn with_walk_penalty(mut self, penalty: u64) -> Self {
        self.tlb.walk_penalty = penalty;
        self
    }

    /// Renders the Table II parameter listing.
    pub fn render_table_ii(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| out.push_str(&format!("{k:<22} {v}\n"));
        row(
            "L1 i-Cache",
            format!(
                "{}KB, {} way, {} cycles",
                self.mem.l1i.size_bytes >> 10,
                self.mem.l1i.ways,
                self.mem.l1i.hit_latency
            ),
        );
        row(
            "L1 d-Cache",
            format!(
                "{}KB, {} way, {} cycles",
                self.mem.l1d.size_bytes >> 10,
                self.mem.l1d.ways,
                self.mem.l1d.hit_latency
            ),
        );
        row(
            "L2 Unified Cache",
            format!(
                "{}KB, {} way, {} cycles",
                self.mem.l2.size_bytes >> 10,
                self.mem.l2.ways,
                self.mem.l2.hit_latency
            ),
        );
        row(
            "L3 Unified Cache",
            format!(
                "{}MB, {} way, {} cycles",
                self.mem.l3.size_bytes >> 20,
                self.mem.l3.ways,
                self.mem.l3.hit_latency
            ),
        );
        row("DRAM", format!("{} cycles", self.mem.dram_latency));
        row(
            "Branch Predictor",
            format!(
                "Hashed perceptron, {} entry BTB, {} cycle miss penalty",
                self.branch.btb_entries, self.branch.mispredict_penalty
            ),
        );
        row("L1 i-TLB", format!("{} entry, {} way", self.tlb.l1i.entries, self.tlb.l1i.ways));
        row("L1 d-TLB", format!("{} entry, {} way", self.tlb.l1d.entries, self.tlb.l1d.ways));
        row(
            "L2 Unified TLB",
            format!(
                "{} entries, {} way, {} cycle hit latency, {} cycle miss penalty",
                self.tlb.l2.entries,
                self.tlb.l2.ways,
                self.tlb.l2_hit_latency,
                self.tlb.walk_penalty
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = SimConfig::default();
        assert_eq!(c.mem.l1i.size_bytes, 64 << 10);
        assert_eq!(c.branch.btb_entries, 4096);
        assert_eq!(c.branch.mispredict_penalty, 20);
        assert_eq!(c.tlb.l2.entries, 1024);
        assert_eq!(c.tlb.l2.ways, 8);
        assert_eq!(c.tlb.l2_hit_latency, 8);
        assert_eq!(c.tlb.walk_penalty, 150);
        assert!((c.warmup_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn walk_penalty_override() {
        let c = SimConfig::default().with_walk_penalty(320);
        assert_eq!(c.tlb.walk_penalty, 320);
    }

    #[test]
    fn table_ii_rendering_lists_all_components() {
        let text = SimConfig::default().render_table_ii();
        for needle in
            ["L1 i-Cache", "L2 Unified Cache", "DRAM", "Branch Predictor", "L2 Unified TLB"]
        {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert!(text.contains("1024 entries, 8 way"));
    }
}
