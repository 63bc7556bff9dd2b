//! Extension experiment: mixed 4 KB / 2 MB page sizes (paper §VIII future
//! work).
//!
//! Sweeps memory fragmentation (the fraction of 2 MB regions that could
//! not be backed by a huge page) and compares three replacement flavours
//! on a shared-capacity mixed TLB: size-blind LRU, size-blind CHiRP-style
//! reuse prediction, and size-aware reuse prediction that prefers dead
//! 4 KB victims over dead 2 MB victims. The TLB is driven by the raw
//! data-access stream of a workload with CHiRP signatures composed from
//! its control flow.

use crate::report::Table;
use chirp_core::{ChirpConfig, SignatureBuilder};
use chirp_tlb::mixed::{MixedPolicy, MixedStats, MixedTlb, ThpMapper};
use chirp_tlb::TlbGeometry;
use chirp_trace::suite::BenchmarkSpec;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedPoint {
    /// Fragmentation percentage (0 = all huge pages allocate).
    pub fragmentation_percent: u32,
    /// Stats per policy: (LRU, reuse prediction, size-aware reuse).
    pub lru: MixedStats,
    /// Size-blind reuse prediction.
    pub reuse: MixedStats,
    /// Size-aware reuse prediction.
    pub size_aware: MixedStats,
}

/// The sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedPagesResult {
    /// Per-fragmentation points.
    pub points: Vec<MixedPoint>,
}

fn run_one(
    trace: &[chirp_trace::TraceRecord],
    policy: MixedPolicy,
    fragmentation_percent: u32,
) -> MixedStats {
    let mapper = ThpMapper { fragmentation_percent };
    let mut tlb = MixedTlb::new(TlbGeometry::default(), policy);
    let mut signatures = SignatureBuilder::new(&ChirpConfig::default());
    for rec in trace {
        if let Some(class) = rec.kind.branch_class() {
            signatures.record_branch(rec.pc, class);
        }
        if rec.kind.is_memory() {
            let sig = signatures.signature(rec.pc);
            tlb.access(&mapper, rec.effective_address, sig);
            signatures.record_access(rec.pc);
        }
    }
    tlb.stats()
}

/// Runs the sweep over the merged data streams of `suite`.
pub fn run(
    suite: &[BenchmarkSpec],
    instructions: usize,
    fragmentation: &[u32],
) -> MixedPagesResult {
    let mut points = Vec::new();
    for &frag in fragmentation {
        let mut lru = MixedStats::default();
        let mut reuse = MixedStats::default();
        let mut size_aware = MixedStats::default();
        for bench in suite {
            let trace = bench.generate(instructions);
            let add = |a: &mut MixedStats, b: MixedStats| {
                a.hits_4k += b.hits_4k;
                a.hits_2m += b.hits_2m;
                a.misses += b.misses;
                a.huge_evictions += b.huge_evictions;
            };
            add(&mut lru, run_one(&trace, MixedPolicy::Lru, frag));
            add(&mut reuse, run_one(&trace, MixedPolicy::ReusePrediction, frag));
            add(&mut size_aware, run_one(&trace, MixedPolicy::SizeAwareReuse, frag));
        }
        points.push(MixedPoint { fragmentation_percent: frag, lru, reuse, size_aware });
    }
    MixedPagesResult { points }
}

/// Renders the sweep.
pub fn render(result: &MixedPagesResult) -> String {
    let mut out = String::new();
    out.push_str("Extension: mixed 4KB/2MB pages — miss ratio vs fragmentation (d-side stream)\n");
    let mut table = Table::new([
        "fragmentation",
        "LRU miss%",
        "reuse miss%",
        "size-aware miss%",
        "huge evictions (reuse vs size-aware)",
    ]);
    for p in &result.points {
        table.row([
            format!("{}%", p.fragmentation_percent),
            format!("{:.3}", p.lru.miss_ratio() * 100.0),
            format!("{:.3}", p.reuse.miss_ratio() * 100.0),
            format!("{:.3}", p.size_aware.miss_ratio() * 100.0),
            format!("{} vs {}", p.reuse.huge_evictions, p.size_aware.huge_evictions),
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
    fn huge_pages_cut_misses_and_size_aware_protects_them() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let result = run(&suite, 60_000, &[0, 100]);
        let all_huge = &result.points[0];
        let all_base = &result.points[1];
        assert!(
            all_huge.lru.miss_ratio() < all_base.lru.miss_ratio(),
            "huge pages must increase reach: {} vs {}",
            all_huge.lru.miss_ratio(),
            all_base.lru.miss_ratio()
        );
        assert!(
            all_huge.size_aware.huge_evictions <= all_huge.reuse.huge_evictions,
            "size-aware policy must not evict more huge entries"
        );
        assert!(render(&result).contains("fragmentation"));
    }
}
