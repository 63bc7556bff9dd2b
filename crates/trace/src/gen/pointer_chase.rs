//! Big-data pointer-chasing workload: random walks over a clustered node
//! pool with zipfian cluster popularity and periodic restarts from a hot
//! root set.
//!
//! Graph processing exhibits *community* locality: a walk stays inside a
//! cluster of pages for a while, then hops to another cluster whose
//! popularity is skewed. Popular clusters reward retention; the long tail
//! provides the high-MPKI right-hand side of the paper's Figure 7 S-curve.

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen, Zipf};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Parameters for the random-walk workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PointerChase {
    /// Pages in the node pool (divided into clusters).
    pub pool_pages: u64,
    /// Pages per cluster (community size).
    pub cluster_pages: u64,
    /// Zipf exponent for cluster popularity.
    pub zipf_s: f64,
    /// Walk steps between cluster hops, on average (×1000 gives the hop
    /// probability per step as `1000 / hop_interval`).
    pub hop_interval: u32,
    /// ALU instructions of per-node processing.
    pub compute_per_node: u32,
    /// Pages in the hot root set (re-visited at every restart).
    pub root_pages: u64,
    /// Walk steps between restarts.
    pub walk_len: u32,
    /// Probability of an indirect visitor dispatch per step (×1000).
    pub dispatch_per_mille: u32,
}

impl Default for PointerChase {
    fn default() -> Self {
        PointerChase {
            pool_pages: 1 << 13,
            cluster_pages: 64,
            zipf_s: 0.9,
            hop_interval: 24,
            compute_per_node: 8,
            root_pages: 128,
            walk_len: 64,
            dispatch_per_mille: 50,
        }
    }
}

impl WorkloadGen for PointerChase {
    fn name(&self) -> String {
        format!("bigdata.chase.p{}z{:.1}", self.pool_pages, self.zipf_s)
    }

    fn category(&self) -> Category {
        Category::BigData
    }

    fn emit_into(&self, em: &mut Emitter, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xB16_DA7A);
        let mut asp = AddressSpace::new();
        let walker = CodeBlock::new(asp.code_region(1));
        let visitors: Vec<CodeBlock> = (0..4).map(|_| CodeBlock::new(asp.code_region(1))).collect();
        let pool_base = asp.data_region(self.pool_pages);
        let root_base = asp.data_region(self.root_pages);

        let clusters = (self.pool_pages / self.cluster_pages.max(1)).max(1);
        let zipf = Zipf::new(clusters as usize, self.zipf_s);
        let mut cluster = zipf.sample(&mut rng) as u64;

        'outer: loop {
            // Restart: touch a few root pages (hot metadata).
            for i in 0..4u64 {
                let page = rng.gen_range(0..self.root_pages);
                em.push(TraceRecord::load(walker.pc(0), root_base + page * PAGE_SIZE + i * 64));
                em.push(TraceRecord::alu(walker.pc(1)));
            }
            // Random walk with community locality.
            for step in 0..self.walk_len {
                if rng.gen_range(0..u64::from(self.hop_interval.max(1))) == 0 {
                    cluster = zipf.sample(&mut rng) as u64;
                }
                let page =
                    cluster * self.cluster_pages + rng.gen_range(0..self.cluster_pages.max(1));
                let node = pool_base + page * PAGE_SIZE + rng.gen_range(0..32) * 128;
                em.push(TraceRecord::load(walker.pc(2), node)); // next pointer
                em.push(TraceRecord::load(walker.pc(3), node + 8)); // payload
                for c in 0..self.compute_per_node {
                    em.push(TraceRecord::alu(walker.pc(8 + u64::from(c % 8))));
                }
                if rng.gen_range(0..1000) < u64::from(self.dispatch_per_mille) {
                    let v = &visitors[rng.gen_range(0..visitors.len() as u64) as usize];
                    em.push(TraceRecord::indirect_call(walker.pc(4), v.entry()));
                    em.push(TraceRecord::alu(v.pc(0)));
                    em.push(TraceRecord::ret(v.pc(1), walker.pc(5)));
                }
                let last = step + 1 == self.walk_len;
                em.push(TraceRecord::cond_branch(walker.pc(6), walker.pc(2), !last));
                if em.is_full() {
                    break 'outer;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_per_seed() {
        let g = PointerChase::default();
        assert_eq!(g.generate(10_000, 11), g.generate(10_000, 11));
        assert_ne!(g.generate(10_000, 11), g.generate(10_000, 12));
    }

    #[test]
    fn cluster_popularity_is_skewed() {
        let g = PointerChase::default();
        let t = g.generate(200_000, 13);
        let mut cluster_visits: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                cluster_visits.entry(v / g.cluster_pages).and_modify(|c| *c += 1).or_insert(1);
            }
        }
        let mut counts: Vec<u64> = cluster_visits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] > 4 * counts[counts.len() / 2], "popular clusters dominate");
    }

    #[test]
    fn walk_stays_local_between_hops() {
        let g = PointerChase { hop_interval: 1000, ..Default::default() };
        let t = g.generate(5_000, 3);
        let pages: Vec<u64> = t.iter().filter_map(|r| r.data_vpn()).collect();
        // With rare hops, consecutive pool accesses share a cluster.
        let pool: Vec<u64> = pages.iter().copied().filter(|p| *p < 1 << 40).collect();
        let mut same_cluster = 0;
        let mut total = 0;
        for w in pool.windows(2) {
            total += 1;
            if w[0] / 64 == w[1] / 64 {
                same_cluster += 1;
            }
        }
        assert!(
            same_cluster as f64 > total as f64 * 0.5,
            "walk should stay in-cluster: {same_cluster}/{total}"
        );
    }

    #[test]
    fn root_pages_hot() {
        let g = PointerChase { root_pages: 4, ..Default::default() };
        let t = g.generate(100_000, 13);
        let mut counts = std::collections::HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                *counts.entry(v).or_insert(0u64) += 1;
            }
        }
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert!(sorted[3] > 50, "the 4 root pages must absorb repeated visits");
    }
}
