//! GUPS-style random-update workload: read-modify-write to zipf-popular
//! pages of a large table, with a small hot parameter block consulted per
//! batch and a few ALU instructions of index hashing per update.

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen, Zipf};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Parameters for the random-update workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Gups {
    /// Pages in the update table.
    pub table_pages: u64,
    /// Zipf exponent for page popularity (0 = uniform GUPS).
    pub zipf_s: f64,
    /// Updates per batch (between parameter-block touches).
    pub batch: u32,
    /// ALU instructions of index hashing per update.
    pub compute_per_update: u32,
    /// Hot parameter pages.
    pub param_pages: u64,
}

impl Default for Gups {
    fn default() -> Self {
        Gups { table_pages: 1 << 13, zipf_s: 1.0, batch: 32, compute_per_update: 6, param_pages: 8 }
    }
}

impl WorkloadGen for Gups {
    fn name(&self) -> String {
        format!("bigdata.gups.t{}z{:.1}", self.table_pages, self.zipf_s)
    }

    fn category(&self) -> Category {
        Category::BigData
    }

    fn emit_into(&self, em: &mut Emitter, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x6057);
        let mut asp = AddressSpace::new();
        let kernel = CodeBlock::new(asp.code_region(1));
        let table_base = asp.data_region(self.table_pages);
        let param_base = asp.data_region(self.param_pages);

        let zipf = Zipf::new(self.table_pages.max(1) as usize, self.zipf_s);
        'outer: loop {
            // Refresh batch parameters (hot pages).
            for p in 0..self.param_pages.min(2) {
                em.push(TraceRecord::load(kernel.pc(0), param_base + p * PAGE_SIZE));
            }
            for u in 0..self.batch {
                let page = zipf.sample(&mut rng) as u64;
                let slot = rng.gen_range(0..512) * 8;
                let addr = table_base + page * PAGE_SIZE + slot;
                for c in 0..self.compute_per_update {
                    em.push(TraceRecord::alu(kernel.pc(8 + u64::from(c % 8))));
                }
                em.push(TraceRecord::load(kernel.pc(2), addr));
                em.push(TraceRecord::alu(kernel.pc(3))); // xor update
                em.push(TraceRecord::store(kernel.pc(4), addr));
                let last = u + 1 == self.batch;
                em.push(TraceRecord::cond_branch(kernel.pc(5), kernel.pc(1), !last));
                if em.is_full() {
                    break 'outer;
                }
            }
            em.push(TraceRecord::cond_branch(kernel.pc(6), kernel.pc(0), true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let g = Gups::default();
        assert_eq!(g.generate(8_000, 21), g.generate(8_000, 21));
        assert_ne!(g.generate(8_000, 21), g.generate(8_000, 22));
    }

    #[test]
    fn loads_and_stores_pair_on_same_page() {
        let g = Gups::default();
        let t = g.generate(20_000, 1);
        let mut last_load_page = None;
        for r in &t {
            if r.kind == crate::record::InstrKind::Load && r.data_vpn().is_some() {
                last_load_page = r.data_vpn();
            }
            if r.kind == crate::record::InstrKind::Store {
                assert_eq!(r.data_vpn(), last_load_page, "update must hit the loaded page");
            }
        }
    }

    #[test]
    fn popularity_skew_follows_zipf() {
        let g = Gups { zipf_s: 1.2, ..Default::default() };
        let t = g.generate(100_000, 5);
        let mut counts = std::collections::HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                *counts.entry(v).or_insert(0u64) += 1;
            }
        }
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert!(sorted[0] > 10 * sorted[sorted.len() / 2]);
    }
}
