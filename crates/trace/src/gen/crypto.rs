//! Crypto-style workload: a tight kernel that streams input/output while
//! repeatedly consulting resident lookup tables (key schedule, S-boxes).
//!
//! Table pages are live for the whole run; input/output pages die as soon
//! as the block cursor passes. Table and stream accesses use *different*
//! PCs here (a realistic cipher inlines its table lookups), so PC-based
//! prediction has a fair chance on this family — the suite deliberately
//! mixes families where PC signatures do and do not work.

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Parameters for the streaming cipher kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CryptoStream {
    /// Resident lookup-table pages (live working set).
    pub table_pages: u64,
    /// Streamed input region in pages.
    pub input_pages: u64,
    /// Table lookups per processed block.
    pub lookups_per_block: u32,
    /// Bytes per processed block (one input load + one output store).
    pub block_bytes: u64,
}

impl Default for CryptoStream {
    fn default() -> Self {
        CryptoStream {
            table_pages: 256,
            input_pages: 1 << 15,
            lookups_per_block: 4,
            block_bytes: 64,
        }
    }
}

impl WorkloadGen for CryptoStream {
    fn name(&self) -> String {
        format!("crypto.stream.t{}l{}", self.table_pages, self.lookups_per_block)
    }

    fn category(&self) -> Category {
        Category::Crypto
    }

    fn emit_into(&self, em: &mut Emitter, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC0FFEE);
        let mut asp = AddressSpace::new();
        let kernel = CodeBlock::new(asp.code_region(1));
        let table_base = asp.data_region(self.table_pages);
        let input_base = asp.data_region(self.input_pages);
        let output_base = asp.data_region(self.input_pages);

        let mut cursor = 0u64;
        let blocks_per_page = PAGE_SIZE / self.block_bytes.max(1);

        while !em.is_full() {
            let page = cursor / blocks_per_page % self.input_pages;
            let off = cursor % blocks_per_page * self.block_bytes;
            cursor += 1;
            // Load input block.
            em.push(TraceRecord::load(kernel.pc(0), input_base + page * PAGE_SIZE + off));
            // Rounds: table lookups at a dedicated PC.
            for r in 0..self.lookups_per_block {
                let tpage = rng.gen_range(0..self.table_pages);
                let tslot = rng.gen_range(0..64);
                em.push(TraceRecord::alu(kernel.pc(1)));
                em.push(TraceRecord::load(
                    kernel.pc(2),
                    table_base + tpage * PAGE_SIZE + tslot * 64,
                ));
                let last = r + 1 == self.lookups_per_block;
                em.push(TraceRecord::cond_branch(kernel.pc(3), kernel.pc(1), !last));
            }
            // Store output block.
            em.push(TraceRecord::store(kernel.pc(4), output_base + page * PAGE_SIZE + off));
            // Outer block loop backedge.
            em.push(TraceRecord::cond_branch(kernel.pc(5), kernel.pc(0), true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InstrKind;
    use std::collections::HashMap;

    #[test]
    fn deterministic_per_seed() {
        let g = CryptoStream::default();
        assert_eq!(g.generate(10_000, 4), g.generate(10_000, 4));
    }

    #[test]
    fn table_pages_dominate_reuse() {
        let g = CryptoStream { table_pages: 32, input_pages: 1 << 14, ..Default::default() };
        let t = g.generate(100_000, 5);
        let mut visits: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                *visits.entry(v).or_insert(0) += 1;
            }
        }
        let mut sorted: Vec<u64> = visits.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // The 32 table pages absorb the most visits by far.
        assert!(sorted[31] > 10 * sorted[40.min(sorted.len() - 1)]);
    }

    #[test]
    fn stream_and_table_loads_use_distinct_pcs() {
        let g = CryptoStream::default();
        let t = g.generate(5_000, 0);
        let pcs: std::collections::HashSet<u64> =
            t.iter().filter(|r| r.kind == InstrKind::Load).map(|r| r.pc).collect();
        assert_eq!(pcs.len(), 2, "input loads and table loads have their own PCs");
    }
}
