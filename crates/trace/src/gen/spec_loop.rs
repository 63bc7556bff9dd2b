//! SPEC-style loop nests sweeping several arrays cyclically.
//!
//! The classic regime for replacement studies: when the combined footprint
//! exceeds TLB reach and pages are revisited cyclically, LRU degenerates to
//! ~0% reuse while thrash-resistant policies retain a resident subset. The
//! generator also keeps a small scalar/stack page set hot, and supports
//! footprints below reach (everything hits — the easy end of the paper's
//! S-curve in Figure 7).

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen};
use crate::record::TraceRecord;
use crate::PAGE_SIZE;

/// Parameters for the cyclic loop-nest workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecLoops {
    /// Number of distinct arrays swept in turn.
    pub arrays: u32,
    /// Pages per array.
    pub pages_per_array: u64,
    /// Stride within a page in bytes (one load per stride step).
    pub stride_bytes: u64,
    /// Accesses to the hot scalar page per array element processed.
    pub scalar_every: u32,
}

impl Default for SpecLoops {
    fn default() -> Self {
        SpecLoops { arrays: 4, pages_per_array: 512, stride_bytes: 256, scalar_every: 4 }
    }
}

impl SpecLoops {
    /// Total data footprint in pages (excluding the scalar page).
    pub fn footprint_pages(&self) -> u64 {
        u64::from(self.arrays) * self.pages_per_array
    }
}

impl WorkloadGen for SpecLoops {
    fn name(&self) -> String {
        format!("spec.loops.a{}p{}", self.arrays, self.pages_per_array)
    }

    fn category(&self) -> Category {
        Category::Spec
    }

    fn emit_into(&self, em: &mut Emitter, _seed: u64) {
        let mut asp = AddressSpace::new();
        let kernel = CodeBlock::new(asp.code_region(1));
        let scalar_base = asp.data_region(1);
        let bases: Vec<u64> =
            (0..self.arrays).map(|_| asp.data_region(self.pages_per_array)).collect();

        let steps_per_page = PAGE_SIZE / self.stride_bytes.max(1);
        let mut elem = 0u64;

        'outer: loop {
            for (ai, &base) in bases.iter().enumerate() {
                for page in 0..self.pages_per_array {
                    for step in 0..steps_per_page {
                        let addr = base + page * PAGE_SIZE + step * self.stride_bytes;
                        em.push(TraceRecord::load(kernel.pc(0), addr));
                        em.push(TraceRecord::alu(kernel.pc(1)));
                        if self.scalar_every > 0
                            && elem.is_multiple_of(u64::from(self.scalar_every))
                        {
                            em.push(TraceRecord::store(kernel.pc(2), scalar_base + 64));
                        }
                        elem += 1;
                        let last_step = step + 1 == steps_per_page;
                        em.push(TraceRecord::cond_branch(kernel.pc(3), kernel.pc(0), !last_step));
                    }
                    let last_page = page + 1 == self.pages_per_array;
                    em.push(TraceRecord::cond_branch(
                        kernel.pc(4 + ai as u64),
                        kernel.pc(0),
                        !last_page,
                    ));
                    if em.is_full() {
                        break 'outer;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let g = SpecLoops::default();
        assert_eq!(g.generate(30_000, 0), g.generate(30_000, 99));
    }

    #[test]
    fn footprint_matches_parameters() {
        let g = SpecLoops { arrays: 2, pages_per_array: 16, ..Default::default() };
        // Generate enough to cover both arrays fully.
        let t = g.generate(10_000, 0);
        let data: HashSet<u64> = t.iter().filter_map(|r| r.data_vpn()).collect();
        // 2 arrays x 16 pages + 1 scalar page.
        assert_eq!(data.len() as u64, g.footprint_pages() + 1);
    }

    #[test]
    fn pages_visited_cyclically() {
        let g = SpecLoops { arrays: 2, pages_per_array: 4, stride_bytes: 1024, scalar_every: 0 };
        let t = g.generate(2_000, 0);
        let pages: Vec<u64> = t.iter().filter_map(|r| r.data_vpn()).collect();
        // The same page sequence must repeat after one full sweep.
        let sweep = (4 * (4096 / 1024) * 2) as usize; // pages*steps*arrays = loads per cycle
        assert!(pages.len() > 2 * sweep);
        assert_eq!(pages[..sweep], pages[sweep..2 * sweep]);
    }
}
