//! Scientific tiled-stencil workload: per-tile resident operands combined
//! with a cyclically swept streaming operand.
//!
//! Within a tile step, the A-tile and C-tile pages are re-visited many
//! times (live); the B operand is swept front to back every step (cyclic —
//! the LRU-hostile regime). All three operands are read through the same
//! inner-product leaf routine, so PC identity again fails to separate the
//! live tiles from the streamed sweep.

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen};
use crate::record::TraceRecord;
use crate::PAGE_SIZE;

/// Parameters for the tiled-stencil workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledStencil {
    /// Pages per resident tile (A and C each).
    pub tile_pages: u64,
    /// Pages in the streamed B operand (swept fully per step).
    pub sweep_pages: u64,
    /// Inner iterations per B page per step.
    pub inner: u32,
    /// Tile steps before the tile cursor advances.
    pub reuse_steps: u32,
}

impl Default for TiledStencil {
    fn default() -> Self {
        TiledStencil { tile_pages: 128, sweep_pages: 2048, inner: 2, reuse_steps: 4 }
    }
}

impl WorkloadGen for TiledStencil {
    fn name(&self) -> String {
        format!("sci.stencil.t{}s{}", self.tile_pages, self.sweep_pages)
    }

    fn category(&self) -> Category {
        Category::Scientific
    }

    fn emit_into(&self, em: &mut Emitter, _seed: u64) {
        let mut asp = AddressSpace::new();
        let outer_fn = CodeBlock::new(asp.code_region(1));
        let dot_fn = CodeBlock::new(asp.code_region(1));
        // Allocate a generous tile arena so the tile cursor can advance.
        let tile_arena_pages = self.tile_pages * 64;
        let a_base = asp.data_region(tile_arena_pages);
        let c_base = asp.data_region(tile_arena_pages);
        let b_base = asp.data_region(self.sweep_pages);

        let mut tile_idx = 0u64;
        let mut step = 0u32;

        'outer: loop {
            let a_tile = a_base + (tile_idx % 64) * self.tile_pages * PAGE_SIZE;
            let c_tile = c_base + (tile_idx % 64) * self.tile_pages * PAGE_SIZE;
            // One step: sweep all of B against the resident tile.
            for bp in 0..self.sweep_pages {
                for k in 0..u64::from(self.inner) {
                    let a_addr = a_tile + (bp * 7 + k) % (self.tile_pages * 64) * 64;
                    let b_addr = b_base + bp * PAGE_SIZE + k * 256;
                    let c_addr = c_tile + (bp * 13 + k) % (self.tile_pages * 64) * 64;
                    em.push(TraceRecord::alu(outer_fn.pc(0)));
                    em.push(TraceRecord::call(outer_fn.pc(1), dot_fn.entry()));
                    em.push(TraceRecord::load(dot_fn.pc(0), a_addr));
                    em.push(TraceRecord::load(dot_fn.pc(1), b_addr));
                    em.push(TraceRecord::store(dot_fn.pc(2), c_addr));
                    em.push(TraceRecord::ret(dot_fn.pc(3), outer_fn.pc(2)));
                    let last = k + 1 == u64::from(self.inner);
                    em.push(TraceRecord::cond_branch(outer_fn.pc(3), outer_fn.pc(0), !last));
                }
                em.push(TraceRecord::cond_branch(
                    outer_fn.pc(4),
                    outer_fn.pc(0),
                    bp + 1 != self.sweep_pages,
                ));
                if em.is_full() {
                    break 'outer;
                }
            }
            step += 1;
            if step >= self.reuse_steps {
                step = 0;
                tile_idx += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic() {
        let g = TiledStencil::default();
        assert_eq!(g.generate(15_000, 0), g.generate(15_000, 5));
    }

    #[test]
    fn tile_pages_reused_within_step() {
        let g = TiledStencil { tile_pages: 4, sweep_pages: 256, inner: 2, reuse_steps: 4 };
        let t = g.generate(50_000, 0);
        let mut visits: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                *visits.entry(v).or_insert(0) += 1;
            }
        }
        let max = *visits.values().max().unwrap();
        // Tiny tiles hammered for the whole step vs B pages touched
        // `inner` times per sweep.
        assert!(max > 100, "tile pages must absorb heavy reuse, max={max}");
    }

    #[test]
    fn shared_leaf_pcs_for_all_operands() {
        let g = TiledStencil::default();
        let t = g.generate(5_000, 0);
        let load_pcs: std::collections::HashSet<u64> =
            t.iter().filter(|r| r.kind == crate::record::InstrKind::Load).map(|r| r.pc).collect();
        assert_eq!(load_pcs.len(), 2, "A and B are loaded from the shared leaf");
    }
}
