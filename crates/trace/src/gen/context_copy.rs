//! Mixed-context copy kernel: the workload family that isolates the paper's
//! central claim.
//!
//! A shared leaf routine (`touch`: load + store + return) moves cache lines
//! on behalf of two different call sites:
//!
//! * **site A** copies inside a *resident* buffer that is re-visited phase
//!   after phase — its pages are live and worth keeping in the L2 TLB;
//! * **site B** streams through a huge region — its pages are dead the
//!   moment the cursor leaves them.
//!
//! Because the loads and stores execute at the *same PCs* for both sites, a
//! PC-indexed predictor (SHiP) cannot separate live from dead pages and its
//! counters saturate (paper Observation 2). The calling context is, however,
//! fully visible in control-flow history: each site drives the leaf from its
//! own loop, so the conditional-branch history (branch PC bits [11:4]) and
//! the path history differ between contexts — exactly the signal CHiRP's
//! signature is designed to capture (paper §II-E, §IV-B).

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Parameters for the mixed-context copy kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextCopy {
    /// Pages in the resident (hot) buffer re-visited by site A.
    pub hot_pages: u64,
    /// Pages in the streaming region consumed by site B before wrapping.
    pub stream_pages: u64,
    /// Pages copied per call to the shared helper.
    pub pages_per_call: u64,
    /// Site-A calls per super-iteration (hot re-visits).
    pub hot_calls: u32,
    /// Site-B calls per super-iteration (streaming).
    pub stream_calls: u32,
    /// Copy granularity in bytes (one load + one store per line).
    pub line_bytes: u64,
    /// Every `verify_every` site-B calls, a verify pass re-reads the pages
    /// just streamed (through the same shared leaf, from its own call
    /// site). This gives streaming pages exactly one *delayed* reuse before
    /// they die — the coarse-granularity pattern of the paper's
    /// Observation 2 that saturates PC-indexed hit predictors. 0 disables.
    pub verify_every: u32,
}

impl Default for ContextCopy {
    fn default() -> Self {
        // Sized so several hot-reuse cycles complete within a 1M-instruction
        // window: one super-iteration is ~10K instructions, the hot buffer
        // is fully re-visited every 4 iterations.
        ContextCopy {
            hot_pages: 512,
            stream_pages: 1 << 16,
            pages_per_call: 8,
            hot_calls: 16,
            stream_calls: 32,
            line_bytes: 512,
            verify_every: 8,
        }
    }
}

impl WorkloadGen for ContextCopy {
    fn name(&self) -> String {
        format!("mixed.ctxcopy.h{}s{}c{}", self.hot_pages, self.stream_calls, self.pages_per_call)
    }

    fn category(&self) -> Category {
        Category::Mixed
    }

    fn emit_into(&self, em: &mut Emitter, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC7C0);
        let mut asp = AddressSpace::new();
        let main_fn = CodeBlock::new(asp.code_region(1));
        let site_a = CodeBlock::new(asp.code_region(1));
        let site_b = CodeBlock::new(asp.code_region(1));
        let site_v = CodeBlock::new(asp.code_region(1));
        let leaf = CodeBlock::new(asp.code_region(1));
        let hot_base = asp.data_region(self.hot_pages);
        let stream_base = asp.data_region(self.stream_pages);

        let lines_per_page = PAGE_SIZE / self.line_bytes.max(1);
        let mut hot_cursor = 0u64; // page index within hot buffer
        let mut stream_cursor = 0u64; // page index within stream region

        'outer: loop {
            // --- Site A phase: re-visit the resident buffer -------------
            for _ in 0..self.hot_calls {
                // main: a couple of dispatch instructions, then call site A.
                em.push(TraceRecord::alu(main_fn.pc(0)));
                em.push(TraceRecord::cond_branch(main_fn.pc(1), main_fn.pc(2), false));
                em.push(TraceRecord::call(main_fn.pc(2), site_a.entry()));
                let first_page = hot_cursor;
                self.emit_copy_loop(em, &mut rng, site_a, leaf, |page_off, line| {
                    let page = (first_page + page_off) % self.hot_pages;
                    hot_base + page * PAGE_SIZE + line * self.line_bytes
                });
                hot_cursor = (hot_cursor + self.pages_per_call) % self.hot_pages;
                em.push(TraceRecord::ret(site_a.pc(40), main_fn.pc(3)));
                if em.is_full() {
                    break 'outer;
                }
            }
            // --- Site B phase: stream through the big region ------------
            let mut calls_since_verify = 0u32;
            let mut group_start = stream_cursor;
            // Verify lags one group behind the copy cursor so its re-reads
            // land beyond L1 d-TLB reach but within L2 reach.
            let mut pending_verify: Option<u64> = None;
            for _ in 0..self.stream_calls {
                em.push(TraceRecord::alu(main_fn.pc(4)));
                em.push(TraceRecord::cond_branch(main_fn.pc(5), main_fn.pc(6), true));
                em.push(TraceRecord::call(main_fn.pc(6), site_b.entry()));
                let first_page = stream_cursor;
                self.emit_copy_loop(em, &mut rng, site_b, leaf, |page_off, line| {
                    let page = (first_page + page_off) % self.stream_pages;
                    stream_base + page * PAGE_SIZE + line * self.line_bytes
                });
                stream_cursor = (stream_cursor + self.pages_per_call) % self.stream_pages;
                em.push(TraceRecord::ret(site_b.pc(40), main_fn.pc(7)));
                calls_since_verify += 1;
                // Verify pass: one delayed re-read of each page just
                // streamed, driven from its own call site but touching
                // memory through the same shared leaf.
                if self.verify_every > 0 && calls_since_verify == self.verify_every {
                    let group_pages = u64::from(self.verify_every) * self.pages_per_call;
                    if let Some(start) = pending_verify {
                        em.push(TraceRecord::call(main_fn.pc(8), site_v.entry()));
                        for off in 0..group_pages {
                            let page = (start + off) % self.stream_pages;
                            let addr = stream_base + page * PAGE_SIZE;
                            em.push(TraceRecord::alu(site_v.pc(0)));
                            em.push(TraceRecord::call(site_v.pc(1), leaf.entry()));
                            em.push(TraceRecord::load(leaf.pc(0), addr));
                            em.push(TraceRecord::store(leaf.pc(1), addr + PAGE_SIZE / 2));
                            em.push(TraceRecord::ret(leaf.pc(2), site_v.pc(2)));
                            em.push(TraceRecord::cond_branch(
                                site_v.pc(3),
                                site_v.pc(0),
                                off + 1 != group_pages,
                            ));
                        }
                        em.push(TraceRecord::ret(site_v.pc(4), main_fn.pc(9)));
                    }
                    pending_verify = Some(group_start);
                    calls_since_verify = 0;
                    group_start = stream_cursor;
                }
                if em.is_full() {
                    break 'outer;
                }
            }
            let _ = lines_per_page;
        }
    }
}

impl ContextCopy {
    /// Emits one call's worth of copy iterations driven by `site`'s loop,
    /// with the actual memory accesses issued from the *shared* `leaf`
    /// routine. `addr(page_offset, line)` supplies the source address; the
    /// destination mirrors it at a half-page offset so both stay on the same
    /// page (one page touch per line pair).
    fn emit_copy_loop(
        &self,
        em: &mut Emitter,
        rng: &mut Xoshiro256pp,
        site: CodeBlock,
        leaf: CodeBlock,
        addr: impl Fn(u64, u64) -> u64,
    ) {
        let lines_per_page = PAGE_SIZE / self.line_bytes.max(1);
        // Touch every line of every page: load low half, store high half.
        for page_off in 0..self.pages_per_call {
            for line in 0..lines_per_page / 2 {
                let src = addr(page_off, line);
                let dst = src + PAGE_SIZE / 2;
                // Site-specific loop control: induction update + backedge.
                em.push(TraceRecord::alu(site.pc(0)));
                em.push(TraceRecord::call(site.pc(1), leaf.entry()));
                // Shared leaf: the PCs every policy sees on the d-side.
                em.push(TraceRecord::load(leaf.pc(0), src));
                em.push(TraceRecord::store(leaf.pc(1), dst));
                em.push(TraceRecord::ret(leaf.pc(2), site.pc(2)));
                // A data-dependent test (e.g. "byte was zero") whose outcome
                // is noise. Its *PC* is stable — CHiRP's histories record
                // branch PCs, not outcomes (§IV-B), so this only perturbs
                // outcome-based histories like GHRP's.
                em.push(TraceRecord::cond_branch(site.pc(5), site.pc(6), rng.gen_bool(0.3)));
                // Site-specific backedge (branch PC identifies the context).
                let last = page_off + 1 == self.pages_per_call && line + 1 == lines_per_page / 2;
                em.push(TraceRecord::cond_branch(site.pc(3), site.pc(0), !last));
                if em.is_full() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InstrKind;
    use crate::vpn;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let g = ContextCopy::default();
        assert_eq!(g.generate(5_000, 1), g.generate(5_000, 1));
    }

    #[test]
    fn exact_length() {
        let g = ContextCopy::default();
        assert_eq!(g.generate(12_345, 0).len(), 12_345);
    }

    #[test]
    fn shares_leaf_pcs_between_contexts() {
        let g = ContextCopy { hot_calls: 2, stream_calls: 2, ..Default::default() };
        let t = g.generate(200_000, 0);
        // Exactly one load PC and one store PC: the shared leaf.
        let load_pcs: HashSet<u64> =
            t.iter().filter(|r| r.kind == InstrKind::Load).map(|r| r.pc).collect();
        let store_pcs: HashSet<u64> =
            t.iter().filter(|r| r.kind == InstrKind::Store).map(|r| r.pc).collect();
        assert_eq!(load_pcs.len(), 1, "all loads must come from the shared leaf");
        assert_eq!(store_pcs.len(), 1, "all stores must come from the shared leaf");
    }

    #[test]
    fn contexts_use_distinct_branch_pcs() {
        let g = ContextCopy { hot_calls: 1, stream_calls: 1, ..Default::default() };
        let t = g.generate(100_000, 0);
        let branch_pcs: HashSet<u64> =
            t.iter().filter(|r| r.kind == InstrKind::CondBranch).map(|r| r.pc).collect();
        // main dispatch (2) + site A backedge + site B backedge.
        assert!(branch_pcs.len() >= 4, "expected per-site backedges, got {branch_pcs:?}");
    }

    #[test]
    fn hot_pages_are_revisited_and_stream_pages_are_not() {
        let g = ContextCopy {
            hot_pages: 8,
            stream_pages: 1 << 14,
            pages_per_call: 4,
            hot_calls: 4,
            stream_calls: 4,
            line_bytes: 512,
            verify_every: 0,
        };
        let t = g.generate(60_000, 0);
        let mut counts = std::collections::HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                *counts.entry(v).or_insert(0u64) += 1;
            }
        }
        let mut revisited = 0;
        let mut single = 0;
        for (_, c) in counts {
            // 512-byte lines -> 4 line-pairs per page per visit.
            if c > 8 {
                revisited += 1;
            } else {
                single += 1;
            }
        }
        assert!(revisited >= 8, "hot pages must be re-visited (got {revisited})");
        assert!(single > 100, "stream pages must be touched once (got {single})");
    }

    #[test]
    fn code_and_data_pages_disjoint() {
        let g = ContextCopy::default();
        let t = g.generate(20_000, 0);
        let code: HashSet<u64> = t.iter().map(|r| vpn(r.pc)).collect();
        let data: HashSet<u64> = t.iter().filter_map(|r| r.data_vpn()).collect();
        assert!(code.is_disjoint(&data));
    }
}
