//! Database-style workload: sequential table scans interleaved with zipfian
//! index lookups, both fetching rows through a shared leaf routine.
//!
//! Scan pages are touched once per pass (dead on arrival at the L2 TLB);
//! index pages are re-visited with zipfian popularity (live). The row-fetch
//! loads execute at the same PCs for both phases, so only control-flow
//! context separates live from dead pages.

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen, Zipf};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Parameters for the scan + index-lookup workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanIndex {
    /// Pages in the scanned table (streamed).
    pub table_pages: u64,
    /// Pages in the index structure (zipfian reuse).
    pub index_pages: u64,
    /// Zipf exponent for index-page popularity.
    pub zipf_s: f64,
    /// Pages scanned per scan burst.
    pub scan_burst_pages: u64,
    /// Lookups per lookup burst.
    pub lookup_burst: u32,
    /// B-tree levels touched per lookup (pages per lookup).
    pub levels: u32,
    /// Rows fetched per scanned page.
    pub rows_per_page: u32,
    /// Re-fetch one row from each page of the *previous* scan burst after
    /// the current one (the projection pass of a filter-then-project scan).
    /// The delayed touch lands past L1 reach but inside L2 reach, giving
    /// scan pages exactly one L2 reuse before they die — the pattern that
    /// saturates PC-indexed hit predictors (paper Observation 2).
    pub project_pass: bool,
}

impl Default for ScanIndex {
    fn default() -> Self {
        ScanIndex {
            table_pages: 1 << 15,
            index_pages: 1024,
            zipf_s: 0.9,
            scan_burst_pages: 64,
            lookup_burst: 256,
            levels: 3,
            rows_per_page: 8,
            project_pass: true,
        }
    }
}

impl WorkloadGen for ScanIndex {
    fn name(&self) -> String {
        format!("db.scanidx.i{}z{:.1}b{}", self.index_pages, self.zipf_s, self.scan_burst_pages)
    }

    fn category(&self) -> Category {
        Category::Database
    }

    fn emit_into(&self, em: &mut Emitter, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xD15EA5E);
        let mut asp = AddressSpace::new();
        let scan_fn = CodeBlock::new(asp.code_region(1));
        let lookup_fn = CodeBlock::new(asp.code_region(1));
        let fetch_fn = CodeBlock::new(asp.code_region(1));
        let project_fn = CodeBlock::new(asp.code_region(1));
        let table_base = asp.data_region(self.table_pages);
        let index_base = asp.data_region(self.index_pages);

        let zipf = Zipf::new(self.index_pages.max(1) as usize, self.zipf_s);
        let mut scan_cursor = 0u64;
        let mut prev_burst_start: Option<u64> = None;

        'outer: loop {
            // --- Scan burst -------------------------------------------
            let burst_start = scan_cursor;
            for _ in 0..self.scan_burst_pages {
                let page = scan_cursor % self.table_pages;
                scan_cursor += 1;
                for row in 0..self.rows_per_page {
                    let addr = table_base
                        + page * PAGE_SIZE
                        + u64::from(row) * (PAGE_SIZE / u64::from(self.rows_per_page.max(1)));
                    em.push(TraceRecord::alu(scan_fn.pc(0)));
                    em.push(TraceRecord::call(scan_fn.pc(1), fetch_fn.entry()));
                    emit_fetch(em, fetch_fn, addr, scan_fn.pc(2));
                    let last = row + 1 == self.rows_per_page;
                    em.push(TraceRecord::cond_branch(scan_fn.pc(3), scan_fn.pc(0), !last));
                }
                if em.is_full() {
                    break 'outer;
                }
            }
            // --- Projection pass over the previous burst --------------
            if self.project_pass {
                if let Some(start) = prev_burst_start {
                    for off in 0..self.scan_burst_pages {
                        let page = (start + off) % self.table_pages;
                        let addr = table_addr(table_base, page, 1);
                        em.push(TraceRecord::alu(project_fn.pc(0)));
                        em.push(TraceRecord::call(project_fn.pc(1), fetch_fn.entry()));
                        emit_fetch(em, fetch_fn, addr, project_fn.pc(2));
                        em.push(TraceRecord::cond_branch(
                            project_fn.pc(3),
                            project_fn.pc(0),
                            off + 1 != self.scan_burst_pages,
                        ));
                    }
                    if em.is_full() {
                        break 'outer;
                    }
                }
                prev_burst_start = Some(burst_start);
            }
            // --- Lookup burst ----------------------------------------
            for _ in 0..self.lookup_burst {
                // Walk `levels` index pages, each chosen near a zipfian seed
                // page so tree levels cluster but stay distinct.
                let hot = zipf.sample(&mut rng) as u64;
                for level in 0..u64::from(self.levels) {
                    let page = (hot + level * 37) % self.index_pages;
                    let addr = table_addr(index_base, page, rng.gen_range(0..64));
                    em.push(TraceRecord::alu(lookup_fn.pc(0)));
                    em.push(TraceRecord::call(lookup_fn.pc(1), fetch_fn.entry()));
                    emit_fetch(em, fetch_fn, addr, lookup_fn.pc(2));
                    let last = level + 1 == u64::from(self.levels);
                    em.push(TraceRecord::cond_branch(lookup_fn.pc(3), lookup_fn.pc(0), !last));
                }
                if em.is_full() {
                    break 'outer;
                }
            }
        }
    }
}

#[inline]
fn table_addr(base: u64, page: u64, slot: u64) -> u64 {
    base + page * PAGE_SIZE + slot * 64
}

/// Shared row-fetch leaf: two loads and a return — the PCs both phases share.
fn emit_fetch(em: &mut Emitter, fetch_fn: CodeBlock, addr: u64, ret_to: u64) {
    em.push(TraceRecord::load(fetch_fn.pc(0), addr));
    em.push(TraceRecord::load(fetch_fn.pc(1), addr + 16));
    em.push(TraceRecord::ret(fetch_fn.pc(2), ret_to));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InstrKind;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn deterministic_per_seed() {
        let g = ScanIndex::default();
        assert_eq!(g.generate(20_000, 9), g.generate(20_000, 9));
        assert_ne!(g.generate(20_000, 9), g.generate(20_000, 10));
    }

    #[test]
    fn shared_fetch_pcs() {
        let g = ScanIndex::default();
        let t = g.generate(50_000, 1);
        let load_pcs: HashSet<u64> =
            t.iter().filter(|r| r.kind == InstrKind::Load).map(|r| r.pc).collect();
        assert_eq!(load_pcs.len(), 2, "both phases must fetch through the shared leaf");
    }

    #[test]
    fn index_pages_reused_scan_pages_not() {
        let g = ScanIndex { table_pages: 1 << 14, index_pages: 64, ..Default::default() };
        let t = g.generate(200_000, 3);
        let mut visits: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            if let Some(v) = r.data_vpn() {
                *visits.entry(v).or_insert(0) += 1;
            }
        }
        // With only 64 index pages and zipf popularity, some index page must
        // be visited orders of magnitude more than a scan page.
        let max = visits.values().copied().max().unwrap();
        let ones = visits.values().filter(|&&c| c <= 2 * u64::from(g.rows_per_page)).count();
        assert!(max > 100, "hot index page expected, max visits {max}");
        assert!(ones > 50, "scan pages should be visited once, got {ones} single-visit pages");
    }
}
