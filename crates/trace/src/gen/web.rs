//! Web/server-style workload: a large instruction footprint of handler
//! functions dispatched with zipfian popularity.
//!
//! This family pressures the instruction side of the unified L2 TLB: hot
//! handlers' code pages are live, the long tail of cold handlers' pages die
//! after a single request. Each request also touches per-handler data and a
//! shared session region, mirroring asmDB-style front-end-bound server
//! behaviour the paper's introduction motivates.

use super::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen, Zipf};
use crate::record::TraceRecord;
use crate::rng::Xoshiro256pp;
use crate::PAGE_SIZE;

/// Parameters for the request-server workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WebServe {
    /// Number of handler functions.
    pub handlers: u32,
    /// Code pages per handler.
    pub pages_per_handler: u64,
    /// Zipf exponent for handler popularity.
    pub zipf_s: f64,
    /// Instructions executed per handler code page per request.
    pub instrs_per_page: u32,
    /// Shared session pages (hot data).
    pub session_pages: u64,
    /// Probability (×100) that the next request repeats the same handler —
    /// request-type temporal locality, which makes the recent call chain a
    /// stable context for control-flow-history predictors.
    pub repeat_percent: u32,
}

impl Default for WebServe {
    fn default() -> Self {
        WebServe {
            handlers: 2048,
            pages_per_handler: 1,
            zipf_s: 0.8,
            instrs_per_page: 48,
            session_pages: 32,
            repeat_percent: 70,
        }
    }
}

impl WorkloadGen for WebServe {
    fn name(&self) -> String {
        format!("web.serve.h{}z{:.1}", self.handlers, self.zipf_s)
    }

    fn category(&self) -> Category {
        Category::Web
    }

    fn emit_into(&self, em: &mut Emitter, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x3EB);
        let mut asp = AddressSpace::new();
        let dispatcher = CodeBlock::new(asp.code_region(1));
        let handler_code: Vec<CodeBlock> = (0..self.handlers)
            .map(|_| CodeBlock::new(asp.code_region(self.pages_per_handler)))
            .collect();
        let handler_data: Vec<u64> = (0..self.handlers).map(|_| asp.data_region(1)).collect();
        let session_base = asp.data_region(self.session_pages);

        let zipf = Zipf::new(self.handlers as usize, self.zipf_s);
        let mut h = zipf.sample(&mut rng);

        while !em.is_full() {
            if rng.gen_range(0..100) >= u64::from(self.repeat_percent) {
                h = zipf.sample(&mut rng);
            }
            let code = handler_code[h];
            // Dispatch: table load + indirect call into the handler.
            em.push(TraceRecord::load(dispatcher.pc(0), handler_data[h])); // vtable-ish
            em.push(TraceRecord::indirect_call(dispatcher.pc(1), code.entry()));
            // Handler body: march through its code pages.
            for page in 0..self.pages_per_handler {
                let page_pc0 = code.entry() + page * PAGE_SIZE;
                for i in 0..u64::from(self.instrs_per_page) {
                    let pc = page_pc0 + i * 4;
                    match i % 8 {
                        2 => em.push(TraceRecord::load(
                            pc,
                            handler_data[h] + rng.gen_range(0..PAGE_SIZE / 64) * 64,
                        )),
                        5 => em.push(TraceRecord::load(
                            pc,
                            session_base
                                + rng.gen_range(0..self.session_pages) * PAGE_SIZE
                                + rng.gen_range(0..64) * 64,
                        )),
                        7 => em.push(TraceRecord::cond_branch(pc, pc + 4, rng.gen_bool(0.4))),
                        _ => em.push(TraceRecord::alu(pc)),
                    }
                }
            }
            // Store the response into session state, then return.
            em.push(TraceRecord::store(
                code.pc(u64::from(self.instrs_per_page)),
                session_base + rng.gen_range(0..self.session_pages) * PAGE_SIZE,
            ));
            em.push(TraceRecord::ret(
                code.pc(u64::from(self.instrs_per_page) + 1),
                dispatcher.pc(2),
            ));
            em.push(TraceRecord::cond_branch(dispatcher.pc(3), dispatcher.pc(0), true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpn;
    use std::collections::HashMap;

    #[test]
    fn deterministic_per_seed() {
        let g = WebServe::default();
        assert_eq!(g.generate(20_000, 2), g.generate(20_000, 2));
        assert_ne!(g.generate(20_000, 2), g.generate(20_000, 3));
    }

    #[test]
    fn large_code_footprint_with_zipf_popularity() {
        let g = WebServe { handlers: 512, ..Default::default() };
        let t = g.generate(300_000, 7);
        let mut code_visits: HashMap<u64, u64> = HashMap::new();
        for r in &t {
            *code_visits.entry(vpn(r.pc)).or_insert(0) += 1;
        }
        assert!(code_visits.len() > 200, "expected a wide code footprint");
        let max = *code_visits.values().max().unwrap();
        let median = {
            let mut v: Vec<u64> = code_visits.values().copied().collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(max > 10 * median, "popularity must be skewed: max={max} median={median}");
    }

    #[test]
    fn dispatch_uses_indirect_calls() {
        let g = WebServe::default();
        let t = g.generate(10_000, 1);
        assert!(t.iter().any(|r| r.kind == crate::record::InstrKind::IndirectCall));
        assert!(t.iter().any(|r| r.kind == crate::record::InstrKind::Return));
    }
}
