//! Extending the framework: define your own workload generator and run it
//! through the simulator. The generator models a log-structured store —
//! appends stream through fresh pages (dead on arrival) while a compaction
//! loop re-reads recent segments (live for a window).
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use chirp_repro::sim::{PolicyKind, SimConfig, Simulator};
use chirp_repro::trace::gen::{AddressSpace, Category, CodeBlock, Emitter, WorkloadGen};
use chirp_repro::trace::{TraceRecord, PAGE_SIZE};

/// A minimal log-structured-store workload.
struct LogStore {
    log_pages: u64,
    segment_pages: u64,
}

impl WorkloadGen for LogStore {
    fn name(&self) -> String {
        format!("custom.logstore.s{}", self.segment_pages)
    }

    fn category(&self) -> Category {
        Category::Mixed
    }

    fn emit_into(&self, em: &mut Emitter, _seed: u64) {
        let mut asp = AddressSpace::new();
        let append_fn = CodeBlock::new(asp.code_region(1));
        let compact_fn = CodeBlock::new(asp.code_region(1));
        let log_base = asp.data_region(self.log_pages);
        let mut head = 0u64;
        while !em.is_full() {
            // Append one segment: write each page once.
            for p in 0..self.segment_pages {
                let addr = log_base + (head + p) % self.log_pages * PAGE_SIZE;
                em.push(TraceRecord::alu(append_fn.pc(0)));
                em.push(TraceRecord::store(append_fn.pc(1), addr));
                em.push(TraceRecord::cond_branch(
                    append_fn.pc(2),
                    append_fn.pc(0),
                    p + 1 != self.segment_pages,
                ));
            }
            // Compact the previous two segments: re-read their pages.
            let start = head.saturating_sub(2 * self.segment_pages);
            for p in 0..(head - start).min(2 * self.segment_pages) {
                let addr = log_base + (start + p) % self.log_pages * PAGE_SIZE;
                em.push(TraceRecord::load(compact_fn.pc(0), addr));
                em.push(TraceRecord::alu(compact_fn.pc(1)));
                em.push(TraceRecord::cond_branch(compact_fn.pc(2), compact_fn.pc(0), true));
            }
            head += self.segment_pages;
        }
    }
}

fn main() {
    let workload = LogStore { log_pages: 1 << 15, segment_pages: 96 };
    let trace = workload.generate_packed(1_500_000, 0);
    println!("workload: {} ({} instructions)", workload.name(), trace.len());

    let config = SimConfig::default();
    println!("{:<8} {:>8} {:>10}", "policy", "MPKI", "IPC");
    for kind in PolicyKind::paper_lineup() {
        let mut sim = Simulator::with_policy(&config, kind.build_dispatch(config.tlb.l2, 0));
        let r = sim.run_columnar(&trace, config.warmup_fraction);
        println!("{:<8} {:>8.3} {:>10.4}", r.policy, r.mpki(), r.ipc());
    }
}
