//! Database scenario: a table scan thrashing the TLB while zipfian index
//! lookups want their pages retained — the workload class from the paper's
//! introduction. Shows per-policy MPKI, TLB efficiency, and the
//! prediction-table traffic each predictive policy pays.
//!
//! ```sh
//! cargo run --release --example streaming_scan
//! ```

use chirp_repro::sim::{PolicyKind, SimConfig, Simulator};
use chirp_repro::trace::gen::{ScanIndex, WorkloadGen};

fn main() {
    let workload =
        ScanIndex { index_pages: 1024, zipf_s: 0.9, scan_burst_pages: 64, ..Default::default() };
    let trace = workload.generate_packed(2_000_000, 7);
    println!("workload: {} ({} instructions)", workload.name(), trace.len());
    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>16}",
        "policy", "MPKI", "IPC", "efficiency", "table accesses"
    );

    let config = SimConfig::default();
    let mut lru_ipc = None;
    for kind in PolicyKind::paper_lineup() {
        let mut sim = Simulator::with_policy(&config, kind.build_dispatch(config.tlb.l2, 7));
        let r = sim.run_columnar(&trace, config.warmup_fraction);
        let speedup = match lru_ipc {
            None => {
                lru_ipc = Some(r.ipc());
                String::new()
            }
            Some(base) => format!("  ({:+.2}% vs LRU)", (r.ipc() / base - 1.0) * 100.0),
        };
        println!(
            "{:<8} {:>8.3} {:>8.4} {:>12.3} {:>16}{speedup}",
            r.policy,
            r.mpki(),
            r.ipc(),
            r.efficiency,
            r.prediction_table_accesses
        );
    }
    println!(
        "\nThe scan's pages die after one delayed re-read; the index pages live.\n\
         Only control-flow history separates the two through the shared row-fetch\n\
         helper — PC-indexed prediction (SHiP) saturates (paper Observation 2)."
    );
}
