//! Quickstart: plug CHiRP into an L2 TLB, feed it a context-sensitive
//! workload, and compare its miss rate against LRU.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use chirp_repro::core::{Chirp, ChirpConfig};
use chirp_repro::sim::{SimConfig, Simulator};
use chirp_repro::tlb::policies::Lru;
use chirp_repro::trace::gen::{ContextCopy, WorkloadGen};

fn main() {
    // A workload whose pages are live or dead depending on *calling
    // context*: a shared copy helper serves a resident buffer from one call
    // site and a streaming region from another.
    let workload = ContextCopy::default();
    let trace = workload.generate_packed(1_000_000, 42);
    println!("workload: {} ({} instructions)", workload.name(), trace.len());

    let config = SimConfig::default();

    // Baseline: true LRU, the policy TLB literature usually assumes.
    let mut sim = Simulator::with_policy(&config, Lru::new(config.tlb.l2));
    let lru = sim.run_columnar(&trace, config.warmup_fraction);

    // CHiRP with the paper's default configuration (1 KB prediction table).
    let chirp_policy = Chirp::new(config.tlb.l2, ChirpConfig::default());
    let mut sim = Simulator::with_policy(&config, chirp_policy);
    let chirp = sim.run_columnar(&trace, config.warmup_fraction);

    println!("\n             {:>10} {:>10}", "LRU", "CHiRP");
    println!("L2 TLB MPKI  {:>10.3} {:>10.3}", lru.mpki(), chirp.mpki());
    println!("IPC          {:>10.4} {:>10.4}", lru.ipc(), chirp.ipc());
    println!("efficiency   {:>10.3} {:>10.3}", lru.efficiency, chirp.efficiency);
    println!(
        "\nCHiRP cuts L2 TLB misses by {:.1}% and speeds the run up by {:.2}%",
        (1.0 - chirp.mpki() / lru.mpki()) * 100.0,
        chirp.speedup_over(&lru) * 100.0
    );
}
