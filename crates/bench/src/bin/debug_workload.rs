//! Workload debugging tool: runs a single named generator (with default
//! parameters) across all policies at several trace lengths, printing MPKI
//! and dead-eviction behaviour. Used to tune generator parameters.
//!
//! Usage: `debug_workload <ctxcopy|scanidx|crypto|stencil|spec|web|chase|gups> [len]`

use chirp_sim::{PolicyKind, SimConfig, Simulator};
use chirp_tlb::TlbReplacementPolicy;
use chirp_trace::gen::{
    ContextCopy, CryptoStream, Gups, PointerChase, ScanIndex, SpecLoops, TiledStencil, WebServe,
    WorkloadGen,
};

fn make(name: &str) -> Box<dyn WorkloadGen> {
    match name {
        "ctxcopy" => Box::new(ContextCopy::default()),
        "scanidx" => Box::new(ScanIndex::default()),
        "crypto" => Box::new(CryptoStream::default()),
        "stencil" => Box::new(TiledStencil::default()),
        "spec" => Box::new(SpecLoops::default()),
        "web" => Box::new(WebServe::default()),
        "chase" => Box::new(PointerChase::default()),
        "gups" => Box::new(Gups::default()),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "ctxcopy".to_string());
    let len: usize = match args.next() {
        None => 1_000_000,
        Some(s) => chirp_bench::exit_on_err(
            s.replace('_', "").parse(),
            format!("invalid instruction count {s}"),
        ),
    };
    let gen = make(&name);
    let trace = gen.generate_packed(len, 0);
    let stats = chirp_trace::TraceStats::from_trace(&trace.to_records());
    println!(
        "{name}: {} instr, {} code pages, {} data pages, mem {:.1}%, br {:.1}%",
        stats.instructions,
        stats.code_pages,
        stats.data_pages,
        stats.memory_ratio() * 100.0,
        stats.branch_ratio() * 100.0
    );
    let config = SimConfig::default();
    for policy in PolicyKind::paper_lineup() {
        let mut sim = Simulator::with_policy(&config, policy.build_dispatch(config.tlb.l2, 0));
        let r = sim.run_columnar(&trace, config.warmup_fraction);
        println!(
            "  {:<8} MPKI {:>8.3}  IPC {:.4}  eff {:.3}  tbl-rate {:.3}  dead-evict {:>8}",
            r.policy,
            r.mpki(),
            r.ipc(),
            r.efficiency,
            r.table_access_rate(),
            r.l2_tlb.dead_evictions
        );
        if let Some(chirp) =
            sim.tlbs().l2().policy().as_any().and_then(|a| a.downcast_ref::<chirp_core::Chirp>())
        {
            let table = chirp.table();
            let mut hist = [0usize; 4];
            for i in 0..table.len() {
                hist[table.peek(i) as usize] += 1;
            }
            println!("           counters {:?}  {:?}", hist, chirp.counters());
        }
    }
}
