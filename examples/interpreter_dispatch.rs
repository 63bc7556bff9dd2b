//! Interpreter scenario: a bytecode dispatch loop where liveness is only
//! visible through the *indirect-branch history* — the third feature of
//! CHiRP's signature (§IV-B). Compares the paper lineup plus the DRRIP
//! extension baseline, and shows what CHiRP loses when the indirect
//! history is ablated away.
//!
//! ```sh
//! cargo run --release --example interpreter_dispatch
//! ```

use chirp_repro::core::ChirpConfig;
use chirp_repro::sim::{PolicyKind, SimConfig, Simulator};
use chirp_repro::trace::gen::{Interpreter, WorkloadGen};

fn main() {
    let workload = Interpreter::default();
    let trace = workload.generate_packed(1_500_000, 11);
    println!("workload: {} ({} instructions)", workload.name(), trace.len());

    let config = SimConfig::default();
    let run = |label: &str, kind: PolicyKind| {
        let mut sim = Simulator::with_policy(&config, kind.build_dispatch(config.tlb.l2, 11));
        let r = sim.run_columnar(&trace, config.warmup_fraction);
        println!("{label:<24} MPKI {:>8.3}  IPC {:.4}", r.mpki(), r.ipc());
    };

    for kind in PolicyKind::paper_lineup() {
        run(kind.name(), kind.clone());
    }
    run("drrip (extension)", PolicyKind::Drrip);
    run("perceptron (extension)", PolicyKind::PerceptronReuse);
    run(
        "chirp w/o indirect hist",
        PolicyKind::Chirp(ChirpConfig { use_uncond: false, ..Default::default() }),
    );
}
