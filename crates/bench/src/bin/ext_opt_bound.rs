//! Extension experiment: Bélády-OPT upper bound vs LRU and CHiRP.
//! Writes `results/ext_opt_bound.csv`.

use chirp_bench::HarnessArgs;
use chirp_sim::experiments::opt_bound;
use chirp_sim::report::Table;
use chirp_trace::suite::{build_suite, SuiteConfig};
use std::path::Path;

fn main() {
    let mut args = HarnessArgs::from_env();
    // The OPT oracle holds every L2 access position of a trace, so cap the
    // suite at a small subset.
    if args.benchmarks > 32 {
        args.benchmarks = 32;
        eprintln!("note: OPT bound capped at 32 benchmarks");
    }
    let suite = build_suite(&SuiteConfig { benchmarks: args.benchmarks });
    let config = args.runner_config();
    let result = opt_bound::run(&suite, &config);
    println!("{}", opt_bound::render(&result));

    let mut csv = Table::new(["benchmark", "lru_mpki", "chirp_mpki", "opt_mpki"]);
    for (name, l, c, o) in &result.rows {
        csv.row([name.clone(), format!("{l:.4}"), format!("{c:.4}"), format!("{o:.4}")]);
    }
    let path = Path::new("results/ext_opt_bound.csv");
    chirp_bench::exit_on_err(csv.write_csv(path), format!("cannot write {}", path.display()));
    eprintln!("wrote {}", path.display());
}
