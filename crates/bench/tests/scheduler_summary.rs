//! A `[scheduler]` summary line belongs to the experiment printed above
//! it: an experiment that schedules nothing — answered in full from the
//! run ledger, or one that never uses the scheduler — prints none.

use chirp_store::TempDir;
use std::path::Path;
use std::process::Command;

/// Runs a harness binary inside `dir` (figure binaries write their CSVs
/// under `results/` relative to it) and returns the labels of its
/// `[scheduler]` lines, in order.
fn scheduler_labels(dir: &Path, bin: &str, args: &[&str]) -> Vec<String> {
    let out = Command::new(bin).current_dir(dir).args(args).output().expect("spawn harness binary");
    assert!(out.status.success(), "{bin} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .filter_map(|line| line.strip_prefix("[scheduler] "))
        .map(|rest| rest.split(':').next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn experiments_that_schedule_nothing_print_no_summary() {
    let dir = TempDir::new("scheduler-summary");
    let args =
        ["--benchmarks", "2", "--instructions", "4000", "--threads", "2", "--store", "store"];
    // Put figure 6's runs in the ledger, so run_all answers figure 6 in
    // full right after the figures 1/7/8/11 run scheduled.
    let fig6 = scheduler_labels(dir.path(), env!("CARGO_BIN_EXE_fig6_ablation"), &args);
    assert_eq!(fig6, ["fig6"]);

    let labels = scheduler_labels(dir.path(), env!("CARGO_BIN_EXE_run_all"), &args);
    assert!(labels.iter().any(|l| l == "figures 1/7/8/11"), "{labels:?}");
    assert!(labels.iter().any(|l| l == "figure 10"), "{labels:?}");
    assert!(!labels.iter().any(|l| l == "figure 6"), "figure 6 came from the ledger: {labels:?}");
    assert!(!labels.iter().any(|l| l == "figure 3"), "figure 3 never schedules: {labels:?}");
}
