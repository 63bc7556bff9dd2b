//! Exit statuses of the `chirp-serve`, `chirp-client` and `loadgen`
//! binaries: a usage error exits with 2, as the `chirp-bench` binaries
//! do, and a runtime failure with 1. None of these invocations starts a
//! server.

use std::net::TcpListener;
use std::process::Command;

const SERVE: &str = env!("CARGO_BIN_EXE_chirp-serve");
const CLIENT: &str = env!("CARGO_BIN_EXE_chirp-client");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");

/// Runs `bin` with `args`, returning its exit code and standard error.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn the binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn serve_rejects_an_unknown_flag_with_status_2() {
    let (code, stderr) = run(SERVE, &["--threads", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");
    assert!(stderr.contains("usage: chirp-serve"), "{stderr}");
}

#[test]
fn serve_rejects_missing_and_invalid_values_with_status_2() {
    for args in [
        &["--bind"][..],
        &["--bind", "nowhere"],
        &["--store"],
        &["--mem-budget", "lots"],
        &["--mem-budget", "0"],
        &["--retry-after-ms", "soon"],
    ] {
        let (code, stderr) = run(SERVE, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
    }
}

#[test]
fn client_rejects_usage_errors_with_status_2() {
    for args in [
        &[][..],
        &["ping"],
        &["ping", "--addr"],
        &["ping", "--addr", "nowhere"],
        &["ping", "--addr", "127.0.0.1:1", "--threads", "2"],
        &["run", "--addr", "127.0.0.1:1", "--seed", "x"],
        &["run", "--addr", "127.0.0.1:1", "--hash", "xyz"],
        &["run", "--addr", "127.0.0.1:1"],
        &["submit", "--addr", "127.0.0.1:1"],
        &["teleport", "--addr", "127.0.0.1:1"],
    ] {
        let (code, stderr) = run(CLIENT, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: chirp-client"), "{args:?}: {stderr}");
    }
}

#[test]
fn client_runtime_failure_exits_with_status_1() {
    // A port that was just free: nothing listens there any more.
    let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let (code, stderr) = run(CLIENT, &["ping", "--addr", &addr]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("connect"), "{stderr}");
}

#[test]
fn loadgen_rejects_usage_errors_with_status_2() {
    for args in [
        &[][..],
        &["--threads", "2"],
        &["--addr"],
        &["--addr", "nowhere"],
        &["--spawn", "--sessions"],
        &["--spawn", "--sessions", "many"],
        &["--spawn", "--requests", "-1"],
        &["--spawn", "--mem-budget", "lots"],
    ] {
        let (code, stderr) = run(LOADGEN, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
    }
}

#[test]
fn loadgen_runtime_failure_exits_with_status_1() {
    // A port that was just free: nothing listens there any more.
    let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let args = ["--addr", &addr, "--sessions", "1", "--benchmarks", "1", "--instructions", "1000"];
    let (code, stderr) = run(LOADGEN, &args);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("usage: loadgen"), "{stderr}");
}
