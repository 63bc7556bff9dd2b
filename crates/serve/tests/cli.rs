//! Exit statuses of the `chirp-serve`, `chirp-client` and `loadgen`
//! binaries: a usage error exits with 2, as the `chirp-bench` binaries
//! do, and a runtime failure with 1. Only the session-cap case starts a
//! server; `chirp-client` exits with 3 when it refuses the session.

use chirp_serve::Client;
use chirp_store::TempDir;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Command, Stdio};

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
        &["--max-sessions"],
        &["--max-sessions", "0"],
        &["--max-sessions", "many"],
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
fn client_refused_at_the_session_cap_exits_with_status_3() {
    let root = TempDir::new("cli-session-cap");
    let store = root.path().to_str().expect("utf-8 temp path");
    let mut server = Command::new(SERVE)
        .args(["--bind", "127.0.0.1:0", "--store", store, "--max-sessions", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn chirp-serve");
    let mut line = String::new();
    let stdout = server.stdout.take().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut line).expect("read the listening line");
    let addr = line.trim().rsplit(' ').next().expect("address").to_string();
    // A reply proves the held session's thread is running and counted.
    let mut held = Client::connect(addr.parse().expect("socket address")).expect("connect");
    held.ping().expect("the first session is served");

    let (code, stderr) = run(CLIENT, &["ping", "--addr", &addr]);
    let _ = server.kill();
    let _ = server.wait();
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("cap of 1"), "{stderr}");
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
