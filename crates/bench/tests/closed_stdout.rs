//! `reproduce_all` with its stdout reader gone: the printing stops, the
//! run does not panic, and the exit status is the run's verdict.

use std::process::{Command, Stdio};

/// Runs `reproduce_all args…` with stdout on a pipe whose reader is
/// already closed; returns the exit code and stderr.
fn run_into_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("reproduce_all runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_stops_printing_without_a_panic() {
    for args in [&["--list"][..], &["--threads", "1", "table2"]] {
        let (code, stderr) = run_into_closed_pipe(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
        // Both runs agree (table2 has no verdict column), so status 0.
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn a_usage_error_keeps_its_status_with_a_closed_stdout() {
    let (code, stderr) = run_into_closed_pipe(&["--no-such-flag"]);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn a_failed_run_keeps_status_1_with_a_closed_stdout() {
    // Cell 0 panics on both attempts, so the sweep fails. The injected
    // panic prints its own message; the pipe must add none.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(["--threads", "1", "table2"])
        .env("POLLUX_FAULT", "panic-cell=0@1,panic-cell=0@2")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("reproduce_all runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("failed printing"), "{stderr}");
    assert!(stderr.contains("sweep failed"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}
