//! The bench binaries answer a command line they cannot run with their
//! usage on stderr and exit status 2, never with a panic.

use std::process::Command;

/// Runs `exe` with `args` and checks the usage-error answer.
fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.contains("usage"), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
}

#[test]
fn runspeck_prints_its_usage_on_a_bad_command_line() {
    let exe = env!("CARGO_BIN_EXE_runspeck");
    assert_usage_error(exe, &["--help"]);
    assert_usage_error(exe, &["--bogus-flag"]);
    assert_usage_error(exe, &["--synthetic", "bogus", "1"]);
}

#[test]
fn bench_throughput_prints_its_usage_on_a_bad_command_line() {
    let exe = env!("CARGO_BIN_EXE_bench_throughput");
    assert_usage_error(exe, &["--help"]);
    assert_usage_error(exe, &["--bogus-flag"]);
}
