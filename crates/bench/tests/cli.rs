//! The sweep binaries answer bad command lines with usage, never a panic:
//! `--help` prints usage and exits 0; an unknown flag, a missing value, or a
//! malformed value prints usage to stderr and exits 2.

use std::process::{Command, Output};

const BINS: [&str; 3] = [
    env!("CARGO_BIN_EXE_scale_sweep"),
    env!("CARGO_BIN_EXE_fault_sweep"),
    env!("CARGO_BIN_EXE_trace_export"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary")
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in BINS {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage:"),
            "{bin}"
        );
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    for bin in BINS {
        assert_usage_error(bin, &["--no-such-flag"]);
    }
}

#[test]
fn missing_values_are_usage_errors() {
    for bin in BINS {
        assert_usage_error(bin, &["--points"]);
    }
}

#[test]
fn malformed_values_are_usage_errors() {
    for bin in BINS {
        assert_usage_error(bin, &["--points", "1,x"]);
    }
    assert_usage_error(BINS[0], &["--workload", "tpch"]);
    assert_usage_error(BINS[0], &["--templates", "maybe"]);
    assert_usage_error(BINS[1], &["--matrix", "--partitions"]);
    assert_usage_error(BINS[2], &["--engine", "flink"]);
}
