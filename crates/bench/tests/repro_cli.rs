//! `repro` argument errors: every bad flag or value prints a message
//! and exits 2, never a panic backtrace.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 8] = [
        &["--table", "abc"],
        &["--figure"],
        &["--workers", "0"],
        &["--workers", "-3"],
        &["--scale"],
        &["--scale", "0"],
        &["--bogus"],
        &["--write"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("repro: "), "{args:?}: {stderr}");
    }
}
