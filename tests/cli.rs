//! The `fbdetect` binary rejects malformed arguments instead of silently
//! scanning at defaults.

use std::process::Command;

/// Runs the CLI and returns (exit success, stderr).
fn fbdetect(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fbdetect"))
        .args(args)
        .output()
        .expect("fbdetect binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unparsable_value_is_an_error_not_the_default() {
    let (ok, stderr) = fbdetect(&["scan", "in=/nonexistent.tsdb", "threshold=abc"]);
    assert!(!ok);
    assert!(stderr.contains("bad threshold=abc"), "{stderr}");
    let (ok, stderr) = fbdetect(&["simulate", "out=/nonexistent/s.tsdb", "hours=1.5"]);
    assert!(!ok);
    assert!(stderr.contains("bad hours=1.5"), "{stderr}");
}

#[test]
fn argument_without_equals_is_rejected() {
    let (ok, stderr) = fbdetect(&["scan", "in=/nonexistent.tsdb", "relative"]);
    assert!(!ok);
    assert!(stderr.contains("bad argument relative"), "{stderr}");
}
