//! Flag validation of the bench binaries: a malformed value is a usage
//! error, never a silent fall-back to the default.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must fail; stderr: {stderr}"
    );
    assert!(stderr.contains(flag), "stderr names {flag}: {stderr}");
    assert!(stderr.contains("usage:"), "stderr prints usage: {stderr}");
}

#[test]
fn verify_golden_rejects_a_malformed_rtol() {
    let bin = env!("CARGO_BIN_EXE_verify_golden");
    for bad in ["abc", "-1e-6", "nan"] {
        rejects(bin, &["--rtol", bad], "--rtol");
    }
}

#[test]
fn experiments_rejects_a_malformed_surface_n() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    for bad in ["abc", "1"] {
        rejects(bin, &["--fast", "--surface-n", bad], "--surface-n");
    }
}
