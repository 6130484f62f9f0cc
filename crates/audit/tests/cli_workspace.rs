//! End-to-end CLI tests: build a scratch workspace in a temp directory,
//! run the `nimbus-audit` binary against it, and check exit codes,
//! rustc-style diagnostics and usage errors.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CLEAN_PRICER: &str = "\
pub fn is_free(price: f64) -> bool {
    price.abs() < 1e-12
}
";

const EXACT_PRICER: &str = "\
pub fn is_free(price: f64) -> bool {
    price == 0.0
}
";

/// Creates a minimal workspace the auditor fully understands: a manifest
/// and a pricing crate.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("nimbus-audit-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let optim_src = root.join("crates/optim/src");
    fs::create_dir_all(&optim_src).expect("mkdir scratch workspace");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = []\nresolver = \"2\"\n",
    )
    .expect("write Cargo.toml");
    fs::write(optim_src.join("pricer.rs"), CLEAN_PRICER).expect("write pricer");
    root
}

fn run_audit(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nimbus-audit"))
        .arg("check")
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn nimbus-audit")
}

#[test]
fn clean_workspace_exits_zero_then_violation_fails() {
    let root = scratch_workspace("clean-dirty");

    let out = run_audit(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("0 finding(s)"), "stderr: {stderr}");

    // Introduce an exact float comparison in pricing code: exit flips to 1
    // with a rustc-style diagnostic pointing at the exact location.
    fs::write(root.join("crates/optim/src/pricer.rs"), EXACT_PRICER).expect("write pricer");
    let out = run_audit(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error[nimbus-audit::float-eq]"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("--> crates/optim/src/pricer.rs:2:11"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("price == 0.0"), "stderr: {stderr}");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn usage_errors_exit_two() {
    // A script that still passes an output or filter flag must fail
    // loudly, not get a differently shaped report.
    for args in [
        &["--bogus"][..],
        &["check", "--json"],
        &["check", "--diff", "main"],
        &["check", "--bench-json", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nimbus-audit"))
            .args(args)
            .output()
            .expect("spawn nimbus-audit");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("USAGE"),
            "{args:?}"
        );
    }
}
