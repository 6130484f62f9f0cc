//! End-to-end CLI tests: build a scratch workspace in a temp directory,
//! run the `nimbus-audit` binary against it, and check exit codes,
//! rustc-style diagnostics, `--json` output, and wire-table desync.

use nimbus_audit::json::{self, Value};
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

/// Creates a minimal workspace the auditor fully understands: a manifest,
/// a serving crate with the wire fixture, a pricing crate, and an in-sync
/// DESIGN.md.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("nimbus-audit-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let server_src = root.join("crates/server/src");
    let optim_src = root.join("crates/optim/src");
    fs::create_dir_all(&server_src).expect("mkdir scratch workspace");
    fs::create_dir_all(&optim_src).expect("mkdir scratch workspace");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = []\nresolver = \"2\"\n",
    )
    .expect("write Cargo.toml");
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_sync");
    fs::copy(fixtures.join("wire.rs"), server_src.join("wire.rs")).expect("copy wire fixture");
    fs::copy(fixtures.join("DESIGN_ok.md"), root.join("DESIGN.md")).expect("copy design fixture");
    fs::write(optim_src.join("pricer.rs"), CLEAN_PRICER).expect("write pricer");
    root
}

fn run_audit(root: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nimbus-audit"));
    cmd.arg("check").arg("--root").arg(root);
    cmd.args(extra);
    cmd.output().expect("spawn nimbus-audit")
}

#[test]
fn clean_workspace_exits_zero_then_violation_fails() {
    let root = scratch_workspace("clean-dirty");

    let out = run_audit(&root, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("0 finding(s)"), "stderr: {stderr}");

    // Introduce an exact float comparison in pricing code: exit flips to 1
    // with a rustc-style diagnostic pointing at the exact location.
    fs::write(root.join("crates/optim/src/pricer.rs"), EXACT_PRICER).expect("write pricer");
    let out = run_audit(&root, &[]);
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
fn json_mode_emits_parseable_findings() {
    let root = scratch_workspace("json");
    fs::write(root.join("crates/optim/src/pricer.rs"), EXACT_PRICER).expect("write pricer");

    let out = run_audit(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = json::parse(stdout.trim()).expect("--json output must parse");
    assert_eq!(parsed.get("count").and_then(Value::as_u64), Some(1));
    let arr = parsed
        .get("findings")
        .and_then(Value::as_arr)
        .expect("array");
    assert_eq!(arr[0].get("rule").and_then(Value::as_str), Some("float-eq"));
    assert_eq!(
        arr[0].get("file").and_then(Value::as_str),
        Some("crates/optim/src/pricer.rs")
    );
    assert_eq!(arr[0].get("line").and_then(Value::as_u64), Some(2));

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn desynced_design_opcode_fails_wire_sync() {
    let root = scratch_workspace("desync");

    // Flip QUOTE's documented opcode from 0x02 to 0x09.
    let design = root.join("DESIGN.md");
    let md = fs::read_to_string(&design).expect("read DESIGN.md");
    assert!(md.contains("`0x02`"));
    fs::write(&design, md.replace("`0x02`", "`0x09`")).expect("write DESIGN.md");

    let out = run_audit(&root, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error[nimbus-audit::wire-sync]"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("`QUOTE` drifted") && stderr.contains("0x9"),
        "stderr: {stderr}"
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_nimbus-audit"))
        .arg("--bogus")
        .output()
        .expect("spawn nimbus-audit");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
