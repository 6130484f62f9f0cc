//! The gate: the real Nimbus workspace must audit clean. Every violation
//! is either fixed or carries a reasoned inline suppression — this test
//! is what keeps that true going forward.

use nimbus_audit::audit_workspace;
use std::path::PathBuf;

#[test]
fn real_workspace_has_zero_unsuppressed_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = audit_workspace(&root).expect("audit run");
    assert!(
        report.files_scanned > 20,
        "walk found the workspace sources"
    );
    if !report.is_clean() {
        let mut rendered = String::new();
        for f in &report.findings {
            rendered.push_str(&f.render());
            rendered.push('\n');
        }
        panic!(
            "workspace audit found {} violation(s):\n{rendered}",
            report.findings.len()
        );
    }
    // The tree is clean *with reasons*: the dataflow rules (lock-order,
    // money-safety) cover real sites that are sound by design and carry
    // reasoned suppressions — if this floor drops, suppressions were
    // deleted without restructuring the code they justified.
    assert!(
        report.suppressions_used >= 24,
        "expected ≥ 24 reasoned suppressions honored, got {}",
        report.suppressions_used
    );
}
