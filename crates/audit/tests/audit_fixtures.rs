//! Fixture-corpus tests: every rule's hit / miss / suppression cases and
//! the lexer's resynchronization.
//!
//! Fixtures live under `tests/fixtures/<rule>/`. They are checked through
//! [`nimbus_audit::rules::check_file`] with pseudo-paths that put them in
//! the rule's scope (the real workspace walk skips `fixtures/`
//! directories, so the deliberate violations never pollute the gate).

use nimbus_audit::rules::check_file;
use nimbus_audit::Finding;
use std::fs;
use std::path::PathBuf;

fn fixture(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lines on which findings of `rule` were reported.
fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- float-eq

#[test]
fn float_eq_hit_flags_literal_comparisons() {
    let (findings, used) = check_file("crates/optim/src/fixture.rs", &fixture("float_eq/hit.rs"));
    assert_eq!(used, 0);
    assert_eq!(lines_of(&findings, "float-eq"), vec![3, 6, 9, 10]);
    assert_eq!(findings.len(), 4, "{findings:#?}");
    // Findings carry their source line for the caret rendering.
    assert!(findings.iter().all(|f| !f.snippet.is_empty()));
}

#[test]
fn float_eq_miss_is_clean() {
    let (findings, used) = check_file("crates/optim/src/fixture.rs", &fixture("float_eq/miss.rs"));
    assert_eq!(used, 0);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_eq_suppression_with_reason_is_honored() {
    let (findings, used) = check_file(
        "crates/optim/src/fixture.rs",
        &fixture("float_eq/suppressed.rs"),
    );
    assert_eq!(used, 1);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_eq_out_of_scope_path_is_clean() {
    // The same violating source outside pricing code produces nothing.
    let (findings, _) = check_file("crates/market/src/fixture.rs", &fixture("float_eq/hit.rs"));
    assert!(lines_of(&findings, "float-eq").is_empty(), "{findings:#?}");
}

#[test]
fn float_eq_suppressions_and_reasonless_rejection() {
    let (findings, used) = check_file(
        "crates/optim/src/fixture.rs",
        &fixture("float_eq/suppression_forms.rs"),
    );
    // Two reasoned suppressions (line-above and same-line forms) fired.
    assert_eq!(used, 2);
    // The reasonless suppression on line 10 silences nothing: it is itself
    // a finding, and the comparison below it still fires.
    assert_eq!(lines_of(&findings, "suppression"), vec![10]);
    assert_eq!(lines_of(&findings, "float-eq"), vec![11]);
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

// ------------------------------------------------------------------- lexer

#[test]
fn lexer_edge_cases_yield_exactly_the_one_real_violation() {
    // The fixture buries float comparisons in raw strings (1 and 2 hashes),
    // byte strings, raw byte strings, nested block comments, char escapes,
    // and `//`-in-string traps — then commits one real `== 1.0`. Finding
    // exactly that one proves the lexer resynchronizes after every trick.
    let (findings, used) = check_file(
        "crates/optim/src/fixture.rs",
        &fixture("lexer/edge_cases.rs"),
    );
    assert_eq!(used, 0);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "float-eq");
    assert_eq!(findings[0].line, 20);
    assert!(findings[0].snippet.contains("REAL-VIOLATION-LINE"));
}

// ------------------------------------------------------------- lock-order

#[test]
fn lock_order_hit_flags_inversion_and_lock_across_fsync() {
    let src = fixture("lock_order/hit.rs");
    let (findings, used) =
        nimbus_audit::lockgraph::check_files(&[("crates/market/src/fixture.rs", &src)]);
    assert_eq!(used, 0);
    assert!(findings.iter().all(|f| f.rule == "lock-order"));
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    // The A→B / B→A inversion between the two commit paths.
    assert!(
        msgs.iter().any(|m| m.contains("lock-acquisition cycle")
            && m.contains("Ledger.stripes")
            && m.contains("Accounts.spent")),
        "{msgs:?}"
    );
    // The guard held across `append_sale`.
    assert!(
        msgs.iter()
            .any(|m| m.contains("held across durability call `append_sale`")
                && m.contains("flush_holding_lock")),
        "{msgs:?}"
    );
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| !f.snippet.is_empty()));
}

#[test]
fn lock_order_miss_is_clean() {
    let src = fixture("lock_order/miss.rs");
    let (findings, used) =
        nimbus_audit::lockgraph::check_files(&[("crates/market/src/fixture.rs", &src)]);
    assert_eq!(used, 0);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_order_suppression_fires() {
    let src = fixture("lock_order/suppressed.rs");
    let (findings, used) =
        nimbus_audit::lockgraph::check_files(&[("crates/market/src/fixture.rs", &src)]);
    assert_eq!(used, 1);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_order_resolves_bare_drop_to_the_prelude() {
    let src = fixture("lock_order/drop_guard.rs");
    let (findings, used) =
        nimbus_audit::lockgraph::check_files(&[("crates/market/src/fixture.rs", &src)]);
    assert_eq!(used, 0);
    // Only the re-lock through `queued()` under a live guard is flagged;
    // neither `drop(shared)` reaches `Ticket`'s `fn drop`.
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let msg = &findings[0].message;
    assert!(
        msg.contains("self-deadlock")
            && msg.contains("Queue.shared")
            && msg.contains("push_while_counting"),
        "{msg}"
    );
}

// ------------------------------------------------------- durability-order

#[test]
fn durability_order_hit_flags_every_protocol_violation() {
    let (findings, used) = check_file(
        "crates/market/src/broker.rs",
        &fixture("durability_order/hit.rs"),
    );
    assert_eq!(used, 0);
    let msgs: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "durability-order")
        .map(|f| f.message.as_str())
        .collect();
    // Reordered commit: ledger record before the journal append.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`commit_reordered`") && m.contains("before the journal append")),
        "{msgs:?}"
    );
    // Budget charged after durability.
    assert!(
        msgs.iter().any(|m| m.contains("`commit_charge_late`")
            && m.contains("charges the buyer budget after the journal append")),
        "{msgs:?}"
    );
    // Charge + append with no refund edge.
    assert!(
        msgs.iter().any(|m| m.contains("`commit_charge_late`")
            && m.contains("no refund on the journal-failure edge")),
        "{msgs:?}"
    );
    // Claim never resolved on any arm.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`commit_leaky`") && m.contains("never resolves")),
        "{msgs:?}"
    );
    assert_eq!(msgs.len(), 4, "{findings:#?}");
}

#[test]
fn durability_order_flags_a_sale_handed_out_before_its_record() {
    // The failure arm's `resolve(key, None)` sits after the record, so a
    // check that any resolve follows the record passes; the success arm
    // still hands waiters a sale the ledger does not have yet.
    let (findings, used) = check_file(
        "crates/market/src/broker.rs",
        &fixture("durability_order/resolve_early.rs"),
    );
    assert_eq!(used, 0);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 13);
    assert!(
        findings[0].message.contains("`commit_batch_at`")
            && findings[0].message.contains("before recording the sale"),
        "{findings:#?}"
    );
}

#[test]
fn durability_order_miss_is_clean() {
    let (findings, used) = check_file(
        "crates/market/src/broker.rs",
        &fixture("durability_order/miss.rs"),
    );
    assert_eq!(used, 0);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn durability_order_suppression_fires() {
    let (findings, used) = check_file(
        "crates/market/src/broker.rs",
        &fixture("durability_order/suppressed.rs"),
    );
    assert_eq!(used, 1);
    assert!(findings.is_empty(), "{findings:#?}");
}

// ----------------------------------------------------------- money-safety

#[test]
fn money_safety_hit_flags_cast_equality_and_accumulation() {
    let (findings, used) = check_file(
        "crates/market/src/fixture.rs",
        &fixture("money_safety/hit.rs"),
    );
    assert_eq!(used, 0);
    assert_eq!(lines_of(&findings, "money-safety"), vec![5, 6, 9]);
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("`price as u64`")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("exact float `==`")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("accumulation of money value `price`")),
        "{msgs:?}"
    );
    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn money_safety_miss_is_clean() {
    // Finiteness-guarded accumulation and counter identifiers
    // (`n_price_points`, `budget_rejects`) stay unflagged.
    let (findings, used) = check_file(
        "crates/market/src/fixture.rs",
        &fixture("money_safety/miss.rs"),
    );
    assert_eq!(used, 0);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn money_safety_out_of_scope_path_is_clean() {
    let (findings, _) = check_file(
        "crates/optim/src/fixture.rs",
        &fixture("money_safety/hit.rs"),
    );
    assert!(
        lines_of(&findings, "money-safety").is_empty(),
        "{findings:#?}"
    );
}

#[test]
fn money_safety_suppression_fires() {
    let (findings, used) = check_file(
        "crates/market/src/fixture.rs",
        &fixture("money_safety/suppressed.rs"),
    );
    assert_eq!(used, 1);
    assert!(findings.is_empty(), "{findings:#?}");
}
