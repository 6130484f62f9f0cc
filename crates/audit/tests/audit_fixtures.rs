//! Fixture-corpus tests: every rule's hit / miss / suppression cases,
//! the lexer's resynchronization, the JSON round-trip, and wire-table
//! drift detection.
//!
//! Fixtures live under `tests/fixtures/<rule>/`. They are checked through
//! [`nimbus_audit::rules::check_file`] with pseudo-paths that put them in
//! the rule's scope (the real workspace walk skips `fixtures/`
//! directories, so the deliberate violations never pollute the gate).

use nimbus_audit::json::{self, Value};
use nimbus_audit::rules::check_file;
use nimbus_audit::wire_sync::check_wire_sync;
use nimbus_audit::{render_json, Finding};
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

// ------------------------------------------------------------------- JSON

#[test]
fn json_output_round_trips() {
    let (findings, _) = check_file("crates/optim/src/fixture.rs", &fixture("float_eq/hit.rs"));
    assert!(!findings.is_empty());
    let rendered = render_json(&findings);
    let parsed = json::parse(&rendered).expect("emitter output must parse");

    assert_eq!(
        parsed.get("count").and_then(Value::as_u64),
        Some(findings.len() as u64)
    );
    let arr = parsed
        .get("findings")
        .and_then(Value::as_arr)
        .expect("findings array");
    assert_eq!(arr.len(), findings.len());
    for (v, f) in arr.iter().zip(&findings) {
        assert_eq!(v.get("rule").and_then(Value::as_str), Some(f.rule.as_str()));
        assert_eq!(v.get("file").and_then(Value::as_str), Some(f.file.as_str()));
        assert_eq!(v.get("line").and_then(Value::as_u64), Some(f.line as u64));
        assert_eq!(v.get("col").and_then(Value::as_u64), Some(f.col as u64));
        assert_eq!(
            v.get("message").and_then(Value::as_str),
            Some(f.message.as_str())
        );
        assert_eq!(
            v.get("snippet").and_then(Value::as_str),
            Some(f.snippet.as_str())
        );
    }
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

// ------------------------------------------------------------- finding ids

#[test]
fn finding_ids_are_stable_and_occurrence_aware() {
    let (findings, _) = check_file("crates/optim/src/fixture.rs", &fixture("float_eq/hit.rs"));
    assert!(!findings.is_empty());
    // Deterministic: the same report renders byte-identically.
    assert_eq!(render_json(&findings), render_json(&findings));
    let parsed = json::parse(&render_json(&findings)).expect("parse");
    let arr = parsed.get("findings").and_then(Value::as_arr).unwrap();
    let ids: Vec<&str> = arr
        .iter()
        .map(|v| v.get("id").and_then(Value::as_str).unwrap())
        .collect();
    // Unique per finding, even for repeated identical violations.
    let unique: std::collections::BTreeSet<&&str> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "{ids:?}");
    // Doc anchors point into the rule reference.
    for v in arr {
        let doc = v.get("doc").and_then(Value::as_str).unwrap();
        let rule = v.get("rule").and_then(Value::as_str).unwrap();
        assert_eq!(doc, format!("crates/audit/RULES.md#{rule}"));
    }
    // Position-independent: shifting the finding down a line keeps its id.
    let mut shifted = findings.clone();
    for f in &mut shifted {
        f.line += 3;
    }
    let reparsed = json::parse(&render_json(&shifted)).expect("parse");
    let shifted_ids: Vec<String> = reparsed
        .get("findings")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.get("id").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(ids, shifted_ids);
}

// -------------------------------------------------------------- wire-sync

#[test]
fn wire_sync_in_sync_fixture_is_clean() {
    let wire = fixture("wire_sync/wire.rs");
    let ok = fixture("wire_sync/DESIGN_ok.md");
    let findings = check_wire_sync(&[("wire.rs", &wire)], ("DESIGN.md", &ok));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn wire_sync_drift_fixture_reports_every_divergence() {
    let wire = fixture("wire_sync/wire.rs");
    let drift = fixture("wire_sync/DESIGN_drift.md");
    let findings = check_wire_sync(&[("wire.rs", &wire)], ("DESIGN.md", &drift));
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();

    // 0x07 vs 0x02: value drift, anchored at the DESIGN.md row.
    let quote = findings
        .iter()
        .find(|f| f.message.contains("`QUOTE`"))
        .expect("drifted QUOTE reported");
    assert!(quote.message.contains("drifted"), "{msgs:?}");
    assert_eq!(quote.file, "DESIGN.md");

    // GHOST documented but absent from code.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`GHOST`") && m.contains("absent from the code")),
        "{msgs:?}"
    );
    // UnknownOpcode in code but dropped from the docs, anchored at source.
    let missing = findings
        .iter()
        .find(|f| f.message.contains("`UnknownOpcode`"))
        .expect("undocumented error code reported");
    assert!(missing.message.contains("not documented"), "{msgs:?}");
    assert_eq!(missing.file, "wire.rs");

    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn wire_sync_fenced_rows_are_ignored() {
    // DESIGN_ok.md carries a decoy `0x99 | INSIDE_FENCE` row inside a
    // ```-fence; if table parsing ever reads through fences, that row
    // becomes a spurious "absent from the code" finding.
    let wire = fixture("wire_sync/wire.rs");
    let ok = fixture("wire_sync/DESIGN_ok.md");
    let findings = check_wire_sync(&[("wire.rs", &wire)], ("DESIGN.md", &ok));
    assert!(
        findings.iter().all(|f| !f.message.contains("INSIDE_FENCE")),
        "{findings:#?}"
    );
}
