//! Rule `durability-order`: the commit protocol as a checked state machine.
//!
//! The broker's money-durability contract (DESIGN.md §Static analysis &
//! invariants) is:
//!
//! ```text
//!   charge(budget) ──► journal append (fsync) ──► dedup resolve ──► ACK
//!        │                    │
//!        │                    └─ journal failure ──► refund(budget)
//!        └─ insufficient budget ──► reject (no journal write)
//! ```
//!
//! This pass classifies every call site in `broker.rs` into protocol
//! events, folds called local functions' events into their callers
//! (fixpoint over the file's call graph, events inheriting the call
//! site's position), and then checks each `commit*` entry point's event
//! sequence:
//!
//! - **C1** no budget charge after the journal append — money must be
//!   reserved before bytes are durable, or a crash double-spends.
//! - **C2** an append must be followed by a ledger `record_*`; recording
//!   before the append would ACK a sale the journal never saw.
//! - **C3** a path that charges and appends must carry a refund edge
//!   (the journal-failure arm) at/after the append.
//! - **C4** no dedup claim after the append — claims gate duplicate
//!   work, so they precede durability.
//! - **C5** a dedup resolution that hands waiters a sale (any argument
//!   but a bare `None`) happens at/after a ledger record — published
//!   before the record, it hands waiters an unrecorded sale. Unfulfilled
//!   resolutions (the journal-failure arm) may come anywhere.
//! - **C6** a claim with no resolution on any arm leaks the claim and
//!   wedges every duplicate submitter forever.
//!
//! Positions compare with ≤/≥ so a pure delegating wrapper — all events
//! inherited at one call site — trivially satisfies the ordering.

use crate::facts::{fn_facts, CallSite, FnFacts};
use crate::lexer::Token;
use crate::parse::FileAst;
use crate::testmap::TestMap;
use crate::Finding;
use std::collections::BTreeMap;

/// Files subject to the durability-order rule.
pub fn in_scope(path: &str) -> bool {
    path.ends_with("market/src/broker.rs") || path.contains("durability_order")
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Event {
    Charge,
    Refund,
    Claim,
    /// A resolution that hands waiters no sale: `resolve(key, None)`.
    Resolve,
    /// A resolution that hands waiters a sale.
    Fulfill,
    Append,
    Record,
}

/// Classify a direct call site into a protocol event, if any.
fn classify(code: &[Token], call: &CallSite) -> Option<Event> {
    let chain_has = |needle: &str| call.chain.iter().any(|s| s.contains(needle));
    let m = call.method.as_str();
    if (m.starts_with("charge") || m.starts_with("try_charge")) && chain_has("account") {
        return Some(Event::Charge);
    }
    if m.starts_with("refund") && chain_has("account") {
        return Some(Event::Refund);
    }
    if m.starts_with("claim") && chain_has("dedup") {
        return Some(Event::Claim);
    }
    if m.starts_with("resolve") && chain_has("dedup") {
        return Some(if last_arg_is_none(code, call.idx) {
            Event::Resolve
        } else {
            Event::Fulfill
        });
    }
    if (m == "append_sale" || m == "append_sales") && chain_has("journal") {
        return Some(Event::Append);
    }
    if m == "record_prepared" || m == "record_assigned" {
        return Some(Event::Record);
    }
    None
}

/// Whether the call whose name sits at `code[idx]` passes a bare `None`
/// as its last argument.
fn last_arg_is_none(code: &[Token], idx: usize) -> bool {
    let mut depth = 0usize;
    for k in idx + 1..code.len() {
        match code[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return code[k - 1].text == "None"
                        && matches!(code[k - 2].text.as_str(), "," | "(");
                }
            }
            _ => {}
        }
    }
    false
}

/// Run the durability-order rule over one parsed file. Findings are
/// unfiltered — the caller applies suppressions.
pub fn check(path: &str, ast: &FileAst, tests: &TestMap, out: &mut Vec<Finding>) {
    if !in_scope(path) {
        return;
    }
    let facts: Vec<FnFacts> = ast.fns.iter().map(|f| fn_facts(ast, f)).collect();

    // Direct events per function, positioned at the call token index.
    let mut events: Vec<Vec<(Event, usize, u32, u32)>> = ast
        .fns
        .iter()
        .zip(&facts)
        .map(|(_, ff)| {
            ff.calls
                .iter()
                .filter_map(|c| classify(&ast.code, c).map(|e| (e, c.idx, c.line, c.col)))
                .collect()
        })
        .collect();

    // Fixpoint: fold callee summaries into callers. A call to a local
    // fn that (transitively) performs events contributes those events at
    // the call site's own position — ordering inside the callee is the
    // callee's responsibility, checked when the callee is itself a root
    // or folded transparently here for wrappers.
    let by_name: BTreeMap<&str, Vec<usize>> = {
        let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in ast.fns.iter().enumerate() {
            m.entry(f.name.as_str()).or_default().push(i);
        }
        m
    };
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 16 {
        changed = false;
        rounds += 1;
        for i in 0..ast.fns.len() {
            let mut add = Vec::new();
            for c in &facts[i].calls {
                // Bare-name resolution is only sound for `self.method()`
                // and free calls (see `lockgraph`): `prepare.events.len()`
                // must not fold a local `len`'s summary in.
                if !(c.chain.is_empty() || c.chain == ["self"]) {
                    continue;
                }
                let Some(callees) = by_name.get(c.method.as_str()) else {
                    continue;
                };
                for &j in callees {
                    if j == i {
                        continue;
                    }
                    for (e, _, _, _) in events[j].clone() {
                        if !events[i]
                            .iter()
                            .chain(add.iter())
                            .any(|(e2, idx2, _, _)| *e2 == e && *idx2 == c.idx)
                        {
                            add.push((e, c.idx, c.line, c.col));
                        }
                    }
                }
            }
            if !add.is_empty() {
                events[i].extend(add);
                changed = true;
            }
        }
    }

    // Check every commit* entry point.
    for (i, f) in ast.fns.iter().enumerate() {
        if !f.name.starts_with("commit") || tests.is_test_line(f.line) {
            continue;
        }
        let evs = &events[i];
        if evs.is_empty() {
            continue;
        }
        let pos = |e: Event| -> Vec<usize> {
            evs.iter()
                .filter(|(k, ..)| *k == e)
                .map(|(_, idx, ..)| *idx)
                .collect()
        };
        let at = |e: Event, idx: usize| -> (u32, u32) {
            evs.iter()
                .find(|(k, i2, ..)| *k == e && *i2 == idx)
                .map(|(_, _, l, c)| (*l, *c))
                .unwrap_or((f.line, 1))
        };
        let name = &f.name;
        let appends = pos(Event::Append);
        let first_append = appends.iter().min().copied();

        if let Some(ap) = first_append {
            // C1: charge strictly after the append.
            for &ch in pos(Event::Charge).iter().filter(|&&ch| ch > ap) {
                let (l, c) = at(Event::Charge, ch);
                out.push(Finding::new("durability-order", path, l, c, format!(
                    "`{name}` charges the buyer budget after the journal append — budget must be reserved before bytes are durable (charge → append → refund-on-failure)"
                )));
            }
            // C2: an append must be followed by a ledger record; a
            // record strictly before the append ACKs an unjournaled sale.
            let records = pos(Event::Record);
            if records.is_empty() {
                let (l, c) = at(Event::Append, ap);
                out.push(Finding::new("durability-order", path, l, c, format!(
                    "`{name}` journals a sale but never records it in the ledger — the commit path must end in `record_prepared`/`record_assigned` after the append"
                )));
            }
            for &r in records.iter().filter(|&&r| r < ap) {
                let (l, c) = at(Event::Record, r);
                out.push(Finding::new("durability-order", path, l, c, format!(
                    "`{name}` records the sale in the ledger before the journal append — a crash between record and append ACKs a sale the journal never saw"
                )));
            }
            // C3: charge + append ⇒ refund edge at/after the append.
            if !pos(Event::Charge).is_empty() && !pos(Event::Refund).iter().any(|&r| r >= ap) {
                let (l, c) = at(Event::Append, ap);
                out.push(Finding::new("durability-order", path, l, c, format!(
                    "`{name}` charges the budget and journals, but has no refund on the journal-failure edge — a failed append permanently eats the buyer's money"
                )));
            }
            // C4: dedup claim strictly after the append.
            for &cl in pos(Event::Claim).iter().filter(|&&cl| cl > ap) {
                let (l, c) = at(Event::Claim, cl);
                out.push(Finding::new("durability-order", path, l, c, format!(
                    "`{name}` claims the dedup slot after the journal append — duplicates must be fenced before durable work, not after"
                )));
            }
        }
        // C5: a resolve that hands waiters a sale must not precede the
        // ledger record.
        let first_record = pos(Event::Record).into_iter().min();
        let fulfills = pos(Event::Fulfill);
        for &r in fulfills
            .iter()
            .filter(|&&r| first_record.is_none_or(|rec| r < rec))
        {
            let (l, c) = at(Event::Fulfill, r);
            out.push(Finding::new("durability-order", path, l, c, format!(
                "`{name}` resolves the dedup claim before recording the sale — waiters observe a sale the ledger doesn't have yet"
            )));
        }
        // C6: claim without any resolution wedges duplicate submitters.
        if !pos(Event::Claim).is_empty() && fulfills.is_empty() && pos(Event::Resolve).is_empty() {
            let &cl = pos(Event::Claim).iter().min().unwrap();
            let (l, c) = at(Event::Claim, cl);
            out.push(Finding::new("durability-order", path, l, c, format!(
                "`{name}` claims a dedup slot but never resolves it on any arm — duplicate submitters park on the condvar forever"
            )));
        }
    }
}
