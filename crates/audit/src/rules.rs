//! The domain-invariant rules and their scopes.
//!
//! | rule | scope | invariant |
//! |---|---|---|
//! | `float-eq` | pricing code (`core`, `optim`), non-test | no `==`/`!=` against float literals (menus are grids, compare with tolerances) |
//! | `wire-sync` | `wire.rs`/`error.rs` vs `DESIGN.md` | opcode and error-code tables cannot drift from the documented protocol |
//! | `lock-order` | `market` + `server`, non-test | no lock-acquisition cycles; no lock held across an fsync ([`crate::lockgraph`]) |
//! | `durability-order` | `broker.rs` commit paths | charge → append → record, refund on failure, claims resolved ([`crate::protocol`]) |
//! | `money-safety` | `market` + `server`, non-test | no unguarded f64 money arithmetic: int casts, exact equality, unchecked accumulation |
//!
//! Scopes are path prefixes relative to the workspace root. `float-eq`
//! and `wire-sync` are token matchers — see [`crate::lexer`] for what
//! keeps them honest; the last three run on the parsed AST
//! ([`crate::parse`]) with per-function dataflow facts ([`crate::facts`]).
//!
//! Determinism, panic-freedom and `unsafe` documentation are clippy lints
//! (`crates/clippy.toml`, the root `Cargo.toml` `[workspace.lints]`, and
//! `deny` attributes on the scoped modules), checked by `cargo clippy
//! --workspace --all-targets -- -D warnings`.

use crate::facts::{fn_facts, is_money_ident};
use crate::lexer::{Token, TokenKind};
use crate::parse::parse_file;
use crate::suppress;
use crate::testmap::TestMap;
use crate::Finding;

/// All rule names, for suppression validation and `--help`.
pub const RULE_NAMES: &[&str] = &[
    "float-eq",
    "wire-sync",
    "lock-order",
    "durability-order",
    "money-safety",
    "suppression",
];

/// Pricing code under float discipline.
pub const FLOAT_SCOPE_PREFIXES: &[&str] = &["crates/core/src/", "crates/optim/src/"];

/// Money-handling code: everything that touches budgets, prices, or
/// revenue between the wire and the journal.
pub const MONEY_SCOPE_PREFIXES: &[&str] = &["crates/market/src/", "crates/server/src/"];

/// Integer types a money value must never be `as`-cast into (truncation
/// and NaN-to-zero are both silent).
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Runs every token-level rule over one file. `path` is workspace-relative
/// with `/` separators; it selects which rules apply. Returns unsuppressed
/// findings plus the number of suppressions that actually fired.
pub fn check_file(path: &str, src: &str) -> (Vec<Finding>, usize) {
    let tokens = crate::lexer::lex(src);
    let test_map =
        if path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/") {
            TestMap::whole_file()
        } else {
            TestMap::from_tokens(&tokens)
        };

    let mut findings = Vec::new();
    let suppressions = suppress::collect(&tokens, path, &mut findings);

    let mut raw = Vec::new();
    if in_scope(path, FLOAT_SCOPE_PREFIXES) {
        float_eq(path, &tokens, &test_map, &mut raw);
    }
    if in_scope(path, MONEY_SCOPE_PREFIXES) {
        money_safety(path, &tokens, &test_map, &mut raw);
    }
    if crate::protocol::in_scope(path) {
        let ast = parse_file(&tokens);
        crate::protocol::check(path, &ast, &test_map, &mut raw);
    }

    // One finding per (rule, line): `x == 0.0 || x == 1.0` compares twice
    // on one line but is one violation to fix.
    raw.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    let mut used = 0usize;
    for f in raw {
        if suppress::is_suppressed(&suppressions, &f.rule, f.line) {
            used += 1;
        } else {
            findings.push(f);
        }
    }
    attach_snippets(src, &mut findings);
    (findings, used)
}

/// Fills each finding's snippet from the source text.
pub fn attach_snippets(src: &str, findings: &mut [Finding]) {
    let lines: Vec<&str> = src.lines().collect();
    for f in findings {
        if f.snippet.is_empty() {
            if let Some(line) = lines.get(f.line as usize - 1) {
                f.snippet = line.to_string();
            }
        }
    }
}

/// Code tokens only (comments out), preserving order.
fn code(tokens: &[Token]) -> Vec<&Token> {
    tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect()
}

/// Rule `money-safety`: unguarded f64 arithmetic on money identifiers
/// (price/payment/budget/revenue/… names, plus `let` bindings tainted by
/// them — see [`crate::facts::is_money_ident`]). Three shapes:
///
/// 1. `money as u64` — an `as` cast to an integer type silently
///    truncates and maps NaN to zero, losing money;
/// 2. `money == x` / `money != x` — exact float equality on a money
///    value is either a bug or needs the exactness argument;
/// 3. `… += money` — accumulating money in a function with no
///    `is_finite`/`is_nan` check lets one NaN poison the running total.
///
/// A function that checks finiteness anywhere is a designated validation
/// site for accumulation; casts and equality are flagged regardless.
fn money_safety(path: &str, tokens: &[Token], tests: &TestMap, out: &mut Vec<Finding>) {
    let ast = parse_file(tokens);
    for f in &ast.fns {
        if tests.is_test_line(f.line) {
            continue;
        }
        let facts = fn_facts(&ast, f);
        let code = &ast.code;
        let money = |name: &str| is_money_ident(name) || facts.tainted.contains(name);
        let money_tok = |t: &Token| t.kind == TokenKind::Ident && money(&t.text);
        for i in f.body.0 + 1..f.body.1 {
            let t = &code[i];
            if tests.is_test_line(t.line) {
                continue;
            }
            // 1. `money as <int>`.
            if t.kind == TokenKind::Ident && t.text == "as" && i > 0 {
                let prev = &code[i - 1];
                let to_int = code
                    .get(i + 1)
                    .is_some_and(|n| INT_TYPES.contains(&n.text.as_str()));
                if money_tok(prev) && to_int {
                    out.push(Finding::new(
                        "money-safety",
                        path,
                        t.line,
                        t.col,
                        format!(
                            "`{} as {}` casts a money value to an integer — truncation and NaN→0 are silent; round explicitly and validate first",
                            prev.text,
                            code[i + 1].text
                        ),
                    ));
                }
            }
            // 2. `money ==` / `== money`.
            if t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
                let neighbor = [i.checked_sub(1), Some(i + 1)]
                    .into_iter()
                    .flatten()
                    .filter_map(|j| code.get(j))
                    .find(|n| money_tok(n));
                if let Some(n) = neighbor {
                    out.push(Finding::new(
                        "money-safety",
                        path,
                        t.line,
                        t.col,
                        format!(
                            "exact float `{}` on money value `{}` — compare with a tolerance, or suppress with the exactness argument",
                            t.text, n.text
                        ),
                    ));
                }
            }
            // 3. `lhs += money-rhs` or `money-lhs += …` without a
            //    finiteness check anywhere in the function.
            if t.kind == TokenKind::Punct && t.text == "+=" && !facts.checks_finiteness {
                let mut money_name = None;
                // LHS: walk back over the place expression.
                let mut j = i;
                while let Some(prev) = j.checked_sub(1) {
                    let p = &code[prev];
                    match (p.kind, p.text.as_str()) {
                        (TokenKind::Ident, name) => {
                            if money(name) {
                                money_name = Some(name.to_string());
                            }
                            j = prev;
                        }
                        (TokenKind::Punct, "." | "::" | "*" | "&") => j = prev,
                        (TokenKind::Punct, ")" | "]") => {
                            let closer = p.text.clone();
                            let opener = if closer == ")" { "(" } else { "[" };
                            let mut depth = 0i32;
                            let mut b = prev;
                            loop {
                                let bt = &code[b];
                                if bt.kind == TokenKind::Punct {
                                    if bt.text == closer {
                                        depth += 1;
                                    } else if bt.text == opener {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                } else if money_tok(bt) {
                                    money_name = Some(bt.text.clone());
                                }
                                match b.checked_sub(1) {
                                    Some(n2) => b = n2,
                                    None => break,
                                }
                            }
                            j = b;
                        }
                        _ => break,
                    }
                }
                // RHS up to the statement `;`: a money source makes an
                // int-counter LHS flagged too (`total += price`).
                if money_name.is_none() {
                    let mut k2 = i + 1;
                    let mut depth = 0i32;
                    while let Some(n) = code.get(k2) {
                        if n.kind == TokenKind::Punct {
                            match n.text.as_str() {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                ";" if depth <= 0 => break,
                                _ => {}
                            }
                        } else if money_tok(n) && code.get(k2 + 1).is_none_or(|x| x.text != "(") {
                            // A field access decides by the field, not
                            // the (possibly tainted) base: `row.sales`
                            // accumulates a count even when `row` also
                            // carries revenue.
                            let field_access = code.get(k2 + 1).is_some_and(|x| x.text == ".")
                                && code.get(k2 + 2).is_some_and(|x| x.kind == TokenKind::Ident);
                            if !field_access {
                                money_name = Some(n.text.clone());
                            }
                        }
                        if k2 >= f.body.1 {
                            break;
                        }
                        k2 += 1;
                    }
                }
                if let Some(name) = money_name {
                    out.push(Finding::new(
                        "money-safety",
                        path,
                        t.line,
                        t.col,
                        format!(
                            "accumulation of money value `{name}` with no finiteness check in the function — one NaN poisons the running total; guard with `is_finite` or suppress with the upstream-validation argument",
                        ),
                    ));
                }
            }
        }
    }
}

/// Rule `float-eq`: `==` or `!=` with a float literal on either side in
/// pricing code. Prices and errors live on interpolated grids — exact
/// equality is either a bug or needs a documented suppression.
fn float_eq(path: &str, tokens: &[Token], tests: &TestMap, out: &mut Vec<Finding>) {
    let code = code(tokens);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if tests.is_test_line(t.line) {
            continue;
        }
        let float_neighbor = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|j| code.get(j))
            .any(|n| n.kind == TokenKind::Float);
        if float_neighbor {
            out.push(Finding::new(
                "float-eq",
                path,
                t.line,
                t.col,
                format!(
                    "float `{}` comparison in pricing code: compare with a tolerance, or suppress with the exactness argument",
                    t.text
                ),
            ));
        }
    }
}
