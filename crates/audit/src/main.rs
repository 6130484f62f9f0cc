//! CLI for the workspace invariant linter.
//!
//! ```text
//! nimbus-audit check [--root DIR]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use nimbus_audit::{audit_workspace, find_root};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
nimbus-audit — workspace invariant linter for the Nimbus serving path

USAGE:
    nimbus-audit check [--root DIR]

OPTIONS:
    --root DIR          workspace root (default: walk up from the cwd)

RULES:
    float-eq          no ==/!= against float literals in pricing code
    lock-order        no lock-acquisition cycles; no lock held across fsync
    durability-order  commit paths follow charge -> append -> record, with
                      refund on journal failure and dedup claims resolved
    money-safety      no unguarded f64 money arithmetic (int casts, exact
                      equality, accumulation without finiteness checks)

Rule reference: crates/audit/RULES.md

Determinism, panic-freedom and unsafe documentation are clippy lints:
    cargo clippy --workspace --all-targets -- -D warnings
Default levels: [workspace.lints.clippy] in the root Cargo.toml. The
determinism lists: crates/clippy.toml. Scopes: `deny` attributes on the
scoped modules and crate roots (DESIGN.md, Static analysis). The
DESIGN.md protocol tables are checked by a unit test in
crates/server/src/wire.rs.

SUPPRESSION (reason mandatory):
    // nimbus-audit: allow(rule-name) — why this is sound
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory argument\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "check" if !check => check = true,
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !check {
        eprintln!("error: expected the `check` subcommand\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(r) => r,
        None => {
            eprintln!("error: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: audit failed: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        eprint!("{}", f.render());
        eprintln!();
    }
    eprintln!(
        "nimbus-audit: {} file(s) scanned, {} finding(s), {} suppression(s) honored",
        report.files_scanned,
        report.findings.len(),
        report.suppressions_used
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
