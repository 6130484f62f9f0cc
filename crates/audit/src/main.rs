//! CLI for the workspace invariant linter.
//!
//! ```text
//! nimbus-audit check [--root DIR] [--json] [--diff BASE] [--bench-json PATH]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use nimbus_audit::{audit_workspace, find_root, render_json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
nimbus-audit — workspace invariant linter for the Nimbus serving path

USAGE:
    nimbus-audit check [--root DIR] [--json] [--diff BASE] [--bench-json PATH]

OPTIONS:
    --json              machine-readable findings with stable ids + doc anchors
    --root DIR          workspace root (default: walk up from the cwd)
    --diff BASE         incremental mode: analyze the full workspace (the lock
                        graph is whole-program), but report only findings in
                        files changed since the git ref BASE (plus untracked)
    --bench-json PATH   write audit runtime (files/s, findings) as JSON

RULES:
    float-eq          no ==/!= against float literals in pricing code
    wire-sync         wire.rs opcode + ErrorCode tables match DESIGN.md
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
scoped modules and crate roots (DESIGN.md, Static analysis).

SUPPRESSION (reason mandatory):
    // nimbus-audit: allow(rule-name) — why this is sound
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut command: Option<String> = None;
    let mut diff_base: Option<String> = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("error: --root needs a directory argument\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--diff" => {
                i += 1;
                match args.get(i) {
                    Some(base) => diff_base = Some(base.clone()),
                    None => {
                        eprintln!("error: --diff needs a git ref argument\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--bench-json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => bench_json = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("error: --bench-json needs a file argument\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "check" if command.is_none() => command = Some("check".to_string()),
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if command.as_deref() != Some("check") {
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

    let started = Instant::now();
    let mut report = match audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: audit failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    if let Some(base) = &diff_base {
        let changed = match changed_files(&root, base) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: --diff {base}: {e}");
                return ExitCode::from(2);
            }
        };
        report
            .findings
            .retain(|f| changed.contains(f.file.as_str()) || f.file == "DESIGN.md");
        eprintln!(
            "nimbus-audit: diff mode vs {base}: {} changed file(s) in scope",
            changed.len()
        );
    }

    if let Some(path) = &bench_json {
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let files_per_sec = report.files_scanned as f64 / elapsed.as_secs_f64().max(1e-9);
        let body = format!(
            "{{\"bench\":\"audit_workspace\",\"files_scanned\":{},\"findings\":{},\"suppressions\":{},\"elapsed_ms\":{:.3},\"files_per_sec\":{:.1}}}\n",
            report.files_scanned,
            report.findings.len(),
            report.suppressions_used,
            elapsed_ms,
            files_per_sec,
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: --bench-json {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if json {
        println!("{}", render_json(&report.findings));
    } else {
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
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Workspace-relative paths changed since `base`: `git diff --name-only
/// <base>` plus untracked files. The analysis itself always runs on the
/// whole workspace (the lock graph is interprocedural); only reporting
/// is filtered.
fn changed_files(root: &Path, base: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut out = std::collections::BTreeSet::new();
    for extra in [
        &["diff", "--name-only", base][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let cmd = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(extra)
            .output()
            .map_err(|e| format!("failed to run git: {e}"))?;
        if !cmd.status.success() {
            return Err(format!(
                "git {} failed: {}",
                extra.join(" "),
                String::from_utf8_lossy(&cmd.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&cmd.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                out.insert(line.to_string());
            }
        }
    }
    Ok(out)
}
