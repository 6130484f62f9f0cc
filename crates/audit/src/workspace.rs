//! Walks the workspace and drives every rule over it.

use crate::lockgraph;
use crate::rules;
use crate::Finding;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of auditing a whole workspace.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Unsuppressed findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Suppressions that actually silenced a finding.
    pub suppressions_used: usize,
}

impl AuditReport {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Directories under the root that are walked for Rust sources.
const SCAN_ROOTS: &[&str] = &["crates", "vendor", "examples", "tests"];

/// Path components that end a walk: build output and the audit's own
/// deliberately-violating fixture corpus.
const SKIP_COMPONENTS: &[&str] = &["target", "fixtures"];

/// Audits the workspace rooted at `root`. Walks `crates/`, `vendor/`,
/// `examples/` and `tests/` for `.rs` files, runs the token rules on
/// each, then the whole-program lock graph over the serving crates.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut report = AuditReport::default();
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut lock_scope: Vec<(String, String)> = Vec::new();
    for path in &files {
        let rel = relative(root, path);
        let src = fs::read_to_string(path)?;
        let (findings, used) = rules::check_file(&rel, &src);
        report.findings.extend(findings);
        report.suppressions_used += used;
        report.files_scanned += 1;
        if lockgraph::LOCK_SCOPE_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p))
        {
            lock_scope.push((rel, src));
        }
    }

    // The lock-acquisition graph is a whole-program property: it needs
    // every in-scope file's lock inventory and call graph at once.
    let pairs: Vec<(&str, &str)> = lock_scope
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    let (lock_findings, lock_used) = lockgraph::check_files(&pairs);
    report.findings.extend(lock_findings);
    report.suppressions_used += lock_used;

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_COMPONENTS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root: walks up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
