//! Findings and their two renderings: rustc-style text and JSON.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case), e.g. `float-eq`.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, if available (for the caret rendering).
    pub snippet: String,
}

impl Finding {
    /// A finding without a snippet (attached later by the driver).
    pub fn new(rule: &str, file: &str, line: u32, col: u32, message: impl Into<String>) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            col,
            message: message.into(),
            snippet: String::new(),
        }
    }

    /// Renders one finding rustc-style:
    ///
    /// ```text
    /// error[nimbus-audit::float-eq]: float `==` comparison in pricing code: …
    ///   --> crates/optim/src/objective.rs:47:14
    ///    |
    /// 47 |     if total == 0.0 {
    ///    |              ^
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "error[nimbus-audit::{}]: {}", self.rule, self.message);
        let _ = writeln!(out, "  --> {}:{}:{}", self.file, self.line, self.col);
        if !self.snippet.is_empty() {
            let gutter = self.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, "{pad} |");
            let _ = writeln!(out, "{gutter} | {}", self.snippet);
            // Column is in characters; the snippet is printed verbatim, so
            // place the caret by character count.
            let caret_pad: String = self
                .snippet
                .chars()
                .take(self.col.saturating_sub(1) as usize)
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            let _ = writeln!(out, "{pad} | {caret_pad}^");
        }
        out
    }
}

/// Computes the stable per-finding ID for `f`, the `occurrence`-th
/// finding with identical `(rule, file, message, snippet)` in its report.
///
/// Line and column are deliberately excluded: an unrelated edit that
/// shifts a violation down three lines must not change its identity, or
/// CI baselines churn on every commit. The occurrence counter separates
/// genuinely identical violations (two different lines with the same
/// snippet) without reintroducing position sensitivity.
pub fn finding_id(f: &Finding, occurrence: usize) -> String {
    // FNV-1a, 64-bit — stable across platforms and releases, no std
    // hasher (RandomState is seeded per process).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(f.rule.as_bytes());
    eat(f.file.as_bytes());
    eat(f.message.as_bytes());
    eat(f.snippet.trim().as_bytes());
    eat(occurrence.to_string().as_bytes());
    format!("{h:016x}")
}

/// The rule-doc anchor for a finding: a stable pointer into the rule
/// reference that CI annotations can link.
pub fn finding_doc(rule: &str) -> String {
    format!("crates/audit/RULES.md#{rule}")
}

/// Renders findings as a JSON document:
/// `{"findings":[…],"count":N}`. Each finding carries a stable `id`
/// ([`finding_id`]) and a `doc` anchor ([`finding_doc`]).
pub fn render_json(findings: &[Finding]) -> String {
    let mut seen: std::collections::BTreeMap<(&str, &str, &str, &str), usize> =
        std::collections::BTreeMap::new();
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let occurrence = {
            let k = (
                f.rule.as_str(),
                f.file.as_str(),
                f.message.as_str(),
                f.snippet.as_str(),
            );
            let n = seen.entry(k).or_insert(0);
            let o = *n;
            *n += 1;
            o
        };
        let _ = write!(
            out,
            "{{\"id\":{},\"rule\":{},\"doc\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"snippet\":{}}}",
            json_string(&finding_id(f, occurrence)),
            json_string(&f.rule),
            json_string(&finding_doc(&f.rule)),
            json_string(&f.file),
            f.line,
            f.col,
            json_string(&f.message),
            json_string(&f.snippet),
        );
    }
    let _ = write!(out, "],\"count\":{}}}", findings.len());
    out
}

/// JSON string escaping per RFC 8259.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_location_and_caret() {
        let f = Finding {
            rule: "float-eq".into(),
            file: "crates/optim/src/x.rs".into(),
            line: 12,
            col: 14,
            message: "float `==` comparison in pricing code".into(),
            snippet: "    if total == 0.0 {".into(),
        };
        let text = f.render();
        assert!(text.contains("error[nimbus-audit::float-eq]"));
        assert!(text.contains("--> crates/optim/src/x.rs:12:14"));
        assert!(text.contains("12 |     if total == 0.0 {"));
        assert!(text.lines().last().is_some_and(|l| l.ends_with("    ^")));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
