//! Findings and their rustc-style rendering.

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
}
