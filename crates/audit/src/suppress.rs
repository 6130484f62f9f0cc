//! Inline suppression comments.
//!
//! Syntax: `// nimbus-audit: allow(float-eq) — exact-zero guard` — the
//! allow-list names one or more rules (comma-separated), and everything
//! after the closing paren (minus a leading `—`/`-`/`:`) is the reason.
//! The reason is **mandatory** — a suppression without one is itself a
//! finding, as is a suppression naming an unknown rule.
//!
//! A suppression covers its own line and the line immediately below it,
//! so both styles work:
//!
//! ```text
//! if total == 0.0 { // nimbus-audit: allow(float-eq) — sum of non-negative masses
//!
//! // nimbus-audit: allow(float-eq) — exact-zero guard on a sum of squares
//! if norm2 == 0.0 {
//! ```

use crate::lexer::{Token, TokenKind};
use crate::rules::RULE_NAMES;
use crate::Finding;

const MARKER: &str = "nimbus-audit:";

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules this comment silences.
    pub rules: Vec<String>,
    /// Line the comment starts on; it covers this line and the next.
    pub line: u32,
}

/// Extracts suppressions from a token stream. Malformed suppressions
/// (missing reason, unknown rule, unparsable allow-list) are appended to
/// `findings` under the `suppression` pseudo-rule and do **not** silence
/// anything.
pub fn collect(tokens: &[Token], file: &str, findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let Some(marker_at) = t.text.find(MARKER) else {
            continue;
        };
        let after = &t.text[marker_at + MARKER.len()..];
        if after.starts_with(':') {
            // `nimbus-audit::rule` — a rendered diagnostic id quoted in a
            // comment, not a suppression attempt.
            continue;
        }
        let rest = after.trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            findings.push(Finding::new(
                "suppression",
                file,
                t.line,
                t.col,
                "malformed suppression: expected `nimbus-audit: allow(rule) — reason`",
            ));
            continue;
        };
        let args = args.trim_start();
        let Some(close) = args.find(')') else {
            findings.push(Finding::new(
                "suppression",
                file,
                t.line,
                t.col,
                "malformed suppression: unclosed `allow(` list",
            ));
            continue;
        };
        let list = args.strip_prefix('(').map(|s| &s[..close - 1]);
        let Some(list) = list else {
            findings.push(Finding::new(
                "suppression",
                file,
                t.line,
                t.col,
                "malformed suppression: expected `(` after `allow`",
            ));
            continue;
        };
        let rules: Vec<String> = list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !RULE_NAMES.contains(&r.as_str()))
            .collect();
        if rules.is_empty() || !unknown.is_empty() {
            let what = unknown
                .first()
                .map(|r| format!("unknown rule `{r}` in allow()"))
                .unwrap_or_else(|| "empty allow() list".to_string());
            findings.push(Finding::new(
                "suppression",
                file,
                t.line,
                t.col,
                format!("{what}; known rules: {}", RULE_NAMES.join(", ")),
            ));
            continue;
        }
        // Everything after the `)` — minus connective punctuation — is
        // the reason, and it is mandatory.
        let reason = args[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '-', ':', '–'])
            .trim();
        if reason.is_empty() {
            findings.push(Finding::new(
                "suppression",
                file,
                t.line,
                t.col,
                "suppression without a reason: write `allow(rule) — why this is sound`",
            ));
            continue;
        }
        out.push(Suppression {
            rules,
            line: t.line,
        });
    }
    out
}

/// Whether `finding` (by rule + line) is covered by a suppression.
pub fn is_suppressed(suppressions: &[Suppression], rule: &str, line: u32) -> bool {
    suppressions
        .iter()
        .any(|s| (s.line == line || s.line + 1 == line) && s.rules.iter().any(|r| r == rule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_reasoned_suppression() {
        let src = "// nimbus-audit: allow(float-eq) — exact-zero guard\nx == 0.0;\n";
        let mut findings = Vec::new();
        let sup = collect(&lex(src), "f.rs", &mut findings);
        assert!(findings.is_empty());
        assert_eq!(sup.len(), 1);
        assert!(is_suppressed(&sup, "float-eq", 1));
        assert!(is_suppressed(&sup, "float-eq", 2));
        assert!(!is_suppressed(&sup, "float-eq", 3));
        assert!(!is_suppressed(&sup, "money-safety", 2));
    }

    #[test]
    fn reason_is_mandatory() {
        let src = "// nimbus-audit: allow(float-eq)\nx == 0.0;\n";
        let mut findings = Vec::new();
        let sup = collect(&lex(src), "f.rs", &mut findings);
        assert!(sup.is_empty());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("without a reason"));
    }

    #[test]
    fn unknown_rule_is_reported() {
        let src = "// nimbus-audit: allow(made-up) — because\n";
        let mut findings = Vec::new();
        let sup = collect(&lex(src), "f.rs", &mut findings);
        assert!(sup.is_empty());
        assert!(findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn multiple_rules_one_comment() {
        let src = "// nimbus-audit: allow(float-eq, money-safety) — fixture\n";
        let mut findings = Vec::new();
        let sup = collect(&lex(src), "f.rs", &mut findings);
        assert!(findings.is_empty());
        assert!(is_suppressed(&sup, "float-eq", 2));
        assert!(is_suppressed(&sup, "money-safety", 2));
    }
}
