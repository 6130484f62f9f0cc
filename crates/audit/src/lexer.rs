//! A small hand-rolled Rust lexer, just deep enough for token-level rules.
//!
//! The rules in this crate are string matchers over *token streams*, not
//! ASTs — so the one job of this lexer is to never hand a rule a token
//! that was actually inside a comment, a string, a raw string, a byte
//! string, or a character literal, and to never confuse a lifetime with a
//! character literal. Everything else (types, expressions, precedence) is
//! deliberately out of scope.
//!
//! Covered syntax:
//!
//! * line comments (`//`, `///`, `//!`) and block comments (`/* */`,
//!   including **nesting**, which Rust allows);
//! * string literals with escapes (`"\" still a string"`), raw strings
//!   with any number of hashes (`r"…"`, `r#"…"#`, `r##"…"##`), byte
//!   strings (`b"…"`, `br#"…"#`), and raw identifiers (`r#fn`);
//! * character literals vs. lifetimes (`'a'` vs. `'a`), including
//!   escaped (`'\n'`, `'\u{1F600}'`) and non-ASCII (`'é'`) chars;
//! * numbers, classified int vs. float (`1.0`, `1.`, `1e-9`, `1.5e3`,
//!   `0xFF`, suffixes) without swallowing ranges (`0..n`) or method
//!   calls on integers (`1.max(2)`);
//! * multi-char operators relevant to the rules (`::`, `==`, `!=`, …),
//!   greedily matched so `<=` never yields a stray `=`.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (the rules treat keywords by name).
    Ident,
    /// A lifetime such as `'a` or `'static` (leading quote included).
    Lifetime,
    /// Integer literal, any base, with or without suffix.
    Int,
    /// Float literal (`1.0`, `1.`, `1e-9`, `2f64`).
    Float,
    /// String / raw string / byte string literal (content opaque).
    Str,
    /// Character or byte literal (`'a'`, `b'x'`).
    Char,
    /// Line or block comment, text preserved for suppression scans.
    Comment,
    /// Punctuation / operator, possibly multi-char (`::`, `==`, `!=`).
    Punct,
}

/// One lexeme with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexeme class.
    pub kind: TokenKind,
    /// Exact source text (comments keep their delimiters).
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
}

/// Lexes `src` into a token stream. Never fails: unterminated constructs
/// run to end of input, unknown bytes become single-char `Punct` tokens —
/// a linter must keep going where a compiler would stop.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

/// Multi-char operators the rules care about (and their lookalikes, so
/// greedy matching never fabricates a spurious `==` out of `<=` + `=`).
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn emit(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
                continue;
            }
            let (line, col) = (self.line, self.col);
            if c == '/' && self.peek(1) == Some('/') {
                let text = self.line_comment();
                self.emit(TokenKind::Comment, text, line, col);
            } else if c == '/' && self.peek(1) == Some('*') {
                let text = self.block_comment();
                self.emit(TokenKind::Comment, text, line, col);
            } else if c == 'r' && self.raw_string_hashes(1).is_some() {
                let text = self.raw_string(false);
                self.emit(TokenKind::Str, text, line, col);
            } else if c == 'b' && self.peek(1) == Some('r') && self.raw_string_hashes(2).is_some() {
                let text = self.raw_string(true);
                self.emit(TokenKind::Str, text, line, col);
            } else if c == 'b' && self.peek(1) == Some('"') {
                self.bump();
                let text = self.string_literal('b');
                self.emit(TokenKind::Str, text, line, col);
            } else if c == 'b' && self.peek(1) == Some('\'') {
                self.bump();
                let text = self.char_literal('b');
                self.emit(TokenKind::Char, text, line, col);
            } else if c == 'r'
                && self.peek(1) == Some('#')
                && self.peek(2).is_some_and(is_ident_start)
            {
                // Raw identifier r#fn: lex as the identifier alone.
                self.bump();
                self.bump();
                let text = self.ident();
                self.emit(TokenKind::Ident, text, line, col);
            } else if is_ident_start(c) {
                let text = self.ident();
                self.emit(TokenKind::Ident, text, line, col);
            } else if c.is_ascii_digit() {
                let (text, is_float) = self.number();
                let kind = if is_float {
                    TokenKind::Float
                } else {
                    TokenKind::Int
                };
                self.emit(kind, text, line, col);
            } else if c == '"' {
                let text = self.string_literal('\0');
                self.emit(TokenKind::Str, text, line, col);
            } else if c == '\'' {
                let (kind, text) = self.quote();
                self.emit(kind, text, line, col);
            } else {
                let text = self.operator();
                self.emit(TokenKind::Punct, text, line, col);
            }
        }
        self.tokens
    }

    fn line_comment(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        text
    }

    /// Block comment with nesting: `/* outer /* inner */ still outer */`.
    fn block_comment(&mut self) -> String {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push(c);
                self.bump();
                text.push('*');
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push(c);
                self.bump();
                text.push('/');
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        text
    }

    /// If the chars at `offset` are `#`* followed by `"`, returns the hash
    /// count — i.e. `offset` sits at the start of a raw-string body prefix.
    fn raw_string_hashes(&self, offset: usize) -> Option<usize> {
        let mut hashes = 0;
        while self.peek(offset + hashes) == Some('#') {
            hashes += 1;
        }
        (self.peek(offset + hashes) == Some('"')).then_some(hashes)
    }

    /// Raw (byte) string: `r#"…"#` with any hash count; the closing quote
    /// must be followed by the same number of hashes.
    fn raw_string(&mut self, byte: bool) -> String {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('r')); // 'r' or 'b'
        if byte {
            text.push(self.bump().unwrap_or('r')); // 'r'
        }
        let mut hashes = 0;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump();
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let mut trailing = 0;
                while trailing < hashes && self.peek(1 + trailing) == Some('#') {
                    trailing += 1;
                }
                if trailing == hashes {
                    text.push('"');
                    self.bump();
                    for _ in 0..hashes {
                        text.push('#');
                        self.bump();
                    }
                    break;
                }
            }
            text.push(c);
            self.bump();
        }
        text
    }

    /// Cooked string literal; `prefix` is `'b'` for byte strings. Escapes
    /// are consumed blindly (`\"` never terminates the string).
    fn string_literal(&mut self, prefix: char) -> String {
        let mut text = String::new();
        if prefix != '\0' {
            text.push(prefix);
        }
        text.push('"');
        self.bump();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                text.push('"');
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        text
    }

    fn char_literal(&mut self, prefix: char) -> String {
        let mut text = String::new();
        if prefix != '\0' {
            text.push(prefix);
        }
        text.push('\'');
        self.bump();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                text.push('\'');
                self.bump();
                break;
            } else if c == '\n' {
                break; // unterminated; don't eat the rest of the file
            } else {
                text.push(c);
                self.bump();
            }
        }
        text
    }

    /// A bare `'`: lifetime (`'a`, `'static`), char literal (`'a'`,
    /// `'\n'`, `'é'`), or — degenerate — a lone quote.
    fn quote(&mut self) -> (TokenKind, String) {
        match self.peek(1) {
            Some('\\') => (TokenKind::Char, self.char_literal('\0')),
            Some(c) if is_ident_start(c) => {
                if self.peek(2) == Some('\'') {
                    // 'a' — one ident-char then a closing quote.
                    (TokenKind::Char, self.char_literal('\0'))
                } else {
                    let mut text = String::from('\'');
                    self.bump();
                    text.push_str(&self.ident());
                    (TokenKind::Lifetime, text)
                }
            }
            Some(_) if self.peek(2) == Some('\'') => (TokenKind::Char, self.char_literal('\0')),
            _ => {
                self.bump();
                (TokenKind::Punct, "'".to_string())
            }
        }
    }

    fn ident(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        text
    }

    /// Number literal. Floats are decimal literals with a fractional part
    /// (`1.0`, `1.`), an exponent (`1e-9`), or an `f32`/`f64` suffix. A
    /// `.` followed by another `.` (range) or an identifier char (method
    /// call) belongs to the *next* token.
    fn number(&mut self) -> (String, bool) {
        let mut text = String::new();
        let mut is_float = false;
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'))
        {
            text.push(self.bump().unwrap_or('0'));
            if let Some(radix) = self.bump() {
                text.push(radix);
            }
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            return (text, false);
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if self.peek(0) == Some('.') {
            let after = self.peek(1);
            let dot_belongs_to_number =
                !matches!(after, Some('.')) && !after.is_some_and(is_ident_start);
            if dot_belongs_to_number {
                is_float = true;
                text.push('.');
                self.bump();
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        if matches!(self.peek(0), Some('e' | 'E')) {
            // Exponent only if digits (with optional sign) follow;
            // otherwise `e` starts an identifier (`2em` is not Rust, but
            // `1e` alone would be a parse error — stay permissive).
            let (sign, first_digit) = match self.peek(1) {
                Some('+' | '-') => (1, self.peek(2)),
                other => (0, other),
            };
            if first_digit.is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                text.push(self.bump().unwrap_or('e'));
                for _ in 0..sign {
                    if let Some(s) = self.bump() {
                        text.push(s);
                    }
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix: `1f64` is a float, `1u32` an int.
        if self.peek(0).is_some_and(is_ident_start) {
            let suffix = self.ident();
            if suffix.starts_with("f3") || suffix.starts_with("f6") {
                is_float = true;
            }
            text.push_str(&suffix);
        }
        (text, is_float)
    }

    /// Greedy longest-match over [`OPERATORS`], else one char.
    fn operator(&mut self) -> String {
        for op in OPERATORS {
            let mut matches = true;
            for (i, oc) in op.chars().enumerate() {
                if self.peek(i) != Some(oc) {
                    matches = false;
                    break;
                }
            }
            if matches {
                for _ in 0..op.chars().count() {
                    self.bump();
                }
                return (*op).to_string();
            }
        }
        self.bump().map(String::from).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"unwrap() " inside"#; x()"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("unwrap()")));
        // The `unwrap` inside the raw string is not an Ident token.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        // Lexer resyncs: `x` after the raw string is a plain ident.
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "x"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* panic!() */ still comment */ real");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokenKind::Comment);
        assert!(toks[0].1.contains("still comment"));
        assert_eq!(toks[1], (TokenKind::Ident, "real".to_string()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"let m = b"NIMBUSJ1"; let c = b'\n';"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("NIMBUSJ1")));
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Char));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].1, "'a'");
    }

    #[test]
    fn escaped_chars_and_unicode() {
        let toks = kinds(r"let a = '\n'; let b = '\u{1F600}'; let c = 'é'; let d: &'static str;");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            3
        );
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Lifetime)
                .count(),
            1
        );
    }

    #[test]
    fn line_comment_markers_inside_strings() {
        let toks = kinds(r#"let url = "https://example.com"; after()"#);
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Comment)
                .count(),
            0
        );
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "after"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = kinds(r#"let s = "he said \"unwrap()\" loudly"; next"#);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "next"));
    }

    #[test]
    fn numbers_floats_ranges_methods() {
        let toks = kinds("0..n; 1.max(2); 1.0; 1.; 1e-9; 2.5e3; 0xFF; 3f64; 7u32");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, vec!["1.0", "1.", "1e-9", "2.5e3", "3f64"]);
        // `0..n` keeps the range operator intact.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Punct && t == ".."));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Int && t == "0xFF"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Int && t == "7u32"));
    }

    #[test]
    fn comparison_operators_are_units() {
        let toks = kinds("a <= b; c == d; e != f; g >= h; i << 2");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(puncts.contains(&"<="));
        assert!(puncts.contains(&"=="));
        assert!(puncts.contains(&"!="));
        assert!(puncts.contains(&">="));
        assert!(puncts.contains(&"<<"));
        assert!(!puncts.contains(&"="));
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#fn = 1; r#"); // trailing junk stays harmless
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "fn"));
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let toks = lex("let x = 1;\n  y.unwrap();\n");
        let unwrap = toks.iter().find(|t| t.text == "unwrap").expect("token");
        assert_eq!(unwrap.line, 2);
        assert_eq!(unwrap.col, 5);
    }
}
