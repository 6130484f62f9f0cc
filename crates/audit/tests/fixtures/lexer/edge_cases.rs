// Fixture: lexer edge cases. Every float comparison below is inside a
// string, raw string, byte string, char context, or comment — EXCEPT the
// single real `== 1.0` at the clearly marked line near the end, which
// proves the lexer resynchronizes after each tricky construct.
fn edge_cases(x: f64) -> bool {
    let raw_hashes = r#"x == 1.0 and f("x") != 0.5 inside r#-string"#;
    let raw_more = r##"nested "quote"# then x == 1.0 still string"##;
    let byte_str = b"x != 0.0 in a byte string";
    let raw_byte = br#"f("x") == 2.5 in a raw byte string"#;
    /* block comment with x == 1.0
       /* nested block comment with x != 0.0 */
       still the outer comment: f("x") == 3.0
    */
    let lifetime_not_char: &'static str = "x";
    let ch: char = 'a';
    let escaped: char = '\'';
    let unicode: char = '\u{1F600}';
    let slashes = "//x == 1.0 this is not a comment";
    let backslash_quote = "escaped \" then x == 1.0 still string";
    let real = x == 1.0; // REAL-VIOLATION-LINE
    let _ = (
        raw_hashes,
        raw_more,
        byte_str,
        raw_byte,
        lifetime_not_char,
        ch,
        escaped,
        unicode,
        slashes,
        backslash_quote,
    );
    real
}
