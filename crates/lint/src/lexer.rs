//! A minimal token-level lexer for Rust source.
//!
//! This is deliberately *not* a parser: the lint rules only need a stream
//! of identifiers, literals, and punctuation with comments and string
//! contents stripped out, so a few hundred lines of hand-rolled scanning
//! keep the crate dependency-free (no `syn`, no proc-macro machinery).
//!
//! Known approximations, acceptable for lint purposes and backstopped by
//! clippy where it matters:
//!
//! - nested tuple field access (`x.0.1`) lexes the tail as one numeric
//!   token unless preceded by `.` (the common single level is exact);
//! - float literals with a trailing dot (`2.`) lex as an integer followed
//!   by `.` and are invisible to the float-equality rule
//!   (`clippy::float_cmp` catches those).

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `as`, `fn`, `pub`, …).
    Ident,
    /// Numeric literal, suffix included (`100u64`, `0.5`, `1e-9`).
    Num,
    /// String, byte-string, raw-string, or char literal (contents kept but
    /// never matched by rules).
    Str,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Punctuation, with common multi-character operators fused
    /// (`==`, `!=`, `->`, `::`, `..=`, `>>`, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token text exactly as written (for `Str`, including quotes).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// Token category.
    pub kind: TokKind,
}

impl Tok {
    /// True for a numeric literal that is lexically a float.
    pub fn is_float_literal(&self) -> bool {
        if self.kind != TokKind::Num {
            return false;
        }
        let t = &self.text;
        if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
            return false;
        }
        if t.contains('.') || t.ends_with("f32") || t.ends_with("f64") {
            return true;
        }
        // Exponent form: an `e`/`E` directly after the digit run, followed
        // by an optional sign and a digit (`1e9`, `2E-7`). The `e` of an
        // integer suffix (`0usize`) is never followed by a digit, so
        // suffixed integers stay ints.
        let b = t.as_bytes();
        let mut i = 0;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
        if i < b.len() && matches!(b[i], b'e' | b'E') {
            let mut k = i + 1;
            if k < b.len() && matches!(b[k], b'+' | b'-') {
                k += 1;
            }
            return k < b.len() && b[k].is_ascii_digit();
        }
        false
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Three- then two-character punctuation fused into single tokens.
const PUNCT3: &[&str] = &["..=", "<<=", ">>=", "..."];
const PUNCT2: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=",
];

/// Lex `src` into tokens, stripping comments.
///
/// The lexer never fails: malformed input degrades to single-character
/// punctuation tokens, which at worst makes a rule miss — never crash.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks: Vec<Tok> = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nesting supported.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings (r"…", r#"…"#), byte strings (b"…"), raw byte strings
        // (br#"…"#), and raw identifiers (r#ident).
        if c == 'r' || c == 'b' {
            if let Some((tok, next, lines)) = lex_r_or_b(&chars, i, line) {
                toks.push(tok);
                i = next;
                line += lines;
                continue;
            }
        }
        // Plain string literal.
        if c == '"' {
            let (tok, next, lines) = lex_string(&chars, i, line);
            toks.push(tok);
            i = next;
            line += lines;
            continue;
        }
        // Char literal vs lifetime/label.
        if c == '\'' {
            let (tok, next) = lex_quote(&chars, i, line);
            toks.push(tok);
            i = next;
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            toks.push(Tok {
                text: chars[start..i].iter().collect(),
                line,
                kind: TokKind::Ident,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let (tok, next) = lex_number(&chars, i, line, toks.last());
            toks.push(tok);
            i = next;
            continue;
        }
        // Punctuation: longest fused operator first.
        let rest3: String = chars[i..n.min(i + 3)].iter().collect();
        if PUNCT3.contains(&rest3.as_str()) {
            toks.push(Tok {
                text: rest3,
                line,
                kind: TokKind::Punct,
            });
            i += 3;
            continue;
        }
        let rest2: String = chars[i..n.min(i + 2)].iter().collect();
        if PUNCT2.contains(&rest2.as_str()) {
            toks.push(Tok {
                text: rest2,
                line,
                kind: TokKind::Punct,
            });
            i += 2;
            continue;
        }
        toks.push(Tok {
            text: c.to_string(),
            line,
            kind: TokKind::Punct,
        });
        i += 1;
    }
    toks
}

/// Handle the `r…`/`b…` prefixes when they start a literal; `None` means
/// "just an identifier beginning with r/b — lex normally".
fn lex_r_or_b(chars: &[char], i: usize, line: usize) -> Option<(Tok, usize, usize)> {
    let n = chars.len();
    let c = chars[i];
    let next = chars.get(i + 1).copied();
    match (c, next) {
        // b'…' byte char literal.
        ('b', Some('\'')) => {
            let (tok, end) = lex_quote(chars, i + 1, line);
            let mut text = String::from("b");
            text.push_str(&tok.text);
            Some((
                Tok {
                    text,
                    line,
                    kind: TokKind::Str,
                },
                end,
                0,
            ))
        }
        // b"…" byte string.
        ('b', Some('"')) => {
            let (tok, end, lines) = lex_string(chars, i + 1, line);
            let mut text = String::from("b");
            text.push_str(&tok.text);
            Some((
                Tok {
                    text,
                    line,
                    kind: TokKind::Str,
                },
                end,
                lines,
            ))
        }
        // br"…" / br#"…"# raw byte string.
        ('b', Some('r')) => {
            let after = chars.get(i + 2).copied();
            if after == Some('"') || after == Some('#') {
                lex_raw_string(chars, i, i + 2, line)
            } else {
                None
            }
        }
        // r"…" / r#"…"# raw string — but r#ident is a raw identifier.
        ('r', Some('"')) => lex_raw_string(chars, i, i + 1, line),
        ('r', Some('#')) => {
            // Count hashes; a quote after them means raw string, an
            // identifier character means raw identifier.
            let mut j = i + 1;
            while j < n && chars[j] == '#' {
                j += 1;
            }
            if j < n && chars[j] == '"' {
                lex_raw_string(chars, i, i + 1, line)
            } else {
                // Raw identifier r#foo: lex as Ident including the prefix.
                let start = i;
                let mut k = i + 2;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
                Some((
                    Tok {
                        text: chars[start..k].iter().collect(),
                        line,
                        kind: TokKind::Ident,
                    },
                    k,
                    0,
                ))
            }
        }
        _ => None,
    }
}

/// Lex a raw string whose hashes start at `hash_start` (`start` is the
/// index of the `r`/`b` prefix, kept for the token text).
fn lex_raw_string(
    chars: &[char],
    start: usize,
    hash_start: usize,
    line: usize,
) -> Option<(Tok, usize, usize)> {
    let n = chars.len();
    let mut j = hash_start;
    let mut hashes = 0usize;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return None;
    }
    j += 1;
    let mut lines = 0usize;
    while j < n {
        if chars[j] == '\n' {
            lines += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let after = &chars[j + 1..n.min(j + 1 + hashes)];
            if after.len() == hashes && after.iter().all(|&h| h == '#') {
                j += 1 + hashes;
                return Some((
                    Tok {
                        text: chars[start..j].iter().collect(),
                        line,
                        kind: TokKind::Str,
                    },
                    j,
                    lines,
                ));
            }
        }
        j += 1;
    }
    // Unterminated raw string: consume to EOF.
    Some((
        Tok {
            text: chars[start..].iter().collect(),
            line,
            kind: TokKind::Str,
        },
        n,
        lines,
    ))
}

/// Lex a `"…"` string starting at `i` (which must be the opening quote).
fn lex_string(chars: &[char], i: usize, line: usize) -> (Tok, usize, usize) {
    let n = chars.len();
    let start = i;
    let mut j = i + 1;
    let mut lines = 0usize;
    while j < n {
        match chars[j] {
            // An escape consumes two chars; `\` before a newline is the
            // line-continuation form, and that newline still counts.
            '\\' => {
                if j + 1 < n && chars[j + 1] == '\n' {
                    lines += 1;
                }
                j += 2;
            }
            '\n' => {
                lines += 1;
                j += 1;
            }
            '"' => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    (
        Tok {
            text: chars[start..j.min(n)].iter().collect(),
            line,
            kind: TokKind::Str,
        },
        j.min(n),
        lines,
    )
}

/// Lex at a `'`: either a char literal (`'a'`, `'\n'`) or a lifetime/label
/// (`'a`, `'outer`).
fn lex_quote(chars: &[char], i: usize, line: usize) -> (Tok, usize) {
    let n = chars.len();
    // Escaped char literal: '\…'.
    if i + 1 < n && chars[i + 1] == '\\' {
        let mut j = i + 2;
        while j < n && chars[j] != '\'' {
            j += 1;
        }
        let j = (j + 1).min(n);
        return (
            Tok {
                text: chars[i..j].iter().collect(),
                line,
                kind: TokKind::Str,
            },
            j,
        );
    }
    // Plain char literal: 'x' (any single char followed by a quote).
    if i + 2 < n && chars[i + 2] == '\'' {
        return (
            Tok {
                text: chars[i..i + 3].iter().collect(),
                line,
                kind: TokKind::Str,
            },
            i + 3,
        );
    }
    // Lifetime or label: consume identifier characters.
    let mut j = i + 1;
    while j < n && is_ident_continue(chars[j]) {
        j += 1;
    }
    (
        Tok {
            text: chars[i..j].iter().collect(),
            line,
            kind: TokKind::Lifetime,
        },
        j,
    )
}

/// Lex a numeric literal at `i`. `prev` is the previously emitted token:
/// after a `.` (tuple field access) the fractional-part heuristic is
/// disabled so `x.0.1` does not glue `0.1` into a float.
fn lex_number(chars: &[char], i: usize, line: usize, prev: Option<&Tok>) -> (Tok, usize) {
    let n = chars.len();
    let start = i;
    let mut j = i;
    let field_access = prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == ".");
    if chars[j] == '0' && j + 1 < n && matches!(chars[j + 1], 'x' | 'b' | 'o') {
        j += 2;
        while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
    } else {
        while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
        // Fraction: a dot followed by a digit (excludes ranges `0..10` and
        // method calls `1.max(2)`).
        if !field_access && j + 1 < n && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
            j += 1;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
        // Exponent: e/E with optional sign, then digits.
        if j < n && matches!(chars[j], 'e' | 'E') {
            let sign = j + 1 < n && matches!(chars[j + 1], '+' | '-');
            let digits_at = if sign { j + 2 } else { j + 1 };
            if digits_at < n && chars[digits_at].is_ascii_digit() {
                j = digits_at;
                while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                    j += 1;
                }
            }
        }
        // Type suffix (u64, f64, usize, …).
        while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
    }
    (
        Tok {
            text: chars[start..j].iter().collect(),
            line,
            kind: TokKind::Num,
        },
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixed_integers_are_not_floats() {
        for t in lex("let a = 0usize; let b = 100u64; let c = 0xEEu8;") {
            if t.kind == TokKind::Num {
                assert!(!t.is_float_literal(), "{:?} misread as float", t.text);
            }
        }
    }

    #[test]
    fn float_forms_are_floats() {
        for src in ["0.5", "1e9", "2E-7", "3f64", "1_000.0", "7e5f32"] {
            let toks = lex(src);
            assert!(toks[0].is_float_literal(), "{src} misread as int");
        }
    }

    #[test]
    fn string_line_continuation_counts_its_newline() {
        // The string spans lines 1–2 via a `\` line continuation; the
        // following statement must land on line 3, not 2.
        let src = "let s = \"a \\\n   b\";\nlet after = 1;\n";
        let toks = lex(src);
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
    }
}
