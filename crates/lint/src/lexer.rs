//! A minimal Rust token scanner.
//!
//! The container has no crates.io access, so `syn` is off the table;
//! every rule in this crate instead works over this hand-rolled lexer
//! (same spirit as `jim-json`'s hand-rolled parser). It does *not*
//! parse Rust — it only has to be exact about the places where a naive
//! text scan lies: comments (line, nested block), string literals
//! (plain, byte, raw with any `#` count), char literals vs lifetimes,
//! and raw identifiers. Everything that survives those filters comes
//! out as a flat token stream with line numbers, which is enough to
//! recognize `unsafe`, `.lock()` chains, `Ordering::` paths, panic
//! macros, and `#[cfg(test)]` module boundaries.

/// What a token is, at the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `lock`, `Ordering`, ...).
    Ident,
    /// Number, string, char, or byte literal. String contents are
    /// dropped — a literal's text is an opaque placeholder, so
    /// `"unsafe"` in a string can never look like the keyword.
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Any other single character: `{`, `(`, `.`, `:`, `!`, ...
    Punct,
}

/// One token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Tokenize `src`, dropping comments and string contents.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Block comments nest in Rust.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                i = skip_plain_string(b, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: "\"…\"".into(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Char literal or lifetime. `'a'` is a char; `'a` not
                // followed by a closing quote is a lifetime; `'\n'` is
                // a char escape. `'static` is a lifetime.
                let start_line = line;
                let next = b.get(i + 1).copied();
                if next == Some(b'\\') {
                    // Escape: skip the escaped character unconditionally
                    // (it may itself be a quote, as in '\''), then
                    // consume to the closing quote.
                    i += 3; // past '\ and the escaped char
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1; // past closing '
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: "'…'".into(),
                        line: start_line,
                    });
                } else if next.is_some_and(is_ident_start) && b.get(i + 2) != Some(&b'\'') {
                    // Lifetime: 'ident with no closing quote right after.
                    let mut j = i + 1;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: String::from_utf8_lossy(&b[i..j]).into_owned(),
                        line: start_line,
                    });
                    i = j;
                } else {
                    // Char literal like 'x' (or a stray quote — consume it).
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: "'…'".into(),
                        line: start_line,
                    });
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                let start_line = line;
                let mut j = i + 1;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                let word = &src[start..j];
                // Raw strings and byte strings: r"..", r#".."#, b"..",
                // br#".."#, and raw identifiers r#ident.
                if matches!(word, "r" | "b" | "br" | "rb" | "c" | "cr") {
                    let mut hashes = 0usize;
                    let mut k = j;
                    while b.get(k) == Some(&b'#') {
                        hashes += 1;
                        k += 1;
                    }
                    let is_raw = word.contains('r');
                    if b.get(k) == Some(&b'"') && (is_raw || hashes == 0) {
                        // Raw string (r/br/cr with any hash count) or
                        // plain byte/c string (b"/c" with no hashes).
                        if is_raw {
                            i = skip_raw_string(b, k + 1, hashes, &mut line);
                        } else {
                            i = skip_plain_string(b, k, &mut line);
                        }
                        tokens.push(Token {
                            kind: TokenKind::Literal,
                            text: "\"…\"".into(),
                            line: start_line,
                        });
                        continue;
                    }
                    if word == "r" && hashes == 1 && b.get(k).copied().is_some_and(is_ident_start) {
                        // Raw identifier r#ident: emit the ident itself so
                        // `r#try` and `try` compare equal where it matters.
                        let mut m = k + 1;
                        while m < b.len() && is_ident_continue(b[m]) {
                            m += 1;
                        }
                        tokens.push(Token {
                            kind: TokenKind::Ident,
                            text: src[k..m].to_string(),
                            line: start_line,
                        });
                        i = m;
                        continue;
                    }
                    if word == "b" && b.get(j) == Some(&b'\'') {
                        // Byte char literal b'x' / b'\n'.
                        let mut m = j + 1;
                        if b.get(m) == Some(&b'\\') {
                            m += 1;
                        }
                        m += 1;
                        while m < b.len() && b[m] != b'\'' {
                            m += 1;
                        }
                        tokens.push(Token {
                            kind: TokenKind::Literal,
                            text: "b'…'".into(),
                            line: start_line,
                        });
                        i = m + 1;
                        continue;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: word.to_string(),
                    line: start_line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let start_line = line;
                let mut j = i + 1;
                while j < b.len() {
                    let d = b[j];
                    if is_ident_continue(d) {
                        j += 1;
                    } else if d == b'.' && b.get(j + 1).copied().is_some_and(|n| n.is_ascii_digit())
                    {
                        // `1.5` is one literal; `1..n` is a range — keep
                        // the dots as puncts in that case.
                        j += 2;
                    } else if (d == b'+' || d == b'-')
                        && matches!(b.get(j - 1), Some(b'e') | Some(b'E'))
                    {
                        j += 1; // exponent sign in 1e-3
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: src[start..j].to_string(),
                    line: start_line,
                });
                i = j;
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    tokens
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Skip a `"…"` string starting at the opening quote; returns the index
/// just past the closing quote.
fn skip_plain_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // past opening "
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // An escaped newline (a `\` line continuation) is a line.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string body starting just past the opening quote; the
/// terminator is `"` followed by `hashes` `#`s. No escapes exist.
fn skip_raw_string(b: &[u8], mut i: usize, hashes: usize, line: &mut u32) -> usize {
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Find the index of the matching close for the opener at `open`
/// (which must be `{`, `(`, or `[`). Returns `tokens.len()` when
/// unbalanced so callers degrade to "rest of file" instead of panicking.
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return idx;
            }
        }
    }
    tokens.len()
}

/// Walk backward from `idx` (exclusive) to the index of the opener
/// matching an unbalanced run of closers — used to find the receiver
/// of a method call across `foo(bar)[i]`-style groups. Returns the
/// index of the token that *opens* the group ending at `idx - 1`.
pub fn matching_open(tokens: &[Token], close: usize) -> usize {
    let (o, c) = match tokens[close].text.as_str() {
        "}" => ("{", "}"),
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        _ => return close,
    };
    let mut depth = 0usize;
    let mut idx = close;
    loop {
        let t = &tokens[idx];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return idx;
            }
        }
        if idx == 0 {
            return 0;
        }
        idx -= 1;
    }
}
