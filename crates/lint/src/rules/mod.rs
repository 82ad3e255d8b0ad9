//! The rule set. Each rule is a pure function `(workspace, config) ->
//! findings`, so fixtures are plain in-memory strings and a rule can
//! be exercised against a seeded violation without touching disk.

pub mod atomics;
pub mod lock_order;
pub mod panic_path;
pub mod unsafe_confinement;
pub mod wire_ops;

use crate::lexer::{matching_close, matching_open, Token, TokenKind};

/// Walk backward from the `.` at `dot` to find the receiver of a
/// method call. Returns `(last_ident, rooted_at_self)`:
/// `self.store.record_batch(..)` → `("store", true)`;
/// `s.lock()` → `("s", false)`; `self.slot(id).lock()` → `("slot", true)`.
/// Matched `(..)`/`[..]` groups are skipped, so indexing and call
/// results resolve to the nearest meaningful name.
pub(crate) fn receiver_of(tokens: &[Token], dot: usize) -> (Option<String>, bool) {
    let mut idx = dot;
    let mut last: Option<String> = None;
    let mut rooted_self = false;
    loop {
        if idx == 0 {
            break;
        }
        idx -= 1;
        let t = &tokens[idx];
        if t.is_punct(")") || t.is_punct("]") {
            idx = matching_open(tokens, idx);
            continue;
        }
        if t.kind == TokenKind::Ident {
            if t.text == "self" {
                rooted_self = true;
                if last.is_none() {
                    last = Some("self".into());
                }
                // `self` can only be the chain root.
                let prev_is_dot = idx > 0 && tokens[idx - 1].is_punct(".");
                if !prev_is_dot {
                    break;
                }
                continue;
            }
            if last.is_none() {
                last = Some(t.text.clone());
            }
            // Keep walking only while the chain continues with `.`;
            // `a::b` or a fresh expression ends the receiver.
            if idx == 0 || !tokens[idx - 1].is_punct(".") {
                break;
            }
            continue;
        }
        if t.kind == TokenKind::Literal {
            // Tuple-field receiver like `self.0` — report the index so
            // the caller can qualify it with the enclosing impl type.
            if last.is_none() {
                last = Some(t.text.clone());
            }
            if idx == 0 || !tokens[idx - 1].is_punct(".") {
                break;
            }
            continue;
        }
        if t.is_punct(".") {
            continue;
        }
        break;
    }
    (last, rooted_self)
}

/// A function item found in a file: its name and the token span of its
/// body (exclusive of the braces' outside).
pub(crate) struct FnSpan {
    pub name: String,
    /// Token index range `(open_brace, close_brace)` of the body.
    pub body: (usize, usize),
}

/// Extract every named `fn` with a body from a lexed file, skipping
/// test-only spans when `skip_tests` is set. `fn`-pointer types
/// (`fn(usize) -> bool`) have no name token and are ignored.
pub(crate) fn functions(file: &crate::Lexed, skip_tests: bool) -> Vec<FnSpan> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        if skip_tests && file.in_test(i) {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // Scan from the name to the body `{` at paren depth 0; a `;`
        // first means a bodiless trait/extern declaration.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
            } else if paren == 0 && t.is_punct("{") {
                body = Some(j);
                break;
            } else if paren == 0 && t.is_punct(";") {
                break;
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j.max(i + 1);
            continue;
        };
        let close = matching_close(tokens, open);
        out.push(FnSpan {
            name: name_tok.text.clone(),
            body: (open, close),
        });
        // Nested fns are rare and harmless to re-scan; continue past
        // the signature only, not the whole body.
        i = open + 1;
    }
    out
}

/// Identifiers that look like calls but are control flow.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "move"
            | "in"
            | "as"
            | "where"
            | "impl"
            | "dyn"
            | "else"
            | "break"
            | "continue"
            | "unsafe"
            | "async"
            | "await"
            | "const"
            | "static"
            | "pub"
            | "use"
            | "mod"
    )
}
