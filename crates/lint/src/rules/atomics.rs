//! Rule `atomics`: every use of a memory `Ordering` must match the
//! per-field convention declared in `crates/lint/atomics.toml`.
//!
//! The workspace's atomic vocabulary is deliberately split: metrics
//! counters and backend caches are `Relaxed` (they are statistics, not
//! synchronization), while shutdown/admission flags are `SeqCst` (they
//! *are* synchronization — an event loop observing `triggered` must also
//! observe everything the triggering thread wrote). A well-meaning
//! "optimize to Relaxed" on a synchronizing flag is exactly the bug
//! class this rule makes loud.
//!
//! Mechanics: for each `Ordering::<Variant>` token sequence (atomic
//! variants only — `std::cmp::Ordering`'s `Less`/`Equal`/`Greater`
//! never match), walk back over balanced parens to the enclosing call;
//! if it is a known atomic method (`load`, `store`, `fetch_add`,
//! `compare_exchange`, ...), resolve the receiver field. Tuple-struct
//! receivers (`self.0.fetch_add(..)` inside `impl Counter`) are keyed
//! as `Counter.0`. A field with no declared convention is itself a
//! finding — new atomics must be added to the convention file
//! deliberately, with the intended ordering written down.

use super::receiver_of;
use crate::lexer::TokenKind;
use crate::{Config, Finding, Workspace};

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.test_file {
            continue;
        }
        let impls = impl_spans(file);
        let tokens = &file.tokens;
        for idx in 0..tokens.len() {
            if !tokens[idx].is_ident("Ordering") {
                continue;
            }
            if file.in_test(idx) {
                continue;
            }
            let variant = match (
                tokens.get(idx + 1),
                tokens.get(idx + 2),
                tokens.get(idx + 3),
            ) {
                (Some(a), Some(b), Some(v))
                    if a.is_punct(":") && b.is_punct(":") && v.kind == TokenKind::Ident =>
                {
                    &v.text
                }
                _ => continue,
            };
            if !ATOMIC_ORDERINGS.contains(&variant.as_str()) {
                continue; // std::cmp::Ordering or similar
            }
            let line = tokens[idx].line;
            match enclosing_atomic_call(file, idx) {
                Some(method_idx) => {
                    let field = receiver_field(file, &impls, method_idx);
                    match field {
                        Some(field) => match cfg.atomics.get(&field) {
                            None => out.push(Finding {
                                rule: "atomics",
                                file: file.path.clone(),
                                line,
                                message: format!(
                                    "atomic field `{field}` has no declared ordering convention; \
                                     add it to crates/lint/atomics.toml with the intended \
                                     ordering(s)"
                                ),
                            }),
                            Some(allowed) if !allowed.iter().any(|o| o == variant) => {
                                out.push(Finding {
                                    rule: "atomics",
                                    file: file.path.clone(),
                                    line,
                                    message: format!(
                                        "`Ordering::{variant}` on atomic field `{field}` \
                                         violates its declared convention ({}); if the \
                                         protocol changed, update crates/lint/atomics.toml \
                                         in the same commit",
                                        allowed.join("|")
                                    ),
                                })
                            }
                            Some(_) => {}
                        },
                        None => out.push(Finding {
                            rule: "atomics",
                            file: file.path.clone(),
                            line,
                            message: format!(
                                "cannot resolve the atomic receiver for `Ordering::{variant}`; \
                                 name the field explicitly so the convention is checkable"
                            ),
                        }),
                    }
                }
                None => out.push(Finding {
                    rule: "atomics",
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "`Ordering::{variant}` outside a recognized atomic operation; \
                         orderings belong at the call site of load/store/rmw methods"
                    ),
                }),
            }
        }
    }
}

/// Walk back from the `Ordering` token over balanced parens to the
/// unmatched `(` that encloses it; return the index of the method
/// identifier before that paren when it is a known atomic method.
fn enclosing_atomic_call(file: &crate::Lexed, ord_idx: usize) -> Option<usize> {
    let tokens = &file.tokens;
    let mut depth = 0i32;
    let mut idx = ord_idx;
    for _ in 0..400 {
        if idx == 0 {
            return None;
        }
        idx -= 1;
        let t = &tokens[idx];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            if depth == 0 {
                let m = idx.checked_sub(1)?;
                if tokens[m].kind == TokenKind::Ident
                    && ATOMIC_METHODS.contains(&tokens[m].text.as_str())
                {
                    return Some(m);
                }
                // Nested non-atomic call (e.g. `Some(Ordering::SeqCst)`)
                // — keep walking out; the atomic call may enclose it.
                depth = 0;
                continue;
            }
            depth -= 1;
        } else if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
    }
    None
}

/// Resolve the field name for the atomic method at `method_idx`:
/// `self.triggered.load(..)` → `triggered`; `TERM_FD.store(..)` →
/// `TERM_FD`; `self.0.fetch_add(..)` inside `impl Counter` →
/// `Counter.0`.
fn receiver_field(
    file: &crate::Lexed,
    impls: &[(usize, usize, String)],
    method_idx: usize,
) -> Option<String> {
    let tokens = &file.tokens;
    if method_idx == 0 || !tokens[method_idx - 1].is_punct(".") {
        return None;
    }
    let (recv, _) = receiver_of(tokens, method_idx - 1);
    let recv = recv?;
    if recv.chars().all(|c| c.is_ascii_digit()) {
        let ty = impls
            .iter()
            .filter(|(lo, hi, _)| method_idx >= *lo && method_idx < *hi)
            .map(|(_, _, ty)| ty.clone())
            .next_back()?;
        return Some(format!("{ty}.{recv}"));
    }
    Some(recv)
}

/// `(body_start, body_end, type_name)` for every `impl` block in the
/// file: `impl Counter { .. }` and `impl Default for Counter { .. }`
/// both yield `Counter`.
fn impl_spans(file: &crate::Lexed) -> Vec<(usize, usize, String)> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Collect header idents at angle-depth 0 up to the body `{`.
        let mut angle = 0i32;
        let mut after_for: Option<Vec<String>> = None;
        let mut head: Vec<String> = Vec::new();
        let mut in_where = false;
        let mut j = i + 1;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if angle == 0 && t.is_punct("{") {
                open = Some(j);
                break;
            } else if angle == 0 && t.is_punct(";") {
                break;
            } else if angle == 0 && t.is_ident("where") {
                in_where = true;
            } else if angle == 0 && t.is_ident("for") && !in_where {
                after_for = Some(Vec::new());
            } else if angle == 0 && t.kind == TokenKind::Ident && !in_where {
                match &mut after_for {
                    Some(v) => v.push(t.text.clone()),
                    None => head.push(t.text.clone()),
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let close = crate::lexer::matching_close(tokens, open);
        let segment = after_for.unwrap_or(head);
        if let Some(name) = segment.last() {
            out.push((open, close, name.clone()));
        }
        i = open + 1;
    }
    out
}
