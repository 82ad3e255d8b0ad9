//! Rule `wire`: the wire protocol, the per-op metrics ledger, and the
//! README protocol table must agree, by construction.
//!
//! Three artifacts list the same op set today: `protocol.rs`'s `enum
//! Request`, `metrics.rs`'s `enum Op` (with its `Op::ALL` array that
//! drives the per-op counter table and the `Metrics` wire
//! response), and the README's protocol table. Adding a wire op and
//! forgetting one of the other two is a silent drift class — the op
//! works but is invisible to operators — so this rule closes it: every
//! `Request` variant must have a matching `Op` variant, be present in
//! `Op::ALL`, and have a README table row naming it in backticks; and
//! every `Op` variant must still correspond to a live `Request`
//! variant (no dead metrics entries).
//!
//! The rule keys off item *names*, not paths: any non-test file
//! defining `enum Request` is the protocol, any defining `enum Op` is
//! the ledger. Workspaces without an `enum Request` (rule fixtures for
//! other rules) skip the rule entirely.

use crate::lexer::{matching_close, Token, TokenKind};
use crate::{Config, Finding, Workspace};

pub fn check(ws: &Workspace, _cfg: &Config, out: &mut Vec<Finding>) {
    let mut request: Option<(&crate::Lexed, Vec<(String, u32)>)> = None;
    let mut op: Option<(&crate::Lexed, Vec<(String, u32)>)> = None;
    for file in &ws.files {
        if file.test_file {
            continue;
        }
        if let Some(v) = enum_variants(file, "Request") {
            request = Some((file, v));
        }
        if let Some(v) = enum_variants(file, "Op") {
            op = Some((file, v));
        }
    }
    let Some((proto_file, request)) = request else {
        return;
    };
    let Some((metrics_file, op)) = op else {
        out.push(Finding {
            rule: "wire",
            file: proto_file.path.clone(),
            line: 1,
            message: "found `enum Request` but no `enum Op` metrics ledger anywhere in the \
                      workspace"
                .into(),
        });
        return;
    };

    let op_names: Vec<&str> = op.iter().map(|(n, _)| n.as_str()).collect();
    let req_names: Vec<&str> = request.iter().map(|(n, _)| n.as_str()).collect();
    let all_span = op_all_span(&metrics_file.tokens);

    for (name, line) in &request {
        if !op_names.contains(&name.as_str()) {
            out.push(Finding {
                rule: "wire",
                file: proto_file.path.clone(),
                line: *line,
                message: format!(
                    "wire op `{name}` has no per-op `Op` entry in {} — its requests \
                     would be invisible to the metrics ledger",
                    metrics_file.path
                ),
            });
        } else if let Some((lo, hi)) = all_span {
            let present = metrics_file.tokens[lo..hi].iter().any(|t| t.is_ident(name));
            if !present {
                out.push(Finding {
                    rule: "wire",
                    file: metrics_file.path.clone(),
                    line: metrics_file.tokens[lo].line,
                    message: format!(
                        "`Op::{name}` exists but is missing from `Op::ALL` — per-op \
                         counters for it are never registered or reported"
                    ),
                });
            }
        }
        let in_readme = ws
            .readme
            .lines()
            .any(|l| l.trim_start().starts_with('|') && l.contains(&format!("`{name}`")));
        if !in_readme {
            out.push(Finding {
                rule: "wire",
                file: proto_file.path.clone(),
                line: *line,
                message: format!(
                    "wire op `{name}` has no README protocol-table row (a `| \\`{name}\\` …` \
                     line); document it where operators look first"
                ),
            });
        }
    }
    for (name, line) in &op {
        if !req_names.contains(&name.as_str()) {
            out.push(Finding {
                rule: "wire",
                file: metrics_file.path.clone(),
                line: *line,
                message: format!(
                    "`Op::{name}` has no matching `Request` variant in {} — dead metrics \
                     entry; remove it or add the wire op",
                    proto_file.path
                ),
            });
        }
    }
}

/// Extract `(variant, line)` pairs from `enum <name> { .. }` in a
/// file, skipping attributes, discriminants, and variant payloads
/// (tuple or struct). Returns `None` when the file has no such enum.
fn enum_variants(file: &crate::Lexed, name: &str) -> Option<Vec<(String, u32)>> {
    let tokens = &file.tokens;
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if tokens[i].is_ident("enum") && tokens[i + 1].is_ident(name) && !file.in_test(i) {
            let open = (i + 2..tokens.len()).find(|&k| tokens[k].is_punct("{"))?;
            let close = matching_close(tokens, open);
            return Some(variants_in(&tokens[open + 1..close]));
        }
        i += 1;
    }
    None
}

fn variants_in(body: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        // Skip attributes on the variant.
        while body.get(i).is_some_and(|t| t.is_punct("#"))
            && body.get(i + 1).is_some_and(|t| t.is_punct("["))
        {
            i = matching_close(body, i + 1) + 1;
        }
        let Some(t) = body.get(i) else { break };
        if t.kind == TokenKind::Ident {
            out.push((t.text.clone(), t.line));
            i += 1;
            // Skip payload and/or discriminant up to the next comma at
            // this depth.
            while let Some(n) = body.get(i) {
                if n.is_punct("{") || n.is_punct("(") || n.is_punct("[") {
                    i = matching_close(body, i) + 1;
                } else if n.is_punct(",") {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The token span of `Op::ALL`'s initializer array: `ALL .. = [ .. ]`.
fn op_all_span(tokens: &[Token]) -> Option<(usize, usize)> {
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("ALL") {
            // const ALL: [Op; N] = [ ... ];
            let eq = (i..tokens.len().min(i + 16)).find(|&k| tokens[k].is_punct("="))?;
            let open = (eq..tokens.len().min(eq + 4)).find(|&k| tokens[k].is_punct("["))?;
            let close = matching_close(tokens, open);
            return Some((open + 1, close));
        }
        i += 1;
    }
    None
}
