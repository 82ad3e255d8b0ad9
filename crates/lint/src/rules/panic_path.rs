//! Rule `panics`: no `unwrap()` / `expect()` / `panic!` / `todo!` in
//! non-test code under the audited paths (the server request path and
//! the epoll event loop — a panic there takes down a worker or poisons a
//! lock for every other connection).
//!
//! The rule is zero: every such site is a finding, and nothing
//! grandfathers one in.
//!
//! `unwrap_or`, `unwrap_or_else`, `unwrap_or_default` are distinct
//! identifiers at the token level and never match. `assert!` family
//! macros are deliberately out of scope: they document invariants, and
//! banning them drives people to silent corruption instead.

use crate::lexer::TokenKind;
use crate::{Config, Finding, Workspace};

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// One finding per panic-capable site in audited non-test code.
pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.test_file {
            continue;
        }
        if !cfg
            .panic_paths
            .iter()
            .any(|p| file.path.starts_with(p.as_str()))
        {
            continue;
        }
        let tokens = &file.tokens;
        for idx in 0..tokens.len() {
            let t = &tokens[idx];
            if t.kind != TokenKind::Ident || file.in_test(idx) {
                continue;
            }
            let is_method = PANIC_METHODS.contains(&t.text.as_str())
                && idx > 0
                && tokens[idx - 1].is_punct(".")
                && tokens.get(idx + 1).is_some_and(|n| n.is_punct("("));
            let is_macro = PANIC_MACROS.contains(&t.text.as_str())
                && tokens.get(idx + 1).is_some_and(|n| n.is_punct("!"));
            let what = if is_method {
                format!(".{}()", t.text)
            } else if is_macro {
                format!("{}!", t.text)
            } else {
                continue;
            };
            out.push(Finding {
                rule: "panics",
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "panic-capable `{what}` on a non-test path; return a typed error or \
                     log-and-shed instead"
                ),
            });
        }
    }
}
