//! Rule `unsafe`: the `unsafe` keyword may appear only under the
//! allowlisted paths — `crates/aio/`, the epoll FFI (this crate's own
//! fixtures aside). Everything else in the workspace
//! — including tests, benches, and examples — must be safe Rust; the
//! satellite `#![forbid(unsafe_code)]` attributes make rustc enforce
//! the same thing per crate, and this rule closes the gap for files
//! (integration tests, examples) that are their own crate roots.
//!
//! The lexer guarantees `unsafe` inside strings, raw strings, and
//! comments never reaches this rule.

use crate::{Config, Finding, Workspace};

pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if cfg
            .unsafe_allow
            .iter()
            .any(|prefix| file.path.starts_with(prefix.as_str()))
        {
            continue;
        }
        for t in &file.tokens {
            if t.is_ident("unsafe") {
                out.push(Finding {
                    rule: "unsafe",
                    file: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "`unsafe` outside the allowlisted surfaces ({}); either remove it or \
                         move the unsafe core behind a safe wrapper in an allowlisted module",
                        cfg.unsafe_allow.join(", ")
                    ),
                });
            }
        }
    }
}
