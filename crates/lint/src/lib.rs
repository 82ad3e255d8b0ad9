#![forbid(unsafe_code)]
//! # jim-lint — workspace invariants as machine-checked rules
//!
//! The ROADMAP's standing constraints (unsafe confined to one crate,
//! an acyclic lock order with no shared hot-path lock, a declared
//! atomic-ordering vocabulary) were enforced only by reviewer memory.
//! This crate turns them into a static-analysis pass that CI runs on
//! every push: `cargo run -p jim-lint -- --workspace --deny all`.
//!
//! Five rules, all built on the hand-rolled token scanner in
//! [`lexer`] (no crates.io access, so no `syn`):
//!
//! | rule      | invariant |
//! |-----------|-----------|
//! | `unsafe`  | `unsafe` only under `crates/aio/` |
//! | `locks`   | the cross-function lock-acquisition graph is acyclic (no AB/BA deadlock shapes) |
//! | `atomics` | every `Ordering::` use matches the per-field convention in `crates/lint/atomics.toml` |
//! | `panics`  | no `unwrap`/`expect`/`panic!`/`todo!` in non-test code on the audited paths (server, aio, the wire and CSV parsers) |
//! | `wire`    | every protocol op has a `ServerMetrics` per-op entry and a README protocol-table row |
//!
//! Rules are pure functions from a [`Workspace`] (lexed files + README
//! text) to [`Finding`]s, so every rule is unit-tested against inline
//! string fixtures — including deliberately seeded violations — without
//! touching the real tree.

pub mod lexer;
pub mod rules;

use lexer::{lex, matching_close, Token, TokenKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One source file, lexed, with its `#[cfg(test)]` spans resolved.
pub struct Lexed {
    /// Workspace-relative path with `/` separators (`crates/server/src/store.rs`).
    pub path: String,
    pub tokens: Vec<Token>,
    /// Half-open token-index ranges that are test-only code: bodies of
    /// `#[cfg(test)] mod`, `#[test] fn`, and `macro_rules!` definitions
    /// (macro bodies are patterns, not executed acquisition sites).
    test_spans: Vec<(usize, usize)>,
    /// True when the whole file is test/bench/example scaffolding by
    /// virtue of its path (`tests/`, `benches/`, `examples/`).
    pub test_file: bool,
}

impl Lexed {
    pub fn new(path: &str, src: &str) -> Lexed {
        let tokens = lex(src);
        let test_spans = find_test_spans(&tokens);
        let test_file = {
            let p = path;
            p.starts_with("tests/")
                || p.starts_with("benches/")
                || p.starts_with("examples/")
                || p.contains("/tests/")
                || p.contains("/benches/")
                || p.contains("/examples/")
        };
        Lexed {
            path: path.to_string(),
            tokens,
            test_spans,
            test_file,
        }
    }

    /// Is token `idx` inside test-only code?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_file
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| idx >= lo && idx < hi)
    }
}

/// Locate test-only token spans: the body of any `mod`/`fn` whose
/// attributes mention `test` outside a `not(...)` group, plus
/// `macro_rules!` bodies. Handles `#[cfg(test)]`, `#[cfg(all(test,
/// target_os = "linux"))]`, `#[test]`, and stacked attributes.
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("macro_rules") && tokens.get(i + 1).is_some_and(|t| t.is_punct("!")) {
            if let Some(open) = (i..tokens.len().min(i + 6)).find(|&k| tokens[k].is_punct("{")) {
                let close = matching_close(tokens, open);
                spans.push((open, close + 1));
                i = close + 1;
                continue;
            }
        }
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Scan a run of attributes; remember whether any is test-y.
            let mut testy = false;
            let mut j = i;
            while tokens.get(j).is_some_and(|t| t.is_punct("#"))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
            {
                let close = matching_close(tokens, j + 1);
                testy |= attr_mentions_test(&tokens[j + 2..close]);
                j = close + 1;
            }
            if testy {
                // Skip visibility / qualifiers to the item keyword.
                let mut k = j;
                while tokens.get(k).is_some_and(|t| {
                    t.kind == TokenKind::Ident
                        && matches!(t.text.as_str(), "pub" | "async" | "unsafe" | "const")
                }) || tokens.get(k).is_some_and(|t| t.is_punct("("))
                {
                    if tokens[k].is_punct("(") {
                        k = matching_close(tokens, k) + 1; // pub(crate)
                    } else {
                        k += 1;
                    }
                }
                if tokens
                    .get(k)
                    .is_some_and(|t| t.is_ident("mod") || t.is_ident("fn"))
                {
                    if let Some(open) = (k..tokens.len())
                        .find(|&m| tokens[m].is_punct("{") || tokens[m].is_punct(";"))
                    {
                        if tokens[open].is_punct("{") {
                            let close = matching_close(tokens, open);
                            spans.push((open, close + 1));
                            i = close + 1;
                            continue;
                        }
                    }
                }
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    spans
}

/// Does an attribute token list mention `test` outside `not(...)`?
/// `#[cfg(test)]` and `#[cfg(any(test, fuzzing))]` count;
/// `#[cfg(not(test))]` does not.
fn attr_mentions_test(attr: &[Token]) -> bool {
    let mut stack: Vec<String> = Vec::new();
    let mut prev_ident: Option<&str> = None;
    for t in attr {
        if t.is_punct("(") {
            stack.push(prev_ident.unwrap_or("").to_string());
            prev_ident = None;
        } else if t.is_punct(")") {
            stack.pop();
        } else if t.kind == TokenKind::Ident {
            if t.text == "test" && !stack.iter().any(|g| g == "not") {
                return true;
            }
            prev_ident = Some(&t.text);
        } else {
            prev_ident = None;
        }
    }
    false
}

/// Everything a rule can see: the lexed `.rs` files plus the README
/// (for the wire-ops protocol-table check).
pub struct Workspace {
    pub files: Vec<Lexed>,
    pub readme: String,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, source)` pairs — the
    /// fixture entry point used by every rule test.
    pub fn from_sources(files: &[(&str, &str)], readme: &str) -> Workspace {
        Workspace {
            files: files.iter().map(|(p, s)| Lexed::new(p, s)).collect(),
            readme: readme.to_string(),
        }
    }

    /// Walk a real tree rooted at `root`, lexing every `.rs` file
    /// outside `target/` and `.git/`, and reading `README.md`.
    pub fn from_root(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        collect_rs(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for rel in &paths {
            let src = std::fs::read_to_string(root.join(rel))?;
            files.push(Lexed::new(rel, &src));
        }
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
        Ok(Workspace { files, readme })
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "node_modules" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// One rule violation, pointed at a file:line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Parsed lint configuration (from `crates/lint/lint.toml` and
/// `crates/lint/atomics.toml`).
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes where `unsafe` is allowed.
    pub unsafe_allow: Vec<String>,
    /// Receiver-name → lock-class aliases (different local names for the
    /// same `Mutex` map to one class).
    pub lock_aliases: BTreeMap<String, String>,
    /// Callee names the lock rule must not resolve through — std-library
    /// collisions like `insert` or `get` that would wire unrelated
    /// functions into the acquisition graph.
    pub lock_ignore_calls: Vec<String>,
    /// Helper functions that acquire and hold a lock class for the
    /// duration of their argument list (closure-taking wrappers such
    /// as `with_session`): fn name → class. Without this, a lock whose
    /// guard never escapes the helper would hide every edge out of the
    /// closures it runs.
    pub lock_acquires: BTreeMap<String, String>,
    /// Path prefixes the panic rule audits.
    pub panic_paths: Vec<String>,
    /// Atomic field/static name → allowed `Ordering` variants.
    pub atomics: BTreeMap<String, Vec<String>>,
}

impl Config {
    /// Load the committed configuration from `crates/lint/` under `root`.
    pub fn load(root: &Path) -> Result<Config, String> {
        let dir = root.join("crates/lint");
        let lint = read_required(&dir.join("lint.toml"))?;
        let atomics = read_required(&dir.join("atomics.toml"))?;
        Config::parse(&lint, &atomics)
    }

    /// Parse configuration from in-memory text (fixture entry point).
    pub fn parse(lint: &str, atomics: &str) -> Result<Config, String> {
        let lint = parse_toml(lint)?;
        let atomics_doc = parse_toml(atomics)?;
        let mut cfg = Config {
            unsafe_allow: lint.list("unsafe", "allow"),
            lock_ignore_calls: lint.list("locks", "ignore_calls"),
            panic_paths: lint.list("panic", "paths"),
            ..Config::default()
        };
        for (k, v) in lint.section("locks.aliases") {
            if let TomlValue::Str(s) = v {
                cfg.lock_aliases.insert(k.clone(), s.clone());
            }
        }
        for (k, v) in lint.section("locks.acquires") {
            if let TomlValue::Str(s) = v {
                cfg.lock_acquires.insert(k.clone(), s.clone());
            }
        }
        for (k, v) in atomics_doc.section("") {
            if let TomlValue::List(items) = v {
                cfg.atomics.insert(k.clone(), items.clone());
            }
        }
        Ok(cfg)
    }
}

fn read_required(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The subset of TOML this crate needs: comments, `[section]` /
/// `[a.b]` headers, `key = "string"`, `key = ["a", "b"]`, bare and
/// quoted keys. No inline tables, no multi-line strings.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    Str(String),
    List(Vec<String>),
}

pub struct TomlDoc {
    /// (section, key) → value; top-level keys use section `""`.
    entries: Vec<(String, String, TomlValue)>,
}

impl TomlDoc {
    pub fn section<'a>(&'a self, name: &str) -> Vec<(&'a String, &'a TomlValue)> {
        self.entries
            .iter()
            .filter(|(s, _, _)| s == name)
            .map(|(_, k, v)| (k, v))
            .collect()
    }

    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        self.entries
            .iter()
            .find(|(s, k, _)| s == section && k == key)
            .map(|(_, _, v)| match v {
                TomlValue::List(items) => items.clone(),
                TomlValue::Str(s) => vec![s.clone()],
            })
            .unwrap_or_default()
    }
}

pub fn parse_toml(text: &str) -> Result<TomlDoc, String> {
    let mut entries = Vec::new();
    let mut section = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].trim().to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("toml line {}: expected `key = value`", lineno + 1))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        let parsed = if value.starts_with('[') {
            if !value.ends_with(']') {
                return Err(format!("toml line {}: unclosed list", lineno + 1));
            }
            let inner = &value[1..value.len() - 1];
            let items = inner
                .split(',')
                .map(|s| s.trim().trim_matches('"').to_string())
                .filter(|s| !s.is_empty())
                .collect();
            TomlValue::List(items)
        } else {
            TomlValue::Str(value.trim_matches('"').to_string())
        };
        entries.push((section.clone(), key, parsed));
    }
    Ok(TomlDoc { entries })
}

/// Strip a `#` comment, but not a `#` inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The registered rule set, in report order.
pub const RULES: [&str; 5] = ["unsafe", "locks", "atomics", "panics", "wire"];

/// Run every rule over the workspace. Rule selection (allow/deny) is a
/// presentation concern handled by the caller — the scan is always full.
pub fn run_all(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    rules::unsafe_confinement::check(ws, cfg, &mut out);
    rules::lock_order::check(ws, cfg, &mut out);
    rules::atomics::check(ws, cfg, &mut out);
    rules::panic_path::check(ws, cfg, &mut out);
    rules::wire_ops::check(ws, cfg, &mut out);
    out.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    out
}

/// Locate the workspace root: `--root` if given, else walk up from the
/// current directory to the first `Cargo.toml` containing `[workspace]`.
pub fn find_root(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(r) = explicit {
        return Ok(PathBuf::from(r));
    }
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(
                "no workspace Cargo.toml found above the current directory; \
                        pass --root"
                    .into(),
            );
        }
    }
}

/// Minimal JSON string escaping for the machine-readable output (the
/// crate is dependency-free by design, so it does not pull jim-json).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
