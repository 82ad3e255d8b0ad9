//! Fixture tests for every jim-lint rule, the lexer's lying-text edge
//! cases, and the mini-TOML config parser.
//!
//! Fixtures are inline strings (never on-disk `.rs` files) so a clean
//! `jim-lint --workspace --deny all` run over the real tree stays clean:
//! the lexer drops string contents, so the deliberately seeded
//! violations below are invisible to the workspace scan.

#![forbid(unsafe_code)]

use jim_lint::lexer::{lex, TokenKind};
use jim_lint::rules::{atomics, lock_order, panic_path, unsafe_confinement, wire_ops};
use jim_lint::{json_escape, parse_toml, run_all, Config, Finding, TomlValue, Workspace};

/// A config with the shapes the fixtures below rely on.
fn test_config() -> Config {
    Config::parse(
        r#"
[unsafe]
allow = ["crates/aio/", "crates/simd/src/avx2.rs"]

[locks]
ignore_calls = ["new", "push", "len", "insert"]

[locks.aliases]
s = "shard"
shard = "shard"

[locks.acquires]
with_session = "session"

[panic]
paths = ["crates/server/src"]
"#,
        r#"
triggered = ["SeqCst"]
count = ["Relaxed"]
"Counter.0" = ["Relaxed"]
"#,
    )
    .expect("fixture config parses")
}

fn findings_of(
    rule: fn(&Workspace, &Config, &mut Vec<Finding>),
    files: &[(&str, &str)],
    readme: &str,
    cfg: &Config,
) -> Vec<Finding> {
    let ws = Workspace::from_sources(files, readme);
    let mut out = Vec::new();
    rule(&ws, cfg, &mut out);
    out
}

// ---------------------------------------------------------------- lexer

#[test]
fn lexer_drops_strings_and_comments_that_mention_unsafe() {
    let src = r##"
// unsafe in a line comment
/* unsafe /* nested block, still unsafe */ comment */
fn f() {
    let a = "unsafe { }";
    let b = r#"unsafe in a raw string with "quotes" inside"#;
    let c = b"unsafe bytes";
    let d = br#"unsafe raw bytes"#;
}
"##;
    let cfg = test_config();
    let out = findings_of(
        unsafe_confinement::check,
        &[("crates/server/src/x.rs", src)],
        "",
        &cfg,
    );
    assert!(out.is_empty(), "string/comment text is not code: {out:?}");
}

#[test]
fn lexer_flags_a_real_unsafe_token_with_its_line() {
    let src = "fn f() {\n    let p = 0 as *const u8;\n    unsafe { p.read() };\n}\n";
    let cfg = test_config();
    let out = findings_of(
        unsafe_confinement::check,
        &[("crates/server/src/x.rs", src)],
        "",
        &cfg,
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].line, 3);
    assert_eq!(out[0].rule, "unsafe");
}

#[test]
fn lexer_allows_unsafe_under_allowlisted_prefixes() {
    let src = "pub fn f() { unsafe { core::arch::x86_64::_mm_pause() } }";
    let cfg = test_config();
    let out = findings_of(
        unsafe_confinement::check,
        &[("crates/aio/src/lib.rs", src)],
        "",
        &cfg,
    );
    assert!(out.is_empty());
}

#[test]
fn lexer_distinguishes_char_literals_from_lifetimes() {
    let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["'a", "'a"]);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Literal && t.text == "'…'"));
}

#[test]
fn lexer_handles_escaped_char_and_raw_hash_counts() {
    // '\'' must not desynchronize the scan; r##"…"## needs two hashes.
    let toks = lex(r####"fn f() { let q = '\''; let s = r##"a "# b"##; q }"####);
    let idents: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    // The trailing `q` proves the lexer resynchronized after both.
    assert_eq!(idents, ["fn", "f", "let", "q", "let", "s", "q"]);
}

#[test]
fn lexer_counts_the_lines_of_string_continuations() {
    let toks = lex("fn f() {\n    g(\"a \\\n     b\");\n    h();\n}\n");
    let h = toks.iter().find(|t| t.is_ident("h")).expect("h");
    assert_eq!(h.line, 4);
}

#[test]
fn lexer_keeps_range_dots_but_merges_float_dots() {
    let toks = lex("for i in 1..n { let x = 1.5; }");
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Literal && t.text == "1"));
    assert_eq!(toks.iter().filter(|t| t.is_punct(".")).count(), 2);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Literal && t.text == "1.5"));
}

#[test]
fn lexer_unescapes_raw_identifiers() {
    let toks = lex("fn r#match() { r#match() }");
    assert_eq!(
        toks.iter().filter(|t| t.is_ident("match")).count(),
        2,
        "r#match lexes as the ident `match`: {toks:?}"
    );
}

// ---------------------------------------------------- test-span detection

#[test]
fn cfg_test_spans_exclude_tests_but_not_cfg_not_test() {
    let src = r#"
fn real(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(test)]
mod tests {
    fn helper(x: Option<u32>) -> u32 { x.unwrap() }
}

#[cfg(all(test, target_os = "linux"))]
mod linux_tests {
    fn helper(x: Option<u32>) -> u32 { x.unwrap() }
}

#[cfg(not(test))]
fn prod(x: Option<u32>) -> u32 { x.unwrap() }

#[test]
fn a_test() { assert_eq!(Some(1).unwrap(), 1); }

macro_rules! m {
    ($x:expr) => { $x.unwrap() };
}
"#;
    let cfg = test_config();
    let out = findings_of(
        panic_path::check,
        &[("crates/server/src/a.rs", src)],
        "",
        &cfg,
    );
    // Only `real` (line 2) and the cfg(not(test)) `prod` (line 15)
    // count; mod tests, cfg(all(test,..)), #[test] fn, and the
    // macro_rules body are all excluded.
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![2, 15], "{out:?}");
}

#[test]
fn files_under_tests_dirs_are_test_files_wholesale() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let cfg = test_config();
    let out = findings_of(
        panic_path::check,
        &[("crates/server/src/tests/fixture.rs", src)],
        "",
        &cfg,
    );
    assert!(out.is_empty());
}

// ------------------------------------------------------------ lock order

/// Shorthand: run the locks rule over one non-test file.
fn lock_findings(src: &str, cfg: &Config) -> Vec<Finding> {
    findings_of(
        lock_order::check,
        &[("crates/server/src/l.rs", src)],
        "",
        cfg,
    )
}

#[test]
fn seeded_ab_ba_cycle_is_a_deadlock_finding() {
    let src = r#"
impl S {
    fn ab(&self) {
        let g = self.alpha.lock();
        let h = self.beta.lock();
        h.len()
    }
    fn ba(&self) {
        let g = self.beta.lock();
        let h = self.alpha.lock();
        h.len()
    }
}
"#;
    let cfg = test_config();
    let out = lock_findings(src, &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("lock-order cycle"));
    assert!(out[0].message.contains("alpha → beta → alpha"));
    // Both edge sites are named so the report is actionable.
    assert!(out[0].message.contains(":5 "), "{}", out[0].message);
    assert!(out[0].message.contains(":10 "), "{}", out[0].message);
}

#[test]
fn dropping_the_guard_breaks_the_edge() {
    let src = r#"
impl S {
    fn ab(&self) {
        let g = self.alpha.lock();
        drop(g);
        let h = self.beta.lock();
    }
    fn ba(&self) {
        let g = self.beta.lock();
        let h = self.alpha.lock();
    }
}
"#;
    let cfg = test_config();
    assert!(lock_findings(src, &cfg).is_empty());
}

#[test]
fn scope_end_releases_the_guard() {
    let src = r#"
impl S {
    fn ab(&self) {
        { let g = self.alpha.lock(); }
        let h = self.beta.lock();
    }
    fn ba(&self) {
        let g = self.beta.lock();
        let h = self.alpha.lock();
    }
}
"#;
    let cfg = test_config();
    assert!(lock_findings(src, &cfg).is_empty());
}

#[test]
fn a_temporary_acquires_but_holds_nothing() {
    let src = r#"
impl S {
    fn ab(&self) {
        self.alpha.lock().insert(1);
        let h = self.beta.lock();
    }
    fn ba(&self) {
        let g = self.beta.lock();
        let h = self.alpha.lock();
    }
}
"#;
    let cfg = test_config();
    assert!(lock_findings(src, &cfg).is_empty());
}

#[test]
fn same_class_reacquisition_is_a_self_loop() {
    let src = r#"
impl S {
    fn nested(&self) {
        let g = self.session.lock();
        let h = self.session.lock();
    }
}
"#;
    let cfg = test_config();
    let out = lock_findings(src, &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("acquired while already held"));
}

#[test]
fn aliases_normalize_receivers_into_one_class() {
    // `s` aliases to `shard`, so these two functions form a cycle.
    let src = r#"
impl S {
    fn one(&self) {
        let g = self.s.lock();
        let h = self.inbox.lock();
    }
    fn two(&self) {
        let g = self.inbox.lock();
        let h = self.shard.lock();
    }
}
"#;
    let cfg = test_config();
    let out = lock_findings(src, &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("inbox → shard → inbox"));

    // Without the alias the receivers are distinct classes: no cycle.
    let mut unaliased = test_config();
    unaliased.lock_aliases.clear();
    assert!(lock_findings(src, &unaliased).is_empty());
}

#[test]
fn cross_function_edges_propagate_through_resolvable_calls() {
    let src = r#"
impl S {
    fn outer(&self) {
        let g = self.alpha.lock();
        self.helper();
    }
    fn helper(&self) {
        let h = self.beta.lock();
    }
    fn reverse(&self) {
        let g = self.beta.lock();
        let h = self.alpha.lock();
    }
}
"#;
    let cfg = test_config();
    let out = lock_findings(src, &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("lock-order cycle"));
    assert!(
        out[0].message.contains("`S::helper`"),
        "the call edge names the callee: {}",
        out[0].message
    );
}

#[test]
fn a_call_resolves_to_the_function_it_names() {
    // Two methods called `peek`; only the store's locks. The parser's
    // `self.peek()`, `Parser::peek()` and `Self::peek()` calls name the
    // parser's, so holding `beta` across them adds no `beta → sessions`
    // edge, and `reverse` closes no cycle.
    let src = r#"
impl Store {
    fn peek(&self) {
        let g = self.sessions.lock();
    }
}
impl Parser {
    fn peek(&self) -> u8 {
        0
    }
    fn value(&self) {
        let g = self.beta.lock();
        self.peek();
        Parser::peek(self);
        Self::peek(self);
    }
}
impl Store {
    fn reverse(&self) {
        let g = self.sessions.lock();
        let h = self.beta.lock();
    }
}
"#;
    let cfg = test_config();
    assert!(lock_findings(src, &cfg).is_empty());

    // The store's `peek`, named by its type or reached through a field
    // of unknown type, does lock: both close the cycle.
    for call in ["Store::peek(self);", "self.store.peek();"] {
        let src = src.replace("Self::peek(self);", call);
        let out = lock_findings(&src, &cfg);
        assert_eq!(out.len(), 1, "{call}: {out:?}");
        assert!(
            out[0].message.contains("beta → sessions → beta"),
            "{call}: {}",
            out[0].message
        );
        assert!(
            out[0].message.contains(":15 in `Parser::value`"),
            "{}",
            out[0].message
        );
    }
}

#[test]
fn closure_taking_wrappers_hold_their_declared_class() {
    // `with_session` is declared in [locks.acquires]: the lock taken
    // inside its closure argument is an edge session → alpha, which
    // cycles with `reverse`'s alpha → session.
    let src = r#"
impl S {
    fn outer(&self) {
        with_session(id, |s| {
            let g = self.alpha.lock();
            g.len()
        });
    }
    fn reverse(&self) {
        let g = self.alpha.lock();
        let h = self.session.lock();
    }
}
"#;
    let cfg = test_config();
    let out = lock_findings(src, &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("alpha → session → alpha"));
}

#[test]
fn macro_rules_bodies_are_not_acquisition_sites() {
    let src = r#"
macro_rules! locked {
    ($m:expr) => {{
        let g = $m.alpha.lock();
        let h = $m.beta.lock();
    }};
}
impl S {
    fn reverse(&self) {
        let g = self.beta.lock();
        let h = self.alpha.lock();
    }
}
"#;
    let cfg = test_config();
    assert!(lock_findings(src, &cfg).is_empty());
}

// --------------------------------------------------------------- atomics

#[test]
fn atomics_enforce_the_declared_convention() {
    let src = r#"
impl S {
    fn ok(&self) {
        self.triggered.store(true, Ordering::SeqCst);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
    fn weakened(&self) {
        self.triggered.store(true, Ordering::Relaxed);
    }
}
"#;
    let cfg = test_config();
    let out = findings_of(atomics::check, &[("crates/server/src/a.rs", src)], "", &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("violates its declared convention"));
    assert!(out[0].message.contains("SeqCst"));
    assert_eq!(out[0].line, 8);
}

#[test]
fn undeclared_atomic_fields_are_their_own_finding() {
    let src = "fn f(m: &M) { m.mystery.load(Ordering::Acquire); }";
    let cfg = test_config();
    let out = findings_of(atomics::check, &[("crates/server/src/a.rs", src)], "", &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("no declared ordering convention"));
}

#[test]
fn cmp_ordering_variants_never_match() {
    let src = r#"
fn f(a: &u32, b: &u32) -> bool {
    a.cmp(b) == Ordering::Less || a.cmp(b) == Ordering::Greater
}
fn g(a: &u32, b: &u32) -> Ordering { Ordering::Equal }
"#;
    let cfg = test_config();
    let out = findings_of(atomics::check, &[("crates/server/src/a.rs", src)], "", &cfg);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn tuple_struct_receivers_key_as_type_dot_index() {
    let src = r#"
pub struct Counter(AtomicU64);
impl Counter {
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    pub fn wrong(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}
"#;
    let cfg = test_config();
    let out = findings_of(atomics::check, &[("crates/server/src/a.rs", src)], "", &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("`Counter.0`"), "{}", out[0].message);
    assert_eq!(out[0].line, 8);
}

#[test]
fn orderings_outside_atomic_calls_are_flagged() {
    let src = "fn f() -> Ordering { Ordering::SeqCst }";
    let cfg = test_config();
    let out = findings_of(atomics::check, &[("crates/server/src/a.rs", src)], "", &cfg);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0]
        .message
        .contains("outside a recognized atomic operation"));
}

// ---------------------------------------------------------------- panics

#[test]
fn panic_sites_over_baseline_fail_per_site() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a != b { panic!("impossible") }
    a
}
"#;
    let cfg = test_config();
    let out = findings_of(
        panic_path::check,
        &[("crates/server/src/p.rs", src)],
        "",
        &cfg,
    );
    // The rule is zero: each of the three sites is its own finding.
    assert_eq!(out.len(), 3, "{out:?}");
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, [3, 4, 5], "{out:?}");
    assert!(out[0].message.contains("`.unwrap()`"), "{out:?}");
}

#[test]
fn unwrap_or_family_never_matches() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
}
"#;
    let cfg = test_config();
    let out = findings_of(
        panic_path::check,
        &[("crates/server/src/p.rs", src)],
        "",
        &cfg,
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn files_outside_the_audited_paths_are_not_scanned() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let cfg = test_config();
    let out = findings_of(
        panic_path::check,
        &[("crates/core/src/p.rs", src)],
        "",
        &cfg,
    );
    assert!(out.is_empty());
}

// ------------------------------------------------------------------ wire

const PROTO_OK: &str = r#"
pub enum Request {
    Ping { payload: u64 },
    Stats,
}
"#;

const METRICS_OK: &str = r#"
pub enum Op { Ping, Stats }
impl Op {
    pub const ALL: [Op; 2] = [Op::Ping, Op::Stats];
}
"#;

const README_OK: &str = "\
| op | meaning |\n\
|----|---------|\n\
| `Ping` | round trip |\n\
| `Stats` | engine statistics |\n";

#[test]
fn consistent_wire_surfaces_are_clean() {
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", PROTO_OK),
            ("crates/server/src/metrics.rs", METRICS_OK),
        ],
        README_OK,
        &cfg,
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn a_wire_op_missing_from_the_metrics_ledger_is_flagged() {
    let metrics = "pub enum Op { Ping }\nimpl Op { pub const ALL: [Op; 1] = [Op::Ping]; }";
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", PROTO_OK),
            ("crates/server/src/metrics.rs", metrics),
        ],
        README_OK,
        &cfg,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("`Stats` has no per-op `Op` entry"));
}

#[test]
fn an_op_missing_from_op_all_is_flagged() {
    let metrics = "pub enum Op { Ping, Stats }\nimpl Op { pub const ALL: [Op; 1] = [Op::Ping]; }";
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", PROTO_OK),
            ("crates/server/src/metrics.rs", metrics),
        ],
        README_OK,
        &cfg,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("missing from `Op::ALL`"));
}

#[test]
fn a_wire_op_missing_its_readme_row_is_flagged() {
    let readme = "| op | meaning |\n| `Ping` | round trip |\n";
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", PROTO_OK),
            ("crates/server/src/metrics.rs", METRICS_OK),
        ],
        readme,
        &cfg,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("no README protocol-table row"));
    // Mentioning `Stats` in prose (not a table row) does not count.
    let prose = format!("{readme}\nThe Stats op returns statistics.\n");
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", PROTO_OK),
            ("crates/server/src/metrics.rs", METRICS_OK),
        ],
        &prose,
        &cfg,
    );
    assert_eq!(out.len(), 1, "{out:?}");
}

#[test]
fn dead_metrics_entries_are_flagged() {
    let metrics = "pub enum Op { Ping, Stats, Retired }\n\
                   impl Op { pub const ALL: [Op; 3] = [Op::Ping, Op::Stats, Op::Retired]; }";
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", PROTO_OK),
            ("crates/server/src/metrics.rs", metrics),
        ],
        README_OK,
        &cfg,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0]
        .message
        .contains("`Op::Retired` has no matching `Request` variant"));
}

#[test]
fn workspaces_without_a_request_enum_skip_the_rule() {
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[("crates/server/src/l.rs", "fn f() {}")],
        "",
        &cfg,
    );
    assert!(out.is_empty());
}

#[test]
fn enum_variants_skip_attributes_payloads_and_discriminants() {
    let proto = r#"
pub enum Request {
    #[deprecated = "old"]
    Ping { payload: u64, extra: Vec<String> },
    Stats = 7,
}
"#;
    let cfg = test_config();
    let out = findings_of(
        wire_ops::check,
        &[
            ("crates/server/src/protocol.rs", proto),
            ("crates/server/src/metrics.rs", METRICS_OK),
        ],
        README_OK,
        &cfg,
    );
    assert!(
        out.is_empty(),
        "payload fields must not read as variants: {out:?}"
    );
}

// ------------------------------------------------------- config plumbing

#[test]
fn mini_toml_parses_sections_lists_and_quoted_keys() {
    let doc = parse_toml(
        r##"
# leading comment
top = "value with # inside"

[a.b]
"quoted.key" = ["x", "y"]  # trailing comment
plain = "z"
"##,
    )
    .expect("parses");
    assert_eq!(doc.list("", "top"), vec!["value with # inside".to_string()]);
    assert_eq!(
        doc.list("a.b", "quoted.key"),
        vec!["x".to_string(), "y".to_string()]
    );
    let section = doc.section("a.b");
    assert_eq!(section.len(), 2);
    assert_eq!(
        section[1],
        (&"plain".to_string(), &TomlValue::Str("z".to_string()))
    );
}

#[test]
fn run_all_orders_findings_by_rule_file_line() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    let p = x.unwrap();
    unsafe { core::hint::unreachable_unchecked() }
}
"#;
    let cfg = test_config();
    let ws = Workspace::from_sources(&[("crates/server/src/z.rs", src)], "");
    let out = run_all(&ws, &cfg);
    let rules: Vec<&str> = out.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["panics", "unsafe"], "{out:?}");
    assert!(out[1]
        .render()
        .starts_with("crates/server/src/z.rs:4: [unsafe]"));
}

#[test]
fn json_escape_covers_quotes_backslashes_and_control_chars() {
    assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
    assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
    assert_eq!(json_escape("\u{1}"), "\\u0001");
}
