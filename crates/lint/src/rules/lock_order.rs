//! Rule `locks`: the cross-function lock-acquisition graph must be
//! acyclic.
//!
//! Per function, the rule tracks which lock classes are *held* at each
//! point: a `let`-bound guard (`let g = m.lock_unpoisoned();`) is held
//! until its block closes or an explicit `drop(g)`; a temporary
//! (`m.lock().len()`) acquires but holds nothing afterward. Every
//! acquisition performed while another class is held contributes a
//! directed edge `held → acquired`. Calls that can be resolved
//! propagate: the callee's *transitive* lock set (a fixpoint over the
//! whole workspace call graph) is edged from whatever the caller holds
//! at the call site. A call resolves to the function it names:
//!
//! * `self.f(..)` inside `impl T`, and `Self::f(..)` or `T::f(..)`, to
//!   `T`'s `f` (so a parser's `peek` is not the store's `peek`);
//! * bare `f(..)` and `module::f(..)` to the free functions named `f`
//!   (in any module: the scanner does not track `use` paths);
//! * a method on a field chain, `self.store.peek(..)`, whose receiver's
//!   type the scanner cannot see, to every function named `peek`.
//!
//! A cycle is reported at a line that nests two of its locks directly,
//! when it has one. Closure-taking wrappers whose guard never escapes
//! (`with_session`) are declared in `[locks.acquires]` and hold their
//! class for the span of their argument list, so edges out of the
//! closures they run are seen.
//!
//! Lock *classes* are receiver field names after `[locks.aliases]`
//! normalization (the store's `sessions` map is the `session_map`
//! class wherever it is locked). A cycle between classes — `session →
//! session_map` somewhere and `session_map → session` anywhere else —
//! is exactly an AB/BA deadlock shape and is reported with one example
//! site per edge. Same-class re-acquisition is reported too: it is a
//! self-deadlock on one mutex or an unordered pair of same-class
//! mutexes, and no lock in the workspace is a set taken in a fixed order.
//!
//! Known blind spot (documented, tested): a guard bound by `match
//! m.lock() {..}` scrutinee lives to the end of the match but is
//! treated as a temporary here. The workspace does not use that shape;
//! prefer `let` bindings for guards.

use super::{functions, is_keyword, receiver_of};
use crate::lexer::{matching_close, Token, TokenKind};
use crate::{Config, Finding, Workspace};
use std::collections::{BTreeMap, BTreeSet};

const ACQUIRE_METHODS: [&str; 4] = ["lock", "lock_unpoisoned", "read", "write"];

struct Holder {
    class: String,
    binding: Option<String>,
    depth: i32,
    /// Token index after which the holder expires (closure-wrapper
    /// spans); `usize::MAX` for ordinary guards.
    until: usize,
}

#[derive(Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    func: String,
    via: Option<String>,
}

/// A call site. `callee` is a function key (`T::f` for a method or
/// associated function, `f` for a free function) or, when `by_name`
/// (a method on a receiver of unknown type), every function named so.
struct Call {
    callee: String,
    by_name: bool,
    held: Vec<String>,
    file: String,
    line: u32,
    func: String,
}

#[derive(Default)]
struct FnData {
    direct: BTreeSet<String>,
    calls: Vec<Call>,
}

pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    let mut fns: BTreeMap<String, FnData> = BTreeMap::new();
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();

    for file in &ws.files {
        if file.test_file {
            continue;
        }
        let impls = impl_blocks(&file.tokens);
        for f in functions(file, true) {
            let ty = impls
                .iter()
                .filter(|(open, close, _)| *open < f.body.0 && f.body.0 < *close)
                .max_by_key(|(open, _, _)| *open)
                .map(|(_, _, ty)| ty.as_str());
            scan_fn(file, &f, ty, cfg, &mut fns, &mut edges);
        }
    }

    // Each call's target keys: the one it names, or every same-named one.
    let mut named: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for key in fns.keys() {
        named
            .entry(key.rsplit(':').next().unwrap_or(key))
            .or_default()
            .push(key);
    }
    let resolved: Vec<(&Call, Vec<&str>)> = fns
        .values()
        .flat_map(|data| &data.calls)
        .map(|call| {
            let keys = if call.by_name {
                named.get(call.callee.as_str()).cloned().unwrap_or_default()
            } else {
                vec![call.callee.as_str()]
            };
            (call, keys)
        })
        .collect();

    // Fixpoint: transitive lock set per function key.
    let mut trans: BTreeMap<String, BTreeSet<String>> = fns
        .iter()
        .map(|(key, d)| (key.clone(), d.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (call, keys) in &resolved {
            let add: BTreeSet<String> = keys
                .iter()
                .filter_map(|k| trans.get(*k))
                .flatten()
                .cloned()
                .collect();
            let mine = trans.entry(call.func.clone()).or_default();
            for c in add {
                changed |= mine.insert(c);
            }
        }
        if !changed {
            break;
        }
    }

    // Call edges: caller holds H, callee transitively locks T ⇒ H × T.
    for (call, keys) in &resolved {
        for to in keys.iter().filter_map(|k| trans.get(*k)).flatten() {
            for h in &call.held {
                edges
                    .entry((h.clone(), to.clone()))
                    .or_insert_with(|| EdgeSite {
                        file: call.file.clone(),
                        line: call.line,
                        func: call.func.clone(),
                        via: Some(call.callee.clone()),
                    });
            }
        }
    }

    // Self-loops are their own finding.
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for ((from, to), site) in &edges {
        if from == to {
            out.push(Finding {
                rule: "locks",
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "lock class `{from}` acquired while already held in `{}`{}",
                    site.func,
                    match &site.via {
                        Some(v) => format!(" (via call to `{v}`)"),
                        None => String::new(),
                    }
                ),
            });
            continue;
        }
        graph.entry(from.clone()).or_default().insert(to.clone());
    }

    for cycle in find_cycles(&graph) {
        let mut sites = Vec::new();
        for w in cycle.windows(2) {
            if let Some(site) = edges.get(&(w[0].clone(), w[1].clone())) {
                sites.push(format!(
                    "{}→{} at {}:{} in `{}`{}",
                    w[0],
                    w[1],
                    site.file,
                    site.line,
                    site.func,
                    match &site.via {
                        Some(v) => format!(" (call to `{v}`)"),
                        None => String::new(),
                    }
                ));
            }
        }
        // Point at a line that nests two of the locks itself, if the
        // cycle has one, rather than at a call whose callee takes one.
        let Some(first) = cycle
            .windows(2)
            .filter_map(|w| edges.get(&(w[0].clone(), w[1].clone())))
            .min_by_key(|site| site.via.is_some())
            .cloned()
        else {
            continue;
        };
        out.push(Finding {
            rule: "locks",
            file: first.file,
            line: first.line,
            message: format!(
                "lock-order cycle (potential AB/BA deadlock): {}; edges: {}",
                cycle.join(" → "),
                sites.join("; ")
            ),
        });
    }
}

/// The `impl` blocks of a file as `(open, close, type)`: the token span
/// of each body and the last path segment of the implementing type
/// (`Ticket` for `impl Drop for Ticket`, `Box` for `impl<T> S for Box<T>`).
fn impl_blocks(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        // An item, not `impl Trait` in a type position.
        let item = i == 0
            || matches!(
                tokens[i - 1].text.as_str(),
                "unsafe" | "}" | ";" | "]" | "{"
            );
        if !t.is_ident("impl") || !item {
            continue;
        }
        let (mut angle, mut ty, mut j) = (0i32, None, i + 1);
        while let Some(t) = tokens.get(j) {
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") && !tokens[j - 1].is_punct("-") {
                angle -= 1;
            } else if angle == 0 && (t.is_punct("{") || t.is_punct(";") || t.is_ident("where")) {
                break;
            } else if angle == 0 && t.kind == TokenKind::Ident {
                ty = (!t.is_ident("for")).then(|| t.text.clone());
            }
            j += 1;
        }
        let open = (j..tokens.len()).find(|&k| tokens[k].is_punct("{"));
        if let (Some(ty), Some(open)) = (ty, open) {
            out.push((open, matching_close(tokens, open), ty));
        }
    }
    out
}

fn scan_fn(
    file: &crate::Lexed,
    f: &super::FnSpan,
    impl_type: Option<&str>,
    cfg: &Config,
    fns: &mut BTreeMap<String, FnData>,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
) {
    let tokens = &file.tokens;
    let mut holders: Vec<Holder> = Vec::new();
    let mut depth: i32 = 0;
    // `f` within `impl T` is keyed `T::f`; a bare `self.f(..)` outside
    // one (in a trait's default method) is resolved by name.
    let method = |name: &str| match impl_type {
        Some(ty) => (format!("{ty}::{name}"), false),
        None => (name.to_string(), true),
    };
    let key = method(&f.name).0;
    let data = fns.entry(key.clone()).or_default();

    let mut idx = f.body.0 + 1;
    while idx < f.body.1 {
        holders.retain(|h| h.until > idx);
        let t = &tokens[idx];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            holders.retain(|h| h.depth < depth || h.until != usize::MAX);
            depth -= 1;
        } else if t.is_ident("drop")
            && tokens.get(idx + 1).is_some_and(|t| t.is_punct("("))
            && tokens
                .get(idx + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(idx + 3).is_some_and(|t| t.is_punct(")"))
        {
            let name = &tokens[idx + 2].text;
            if let Some(pos) = holders
                .iter()
                .rposition(|h| h.binding.as_deref() == Some(name.as_str()))
            {
                holders.remove(pos);
            }
            idx += 4;
            continue;
        } else if t.kind == TokenKind::Ident
            && ACQUIRE_METHODS.contains(&t.text.as_str())
            && idx > 0
            && tokens[idx - 1].is_punct(".")
            && tokens.get(idx + 1).is_some_and(|t| t.is_punct("("))
            && tokens.get(idx + 2).is_some_and(|t| t.is_punct(")"))
        {
            let (recv, _) = receiver_of(tokens, idx - 1);
            if let Some(recv) = recv {
                let class = cfg.lock_aliases.get(&recv).cloned().unwrap_or(recv);
                record_acquisition(&class, t.line, file, &key, &holders, data, edges);
                if let Some(binding) = let_binding(tokens, f.body.0, idx - 1) {
                    holders.push(Holder {
                        class,
                        binding,
                        depth,
                        until: usize::MAX,
                    });
                }
            }
            idx += 3;
            continue;
        } else if t.kind == TokenKind::Ident
            && tokens.get(idx + 1).is_some_and(|t| t.is_punct("("))
            && !is_keyword(&t.text)
        {
            if let Some(class) = cfg.lock_acquires.get(&t.text) {
                // Closure-taking wrapper: holds `class` for the span of
                // its argument list.
                record_acquisition(class, t.line, file, &key, &holders, data, edges);
                let close = matching_close(tokens, idx + 1);
                holders.push(Holder {
                    class: class.clone(),
                    binding: None,
                    depth,
                    until: close,
                });
                idx += 2;
                continue;
            }
            if !cfg.lock_ignore_calls.iter().any(|c| c == &t.text) {
                let name = t.text.as_str();
                let callee = if idx > 0 && tokens[idx - 1].is_punct(".") {
                    // Methods only when self-rooted.
                    match receiver_of(tokens, idx - 1) {
                        (Some(recv), true) if recv == "self" => Some(method(name)),
                        (_, true) => Some((name.to_string(), true)),
                        _ => None,
                    }
                } else if idx > 2 && tokens[idx - 1].is_punct(":") && tokens[idx - 2].is_punct(":")
                {
                    // `Self::f(..)`, `Type::f(..)` or `module::f(..)`.
                    let seg = &tokens[idx - 3];
                    Some(if seg.is_ident("Self") {
                        method(name)
                    } else if seg.text.starts_with(char::is_uppercase) {
                        (format!("{}::{name}", seg.text), false)
                    } else {
                        (name.to_string(), false)
                    })
                } else {
                    name.starts_with(|c: char| c.is_lowercase() || c == '_')
                        .then(|| (name.to_string(), false))
                };
                if let Some((callee, by_name)) = callee {
                    let held: Vec<String> = holders.iter().map(|h| h.class.clone()).collect();
                    data.calls.push(Call {
                        callee,
                        by_name,
                        held,
                        file: file.path.clone(),
                        line: t.line,
                        func: key.clone(),
                    });
                }
            }
        }
        idx += 1;
    }
}

fn record_acquisition(
    class: &str,
    line: u32,
    file: &crate::Lexed,
    func: &str,
    holders: &[Holder],
    data: &mut FnData,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
) {
    data.direct.insert(class.to_string());
    for h in holders {
        edges
            .entry((h.class.clone(), class.to_string()))
            .or_insert_with(|| EdgeSite {
                file: file.path.clone(),
                line,
                func: func.to_string(),
                via: None,
            });
    }
}

/// Is the acquisition ending at `anchor` (the `.` before the method)
/// the right-hand side of a `let` statement? Returns `Some(binding)`
/// when the guard is held (binding name when nameable), `None` for a
/// temporary. The walk-back skips matched groups; hitting an unmatched
/// `(` means we are inside an argument list — a temporary.
fn let_binding(
    tokens: &[crate::lexer::Token],
    body_start: usize,
    anchor: usize,
) -> Option<Option<String>> {
    let mut idx = anchor;
    let stmt_start = loop {
        if idx <= body_start {
            break body_start + 1;
        }
        idx -= 1;
        let t = &tokens[idx];
        if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            let open = crate::lexer::matching_open(tokens, idx);
            if open == idx {
                break idx + 1; // unmatched closer: give up at it
            }
            idx = open;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct(";") {
            break idx + 1;
        }
    };
    let mut k = stmt_start;
    while tokens
        .get(k)
        .is_some_and(|t| t.is_ident("if") || t.is_ident("while"))
    {
        k += 1;
    }
    if !tokens.get(k).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    k += 1;
    if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    match tokens.get(k) {
        Some(t) if t.kind == TokenKind::Ident => Some(Some(t.text.clone())),
        _ => Some(None),
    }
}

/// Enumerate simple cycles in a small digraph, normalized (rotated so
/// the lexicographically smallest node comes first, returned as
/// `[a, b, ..., a]` paths) and deduplicated.
fn find_cycles(graph: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in graph.keys() {
        let mut stack = vec![start.clone()];
        let mut on_stack: BTreeSet<String> = [start.clone()].into();
        dfs(
            graph,
            start,
            start,
            &mut stack,
            &mut on_stack,
            &mut found,
            0,
        );
    }
    found.into_iter().collect()
}

fn dfs(
    graph: &BTreeMap<String, BTreeSet<String>>,
    start: &str,
    node: &str,
    stack: &mut Vec<String>,
    on_stack: &mut BTreeSet<String>,
    found: &mut BTreeSet<Vec<String>>,
    depth: usize,
) {
    if depth > 16 {
        return; // class graphs are tiny; this bounds pathological input
    }
    let Some(nexts) = graph.get(node) else { return };
    for next in nexts {
        if next == start {
            let mut cycle = stack.clone();
            cycle.push(start.to_string());
            // Normalize: only record the rotation that starts at the
            // smallest node, so each cycle is reported once.
            if stack.iter().min().map(|m| m == start).unwrap_or(false) {
                found.insert(cycle);
            }
            continue;
        }
        if on_stack.contains(next) {
            continue;
        }
        stack.push(next.clone());
        on_stack.insert(next.clone());
        dfs(graph, start, next, stack, on_stack, found, depth + 1);
        stack.pop();
        on_stack.remove(next);
    }
}
