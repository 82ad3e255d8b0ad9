//! Rule `locks`: the cross-function lock-acquisition graph must be
//! acyclic.
//!
//! Per function, the rule tracks which lock classes are *held* at each
//! point: a `let`-bound guard (`let g = m.lock_unpoisoned();`) is held
//! until its block closes or an explicit `drop(g)`; a temporary
//! (`m.lock().len()`) acquires but holds nothing afterward. Every
//! acquisition performed while another class is held contributes a
//! directed edge `held → acquired`. Calls that can be resolved by name
//! (methods rooted at `self`, `Type::method(..)`, bare lowercase
//! `helper(..)`) propagate: the callee's *transitive* lock set (a
//! fixpoint over the whole workspace call graph) is edged from
//! whatever the caller holds at the call site. Closure-taking wrappers
//! whose guard never escapes (`with_session`) are declared in
//! `[locks.acquires]` and hold their class for the span of their
//! argument list, so edges out of the closures they run are seen.
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
use crate::lexer::{matching_close, TokenKind};
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

#[derive(Default)]
struct FnData {
    direct: BTreeSet<String>,
    calls: Vec<(String, Vec<String>, String, u32, String)>, // callee, held, file, line, fn
}

pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    let mut fns: BTreeMap<String, FnData> = BTreeMap::new();
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();

    for file in &ws.files {
        if file.test_file {
            continue;
        }
        for f in functions(file, true) {
            scan_fn(file, &f, cfg, &mut fns, &mut edges);
        }
    }

    // Fixpoint: transitive lock set per function name.
    let mut trans: BTreeMap<String, BTreeSet<String>> = fns
        .iter()
        .map(|(name, d)| (name.clone(), d.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, data) in &fns {
            let mut add = BTreeSet::new();
            for (callee, _, _, _, _) in &data.calls {
                if let Some(t) = trans.get(callee) {
                    add.extend(t.iter().cloned());
                }
            }
            let mine = trans.entry(name.clone()).or_default();
            for c in add {
                changed |= mine.insert(c);
            }
        }
        if !changed {
            break;
        }
    }

    // Call edges: caller holds H, callee transitively locks T ⇒ H × T.
    for data in fns.values() {
        for (callee, held, file, line, func) in &data.calls {
            if held.is_empty() {
                continue;
            }
            let Some(t) = trans.get(callee) else { continue };
            for h in held {
                for to in t {
                    edges
                        .entry((h.clone(), to.clone()))
                        .or_insert_with(|| EdgeSite {
                            file: file.clone(),
                            line: *line,
                            func: func.clone(),
                            via: Some(callee.clone()),
                        });
                }
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
        let first = edges
            .get(&(cycle[0].clone(), cycle[1].clone()))
            .cloned()
            .unwrap_or(EdgeSite {
                file: String::new(),
                line: 0,
                func: String::new(),
                via: None,
            });
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

fn scan_fn(
    file: &crate::Lexed,
    f: &super::FnSpan,
    cfg: &Config,
    fns: &mut BTreeMap<String, FnData>,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
) {
    let tokens = &file.tokens;
    let mut holders: Vec<Holder> = Vec::new();
    let mut depth: i32 = 0;
    let data = fns.entry(f.name.clone()).or_default();

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
                record_acquisition(&class, t.line, file, f, &holders, data, edges);
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
                record_acquisition(class, t.line, file, f, &holders, data, edges);
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
                let resolvable = if idx > 0 && tokens[idx - 1].is_punct(".") {
                    receiver_of(tokens, idx - 1).1 // methods only when self-rooted
                } else if idx > 0 && tokens[idx - 1].is_punct(":") {
                    true // Type::method(..) / path::helper(..)
                } else {
                    t.text.starts_with(|c: char| c.is_lowercase() || c == '_')
                };
                if resolvable {
                    let held: Vec<String> = holders.iter().map(|h| h.class.clone()).collect();
                    data.calls.push((
                        t.text.clone(),
                        held,
                        file.path.clone(),
                        t.line,
                        f.name.clone(),
                    ));
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
    f: &super::FnSpan,
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
                func: f.name.clone(),
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
