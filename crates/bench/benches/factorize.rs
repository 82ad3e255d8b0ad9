//! Factorized-construction bench: the headline experiment of the
//! full-fidelity path — build an engine over products from 10⁶ up to
//! 10¹² tuples and show that **build cost stays flat in product size**
//! (it scales with the base relations' block structure instead), while
//! `Engine::new` — measured at the smallest sizes only, where it is
//! still feasible — pays for every product tuple.
//!
//! Two series:
//!
//! * `social_log` — `follows_log(32, events, ·)` self-joined: an
//!   event-log-shaped edge stream whose distinct-row count saturates at
//!   `32·31` no matter how long the log runs. `events` sweeps 10³→10⁶,
//!   so the product sweeps 10⁶→10¹².
//! * `tpch` — `customer × orders` at scale 30→3000 (product
//!   1.2·10⁶→1.2·10¹⁰): key-joined relations whose blocks are the rows
//!   themselves, the adversarial end for factorization (cost grows with
//!   rows — but rows grow with √product, so the build still flattens).
//!
//! After each factorized build, a full goal-driven session resolves the
//! instance and the per-question step cost is reported — inference over
//! counted groups must stay interactive at 10¹² tuples.
//!
//! This bench needs the measured numbers (to emit
//! `BENCH_factorized.json` at the workspace root; `--out <path>`
//! overrides, `--no-write` skips), so it carries its own `Instant`-based
//! harness and prints the shim's `bench …: … ns/iter` lines.

#![forbid(unsafe_code)]

use jim_core::session::run_most_informative;
use jim_core::strategy::StrategyKind;
use jim_core::{Engine, EngineOptions, GoalOracle, JoinPredicate};
use jim_relation::{IntoSharedRelation, Product};
use jim_synth::{social, tpch};
use std::time::Instant;

/// Minimum over `REPEATS` single-shot builds — these are second-scale
/// operations at the big sizes, so one call per timed run.
const REPEATS: usize = 3;

fn measure<O, F: FnMut() -> O>(mut f: F) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
        out = Some(value);
    }
    (best, out.expect("REPEATS >= 1"))
}

struct Sample {
    series: &'static str,
    /// Series parameter: log events, or TPC-H scale.
    param: u64,
    product_size: u64,
    mode: &'static str,
    build_ns: f64,
    groups: usize,
    /// Per-question step cost of a resolving session (factorized rows
    /// only), and how many questions it took.
    question_ns: Option<f64>,
    interactions: Option<u64>,
}

/// Resolve a goal-driven session and return (ns per question, questions).
fn session_step(engine: Engine, goal: JoinPredicate) -> (f64, u64) {
    let mut oracle = GoalOracle::new(goal);
    let mut strategy = StrategyKind::LookaheadMinPrune.build();
    let start = Instant::now();
    let out =
        run_most_informative(engine, strategy.as_mut(), &mut oracle).expect("session resolves");
    let ns = start.elapsed().as_nanos() as f64;
    assert!(out.resolved, "goal session must resolve");
    let n = out.interactions.max(1) as u64;
    (ns / n as f64, n)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let no_write = args.iter().any(|a| a == "--no-write");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_factorized.json", env!("CARGO_MANIFEST_DIR")));
    // `cargo bench` passes harness flags like `--bench`; ignore them.

    let options = EngineOptions::default();
    let mut samples: Vec<Sample> = Vec::new();

    // ── Series A: the social event log, product 10⁶ → 10¹². ──────────
    // Only the smallest size is enumerable at all; Engine::new at 10⁸
    // would already blow the product ceiling a hundredfold.
    for &events in &[1_000usize, 10_000, 100_000, 1_000_000] {
        let shared = social::follows_log(32, events, 7).into_shared();
        let product = Product::new(vec![shared.clone(), shared]).expect("self-join");
        let size = product.size();
        let (build_ns, engine) =
            measure(|| Engine::from_factorized(product.clone(), &options).expect("factorizes"));
        let groups = engine.num_groups();
        println!(
            "bench factorize/social_log/{events}ev/factorized: {build_ns:.0} ns/iter \
             ({size} product tuples, {groups} groups)"
        );
        let goal = social::two_hop_goal(engine.universe());
        let (question_ns, interactions) = session_step(engine, goal);
        println!(
            "bench factorize/social_log/{events}ev/question: {question_ns:.0} ns/iter \
             ({interactions} questions to resolve)"
        );
        samples.push(Sample {
            series: "social_log",
            param: events as u64,
            product_size: size,
            mode: "factorized",
            build_ns,
            groups,
            question_ns: Some(question_ns),
            interactions: Some(interactions),
        });

        if size <= options.max_product {
            let (build_ns, engine) =
                measure(|| Engine::new(product.clone(), &options).expect("enumerable"));
            println!(
                "bench factorize/social_log/{events}ev/enumerated: {build_ns:.0} ns/iter \
                 ({size} product tuples, {} groups)",
                engine.num_groups()
            );
            samples.push(Sample {
                series: "social_log",
                param: events as u64,
                product_size: size,
                mode: "enumerated",
                build_ns,
                groups: engine.num_groups(),
                question_ns: None,
                interactions: None,
            });
        }
    }

    // ── Series B: TPC-H customer × orders, product 1.2·10⁶ → 1.2·10¹⁰. ─
    for &scale in &[30u64, 300, 3000] {
        let db = tpch::generate(tpch::TpchConfig {
            scale: scale as f64,
            seed: 42,
        });
        let (rels, _) = db.join_view(&["customer", "orders"]).expect("tpch core");
        let product = Product::new(rels).expect("customer × orders");
        let size = product.size();
        let (build_ns, engine) =
            measure(|| Engine::from_factorized(product.clone(), &options).expect("factorizes"));
        let groups = engine.num_groups();
        println!(
            "bench factorize/tpch/sf{scale}/factorized: {build_ns:.0} ns/iter \
             ({size} product tuples, {groups} groups)"
        );
        let goal = {
            let u = engine.universe();
            let fk = u
                .id_by_names((0, "c_custkey"), (1, "o_custkey"))
                .expect("fk atom exists");
            JoinPredicate::of(u.clone(), [fk])
        };
        let (question_ns, interactions) = session_step(engine, goal);
        println!(
            "bench factorize/tpch/sf{scale}/question: {question_ns:.0} ns/iter \
             ({interactions} questions to resolve)"
        );
        samples.push(Sample {
            series: "tpch",
            param: scale,
            product_size: size,
            mode: "factorized",
            build_ns,
            groups,
            question_ns: Some(question_ns),
            interactions: Some(interactions),
        });

        if size <= options.max_product {
            let (build_ns, engine) =
                measure(|| Engine::new(product.clone(), &options).expect("enumerable"));
            println!(
                "bench factorize/tpch/sf{scale}/enumerated: {build_ns:.0} ns/iter \
                 ({size} product tuples, {} groups)",
                engine.num_groups()
            );
            samples.push(Sample {
                series: "tpch",
                param: scale,
                product_size: size,
                mode: "enumerated",
                build_ns,
                groups: engine.num_groups(),
                question_ns: None,
                interactions: None,
            });
        }
    }

    // The headline: how much the build slowed down across each series
    // versus how much the product grew.
    let mut flatness: Vec<(String, f64, f64)> = Vec::new();
    for series in ["social_log", "tpch"] {
        let pts: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.series == series && s.mode == "factorized")
            .collect();
        if let (Some(first), Some(last)) = (pts.first(), pts.last()) {
            let growth = last.product_size as f64 / first.product_size as f64;
            let slowdown = last.build_ns / first.build_ns;
            println!(
                "bench factorize/flatness/{series}: {slowdown:.1}x build over \
                 {growth:.0}x product"
            );
            flatness.push((series.to_string(), growth, slowdown));
        }
    }

    if no_write {
        return;
    }
    let mut json = String::from("{\n  \"bench\": \"factorize\",\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let step = match (s.question_ns, s.interactions) {
            (Some(ns), Some(n)) => {
                format!(", \"question_ns\": {ns:.0}, \"interactions\": {n}")
            }
            _ => String::new(),
        };
        json.push_str(&format!(
            "    {{\"series\": \"{}\", \"param\": {}, \"product_size\": {}, \
             \"mode\": \"{}\", \"build_ns\": {:.0}, \"groups\": {}{}}}{}\n",
            s.series,
            s.param,
            s.product_size,
            s.mode,
            s.build_ns,
            s.groups,
            step,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"build_flatness\": [\n");
    for (i, (series, growth, slowdown)) in flatness.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"series\": \"{series}\", \"product_growth\": {growth:.0}, \
             \"build_slowdown\": {slowdown:.2}}}{}\n",
            if i + 1 < flatness.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("factorize bench: wrote {out_path}"),
        Err(e) => eprintln!("factorize bench: could not write {out_path}: {e}"),
    }
}
