//! The experiment suite: one function per table/figure of EXPERIMENTS.md.
//!
//! Each function is deterministic (seeded) and returns a [`Table`] whose
//! rows are exactly what the `reproduce` binary prints and what
//! EXPERIMENTS.md records. Experiment ids follow DESIGN.md §6.

use crate::runner::{free_mode_interactions, mean_interactions, run_instrumented, Workbench};
use crate::tables::{fdur, fnum, Table};
use jim_core::session::{run_most_informative, run_top_k};
use jim_core::strategy::optimal::OptimalPlanner;
use jim_core::strategy::StrategyKind;
use jim_core::{CostModel, GoalOracle, JoinPredicate, MajorityOracle, Oracle};
use jim_synth::{flights, goals, random_db, setgame, tpch};
use std::time::Instant;

/// The fixed strategy used wherever a single "JIM strategy" is needed.
const DEFAULT_STRATEGY: StrategyKind = StrategyKind::LookaheadMinPrune;

/// E1 — the §2 walkthrough on Figure 1: label events and their pruning
/// effect, ending in the unique query Q2.
pub fn e1_walkthrough() -> Table {
    let wb = Workbench::new(flights::database(), &["flights", "hotels"]);
    let mut engine = wb.engine();
    let mut t = Table::new(
        "E1 — paper §2 walkthrough (Figure 1 instance)",
        &[
            "step",
            "tuple",
            "label",
            "grayed out",
            "informative left",
            "consistent queries",
        ],
    );
    for (step, (id, label)) in flights::walkthrough_labels().into_iter().enumerate() {
        let out = engine
            .label(id, label)
            .expect("paper labels are consistent");
        let count = engine
            .version_space()
            .count_consistent_exact()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into());
        t.push(vec![
            (step + 1).to_string(),
            format!("({})", id.0 + 1),
            label.to_string(),
            out.pruned.to_string(),
            out.informative_remaining.to_string(),
            count,
        ]);
    }
    t.push(vec![
        "result".into(),
        engine.result().to_string(),
        "".into(),
        "".into(),
        "".into(),
        "1".into(),
    ]);
    t
}

/// The workloads E2 compares, with their goals.
fn e2_workloads() -> Vec<(&'static str, Workbench, JoinPredicate)> {
    let mut out = Vec::new();

    let wb = Workbench::new(flights::database(), &["flights", "hotels"]);
    let q1 = flights::q1(wb.engine().universe());
    let q2 = flights::q2(wb.engine().universe());
    out.push(("flights Q1", wb.clone(), q1));
    out.push(("flights Q2", wb, q2));

    let wb = Workbench::new(
        tpch::generate(tpch::TpchConfig::default()),
        &["customer", "orders"],
    );
    let u = wb.engine().universe().clone();
    let fk = u
        .id_by_names((0, "c_custkey"), (1, "o_custkey"))
        .expect("schema attr");
    out.push(("tpch cust⋈ord", wb, JoinPredicate::of(u, [fk])));

    let deck = setgame::subdeck(20, 5);
    let db = jim_relation::Database::from_relations(vec![deck]).expect("one relation");
    let wb = Workbench::new(db, &["cards", "cards"]);
    let goal = setgame::same_features_goal(wb.engine().universe(), &["color"]);
    out.push(("set same-color", wb, goal));

    out
}

/// E2 — Figures 3 & 4: interactions per interaction type. The shape to
/// reproduce: mode 1 ≥ mode 2 ≥ mode 3 ≥ mode 4.
pub fn e2_interaction_modes() -> Table {
    let mut t = Table::new(
        "E2 — benefit of using a strategy (Figures 3–4): interactions per mode",
        &[
            "workload",
            "tuples",
            "1 free",
            "2 gray-out",
            "3 top-3",
            "4 most-informative",
        ],
    );
    for (name, wb, goal) in e2_workloads() {
        let total = wb.engine().stats().total_tuples;
        let m1 = free_mode_interactions(&wb, &goal, false, 8);
        let m2 = free_mode_interactions(&wb, &goal, true, 8);
        let mut strategy = DEFAULT_STRATEGY.build();
        let mut oracle = GoalOracle::new(goal.clone());
        let m3 = run_top_k(wb.engine(), 3, strategy.as_mut(), &mut oracle)
            .expect("consistent")
            .interactions;
        let m4 = run_instrumented(&wb, DEFAULT_STRATEGY, &goal).interactions;
        t.push(vec![
            name.to_string(),
            total.to_string(),
            fnum(m1),
            fnum(m2),
            m3.to_string(),
            m4.to_string(),
        ]);
    }
    t
}

/// The complexity grid of E3/A3: (label, domain, goal atoms).
fn e3_grid() -> Vec<(String, i64, usize)> {
    let mut grid = Vec::new();
    for domain in [16i64, 4, 2] {
        for atoms in [1usize, 2, 3] {
            grid.push((format!("d{domain}/k{atoms}"), domain, atoms));
        }
    }
    grid
}

/// Mean interactions of `kind` over the E3 cell's instances and goals.
fn e3_cell(kind: StrategyKind, domain: i64, atoms: usize) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0u32;
    for seed in 0..3u64 {
        let db = random_db::generate(&random_db::RandomDbConfig::uniform(2, 3, 12, domain, seed));
        let wb = Workbench::new(db, &["r1", "r2"]);
        let goal_list = goals::satisfiable_goals(&wb.product(), atoms, 2, seed);
        for goal in goal_list {
            total += mean_interactions(&wb, kind, &goal, 2);
            n += 1;
        }
    }
    (n > 0).then(|| total / n as f64)
}

/// E3 — strategy comparison across instance density (domain size) and goal
/// complexity (atom count). The claim: local strategies win on simple
/// cells, lookahead on complex ones.
pub fn e3_strategy_comparison() -> Table {
    let grid = e3_grid();
    let mut headers: Vec<&str> = vec!["strategy"];
    let cols: Vec<String> = grid.iter().map(|(label, _, _)| label.clone()).collect();
    headers.extend(cols.iter().map(String::as_str));
    let mut t = Table::new(
        "E3 — mean interactions by strategy × (domain density d, goal atoms k)",
        &headers,
    );
    for kind in StrategyKind::heuristics(2024) {
        let mut row = vec![kind.to_string()];
        for (_, domain, atoms) in &grid {
            row.push(match e3_cell(kind, *domain, *atoms) {
                Some(v) => fnum(v),
                None => "-".into(),
            });
        }
        t.push(row);
    }
    t
}

/// E4 — scalability: wall time per strategy choice and total inference time
/// as the instance grows (TPC-H customer × orders at scale s).
pub fn e4_scalability() -> Table {
    let mut t = Table::new(
        "E4 — scalability: time per interaction vs product size (customer × orders)",
        &[
            "scale",
            "product",
            "strategy",
            "interactions",
            "mean choose",
            "total",
        ],
    );
    for scale in [0.5f64, 1.0, 2.0, 4.0] {
        let db = tpch::generate(tpch::TpchConfig { scale, seed: 21 });
        let wb = Workbench::new(db, &["customer", "orders"]);
        let product_size = wb.product().size();
        let u = wb.engine().universe().clone();
        let fk = u
            .id_by_names((0, "c_custkey"), (1, "o_custkey"))
            .expect("schema attr");
        let goal = JoinPredicate::of(u, [fk]);
        for kind in [
            StrategyKind::LocalGeneral,
            StrategyKind::LookaheadMinPrune,
            StrategyKind::LookaheadEntropy { alpha: 1.0 },
            StrategyKind::Random { seed: 1 },
        ] {
            let m = run_instrumented(&wb, kind, &goal);
            t.push(vec![
                format!("{scale}"),
                product_size.to_string(),
                kind.to_string(),
                m.interactions.to_string(),
                fdur(m.mean_choose),
                fdur(m.total),
            ]);
        }
    }
    t
}

/// E5 — Figure 5: joining sets of pictures (the Set deck).
pub fn e5_set_cards() -> Table {
    let mut t = Table::new(
        "E5 — joining sets of pictures (Figure 5): interactions to infer tag joins",
        &["deck", "pairs", "goal", "strategy", "interactions"],
    );
    for deck_size in [20usize, 40, 81] {
        let deck = setgame::subdeck(deck_size, 13);
        let db = jim_relation::Database::from_relations(vec![deck]).expect("one relation");
        let wb = Workbench::new(db, &["cards", "cards"]);
        let pairs = wb.product().size();
        for features in [
            &["color"][..],
            &["color", "shading"],
            &["number", "symbol", "shading"],
        ] {
            let goal = setgame::same_features_goal(wb.engine().universe(), features);
            for kind in [
                DEFAULT_STRATEGY,
                StrategyKind::LocalGeneral,
                StrategyKind::Random { seed: 4 },
            ] {
                let m = run_instrumented(&wb, kind, &goal);
                assert!(m.correct, "E5 inference incorrect for {kind}");
                t.push(vec![
                    deck_size.to_string(),
                    pairs.to_string(),
                    features.join("+"),
                    kind.to_string(),
                    m.interactions.to_string(),
                ]);
            }
        }
    }
    t
}

/// E6 — the optimal strategy is exponential: planner states/time blow up
/// with instance size while heuristics stay near-optimal in quality.
pub fn e6_optimal() -> Table {
    e6_optimal_with_budget(300_000)
}

/// [`e6_optimal`] with an explicit planner state budget (tests use a small
/// one; the budget is the experiment's "unusable in practice" cliff).
pub fn e6_optimal_with_budget(planner_budget: usize) -> Table {
    let mut t = Table::new(
        "E6 — optimal (exponential) planner vs heuristic quality",
        &[
            "arity×rows",
            "distinct sigs",
            "optimal depth",
            "planner states",
            "planner time",
            "lookahead worst",
            "local worst",
        ],
    );
    // Signature diversity (the planner's state-space driver) is controlled
    // by the relation arity: `a` attributes per side give `a²` atoms.
    for (arity, rows) in [(1usize, 8usize), (2, 8), (2, 16), (3, 8), (3, 16)] {
        let db = random_db::generate(&random_db::RandomDbConfig::uniform(2, arity, rows, 2, 7));
        let wb = Workbench::new(db, &["r1", "r2"]);
        let engine = wb.engine();
        let sigs = engine.num_groups();

        // A deliberately finite budget: the experiment's message is that
        // the exact planner stops fitting *any* budget almost immediately,
        // while the heuristics below stay microseconds-fast.
        let mut planner = OptimalPlanner::with_budget(planner_budget);
        let start = Instant::now();
        let depth = planner.worst_case_depth(&engine);
        let elapsed = start.elapsed();
        let (depth_s, states) = match depth {
            Ok(d) => (d.to_string(), planner.states_explored().to_string()),
            Err(_) => ("> budget".into(), format!(">{planner_budget}")),
        };

        // Heuristic worst case over all satisfiable goals of arity ≤ 2.
        let mut goal_list = goals::satisfiable_goals(&wb.product(), 1, 6, 3);
        goal_list.extend(goals::satisfiable_goals(&wb.product(), 2, 6, 3));
        let worst = |kind: StrategyKind| {
            goal_list
                .iter()
                .map(|g| run_instrumented(&wb, kind, g).interactions)
                .max()
                .unwrap_or(0)
        };
        t.push(vec![
            format!("{arity}×{rows}"),
            sigs.to_string(),
            depth_s,
            states,
            fdur(elapsed),
            worst(DEFAULT_STRATEGY).to_string(),
            worst(StrategyKind::LocalGeneral).to_string(),
        ]);
    }
    t
}

/// E7 — crowdsourcing: questions, dollars and success rate under worker
/// noise, with and without majority voting.
pub fn e7_crowd_cost() -> Table {
    let mut t = Table::new(
        "E7 — crowd cost: strategy × worker error × votes (TPC-H cust⋈ord, 10 trials, 1¢/question)",
        &[
            "strategy",
            "error",
            "votes",
            "success",
            "mean questions",
            "mean cost",
        ],
    );
    let pricing = CostModel::cents_per_question(1);
    let wb = Workbench::new(
        tpch::generate(tpch::TpchConfig::default()),
        &["customer", "orders"],
    );
    let u = wb.engine().universe().clone();
    let fk = u
        .id_by_names((0, "c_custkey"), (1, "o_custkey"))
        .expect("schema attr");
    let goal = JoinPredicate::of(u, [fk]);
    const TRIALS: u64 = 10;

    for kind in [StrategyKind::Random { seed: 0 }, DEFAULT_STRATEGY] {
        for (error, votes) in [(0.0, 1u32), (0.1, 1), (0.1, 3), (0.1, 5), (0.2, 5)] {
            let mut successes = 0u64;
            let mut questions = 0u64;
            for trial in 0..TRIALS {
                let engine = wb.engine();
                let kind = match kind {
                    StrategyKind::Random { .. } => StrategyKind::Random { seed: trial },
                    other => other,
                };
                let mut strategy = kind.build();
                let mut oracle = MajorityOracle::new(goal.clone(), error, votes, 100 + trial);
                match run_most_informative(engine, strategy.as_mut(), &mut oracle) {
                    Ok(out) => {
                        questions += out.questions;
                        if out
                            .inferred
                            .instance_equivalent(&goal, out.engine.product())
                            .expect("evaluable")
                        {
                            successes += 1;
                        }
                    }
                    Err(_) => {
                        // Conflict detected: the noisy run aborted. The
                        // questions answered up to the conflict were paid.
                        questions += oracle.questions_asked();
                    }
                }
            }
            let mean_q = questions as f64 / TRIALS as f64;
            t.push(vec![
                kind.to_string(),
                format!("{:.0}%", error * 100.0),
                votes.to_string(),
                format!("{}/{}", successes, TRIALS),
                fnum(mean_q),
                pricing.cost(mean_q.round() as u64).to_string(),
            ]);
        }
    }
    t
}

/// A1 — pruning ablation: effort with gray-out disabled vs enabled, as a
/// waste ratio (Figure 4's message in one number per workload).
pub fn a1_pruning_ablation() -> Table {
    let mut t = Table::new(
        "A1 — ablation: interactive pruning off vs on (free labeling, 8 seeds)",
        &["workload", "no gray-out", "gray-out", "waste ratio"],
    );
    for (name, wb, goal) in e2_workloads() {
        let off = free_mode_interactions(&wb, &goal, false, 8);
        let on = free_mode_interactions(&wb, &goal, true, 8);
        t.push(vec![
            name.to_string(),
            fnum(off),
            fnum(on),
            format!("{:.2}×", off / on.max(1.0)),
        ]);
    }
    t
}

/// A4 — lookahead depth: what do depth-2 minimax and the local/lookahead
/// hybrid buy over the paper's one-step lookahead, on the E3 grid?
pub fn a4_lookahead_depth() -> Table {
    let grid = e3_grid();
    let mut headers: Vec<&str> = vec!["strategy"];
    let cols: Vec<String> = grid.iter().map(|(label, _, _)| label.clone()).collect();
    headers.extend(cols.iter().map(String::as_str));
    let mut t = Table::new(
        "A4 — ablation: lookahead depth and hybrid switching (mean interactions)",
        &headers,
    );
    for kind in [
        StrategyKind::LookaheadMinPrune,
        StrategyKind::LookaheadTwoStep,
        StrategyKind::Hybrid { threshold: 16 },
        StrategyKind::LocalSpecific,
    ] {
        let mut row = vec![kind.to_string()];
        for (_, domain, atoms) in &grid {
            row.push(match e3_cell(kind, *domain, *atoms) {
                Some(v) => fnum(v),
                None => "-".into(),
            });
        }
        t.push(row);
    }
    t
}

/// A5 — the statistics-guided strategy: does knowing which atoms are
/// key-like (selective) substitute for lookahead? Compared on the E3 grid
/// plus the TPC-H FK workload, where keys actually exist.
pub fn a5_data_aware() -> Table {
    let grid = e3_grid();
    let mut headers: Vec<&str> = vec!["strategy"];
    let cols: Vec<String> = grid.iter().map(|(label, _, _)| label.clone()).collect();
    headers.extend(cols.iter().map(String::as_str));
    headers.push("tpch-fk");
    let mut t = Table::new(
        "A5 — ablation: statistics-guided (data-aware) strategy (mean interactions)",
        &headers,
    );

    // The TPC-H FK column: a workload with a genuine key atom.
    let tpch_wb = Workbench::new(
        tpch::generate(tpch::TpchConfig::default()),
        &["customer", "orders"],
    );
    let u = tpch_wb.engine().universe().clone();
    let fk = u
        .id_by_names((0, "c_custkey"), (1, "o_custkey"))
        .expect("schema attr");
    let tpch_goal = JoinPredicate::of(u, [fk]);

    for kind in [
        StrategyKind::DataAware,
        StrategyKind::LocalSpecific,
        StrategyKind::LookaheadMinPrune,
        StrategyKind::Random { seed: 9 },
    ] {
        let mut row = vec![kind.to_string()];
        for (_, domain, atoms) in &grid {
            row.push(match e3_cell(kind, *domain, *atoms) {
                Some(v) => fnum(v),
                None => "-".into(),
            });
        }
        row.push(fnum(mean_interactions(&tpch_wb, kind, &tpch_goal, 3)));
        t.push(row);
    }
    t
}

/// A3 — the generalized-entropy order α: does the Tsallis order matter?
pub fn a3_alpha_sweep() -> Table {
    let mut t = Table::new(
        "A3 — ablation: lookahead-entropy order α (mean interactions)",
        &["α", "d16/k1", "d4/k2", "d2/k3"],
    );
    for alpha in [0.5f64, 1.0, 2.0] {
        let kind = StrategyKind::LookaheadEntropy { alpha };
        let mut row = vec![format!("{alpha}")];
        for (domain, atoms) in [(16i64, 1usize), (4, 2), (2, 3)] {
            row.push(match e3_cell(kind, domain, atoms) {
                Some(v) => fnum(v),
                None => "-".into(),
            });
        }
        t.push(row);
    }
    t
}

/// E8 — batched answer propagation: the top-k mode driven through
/// `Engine::label_batch`, one engine pass per answered batch. The
/// "passes" column is the engine's generation counter at the end of the
/// session — with batching it equals the number of batches, not the
/// number of labels (k=1 degenerates to one pass per label).
pub fn e8_batched_topk() -> Table {
    let mut t = Table::new(
        "E8 — batched top-k sessions: one propagation pass per answer batch",
        &[
            "workload",
            "k",
            "interactions",
            "passes",
            "skipped",
            "resolved",
        ],
    );
    let mut workloads: Vec<(&str, Workbench, JoinPredicate)> = Vec::new();
    {
        let wb = Workbench::new(flights::database(), &["flights", "hotels"]);
        let q2 = flights::q2(wb.engine().universe());
        workloads.push(("flights Q2", wb, q2));
    }
    {
        let db = random_db::generate(&random_db::RandomDbConfig::uniform(2, 3, 12, 3, 11));
        let wb = Workbench::new(db, &["r1", "r2"]);
        let goal =
            goals::satisfiable_goal(&wb.product(), 2, 11).expect("random instance has goals");
        workloads.push(("random d3", wb, goal));
    }
    for (name, wb, goal) in &workloads {
        for k in [1usize, 4, 10] {
            let mut strategy = DEFAULT_STRATEGY.build();
            let mut oracle = GoalOracle::new(goal.clone());
            let out = run_top_k(wb.engine(), k, strategy.as_mut(), &mut oracle)
                .expect("truthful labels are consistent");
            t.push(vec![
                name.to_string(),
                k.to_string(),
                out.interactions.to_string(),
                out.engine.generation().to_string(),
                out.skipped.to_string(),
                out.resolved.to_string(),
            ]);
        }
    }
    t
}

/// E9 — durable sessions: a mid-session evict **and a full process
/// restart** (fresh store over the same data dir) lose nothing — the
/// resumed session finishes to the paper's unique query Q2. Each row is
/// one lifecycle step of the same session, driven entirely over the wire
/// protocol against journaled `jim-server` stores.
pub fn e9_evict_resume() -> Table {
    use jim_json::Json;
    use jim_server::handler::Handler;
    use jim_server::journal::JournalStore;
    use jim_server::store::{SessionStore, StoreConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("jim-e9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ttl = Duration::from_secs(60);
    let journaled = |dir: &std::path::Path| {
        Handler::new(Arc::new(SessionStore::with_journal(
            StoreConfig {
                max_sessions: 8,
                ttl,
            },
            JournalStore::open(dir).expect("journal dir"),
        )))
    };
    let send = |h: &Handler, line: &str| -> Json {
        let r = Json::parse(&h.handle_line(line)).expect("valid response");
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "{line} -> {r}"
        );
        r
    };

    let mut t = Table::new(
        "E9 — durable sessions: evict + restart mid-session still yields Q2",
        &["step", "resident", "on disk", "interactions", "outcome"],
    );
    let mut row = |step: &str, h: &Handler, outcome: String| {
        let list = send(h, r#"{"op":"ListSessions"}"#);
        let sessions = list.get("sessions").unwrap().as_array().unwrap();
        let resident = sessions
            .iter()
            .filter(|s| s.get("resident").and_then(Json::as_bool) == Some(true))
            .count();
        let interactions: u64 = sessions
            .iter()
            .filter_map(|s| s.get("interactions").and_then(Json::as_u64))
            .sum();
        t.push(vec![
            step.to_string(),
            resident.to_string(),
            (sessions.len() - resident).to_string(),
            interactions.to_string(),
            outcome,
        ]);
    };

    // Phase 1: create + first walkthrough label, then evict to disk.
    let h1 = journaled(&dir);
    let r = send(
        &h1,
        r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"lookahead-minprune"}"#,
    );
    let session = r.get("session").unwrap().as_u64().unwrap();
    assert_eq!(r.get("persisted").unwrap().as_bool(), Some(true));
    row("create", &h1, "persisted:true".into());
    send(
        &h1,
        &format!(r#"{{"op":"Answer","session":{session},"tuple":2,"label":"+"}}"#),
    );
    row("label (3)+", &h1, "journaled before ack".into());
    let future = std::time::Instant::now() + ttl + Duration::from_secs(1);
    h1.store().sweep_at(future);
    row("evict (TTL)", &h1, "no write needed: WAL".into());
    drop(h1);

    // Phase 2: a fresh store over the same directory — the restart.
    let h2 = journaled(&dir);
    row("restart", &h2, "fresh store, same dir".into());
    let r = send(
        &h2,
        &format!(r#"{{"op":"ResumeSession","session":{session}}}"#),
    );
    assert_eq!(r.get("interactions").unwrap().as_u64(), Some(1));
    row("resume", &h2, "1 label replayed".into());

    // Finish with the truthful Q2 user (To ≍ City ∧ Airline ≍ Discount).
    let sql = loop {
        let q = send(
            &h2,
            &format!(r#"{{"op":"NextQuestion","session":{session}}}"#),
        );
        if q.get("resolved").unwrap().as_bool() == Some(true) {
            break q.get("sql").unwrap().as_str().unwrap().to_string();
        }
        let v: Vec<&str> = q
            .get("values")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        let sign = if v[1] == v[3] && v[2] == v[4] {
            '+'
        } else {
            '-'
        };
        let a = send(
            &h2,
            &format!(r#"{{"op":"Answer","session":{session},"label":"{sign}"}}"#),
        );
        if a.get("resolved").unwrap().as_bool() == Some(true) {
            break a.get("sql").unwrap().as_str().unwrap().to_string();
        }
    };
    assert!(
        sql.contains("r1.To = r2.City"),
        "E9 did not infer Q2: {sql}"
    );
    assert!(
        sql.contains("r1.Airline = r2.Discount"),
        "E9 did not infer Q2: {sql}"
    );
    let predicate = send(&h2, &format!(r#"{{"op":"Sql","session":{session}}}"#));
    row(
        "finish",
        &h2,
        predicate
            .get("predicate")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_ends_with_q2() {
        let t = e1_walkthrough();
        assert_eq!(t.rows.len(), 4);
        let last = t.rows.last().unwrap();
        assert!(last[1].contains("To ≍ hotels.City"));
        assert!(last[1].contains("Airline ≍ hotels.Discount"));
        // After the third label exactly one consistent query remains.
        assert_eq!(t.rows[2][5], "1");
    }

    #[test]
    fn e2_modes_are_ordered() {
        let t = e2_interaction_modes();
        for row in &t.rows {
            let m1: f64 = row[2].parse().unwrap();
            let m2: f64 = row[3].parse().unwrap();
            let m4: f64 = row[5].parse().unwrap();
            assert!(m2 <= m1 + 1e-9, "{row:?}");
            assert!(m4 <= m1 + 1e-9, "{row:?}");
        }
    }

    #[test]
    fn e3_has_all_cells() {
        let t = e3_strategy_comparison();
        assert_eq!(t.rows.len(), StrategyKind::heuristics(0).len());
        for row in &t.rows {
            assert_eq!(row.len(), 10); // strategy + 9 cells
        }
    }

    #[test]
    fn e6_planner_blows_up_monotonically() {
        // Small budget keeps the debug-mode test fast; the blow-up pattern
        // is the same.
        let t = e6_optimal_with_budget(5_000);
        let states: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].trim_start_matches('>').parse().unwrap_or(f64::MAX))
            .collect();
        // Larger instances never need fewer states.
        assert!(states.windows(2).all(|w| w[0] <= w[1] * 2.0), "{states:?}");
        // The biggest instances must overflow the budget (the paper's
        // "unusable in practice").
        assert!(t.rows.last().unwrap()[2].contains("budget"));
    }

    #[test]
    fn e9_survives_evict_and_restart() {
        let t = e9_evict_resume();
        assert_eq!(t.rows.len(), 6);
        let last = t.rows.last().unwrap();
        assert_eq!(last[0], "finish");
        assert_eq!(last[1], "1", "resumed session resident at the end");
        assert!(last[4].contains("To ≍ hotels.City"), "{last:?}");
        assert!(last[4].contains("Airline ≍ hotels.Discount"), "{last:?}");
        // The evict and restart rows see the session on disk, not resident.
        let evict = &t.rows[2];
        assert_eq!(
            (evict[1].as_str(), evict[2].as_str()),
            ("0", "1"),
            "{evict:?}"
        );
    }

    #[test]
    fn a1_waste_ratio_at_least_one() {
        let t = a1_pruning_ablation();
        for row in &t.rows {
            let ratio: f64 = row[3].trim_end_matches('×').parse().unwrap();
            assert!(ratio >= 0.99, "{row:?}");
        }
    }
}
