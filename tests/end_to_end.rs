//! End-to-end integration: every strategy × every workload, run to
//! convergence against a goal oracle, with the three core guarantees
//! checked at every step:
//!
//! * **soundness** — the goal stays consistent under truthful answers;
//! * **termination** — the session resolves within the informative budget;
//! * **correctness** — the inferred predicate is instance-equivalent to
//!   the goal.

use jim::core::session::run_most_informative;
use jim::core::strategy::optimal::OptimalPlanner;
use jim::core::strategy::{choose_next, LookaheadTwoStep, OptimalStrategy, StrategyKind};
use jim::core::{AtomId, Engine, EngineOptions, GoalOracle, JoinPredicate, Label, Strategy};
use jim::relation::{Database, Product};
use jim::synth::{flights, goals, random_db, setgame, tpch};

/// Drive a fresh engine to convergence; assert the guarantees; return the
/// number of interactions.
fn converge(engine: Engine, goal: &JoinPredicate, kind: StrategyKind) -> u64 {
    let total = engine.stats().total_tuples;
    let mut strategy = kind.build();
    let mut oracle = GoalOracle::new(goal.clone());
    let out = run_most_informative(engine, strategy.as_mut(), &mut oracle)
        .unwrap_or_else(|e| panic!("{kind} on {goal}: {e}"));
    assert!(out.resolved, "{kind} did not resolve {goal}");
    assert!(
        out.interactions <= total,
        "{kind} used more interactions than tuples"
    );
    assert!(
        out.inferred
            .instance_equivalent(goal, out.engine.product())
            .unwrap(),
        "{kind}: inferred {} but goal was {goal}",
        out.inferred
    );
    out.interactions
}

fn strategies() -> Vec<StrategyKind> {
    StrategyKind::heuristics(1234)
}

#[test]
fn all_strategies_on_flights_hotels_q1_q2() {
    let f = flights::flights();
    let h = flights::hotels();
    for kind in strategies().into_iter().chain([StrategyKind::Optimal]) {
        for goal_id in 0..2 {
            let p = Product::new(vec![&f, &h]).unwrap();
            let e = Engine::new(p, &EngineOptions::default()).unwrap();
            let goal = if goal_id == 0 {
                flights::q1(e.universe())
            } else {
                flights::q2(e.universe())
            };
            let n = converge(e, &goal, kind);
            assert!(n <= 12, "{kind} on goal {goal_id}: {n} interactions");
        }
    }
}

#[test]
fn all_strategies_on_set_cards() {
    let deck = setgame::subdeck(15, 99);
    let deck2 = setgame::subdeck(15, 99);
    for kind in strategies() {
        let p = Product::new(vec![&deck, &deck2]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let goal = setgame::same_features_goal(e.universe(), &["color", "shading"]);
        converge(e, &goal, kind);
    }
}

#[test]
fn all_strategies_on_tpch_customer_orders() {
    let db = tpch::generate(tpch::TpchConfig::default());
    for kind in strategies() {
        let (rels, _) = db.join_view(&["customer", "orders"]).unwrap();
        let p = Product::new(rels).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let u = e.universe().clone();
        let fk = u.id_by_names((0, "c_custkey"), (1, "o_custkey")).unwrap();
        let goal = JoinPredicate::of(u, [fk]);
        converge(e, &goal, kind);
    }
}

#[test]
fn three_way_join_inference() {
    // n-ary (n = 3): nation ⋈ region plus customer ⋈ nation, inferred in
    // one session over the triple product.
    let db = tpch::generate(tpch::TpchConfig {
        scale: 0.5,
        seed: 3,
    });
    for kind in [StrategyKind::LookaheadMinPrune, StrategyKind::LocalGeneral] {
        let (rels, _) = db.join_view(&["region", "nation", "customer"]).unwrap();
        let p = Product::new(rels).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let u = e.universe().clone();
        let nr = u
            .id_by_names((0, "r_regionkey"), (1, "n_regionkey"))
            .unwrap();
        let cn = u
            .id_by_names((1, "n_nationkey"), (2, "c_nationkey"))
            .unwrap();
        let goal = JoinPredicate::of(u, [nr, cn]);
        converge(e, &goal, kind);
    }
}

#[test]
fn random_instances_with_generated_goals() {
    for seed in 0..4u64 {
        let db = random_db::generate(&random_db::RandomDbConfig::uniform(2, 3, 12, 4, seed));
        let (rels, _) = db.join_view(&["r1", "r2"]).unwrap();
        let p = Product::new(rels).unwrap();
        for arity in 1..=2usize {
            let Some(goal) = goals::satisfiable_goal(&p, arity, seed) else {
                continue;
            };
            for kind in [
                StrategyKind::LookaheadMinPrune,
                StrategyKind::LocalGeneral,
                StrategyKind::Random { seed },
            ] {
                let e = Engine::new(p.clone(), &EngineOptions::default()).unwrap();
                converge(e, &goal, kind);
            }
        }
    }
}

#[test]
fn inferred_sql_is_executable_and_matches() {
    // The SQL rendering names real relations/attributes; executing the
    // inferred predicate on the product returns exactly the entailed
    // positives.
    let f = flights::flights();
    let h = flights::hotels();
    let p = Product::new(vec![&f, &h]).unwrap();
    let e = Engine::new(p, &EngineOptions::default()).unwrap();
    let goal = flights::q2(e.universe());
    let mut strategy = StrategyKind::LookaheadMinPrune.build();
    let mut oracle = GoalOracle::new(goal.clone());
    let out = run_most_informative(e, strategy.as_mut(), &mut oracle).unwrap();

    let selected = out.inferred.eval(out.engine.product()).unwrap();
    assert_eq!(selected, out.engine.entailed_positive_ids());
    let sql = out.inferred.to_sql();
    assert!(sql.contains("WHERE"));
    assert!(sql.contains("r1.To = r2.City"));
}

#[test]
fn database_round_trip_through_csv() {
    // Export the paper's database to CSV, re-import, infer again: identical
    // behaviour (CSV is how real users would load their raw data).
    use jim::relation::csv;
    let db = flights::database();
    let re_flights =
        csv::read_relation("flights", &csv::write_relation(db.get("flights").unwrap())).unwrap();
    let re_hotels =
        csv::read_relation("hotels", &csv::write_relation(db.get("hotels").unwrap())).unwrap();
    let db2 = Database::from_relations(vec![re_flights, re_hotels]).unwrap();

    let (rels, _) = db2.join_view(&["flights", "hotels"]).unwrap();
    let p = Product::new(rels).unwrap();
    let e = Engine::new(p, &EngineOptions::default()).unwrap();
    let goal = flights::q2(e.universe());
    let n = converge(e, &goal, StrategyKind::LookaheadMinPrune);
    assert!(n <= 6);
}

#[test]
fn intra_relation_scope_extension() {
    // AllPairs scope also admits selection-like atoms inside one relation.
    use jim::core::AtomScope;
    let f = flights::flights();
    let h = flights::hotels();
    let p = Product::new(vec![&f, &h]).unwrap();
    let opts = EngineOptions {
        scope: AtomScope::AllPairs,
        ..Default::default()
    };
    let e = Engine::new(p, &opts).unwrap();
    assert_eq!(e.universe().len(), 10); // C(5,2) pairs, all text
    let goal = flights::q1(e.universe());
    converge(e, &goal, StrategyKind::LookaheadMinPrune);
}

/// A product too large to label exhaustively opens whole through
/// factorized construction, and inference over it converges to a query
/// consistent with the foreign-key goal.
#[test]
fn sampled_engine_still_converges() {
    let db = tpch::generate(tpch::TpchConfig {
        scale: 2.0,
        seed: 8,
    });
    let (rels, _) = db.join_view(&["orders", "lineitem"]).unwrap();
    let p = Product::new(rels).unwrap();
    let size = p.size();
    let e = Engine::from_factorized(p, &EngineOptions::default()).unwrap();
    assert_eq!(e.stats().total_tuples, size);
    let u = e.universe().clone();
    let fk = u.id_by_names((0, "o_orderkey"), (1, "l_orderkey")).unwrap();
    let goal = JoinPredicate::of(u, [fk]);
    let mut strategy = StrategyKind::LookaheadMinPrune.build();
    let mut oracle = GoalOracle::new(goal.clone());
    let out = run_most_informative(e, strategy.as_mut(), &mut oracle).unwrap();
    assert!(out.resolved);
    assert!(out.engine.consistent_with(&goal));
}

#[test]
fn lookahead_beats_random_on_average() {
    // The paper's core pitch: an intelligent strategy needs fewer
    // interactions than random labeling. Averaged over seeds and goals on
    // the TPC-H customer×orders instance.
    let db = tpch::generate(tpch::TpchConfig::default());
    let (rels, _) = db.join_view(&["customer", "orders"]).unwrap();
    let p = Product::new(rels).unwrap();
    let goal_list = goals::satisfiable_goals(&p, 1, 3, 17);
    assert!(!goal_list.is_empty());

    let mut random_total = 0u64;
    let mut lookahead_total = 0u64;
    for goal in &goal_list {
        for seed in 0..3u64 {
            let e = Engine::new(p.clone(), &EngineOptions::default()).unwrap();
            random_total += converge(e, goal, StrategyKind::Random { seed });
        }
        let e = Engine::new(p.clone(), &EngineOptions::default()).unwrap();
        lookahead_total += 3 * converge(e, goal, StrategyKind::LookaheadMinPrune);
    }
    assert!(
        lookahead_total <= random_total,
        "lookahead {lookahead_total} vs random {random_total}"
    );
}

/// One fixed `random_db` instance (two relations) with the optimal
/// planner's values on it, and the questions two strategies ask for each
/// single-atom goal: one `/`-separated run of product ranks per goal, in
/// atom order.
#[derive(Debug)]
struct Pinned {
    /// `(arity, rows, domain, seed)` of `RandomDbConfig::uniform`.
    shape: (usize, usize, i64, u64),
    depth: u32,
    states: usize,
    best_move: (&'static [usize], u32),
    two_step: &'static str,
    optimal: &'static str,
}

const PINNED: [Pinned; 4] = [
    Pinned {
        shape: (2, 8, 3, 3),
        depth: 6,
        states: 141,
        best_move: (&[0, 1], 6),
        two_step: "19 0 2 20 / 19 0 16 18 / 19 0 / 19 0 16",
        optimal: "45 2 0 / 45 2 0 / 45 2 18 / 45 2 18 28 0",
    },
    Pinned {
        shape: (3, 3, 2, 0),
        depth: 7,
        states: 427,
        best_move: (&[0, 1, 2], 7),
        two_step: "6 5 4 1 / 6 5 0 / 6 5 4 2 / 6 4 7 2 1 / 6 4 0 5 / 6 4 0 5 2 8 / \
                   6 4 7 2 0 / 6 4 0 2 / 6 4 0 2 8",
        optimal: "6 2 1 0 / 6 2 5 / 6 2 1 4 / 6 7 1 / 6 7 2 8 1 4 5 / 6 7 2 8 4 / \
                  6 7 1 8 0 / 6 7 2 8 1 0 / 6 7 2 8 1 0",
    },
    Pinned {
        shape: (3, 3, 3, 4),
        depth: 4,
        states: 67,
        best_move: (&[0, 1, 2, 3, 4, 5], 4),
        two_step: "2 5 0 4 / 2 5 0 4 / 2 5 0 / 2 5 0 4 / 2 5 0 4 / 2 5 0 / 2 0 1 / \
                   2 0 1 / 2 5 0 4 7",
        optimal: "0 4 1 / 0 4 1 / 0 4 1 / 0 4 1 / 0 4 1 / 0 4 1 / 0 5 1 2 / 0 5 1 2 / \
                  0 5 4 7",
    },
    Pinned {
        shape: (3, 4, 3, 3),
        depth: 10,
        states: 3857,
        best_move: (&[3, 4], 10),
        two_step: "14 1 0 7 / 14 1 13 0 3 / 14 4 1 7 0 15 / 14 4 1 7 8 / 14 4 3 9 / \
                   14 1 0 3 / 14 1 13 11 3 / 14 1 13 0 7 / 14 4 3 5",
        optimal: "10 1 7 11 / 10 1 3 8 / 10 1 7 11 0 15 / 10 1 0 / 10 1 3 / 10 1 7 11 0 / \
                  10 1 3 8 14 5 / 10 1 3 7 14 0 / 10 1 3 7 0 13 14 4 5",
    },
];

/// The questions `strategy` asks until each single-atom goal is resolved,
/// in the `Pinned` notation.
fn questions(engine: &Engine, strategy: &mut dyn Strategy) -> String {
    let u = engine.universe();
    let runs: Vec<String> = (0..u.len())
        .map(|atom| {
            let goal = JoinPredicate::of(u.clone(), [AtomId(atom as u32)]);
            let mut engine = engine.clone();
            let mut asked = Vec::new();
            while let Some(id) = choose_next(strategy, &engine) {
                let tuple = engine.product().tuple(id).unwrap();
                engine
                    .label(id, Label::from_bool(goal.selects(&tuple)))
                    .unwrap();
                asked.push(id.0.to_string());
            }
            asked.join(" ")
        })
        .collect();
    runs.join(" / ")
}

/// The optimal planner's state count, depth and first move, and the
/// question sequences of lookahead-2step and the optimal strategy, stay
/// exactly as pinned. The state count pins the memo key's canonical form:
/// two keys for one version space would explore more states.
#[test]
fn planner_and_two_step_match_pinned_values() {
    for pin in &PINNED {
        let (arity, rows, domain, seed) = pin.shape;
        let config = random_db::RandomDbConfig::uniform(2, arity, rows, domain, seed);
        let (rels, _) = random_db::generate(&config)
            .join_view(&["r1", "r2"])
            .unwrap();
        let e = Engine::new(Product::new(rels).unwrap(), &EngineOptions::default()).unwrap();

        let mut planner = OptimalPlanner::with_budget(200_000);
        let depth = planner.worst_case_depth(&e).unwrap();
        let states = planner.states_explored();
        let (sig, move_depth) = planner.best_move(&e).unwrap().unwrap();
        let best_move = (sig.iter().collect::<Vec<_>>(), move_depth);
        assert_eq!((depth, states), (pin.depth, pin.states), "{pin:?}");
        assert_eq!(best_move, (pin.best_move.0.to_vec(), pin.best_move.1));
        assert_eq!(planner.states_explored(), pin.states, "a move re-explored");

        assert_eq!(questions(&e, &mut LookaheadTwoStep), pin.two_step);
        // One optimal strategy serves every goal: its memo only saves work.
        assert_eq!(questions(&e, &mut OptimalStrategy::default()), pin.optimal);
    }
}
