//! Factorized construction is observationally equivalent to enumeration.
//!
//! [`Engine::from_factorized`] computes the signature-group partition from
//! the base relations without materializing the product; these properties
//! pin it against [`Engine::new`] on random small instances: identical
//! candidates, identical [`ProgressStats`], and an identical question
//! sequence under every strategy, identical classification of every id
//! and identical free-form labels of ids outside the witness samples —
//! plus the edge cases (empty relation, all-rows-one-block, self-join
//! with duplicate rows) and 2–4-occurrence self-joins over one shared
//! relation.

#![forbid(unsafe_code)]

use jim_core::strategy::choose_next;
use jim_core::{AtomScope, Engine, EngineOptions, InferenceError, Label, StrategyKind, TupleClass};
use jim_relation::{
    DataType, IntoSharedRelation, Product, ProductId, Relation, RelationSchema, Tuple, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

fn relation(name: &str, arity: usize, rows: &[Vec<i64>]) -> Relation {
    let cols: Vec<(String, DataType)> = (0..arity)
        .map(|i| (format!("c{i}"), DataType::Int))
        .collect();
    let refs: Vec<(&str, DataType)> = cols.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let schema = RelationSchema::of(name, &refs).unwrap();
    let tuples = rows
        .iter()
        .map(|r| Tuple::new(r.iter().map(|&v| Value::Int(v)).collect()))
        .collect();
    Relation::new(schema, tuples).unwrap()
}

/// Build both engines over the same relations; `None` when the instance is
/// degenerate for that scope (both constructions must agree on that too).
fn both(rels: &[&Relation], scope: AtomScope) -> Option<(Engine, Engine)> {
    both_shared(
        &rels
            .iter()
            .map(|r| (*r).clone().into_shared())
            .collect::<Vec<_>>(),
        scope,
    )
}

/// [`both`] over shared handles: repeating one `Arc` is the shape
/// `Database::join_view` gives a self-join.
fn both_shared(rels: &[Arc<Relation>], scope: AtomScope) -> Option<(Engine, Engine)> {
    let opts = EngineOptions {
        scope,
        ..Default::default()
    };
    let fe = Engine::from_factorized(Product::new(rels.to_vec()).unwrap(), &opts);
    let ee = Engine::new(Product::new(rels.to_vec()).unwrap(), &opts);
    match (fe, ee) {
        (Ok(fe), Ok(ee)) => Some((fe, ee)),
        (Err(InferenceError::EmptyUniverse), Err(InferenceError::EmptyUniverse)) => None,
        (fe, ee) => panic!("construction modes disagree: {fe:?} vs {ee:?}"),
    }
}

/// The construction-time invariants: same stats, same candidate index.
fn assert_same_state(fe: &Engine, ee: &Engine, context: &str) {
    assert_eq!(fe.stats(), ee.stats(), "{context}: stats");
    assert_eq!(fe.num_groups(), ee.num_groups(), "{context}: group count");
    assert_eq!(
        fe.candidates().candidates(),
        ee.candidates().candidates(),
        "{context}: candidates"
    );
    assert_eq!(fe.is_resolved(), ee.is_resolved(), "{context}: resolved");
}

/// Drive one full session under `kind` on clones of both engines, asserting
/// the question sequence and the post-label state match step by step.
/// Labels are an arbitrary deterministic function of the asked id — any
/// label of an informative tuple is consistent.
fn assert_same_session(fe: &Engine, ee: &Engine, kind: StrategyKind) {
    let (mut fe, mut ee) = (fe.clone(), ee.clone());
    let mut fs = kind.build();
    let mut es = kind.build();
    let mut steps = 0usize;
    loop {
        let fq = choose_next(fs.as_mut(), &fe);
        let eq = choose_next(es.as_mut(), &ee);
        assert_eq!(fq, eq, "question {steps} under {kind}");
        let Some(id) = fq else { break };
        let label = Label::from_bool(id.0 % 3 != 0);
        let fo = fe.label(id, label).unwrap();
        let eo = ee.label(id, label).unwrap();
        assert_eq!(fo, eo, "label outcome {steps} under {kind}");
        assert_same_state(&fe, &ee, &format!("after step {steps} under {kind}"));
        steps += 1;
        assert!(steps <= 1000, "session under {kind} did not terminate");
    }
    assert!(fe.is_resolved() && ee.is_resolved());
    assert_eq!(fe.result(), ee.result(), "inferred predicate under {kind}");
}

/// Every id of the product classifies the same on both engines, and
/// none fails: the groups of each cover the whole product.
fn assert_same_classes(fe: &Engine, ee: &Engine, context: &str) {
    for id in (0..fe.product().size()).map(ProductId) {
        let class = fe
            .classify(id)
            .unwrap_or_else(|e| panic!("{context}: {id}: {e}"));
        assert_eq!(Ok(class), ee.classify(id), "{context}: class of {id}");
    }
}

fn rows_strategy(max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    proptest::collection::vec(proptest::collection::vec(0i64..4, 2), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random binary instances: identical state at construction and an
    /// identical question sequence under every strategy, in both scopes.
    #[test]
    fn random_instances_match_under_every_strategy(
        rows_a in rows_strategy(6),
        rows_b in rows_strategy(6),
    ) {
        let a = relation("a", 2, &rows_a);
        let b = relation("b", 2, &rows_b);
        for scope in [AtomScope::CrossRelation, AtomScope::AllPairs] {
            let Some((fe, ee)) = both(&[&a, &b], scope) else { continue };
            assert_same_state(&fe, &ee, &format!("{scope:?} construction"));
            for kind in StrategyKind::extended(11) {
                assert_same_session(&fe, &ee, kind);
            }
        }
    }

    /// Ternary instances: the sweep's mixed-radix prefix over two
    /// occurrences, in both scopes.
    #[test]
    fn ternary_instances_match(
        rows_a in rows_strategy(4),
        rows_b in rows_strategy(4),
        rows_c in rows_strategy(4),
    ) {
        let a = relation("a", 2, &rows_a);
        let b = relation("b", 2, &rows_b);
        let c = relation("c", 2, &rows_c);
        for scope in [AtomScope::CrossRelation, AtomScope::AllPairs] {
            let Some((fe, ee)) = both(&[&a, &b, &c], scope) else { continue };
            assert_same_state(&fe, &ee, &format!("{scope:?} ternary construction"));
            assert_same_session(&fe, &ee, StrategyKind::LookaheadMinPrune);
            assert_same_session(&fe, &ee, StrategyKind::LocalGeneral);
        }
    }

    /// 3- and 4-occurrence self-joins over one shared relation, the
    /// shape whose occurrences share one block partition.
    #[test]
    fn shared_self_joins_of_three_and_four_occurrences_match(
        rows in rows_strategy(4),
        occurrences in 3usize..=4,
    ) {
        let r = relation("r", 2, &rows).into_shared();
        let rels = vec![r; occurrences];
        for scope in [AtomScope::CrossRelation, AtomScope::AllPairs] {
            let Some((fe, ee)) = both_shared(&rels, scope) else { continue };
            let context = format!("{occurrences}-occurrence {scope:?} self-join");
            assert_same_state(&fe, &ee, &context);
            assert_same_session(&fe, &ee, StrategyKind::LocalGeneral);
        }
    }

    /// Self-joins (the same relation twice, duplicate rows allowed) share
    /// the occurrence structure the sparse sweep's classes rely on.
    #[test]
    fn self_joins_with_duplicates_match(rows in rows_strategy(5)) {
        let mut doubled = rows.clone();
        doubled.extend(rows.iter().cloned());
        let r = relation("r", 2, &doubled);
        let r = r.into_shared();
        let Some((fe, ee)) = both_shared(&[r.clone(), r], AtomScope::CrossRelation) else { return Ok(()) };
        assert_same_state(&fe, &ee, "self-join construction");
        for kind in StrategyKind::heuristics(5) {
            assert_same_session(&fe, &ee, kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A free-form user may label any id, not only the ones a strategy
    /// asks about or a factorized engine keeps as its groups' witness
    /// samples. Every id classifies the same on both constructions, a
    /// label of the largest id outside every witness sample gives an
    /// equal outcome and state, and every id still classifies the same
    /// after it; an id past the product fails with the product's range
    /// error. So `InferenceError::UnknownTuple` cannot be reached. Up to
    /// 7 × 7 tuples, so that some groups outgrow their witness sample.
    #[test]
    fn ids_outside_the_witness_samples_classify_and_label_alike(
        rows_a in rows_strategy(8),
        rows_b in rows_strategy(8),
    ) {
        let a = relation("a", 2, &rows_a);
        let b = relation("b", 2, &rows_b);
        for scope in [AtomScope::CrossRelation, AtomScope::AllPairs] {
            let Some((mut fe, mut ee)) = both(&[&a, &b], scope) else { continue };
            let size = fe.product().size();
            assert_same_classes(&fe, &ee, &format!("{scope:?} construction"));
            assert!(
                matches!(fe.classify(ProductId(size)), Err(InferenceError::Relation(_))),
                "{scope:?}: an id past the product fails with the range error"
            );

            let visible = fe.visible_ids(false);
            let Some(id) = (0..size)
                .rev()
                .map(ProductId)
                .find(|id| visible.binary_search(id).is_err())
            else {
                continue; // every id is some group's witness
            };
            let label = match ee.classify(id).unwrap() {
                TupleClass::CertainNegative => Label::Negative,
                TupleClass::CertainPositive | TupleClass::Informative => Label::Positive,
            };
            let outcome = fe.label(id, label);
            assert!(outcome.is_ok(), "{scope:?}: label {id}: {outcome:?}");
            assert_eq!(outcome, ee.label(id, label), "{scope:?}: label outcome of {id}");
            let context = format!("{scope:?} after labeling {id}");
            assert_same_state(&fe, &ee, &context);
            assert_same_classes(&fe, &ee, &context);
        }
    }
}

#[test]
fn empty_relation_matches() {
    let a = relation("a", 2, &[vec![1, 2], vec![3, 3]]);
    let b = relation("b", 2, &[]);
    let (fe, ee) = both(&[&a, &b], AtomScope::CrossRelation).unwrap();
    assert_same_state(&fe, &ee, "empty relation");
    assert!(fe.is_resolved(), "empty product resolves immediately");
    assert_eq!(fe.stats().total_tuples, 0);
}

#[test]
fn all_rows_one_block_matches() {
    // Values never overlap across relations: every cross pair fails, the
    // whole product is a single empty-signature group.
    let a = relation("a", 2, &[vec![1, 2], vec![3, 4], vec![5, 6]]);
    let b = relation("b", 2, &[vec![10, 11], vec![12, 13]]);
    let (fe, ee) = both(&[&a, &b], AtomScope::CrossRelation).unwrap();
    assert_same_state(&fe, &ee, "one block");
    assert_eq!(fe.num_groups(), 1);
    assert_eq!(fe.candidates().candidates()[0].count, 6);
    for kind in StrategyKind::heuristics(3) {
        assert_same_session(&fe, &ee, kind);
    }
}

#[test]
fn paper_instance_matches_under_optimal_planner() {
    let a = relation("a", 2, &[vec![1, 2], vec![2, 3], vec![3, 1]]);
    let b = relation("b", 2, &[vec![2, 2], vec![3, 0]]);
    let (fe, ee) = both(&[&a, &b], AtomScope::CrossRelation).unwrap();
    assert_same_state(&fe, &ee, "optimal planner instance");
    assert_same_session(&fe, &ee, StrategyKind::Optimal);
}
