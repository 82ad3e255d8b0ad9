//! Failure injection: every way a session can go wrong must surface as a
//! typed error with the engine left in a usable state — never a panic,
//! never silent corruption.

use jim::core::session::run_most_informative;
use jim::core::strategy::StrategyKind;
use jim::core::{
    Engine, EngineOptions, FnOracle, InferenceError, Label, NoisyOracle, Oracle, Transcript,
};
use jim::relation::{Product, ProductId, Tuple};
use jim::synth::flights;

fn fresh_engine(f: &jim::relation::Relation, h: &jim::relation::Relation) -> Engine {
    let p = Product::new(vec![f, h]).unwrap();
    Engine::new(p, &EngineOptions::default()).unwrap()
}

#[test]
fn adversarial_oracle_conflict_is_detected_not_inferred() {
    // An all-negative labeling is actually consistent (the empty-result
    // query), so a conflict needs a positive first: "yes" on (3), then
    // "no" on its signature twin (4).
    let (f, h) = (flights::flights(), flights::hotels());
    let mut e = fresh_engine(&f, &h);
    // (3)+ forces U = {TC, AD}; tuple (4) (same signature) becomes
    // certain-positive. A user answering "no" on it is inconsistent.
    e.label(flights::paper_tuple(3), Label::Positive).unwrap();
    let before_stats = e.stats().clone();
    let err = e.label(flights::paper_tuple(4), Label::Negative);
    assert!(matches!(err, Err(InferenceError::InconsistentLabel { .. })));
    // The engine is untouched and still usable.
    assert_eq!(e.stats(), &before_stats);
    e.label(flights::paper_tuple(8), Label::Negative).unwrap();
}

#[test]
fn flip_flopping_noisy_session_aborts_cleanly() {
    // With 100% error the oracle answers the exact opposite of Q2. The
    // session must either converge to some (wrong but consistent) query or
    // abort with InconsistentLabel — never panic.
    let (f, h) = (flights::flights(), flights::hotels());
    for seed in 0..10u64 {
        let e = fresh_engine(&f, &h);
        let goal = flights::q2(e.universe());
        let mut oracle = NoisyOracle::new(goal.clone(), 1.0, seed);
        let mut strategy = StrategyKind::LookaheadMinPrune.build();
        match run_most_informative(e, strategy.as_mut(), &mut oracle) {
            Ok(out) => {
                // Converged on the complement-driven query: must at least
                // be internally consistent (resolved).
                assert!(out.resolved);
            }
            Err(e) => assert!(matches!(e, InferenceError::InconsistentLabel { .. })),
        }
    }
}

#[test]
fn oracle_that_contradicts_itself_on_twins() {
    // Tuples (3) and (4) share a signature. An oracle that says yes to
    // (3) and no to (4) is caught at the second answer.
    let (f, h) = (flights::flights(), flights::hotels());
    let mut e = fresh_engine(&f, &h);
    let three = e.product().tuple(flights::paper_tuple(3)).unwrap();
    let mut answered = false;
    let mut oracle = FnOracle::new(move |t: &Tuple| {
        let a = if !answered {
            Label::from_bool(*t == three)
        } else {
            Label::Negative
        };
        answered = true;
        a
    });
    e.label(flights::paper_tuple(3), {
        let t = e.product().tuple(flights::paper_tuple(3)).unwrap();
        oracle.label(&t)
    })
    .unwrap();
    let t4 = e.product().tuple(flights::paper_tuple(4)).unwrap();
    let second = oracle.label(&t4);
    assert!(matches!(
        e.label(flights::paper_tuple(4), second),
        Err(InferenceError::InconsistentLabel { .. })
    ));
}

#[test]
fn unknown_tuple_id_is_rejected() {
    let (f, h) = (flights::flights(), flights::hotels());
    let mut e = fresh_engine(&f, &h);
    // An out-of-range rank errors at the relational layer and labels
    // nothing.
    let err = e.label(ProductId(99), Label::Positive);
    assert!(matches!(err, Err(InferenceError::Relation(_))));
    assert_eq!(e.stats().interactions(), 0);
}

#[test]
fn forged_transcript_against_grown_instance_is_rejected() {
    let (f, h) = (flights::flights(), flights::hotels());
    let mut e = fresh_engine(&f, &h);
    e.label(flights::paper_tuple(3), Label::Positive).unwrap();
    let mut t = Transcript::capture(&e);
    // Tamper: claim a different instance size.
    t.tuples = 13;
    let mut fresh = fresh_engine(&f, &h);
    assert!(t.replay(&mut fresh).is_err());
    // Untampered replays fine.
    let t = Transcript::capture(&e);
    let mut fresh = fresh_engine(&f, &h);
    assert_eq!(t.replay(&mut fresh).unwrap(), 1);
}

#[test]
fn transcript_with_out_of_range_rank_fails_replay() {
    let (f, h) = (flights::flights(), flights::hotels());
    let e = fresh_engine(&f, &h);
    let t = Transcript {
        schema: e.product().schema().to_string(),
        tuples: 12,
        labels: vec![(ProductId(50), Label::Positive)],
        origin: None,
    };
    let mut fresh = fresh_engine(&f, &h);
    assert!(matches!(
        t.replay(&mut fresh),
        Err(InferenceError::Relation(_))
    ));
}

#[test]
fn double_labeling_after_session_is_rejected() {
    let (f, h) = (flights::flights(), flights::hotels());
    let e = fresh_engine(&f, &h);
    let goal = flights::q1(e.universe());
    let mut oracle = jim::core::GoalOracle::new(goal);
    let mut strategy = StrategyKind::LocalGeneral.build();
    let out = run_most_informative(e, strategy.as_mut(), &mut oracle).unwrap();
    let mut engine = out.engine;
    let labeled = engine.stats().log[0].tuple;
    assert!(matches!(
        engine.label(labeled, Label::Positive),
        Err(InferenceError::AlreadyLabeled { .. })
    ));
}
