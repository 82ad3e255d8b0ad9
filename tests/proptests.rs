//! Property-based tests (proptest) for the core invariants listed in
//! DESIGN.md §8:
//!
//! * bitset algebra laws,
//! * hash join ≡ nested-loop join,
//! * CSV round-trips,
//! * signature monotonicity under `U`-restriction,
//! * soundness / termination / correctness of inference on random
//!   instances with random goals,
//! * version-space counting consistency (inclusion–exclusion vs brute
//!   force).

use jim::core::session::run_most_informative;
use jim::core::strategy::StrategyKind;
use jim::core::{AtomSet, Engine, EngineOptions, GoalOracle, JoinPredicate, VersionSpace};
use jim::relation::{csv, DataType, JoinSpec, Product, Relation, RelationSchema, Tuple, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------- fixtures

/// A random relation: `rows × arity` small-domain integers.
fn arb_relation(
    name: &'static str,
    arity: std::ops::RangeInclusive<usize>,
    rows: std::ops::RangeInclusive<usize>,
    domain: i64,
) -> impl Strategy<Value = Relation> {
    (arity, rows).prop_flat_map(move |(a, r)| {
        proptest::collection::vec(proptest::collection::vec(0..domain, a), r).prop_map(
            move |data| {
                let attrs: Vec<(String, DataType)> = (0..a)
                    .map(|i| (format!("{name}_c{i}"), DataType::Int))
                    .collect();
                let refs: Vec<(&str, DataType)> =
                    attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                let schema = RelationSchema::of(name, &refs).unwrap();
                let rows = data
                    .into_iter()
                    .map(|vals| Tuple::new(vals.into_iter().map(Value::Int).collect()))
                    .collect();
                Relation::new(schema, rows).unwrap()
            },
        )
    })
}

fn arb_bitset(bits: usize) -> impl Strategy<Value = AtomSet> {
    proptest::collection::vec(any::<bool>(), bits).prop_map(move |mask| {
        AtomSet::from_indices(
            bits,
            mask.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i),
        )
    })
}

// ------------------------------------------------------------ bitset laws

proptest! {
    #[test]
    fn bitset_intersection_is_lower_bound(a in arb_bitset(70), b in arb_bitset(70)) {
        let i = a.intersection(&b);
        prop_assert!(i.is_subset(&a));
        prop_assert!(i.is_subset(&b));
        prop_assert_eq!(i.len(), a.intersection_len(&b));
    }

    #[test]
    fn bitset_union_is_upper_bound(a in arb_bitset(70), b in arb_bitset(70)) {
        let u = a.union(&b);
        prop_assert!(a.is_subset(&u));
        prop_assert!(b.is_subset(&u));
        // |A ∪ B| = |A| + |B| − |A ∩ B|
        prop_assert_eq!(u.len() + a.intersection_len(&b), a.len() + b.len());
    }

    #[test]
    fn bitset_difference_partitions(a in arb_bitset(70), b in arb_bitset(70)) {
        let d = a.difference(&b);
        prop_assert!(d.is_subset(&a));
        prop_assert!(!d.intersects(&b) || d.intersection_len(&b) == 0);
        prop_assert_eq!(d.len() + a.intersection_len(&b), a.len());
    }

    #[test]
    fn bitset_subset_antisymmetry(a in arb_bitset(40), b in arb_bitset(40)) {
        if a.is_subset(&b) && b.is_subset(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn bitset_iter_round_trip(a in arb_bitset(129)) {
        let rebuilt = AtomSet::from_indices(129, a.iter());
        prop_assert_eq!(a, rebuilt);
    }
}

// --------------------------------------------------------- join evaluators

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_join_equals_nested_loop(
        r1 in arb_relation("p", 1..=3, 0..=6, 3),
        r2 in arb_relation("q", 1..=3, 0..=6, 3),
        pair_mask in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let p = Product::new(vec![&r1, &r2]).unwrap();
        let schema = p.schema();
        // Build a join spec from the mask over candidate cross pairs.
        let mut pairs = Vec::new();
        let a1 = r1.schema().arity();
        let mut k = 0;
        for i in 0..a1 {
            for j in 0..r2.schema().arity() {
                if *pair_mask.get(k).unwrap_or(&false) {
                    pairs.push((
                        schema.global(0, i).unwrap(),
                        schema.global(1, j).unwrap(),
                    ));
                }
                k += 1;
            }
        }
        let spec = JoinSpec::new(pairs);
        let reference = spec.eval_nested_loop(&p).unwrap();
        prop_assert_eq!(spec.eval_hash(&p).unwrap(), reference);
    }

    #[test]
    fn csv_round_trip(r in arb_relation("t", 1..=4, 0..=8, 100)) {
        let text = csv::write_relation(&r);
        let back = csv::read_relation("t", &text).unwrap();
        prop_assert_eq!(back.len(), r.len());
        // Int columns survive exactly (no value had text form).
        for (a, b) in r.rows().iter().zip(back.rows()) {
            prop_assert_eq!(a, b);
        }
    }
}

// ----------------------------------------------------- version-space laws

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inclusion–exclusion count == brute-force enumeration count.
    #[test]
    fn counting_matches_enumeration(
        upper_bits in 1usize..=8,
        negs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8), 0..=4),
    ) {
        // Build a universe of 8 atoms via a 2-relation schema is overkill;
        // test VersionSpace math directly through a synthetic instance.
        let r1 = Relation::new(
            RelationSchema::of(
                "a",
                &[("x0", DataType::Int), ("x1", DataType::Int), ("x2", DataType::Int), ("x3", DataType::Int)],
            ).unwrap(),
            vec![Tuple::new(vec![Value::Int(0); 4])],
        ).unwrap();
        let r2 = r1.clone();
        let p = Product::new(vec![&r1, &r2]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let universe = e.universe().clone();
        let n = universe.len();
        prop_assume!(n >= 8);

        let mut vs = VersionSpace::new(universe);
        // Restrict upper by a synthetic positive.
        let upper = AtomSet::from_indices(n, 0..upper_bits.min(n));
        // Fill the rest so the positive's signature = upper ∪ nothing else.
        vs.add_positive(jim::relation::ProductId(0), &upper).unwrap();
        for neg in &negs {
            let sig = AtomSet::from_indices(
                n,
                neg.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i),
            );
            // Skip inconsistent negatives (certain-positive signatures).
            let _ = vs.add_negative(jim::relation::ProductId(1), &sig);
        }
        let enumerated = vs.enumerate_consistent(1 << 12).unwrap().len() as u128;
        prop_assert_eq!(vs.count_consistent_exact(), Some(enumerated));
        if let Some(frac) = vs.consistent_fraction() {
            let expect = enumerated as f64 / (1u64 << vs.upper().len()) as f64;
            prop_assert!((frac - expect).abs() < 1e-9);
        }
    }

    /// Restriction is monotone: shrinking U never grows a restricted sig.
    #[test]
    fn restriction_monotone(
        sig in arb_bitset(16),
        u1 in arb_bitset(16),
        u2 in arb_bitset(16),
    ) {
        let tighter = u1.intersection(&u2);
        let r1 = sig.intersection(&u1);
        let r2 = sig.intersection(&tighter);
        prop_assert!(r2.is_subset(&r1));
    }
}

// ------------------------------------------------- candidate-index laws

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incrementally maintained candidate index equals a from-scratch
    /// reclassification of all groups after **any** random label sequence
    /// (positives, negatives, wasted labels) — the equivalence contract of
    /// the de-materialized hot path.
    #[test]
    fn incremental_index_matches_recompute(
        r1 in arb_relation("p", 2..=3, 2..=7, 3),
        r2 in arb_relation("q", 2..=3, 2..=7, 3),
        picks in proptest::collection::vec(any::<u64>(), 1..=12),
    ) {
        use jim::core::{Candidate, Label};
        fn sorted(mut v: Vec<Candidate>) -> Vec<Candidate> {
            v.sort_by(|a, b| {
                a.restricted_sig
                    .cmp(&b.restricted_sig)
                    .then(a.count.cmp(&b.count))
                    .then(a.representative.cmp(&b.representative))
            });
            v
        }
        let p = Product::new(vec![&r1, &r2]).unwrap();
        prop_assume!(!p.is_empty());

        let mut engine = Engine::new(p, &EngineOptions::default()).unwrap();

        for (step, pick) in picks.iter().enumerate() {
            prop_assert_eq!(
                sorted(engine.candidates().candidates().to_vec()),
                sorted(engine.recompute_candidates()),
                "index diverged at step {}", step
            );
            prop_assert_eq!(
                engine.candidates().total_tuples(),
                engine.stats().informative
            );
            if engine.is_resolved() {
                break;
            }
            // Label a random informative representative. Both labels are
            // consistent for an informative tuple by definition.
            let cands = engine.candidates().candidates().to_vec();
            let c = &cands[(*pick as usize) % cands.len()];
            let label = if pick & 1 == 0 { Label::Positive } else { Label::Negative };
            engine.label(c.representative, label).unwrap();
        }
        prop_assert_eq!(
            sorted(engine.candidates().candidates().to_vec()),
            sorted(engine.recompute_candidates())
        );
    }

    /// Batch-vs-sequential equivalence: any sequentially-consistent label
    /// sequence, randomly split into batches, leaves the engine in the
    /// same state as one-at-a-time labeling — same inferred predicate,
    /// same candidate set (also pinned against `recompute_candidates`),
    /// same resolution state, same label/prune accounting. This is the
    /// contract that lets `run_top_k` and the wire's `AnswerBatch` share
    /// one propagation pass per batch.
    #[test]
    fn batch_labeling_equals_sequential(
        r1 in arb_relation("p", 2..=3, 2..=7, 3),
        r2 in arb_relation("q", 2..=3, 2..=7, 3),
        picks in proptest::collection::vec(any::<u64>(), 1..=14),
        chunk_sizes in proptest::collection::vec(1usize..=5, 1..=14),
    ) {
        use jim::core::{Candidate, Label};
        fn sorted(mut v: Vec<Candidate>) -> Vec<Candidate> {
            v.sort_by(|a, b| {
                a.restricted_sig
                    .cmp(&b.restricted_sig)
                    .then(a.count.cmp(&b.count))
                    .then(a.representative.cmp(&b.representative))
            });
            v
        }
        let p = Product::new(vec![&r1, &r2]).unwrap();
        prop_assume!(!p.is_empty());

        // Drive a sequential engine with random-but-consistent labels
        // (an informative tuple accepts either label), recording the
        // sequence.
        let mut sequential =
            Engine::new(p.clone(), &EngineOptions::default()).unwrap();
        let mut sequence: Vec<(jim::relation::ProductId, Label)> = Vec::new();
        for pick in &picks {
            let cands = sequential.candidates().candidates().to_vec();
            if cands.is_empty() {
                break;
            }
            let c = &cands[(*pick as usize) % cands.len()];
            let label = if pick & 1 == 0 { Label::Positive } else { Label::Negative };
            sequential.label(c.representative, label).unwrap();
            sequence.push((c.representative, label));
        }

        // Replay the same sequence through label_batch in random chunks.
        let mut batched = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut rest = sequence.as_slice();
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while !rest.is_empty() {
            let size = (*chunk_iter.next().unwrap()).min(rest.len());
            let (chunk, tail) = rest.split_at(size);
            let outcome = batched.label_batch(chunk).unwrap();
            prop_assert_eq!(outcome.applied, chunk.len() as u64);
            rest = tail;
        }

        prop_assert_eq!(batched.result(), sequential.result());
        prop_assert_eq!(batched.is_resolved(), sequential.is_resolved());
        prop_assert_eq!(
            sorted(batched.candidates().candidates().to_vec()),
            sorted(sequential.candidates().candidates().to_vec())
        );
        prop_assert_eq!(
            sorted(batched.candidates().candidates().to_vec()),
            sorted(batched.recompute_candidates())
        );
        prop_assert_eq!(batched.entailed_positive_ids(), sequential.entailed_positive_ids());
        let (bs, ss) = (batched.stats(), sequential.stats());
        prop_assert_eq!(bs.labeled_positive, ss.labeled_positive);
        prop_assert_eq!(bs.labeled_negative, ss.labeled_negative);
        prop_assert_eq!(bs.pruned, ss.pruned);
        prop_assert_eq!(bs.informative, ss.informative);
    }

    /// The generation counter strictly increases on every label — the
    /// invalidation signal owned caches (the server's question cache) rely
    /// on.
    #[test]
    fn generation_tracks_mutations(
        r1 in arb_relation("p", 2..=2, 2..=6, 3),
        r2 in arb_relation("q", 2..=2, 2..=6, 3),
        picks in proptest::collection::vec(any::<u64>(), 1..=8),
    ) {
        use jim::core::Label;
        let p = Product::new(vec![&r1, &r2]).unwrap();
        prop_assume!(!p.is_empty());
        let mut engine = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut last = engine.generation();
        for pick in picks {
            let _ = engine.candidates();
            let _ = engine.recompute_candidates();
            prop_assert_eq!(engine.generation(), last, "queries must not bump");
            let cands = engine.candidates().candidates().to_vec();
            if cands.is_empty() {
                break;
            }
            let c = &cands[(pick as usize) % cands.len()];
            let label = if pick & 1 == 0 { Label::Positive } else { Label::Negative };
            engine.label(c.representative, label).unwrap();
            prop_assert!(engine.generation() > last, "labels must bump");
            last = engine.generation();
        }
    }
}

// -------------------------------------------- inference run-level invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness + termination + correctness on random instances & goals,
    /// for a lookahead and a local strategy and the random baseline.
    #[test]
    fn inference_invariants(
        r1 in arb_relation("p", 2..=3, 2..=8, 3),
        r2 in arb_relation("q", 2..=3, 2..=8, 3),
        goal_pick in any::<u64>(),
        strat_pick in 0usize..3,
    ) {
        let p = Product::new(vec![&r1, &r2]).unwrap();
        prop_assume!(!p.is_empty());
        let engine = Engine::new(p.clone(), &EngineOptions::default()).unwrap();
        let universe = engine.universe().clone();

        // Goal: the signature of a random product tuple (always satisfiable),
        // possibly thinned to a sub-predicate.
        let witness = jim::relation::ProductId(goal_pick % p.size());
        let tuple = p.tuple(witness).unwrap();
        let full = universe.signature(&tuple);
        let kept: Vec<usize> = full
            .iter()
            .enumerate()
            .filter(|(i, _)| goal_pick >> (i % 60) & 1 == 1)
            .map(|(_, atom)| atom)
            .collect();
        let atoms = AtomSet::from_indices(universe.len(), kept);
        let goal = JoinPredicate::new(universe.clone(), atoms);

        let kind = [
            StrategyKind::LookaheadMinPrune,
            StrategyKind::LocalGeneral,
            StrategyKind::Random { seed: goal_pick },
        ][strat_pick];

        let total = engine.stats().total_tuples;
        let mut strategy = kind.build();
        let mut oracle = GoalOracle::new(goal.clone());
        let out = run_most_informative(engine, strategy.as_mut(), &mut oracle).unwrap();

        // Termination within the trivial budget.
        prop_assert!(out.resolved);
        prop_assert!(out.interactions <= total);
        // Soundness: goal never eliminated.
        prop_assert!(out.engine.consistent_with(&goal));
        // Correctness: instance-equivalent result.
        prop_assert!(out.inferred.instance_equivalent(&goal, out.engine.product()).unwrap());
        // The statistics add up.
        let s = out.engine.stats();
        prop_assert_eq!(
            s.labeled_positive + s.labeled_negative + s.pruned,
            s.total_tuples
        );
    }

    /// Every intermediate classification is honest: a certain-positive
    /// tuple is selected by the goal, a certain-negative one is not
    /// (given truthful answers so far).
    #[test]
    fn certainty_is_honest(
        r1 in arb_relation("p", 2..=2, 2..=6, 3),
        r2 in arb_relation("q", 2..=2, 2..=6, 3),
        goal_pick in any::<u64>(),
    ) {
        use jim::core::{Label, TupleClass};
        let p = Product::new(vec![&r1, &r2]).unwrap();
        prop_assume!(!p.is_empty());
        let mut engine = Engine::new(p.clone(), &EngineOptions::default()).unwrap();
        let universe = engine.universe().clone();
        let witness = jim::relation::ProductId(goal_pick % p.size());
        let goal = JoinPredicate::new(
            universe.clone(),
            universe.signature(&p.tuple(witness).unwrap()),
        );

        let mut strategy = StrategyKind::LookaheadMinPrune.build();
        loop {
            // Check every tuple's classification against the goal.
            for (id, tuple) in p.iter() {
                match engine.classify(id).unwrap() {
                    TupleClass::CertainPositive => prop_assert!(goal.selects(&tuple)),
                    TupleClass::CertainNegative => prop_assert!(!goal.selects(&tuple)),
                    TupleClass::Informative => {}
                }
            }
            let Some(next) = jim::core::strategy::choose_next(strategy.as_mut(), &engine) else { break };
            let t = p.tuple(next).unwrap();
            engine.label(next, Label::from_bool(goal.selects(&t))).unwrap();
        }
    }
}

// ------------------------------------------ durable-session resume fidelity

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Resume-vs-live equivalence: a random session over a journaled
    /// (`--data-dir`) server, evicted at a random batch boundary and
    /// transparently rehydrated by replay, ends bit-identical to the same
    /// session on a never-evicted in-memory server — same inferred
    /// predicate, same candidate set, same `ProgressStats` **including
    /// the interaction log** (the journal records applied batches, and
    /// resume replays them with one `label_batch` pass each, reproducing
    /// the exact state trajectory).
    #[test]
    fn evicted_and_resumed_session_equals_never_evicted(
        r1 in arb_relation("p", 2..=3, 2..=6, 3),
        r2 in arb_relation("q", 2..=3, 2..=6, 3),
        picks in proptest::collection::vec(any::<u64>(), 1..=12),
        chunk_sizes in proptest::collection::vec(1usize..=4, 1..=12),
        cut in any::<u64>(),
    ) {
        use jim::core::{Candidate, Label};
        use jim::relation::csv;
        use jim_json::Json;
        use jim_server::handler::Handler;
        use jim_server::journal::JournalStore;
        use jim_server::store::{SessionStore, StoreConfig};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        fn sorted(mut v: Vec<Candidate>) -> Vec<Candidate> {
            v.sort_by(|a, b| {
                a.restricted_sig
                    .cmp(&b.restricted_sig)
                    .then(a.count.cmp(&b.count))
                    .then(a.representative.cmp(&b.representative))
            });
            v
        }

        let p = Product::new(vec![&r1, &r2]).unwrap();
        prop_assume!(!p.is_empty());

        // Generate a sequentially-consistent label sequence on a scratch
        // engine (an informative tuple accepts either label), then chunk
        // it into the batches both servers will receive.
        let mut scratch = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut sequence: Vec<(jim::relation::ProductId, Label)> = Vec::new();
        for pick in &picks {
            let cands = scratch.candidates().candidates().to_vec();
            if cands.is_empty() {
                break;
            }
            let c = &cands[(*pick as usize) % cands.len()];
            let label = if pick & 1 == 0 { Label::Positive } else { Label::Negative };
            scratch.label(c.representative, label).unwrap();
            sequence.push((c.representative, label));
        }
        let mut batches: Vec<&[(jim::relation::ProductId, Label)]> = Vec::new();
        let mut rest = sequence.as_slice();
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while !rest.is_empty() {
            let size = (*chunk_iter.next().unwrap()).min(rest.len());
            let (chunk, tail) = rest.split_at(size);
            batches.push(chunk);
            rest = tail;
        }

        // Two servers: one journaled (evicted mid-way), one plain.
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "jim-proptest-resume-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ttl = Duration::from_secs(60);
        let durable = Handler::new(Arc::new(SessionStore::with_journal(
            StoreConfig { max_sessions: 8, ttl },
            JournalStore::open(&dir).unwrap(),
        )));
        let live = Handler::new(Arc::new(SessionStore::new(StoreConfig::default())));

        let create = format!(
            r#"{{"op":"CreateSession","source":{{"relations":[{{"name":"p","csv":{}}},{{"name":"q","csv":{}}}]}},"strategy":"local-general"}}"#,
            Json::from(csv::write_relation(&r1)).render(),
            Json::from(csv::write_relation(&r2)).render(),
        );
        let open = |h: &Handler| -> u64 {
            let r = Json::parse(&h.handle_line(&create)).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
            r.get("session").unwrap().as_u64().unwrap()
        };
        let durable_id = open(&durable);
        let live_id = open(&live);
        prop_assert_eq!(
            Json::parse(&durable.handle_line(&format!(
                r#"{{"op":"Stats","session":{durable_id}}}"#
            )))
            .unwrap()
            .get("total_tuples")
            .unwrap()
            .as_u64(),
            Some(scratch.stats().total_tuples),
            "CSV round trip must reproduce the instance"
        );

        // Apply the same batches to both; evict the durable session at a
        // random batch boundary (possibly before any batch, or after all).
        let evict_after = (cut as usize) % (batches.len() + 1);
        for (i, batch) in batches.iter().enumerate() {
            if i == evict_after {
                let future = Instant::now() + ttl + Duration::from_secs(1);
                prop_assert_eq!(durable.store().sweep_at(future), vec![durable_id]);
            }
            let labels: Vec<String> = batch
                .iter()
                .map(|(id, label)| format!(r#"{{"tuple":{},"label":"{label}"}}"#, id.0))
                .collect();
            for (h, id) in [(&durable, durable_id), (&live, live_id)] {
                let r = Json::parse(&h.handle_line(&format!(
                    r#"{{"op":"AnswerBatch","session":{id},"labels":[{}]}}"#,
                    labels.join(","),
                )))
                .unwrap();
                prop_assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{}", r);
                prop_assert_eq!(
                    r.get("applied").and_then(Json::as_u64),
                    Some(batch.len() as u64)
                );
            }
        }
        if evict_after == batches.len() {
            let future = Instant::now() + ttl + Duration::from_secs(1);
            prop_assert_eq!(durable.store().sweep_at(future), vec![durable_id]);
        }

        // The rehydrated engine must be indistinguishable from the
        // never-evicted one (peek resumes transparently via get).
        let durable_handle = durable.store().get(durable_id).expect("resumable");
        let live_handle = live.store().get(live_id).expect("resident");
        let durable_session = durable_handle.lock().unwrap();
        let live_session = live_handle.lock().unwrap();
        let (d, l) = (&durable_session.engine, &live_session.engine);
        prop_assert_eq!(d.result(), l.result());
        prop_assert_eq!(d.is_resolved(), l.is_resolved());
        prop_assert_eq!(
            sorted(d.candidates().candidates().to_vec()),
            sorted(l.candidates().candidates().to_vec())
        );
        prop_assert_eq!(
            sorted(d.candidates().candidates().to_vec()),
            sorted(d.recompute_candidates())
        );
        prop_assert_eq!(d.entailed_positive_ids(), l.entailed_positive_ids());
        prop_assert_eq!(d.stats(), l.stats(), "stats incl. interaction log");
        prop_assert_eq!(d.generation(), l.generation(), "one pass per batch");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
