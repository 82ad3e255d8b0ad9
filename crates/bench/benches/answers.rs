//! Criterion bench for batched label propagation: answering a k-label
//! batch with **one** [`Engine::label_batch`] pass versus the sequential
//! path (k calls to [`Engine::label`], each paying its own version-space
//! update, candidate-index maintenance pass and generation bump) — the
//! wire-level difference between one `AnswerBatch` request and k `Answer`
//! requests. Labels are truthful w.r.t. a goal predicate, so both paths
//! are consistent and end in the identical engine state (asserted before
//! timing).
//!
//! Both arms clone the engine per iteration; the `clone_baseline` group
//! measures that shared cost so it can be subtracted when reading the
//! numbers.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jim_bench::runner::Workbench;
use jim_core::{Engine, JoinPredicate, Label};
use jim_relation::ProductId;
use jim_synth::random_db::{generate, RandomDbConfig};

/// A random 2-relation instance with a rich signature lattice, plus a
/// goal that selects a nontrivial subset (the signature of one product
/// tuple), mirroring the `candidates` bench fixture.
fn fixture() -> (Engine, JoinPredicate) {
    fixture_with(3, 120)
}

/// Same, with a chosen per-relation arity: the cross-relation universe
/// has `arity²` atoms (16 → 256 atoms, 32 → 1024), the widths where the
/// version-space sweeps run multi-word bitset loops per pair.
fn fixture_with(arity: usize, rows: usize) -> (Engine, JoinPredicate) {
    let db = generate(&RandomDbConfig::uniform(2, arity, rows, 3, 42));
    let wb = Workbench::new(db, &["r1", "r2"]);
    let engine = wb.engine();
    let universe = engine.universe().clone();
    let witness = engine
        .product()
        .tuple(ProductId(0))
        .expect("non-empty product");
    let goal = JoinPredicate::new(universe.clone(), universe.signature(&witness));
    (engine, goal)
}

/// The k-label batch a top-k round would pose: the first `k` candidate
/// representatives, each answered truthfully w.r.t. the goal.
fn truthful_batch(engine: &Engine, goal: &JoinPredicate, k: usize) -> Vec<(ProductId, Label)> {
    engine
        .candidates()
        .iter()
        .take(k)
        .map(|c| {
            let tuple = engine
                .product()
                .tuple(c.representative)
                .expect("candidate ids are valid");
            (c.representative, Label::from_bool(goal.selects(&tuple)))
        })
        .collect()
}

fn bench_batch_vs_sequential(c: &mut Criterion) {
    let (engine, goal) = fixture();
    let mut group = c.benchmark_group("answer_batch");
    group.sample_size(20);
    for k in [4usize, 16, 64] {
        let batch = truthful_batch(&engine, &goal, k);
        assert_eq!(batch.len(), k, "fixture must offer at least {k} candidates");

        // Both paths must land in the same state before we time them.
        let mut batched = engine.clone();
        batched.label_batch(&batch).unwrap();
        let mut sequential = engine.clone();
        for &(id, label) in &batch {
            sequential.label(id, label).unwrap();
        }
        assert_eq!(batched.result(), sequential.result());
        assert_eq!(
            batched.stats().informative,
            sequential.stats().informative,
            "k={k}: batched and sequential propagation must agree"
        );

        group.bench_with_input(BenchmarkId::new("batched", k), &batch, |b, batch| {
            b.iter(|| {
                let mut e = engine.clone();
                e.label_batch(std::hint::black_box(batch)).unwrap();
                e.generation()
            })
        });
        group.bench_with_input(BenchmarkId::new("sequential", k), &batch, |b, batch| {
            b.iter(|| {
                let mut e = engine.clone();
                for &(id, label) in std::hint::black_box(batch) {
                    e.label(id, label).unwrap();
                }
                e.generation()
            })
        });
    }
    group.finish();
}

/// The per-iteration engine clone both arms above pay — subtract this to
/// read the pure propagation cost.
fn bench_clone_baseline(c: &mut Criterion) {
    let (engine, _) = fixture();
    let mut group = c.benchmark_group("clone_baseline");
    group.sample_size(20);
    group.bench_function("engine_clone", |b| {
        b.iter(|| std::hint::black_box(&engine).clone().generation())
    });
    group.finish();
}

/// Batched propagation on wide atom universes (256 / 1024 atoms): the
/// subsumption sweep after a negative-only batch is exactly the packed
/// `subsumed_mask` path.
fn bench_batch_wide_universe(c: &mut Criterion) {
    let mut group = c.benchmark_group("answer_batch_wide");
    group.sample_size(10);
    for arity in [16usize, 32] {
        let (engine, goal) = fixture_with(arity, 40);
        let atoms = engine.universe().len();
        let batch = truthful_batch(&engine, &goal, 16);
        let mut check = engine.clone();
        check.label_batch(&batch).unwrap();
        group.bench_with_input(
            BenchmarkId::new("batched", format!("{atoms}atoms")),
            &batch,
            |b, batch| {
                b.iter(|| {
                    let mut e = engine.clone();
                    e.label_batch(std::hint::black_box(batch)).unwrap();
                    e.generation()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_vs_sequential,
    bench_clone_baseline,
    bench_batch_wide_universe
);
criterion_main!(benches);
