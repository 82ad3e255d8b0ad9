//! Criterion bench for the incremental candidate index: the per-question
//! strategy step on a large synthetic product, incremental (the maintained
//! [`Engine::candidates`] view + `simulate_in`) vs the pre-index behavior
//! (re-materialize the candidate list for the ranking **and** once per
//! `simulate` call). The "rebuild" arm reproduces the old code path via
//! [`Engine::recompute_candidates`], which is kept in the engine exactly as
//! the reference implementation; the property tests prove the two paths
//! pick identical candidates.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jim_bench::runner::Workbench;
use jim_core::strategy::StrategyKind;
use jim_core::{Candidate, Engine, Label};
use jim_relation::ProductId;
use jim_synth::random_db::{generate, RandomDbConfig};

/// A random 2-relation instance: `rows`² product tuples over a small
/// domain, so the signature lattice is rich (many distinct candidates).
fn fixture(rows: usize) -> Engine {
    fixture_with(3, rows)
}

/// Same, with a chosen per-relation arity: the cross-relation universe
/// has `arity²` atoms, so arity 16 → 256 atoms (4 bitset words) and
/// arity 32 → 1024 atoms (16 words) — the widths where the multi-word
/// bitset loops, not the per-group bookkeeping, dominate the sweeps.
fn fixture_with(arity: usize, rows: usize) -> Engine {
    let db = generate(&RandomDbConfig::uniform(2, arity, rows, 3, 42));
    let wb = Workbench::new(db, &["r1", "r2"]);
    let mut engine = wb.engine();
    // One negative label so the version space has a non-trivial antichain
    // (the shape mid-session questions are actually scored under).
    if let Some(c) = engine.candidates().candidates().first().cloned() {
        engine.label(c.representative, Label::Negative).unwrap();
    }
    engine
}

/// The pre-index per-question step: materialize the candidate list, then
/// score every candidate with a `simulate` that re-materializes it again —
/// the exact shape of the old `LookaheadMinPrune::choose`.
fn rebuild_choose(engine: &Engine) -> Option<ProductId> {
    let candidates = engine.recompute_candidates();
    let negs = engine.version_space().negatives();
    let score = |c: &Candidate| {
        let fresh = engine.recompute_candidates();
        let mut pos = 0u64;
        let mut neg = 0u64;
        for d in &fresh {
            let inter = d.restricted_sig.intersection(&c.restricted_sig);
            let becomes_pos = c.restricted_sig.is_subset(&d.restricted_sig);
            let becomes_neg = negs.iter().any(|n| inter.is_subset(n));
            if becomes_pos || becomes_neg {
                pos += d.count;
            }
            if d.restricted_sig.is_subset(&c.restricted_sig) {
                neg += d.count;
            }
        }
        (pos.min(neg), pos + neg)
    };
    // Same argmax + tie-break as `strategy::rank`.
    let mut best: Option<((u64, u64), &Candidate)> = None;
    for c in &candidates {
        let s = score(c);
        let better = match &best {
            None => true,
            Some((bs, bc)) => {
                s > *bs
                    || (s == *bs
                        && (c.restricted_sig < bc.restricted_sig
                            || (c.restricted_sig == bc.restricted_sig
                                && c.representative < bc.representative)))
            }
        };
        if better {
            best = Some((s, c));
        }
    }
    best.map(|(_, c)| c.representative)
}

/// The incremental per-question step: borrow the maintained view, rank it
/// with one reusable scratch.
fn incremental_choose(engine: &Engine) -> Option<ProductId> {
    let mut strategy = StrategyKind::LookaheadMinPrune.build();
    jim_core::strategy::choose_next(strategy.as_mut(), engine)
}

fn bench_per_question(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_question");
    group.sample_size(10);
    for rows in [60usize, 120] {
        let engine = fixture(rows);
        let (tuples, cands) = (engine.stats().total_tuples, engine.candidates().len());
        // Both paths must agree before we time them.
        assert_eq!(incremental_choose(&engine), rebuild_choose(&engine));
        let label = format!("{tuples}t_{cands}c");
        group.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &engine,
            |b, engine| b.iter(|| incremental_choose(std::hint::black_box(engine))),
        );
        group.bench_with_input(BenchmarkId::new("rebuild", &label), &engine, |b, engine| {
            b.iter(|| rebuild_choose(std::hint::black_box(engine)))
        });
    }
    group.finish();
}

/// The raw cost of obtaining the candidate list: borrowed view vs full
/// rematerialization (what every strategy paid per call before the index).
fn bench_candidate_access(c: &mut Criterion) {
    let engine = fixture(120);
    let mut group = c.benchmark_group("candidate_access");
    group.bench_function("view", |b| {
        b.iter(|| std::hint::black_box(&engine).candidates().total_tuples())
    });
    group.bench_function("recompute", |b| {
        b.iter(|| {
            std::hint::black_box(&engine)
                .recompute_candidates()
                .iter()
                .map(|c| c.count)
                .sum::<u64>()
        })
    });
    group.finish();
}

/// Label absorption with the incremental index (the other half of the
/// per-question round trip: Answer → propagate → next view).
fn bench_label_step(c: &mut Criterion) {
    let engine = fixture(120);
    let mut group = c.benchmark_group("label_step");
    group.sample_size(10);
    group.bench_function("negative_then_view", |b| {
        b.iter(|| {
            let mut e = engine.clone();
            let c = e.candidates().candidates()[0].clone();
            e.label(c.representative, Label::Negative).unwrap();
            e.candidates().len()
        })
    });
    group.bench_function("positive_then_view", |b| {
        b.iter(|| {
            let mut e = engine.clone();
            let c = e.candidates().candidates()[0].clone();
            e.label(c.representative, Label::Positive).unwrap();
            e.candidates().len()
        })
    });
    group.finish();
}

/// The per-question step and label absorption on wide atom universes
/// (256 and 1024 atoms), where every subset test spans 4 / 16 words and
/// the antichain sweeps run over packed multi-word rows.
fn bench_wide_universe(c: &mut Criterion) {
    let mut group = c.benchmark_group("wide_universe");
    group.sample_size(10);
    for arity in [16usize, 32] {
        let engine = fixture_with(arity, 40);
        let atoms = engine.universe().len();
        let label = format!("{atoms}atoms_{}c", engine.candidates().len());
        group.bench_with_input(BenchmarkId::new("choose", &label), &engine, |b, engine| {
            b.iter(|| incremental_choose(std::hint::black_box(engine)))
        });
        group.bench_with_input(
            BenchmarkId::new("negative_label", &label),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let mut e = engine.clone();
                    let c = e.candidates().candidates()[0].clone();
                    e.label(c.representative, Label::Negative).unwrap();
                    e.candidates().len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_per_question,
    bench_candidate_access,
    bench_label_step,
    bench_wide_universe
);
criterion_main!(benches);
