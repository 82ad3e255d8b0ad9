//! Criterion bench for the relational substrate: hash-fold equi-join vs
//! the nested-loop reference, across join shapes.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use jim_relation::{spec_by_names, Product};
use jim_synth::tpch;

fn bench_join_evaluators(c: &mut Criterion) {
    let db = tpch::generate(tpch::TpchConfig {
        scale: 2.0,
        seed: 3,
    });
    let (rels, schema) = db
        .join_view(&["orders", "lineitem"])
        .expect("relations exist");
    let product = Product::new(rels).expect("non-empty");
    let fk = spec_by_names(&schema, &[((0, "o_orderkey"), (1, "l_orderkey"))]).expect("attrs");

    let mut group = c.benchmark_group("join_fk");
    group.sample_size(20);
    group.bench_function("hash", |b| {
        b.iter(|| {
            fk.eval_hash(std::hint::black_box(&product))
                .expect("valid spec")
        })
    });
    group.bench_function("nested_loop", |b| {
        b.iter(|| {
            fk.eval_nested_loop(std::hint::black_box(&product))
                .expect("valid spec")
        })
    });
    group.finish();
}

fn bench_three_way(c: &mut Criterion) {
    let db = tpch::generate(tpch::TpchConfig {
        scale: 1.0,
        seed: 3,
    });
    let (rels, schema) = db
        .join_view(&["customer", "orders", "lineitem"])
        .expect("relations exist");
    let product = Product::new(rels).expect("non-empty");
    let spec = spec_by_names(
        &schema,
        &[
            ((0, "c_custkey"), (1, "o_custkey")),
            ((1, "o_orderkey"), (2, "l_orderkey")),
        ],
    )
    .expect("attrs");

    let mut group = c.benchmark_group("join_3way");
    group.sample_size(10);
    group.bench_function("hash", |b| {
        b.iter(|| {
            spec.eval_hash(std::hint::black_box(&product))
                .expect("valid spec")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_join_evaluators, bench_three_way);
criterion_main!(benches);
