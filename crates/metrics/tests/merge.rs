//! Property: merging per-thread histogram snapshots is bit-identical to
//! recording every sample into a single histogram — the invariant
//! `jim-load` relies on when it aggregates per-worker latency.

#![forbid(unsafe_code)]

use jim_metrics::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merged_snapshots_equal_single_histogram(
        threads in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000_000_000, 0..=50),
            1..=8,
        ),
    ) {
        let one = Histogram::new();
        let mut merged = HistogramSnapshot::empty();
        for samples in &threads {
            let per_thread = Histogram::new();
            for &v in samples {
                per_thread.record(v);
                one.record(v);
            }
            merged.merge(&per_thread.snapshot());
        }
        prop_assert_eq!(&merged, &one.snapshot());
        let n: usize = threads.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.count(), n as u64);
    }

    #[test]
    fn merge_order_does_not_matter(
        a in proptest::collection::vec(0u64..1_000_000, 0..=30),
        b in proptest::collection::vec(0u64..1_000_000, 0..=30),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.max(), sa.max().max(sb.max()));
    }
}
