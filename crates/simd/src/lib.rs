//! # `jim-simd` — the word loops under `jim-core`'s bitsets
//!
//! Every step of JIM's inference — signature computation `Θ(t)`, the
//! upper bound `U`, negative-antichain subsumption sweeps, the
//! informative-group partition — reduces to subset / AND-NOT / popcount
//! operations over packed `u64` bitsets. These are those loops, once,
//! as plain `#[inline]` word-at-a-time Rust that LLVM inlines into the
//! caller and autovectorizes where the width allows.
//!
//! The loops are plain on purpose. Every instance in the benchmark of
//! record has 4–16 atoms, so each set is one word and a subset test is
//! one AND-NOT; a per-call runtime dispatch into vector backends costs
//! more than the test it dispatches.
//!
//! Slices passed together must have equal length. The crate stays
//! separate from `jim-core` only because the benchmark client depends on
//! it by path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of set bits across the slice.
#[inline]
pub fn popcount(a: &[u64]) -> u64 {
    a.iter().map(|&w| w.count_ones() as u64).sum()
}

/// `a ⊆ b`, i.e. `a & !b == 0` word-wise.
#[inline]
pub fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).all(|(&x, &y)| x & !y == 0)
}

/// True iff the slices share at least one set bit.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).any(|(&x, &y)| x & y != 0)
}

/// `|a ∩ b|`.
#[inline]
pub fn intersection_count(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x & y).count_ones() as u64)
        .sum()
}

/// `out = a & b`.
#[inline]
pub fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x & y;
    }
}

/// `a &= b` in place.
#[inline]
pub fn and_assign(a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        *x &= y;
    }
}

/// `out = a | b`.
#[inline]
pub fn or_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x | y;
    }
}

/// `out = a & !b`.
#[inline]
pub fn and_not_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x & !y;
    }
}

/// `x ⊆ r` for some row `r` of `rows`, a row-major packed buffer of width
/// `x.len()` words per row. A zero-width `x` encodes no rows at all, so
/// the answer is `false`.
#[inline]
pub fn subset_any(x: &[u64], rows: &[u64]) -> bool {
    let w = x.len();
    if w == 0 {
        return false;
    }
    // Index arithmetic, not per-row `chunks_exact`: re-deriving the chunk
    // count costs a 64-bit division per call, which dwarfs the subset
    // test itself at antichain widths.
    let n = rows.len() / w;
    (0..n).any(|j| subset(x, &rows[j * w..j * w + w]))
}

/// For each row of `rows`, whether it is `⊆` some row of `negs`; both are
/// row-major with the given `width`. `out` is overwritten with one flag
/// per row of `rows`.
#[inline]
pub fn subsumed_mask(rows: &[u64], negs: &[u64], width: usize, out: &mut Vec<bool>) {
    out.clear();
    if width == 0 {
        return;
    }
    // Hoist the row counts: one division each, not one per row.
    let nnegs = negs.len() / width;
    if nnegs == 1 {
        // The common sweep — one fresh negative per label batch. Slicing
        // it once lets the row loop run without per-row index math.
        let neg = &negs[..width];
        out.extend(rows.chunks_exact(width).map(|row| subset(row, neg)));
        return;
    }
    out.extend(
        rows.chunks_exact(width)
            .map(|row| (0..nnegs).any(|j| subset(row, &negs[j * width..j * width + width]))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loops against bit-by-bit brute force, across word boundaries.
    #[test]
    fn scalar_reference_matches_brute_force() {
        let a = [0b1011u64, u64::MAX, 0, 1 << 63];
        let b = [0b0011u64, u64::MAX, 7, 1 << 63];
        let brute_pop = |s: &[u64]| -> u64 {
            s.iter()
                .map(|w| (0..64).filter(|i| w >> i & 1 == 1).count() as u64)
                .sum()
        };
        let and: Vec<u64> = a.iter().zip(b.iter()).map(|(&x, &y)| x & y).collect();
        assert_eq!(popcount(&a), brute_pop(&a));
        assert_eq!(intersection_count(&a, &b), brute_pop(&and));
        assert!(!subset(&a, &b)); // bit 3 of word 0 strays
        assert!(subset(&b[..2], &a[..2]));
        assert!(intersects(&a, &b));
        assert!(!intersects(&[0, 0], &[u64::MAX, u64::MAX]));
        let mut out = [0u64; 4];
        and_into(&a, &b, &mut out);
        assert_eq!(out[..], and[..]);
        let mut assigned = a;
        and_assign(&mut assigned, &b);
        assert_eq!(assigned[..], and[..]);
        or_into(&a, &b, &mut out);
        assert_eq!(out, [0b1011, u64::MAX, 7, 1 << 63]);
        and_not_into(&a, &b, &mut out);
        assert_eq!(out, [0b1000, 0, 0, 0]);
    }

    #[test]
    fn zero_width_batch_semantics() {
        assert!(!subset_any(&[], &[]));
        let mut out = vec![true; 3];
        subsumed_mask(&[], &[], 0, &mut out);
        assert!(out.is_empty(), "width-0 mask must clear out");
    }

    #[test]
    fn empty_set_is_subset_of_any_row() {
        // Zero *words* is degenerate, but an all-zero row of real width
        // is the empty set and must be ⊆ everything.
        assert!(subset_any(&[0, 0], &[0, 0]));
        assert!(subset_any(&[0, 0], &[1 << 63, 0]));
        assert!(!subset_any(&[1, 0], &[]), "no rows");
    }
}
