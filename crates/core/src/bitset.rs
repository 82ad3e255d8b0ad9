//! Packed bitsets over an atom universe.
//!
//! Everything JIM computes — signatures `Θ(t)`, the upper bound `U`, negative
//! antichains, predicates — is a subset of one fixed, small atom universe, so
//! a packed `u64` bitset with subset/intersection kernels is the workhorse
//! data structure. The word-level loops live in `jim-simd` (runtime-dispatched
//! AVX2 / portable / scalar backends, selectable via `JIM_SIMD`); this module
//! owns the bit-level semantics on top of them:
//!
//! * the **tail invariant** — bits at positions `>= nbits` in the last block
//!   are always zero, so popcount, equality and hashing are exact; every
//!   mutator maintains it (pinned by property tests below);
//! * the **universe invariant** — all binary operations require both operands
//!   to come from the same universe (equal capacity). This is enforced with
//!   `debug_assert`s, consistently on every operator: release builds trust
//!   the engine (all sets descend from one `AtomUniverse`), debug builds and
//!   the test suite catch any cross-universe mix-up.
//!
//! For the antichain sweeps that dominate label propagation,
//! [`PackedAtomSets`] lays equal-capacity sets out contiguously (row-major)
//! so `jim-simd`'s batch entry points can run a whole sweep behind a single
//! backend dispatch instead of re-dispatching per pair.

use std::fmt;

/// A set of atom indices within a fixed-capacity universe.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomSet {
    /// Number of valid bits.
    nbits: u32,
    /// Packed storage, little-endian blocks; trailing bits beyond `nbits`
    /// are always zero (the invariant every mutator maintains).
    blocks: Box<[u64]>,
}

impl AtomSet {
    /// The empty set in a universe of `nbits` atoms.
    pub fn empty(nbits: usize) -> Self {
        let words = nbits.div_ceil(64).max(1);
        AtomSet {
            nbits: nbits as u32,
            blocks: vec![0u64; words].into_boxed_slice(),
        }
    }

    /// The full set (all `nbits` atoms present).
    pub fn full(nbits: usize) -> Self {
        let mut s = AtomSet::empty(nbits);
        for b in s.blocks.iter_mut() {
            *b = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Build from explicit indices.
    pub fn from_indices(nbits: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = AtomSet::empty(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Zero out the bits beyond `nbits` in the last block.
    fn clear_tail(&mut self) {
        let tail = self.nbits as usize % 64;
        if tail != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        if self.nbits == 0 {
            for b in self.blocks.iter_mut() {
                *b = 0;
            }
        }
    }

    /// Universe capacity in bits.
    pub fn capacity(&self) -> usize {
        self.nbits as usize
    }

    /// Number of blocks backing a capacity of `nbits` (≥ 1, even empty).
    fn words_for(nbits: usize) -> usize {
        nbits.div_ceil(64).max(1)
    }

    /// Number of atoms present.
    pub fn len(&self) -> usize {
        jim_simd::popcount(&self.blocks) as usize
    }

    /// True iff no atom is present.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// True iff atom `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(
            i < self.nbits as usize,
            "index {i} out of capacity {}",
            self.nbits
        );
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Add atom `i`. Panics (debug) if out of capacity.
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.nbits as usize,
            "index {i} out of capacity {}",
            self.nbits
        );
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Remove every atom, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Remove atom `i`.
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.nbits as usize,
            "index {i} out of capacity {}",
            self.nbits
        );
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Debug-build check that `other` lives in the same universe. Every
    /// binary operator calls this; release builds rely on the engine's
    /// invariant that all sets descend from one `AtomUniverse`.
    #[inline]
    fn check_same_universe(&self, other: &AtomSet) {
        debug_assert_eq!(
            self.nbits, other.nbits,
            "bitset operands come from different universes ({} vs {} bits)",
            self.nbits, other.nbits
        );
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &AtomSet) -> bool {
        self.check_same_universe(other);
        jim_simd::subset(&self.blocks, &other.blocks)
    }

    /// `self ⊇ other`.
    pub fn is_superset(&self, other: &AtomSet) -> bool {
        other.is_subset(self)
    }

    /// Strict subset.
    pub fn is_proper_subset(&self, other: &AtomSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// New set `self ∩ other`.
    pub fn intersection(&self, other: &AtomSet) -> AtomSet {
        self.check_same_universe(other);
        let mut out = AtomSet::empty(self.nbits as usize);
        jim_simd::and_into(&self.blocks, &other.blocks, &mut out.blocks);
        out
    }

    /// Write `self ∩ other` into `out` without allocating — the kernel the
    /// lookahead simulation loop runs once per candidate, so it reuses one
    /// scratch set instead of allocating a fresh `AtomSet` each time.
    pub fn intersection_into(&self, other: &AtomSet, out: &mut AtomSet) {
        self.check_same_universe(other);
        self.check_same_universe(out);
        jim_simd::and_into(&self.blocks, &other.blocks, &mut out.blocks);
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &AtomSet) {
        self.check_same_universe(other);
        jim_simd::and_assign(&mut self.blocks, &other.blocks);
    }

    /// New set `self ∪ other`.
    pub fn union(&self, other: &AtomSet) -> AtomSet {
        self.check_same_universe(other);
        let mut out = AtomSet::empty(self.nbits as usize);
        jim_simd::or_into(&self.blocks, &other.blocks, &mut out.blocks);
        out
    }

    /// New set `self \ other`.
    pub fn difference(&self, other: &AtomSet) -> AtomSet {
        self.check_same_universe(other);
        let mut out = AtomSet::empty(self.nbits as usize);
        jim_simd::and_not_into(&self.blocks, &other.blocks, &mut out.blocks);
        out
    }

    /// True iff the sets share at least one atom.
    pub fn intersects(&self, other: &AtomSet) -> bool {
        self.check_same_universe(other);
        jim_simd::intersects(&self.blocks, &other.blocks)
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_len(&self, other: &AtomSet) -> usize {
        self.check_same_universe(other);
        jim_simd::intersection_count(&self.blocks, &other.blocks) as usize
    }

    /// Iterate over present atom indices in increasing order.
    pub fn iter(&self) -> AtomSetIter<'_> {
        AtomSetIter {
            set: self,
            word: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AtomSet{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                f.write_str(",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}/{}", self.nbits)
    }
}

/// Iterator over the indices present in an [`AtomSet`].
pub struct AtomSetIter<'a> {
    set: &'a AtomSet,
    word: usize,
    bits: u64,
}

impl Iterator for AtomSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + tz);
            }
            self.word += 1;
            if self.word >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a AtomSet {
    type Item = usize;
    type IntoIter = AtomSetIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A contiguous, row-major packing of equal-capacity [`AtomSet`]s — the
/// layout the `jim-simd` batch kernels sweep with **one** backend dispatch
/// and linear loads, instead of chasing one heap allocation per set.
///
/// The candidate index packs its restricted signatures and the fresh
/// negative antichain into two of these per subsumption sweep; the version
/// space keeps its negative antichain permanently packed so every
/// classification runs one [`PackedAtomSets::contains_superset_of`] sweep.
#[derive(Debug, Clone)]
pub struct PackedAtomSets {
    nbits: u32,
    /// Words per row (≥ 1, matching `AtomSet`'s backing for this capacity).
    width: usize,
    /// Row-major packed rows, `width` words each.
    words: Vec<u64>,
}

impl PackedAtomSets {
    /// An empty packing for sets of the given capacity.
    pub fn new(nbits: usize) -> Self {
        PackedAtomSets {
            nbits: nbits as u32,
            width: AtomSet::words_for(nbits),
            words: Vec::new(),
        }
    }

    /// An empty packing with room for `rows` sets.
    pub fn with_capacity(nbits: usize, rows: usize) -> Self {
        let mut p = PackedAtomSets::new(nbits);
        p.words.reserve(rows * p.width);
        p
    }

    /// Number of packed sets.
    pub fn len(&self) -> usize {
        self.words.len() / self.width
    }

    /// True iff nothing is packed.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Drop all rows, keeping the allocation (for reuse across sweeps).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Append one set. Debug-asserts the capacity matches.
    pub fn push(&mut self, s: &AtomSet) {
        debug_assert_eq!(
            s.nbits, self.nbits,
            "packed set from a different universe ({} vs {} bits)",
            s.nbits, self.nbits
        );
        self.words.extend_from_slice(&s.blocks);
    }

    /// Extend from an iterator of sets.
    pub fn extend<'a>(&mut self, sets: impl IntoIterator<Item = &'a AtomSet>) {
        for s in sets {
            self.push(s);
        }
    }

    /// True iff `x ⊆ r` for some packed row `r` — the negative-antichain
    /// membership test, one kernel dispatch for the whole sweep.
    pub fn contains_superset_of(&self, x: &AtomSet) -> bool {
        debug_assert_eq!(x.nbits, self.nbits, "query from a different universe");
        jim_simd::subset_any(&x.blocks, &self.words)
    }

    /// For every row, whether it is `⊆` some row of `negs` (the candidate
    /// subsumption sweep). `out` is overwritten with one flag per row,
    /// in packing order. One kernel dispatch for the whole sweep.
    pub fn subsumed_mask(&self, negs: &PackedAtomSets, out: &mut Vec<bool>) {
        debug_assert_eq!(self.nbits, negs.nbits, "packings from different universes");
        jim_simd::subsumed_mask(&self.words, &negs.words, self.width, out);
    }
}

/// Keep only the maximal elements (under `⊆`) of a list of sets — the
/// antichain reduction the version space applies to negative signatures.
/// Preserves first-seen order among survivors and drops duplicates.
pub fn maximal_antichain(mut sets: Vec<AtomSet>) -> Vec<AtomSet> {
    let mut out: Vec<AtomSet> = Vec::with_capacity(sets.len());
    // Sort descending by popcount so any dominator precedes its dominated.
    sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
    for s in sets {
        if !out.iter().any(|kept| s.is_subset(kept)) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = AtomSet::empty(70);
        let f = AtomSet::full(70);
        assert_eq!(e.len(), 0);
        assert_eq!(f.len(), 70);
        assert!(e.is_empty());
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
        assert_eq!(f.capacity(), 70);
    }

    #[test]
    fn full_clears_tail_bits() {
        // Capacity not a multiple of 64: trailing bits must be zero so that
        // equality and popcount are exact.
        let f = AtomSet::full(65);
        assert_eq!(f.len(), 65);
        let mut g = AtomSet::empty(65);
        for i in 0..65 {
            g.insert(i);
        }
        assert_eq!(f, g);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = AtomSet::empty(10);
        s.insert(3);
        s.insert(9);
        assert!(s.contains(3));
        assert!(s.contains(9));
        assert!(!s.contains(4));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        AtomSet::empty(4).insert(4);
    }

    #[test]
    fn subset_relations() {
        let a = AtomSet::from_indices(130, [1, 64, 129]);
        let b = AtomSet::from_indices(130, [1, 5, 64, 129]);
        assert!(a.is_subset(&b));
        assert!(a.is_proper_subset(&b));
        assert!(b.is_superset(&a));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn set_algebra() {
        let a = AtomSet::from_indices(100, [1, 2, 70]);
        let b = AtomSet::from_indices(100, [2, 70, 99]);
        assert_eq!(a.intersection(&b), AtomSet::from_indices(100, [2, 70]));
        assert_eq!(a.union(&b), AtomSet::from_indices(100, [1, 2, 70, 99]));
        assert_eq!(a.difference(&b), AtomSet::from_indices(100, [1]));
        assert_eq!(a.intersection_len(&b), 2);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&AtomSet::from_indices(100, [50])));
    }

    #[test]
    fn intersect_with_in_place() {
        let mut a = AtomSet::from_indices(10, [1, 2, 3]);
        a.intersect_with(&AtomSet::from_indices(10, [2, 3, 4]));
        assert_eq!(a, AtomSet::from_indices(10, [2, 3]));
    }

    #[test]
    fn iteration_in_order() {
        let s = AtomSet::from_indices(200, [199, 0, 64, 63, 128]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 128, 199]);
        assert_eq!((&s).into_iter().count(), 5);
    }

    #[test]
    fn zero_capacity_set() {
        let s = AtomSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let f = AtomSet::full(0);
        assert!(f.is_empty());
        assert_eq!(s, f);
    }

    #[test]
    fn debug_format() {
        let s = AtomSet::from_indices(8, [1, 3]);
        assert_eq!(format!("{s:?}"), "AtomSet{1,3}/8");
    }

    #[test]
    fn antichain_keeps_maximal_only() {
        let u = 8;
        let sets = vec![
            AtomSet::from_indices(u, [1]),
            AtomSet::from_indices(u, [1, 2]),
            AtomSet::from_indices(u, [3]),
            AtomSet::from_indices(u, [1, 2]),
            AtomSet::from_indices(u, [2, 3, 4]),
        ];
        let m = maximal_antichain(sets);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&AtomSet::from_indices(u, [1, 2])));
        assert!(m.contains(&AtomSet::from_indices(u, [2, 3, 4])));
    }

    #[test]
    fn antichain_of_identical_sets() {
        let u = 4;
        let m = maximal_antichain(vec![
            AtomSet::from_indices(u, [0, 1]),
            AtomSet::from_indices(u, [0, 1]),
        ]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn ordering_is_consistent_for_btree_use() {
        let a = AtomSet::from_indices(8, [0]);
        let b = AtomSet::from_indices(8, [1]);
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    // ------------------------------------------- packed sweeps

    #[test]
    fn packed_contains_superset_of() {
        let u = 70; // 2 words, 6-bit tail
        let negs = {
            let mut p = PackedAtomSets::with_capacity(u, 2);
            p.push(&AtomSet::from_indices(u, [0, 1, 65]));
            p.push(&AtomSet::from_indices(u, [3, 4]));
            p
        };
        assert_eq!(negs.len(), 2);
        assert!(!negs.is_empty());
        assert!(negs.contains_superset_of(&AtomSet::from_indices(u, [0, 65])));
        assert!(negs.contains_superset_of(&AtomSet::from_indices(u, [3])));
        assert!(negs.contains_superset_of(&AtomSet::empty(u)));
        assert!(!negs.contains_superset_of(&AtomSet::from_indices(u, [0, 3])));
        assert!(!negs.contains_superset_of(&AtomSet::from_indices(u, [69])));
    }

    #[test]
    fn packed_subsumed_mask_matches_pairwise() {
        let u = 130;
        let rows_src = [
            AtomSet::from_indices(u, [0, 1]),
            AtomSet::from_indices(u, [64, 129]),
            AtomSet::from_indices(u, [0, 64, 129]),
            AtomSet::empty(u),
        ];
        let negs_src = [
            AtomSet::from_indices(u, [0, 1, 2]),
            AtomSet::from_indices(u, [64, 65, 129]),
        ];
        let mut rows = PackedAtomSets::new(u);
        rows.extend(rows_src.iter());
        let mut negs = PackedAtomSets::new(u);
        negs.extend(negs_src.iter());
        let mut mask = vec![true; 1]; // stale content must be replaced
        rows.subsumed_mask(&negs, &mut mask);
        let want: Vec<bool> = rows_src
            .iter()
            .map(|r| negs_src.iter().any(|n| r.is_subset(n)))
            .collect();
        assert_eq!(mask, want);
        assert_eq!(mask, vec![true, true, false, true]);
    }

    #[test]
    fn packed_empty_antichain_subsumes_nothing() {
        let u = 10;
        let negs = PackedAtomSets::new(u);
        assert!(!negs.contains_superset_of(&AtomSet::empty(u)));
        let mut rows = PackedAtomSets::new(u);
        rows.push(&AtomSet::from_indices(u, [1]));
        let mut mask = Vec::new();
        rows.subsumed_mask(&negs, &mut mask);
        assert_eq!(mask, vec![false]);
    }

    #[test]
    fn packed_clear_reuses_allocation() {
        let u = 64;
        let mut p = PackedAtomSets::new(u);
        p.push(&AtomSet::full(u));
        p.clear();
        assert!(p.is_empty());
        assert!(!p.contains_superset_of(&AtomSet::empty(u)));
    }

    // ----------------------- capacity-mismatch checks (debug builds)

    /// One test per binary operator: every one must reject cross-universe
    /// operands in debug builds (release builds trust the engine).
    #[cfg(debug_assertions)]
    mod cross_universe {
        use super::super::*;

        fn a() -> AtomSet {
            AtomSet::from_indices(64, [1])
        }
        fn b() -> AtomSet {
            AtomSet::from_indices(65, [1])
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn is_subset() {
            let _ = a().is_subset(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn is_superset() {
            let _ = a().is_superset(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn is_proper_subset() {
            let _ = a().is_proper_subset(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn intersection() {
            let _ = a().intersection(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn intersection_into_other() {
            let mut out = AtomSet::empty(64);
            a().intersection_into(&b(), &mut out);
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn intersection_into_out() {
            let mut out = AtomSet::empty(65);
            a().intersection_into(&a(), &mut out);
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn intersect_with() {
            a().intersect_with(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn union() {
            let _ = a().union(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn difference() {
            let _ = a().difference(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn intersects() {
            let _ = a().intersects(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn intersection_len() {
            let _ = a().intersection_len(&b());
        }

        #[test]
        #[should_panic(expected = "different universe")]
        fn packed_push() {
            let mut p = PackedAtomSets::new(64);
            p.push(&b());
        }

        #[test]
        #[should_panic(expected = "different universe")]
        fn packed_contains_superset_of() {
            let mut p = PackedAtomSets::new(64);
            p.push(&a());
            let _ = p.contains_superset_of(&b());
        }

        #[test]
        #[should_panic(expected = "different universes")]
        fn packed_subsumed_mask() {
            let rows = PackedAtomSets::new(64);
            let negs = PackedAtomSets::new(65);
            let mut out = Vec::new();
            rows.subsumed_mask(&negs, &mut out);
        }
    }

    // ------------------------------- tail invariant (property tests)

    /// Every mutator — and every operation that builds a new set — must
    /// keep the bits beyond `nbits` zero, at capacities around every word
    /// boundary. The checks read the raw blocks, which only this module
    /// can see, so the properties live here rather than in the
    /// workspace-level proptest suite.
    mod tail_invariant {
        use super::super::*;
        use proptest::prelude::*;

        /// The capacities the satellite task pins: empty, sub-word, at and
        /// around one- and two-word boundaries.
        const CAPS: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

        fn assert_tail_zero(s: &AtomSet, context: &str) {
            let nbits = s.nbits as usize;
            for (w, &block) in s.blocks.iter().enumerate() {
                for bit in 0..64 {
                    let idx = w * 64 + bit;
                    if idx >= nbits {
                        assert_eq!(
                            block >> bit & 1,
                            0,
                            "{context}: stray bit {idx} beyond capacity {nbits}"
                        );
                    }
                }
            }
        }

        /// A random set of capacity `cap` built via `insert`s, checking the
        /// invariant as it goes.
        fn build(cap: usize, picks: &[usize]) -> AtomSet {
            let mut s = AtomSet::empty(cap);
            for &p in picks {
                if cap > 0 {
                    s.insert(p % cap);
                    assert_tail_zero(&s, "insert");
                }
            }
            s
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn every_mutator_keeps_tail_bits_zero(
                cap_ix in 0usize..7,
                picks_a in proptest::collection::vec(0usize..1 << 16, 0..24),
                picks_b in proptest::collection::vec(0usize..1 << 16, 0..24),
            ) {
                let cap = CAPS[cap_ix];
                // Constructors.
                assert_tail_zero(&AtomSet::empty(cap), "empty");
                assert_tail_zero(&AtomSet::full(cap), "full (clear_tail)");
                let a = build(cap, &picks_a);
                let b = build(cap, &picks_b);
                assert_tail_zero(
                    &AtomSet::from_indices(cap, a.iter()),
                    "from_indices",
                );
                // remove.
                let mut r = a.clone();
                for i in a.iter() {
                    r.remove(i);
                    assert_tail_zero(&r, "remove");
                }
                prop_assert!(r.is_empty());
                // clear.
                let mut c = AtomSet::full(cap);
                c.clear();
                assert_tail_zero(&c, "clear");
                prop_assert_eq!(c, AtomSet::empty(cap));
                // Binary set ops, allocating and in-place.
                assert_tail_zero(&a.intersection(&b), "intersection");
                assert_tail_zero(&a.union(&b), "union");
                assert_tail_zero(&a.difference(&b), "difference");
                let mut out = AtomSet::full(cap);
                a.intersection_into(&b, &mut out);
                assert_tail_zero(&out, "intersection_into");
                let mut w = a.clone();
                w.intersect_with(&b);
                assert_tail_zero(&w, "intersect_with");
                // The invariant is what makes popcount/equality exact.
                prop_assert_eq!(a.len(), a.iter().count());
                prop_assert_eq!(
                    a.union(&b).len() + a.intersection_len(&b),
                    a.len() + b.len()
                );
            }
        }
    }
}
