//! The version space of join predicates consistent with the user's labels.
//!
//! With `U = ⋂ {Θ(t) : t labeled +}` and negatives `N = {Θ(s) ∩ U : s
//! labeled −}`, a predicate `θ` is consistent iff `θ ⊆ U` and `θ ⊄ Nᵢ` for
//! every `i`. The representation below keeps exactly `(U, N)` with `N`
//! reduced to its maximal antichain — everything the paper's interactive
//! scenario needs:
//!
//! * *classification* of a tuple (certain-positive / certain-negative /
//!   informative) in `O(|N|)` subset tests,
//! * *label propagation* (the "gray out" step of Figure 2),
//! * *inconsistency detection* (a careless user),
//! * *counting* consistent predicates for the entropy strategy, via
//!   inclusion–exclusion over `N`.

use crate::atoms::AtomUniverse;
use crate::bitset::{maximal_antichain, AtomSet, PackedAtomSets};
use crate::error::{InferenceError, Result};
use crate::predicate::JoinPredicate;
use jim_relation::ProductId;
use std::sync::Arc;

/// Classification of a tuple's signature w.r.t. the current labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleClass {
    /// Every consistent predicate selects the tuple; labeling it `+` adds
    /// nothing, labeling it `−` would be inconsistent.
    CertainPositive,
    /// No consistent predicate selects the tuple.
    CertainNegative,
    /// Consistent predicates disagree — labeling this tuple narrows the
    /// version space. Only these tuples are shown to the user.
    Informative,
}

impl TupleClass {
    /// True iff the tuple is uninformative (its label is entailed).
    pub fn is_certain(self) -> bool {
        self != TupleClass::Informative
    }
}

/// Budget for exact inclusion–exclusion (number of terms ≈ `2^|N|`).
const IE_TERM_BUDGET: u64 = 1 << 18;

/// The set of all join predicates consistent with the labels so far.
#[derive(Debug, Clone)]
pub struct VersionSpace {
    universe: Arc<AtomUniverse>,
    /// `U`: intersection of positive signatures (the unique maximal
    /// consistent predicate). Starts as the full universe.
    upper: AtomSet,
    /// Maximal antichain of `Θ(s) ∩ U` over negatives. Invariants: every
    /// element is a **proper** subset of `upper`; no element contains
    /// another.
    negatives: Vec<AtomSet>,
    /// Row-major mirror of `negatives`, rebuilt on every mutation, so the
    /// hot `∃n: x ⊆ n` sweep runs over contiguous loads instead of chasing
    /// one heap box per antichain element. `negatives` stays the source of
    /// truth (strategies, the explainer and the transcript all iterate it).
    packed_negatives: PackedAtomSets,
    positives_seen: usize,
    negatives_seen: usize,
}

impl VersionSpace {
    /// The initial version space: every predicate is consistent.
    pub fn new(universe: Arc<AtomUniverse>) -> Self {
        let upper = universe.full_set();
        let packed_negatives = PackedAtomSets::new(upper.capacity());
        VersionSpace {
            universe,
            upper,
            negatives: Vec::new(),
            packed_negatives,
            positives_seen: 0,
            negatives_seen: 0,
        }
    }

    /// Rebuild the packed mirror after `negatives` changed.
    fn repack_negatives(&mut self) {
        self.packed_negatives.clear();
        self.packed_negatives.extend(self.negatives.iter());
    }

    /// `∃n ∈ N: x ⊆ n` — the antichain membership sweep behind
    /// classification, consistency and lookahead simulation, as one pass
    /// over the packed mirror.
    pub fn any_negative_contains(&self, x: &AtomSet) -> bool {
        self.packed_negatives.contains_superset_of(x)
    }

    /// The shared atom universe.
    pub fn universe(&self) -> &Arc<AtomUniverse> {
        &self.universe
    }

    /// The current upper bound `U` (the maximal consistent predicate).
    pub fn upper(&self) -> &AtomSet {
        &self.upper
    }

    /// The maximal negative antichain (each restricted to `U`).
    pub fn negatives(&self) -> &[AtomSet] {
        &self.negatives
    }

    /// Number of positive / negative labels absorbed.
    pub fn labels_seen(&self) -> (usize, usize) {
        (self.positives_seen, self.negatives_seen)
    }

    /// Classify a tuple by its **full** signature `Θ(t)`.
    pub fn classify(&self, sig: &AtomSet) -> TupleClass {
        let mut restricted = self.universe.empty_set();
        self.classify_restricted_into(sig, &mut restricted)
    }

    /// [`VersionSpace::classify`], writing the restricted signature
    /// `Θ(t) ∩ U` into a caller-provided scratch set instead of
    /// allocating. The engine's re-key pass calls this once per group:
    /// the restriction it needs for candidate grouping and the one
    /// classification computes are the same intersection, done once.
    pub fn classify_restricted_into(&self, sig: &AtomSet, restricted: &mut AtomSet) -> TupleClass {
        sig.intersection_into(&self.upper, restricted);
        if self.upper.is_subset(sig) {
            return TupleClass::CertainPositive;
        }
        if self.any_negative_contains(restricted) {
            TupleClass::CertainNegative
        } else {
            TupleClass::Informative
        }
    }

    /// Restrict a full signature to the current upper bound. Two tuples
    /// with the same restricted signature are indistinguishable to every
    /// consistent predicate.
    pub fn restrict(&self, sig: &AtomSet) -> AtomSet {
        sig.intersection(&self.upper)
    }

    /// Absorb a positive label for a tuple with signature `sig`.
    ///
    /// Fails with [`InferenceError::InconsistentLabel`] when the tuple is
    /// certain-negative under the current labels (`tuple` is only used for
    /// the error message).
    pub fn add_positive(&mut self, tuple: ProductId, sig: &AtomSet) -> Result<()> {
        let new_upper = self.upper.intersection(sig);
        if self.any_negative_contains(&new_upper) {
            return Err(InferenceError::InconsistentLabel {
                tuple,
                positive: true,
            });
        }
        self.upper = new_upper;
        // Restrict negatives to the new upper bound and re-reduce. The
        // inconsistency check above guarantees none becomes ⊇ upper.
        let restricted: Vec<AtomSet> = self
            .negatives
            .iter()
            .map(|n| n.intersection(&self.upper))
            .collect();
        self.negatives = maximal_antichain(restricted);
        self.repack_negatives();
        self.positives_seen += 1;
        Ok(())
    }

    /// Absorb a negative label for a tuple with signature `sig`.
    ///
    /// Fails when the tuple is certain-positive (every consistent predicate
    /// selects it). Redundant negatives (already dominated) are accepted
    /// and simply counted.
    pub fn add_negative(&mut self, tuple: ProductId, sig: &AtomSet) -> Result<()> {
        let restricted = sig.intersection(&self.upper);
        if restricted == self.upper {
            return Err(InferenceError::InconsistentLabel {
                tuple,
                positive: false,
            });
        }
        self.negatives_seen += 1;
        if self.any_negative_contains(&restricted) {
            return Ok(()); // dominated: no new information
        }
        self.negatives.retain(|n| !n.is_subset(&restricted));
        self.negatives.push(restricted);
        self.repack_negatives();
        Ok(())
    }

    /// Is `θ` consistent with the labels so far?
    pub fn is_consistent(&self, theta: &AtomSet) -> bool {
        theta.is_subset(&self.upper) && !self.any_negative_contains(theta)
    }

    /// The canonical answer JIM returns on termination: the unique maximal
    /// consistent predicate `U`. (At termination every consistent predicate
    /// is instance-equivalent to it.)
    pub fn canonical(&self) -> JoinPredicate {
        JoinPredicate::new(self.universe.clone(), self.upper.clone())
    }

    /// Exact number of consistent predicates, when the atom universe fits
    /// in a `u128` exponent and the inclusion–exclusion stays within
    /// budget; `None` otherwise.
    pub fn count_consistent_exact(&self) -> Option<u128> {
        count_exact(&self.upper, &self.negatives)
    }

    /// Fraction of the down-set of `U` that is consistent, in `[0, 1]`
    /// (`None` if the inclusion–exclusion exceeds its budget). Robust to
    /// huge universes because it never forms `2^|U|` explicitly.
    pub fn consistent_fraction(&self) -> Option<f64> {
        scaled_count(&self.upper, &self.negatives)
    }

    /// Probability (fraction of consistent predicates) that a tuple with
    /// full signature `sig` is selected — the split the entropy strategy
    /// scores. `None` if counting exceeds its budget or the version space
    /// is (degenerately) empty.
    pub fn selecting_probability(&self, sig: &AtomSet) -> Option<f64> {
        let total = self.consistent_fraction()?;
        if total <= 0.0 {
            return None;
        }
        let sel_upper = self.upper.intersection(sig);
        let frac_sel = scaled_count(&sel_upper, &self.negatives)?;
        // count_sel / count_total = frac_sel·2^|sel_upper| / frac_total·2^|U|
        let scale = (sel_upper.len() as f64 - self.upper.len() as f64).exp2();
        Some((frac_sel * scale / total).clamp(0.0, 1.0))
    }

    /// Enumerate every consistent predicate (for tests/small universes).
    /// Returns `None` when `2^|U|` exceeds `limit`.
    pub fn enumerate_consistent(&self, limit: usize) -> Option<Vec<AtomSet>> {
        let k = self.upper.len();
        if k > 26 || (1usize << k) > limit {
            return None;
        }
        let atoms: Vec<usize> = self.upper.iter().collect();
        let mut out = Vec::new();
        for mask in 0u32..(1u32 << k) {
            let theta = AtomSet::from_indices(
                self.upper.capacity(),
                (0..k).filter(|&i| mask >> i & 1 == 1).map(|i| atoms[i]),
            );
            if self.is_consistent(&theta) {
                out.push(theta);
            }
        }
        Some(out)
    }
}

/// `|{θ ⊆ upper : ∀n, θ ⊄ n}| / 2^|upper|` by inclusion–exclusion, or
/// `None` past the term budget.
fn scaled_count(upper: &AtomSet, negatives: &[AtomSet]) -> Option<f64> {
    let negs: Vec<AtomSet> =
        maximal_antichain(negatives.iter().map(|n| n.intersection(upper)).collect());
    if negs.iter().any(|n| n == upper) {
        return Some(0.0);
    }
    let k = upper.len() as f64;
    let mut excluded = 0.0f64;
    let mut budget = IE_TERM_BUDGET;
    // Alternating sum over nonempty subsets S of `negs`:
    // (−1)^{|S|+1} · 2^{|∩S| − |upper|}.
    fn go(
        negs: &[AtomSet],
        start: usize,
        inter: &AtomSet,
        sign: f64,
        k: f64,
        acc: &mut f64,
        budget: &mut u64,
    ) -> bool {
        for i in start..negs.len() {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            let next = inter.intersection(&negs[i]);
            *acc += sign * (next.len() as f64 - k).exp2();
            if !go(negs, i + 1, &next, -sign, k, acc, budget) {
                return false;
            }
        }
        true
    }
    if !go(&negs, 0, upper, 1.0, k, &mut excluded, &mut budget) {
        return None;
    }
    Some((1.0 - excluded).clamp(0.0, 1.0))
}

/// Exact variant of [`scaled_count`] in `u128` (requires `|upper| ≤ 126`).
fn count_exact(upper: &AtomSet, negatives: &[AtomSet]) -> Option<u128> {
    if upper.len() > 126 {
        return None;
    }
    let negs: Vec<AtomSet> =
        maximal_antichain(negatives.iter().map(|n| n.intersection(upper)).collect());
    if negs.iter().any(|n| n == upper) {
        return Some(0);
    }
    let mut excluded: i128 = 0;
    let mut budget = IE_TERM_BUDGET;
    fn go(
        negs: &[AtomSet],
        start: usize,
        inter: &AtomSet,
        sign: i128,
        acc: &mut i128,
        budget: &mut u64,
    ) -> bool {
        for i in start..negs.len() {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            let next = inter.intersection(&negs[i]);
            *acc += sign * (1i128 << next.len());
            if !go(negs, i + 1, &next, -sign, acc, budget) {
                return false;
            }
        }
        true
    }
    if !go(&negs, 0, upper, 1, &mut excluded, &mut budget) {
        return None;
    }
    Some(((1i128 << upper.len()) - excluded) as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::AtomUniverse;
    use jim_relation::{DataType, JoinSchema, RelationSchema};

    /// A universe with 6 atoms (the paper's flights × hotels schema).
    fn universe() -> Arc<AtomUniverse> {
        let js = JoinSchema::new(vec![
            RelationSchema::of(
                "flights",
                &[
                    ("From", DataType::Text),
                    ("To", DataType::Text),
                    ("Airline", DataType::Text),
                ],
            )
            .unwrap(),
            RelationSchema::of(
                "hotels",
                &[("City", DataType::Text), ("Discount", DataType::Text)],
            )
            .unwrap(),
        ])
        .unwrap();
        AtomUniverse::cross_relation(js).unwrap()
    }

    fn set(u: &AtomUniverse, ids: &[usize]) -> AtomSet {
        AtomSet::from_indices(u.len(), ids.iter().copied())
    }

    #[test]
    fn initial_state_everything_informative_except_full() {
        let u = universe();
        let vs = VersionSpace::new(u.clone());
        // A full signature is certain-positive (selected by every θ ⊆ Θ).
        assert_eq!(vs.classify(&u.full_set()), TupleClass::CertainPositive);
        // Anything else is informative.
        assert_eq!(vs.classify(&set(&u, &[0, 1])), TupleClass::Informative);
        assert_eq!(vs.classify(&u.empty_set()), TupleClass::Informative);
    }

    #[test]
    fn positive_shrinks_upper() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_positive(ProductId(0), &set(&u, &[1, 3])).unwrap();
        assert_eq!(vs.upper(), &set(&u, &[1, 3]));
        vs.add_positive(ProductId(1), &set(&u, &[1, 2, 3])).unwrap();
        assert_eq!(vs.upper(), &set(&u, &[1, 3]));
        vs.add_positive(ProductId(2), &set(&u, &[1])).unwrap();
        assert_eq!(vs.upper(), &set(&u, &[1]));
        assert_eq!(vs.labels_seen(), (3, 0));
    }

    #[test]
    fn classification_after_positive() {
        // Mirrors the paper: after (3)+ with Θ = {TC, AD}, any tuple whose
        // signature contains both atoms is certain-positive.
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_positive(ProductId(2), &set(&u, &[1, 3])).unwrap();
        assert_eq!(vs.classify(&set(&u, &[1, 3])), TupleClass::CertainPositive);
        assert_eq!(
            vs.classify(&set(&u, &[0, 1, 3])),
            TupleClass::CertainPositive
        );
        assert_eq!(vs.classify(&set(&u, &[1])), TupleClass::Informative);
        assert_eq!(vs.classify(&u.empty_set()), TupleClass::Informative);
    }

    #[test]
    fn negative_creates_antichain_entry() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_negative(ProductId(0), &set(&u, &[0, 1])).unwrap();
        assert_eq!(vs.negatives().len(), 1);
        // Tuples whose restricted signature is inside the negative are
        // certain-negative.
        assert_eq!(vs.classify(&set(&u, &[0])), TupleClass::CertainNegative);
        assert_eq!(vs.classify(&set(&u, &[0, 1])), TupleClass::CertainNegative);
        assert_eq!(vs.classify(&u.empty_set()), TupleClass::CertainNegative);
        assert_eq!(vs.classify(&set(&u, &[0, 2])), TupleClass::Informative);
    }

    #[test]
    fn dominated_negative_is_absorbed() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_negative(ProductId(0), &set(&u, &[0, 1, 2])).unwrap();
        vs.add_negative(ProductId(1), &set(&u, &[0, 1])).unwrap();
        assert_eq!(vs.negatives().len(), 1);
        // Reverse order: the bigger one replaces the smaller.
        let mut vs2 = VersionSpace::new(u.clone());
        vs2.add_negative(ProductId(0), &set(&u, &[0, 1])).unwrap();
        vs2.add_negative(ProductId(1), &set(&u, &[0, 1, 2]))
            .unwrap();
        assert_eq!(vs2.negatives().len(), 1);
        assert_eq!(vs2.negatives()[0], set(&u, &[0, 1, 2]));
        assert_eq!(vs2.labels_seen(), (0, 2));
    }

    #[test]
    fn inconsistent_positive_detected() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        // Negative on {0,1}: every θ ⊆ {0,1} is excluded.
        vs.add_negative(ProductId(0), &set(&u, &[0, 1])).unwrap();
        // Positive with signature {0}: would force U = {0} ⊆ {0,1} — empty VS.
        let err = vs.add_positive(ProductId(1), &set(&u, &[0]));
        assert_eq!(
            err,
            Err(InferenceError::InconsistentLabel {
                tuple: ProductId(1),
                positive: true
            })
        );
    }

    #[test]
    fn inconsistent_negative_detected() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_positive(ProductId(0), &set(&u, &[1, 3])).unwrap();
        // A tuple whose signature contains U is certain-positive; labeling
        // it negative is inconsistent.
        let err = vs.add_negative(ProductId(1), &set(&u, &[1, 3, 4]));
        assert_eq!(
            err,
            Err(InferenceError::InconsistentLabel {
                tuple: ProductId(1),
                positive: false
            })
        );
    }

    #[test]
    fn paper_termination_example() {
        // (3)+ with Θ={TC,AD}; (7)− with Θ={FC,AD}; (8)− with Θ={TC}.
        // Atom ids in the cross-relation universe (From,To,Airline × City,
        // Discount): 0=F≍C, 1=F≍D, 2=T≍C, 3=T≍D, 4=A≍C, 5=A≍D.
        let u = universe();
        let tc = 2usize;
        let ad = 5usize;
        let fc = 0usize;
        let mut vs = VersionSpace::new(u.clone());
        vs.add_positive(ProductId(2), &set(&u, &[tc, ad])).unwrap();
        vs.add_negative(ProductId(6), &set(&u, &[fc, ad])).unwrap();
        vs.add_negative(ProductId(7), &set(&u, &[tc])).unwrap();
        // The only consistent predicate is {TC, AD} = Q2.
        let all = vs.enumerate_consistent(1 << 10).unwrap();
        assert_eq!(all, vec![set(&u, &[tc, ad])]);
        assert_eq!(vs.canonical().atoms(), &set(&u, &[tc, ad]));
        assert_eq!(vs.count_consistent_exact(), Some(1));
    }

    #[test]
    fn exact_count_matches_enumeration() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_negative(ProductId(0), &set(&u, &[0, 1])).unwrap();
        vs.add_negative(ProductId(1), &set(&u, &[2, 3])).unwrap();
        vs.add_negative(ProductId(2), &set(&u, &[1, 2])).unwrap();
        let enumerated = vs.enumerate_consistent(1 << 10).unwrap().len() as u128;
        assert_eq!(vs.count_consistent_exact(), Some(enumerated));
        let frac = vs.consistent_fraction().unwrap();
        let expect = enumerated as f64 / 64.0; // 2^6 subsets
        assert!((frac - expect).abs() < 1e-9, "{frac} vs {expect}");
    }

    #[test]
    fn counts_with_no_labels() {
        let u = universe();
        let vs = VersionSpace::new(u.clone());
        assert_eq!(vs.count_consistent_exact(), Some(1 << 6));
        assert_eq!(vs.consistent_fraction(), Some(1.0));
    }

    #[test]
    fn selecting_probability_basics() {
        let u = universe();
        let vs = VersionSpace::new(u.clone());
        // With no labels, a tuple with full signature is selected by all
        // predicates; an empty-signature tuple only by θ = ∅.
        assert_eq!(vs.selecting_probability(&u.full_set()), Some(1.0));
        let p_empty = vs.selecting_probability(&u.empty_set()).unwrap();
        assert!((p_empty - 1.0 / 64.0).abs() < 1e-12);
        // A 3-atom signature: 2^3/2^6 = 1/8.
        let p3 = vs.selecting_probability(&set(&u, &[0, 1, 2])).unwrap();
        assert!((p3 - 0.125).abs() < 1e-12);
    }

    #[test]
    fn selecting_probability_respects_negatives() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_negative(ProductId(0), &u.empty_set()).unwrap();
        // θ = ∅ is now inconsistent: 63 consistent predicates remain; a
        // tuple with signature {0} is selected only by θ = {0}: p = 1/63.
        let p = vs.selecting_probability(&set(&u, &[0])).unwrap();
        assert!((p - 1.0 / 63.0).abs() < 1e-12, "{p}");
    }

    #[test]
    fn is_consistent_agrees_with_classify() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_positive(ProductId(0), &set(&u, &[1, 3, 5])).unwrap();
        vs.add_negative(ProductId(1), &set(&u, &[1])).unwrap();
        for theta in vs.enumerate_consistent(1 << 10).unwrap() {
            assert!(vs.is_consistent(&theta));
        }
        assert!(!vs.is_consistent(&set(&u, &[1])));
        assert!(!vs.is_consistent(&u.empty_set())); // ⊆ {1}
        assert!(!vs.is_consistent(&set(&u, &[0, 1, 2, 3, 4, 5]))); // ⊄ U
        assert!(vs.is_consistent(&set(&u, &[1, 3])));
    }

    #[test]
    fn restrict_projects_onto_upper() {
        let u = universe();
        let mut vs = VersionSpace::new(u.clone());
        vs.add_positive(ProductId(0), &set(&u, &[1, 3])).unwrap();
        assert_eq!(vs.restrict(&set(&u, &[0, 1, 4])), set(&u, &[1]));
    }
}
