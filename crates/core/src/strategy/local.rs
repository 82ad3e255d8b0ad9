//! Local strategies: "rather simple and based on some fixed orders"
//! (paper, §2) — they rank informative signatures by a position in the
//! signature lattice, without simulating answers.

use crate::engine::{CandidateView, Engine};
use crate::strategy::{rank, Strategy};
use jim_relation::ProductId;

/// Most **general** informative signature first (fewest atoms). A positive
/// answer on a small signature collapses `U` aggressively; a negative
/// answer discards a thin slice. Works well when the goal query is small.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalGeneral;

impl Strategy for LocalGeneral {
    fn name(&self) -> &'static str {
        "local-general"
    }

    fn top_k(
        &mut self,
        _engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        rank(candidates.candidates(), k, |c| {
            -(c.restricted_sig.len() as i64)
        })
    }
}

/// Most **specific** informative signature first (most atoms). A negative
/// answer near the top of the lattice eliminates large down-sets; a
/// positive answer pins `U` precisely. Works well when the goal query is
/// large (complex).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSpecific;

impl Strategy for LocalSpecific {
    fn name(&self) -> &'static str {
        "local-specific"
    }

    fn top_k(
        &mut self,
        _engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        rank(candidates.candidates(), k, |c| {
            c.restricted_sig.len() as i64
        })
    }
}

/// Most **frequent** informative signature first: resolving the most
/// populated equivalence class grays out the most rows per answer in the
/// best case, regardless of lattice position.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalFrequency;

impl Strategy for LocalFrequency {
    fn name(&self) -> &'static str {
        "local-frequency"
    }

    fn top_k(
        &mut self,
        _engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        rank(candidates.candidates(), k, |c| c.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::strategy::{choose_next, top_k_next};
    use jim_relation::{tup, DataType, Product, Relation, RelationSchema};

    /// Figure-1 instance: signatures ∅×3, {FC}×3, {TC,AD}×2, {FC,AD}×1,
    /// {TC}×2, {AD}×1.
    fn engine_fixture() -> (Relation, Relation) {
        let flights = Relation::new(
            RelationSchema::of(
                "flights",
                &[
                    ("From", DataType::Text),
                    ("To", DataType::Text),
                    ("Airline", DataType::Text),
                ],
            )
            .unwrap(),
            vec![
                tup!["Paris", "Lille", "AF"],
                tup!["Lille", "NYC", "AA"],
                tup!["NYC", "Paris", "AA"],
                tup!["Paris", "NYC", "AF"],
            ],
        )
        .unwrap();
        let hotels = Relation::new(
            RelationSchema::of(
                "hotels",
                &[("City", DataType::Text), ("Discount", DataType::Text)],
            )
            .unwrap(),
            vec![
                tup!["NYC", "AA"],
                tup!["Paris", "None"],
                tup!["Lille", "AF"],
            ],
        )
        .unwrap();
        (flights, hotels)
    }

    #[test]
    fn general_picks_empty_signature_first() {
        let (f, h) = engine_fixture();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        // The most general signature is ∅, first carried by tuple (1) = rank 0.
        let id = choose_next(&mut LocalGeneral, &e).unwrap();
        let t = e.product().tuple(id).unwrap();
        assert!(e.universe().signature(&t).is_empty());
    }

    #[test]
    fn specific_picks_two_atom_signature_first() {
        let (f, h) = engine_fixture();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let id = choose_next(&mut LocalSpecific, &e).unwrap();
        let t = e.product().tuple(id).unwrap();
        assert_eq!(e.universe().signature(&t).len(), 2);
    }

    #[test]
    fn frequency_picks_most_populated() {
        let (f, h) = engine_fixture();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let id = choose_next(&mut LocalFrequency, &e).unwrap();
        let t = e.product().tuple(id).unwrap();
        let sig = e.universe().signature(&t);
        // The ties at count 3 are ∅ and {FC}; tie-break is the smaller
        // signature lexicographically: ∅.
        assert!(sig.is_empty() || sig.len() == 1);
    }

    #[test]
    fn top_k_is_sorted_by_score() {
        let (f, h) = engine_fixture();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let ids = top_k_next(&mut LocalSpecific, &e, 6);
        assert_eq!(ids.len(), 6);
        let sizes: Vec<usize> = ids
            .iter()
            .map(|&id| {
                let t = e.product().tuple(id).unwrap();
                e.universe().signature(&t).len()
            })
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
    }
}
