//! Lookahead strategies: "take into account the quantity of information
//! that labeling an informative tuple could bring to the inference process,
//! by using a generalized notion of entropy" (paper, §2).
//!
//! All three score every informative candidate by simulating both answers
//! (closed-form on restricted signatures, see [`Engine::simulate`]) and/or
//! by the split it induces on the version-space mass.

use crate::engine::{CandidateView, Engine};
use crate::strategy::{rank, Strategy};
use jim_relation::ProductId;

/// Maximize the **worst-case** prune count: `max_t min(prune⁺(t),
/// prune⁻(t))`. The adversarial answer still grays out as much as possible.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookaheadMinPrune;

impl Strategy for LookaheadMinPrune {
    fn name(&self) -> &'static str {
        "lookahead-minprune"
    }

    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        let mut scratch = engine.sim_scratch();
        rank(candidates.candidates(), k, |c| {
            let (pos, neg) = engine.simulate_in(&c.restricted_sig, &mut scratch);
            (pos.min(neg), pos + neg)
        })
    }
}

/// Maximize the **mean** prune count across the two answers (a uniform
/// prior over answers): `max_t (prune⁺(t) + prune⁻(t))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookaheadExpected;

impl Strategy for LookaheadExpected {
    fn name(&self) -> &'static str {
        "lookahead-expected"
    }

    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        let mut scratch = engine.sim_scratch();
        rank(candidates.candidates(), k, |c| {
            let (pos, neg) = engine.simulate_in(&c.restricted_sig, &mut scratch);
            pos + neg
        })
    }
}

/// Maximize the **generalized entropy** of the version-space split.
///
/// For a candidate selected by a fraction `p` of the consistent predicates,
/// the Tsallis entropy of order `α` is
///
/// * `α = 1`: `−p·ln p − (1−p)·ln(1−p)` (Shannon),
/// * `α ≠ 1`: `(1 − p^α − (1−p)^α) / (α − 1)`.
///
/// Maximal when `p = ½`: the answer halves the version space — a binary
/// search over predicates. Falls back to the maximin prune score when
/// counting exceeds its budget.
#[derive(Debug, Clone, Copy)]
pub struct LookaheadEntropy {
    alpha: f64,
}

impl LookaheadEntropy {
    /// Entropy of order `alpha` (must be positive).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "entropy order must be positive");
        LookaheadEntropy { alpha }
    }

    /// The Tsallis order.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn entropy(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let q = 1.0 - p;
        if (self.alpha - 1.0).abs() < 1e-9 {
            let term = |x: f64| if x <= 0.0 { 0.0 } else { -x * x.ln() };
            term(p) + term(q)
        } else {
            (1.0 - p.powf(self.alpha) - q.powf(self.alpha)) / (self.alpha - 1.0)
        }
    }
}

impl Default for LookaheadEntropy {
    fn default() -> Self {
        LookaheadEntropy::new(1.0)
    }
}

impl Strategy for LookaheadEntropy {
    fn name(&self) -> &'static str {
        "lookahead-entropy"
    }

    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        let vs = engine.version_space();
        let mut scratch = engine.sim_scratch();
        rank(candidates.candidates(), k, |c| {
            match vs.selecting_probability(&c.restricted_sig) {
                Some(p) => self.entropy(p),
                None => {
                    // Counting blew its budget: score the worst-case prune
                    // count w instead, squashed into [0, ln 2) as
                    // ln 2 · w / (w + 1).
                    let (pos, neg) = engine.simulate_in(&c.restricted_sig, &mut scratch);
                    let worst = pos.min(neg) as f64;
                    std::f64::consts::LN_2 * worst / (worst + 1.0)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::strategy::choose_next;
    use jim_relation::{tup, DataType, Product, Relation, RelationSchema};

    fn paper_instance() -> (Relation, Relation) {
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
    fn minprune_picks_a_balanced_tuple() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let id = choose_next(&mut LookaheadMinPrune, &e).unwrap();
        let t = e.product().tuple(id).unwrap();
        let sig = e.universe().signature(&t);
        let (pos, neg) = e.simulate(&e.version_space().restrict(&sig));
        // The paper highlights tuple (12) (signature {AD}) with prune counts
        // (4, 4); no candidate does better than min = 4.
        assert!(pos.min(neg) >= 4, "got ({pos},{neg})");
    }

    #[test]
    fn expected_score_at_least_minprune_choice() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let id = choose_next(&mut LookaheadExpected, &e).unwrap();
        assert!(e.is_informative(id).unwrap());
    }

    #[test]
    fn shannon_entropy_properties() {
        let s = LookaheadEntropy::new(1.0);
        assert!((s.entropy(0.5) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(s.entropy(0.0), 0.0);
        assert_eq!(s.entropy(1.0), 0.0);
        assert!(s.entropy(0.5) > s.entropy(0.1));
    }

    #[test]
    fn tsallis_entropy_properties() {
        let s = LookaheadEntropy::new(2.0);
        // H_2(p) = 1 - p² - (1-p)² = 2p(1-p); max 0.5 at p = ½.
        assert!((s.entropy(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(s.entropy(0.0), 0.0);
        let s_half = LookaheadEntropy::new(0.5);
        assert!(s_half.entropy(0.5) > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_alpha_rejected() {
        LookaheadEntropy::new(0.0);
    }

    #[test]
    fn entropy_strategy_chooses_informative() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let id = choose_next(&mut LookaheadEntropy::default(), &e).unwrap();
        assert!(e.is_informative(id).unwrap());
    }

    #[test]
    fn alpha_accessor() {
        assert_eq!(LookaheadEntropy::new(2.0).alpha(), 2.0);
    }
}
