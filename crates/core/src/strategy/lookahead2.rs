//! Deeper lookahead: a two-step (depth-2) minimax over informative-tuple
//! counts, and a hybrid strategy that pays for lookahead only when the
//! candidate set is small.
//!
//! The paper's lookahead family scores the information of *one* answer;
//! its optimal planner is a full minimax. Depth-2 lookahead sits between
//! the two: for each candidate question, assume the adversarial answer,
//! then the best follow-up question, again with an adversarial answer —
//! and minimize the informative tuples that survive. This is the natural
//! "one more step" extension and ablation A4 measures what it buys.

use crate::engine::{CandidateView, Engine};
use crate::label::Label;
use crate::strategy::{rank, LocalSpecific, LookaheadMinPrune, SimState, Strategy};
use jim_relation::ProductId;
use std::cmp::Reverse;

/// Best worst-case remaining count after asking one more question.
fn best_one_step(state: &SimState) -> u64 {
    state
        .sigs()
        .map(|s| {
            let pos = state.after(s, Label::Positive).remaining();
            let neg = state.after(s, Label::Negative).remaining();
            pos.max(neg)
        })
        .min()
        .unwrap_or(0)
}

/// Depth-2 minimax on remaining informative tuples: choose the question
/// whose adversarial answer, followed by the best next question with its
/// adversarial answer, leaves the fewest informative tuples.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookaheadTwoStep;

impl Strategy for LookaheadTwoStep {
    fn name(&self) -> &'static str {
        "lookahead-2step"
    }

    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        let state = SimState::new(engine, candidates);
        rank(candidates.candidates(), k, |c| {
            let pos = state.after(&c.restricted_sig, Label::Positive);
            let neg = state.after(&c.restricted_sig, Label::Negative);
            // Adversary answers to maximize what survives two steps; the
            // one-step worst case breaks ties. Fewer survivors rank first.
            let depth2 = best_one_step(&pos).max(best_one_step(&neg));
            let depth1 = pos.remaining().max(neg.remaining());
            Reverse((depth2, depth1))
        })
    }
}

/// Local choice while the candidate set is large; full lookahead once it
/// is small. `threshold` is the number of distinct informative signatures
/// at which lookahead kicks in.
#[derive(Debug, Clone, Copy)]
pub struct HybridStrategy {
    threshold: usize,
}

impl HybridStrategy {
    /// Switch to lookahead at `threshold` distinct candidates.
    pub fn new(threshold: usize) -> Self {
        HybridStrategy { threshold }
    }

    /// The switch point.
    pub fn threshold(&self) -> usize {
        self.threshold
    }
}

impl Default for HybridStrategy {
    fn default() -> Self {
        HybridStrategy::new(16)
    }
}

impl Strategy for HybridStrategy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        if candidates.len() > self.threshold {
            LocalSpecific.top_k(engine, candidates, k)
        } else {
            LookaheadMinPrune.top_k(engine, candidates, k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::predicate::JoinPredicate;
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

    fn run_to_convergence(strategy: &mut dyn Strategy) -> u64 {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let mut e = Engine::new(p, &EngineOptions::default()).unwrap();
        let u = e.universe().clone();
        let tc = u.id_by_names((0, "To"), (1, "City")).unwrap();
        let ad = u.id_by_names((0, "Airline"), (1, "Discount")).unwrap();
        let goal = JoinPredicate::of(u, [tc, ad]);
        let mut steps = 0;
        while let Some(id) = choose_next(strategy, &e) {
            let t = e.product().tuple(id).unwrap();
            e.label(id, Label::from_bool(goal.selects(&t))).unwrap();
            steps += 1;
            assert!(steps <= 12);
        }
        assert!(e.is_resolved());
        assert!(e.result().instance_equivalent(&goal, e.product()).unwrap());
        steps
    }

    #[test]
    fn two_step_converges_on_q2() {
        let steps = run_to_convergence(&mut LookaheadTwoStep);
        assert!((2..=6).contains(&steps), "{steps}");
    }

    #[test]
    fn hybrid_converges_on_q2() {
        let steps = run_to_convergence(&mut HybridStrategy::default());
        assert!((2..=6).contains(&steps), "{steps}");
        let steps = run_to_convergence(&mut HybridStrategy::new(0));
        assert!((2..=6).contains(&steps), "{steps}");
    }

    #[test]
    fn two_step_never_worse_than_one_step_on_first_move_bound() {
        // The depth-2 adversarial bound of the chosen move is at most the
        // depth-1 bound of the depth-1 strategy's move (minimax monotone).
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let state = SimState::new(&e, &e.candidates());

        let bound_of = |id: jim_relation::ProductId, depth2: bool| {
            let t = e.product().tuple(id).unwrap();
            let sig = e.version_space().restrict(&e.universe().signature(&t));
            let pos = state.after(&sig, Label::Positive);
            let neg = state.after(&sig, Label::Negative);
            if depth2 {
                best_one_step(&pos).max(best_one_step(&neg))
            } else {
                pos.remaining().max(neg.remaining())
            }
        };

        let two = choose_next(&mut LookaheadTwoStep, &e).unwrap();
        let one = choose_next(&mut LookaheadMinPrune, &e).unwrap();
        assert!(bound_of(two, true) <= bound_of(one, true));
    }

    #[test]
    fn hybrid_switches_at_threshold() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        // 6 candidates: a threshold of 0 means "never small enough" ->
        // local behaviour; a threshold of 100 admits lookahead already.
        let local_pick = choose_next(&mut LocalSpecific, &e);
        let lookahead_pick = choose_next(&mut LookaheadMinPrune, &e);
        assert_eq!(choose_next(&mut HybridStrategy::new(0), &e), local_pick);
        assert_eq!(
            choose_next(&mut HybridStrategy::new(100), &e),
            lookahead_pick
        );
        assert_eq!(HybridStrategy::new(7).threshold(), 7);
    }

    #[test]
    fn sim_state_transitions_match_engine() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let state = SimState::new(&e, &e.candidates());
        for c in e.candidates().iter() {
            // Remaining-after counts must equal total minus the engine's
            // simulate() prune counts.
            let (pos_pruned, neg_pruned) = e.simulate(&c.restricted_sig);
            let total = state.remaining();
            assert_eq!(
                state.after(&c.restricted_sig, Label::Positive).remaining(),
                total - pos_pruned
            );
            assert_eq!(
                state.after(&c.restricted_sig, Label::Negative).remaining(),
                total - neg_pruned
            );
        }
    }
}
