//! The optimal (exponential-time) planner.
//!
//! The paper notes: "there exists an algorithm that computes the optimal
//! strategy of showing tuples to the user, but it requires exponential
//! time, which unfortunately renders it unusable in practice". This module
//! implements that algorithm — memoized minimax over version-space states —
//! both as a [`Strategy`] and as a standalone depth oracle, so experiments
//! can quantify exactly *how* impractical it is (experiment E6) and how
//! close the heuristics come to optimal.

use crate::bitset::AtomSet;
use crate::engine::{CandidateView, Engine};
use crate::error::{InferenceError, Result};
use crate::label::Label;
use crate::strategy::{SimState, Strategy};
use jim_relation::ProductId;
use std::collections::HashMap;

/// Memoized minimax planner. Reusable across the steps of one inference run
/// (each real answer lands in a child state that is usually already
/// memoized). States are memoized on their distinct informative
/// signatures: tuple multiplicities do not change the worst-case depth,
/// which is what makes memoization bite.
#[derive(Debug)]
pub struct OptimalPlanner {
    memo: HashMap<SimState, u32>,
    /// Hard cap on distinct states explored; exceeding it returns
    /// [`InferenceError::BudgetExceeded`].
    max_states: usize,
}

impl Default for OptimalPlanner {
    fn default() -> Self {
        OptimalPlanner::with_budget(DEFAULT_MAX_STATES)
    }
}

impl OptimalPlanner {
    /// A planner with the given state budget.
    pub fn with_budget(max_states: usize) -> Self {
        OptimalPlanner {
            memo: HashMap::new(),
            max_states,
        }
    }

    /// Number of distinct states explored so far (the experiment E6
    /// "exponential blow-up" metric).
    pub fn states_explored(&self) -> usize {
        self.memo.len()
    }

    /// The optimal worst-case number of membership queries from the
    /// engine's current state.
    pub fn worst_case_depth(&mut self, engine: &Engine) -> Result<u32> {
        self.depth(SimState::new(engine, &engine.candidates()))
    }

    /// The signature to query next for optimal worst-case depth, with that
    /// depth. `None` when already resolved.
    pub fn best_move(&mut self, engine: &Engine) -> Result<Option<(AtomSet, u32)>> {
        let state = SimState::new(engine, &engine.candidates());
        let mut best: Option<(&AtomSet, u32)> = None;
        for s in state.sigs() {
            let d_pos = self.depth(state.after(s, Label::Positive))?;
            let d_neg = self.depth(state.after(s, Label::Negative))?;
            let d = 1 + d_pos.max(d_neg);
            if best.is_none_or(|(_, b)| d < b) {
                best = Some((s, d));
            }
        }
        Ok(best.map(|(s, d)| (s.clone(), d)))
    }

    fn depth(&mut self, state: SimState) -> Result<u32> {
        if state.is_resolved() {
            return Ok(0);
        }
        if let Some(&d) = self.memo.get(&state) {
            return Ok(d);
        }
        if self.memo.len() >= self.max_states {
            return Err(InferenceError::BudgetExceeded {
                what: "optimal planner states",
            });
        }
        let mut best = u32::MAX;
        for s in state.sigs() {
            let d_pos = self.depth(state.after(s, Label::Positive))?;
            if 1 + d_pos >= best {
                continue; // cannot improve even if the negative branch is free
            }
            let d_neg = self.depth(state.after(s, Label::Negative))?;
            best = best.min(1 + d_pos.max(d_neg));
            if best == 1 {
                break; // one question resolves everything: optimal
            }
        }
        self.memo.insert(state, best);
        Ok(best)
    }
}

/// Default budget: enough for the tiny instances where the planner is
/// usable at all (the paper calls it "unusable in practice").
const DEFAULT_MAX_STATES: usize = 2_000_000;

/// The optimal planner wrapped as a [`Strategy`].
///
/// It never panics: when the budget is exceeded, it falls back to the
/// first informative candidate (and records that it did).
#[derive(Debug)]
pub struct OptimalStrategy {
    planner: OptimalPlanner,
    fell_back: bool,
}

impl Default for OptimalStrategy {
    fn default() -> Self {
        OptimalStrategy {
            planner: OptimalPlanner::with_budget(DEFAULT_MAX_STATES),
            fell_back: false,
        }
    }
}

impl OptimalStrategy {
    /// A strategy with a custom planner budget.
    pub fn with_budget(max_states: usize) -> Self {
        OptimalStrategy {
            planner: OptimalPlanner::with_budget(max_states),
            fell_back: false,
        }
    }

    /// Did any proposal exceed the planner budget and fall back?
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Access the underlying planner (e.g. for state counts).
    pub fn planner(&self) -> &OptimalPlanner {
        &self.planner
    }
}

impl Strategy for OptimalStrategy {
    fn name(&self) -> &'static str {
        "optimal"
    }

    /// The planner's best move, so at most one id whatever `k` is.
    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId> {
        let candidates = candidates.candidates();
        if candidates.is_empty() {
            return Vec::new();
        }
        let best = match self.planner.best_move(engine) {
            Ok(Some((sig, _depth))) => candidates.iter().find(|c| c.restricted_sig == sig),
            Ok(None) => None,
            Err(_) => {
                self.fell_back = true;
                candidates.first()
            }
        };
        best.map(|c| c.representative).into_iter().take(k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::label::Label;
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
    fn paper_instance_has_small_optimal_depth() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut planner = OptimalPlanner::with_budget(1_000_000);
        let d = planner.worst_case_depth(&e).unwrap();
        // 6 distinct signatures: between 3 and 6 questions resolve any goal.
        assert!(d >= 3, "depth {d}");
        assert!(d <= 6, "depth {d}");
        assert!(planner.states_explored() > 0);
    }

    #[test]
    fn depth_decreases_monotonically_along_optimal_play() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let mut e = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut planner = OptimalPlanner::with_budget(1_000_000);
        let mut prev = planner.worst_case_depth(&e).unwrap();
        // Adversarial answers can never push the remaining depth above
        // prev - 1.
        while let Some((sig, _)) = planner.best_move(&e).unwrap() {
            let rep = e
                .candidates()
                .iter()
                .find(|c| c.restricted_sig == sig)
                .unwrap()
                .representative;
            // Adversary: pick the branch with larger remaining depth.
            let mut e_pos = e.clone();
            e_pos.label(rep, Label::Positive).unwrap();
            let d_pos = planner.worst_case_depth(&e_pos).unwrap();
            let mut e_neg = e.clone();
            e_neg.label(rep, Label::Negative).unwrap();
            let d_neg = planner.worst_case_depth(&e_neg).unwrap();
            let (next, d) = if d_pos >= d_neg {
                (e_pos, d_pos)
            } else {
                (e_neg, d_neg)
            };
            assert!(d < prev, "depth {d} after a query from depth {prev}");
            prev = d;
            e = next;
            if prev == 0 {
                break;
            }
        }
        assert!(e.is_resolved());
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut planner = OptimalPlanner::with_budget(1);
        assert!(matches!(
            planner.worst_case_depth(&e),
            Err(InferenceError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn strategy_falls_back_when_over_budget() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut s = OptimalStrategy::with_budget(1);
        let id = choose_next(&mut s, &e);
        assert!(id.is_some());
        assert!(s.fell_back());
    }

    #[test]
    fn resolved_state_is_depth_zero() {
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let mut e = Engine::new(p, &EngineOptions::default()).unwrap();
        e.label(ProductId(2), Label::Positive).unwrap();
        e.label(ProductId(6), Label::Negative).unwrap();
        e.label(ProductId(7), Label::Negative).unwrap();
        assert!(e.is_resolved());
        let mut planner = OptimalPlanner::default();
        assert_eq!(planner.worst_case_depth(&e).unwrap(), 0);
    }

    #[test]
    fn optimal_never_beaten_by_heuristics_on_worst_case() {
        // The optimal depth is a lower bound on every strategy's worst case
        // over all goals. Check: for each single-atom goal, the optimal
        // strategy uses at most `optimal depth` questions.
        let (f, h) = paper_instance();
        let p = Product::new(vec![&f, &h]).unwrap();
        let e0 = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut planner = OptimalPlanner::with_budget(1_000_000);
        let bound = planner.worst_case_depth(&e0).unwrap();

        let u = e0.universe().clone();
        for atom_idx in 0..u.len() {
            let goal = crate::predicate::JoinPredicate::of(
                u.clone(),
                [crate::atoms::AtomId(atom_idx as u32)],
            );
            let mut e = e0.clone();
            let mut s = OptimalStrategy::with_budget(1_000_000);
            let mut steps = 0;
            while let Some(id) = choose_next(&mut s, &e) {
                let t = e.product().tuple(id).unwrap();
                e.label(id, Label::from_bool(goal.selects(&t))).unwrap();
                steps += 1;
                assert!(
                    steps <= bound,
                    "goal {goal}: exceeded optimal bound {bound}"
                );
            }
            assert!(!s.fell_back());
            assert!(e.is_resolved());
        }
    }
}
