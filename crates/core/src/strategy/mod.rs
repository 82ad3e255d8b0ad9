//! Interaction strategies — the paper's `Υ`: "a function that, given a set
//! of tuples and some labels, returns an informative tuple".
//!
//! The paper classifies strategies as **local** (simple, based on fixed
//! orders over the signature lattice), **lookahead** (score the quantity of
//! information a label would bring, via prune counts or a generalized
//! entropy), the **random** baseline, and the **optimal** exponential-time
//! planner. All of them are implemented here behind one trait.
//!
//! The trait contract: [`Strategy::top_k`] is the one required ranking
//! method, and [`Strategy::choose`] is its head, `top_k(…, 1)`. Only
//! [`RandomStrategy`] overrides `choose`: it draws a tuple weighted by
//! count, while its `top_k` draws candidates uniformly. Every scoring
//! strategy ranks through one routine, `rank`, which orders candidate
//! indices and never clones a candidate. Lookahead-2step and the optimal
//! planner step one shared branch state, `SimState`.

mod data_aware;
mod local;
mod lookahead;
mod lookahead2;
pub mod optimal;
mod random;

pub use data_aware::DataAware;
pub use local::{LocalFrequency, LocalGeneral, LocalSpecific};
pub use lookahead::{LookaheadEntropy, LookaheadExpected, LookaheadMinPrune};
pub use lookahead2::{HybridStrategy, LookaheadTwoStep};
pub use optimal::OptimalStrategy;
pub use random::RandomStrategy;

use crate::bitset::{maximal_antichain, AtomSet};
use crate::engine::{Candidate, CandidateView, Engine};
use crate::label::Label;
use jim_relation::ProductId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A strategy proposes the next tuple for the user to label.
///
/// Strategies rank the **borrowed** candidate view the engine maintains
/// incrementally ([`Engine::candidates`]) — they never materialize their
/// own candidate list, so a `choose` call costs the ranking, not a rebuild
/// of the group table. Callers take the view and hand it in:
///
/// ```ignore
/// let choice = {
///     let view = engine.candidates();
///     strategy.choose(&engine, &view)
/// };
/// ```
pub trait Strategy {
    /// Stable identifier used in experiment tables.
    fn name(&self) -> &'static str;

    /// Rank the informative candidates best-first and return the top `k`
    /// (the demo's "top-k informative tuples" interaction, Figure 3.3).
    /// Empty when the view is empty (inference is complete).
    fn top_k(
        &mut self,
        engine: &Engine,
        candidates: &CandidateView<'_>,
        k: usize,
    ) -> Vec<ProductId>;

    /// Pick the next informative tuple, or `None` when inference is
    /// complete: the head of [`Strategy::top_k`] with `k = 1`.
    fn choose(&mut self, engine: &Engine, candidates: &CandidateView<'_>) -> Option<ProductId> {
        self.top_k(engine, candidates, 1).first().copied()
    }
}

/// Convenience: take the engine's current candidate view and run
/// [`Strategy::choose`] against it. For callers that do not keep the view
/// across calls (sessions, oracles, tests).
pub fn choose_next(strategy: &mut (impl Strategy + ?Sized), engine: &Engine) -> Option<ProductId> {
    let view = engine.candidates();
    strategy.choose(engine, &view)
}

/// Convenience: take the engine's current candidate view and run
/// [`Strategy::top_k`] against it.
pub fn top_k_next(
    strategy: &mut (impl Strategy + ?Sized),
    engine: &Engine,
    k: usize,
) -> Vec<ProductId> {
    let view = engine.candidates();
    strategy.top_k(engine, &view, k)
}

/// The representatives of the `k` best candidates under `score` (higher
/// is better), best first. Ties break by the smaller restricted signature,
/// then the smaller representative, so the order is fully deterministic.
///
/// Scores go into one `(score, index)` vector. When `k` is below the
/// candidate count only the best `k` are selected and sorted, so `k = 1`
/// costs one scoring pass and a linear selection.
pub(crate) fn rank<S: PartialOrd>(
    candidates: &[Candidate],
    k: usize,
    mut score: impl FnMut(&Candidate) -> S,
) -> Vec<ProductId> {
    if k == 0 {
        return Vec::new();
    }
    let mut scored: Vec<(S, usize)> = candidates.iter().map(&mut score).zip(0..).collect();
    let best_first = |(sa, a): &(S, usize), (sb, b): &(S, usize)| {
        let (ca, cb) = (&candidates[*a], &candidates[*b]);
        sb.partial_cmp(sa)
            .unwrap_or(Ordering::Equal)
            .then_with(|| ca.restricted_sig.cmp(&cb.restricted_sig))
            .then_with(|| ca.representative.cmp(&cb.representative))
    };
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, best_first);
        scored.truncate(k);
    }
    scored.sort_unstable_by(best_first);
    scored
        .into_iter()
        .map(|(_, i)| candidates[i].representative)
        .collect()
}

/// One simulated branch of the interaction: the version space `(U, N)` and
/// the informative restricted signatures it leaves, each stored beside its
/// tuple count. `N` is the maximal negative antichain, sorted, and the
/// signatures are sorted and distinct, so one version space has exactly
/// one state.
///
/// `Eq` and `Hash` ignore the counts: the worst-case number of questions
/// depends only on the distinct signatures, so the optimal planner
/// memoizes on the state itself. Lookahead-2step sums the counts.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    upper: AtomSet,
    negs: Vec<AtomSet>,
    sigs: Vec<(AtomSet, u64)>,
}

impl SimState {
    /// The engine's current state over the candidates of `view`.
    pub(crate) fn new(engine: &Engine, view: &CandidateView<'_>) -> SimState {
        let vs = engine.version_space();
        let mut negs = vs.negatives().to_vec();
        negs.sort();
        // The index holds one candidate per restricted signature, so the
        // signatures are already distinct.
        let mut sigs: Vec<(AtomSet, u64)> = view
            .iter()
            .map(|c| (c.restricted_sig.clone(), c.count))
            .collect();
        sigs.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        SimState {
            upper: vs.upper().clone(),
            negs,
            sigs,
        }
    }

    /// The informative restricted signatures, sorted.
    pub(crate) fn sigs(&self) -> impl Iterator<Item = &AtomSet> {
        self.sigs.iter().map(|(s, _)| s)
    }

    /// Informative tuples left in this state.
    pub(crate) fn remaining(&self) -> u64 {
        self.sigs.iter().map(|(_, c)| c).sum()
    }

    /// True iff no informative signature is left.
    pub(crate) fn is_resolved(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The state after the user answers `label` on a tuple whose restricted
    /// signature is `s`. A positive answer shrinks `U` to `s`, restricting
    /// the negatives and the signatures to it (signatures that coincide
    /// merge, summing their counts). A negative answer adds `s` to the
    /// antichain. Either way, signatures that became certain drop out.
    pub(crate) fn after(&self, s: &AtomSet, label: Label) -> SimState {
        let upper = match label {
            Label::Positive => s.clone(),
            Label::Negative => self.upper.clone(),
        };
        let mut negs = maximal_antichain(match label {
            Label::Positive => self.negs.iter().map(|n| n.intersection(&upper)).collect(),
            Label::Negative => self.negs.iter().chain([s]).cloned().collect(),
        });
        negs.sort();
        let informative = |r: &AtomSet| *r != upper && !negs.iter().any(|n| r.is_subset(n));
        let sigs = match label {
            Label::Positive => {
                let mut sigs: Vec<(AtomSet, u64)> = self
                    .sigs
                    .iter()
                    .map(|(r, c)| (r.intersection(&upper), *c))
                    .filter(|(r, _)| informative(r))
                    .collect();
                sigs.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
                sigs.dedup_by(|(r, c), (kept, kept_count)| {
                    let same = r == kept;
                    if same {
                        *kept_count += *c;
                    }
                    same
                });
                sigs
            }
            Label::Negative => self
                .sigs
                .iter()
                .filter(|(r, _)| informative(r))
                .cloned()
                .collect(),
        };
        SimState { upper, negs, sigs }
    }
}

impl PartialEq for SimState {
    fn eq(&self, other: &SimState) -> bool {
        self.upper == other.upper && self.negs == other.negs && self.sigs().eq(other.sigs())
    }
}

impl Eq for SimState {}

impl Hash for SimState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.upper.hash(state);
        self.negs.hash(state);
        self.sigs().for_each(|s| s.hash(state));
    }
}

/// Enumerates every implemented strategy; the uniform handle experiments
/// sweep over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// Uniformly random informative tuple (the paper's baseline).
    Random {
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Local: most general informative signature first (fewest atoms).
    LocalGeneral,
    /// Local: most specific informative signature first (most atoms).
    LocalSpecific,
    /// Local: most frequent informative signature first.
    LocalFrequency,
    /// Lookahead: maximize the worst-case prune count (maximin).
    LookaheadMinPrune,
    /// Lookahead: maximize the mean prune count across the two answers.
    LookaheadExpected,
    /// Lookahead: maximize the generalized entropy of the version-space
    /// split (`alpha` = 1.0 is Shannon entropy).
    LookaheadEntropy {
        /// Tsallis order of the generalized entropy.
        alpha: f64,
    },
    /// Lookahead: depth-2 minimax on remaining informative tuples.
    LookaheadTwoStep,
    /// Local choice on large candidate sets, lookahead on small ones.
    Hybrid {
        /// Candidate-set size at which lookahead kicks in.
        threshold: usize,
    },
    /// Statistics-guided: probe the rarest (most key-like) atoms first.
    DataAware,
    /// Exponential-time minimax planner (optimal worst-case interactions).
    Optimal,
}

impl StrategyKind {
    /// Instantiate the strategy. The trait object is `Send + 'static`, so a
    /// built strategy can live inside a server-side session that migrates
    /// across worker threads.
    pub fn build(self) -> Box<dyn Strategy + Send> {
        match self {
            StrategyKind::Random { seed } => Box::new(RandomStrategy::seeded(seed)),
            StrategyKind::LocalGeneral => Box::new(LocalGeneral),
            StrategyKind::LocalSpecific => Box::new(LocalSpecific),
            StrategyKind::LocalFrequency => Box::new(LocalFrequency),
            StrategyKind::LookaheadMinPrune => Box::new(LookaheadMinPrune),
            StrategyKind::LookaheadExpected => Box::new(LookaheadExpected),
            StrategyKind::LookaheadEntropy { alpha } => Box::new(LookaheadEntropy::new(alpha)),
            StrategyKind::LookaheadTwoStep => Box::new(LookaheadTwoStep),
            StrategyKind::Hybrid { threshold } => Box::new(HybridStrategy::new(threshold)),
            StrategyKind::DataAware => Box::new(DataAware::new()),
            StrategyKind::Optimal => Box::new(OptimalStrategy::default()),
        }
    }

    /// The polynomial-time strategies the paper's experiments compare
    /// (everything except the exponential planner).
    pub fn heuristics(seed: u64) -> Vec<StrategyKind> {
        vec![
            StrategyKind::Random { seed },
            StrategyKind::LocalGeneral,
            StrategyKind::LocalSpecific,
            StrategyKind::LocalFrequency,
            StrategyKind::LookaheadMinPrune,
            StrategyKind::LookaheadExpected,
            StrategyKind::LookaheadEntropy { alpha: 1.0 },
        ]
    }

    /// The heuristics plus this reproduction's extensions (depth-2
    /// lookahead and the hybrid) — what ablation A4 sweeps.
    pub fn extended(seed: u64) -> Vec<StrategyKind> {
        let mut all = StrategyKind::heuristics(seed);
        all.push(StrategyKind::LookaheadTwoStep);
        all.push(StrategyKind::Hybrid { threshold: 16 });
        all.push(StrategyKind::DataAware);
        all
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyKind::Random { .. } => f.write_str("random"),
            StrategyKind::LocalGeneral => f.write_str("local-general"),
            StrategyKind::LocalSpecific => f.write_str("local-specific"),
            StrategyKind::LocalFrequency => f.write_str("local-frequency"),
            StrategyKind::LookaheadMinPrune => f.write_str("lookahead-minprune"),
            StrategyKind::LookaheadExpected => f.write_str("lookahead-expected"),
            StrategyKind::LookaheadEntropy { alpha } => write!(f, "lookahead-entropy(α={alpha})"),
            StrategyKind::LookaheadTwoStep => f.write_str("lookahead-2step"),
            StrategyKind::Hybrid { .. } => f.write_str("hybrid"),
            StrategyKind::DataAware => f.write_str("data-aware"),
            StrategyKind::Optimal => f.write_str("optimal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use crate::label::Label;
    use crate::predicate::JoinPredicate;
    use jim_relation::{tup, DataType, Product, Relation, RelationSchema};

    fn flights() -> Relation {
        Relation::new(
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
        .unwrap()
    }

    fn hotels() -> Relation {
        Relation::new(
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
        .unwrap()
    }

    /// Run a full inference loop against a goal; return #interactions.
    fn run_to_convergence(kind: StrategyKind, goal_atoms: &[(usize, &str, usize, &str)]) -> u64 {
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let mut engine = Engine::new(p, &EngineOptions::default()).unwrap();
        let u = engine.universe().clone();
        let ids: Vec<_> = goal_atoms
            .iter()
            .map(|&(ra, a, rb, b)| u.id_by_names((ra, a), (rb, b)).unwrap())
            .collect();
        let goal = JoinPredicate::of(u, ids);

        let mut strategy = kind.build();
        let mut steps = 0u64;
        while let Some(id) = choose_next(strategy.as_mut(), &engine) {
            let tuple = engine.product().tuple(id).unwrap();
            let label = Label::from_bool(goal.selects(&tuple));
            engine.label(id, label).unwrap();
            steps += 1;
            assert!(steps <= 12, "{kind}: runaway loop");
            assert!(engine.consistent_with(&goal), "{kind}: goal eliminated");
        }
        assert!(engine.is_resolved(), "{kind}: not resolved");
        // The inferred query must be instance-equivalent to the goal.
        let inferred = engine.result();
        assert!(
            inferred
                .instance_equivalent(&goal, engine.product())
                .unwrap(),
            "{kind}: inferred {inferred} not equivalent to goal {goal}"
        );
        steps
    }

    #[test]
    fn every_strategy_infers_q1() {
        for kind in StrategyKind::extended(7)
            .into_iter()
            .chain([StrategyKind::Optimal])
        {
            let steps = run_to_convergence(kind, &[(0, "To", 1, "City")]);
            assert!(steps >= 1, "{kind}");
        }
    }

    #[test]
    fn every_strategy_infers_q2() {
        for kind in StrategyKind::extended(7)
            .into_iter()
            .chain([StrategyKind::Optimal])
        {
            let steps =
                run_to_convergence(kind, &[(0, "To", 1, "City"), (0, "Airline", 1, "Discount")]);
            assert!(
                steps >= 2,
                "{kind}: Q2 needs at least a positive and a negative"
            );
        }
    }

    #[test]
    fn every_strategy_infers_the_empty_join() {
        // Goal selects nothing that shares values: use From ≍ Discount,
        // which no tuple of the instance satisfies -> all answers negative.
        for kind in StrategyKind::heuristics(3)
            .into_iter()
            .chain([StrategyKind::Optimal])
        {
            run_to_convergence(kind, &[(0, "From", 1, "Discount")]);
        }
    }

    #[test]
    fn strategies_only_propose_informative_tuples() {
        let f = flights();
        let h = hotels();
        for kind in StrategyKind::heuristics(11) {
            let p = Product::new(vec![&f, &h]).unwrap();
            let mut engine = Engine::new(p, &EngineOptions::default()).unwrap();
            let mut strategy = kind.build();
            // Label (3)+ to create uninformative tuples.
            engine.label(ProductId(2), Label::Positive).unwrap();
            for _ in 0..10 {
                match choose_next(strategy.as_mut(), &engine) {
                    None => break,
                    Some(id) => {
                        assert!(engine.is_informative(id).unwrap(), "{kind} proposed {id}");
                        engine.label(id, Label::Negative).ok();
                    }
                }
            }
        }
    }

    #[test]
    fn choose_returns_none_when_resolved() {
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let mut engine = Engine::new(p, &EngineOptions::default()).unwrap();
        engine.label(ProductId(2), Label::Positive).unwrap();
        engine.label(ProductId(6), Label::Negative).unwrap();
        engine.label(ProductId(7), Label::Negative).unwrap();
        assert!(engine.is_resolved());
        for kind in StrategyKind::heuristics(1)
            .into_iter()
            .chain([StrategyKind::Optimal])
        {
            assert_eq!(choose_next(kind.build().as_mut(), &engine), None, "{kind}");
        }
    }

    #[test]
    fn top_k_returns_distinct_informative() {
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let engine = Engine::new(p, &EngineOptions::default()).unwrap();
        let mut s = StrategyKind::LookaheadMinPrune.build();
        let top = top_k_next(s.as_mut(), &engine, 3);
        assert_eq!(top.len(), 3);
        let set: std::collections::HashSet<_> = top.iter().collect();
        assert_eq!(set.len(), 3);
        for id in top {
            assert!(engine.is_informative(id).unwrap());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(StrategyKind::LocalGeneral.to_string(), "local-general");
        assert_eq!(
            StrategyKind::LookaheadEntropy { alpha: 2.0 }.to_string(),
            "lookahead-entropy(α=2)"
        );
        assert_eq!(StrategyKind::Random { seed: 1 }.to_string(), "random");
        assert_eq!(StrategyKind::Optimal.to_string(), "optimal");
        assert_eq!(
            StrategyKind::LookaheadTwoStep.to_string(),
            "lookahead-2step"
        );
        assert_eq!(StrategyKind::Hybrid { threshold: 16 }.to_string(), "hybrid");
    }

    /// `rank` against the full sort it replaced, kept here as the oracle.
    mod rank_oracle {
        use super::super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Score every candidate, stably sort them all best-first under
        /// the same comparator, and keep every representative.
        fn ranked<S: PartialOrd>(
            candidates: &[Candidate],
            mut score: impl FnMut(&Candidate) -> S,
        ) -> Vec<ProductId> {
            let mut scored: Vec<(S, &Candidate)> =
                candidates.iter().map(|c| (score(c), c)).collect();
            scored.sort_by(|(sa, ca), (sb, cb)| {
                sb.partial_cmp(sa)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| ca.restricted_sig.cmp(&cb.restricted_sig))
                    .then_with(|| ca.representative.cmp(&cb.representative))
            });
            scored.into_iter().map(|(_, c)| c.representative).collect()
        }

        /// Up to 40 candidates over a 3-atom universe with counts 1–4 and
        /// representatives below 16: scores, signatures and
        /// representatives all tie often.
        fn candidates(rng: &mut StdRng) -> Vec<Candidate> {
            (0..rng.gen_range(0..=40usize))
                .map(|_| Candidate {
                    restricted_sig: AtomSet::from_indices(
                        3,
                        (0..3).filter(|_| rng.gen_bool(0.5)).collect::<Vec<_>>(),
                    ),
                    count: rng.gen_range(1..=4u64),
                    representative: ProductId(rng.gen_range(0..16u64)),
                })
                .collect()
        }

        /// `rank` at every `k` from 0 to one past the candidate count
        /// equals the head of the full sort.
        fn check<S: PartialOrd>(cs: &[Candidate], mut score: impl FnMut(&Candidate) -> S) {
            let full = ranked(cs, &mut score);
            for k in 0..=cs.len() + 1 {
                let head: Vec<ProductId> = full.iter().copied().take(k).collect();
                prop_assert_eq!(rank(cs, k, &mut score), head, "k = {}", k);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn rank_matches_full_sort(seed in any::<u64>()) {
                let cs = candidates(&mut StdRng::seed_from_u64(seed));
                check(&cs, |c| c.count as i64 % 3);
                check(&cs, |c| (c.count % 2, std::cmp::Reverse(c.restricted_sig.len())));
                check(&cs, |c| 1.0 / c.count as f64 - c.restricted_sig.len() as f64 * 0.25);
            }
        }
    }

    #[test]
    fn extended_superset_of_heuristics() {
        let h = StrategyKind::heuristics(0).len();
        let e = StrategyKind::extended(0).len();
        assert_eq!(e, h + 3);
    }

    #[test]
    fn deterministic_strategies_repeat_choices() {
        let f = flights();
        let h = hotels();
        for kind in [
            StrategyKind::LocalGeneral,
            StrategyKind::LocalSpecific,
            StrategyKind::LocalFrequency,
            StrategyKind::LookaheadMinPrune,
            StrategyKind::LookaheadExpected,
            StrategyKind::LookaheadEntropy { alpha: 1.0 },
            StrategyKind::Random { seed: 99 },
        ] {
            let p1 = Product::new(vec![&f, &h]).unwrap();
            let e1 = Engine::new(p1, &EngineOptions::default()).unwrap();
            let p2 = Product::new(vec![&f, &h]).unwrap();
            let e2 = Engine::new(p2, &EngineOptions::default()).unwrap();
            assert_eq!(
                choose_next(kind.build().as_mut(), &e1),
                choose_next(kind.build().as_mut(), &e2),
                "{kind}"
            );
        }
    }
}
