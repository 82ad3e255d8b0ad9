//! The interactive inference engine — the loop of the paper's Figure 2.
//!
//! The engine groups the candidate tuples of a cartesian product by their
//! signature `Θ(t)` (tuples with equal signatures are indistinguishable to
//! every join predicate), maintains the [`VersionSpace`], absorbs labels,
//! propagates them (graying out newly-certain tuples) and reports progress.
//!
//! ## Construction
//!
//! Every engine covers its whole product exactly, built one of two ways:
//! [`Engine::new`] enumerates every tuple id (up to
//! [`EngineOptions::max_product`]), and [`Engine::from_factorized`]
//! computes the same signature groups from the base relations' block
//! structure (within [`EngineOptions::max_combos`]). A product that
//! neither can open is refused with a typed error; it is never sampled.
//!
//! ## The candidate index
//!
//! Strategies rank *informative candidates*: one [`Candidate`] per
//! restricted signature `Θ(t) ∩ U`. An earlier revision rebuilt that list
//! from the full group table on every query, which made each question
//! O(groups × simulations) for the lookahead family. The engine now keeps
//! an **incrementally maintained candidate index**, updated in place by
//! [`Engine::label`] and its propagation:
//!
//! * a **negative** label leaves `U` untouched, so restricted signatures
//!   are stable — candidates subsumed by the new negative are dropped
//!   whole, in O(candidates) subset tests;
//! * a **positive** label shrinks `U`, so the aggregation is re-keyed —
//!   but only over the groups that were still informative (certainty is
//!   monotone under consistent labels), once per label rather than once
//!   per strategy query.
//!
//! Strategies consume the index through the borrowed, allocation-free
//! [`CandidateView`] ([`Engine::candidates`]) and score hypothetical
//! labels with [`Engine::simulate_in`] against a reusable [`SimScratch`].
//! Every mutation bumps a generation counter ([`Engine::generation`]) so
//! callers (e.g. the server's per-session question cache) can detect
//! staleness cheaply. [`Engine::recompute_candidates`] keeps the old
//! from-scratch reclassification as the reference implementation the
//! property tests compare against.

use crate::atoms::{AtomScope, AtomUniverse};
use crate::bitset::{AtomSet, PackedAtomSets};
use crate::error::{InferenceError, Result};
use crate::label::Label;
use crate::predicate::JoinPredicate;
use crate::stats::{InteractionRecord, ProgressStats};
use crate::version_space::{TupleClass, VersionSpace};
use jim_relation::{Product, ProductId, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Construction options for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Which attribute pairs are candidate atoms.
    pub scope: AtomScope,
    /// Refuse to enumerate products larger than this; open them with
    /// [`Engine::from_factorized`] instead. Default: 5,000,000.
    pub max_product: u64,
    /// Sweep budget for [`Engine::from_factorized`]: the most sweep work
    /// factorization may do (see `jim_relation::FactorizeOptions::max_sweep`)
    /// before giving up with [`InferenceError::FactorizationTooLarge`]; the
    /// sweep counts as it goes, so giving up costs at most this much.
    /// Default: 4,000,000.
    pub max_combos: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            scope: AtomScope::CrossRelation,
            max_product: 5_000_000,
            max_combos: 4_000_000,
        }
    }
}

/// How a signature group's member tuples are represented.
///
/// Enumerated construction ([`Engine::new`]) stores every member id;
/// factorized construction ([`Engine::from_factorized`]) never materializes
/// the product, so a group carries only its exact cardinality plus a
/// bounded sample of witness ids.
/// Strategies and stats only ever consume `count()` and `rep()`, so both
/// representations drive inference identically.
#[derive(Debug, Clone)]
enum GroupMembers {
    /// Every member id, in rank order.
    Explicit(Vec<ProductId>),
    /// Exact cardinality plus up to `max_witnesses` member ids (ascending;
    /// `witnesses[0]` is the group minimum).
    Counted {
        count: u64,
        witnesses: Vec<ProductId>,
    },
}

impl GroupMembers {
    fn count(&self) -> u64 {
        match self {
            GroupMembers::Explicit(ids) => ids.len() as u64,
            GroupMembers::Counted { count, .. } => *count,
        }
    }

    /// The canonical representative: the first member id. Construction
    /// feeds ids in ascending rank order in every mode, so this is the
    /// group minimum.
    fn rep(&self) -> ProductId {
        match self {
            GroupMembers::Explicit(ids) => ids[0],
            GroupMembers::Counted { witnesses, .. } => witnesses[0],
        }
    }

    /// The enumerable member ids: all of them when explicit, the carried
    /// witness sample when counted.
    fn witnesses(&self) -> &[ProductId] {
        match self {
            GroupMembers::Explicit(ids) => ids,
            GroupMembers::Counted { witnesses, .. } => witnesses,
        }
    }

    fn push(&mut self, id: ProductId) {
        match self {
            GroupMembers::Explicit(ids) => ids.push(id),
            // Counted groups are built whole by `from_factorized` and never
            // grow.
            GroupMembers::Counted { .. } => unreachable!("counted groups never take ids"),
        }
    }
}

/// One signature group: all candidate tuples sharing `Θ(t)`.
#[derive(Debug, Clone)]
struct Group {
    /// The full (unrestricted) signature — immutable for the whole run.
    sig: AtomSet,
    /// The product tuples carrying this signature.
    members: GroupMembers,
    /// Current classification under the version space.
    class: TupleClass,
    /// Tuples of this group explicitly labeled by the user.
    labeled: u64,
}

impl Group {
    fn count(&self) -> u64 {
        self.members.count()
    }
}

/// What a label did to the instance (returned by [`Engine::label`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelOutcome {
    /// Whether the labeled tuple was informative (a strategy-driven session
    /// only ever labels informative tuples; free-form users may not).
    pub was_informative: bool,
    /// Tuples that this label made certain (newly grayed out), including
    /// the labeled tuple itself.
    pub pruned: u64,
    /// Informative tuples remaining after propagation.
    pub informative_remaining: u64,
    /// True iff inference is complete (no informative tuple remains).
    pub resolved: bool,
}

/// What a whole answer batch did to the instance (returned by
/// [`Engine::label_batch`]). The batch shares **one** candidate-index
/// maintenance pass and one generation bump, so per-label attribution is
/// deliberately absent — the counters describe the batch as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Labels actually applied (duplicate ids with equal labels collapse
    /// to one application).
    pub applied: u64,
    /// How many applied labels were informative **at the start of the
    /// batch**. Batch semantics follow the paper's top-k mode: the user
    /// answers every proposed tuple before anything propagates, so
    /// informativeness is judged against the state the batch was proposed
    /// from, not against sibling answers inside the same batch.
    pub informative_labels: u64,
    /// Tuples the batch made certain (newly grayed out), including the
    /// labeled tuples themselves.
    pub pruned: u64,
    /// Informative tuples remaining after the single propagation pass.
    pub informative_remaining: u64,
    /// True iff inference is complete (no informative tuple remains).
    pub resolved: bool,
}

/// A view of one informative candidate offered to strategies: the signature
/// restricted to the current `U`, the number of tuples carrying it, and a
/// representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// `Θ(t) ∩ U` — all tuples with this restricted signature are
    /// interchangeable.
    pub restricted_sig: AtomSet,
    /// Number of product tuples in this equivalence class.
    pub count: u64,
    /// A representative tuple id (the one a session would display).
    pub representative: ProductId,
}

/// A borrowed, allocation-free view of the engine's maintained candidate
/// index — what strategies rank instead of materializing their own list.
/// The `generation` identifies the engine state the slice reflects; any
/// label invalidates it (the borrow checker enforces that
/// locally, the counter lets owned caches detect it across requests).
#[derive(Debug, Clone, Copy)]
pub struct CandidateView<'a> {
    candidates: &'a [Candidate],
    generation: u64,
}

impl<'a> CandidateView<'a> {
    /// The informative candidates, one per restricted signature, in
    /// first-seen group order. Empty iff inference is resolved.
    pub fn candidates(&self) -> &'a [Candidate] {
        self.candidates
    }

    /// The engine generation this view was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of distinct informative candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True iff no informative candidate remains (resolved).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Iterate the candidates.
    pub fn iter(&self) -> std::slice::Iter<'a, Candidate> {
        self.candidates.iter()
    }

    /// Total informative tuples across all candidates.
    pub fn total_tuples(&self) -> u64 {
        self.candidates.iter().map(|c| c.count).sum()
    }
}

/// Reusable scratch for [`Engine::simulate_in`]: one intersection buffer
/// sized to the atom universe, so the per-candidate inner loop of the
/// lookahead strategies allocates nothing.
#[derive(Debug, Clone)]
pub struct SimScratch {
    inter: AtomSet,
}

/// The incrementally maintained partition of signature groups by
/// [`TupleClass`], aggregated by restricted signature (see module docs).
/// `candidates` and `members` are parallel: `members[i]` lists the group
/// indices whose restricted signature is `candidates[i].restricted_sig`.
#[derive(Debug, Clone, Default)]
struct CandidateIndex {
    candidates: Vec<Candidate>,
    members: Vec<Vec<usize>>,
    /// Bumped on every engine mutation (every label batch).
    generation: u64,
    /// Total tuples across informative groups (= `stats.informative`).
    informative_tuples: u64,
}

impl CandidateIndex {
    fn clear(&mut self) {
        self.candidates.clear();
        self.members.clear();
        self.informative_tuples = 0;
    }

    /// Merge one informative group (with the given restricted signature)
    /// into the aggregation, preserving first-seen candidate order.
    /// `slots` maps each restricted signature seen so far in this rebuild
    /// to its candidate slot.
    fn add_group(
        &mut self,
        slots: &mut HashMap<AtomSet, usize>,
        g: usize,
        restricted: &AtomSet,
        count: u64,
        rep: ProductId,
    ) {
        self.informative_tuples += count;
        match slots.get(restricted) {
            Some(&slot) => {
                let c = &mut self.candidates[slot];
                c.count += count;
                if rep < c.representative {
                    c.representative = rep;
                }
                self.members[slot].push(g);
            }
            None => {
                slots.insert(restricted.clone(), self.candidates.len());
                self.candidates.push(Candidate {
                    restricted_sig: restricted.clone(),
                    count,
                    representative: rep,
                });
                self.members.push(vec![g]);
            }
        }
    }
}

/// Where a product id's signature falls among the signature groups.
enum Slot<'s> {
    /// An existing group, by index.
    Known(usize),
    /// No group has this signature yet (borrowed from the sweep; clone it
    /// to open the group).
    New(&'s AtomSet),
}

/// The per-id signature sweep behind enumerated construction
/// ([`Engine::new`]) and id lookups. It computes exactly
/// `universe.signature(&product.tuple(id)?)`, errors included, without
/// building the tuple: the id decodes into one reused row-index buffer,
/// the component rows' values are borrowed into one reused buffer in
/// tuple order, each atom compares two of them with `Value`'s own `==`
/// (so `Null == Null`, floats by `total_cmp`) into one reused
/// [`AtomSet`], and the group map is probed by reference. Nothing is
/// allocated per tuple; a signature is cloned only to open a new group.
struct SignatureSweep<'a> {
    universe: &'a AtomUniverse,
    product: &'a Product,
    rows: Vec<usize>,
    values: Vec<&'a Value>,
    sig: AtomSet,
    /// The signature and group of the last id found in an existing group.
    /// Neighbouring ids often share a group (in rank order only the last
    /// relation's row changes), and comparing two sets is much cheaper
    /// than hashing one.
    last_sig: AtomSet,
    last_group: Option<usize>,
}

impl<'a> SignatureSweep<'a> {
    fn new(universe: &'a AtomUniverse, product: &'a Product) -> Self {
        debug_assert_eq!(product.schema(), universe.schema());
        SignatureSweep {
            universe,
            product,
            rows: Vec::new(),
            values: Vec::new(),
            sig: universe.empty_set(),
            last_sig: universe.empty_set(),
            last_group: None,
        }
    }

    /// Compute `Θ(t)` for the tuple behind `id` and find its group.
    fn slot(&mut self, by_sig: &HashMap<AtomSet, usize>, id: ProductId) -> Result<Slot<'_>> {
        let product = self.product;
        product.decode_into(id, &mut self.rows)?;
        self.values.clear();
        for (&row, relation) in self.rows.iter().zip(product.relations()) {
            self.values.extend(relation.rows()[row].values());
        }
        self.sig.clear();
        for (i, atom) in self.universe.atoms().iter().enumerate() {
            if self.values[atom.a.index()] == self.values[atom.b.index()] {
                self.sig.insert(i);
            }
        }
        if let Some(g) = self.last_group.filter(|_| self.last_sig == self.sig) {
            return Ok(Slot::Known(g));
        }
        match by_sig.get(&self.sig) {
            Some(&g) => {
                std::mem::swap(&mut self.sig, &mut self.last_sig);
                self.last_group = Some(g);
                Ok(Slot::Known(g))
            }
            None => Ok(Slot::New(&self.sig)),
        }
    }
}

/// The interactive join-inference engine.
#[derive(Debug, Clone)]
pub struct Engine {
    product: Product,
    universe: Arc<AtomUniverse>,
    vs: VersionSpace,
    groups: Vec<Group>,
    by_sig: HashMap<AtomSet, usize>,
    labels: HashMap<ProductId, Label>,
    stats: ProgressStats,
    index: CandidateIndex,
    /// True iff this engine was built by [`Engine::from_factorized`]: every
    /// group is [`GroupMembers::Counted`] and covers the *whole* product.
    factorized: bool,
}

impl Engine {
    /// Build an engine over the full cartesian product of `product` by
    /// enumerating it: every id in `0..product.size()` is swept into its
    /// signature group. Fails with [`InferenceError::ProductTooLarge`]
    /// past [`EngineOptions::max_product`]; such a product is opened by
    /// [`Engine::from_factorized`] or not at all.
    pub fn new(product: Product, options: &EngineOptions) -> Result<Self> {
        if product.size() > options.max_product {
            return Err(InferenceError::ProductTooLarge {
                size: product.size(),
                limit: options.max_product,
            });
        }
        let universe = AtomUniverse::new(product.schema().clone(), options.scope)?;
        let vs = VersionSpace::new(universe.clone());

        let mut groups: Vec<Group> = Vec::new();
        let mut by_sig: HashMap<AtomSet, usize> = HashMap::new();
        let mut sweep = SignatureSweep::new(&universe, &product);
        for id in (0..product.size()).map(ProductId) {
            match sweep.slot(&by_sig, id)? {
                Slot::Known(g) => groups[g].members.push(id),
                Slot::New(sig) => {
                    let class = vs.classify(sig);
                    by_sig.insert(sig.clone(), groups.len());
                    groups.push(Group {
                        sig: sig.clone(),
                        members: GroupMembers::Explicit(vec![id]),
                        class,
                        labeled: 0,
                    });
                }
            }
        }

        Ok(Engine::from_groups(
            product, universe, vs, groups, by_sig, false,
        ))
    }

    /// Assemble an engine over the whole of `product` from its signature
    /// groups, and index them.
    fn from_groups(
        product: Product,
        universe: Arc<AtomUniverse>,
        vs: VersionSpace,
        groups: Vec<Group>,
        by_sig: HashMap<AtomSet, usize>,
        factorized: bool,
    ) -> Self {
        let mut engine = Engine {
            stats: ProgressStats {
                total_tuples: product.size(),
                ..Default::default()
            },
            product,
            universe,
            vs,
            groups,
            by_sig,
            labels: HashMap::new(),
            index: CandidateIndex::default(),
            factorized,
        };
        let all: Vec<usize> = (0..engine.groups.len()).collect();
        engine.reindex(&all);
        engine.refresh_counters();
        engine
    }

    /// Build an engine over the **full** cartesian product without ever
    /// materializing it: the signature-group partition is computed directly
    /// from the base relations by [`jim_relation::factorize`], so build cost
    /// scales with the relations' block structure rather than with
    /// `product.size()`. Groups carry exact counts plus a bounded sample of
    /// witness ids; candidates, strategies and progress statistics behave
    /// exactly as if every tuple had been enumerated (the equivalence is
    /// property-tested against [`Engine::new`]).
    ///
    /// The product may have any number of occurrences, and any size: a
    /// product small enough for [`Engine::new`] may still be cheaper to
    /// factorize when its relations collapse to few blocks.
    ///
    /// Fails with [`InferenceError::FactorizationTooLarge`] as soon as the
    /// block sweep passes [`EngineOptions::max_combos`]; the caller then
    /// enumerates a product within [`EngineOptions::max_product`], and
    /// refuses one beyond it.
    pub fn from_factorized(product: Product, options: &EngineOptions) -> Result<Self> {
        let universe = AtomUniverse::new(product.schema().clone(), options.scope)?;
        let vs = VersionSpace::new(universe.clone());
        let fopts = jim_relation::FactorizeOptions {
            cross_only: options.scope == AtomScope::CrossRelation,
            max_sweep: options.max_combos,
            ..Default::default()
        };
        let factorized = jim_relation::factorize(&product, &fopts).map_err(|e| match e {
            // Under matching scope the joinable pairs are exactly the
            // universe's atoms, so this arm is unreachable after a
            // successful universe build; map it defensively.
            jim_relation::FactorizeError::NoJoinablePairs => InferenceError::EmptyUniverse,
            jim_relation::FactorizeError::SweepTooLarge { cost, limit } => {
                InferenceError::FactorizationTooLarge { cost, limit }
            }
        })?;

        let mut groups: Vec<Group> = Vec::with_capacity(factorized.groups.len());
        let mut by_sig: HashMap<AtomSet, usize> = HashMap::with_capacity(factorized.groups.len());
        for sg in factorized.groups {
            let sig = universe.set_of(sg.pattern.iter().map(|&(a, b)| {
                universe
                    .id_of(a, b)
                    .expect("factorized patterns range over universe atoms")
            }));
            #[cfg(debug_assertions)]
            {
                let witness = product.tuple(sg.min_id)?;
                debug_assert_eq!(
                    sig,
                    universe.signature(&witness),
                    "factorized pattern disagrees with the witness signature"
                );
            }
            let class = vs.classify(&sig);
            let prev = by_sig.insert(sig.clone(), groups.len());
            debug_assert!(prev.is_none(), "factorized groups have distinct patterns");
            groups.push(Group {
                sig,
                members: GroupMembers::Counted {
                    count: sg.count,
                    witnesses: sg.witnesses,
                },
                class,
                labeled: 0,
            });
        }

        Ok(Engine::from_groups(
            product, universe, vs, groups, by_sig, true,
        ))
    }

    /// The product being inferred over.
    pub fn product(&self) -> &Product {
        &self.product
    }

    /// The shared atom universe.
    pub fn universe(&self) -> &Arc<AtomUniverse> {
        &self.universe
    }

    /// The current version space.
    pub fn version_space(&self) -> &VersionSpace {
        &self.vs
    }

    /// Progress statistics (the demo UI's counters).
    pub fn stats(&self) -> &ProgressStats {
        &self.stats
    }

    /// Number of distinct signatures observed in the instance.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// True iff this engine was built by [`Engine::from_factorized`]:
    /// groups carry exact counts plus witness samples, and together they
    /// cover the entire product at full fidelity.
    pub fn is_factorized(&self) -> bool {
        self.factorized
    }

    /// The label previously given to `id`, if any.
    pub fn label_of(&self, id: ProductId) -> Option<Label> {
        self.labels.get(&id).copied()
    }

    /// Classify a tuple id under the current labels.
    pub fn classify(&self, id: ProductId) -> Result<TupleClass> {
        let g = self.group_of(id)?;
        Ok(self.groups[g].class)
    }

    /// True iff labeling `id` could still narrow the version space.
    pub fn is_informative(&self, id: ProductId) -> Result<bool> {
        Ok(self.classify(id)? == TupleClass::Informative && !self.labels.contains_key(&id))
    }

    /// True iff no informative tuple remains — the paper's termination
    /// condition (all consistent predicates are instance-equivalent).
    pub fn is_resolved(&self) -> bool {
        self.index.candidates.is_empty()
    }

    /// The generation counter of the candidate index: bumped on every
    /// mutation (every label batch), untouched by queries. Owned caches keyed
    /// on it (the server's per-session question cache) stay valid exactly
    /// while the engine state they were computed from does.
    pub fn generation(&self) -> u64 {
        self.index.generation
    }

    /// The inferred query: the canonical (maximal) consistent predicate.
    /// Meaningful once [`Engine::is_resolved`] returns true, but callable at
    /// any time (it is the most specific hypothesis consistent so far).
    pub fn result(&self) -> JoinPredicate {
        self.vs.canonical()
    }

    /// Every tuple id entailed positive at the moment — the inferred join
    /// result on this instance (labeled positives + certain positives).
    /// On a factorized engine the full member lists are not materialized,
    /// so this returns the entailed-positive *witnesses* (evaluate
    /// [`Engine::result`] against the product for the full join result).
    pub fn entailed_positive_ids(&self) -> Vec<ProductId> {
        let mut out = Vec::new();
        for g in &self.groups {
            if g.class == TupleClass::CertainPositive {
                out.extend_from_slice(g.members.witnesses());
            }
        }
        out.sort();
        out
    }

    /// The maintained informative candidates, one per *restricted*
    /// signature (`Θ(t) ∩ U`), as a borrowed view — O(1), no allocation.
    /// This is the interface strategies choose from; an empty view means
    /// resolved.
    pub fn candidates(&self) -> CandidateView<'_> {
        CandidateView {
            candidates: &self.index.candidates,
            generation: self.index.generation,
        }
    }

    /// Rebuild the candidate list by reclassifying **every** group from
    /// scratch against the version space — the de-materialized hot path's
    /// reference implementation. Property tests assert it always equals
    /// [`Engine::candidates`]; the criterion bench measures what keeping
    /// the index incremental buys. Never called on the per-question path.
    pub fn recompute_candidates(&self) -> Vec<Candidate> {
        let mut agg: HashMap<AtomSet, (u64, ProductId)> = HashMap::new();
        let mut order: Vec<AtomSet> = Vec::new();
        for g in &self.groups {
            if self.vs.classify(&g.sig) != TupleClass::Informative {
                continue;
            }
            let restricted = self.vs.restrict(&g.sig);
            match agg.get_mut(&restricted) {
                Some(entry) => {
                    entry.0 += g.count();
                    // Keep the smallest representative for determinism.
                    if g.members.rep() < entry.1 {
                        entry.1 = g.members.rep();
                    }
                }
                None => {
                    agg.insert(restricted.clone(), (g.count(), g.members.rep()));
                    order.push(restricted);
                }
            }
        }
        order
            .into_iter()
            .map(|sig| {
                let (count, rep) = agg[&sig];
                Candidate {
                    restricted_sig: sig,
                    count,
                    representative: rep,
                }
            })
            .collect()
    }

    /// A scratch buffer for [`Engine::simulate_in`], sized to this
    /// engine's atom universe.
    pub fn sim_scratch(&self) -> SimScratch {
        SimScratch {
            inter: self.universe.empty_set(),
        }
    }

    /// How many tuples would become certain if a tuple with the given
    /// *restricted* signature were labeled `(positive, negative)` — the
    /// one-step lookahead the paper's lookahead strategies score
    /// ("labeling which tuple allows us to prune as many tuples as
    /// possible?"). Counts include the labeled tuple's own group. Both
    /// branches are computed without mutating the engine, directly over
    /// the maintained index.
    pub fn simulate(&self, restricted_sig: &AtomSet) -> (u64, u64) {
        let mut scratch = self.sim_scratch();
        self.simulate_in(restricted_sig, &mut scratch)
    }

    /// [`Engine::simulate`] with a caller-provided scratch, so a strategy
    /// scoring every candidate reuses one buffer across the whole sweep.
    pub fn simulate_in(&self, restricted_sig: &AtomSet, scratch: &mut SimScratch) -> (u64, u64) {
        let mut pruned_pos = 0u64;
        let mut pruned_neg = 0u64;
        for c in &self.index.candidates {
            let r = &c.restricted_sig;
            // Positive branch: U' = restricted_sig. Tuple class of r under
            // (U', negs): certain-positive iff U' ⊆ r; certain-negative iff
            // r ∩ U' ⊆ n for some n.
            r.intersection_into(restricted_sig, &mut scratch.inter);
            let becomes_pos = restricted_sig.is_subset(r);
            let becomes_neg = self.vs.any_negative_contains(&scratch.inter);
            if becomes_pos || becomes_neg {
                pruned_pos += c.count;
            }
            // Negative branch: negs' = negs ∪ {restricted_sig}.
            if r.is_subset(restricted_sig) {
                pruned_neg += c.count;
            }
        }
        (pruned_pos, pruned_neg)
    }

    /// Absorb a user label for tuple `id` and propagate it (gray out every
    /// tuple whose class becomes certain). The 1-element special case of
    /// [`Engine::label_batch`].
    pub fn label(&mut self, id: ProductId, label: Label) -> Result<LabelOutcome> {
        let outcome = self.label_batch(&[(id, label)])?;
        Ok(LabelOutcome {
            was_informative: outcome.informative_labels == 1,
            pruned: outcome.pruned,
            informative_remaining: outcome.informative_remaining,
            resolved: outcome.resolved,
        })
    }

    /// Absorb a whole batch of user labels (the unit of work of the
    /// paper's top-k mode and the wire protocol's `AnswerBatch`) and
    /// propagate them in **one** pass.
    ///
    /// The batch is applied atomically: every entry is validated up front
    /// (an unknown id, an id labeled in an earlier interaction, or the
    /// same id carrying both labels rejects the batch with a typed error)
    /// and the version-space updates are trialed on a copy (an entry whose
    /// label contradicts the rest rejects the batch too) — on any error
    /// the engine is untouched. Duplicate ids with equal labels collapse
    /// to one application.
    ///
    /// On success the candidate index is maintained with a **single**
    /// pass — one re-key of the previously-informative groups when any
    /// label was positive, otherwise one sweep against the new negative
    /// antichain — and the generation counter is bumped **once**, so a
    /// k-label batch costs one propagation instead of k.
    pub fn label_batch(&mut self, labels: &[(ProductId, Label)]) -> Result<BatchOutcome> {
        // Stage 1 — validate the whole batch up front, touching nothing.
        let mut entries: Vec<(ProductId, Label, usize)> = Vec::with_capacity(labels.len());
        let mut batch_label: HashMap<ProductId, Label> = HashMap::with_capacity(labels.len());
        for &(id, label) in labels {
            if self.labels.contains_key(&id) {
                return Err(InferenceError::AlreadyLabeled { tuple: id });
            }
            let g = self.group_of(id)?;
            match batch_label.insert(id, label) {
                None => entries.push((id, label, g)),
                Some(prev) if prev == label => {}
                Some(_) => return Err(InferenceError::ConflictingBatchLabels { tuple: id }),
            }
        }
        if entries.is_empty() {
            return Ok(BatchOutcome {
                applied: 0,
                informative_labels: 0,
                pruned: 0,
                informative_remaining: self.stats.informative,
                resolved: self.is_resolved(),
            });
        }

        // Stage 2 — apply every version-space update, in batch order, so
        // an inconsistent entry anywhere rejects atomically. A single
        // entry updates in place (`add_positive`/`add_negative` validate
        // before mutating, so the 1-element case is already atomic — no
        // trial clone on the one-label-per-question hot path); a larger
        // batch trials the updates on a copy first.
        let mut any_positive = false;
        if let [(id, label, g)] = entries[..] {
            let sig = &self.groups[g].sig;
            match label {
                Label::Positive => {
                    self.vs.add_positive(id, sig)?;
                    any_positive = true;
                }
                Label::Negative => self.vs.add_negative(id, sig)?,
            }
        } else {
            let mut vs = self.vs.clone();
            for &(id, label, g) in &entries {
                let sig = &self.groups[g].sig;
                match label {
                    Label::Positive => {
                        vs.add_positive(id, sig)?;
                        any_positive = true;
                    }
                    Label::Negative => vs.add_negative(id, sig)?,
                }
            }
            self.vs = vs;
        }

        // Stage 3 — commit: record the labels (informativeness is judged
        // against the pre-batch classes, still cached on the groups).
        let before_informative = self.index.informative_tuples;
        let mut informative = Vec::with_capacity(entries.len());
        for &(id, label, g) in &entries {
            informative.push(self.groups[g].class == TupleClass::Informative);
            self.labels.insert(id, label);
            self.groups[g].labeled += 1;
            match label {
                Label::Positive => self.stats.labeled_positive += 1,
                Label::Negative => self.stats.labeled_negative += 1,
            }
        }

        // Stage 4 — one candidate-index maintenance pass for the batch.
        if any_positive {
            // `U` shrank: restricted signatures are re-keyed, but only the
            // groups that were still informative can change class.
            let mut alive: Vec<usize> = self.index.members.iter().flatten().copied().collect();
            alive.sort_unstable();
            self.reindex(&alive);
        } else {
            // `U` unchanged: restricted signatures are stable, and a
            // previously-informative candidate can only have flipped to
            // certain-negative via one of *this batch's* negatives — the
            // older antichain entries already cleared every survivor, so
            // the sweep tests the fresh restrictions only.
            let new_negs: Vec<AtomSet> = entries
                .iter()
                .map(|&(_, _, g)| self.vs.restrict(&self.groups[g].sig))
                .collect();
            self.drop_subsumed_candidates(&new_negs);
        }

        // Stage 5 — one generation bump, then the progress accounting.
        let pruned = before_informative.saturating_sub(self.index.informative_tuples);
        self.index.generation += 1;
        self.refresh_counters();
        let outcome = BatchOutcome {
            applied: entries.len() as u64,
            informative_labels: informative.iter().filter(|&&i| i).count() as u64,
            pruned,
            informative_remaining: self.stats.informative,
            resolved: self.is_resolved(),
        };
        // One log record per applied label; the batch's prune count is not
        // attributable per label (propagation was shared), so the final
        // record of the batch carries the total.
        let last = entries.len() - 1;
        for (i, &(id, label, _)) in entries.iter().enumerate() {
            self.stats.log.push(InteractionRecord {
                tuple: id,
                label,
                informative: informative[i],
                pruned: if i == last { pruned } else { 0 },
            });
        }
        Ok(outcome)
    }

    /// Rebuild the aggregation over the given group indices (ascending, so
    /// candidate order stays the deterministic first-seen group order),
    /// reclassifying each against the current version space and updating
    /// its cached class. Groups outside `alive` keep their class — used
    /// with the previously-informative set after a positive label, and
    /// with all groups at construction.
    fn reindex(&mut self, alive: &[usize]) {
        self.index.clear();
        let mut slots = HashMap::new();
        // One scratch set: classification and the candidate re-key both
        // need `sig ∩ U`, so compute the intersection once per group.
        let mut restricted = self.universe.empty_set();
        for &g in alive {
            let group = &mut self.groups[g];
            group.class = self
                .vs
                .classify_restricted_into(&group.sig, &mut restricted);
            if group.class != TupleClass::Informative {
                continue;
            }
            let (count, rep) = (group.count(), group.members.rep());
            self.index.add_group(&mut slots, g, &restricted, count, rep);
        }
    }

    /// Drop every candidate whose restricted signature is subsumed by one
    /// of the freshly-added negatives (sound after negative-only updates:
    /// `U` is unchanged, so a previously-informative candidate can only
    /// have become certain-**negative**, and only via a fresh negative —
    /// the older antichain entries already cleared every survivor),
    /// marking its member groups certain-negative. Candidate order among
    /// survivors is preserved, and nothing is re-hashed or re-cloned.
    fn drop_subsumed_candidates(&mut self, new_negs: &[AtomSet]) {
        // Pack both sides row-major so the whole antichain sweep runs over
        // contiguous rows — no per-candidate pointer chase.
        let nbits = self.universe.len();
        let mut rows = PackedAtomSets::with_capacity(nbits, self.index.candidates.len());
        rows.extend(self.index.candidates.iter().map(|c| &c.restricted_sig));
        let mut negs = PackedAtomSets::with_capacity(nbits, new_negs.len());
        negs.extend(new_negs.iter());
        let mut subsumed = Vec::new();
        rows.subsumed_mask(&negs, &mut subsumed);
        let keep: Vec<bool> = subsumed.iter().map(|&s| !s).collect();
        if keep.iter().all(|&k| k) {
            return;
        }
        for (slot, &k) in keep.iter().enumerate() {
            if k {
                continue;
            }
            self.index.informative_tuples -= self.index.candidates[slot].count;
            for g in std::mem::take(&mut self.index.members[slot]) {
                self.groups[g].class = TupleClass::CertainNegative;
            }
        }
        let mut i = 0;
        self.index.candidates.retain(|_| {
            i += 1;
            keep[i - 1]
        });
        let mut i = 0;
        self.index.members.retain(|_| {
            i += 1;
            keep[i - 1]
        });
    }

    /// Tuple ids currently *visible* to a free-form user: everything not
    /// yet explicitly labeled, and — when `gray_out` — not entailed either.
    /// (Interaction modes 1 and 2 of Figure 3.) A factorized engine shows
    /// each group's witness sample instead of the unmaterialized full
    /// member list.
    pub fn visible_ids(&self, gray_out: bool) -> Vec<ProductId> {
        let mut out = Vec::new();
        for g in &self.groups {
            if gray_out && g.class.is_certain() {
                continue;
            }
            for &id in g.members.witnesses() {
                if !self.labels.contains_key(&id) {
                    out.push(id);
                }
            }
        }
        out.sort();
        out
    }

    /// Check that a goal predicate is still consistent with every label
    /// absorbed so far (the soundness invariant: the true goal can never be
    /// eliminated by correct answers).
    pub fn consistent_with(&self, goal: &JoinPredicate) -> bool {
        self.vs.is_consistent(goal.atoms())
    }

    fn group_of(&self, id: ProductId) -> Result<usize> {
        match SignatureSweep::new(&self.universe, &self.product).slot(&self.by_sig, id)? {
            Slot::Known(g) => Ok(g),
            Slot::New(_) => Err(InferenceError::UnknownTuple { tuple: id }),
        }
    }

    fn refresh_counters(&mut self) {
        let labeled = self.labels.len() as u64;
        let certain = self
            .stats
            .total_tuples
            .saturating_sub(self.index.informative_tuples);
        self.stats.pruned = certain.saturating_sub(labeled);
        self.stats.informative = self.index.informative_tuples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jim_relation::{tup, DataType, Relation, RelationSchema};

    /// The session-store contract: an engine is a self-contained value that
    /// can be kept in a concurrent map and handled by any worker thread.
    #[test]
    fn engine_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Product>();
        assert_send_sync::<crate::session::SessionOutcome>();
    }

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

    fn engine(f: &Relation, h: &Relation) -> Engine {
        let p = Product::new(vec![f, h]).unwrap();
        Engine::new(p, &EngineOptions::default()).unwrap()
    }

    /// Paper tuple (k), 1-based, to rank.
    fn t(k: u64) -> ProductId {
        ProductId(k - 1)
    }

    #[test]
    fn builds_signature_groups() {
        let (f, h) = (flights(), hotels());
        let e = engine(&f, &h);
        // Signatures in Figure 1: ∅ ×3 (tuples 1,5,9), {FC} ×3 (2,6,11),
        // {TC,AD} ×2 (3,4), {FC,AD} ×1 (7), {TC} ×2 (8,10), {AD} ×1 (12).
        assert_eq!(e.num_groups(), 6);
        assert_eq!(e.stats().total_tuples, 12);
        assert_eq!(e.stats().informative, 12);
    }

    #[test]
    fn paper_example_tuple4_uninformative_after_3_positive() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        assert!(e.is_informative(t(3)).unwrap());
        let out = e.label(t(3), Label::Positive).unwrap();
        assert!(out.was_informative);
        // Tuple (4) has the same signature as (3): certain-positive now.
        assert_eq!(e.classify(t(4)).unwrap(), TupleClass::CertainPositive);
        assert!(!e.is_informative(t(4)).unwrap());
    }

    #[test]
    fn paper_example_label_12_positive_prunes_3_4_7() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let out = e.label(t(12), Label::Positive).unwrap();
        // Pruned tuples: (3), (4), (7) — plus the labeled (12) itself.
        assert_eq!(out.pruned, 4);
        for k in [3, 4, 7] {
            assert_eq!(
                e.classify(t(k)).unwrap(),
                TupleClass::CertainPositive,
                "tuple {k}"
            );
        }
        for k in [1, 2, 5, 6, 8, 9, 10, 11] {
            assert_eq!(
                e.classify(t(k)).unwrap(),
                TupleClass::Informative,
                "tuple {k}"
            );
        }
    }

    #[test]
    fn paper_example_label_12_negative_prunes_1_5_9() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let out = e.label(t(12), Label::Negative).unwrap();
        assert_eq!(out.pruned, 4); // (1),(5),(9) + (12) itself
        for k in [1, 5, 9] {
            assert_eq!(
                e.classify(t(k)).unwrap(),
                TupleClass::CertainNegative,
                "tuple {k}"
            );
        }
        for k in [2, 3, 4, 6, 7, 8, 10, 11] {
            assert_eq!(
                e.classify(t(k)).unwrap(),
                TupleClass::Informative,
                "tuple {k}"
            );
        }
    }

    #[test]
    fn paper_termination_with_three_labels() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        e.label(t(3), Label::Positive).unwrap();
        e.label(t(7), Label::Negative).unwrap();
        let out = e.label(t(8), Label::Negative).unwrap();
        assert!(out.resolved);
        assert!(e.is_resolved());
        // The unique consistent predicate is Q2 = To≍City ∧ Airline≍Discount.
        let result = e.result();
        assert_eq!(
            result.to_string(),
            "flights.To ≍ hotels.City ∧ flights.Airline ≍ hotels.Discount"
        );
        // And it selects exactly tuples (3),(4).
        assert_eq!(e.entailed_positive_ids(), vec![t(3), t(4)]);
    }

    #[test]
    fn simulate_matches_paper_prune_counts() {
        let (f, h) = (flights(), hotels());
        let e = engine(&f, &h);
        // Tuple (12) has signature {AD}; from the empty state its restricted
        // signature is itself.
        let tuple12 = e.product().tuple(t(12)).unwrap();
        let sig12 = e.universe().signature(&tuple12);
        let (pos, neg) = e.simulate(&sig12);
        // Positive: prunes (3),(4),(7),(12) -> 4; negative: (1),(5),(9),(12) -> 4.
        assert_eq!((pos, neg), (4, 4));
    }

    #[test]
    fn simulate_agrees_with_actual_labeling() {
        let (f, h) = (flights(), hotels());
        let e = engine(&f, &h);
        for c in e.candidates().candidates().to_vec() {
            let (pos, neg) = e.simulate(&c.restricted_sig);
            let mut e_pos = e.clone();
            let out = e_pos.label(c.representative, Label::Positive).unwrap();
            assert_eq!(out.pruned, pos, "positive branch of {:?}", c.restricted_sig);
            let mut e_neg = e.clone();
            let out = e_neg.label(c.representative, Label::Negative).unwrap();
            assert_eq!(out.pruned, neg, "negative branch of {:?}", c.restricted_sig);
        }
    }

    #[test]
    fn inconsistent_label_is_rejected_and_state_unchanged() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        e.label(t(3), Label::Positive).unwrap();
        let before = e.stats().clone();
        // (4) is certain-positive; labeling it negative is inconsistent.
        let err = e.label(t(4), Label::Negative);
        assert!(matches!(err, Err(InferenceError::InconsistentLabel { .. })));
        assert_eq!(e.stats(), &before);
        // But labeling it positive is fine (wasted yet consistent).
        let out = e.label(t(4), Label::Positive).unwrap();
        assert!(!out.was_informative);
        assert_eq!(out.pruned, 0);
        assert_eq!(e.stats().wasted_interactions(), 1);
    }

    #[test]
    fn double_label_rejected() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        e.label(t(3), Label::Positive).unwrap();
        assert!(matches!(
            e.label(t(3), Label::Positive),
            Err(InferenceError::AlreadyLabeled { .. })
        ));
    }

    #[test]
    fn visible_ids_gray_out() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        assert_eq!(e.visible_ids(false).len(), 12);
        assert_eq!(e.visible_ids(true).len(), 12);
        e.label(t(12), Label::Positive).unwrap();
        // Without gray-out the user still sees 11 unlabeled tuples; with
        // gray-out, (3),(4),(7) disappear too.
        assert_eq!(e.visible_ids(false).len(), 11);
        assert_eq!(e.visible_ids(true).len(), 8);
    }

    #[test]
    fn goal_remains_consistent_under_correct_answers() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let u = e.universe().clone();
        let tc = u.id_by_names((0, "To"), (1, "City")).unwrap();
        let ad = u.id_by_names((0, "Airline"), (1, "Discount")).unwrap();
        let goal = JoinPredicate::of(u, [tc, ad]);
        // Answer every query truthfully w.r.t. the goal.
        for k in [12u64, 8, 7, 3, 2] {
            if e.label_of(t(k)).is_some() {
                continue;
            }
            let tuple = e.product().tuple(t(k)).unwrap();
            let lbl = Label::from_bool(goal.selects(&tuple));
            e.label(t(k), lbl).unwrap();
            assert!(e.consistent_with(&goal));
        }
    }

    #[test]
    fn product_too_large_guard() {
        let (f, h) = (flights(), hotels());
        let p = Product::new(vec![&f, &h]).unwrap();
        let opts = EngineOptions {
            max_product: 5,
            ..Default::default()
        };
        assert!(matches!(
            Engine::new(p, &opts),
            Err(InferenceError::ProductTooLarge { size: 12, limit: 5 })
        ));
    }

    #[test]
    fn informative_groups_merge_after_upper_shrinks() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let before = e.candidates().len();
        assert_eq!(before, 6);
        // Labeling (12)+ sets U = {AD}; signatures {FC} and ∅ restrict to ∅
        // and merge; {TC,AD} and {FC,AD} become certain.
        e.label(t(12), Label::Positive).unwrap();
        let after = e.candidates();
        // Remaining informative restricted signatures: ∅ (from ∅, {FC}, {TC}).
        assert_eq!(after.len(), 1);
        assert_eq!(after.candidates()[0].count, 8);
    }

    /// The maintained index always equals a from-scratch reclassification,
    /// through positives and negatives.
    #[test]
    fn index_matches_recompute_through_a_session() {
        fn sorted(mut v: Vec<Candidate>) -> Vec<Candidate> {
            v.sort_by(|a, b| a.restricted_sig.cmp(&b.restricted_sig));
            v
        }
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        assert_eq!(
            sorted(e.candidates().candidates().to_vec()),
            sorted(e.recompute_candidates())
        );
        e.label(t(12), Label::Negative).unwrap();
        assert_eq!(
            sorted(e.candidates().candidates().to_vec()),
            sorted(e.recompute_candidates())
        );
        e.label(t(3), Label::Positive).unwrap();
        assert_eq!(
            sorted(e.candidates().candidates().to_vec()),
            sorted(e.recompute_candidates())
        );
    }

    /// One batch of the paper's three terminating labels: same final state
    /// as labeling one at a time, but a single generation bump.
    #[test]
    fn label_batch_resolves_paper_example_in_one_pass() {
        let (f, h) = (flights(), hotels());
        let mut batched = engine(&f, &h);
        let g0 = batched.generation();
        let out = batched
            .label_batch(&[
                (t(3), Label::Positive),
                (t(7), Label::Negative),
                (t(8), Label::Negative),
            ])
            .unwrap();
        assert_eq!(out.applied, 3);
        assert_eq!(out.informative_labels, 3);
        assert!(out.resolved);
        assert_eq!(out.informative_remaining, 0);
        assert_eq!(out.pruned, 12, "the whole instance becomes certain");
        assert_eq!(batched.generation(), g0 + 1, "one bump for the batch");

        let mut sequential = engine(&f, &h);
        sequential.label(t(3), Label::Positive).unwrap();
        sequential.label(t(7), Label::Negative).unwrap();
        sequential.label(t(8), Label::Negative).unwrap();
        assert_eq!(batched.result(), sequential.result());
        assert_eq!(batched.stats().labeled_positive, 1);
        assert_eq!(batched.stats().labeled_negative, 2);
        assert_eq!(batched.stats().interactions(), 3);
        assert_eq!(
            batched.entailed_positive_ids(),
            sequential.entailed_positive_ids()
        );
        assert_eq!(batched.recompute_candidates(), Vec::new());
    }

    /// A negative-only batch shares one antichain sweep; the maintained
    /// index still equals the from-scratch reference afterwards.
    #[test]
    fn label_batch_negative_only_matches_recompute() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let out = e
            .label_batch(&[(t(12), Label::Negative), (t(8), Label::Negative)])
            .unwrap();
        assert_eq!(out.applied, 2);
        assert!(!out.resolved);
        let mut maintained = e.candidates().candidates().to_vec();
        let mut reference = e.recompute_candidates();
        maintained.sort_by(|a, b| a.restricted_sig.cmp(&b.restricted_sig));
        reference.sort_by(|a, b| a.restricted_sig.cmp(&b.restricted_sig));
        assert_eq!(maintained, reference);
    }

    /// Every rejection leaves the engine exactly as it was: unknown id,
    /// already-labeled id, conflicting duplicate, inconsistent entry.
    #[test]
    fn label_batch_rejections_are_atomic() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        e.label(t(5), Label::Negative).unwrap();
        let before_stats = e.stats().clone();
        let before_gen = e.generation();
        let before_cands = e.candidates().candidates().to_vec();

        // An out-of-range id anywhere in the batch.
        let err = e.label_batch(&[(t(3), Label::Positive), (ProductId(99), Label::Negative)]);
        assert!(err.is_err());
        // An id labeled in an earlier interaction.
        let err = e.label_batch(&[(t(3), Label::Positive), (t(5), Label::Negative)]);
        assert!(matches!(
            err,
            Err(InferenceError::AlreadyLabeled { tuple }) if tuple == t(5)
        ));
        // The same id with both labels.
        let err = e.label_batch(&[
            (t(3), Label::Positive),
            (t(8), Label::Negative),
            (t(3), Label::Negative),
        ]);
        assert!(matches!(
            err,
            Err(InferenceError::ConflictingBatchLabels { tuple }) if tuple == t(3)
        ));
        // An entry inconsistent with a sibling: (3)+ makes (4) certain-
        // positive, so (4)− contradicts it mid-batch.
        let err = e.label_batch(&[(t(3), Label::Positive), (t(4), Label::Negative)]);
        assert!(matches!(err, Err(InferenceError::InconsistentLabel { .. })));

        assert_eq!(e.stats(), &before_stats, "stats untouched");
        assert_eq!(e.generation(), before_gen, "no generation bump");
        assert_eq!(e.candidates().candidates(), &before_cands[..]);
    }

    /// Duplicate ids with equal labels collapse to one application; the
    /// empty batch is a no-op that does not bump the generation.
    #[test]
    fn label_batch_collapses_duplicates_and_skips_empty() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let g0 = e.generation();
        let out = e.label_batch(&[]).unwrap();
        assert_eq!((out.applied, out.pruned), (0, 0));
        assert_eq!(e.generation(), g0, "empty batch keeps caches valid");

        let out = e
            .label_batch(&[(t(12), Label::Positive), (t(12), Label::Positive)])
            .unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(e.stats().interactions(), 1);
        assert_eq!(e.stats().log.len(), 1);
        assert_eq!(e.generation(), g0 + 1);
    }

    /// A batch entry a sibling makes uninformative is still applied (the
    /// paper's "user labels the whole batch" slack) and judged against the
    /// batch-start state.
    #[test]
    fn label_batch_keeps_sibling_pruned_entries() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        // (3)+ makes (4) certain-positive; labeling both in one batch is
        // consistent, applies twice, and both count as informative because
        // both were informative when the batch was proposed.
        let out = e
            .label_batch(&[(t(3), Label::Positive), (t(4), Label::Positive)])
            .unwrap();
        assert_eq!(out.applied, 2);
        assert_eq!(out.informative_labels, 2);
        assert_eq!(e.stats().interactions(), 2);
        let mut sequential = engine(&f, &h);
        sequential.label(t(3), Label::Positive).unwrap();
        sequential.label(t(4), Label::Positive).unwrap();
        assert_eq!(e.result(), sequential.result());
        assert_eq!(e.stats().informative, sequential.stats().informative);
    }

    /// Factorized construction reproduces the enumerated engine's state on
    /// the paper instance: same groups, same candidates (counts,
    /// representatives, order), same stats.
    #[test]
    fn from_factorized_matches_full_engine_on_paper_instance() {
        let (f, h) = (flights(), hotels());
        let p = Product::new(vec![&f, &h]).unwrap();
        let fe = Engine::from_factorized(p, &EngineOptions::default()).unwrap();
        let e = engine(&f, &h);
        assert!(fe.is_factorized());
        assert!(!e.is_factorized());
        assert_eq!(fe.stats(), e.stats());
        assert_eq!(fe.num_groups(), e.num_groups());
        assert_eq!(fe.candidates().candidates(), e.candidates().candidates());
    }

    /// The paper's three terminating labels resolve a factorized engine to
    /// the same predicate, with identical prune counts along the way.
    #[test]
    fn factorized_session_resolves_like_enumerated() {
        let (f, h) = (flights(), hotels());
        let p = Product::new(vec![&f, &h]).unwrap();
        let mut fe = Engine::from_factorized(p, &EngineOptions::default()).unwrap();
        let mut e = engine(&f, &h);
        for (k, label) in [
            (3, Label::Positive),
            (7, Label::Negative),
            (8, Label::Negative),
        ] {
            let fo = fe.label(t(k), label).unwrap();
            let eo = e.label(t(k), label).unwrap();
            assert_eq!(fo, eo, "label outcome for tuple {k}");
        }
        assert!(fe.is_resolved());
        assert_eq!(fe.result(), e.result());
        assert_eq!(fe.entailed_positive_ids(), vec![t(3), t(4)]);
    }

    /// An exhausted sweep budget surfaces as the typed fallback signal.
    #[test]
    fn factorized_sweep_budget_is_typed() {
        let (f, h) = (flights(), hotels());
        let p = Product::new(vec![&f, &h]).unwrap();
        let opts = EngineOptions {
            max_combos: 1,
            ..Default::default()
        };
        assert!(matches!(
            Engine::from_factorized(p, &opts),
            Err(InferenceError::FactorizationTooLarge { limit: 1, .. })
        ));
    }

    /// An id past the product keeps the substrate's out-of-range error on
    /// every path that takes ids.
    #[test]
    fn out_of_range_id_keeps_its_error() {
        let (f, h) = (flights(), hotels());
        let p = Product::new(vec![&f, &h]).unwrap();
        let expected = InferenceError::from(p.tuple(ProductId(12)).unwrap_err());
        assert!(expected
            .to_string()
            .contains("product id 12 out of range (12 tuples)"));
        let opts = EngineOptions::default();
        let mut e = Engine::new(p, &opts).unwrap();
        assert_eq!(e.classify(ProductId(12)).unwrap_err(), expected);
        assert_eq!(
            e.label(ProductId(12), Label::Positive).unwrap_err(),
            expected
        );
    }

    /// The signature sweep against its oracle: materialize each tuple and
    /// compute [`AtomUniverse::signature`] on it, the per-id path the
    /// sweep replaced. Groups must agree on order, signature, class and
    /// member list.
    mod sweep_oracle {
        use super::super::*;
        use jim_relation::{DataType, Relation, RelationSchema, Tuple, Value};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// `(signature, class, members)` per group, in group order.
        type Groups = Vec<(AtomSet, TupleClass, Vec<ProductId>)>;

        fn groups_of(e: &Engine) -> Groups {
            e.groups
                .iter()
                .map(|g| (g.sig.clone(), g.class, g.members.witnesses().to_vec()))
                .collect()
        }

        /// The groups the per-id oracle sweep forms over `ids`, in
        /// first-seen order, classified under `e`'s labels so far.
        fn oracle(e: &Engine, ids: &[ProductId]) -> Groups {
            let mut out: Groups = Vec::new();
            let mut slot: HashMap<AtomSet, usize> = HashMap::new();
            for &id in ids {
                let sig = e.universe.signature(&e.product.tuple(id).unwrap());
                match slot.get(&sig) {
                    Some(&g) => out[g].2.push(id),
                    None => {
                        slot.insert(sig.clone(), out.len());
                        let class = e.vs.classify(&sig);
                        out.push((sig, class, vec![id]));
                    }
                }
            }
            out
        }

        /// Small value pools per type, so equalities are common: nulls,
        /// repeated text, and floats that only `total_cmp` tells apart.
        fn value(rng: &mut StdRng, dtype: DataType) -> Value {
            match (dtype, rng.gen_range(0..5usize)) {
                (_, 0) => Value::Null,
                (DataType::Int, k) => Value::Int(k as i64 % 3),
                (DataType::Float, k) => Value::Float([0.0, -0.0, f64::NAN, 1.5][k - 1]),
                (_, k) => Value::text(["", "a", "b", "a"][k - 1]),
            }
        }

        /// Two or three random relations over int, float and text columns,
        /// in either atom scope; `None` when no pair of columns is
        /// type-compatible.
        fn instance(seed: u64) -> Option<(Product, EngineOptions)> {
            let mut rng = StdRng::seed_from_u64(seed);
            let types = [DataType::Int, DataType::Float, DataType::Text];
            let relations: Vec<Relation> = (0..rng.gen_range(2..=3usize))
                .map(|r| {
                    let cols: Vec<DataType> = (0..rng.gen_range(1..=3usize))
                        .map(|_| types[rng.gen_range(0..3usize)])
                        .collect();
                    let names: Vec<String> = (0..cols.len()).map(|c| format!("c{c}")).collect();
                    let attrs: Vec<(&str, DataType)> = names
                        .iter()
                        .zip(&cols)
                        .map(|(n, &d)| (n.as_str(), d))
                        .collect();
                    let rows = (0..rng.gen_range(1..=5usize))
                        .map(|_| Tuple::new(cols.iter().map(|&d| value(&mut rng, d)).collect()))
                        .collect();
                    Relation::new(RelationSchema::of(format!("r{r}"), &attrs).unwrap(), rows)
                        .unwrap()
                })
                .collect();
            let options = EngineOptions {
                scope: if rng.gen_bool(0.5) {
                    AtomScope::CrossRelation
                } else {
                    AtomScope::AllPairs
                },
                ..Default::default()
            };
            let product = Product::new(relations).unwrap();
            AtomUniverse::new(product.schema().clone(), options.scope).ok()?;
            Some((product, options))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn sweep_groups_match_per_tuple_signatures(seed in any::<u64>()) {
                let Some((product, options)) = instance(seed) else { return Ok(()) };
                let all: Vec<ProductId> = (0..product.size()).map(ProductId).collect();
                // `Engine::new`: every id, in rank order.
                let full = Engine::new(product, &options).unwrap();
                prop_assert_eq!(groups_of(&full), oracle(&full, &all));
            }
        }
    }

    /// The generation counter moves on every mutation and only then.
    #[test]
    fn generation_counts_mutations_not_queries() {
        let (f, h) = (flights(), hotels());
        let mut e = engine(&f, &h);
        let g0 = e.generation();
        let _ = e.candidates();
        let _ = e.simulate(&e.universe().empty_set());
        let _ = e.recompute_candidates();
        assert_eq!(e.generation(), g0);
        e.label(t(12), Label::Positive).unwrap();
        assert_eq!(e.generation(), g0 + 1);
    }
}
