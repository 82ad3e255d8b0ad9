//! The atom universe: all candidate equality atoms for a join schema.
//!
//! An **atom** is an unordered pair of global attributes; a join predicate is
//! a set of atoms. The universe enumerates every candidate pair once, in a
//! deterministic order, and is shared (via `Arc`) by signatures, predicates,
//! the version space and the engine.

use crate::bitset::AtomSet;
use crate::error::{InferenceError, Result};
use jim_relation::{GlobalAttr, JoinSchema, JoinSpec, Tuple};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which attribute pairs become candidate atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AtomScope {
    /// Only pairs from *different* relation occurrences (pure join
    /// predicates — the paper's setting).
    #[default]
    CrossRelation,
    /// All pairs, including within one relation (intra-relation atoms act as
    /// selections on that relation).
    AllPairs,
}

/// Index of an atom within its universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single equality atom between two global attributes (normalized
/// `a < b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The smaller global attribute.
    pub a: GlobalAttr,
    /// The larger global attribute.
    pub b: GlobalAttr,
}

impl Atom {
    /// Normalize an unordered pair into an atom. Panics if `a == b`
    /// (reflexive equalities are tautological and never atoms).
    pub fn new(a: GlobalAttr, b: GlobalAttr) -> Self {
        assert_ne!(a, b, "reflexive atom");
        if a < b {
            Atom { a, b }
        } else {
            Atom { a: b, b: a }
        }
    }
}

/// The ordered set of candidate atoms over a [`JoinSchema`].
///
/// Only **type-compatible** pairs are candidates: an equality between an
/// `int` and a `text` attribute can never hold, so it is excluded up front
/// (this mirrors JIM's pruning of structurally impossible predicates).
#[derive(Debug, Clone)]
pub struct AtomUniverse {
    schema: JoinSchema,
    scope: AtomScope,
    atoms: Vec<Atom>,
    index: HashMap<Atom, AtomId>,
}

impl AtomUniverse {
    /// Enumerate the candidate atoms of `schema` under `scope`.
    ///
    /// Fails with [`InferenceError::EmptyUniverse`] when no candidate pair
    /// exists (nothing could ever be inferred).
    pub fn new(schema: JoinSchema, scope: AtomScope) -> Result<Arc<Self>> {
        let n = schema.num_attrs();
        let mut atoms = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (ga, gb) = (GlobalAttr(i as u32), GlobalAttr(j as u32));
                if scope == AtomScope::CrossRelation && !schema.cross_relation(ga, gb)? {
                    continue;
                }
                if schema.dtype(ga)? != schema.dtype(gb)? {
                    continue;
                }
                atoms.push(Atom::new(ga, gb));
            }
        }
        if atoms.is_empty() {
            return Err(InferenceError::EmptyUniverse);
        }
        let index = atoms
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, AtomId(i as u32)))
            .collect();
        Ok(Arc::new(AtomUniverse {
            schema,
            scope,
            atoms,
            index,
        }))
    }

    /// Default universe: cross-relation, type-compatible pairs.
    pub fn cross_relation(schema: JoinSchema) -> Result<Arc<Self>> {
        AtomUniverse::new(schema, AtomScope::CrossRelation)
    }

    /// The join schema this universe ranges over.
    pub fn schema(&self) -> &JoinSchema {
        &self.schema
    }

    /// The configured scope.
    pub fn scope(&self) -> AtomScope {
        self.scope
    }

    /// Number of candidate atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True iff there are no atoms (never observable: construction fails).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atom behind an id.
    pub fn atom(&self, id: AtomId) -> Atom {
        self.atoms[id.index()]
    }

    /// All atoms in id order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Id of an atom, if it is a candidate in this universe.
    pub fn id_of(&self, a: GlobalAttr, b: GlobalAttr) -> Option<AtomId> {
        if a == b {
            return None;
        }
        self.index.get(&Atom::new(a, b)).copied()
    }

    /// Resolve `occurrence.attr ≍ occurrence.attr` by names.
    pub fn id_by_names(&self, a: (usize, &str), b: (usize, &str)) -> Result<AtomId> {
        let ga = self.schema.global_by_name(a.0, a.1)?;
        let gb = self.schema.global_by_name(b.0, b.1)?;
        self.id_of(ga, gb).ok_or(InferenceError::EmptyUniverse)
    }

    /// The empty atom set in this universe.
    pub fn empty_set(&self) -> AtomSet {
        AtomSet::empty(self.len())
    }

    /// The full atom set in this universe.
    pub fn full_set(&self) -> AtomSet {
        AtomSet::full(self.len())
    }

    /// Build an atom set from atom ids.
    pub fn set_of(&self, ids: impl IntoIterator<Item = AtomId>) -> AtomSet {
        AtomSet::from_indices(self.len(), ids.into_iter().map(|i| i.index()))
    }

    /// **The signature `Θ(t)`**: the set of all atoms that hold in the
    /// concatenated product tuple `t` — the most specific predicate
    /// selecting `t`. This is the paper's central derived object.
    pub fn signature(&self, t: &Tuple) -> AtomSet {
        debug_assert_eq!(t.arity(), self.schema.num_attrs());
        let mut sig = self.empty_set();
        for (i, atom) in self.atoms.iter().enumerate() {
            if t[atom.a.index()] == t[atom.b.index()] {
                sig.insert(i);
            }
        }
        sig
    }

    /// Render one atom with qualified attribute names (`flights.To ≍
    /// hotels.City`).
    pub fn atom_name(&self, id: AtomId) -> String {
        let mut out = String::new();
        self.write_atom_name(id, &mut out);
        out
    }

    /// [`AtomUniverse::atom_name`], appended to `out`.
    fn write_atom_name(&self, id: AtomId, out: &mut String) {
        let atom = self.atom(id);
        self.schema
            .write_qualified_name(atom.a, out)
            .expect("atom attrs in range");
        out.push_str(" ≍ ");
        self.schema
            .write_qualified_name(atom.b, out)
            .expect("atom attrs in range");
    }

    /// Render an atom set as a conjunction.
    pub fn set_name(&self, set: &AtomSet) -> String {
        if set.is_empty() {
            return "TRUE".to_string();
        }
        let mut out = String::new();
        for (k, i) in set.iter().enumerate() {
            if k > 0 {
                out.push_str(" ∧ ");
            }
            self.write_atom_name(AtomId(i as u32), &mut out);
        }
        out
    }

    /// Convert an atom set into an executable [`JoinSpec`].
    pub fn to_spec(&self, set: &AtomSet) -> JoinSpec {
        JoinSpec::new(set.iter().map(|i| {
            let atom = self.atoms[i];
            (atom.a, atom.b)
        }))
    }
}

impl fmt::Display for AtomUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} atoms over {}", self.atoms.len(), self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jim_relation::{tup, DataType, RelationSchema};

    fn schema() -> JoinSchema {
        JoinSchema::new(vec![
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
        .unwrap()
    }

    #[test]
    fn cross_relation_universe_size() {
        // 3 flight attrs x 2 hotel attrs, all text -> 6 atoms.
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        assert_eq!(u.len(), 6);
        assert!(!u.is_empty());
    }

    #[test]
    fn all_pairs_universe_size() {
        // C(5,2) = 10 pairs, all text-compatible.
        let u = AtomUniverse::new(schema(), AtomScope::AllPairs).unwrap();
        assert_eq!(u.len(), 10);
    }

    #[test]
    fn type_incompatible_pairs_excluded() {
        let js = JoinSchema::new(vec![
            RelationSchema::of("a", &[("x", DataType::Int), ("y", DataType::Text)]).unwrap(),
            RelationSchema::of("b", &[("z", DataType::Int)]).unwrap(),
        ])
        .unwrap();
        let u = AtomUniverse::cross_relation(js).unwrap();
        // Only x ≍ z (both int); y ≍ z is text/int.
        assert_eq!(u.len(), 1);
        assert_eq!(u.atom(AtomId(0)).a, GlobalAttr(0));
        assert_eq!(u.atom(AtomId(0)).b, GlobalAttr(2));
    }

    #[test]
    fn fully_incompatible_schema_is_empty_universe() {
        let js = JoinSchema::new(vec![
            RelationSchema::of("a", &[("x", DataType::Int)]).unwrap(),
            RelationSchema::of("b", &[("y", DataType::Text)]).unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            AtomUniverse::cross_relation(js),
            Err(InferenceError::EmptyUniverse)
        ));
    }

    #[test]
    fn id_lookup_is_order_insensitive() {
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        let a = u.id_of(GlobalAttr(1), GlobalAttr(3)).unwrap();
        let b = u.id_of(GlobalAttr(3), GlobalAttr(1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(u.id_of(GlobalAttr(0), GlobalAttr(0)), None);
        // Intra-relation pair is not a candidate under CrossRelation scope.
        assert_eq!(u.id_of(GlobalAttr(0), GlobalAttr(1)), None);
    }

    #[test]
    fn id_by_names_resolves() {
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        let id = u.id_by_names((0, "To"), (1, "City")).unwrap();
        assert_eq!(u.atom_name(id), "flights.To ≍ hotels.City");
    }

    #[test]
    fn signature_of_paper_tuple_3() {
        // Paper tuple (3): (Paris, Lille, AF | Lille, AF) has signature
        // {To ≍ City, Airline ≍ Discount}.
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        let t = tup!["Paris", "Lille", "AF", "Lille", "AF"];
        let sig = u.signature(&t);
        let tc = u.id_by_names((0, "To"), (1, "City")).unwrap();
        let ad = u.id_by_names((0, "Airline"), (1, "Discount")).unwrap();
        assert_eq!(sig, u.set_of([tc, ad]));
    }

    #[test]
    fn signature_of_paper_tuple_1_is_empty() {
        // Paper tuple (1): (Paris, Lille, AF | NYC, AA) satisfies nothing.
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        let t = tup!["Paris", "Lille", "AF", "NYC", "AA"];
        assert!(u.signature(&t).is_empty());
    }

    #[test]
    fn set_name_renders_conjunction() {
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        let tc = u.id_by_names((0, "To"), (1, "City")).unwrap();
        let ad = u.id_by_names((0, "Airline"), (1, "Discount")).unwrap();
        let s = u.set_name(&u.set_of([tc, ad]));
        assert!(s.contains("flights.To ≍ hotels.City"));
        assert!(s.contains(" ∧ "));
        assert_eq!(u.set_name(&u.empty_set()), "TRUE");
    }

    #[test]
    fn to_spec_round_trips_atoms() {
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        let tc = u.id_by_names((0, "To"), (1, "City")).unwrap();
        let spec = u.to_spec(&u.set_of([tc]));
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.pairs()[0], (GlobalAttr(1), GlobalAttr(3)));
    }

    #[test]
    fn display() {
        let u = AtomUniverse::cross_relation(schema()).unwrap();
        assert_eq!(u.to_string(), "6 atoms over flights × hotels");
    }

    #[test]
    #[should_panic(expected = "reflexive")]
    fn reflexive_atom_panics() {
        Atom::new(GlobalAttr(1), GlobalAttr(1));
    }
}
