//! Equi-join evaluation.
//!
//! A [`JoinSpec`] is a conjunction of equality pairs over the global
//! attributes of a [`Product`]. Two evaluators are provided:
//!
//! * [`JoinSpec::eval_nested_loop`] — the obviously-correct reference
//!   (scan the whole product, test every atom);
//! * [`JoinSpec::eval_hash`] — a left-deep fold that hash-partitions each
//!   relation on the atoms connecting it to the prefix, the evaluator a real
//!   system would use.
//!
//! Tests (and a proptest in the workspace root) cross-check the two.

use crate::error::Result;
use crate::product::{Product, ProductId};
use crate::relation::Relation;
use crate::schema::{Attribute, GlobalAttr, JoinSchema, RelationSchema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// A conjunction of equality atoms `aᵢ ≍ bᵢ` over global attributes.
///
/// Pairs are kept normalized: each pair ordered `(min, max)`, the list sorted
/// and deduplicated, and reflexive pairs (`a ≍ a`) dropped — they are
/// tautologies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct JoinSpec {
    pairs: Vec<(GlobalAttr, GlobalAttr)>,
}

impl JoinSpec {
    /// The always-true predicate (selects the whole product).
    pub fn always() -> Self {
        JoinSpec::default()
    }

    /// Build a normalized spec from arbitrary pairs.
    pub fn new(pairs: impl IntoIterator<Item = (GlobalAttr, GlobalAttr)>) -> Self {
        let mut pairs: Vec<(GlobalAttr, GlobalAttr)> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        pairs.sort();
        pairs.dedup();
        JoinSpec { pairs }
    }

    /// The normalized equality pairs.
    pub fn pairs(&self) -> &[(GlobalAttr, GlobalAttr)] {
        &self.pairs
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff the spec has no atoms (alias of [`JoinSpec::is_always`],
    /// provided for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True iff the spec has no atoms (selects everything).
    pub fn is_always(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Validate that every attribute is in range for `schema`.
    pub fn check(&self, schema: &JoinSchema) -> Result<()> {
        for &(a, b) in &self.pairs {
            schema.locate(a)?;
            schema.locate(b)?;
        }
        Ok(())
    }

    /// Does the concatenated tuple `t` satisfy every atom?
    pub fn holds(&self, t: &Tuple) -> bool {
        self.pairs
            .iter()
            .all(|&(a, b)| t[a.index()] == t[b.index()])
    }

    /// Reference evaluator: scan the product, test every tuple.
    pub fn eval_nested_loop(&self, product: &Product) -> Result<Vec<ProductId>> {
        self.check(product.schema())?;
        Ok(product
            .iter()
            .filter(|(_, t)| self.holds(t))
            .map(|(id, _)| id)
            .collect())
    }

    /// Hash evaluator: fold relations left to right; at each step, hash the
    /// incoming relation on the atoms that connect it to the accumulated
    /// prefix and probe with the prefix keys. Atoms internal to one relation
    /// become row filters. Returns ids in rank order.
    pub fn eval_hash(&self, product: &Product) -> Result<Vec<ProductId>> {
        let schema = product.schema();
        self.check(schema)?;
        let relations = product.relations();

        // Classify each atom by the relation occurrences of its endpoints.
        // An atom is "resolved" at step max(rel(a), rel(b)).
        struct StepAtom {
            /// Local attribute in the relation being added at this step.
            local: usize,
            /// Where the other side lives: `Err(local)` = same relation
            /// (intra filter), `Ok((rel, local))` = earlier relation.
            other: std::result::Result<(usize, usize), usize>,
        }
        let mut per_step: Vec<Vec<StepAtom>> = (0..relations.len()).map(|_| Vec::new()).collect();
        for &(a, b) in &self.pairs {
            let (ra, la) = schema.locate(a)?;
            let (rb, lb) = schema.locate(b)?;
            if ra == rb {
                per_step[ra].push(StepAtom {
                    local: la,
                    other: Err(lb),
                });
            } else {
                let ((r_hi, l_hi), (r_lo, l_lo)) = if ra > rb {
                    ((ra, la), (rb, lb))
                } else {
                    ((rb, lb), (ra, la))
                };
                per_step[r_hi].push(StepAtom {
                    local: l_hi,
                    other: Ok((r_lo, l_lo)),
                });
            }
        }

        // Partial assignments: per-relation row indices of the prefix.
        let mut partials: Vec<Vec<usize>> = vec![Vec::new()];
        for (step, rel) in relations.iter().enumerate() {
            let atoms = &per_step[step];
            let intra: Vec<(usize, usize)> = atoms
                .iter()
                .filter_map(|a| a.other.err().map(|o| (a.local, o)))
                .collect();
            let cross: Vec<(usize, (usize, usize))> = atoms
                .iter()
                .filter_map(|a| a.other.ok().map(|o| (a.local, o)))
                .collect();

            // Hash the new relation's rows surviving the intra filters,
            // keyed by their cross-atom values.
            let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, row) in rel.rows().iter().enumerate() {
                if !intra.iter().all(|&(x, y)| row[x] == row[y]) {
                    continue;
                }
                let key: Vec<Value> = cross.iter().map(|&(local, _)| row[local].clone()).collect();
                table.entry(key).or_default().push(i);
            }

            let mut next = Vec::new();
            for prefix in &partials {
                let key: Vec<Value> = cross
                    .iter()
                    .map(|&(_, (rel_idx, local))| {
                        relations[rel_idx].rows()[prefix[rel_idx]][local].clone()
                    })
                    .collect();
                if let Some(rows) = table.get(&key) {
                    next.reserve(rows.len());
                    for &i in rows {
                        let mut ext = Vec::with_capacity(prefix.len() + 1);
                        ext.extend_from_slice(prefix);
                        ext.push(i);
                        next.push(ext);
                    }
                }
            }
            partials = next;
            if partials.is_empty() {
                break;
            }
        }

        let mut ids: Vec<ProductId> = partials
            .iter()
            .filter(|p| p.len() == relations.len())
            .map(|p| product.encode(p).expect("indices from rows are in range"))
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Materialize the selected tuples as a relation named `name`, with
    /// qualified attribute names so that the output schema is well-formed
    /// even for self-joins.
    pub fn materialize(
        &self,
        product: &Product,
        ids: &[ProductId],
        name: impl Into<String>,
    ) -> Result<Relation> {
        let schema = product.schema();
        let attrs: Vec<Attribute> = schema
            .attrs()
            .map(|ga| {
                Ok(Attribute::new(
                    schema.qualified_name(ga)?,
                    // Preserve the declared type.
                    schema.dtype(ga)?,
                ))
            })
            .collect::<Result<_>>()?;
        let out_schema = RelationSchema::new(name, attrs)?;
        let rows: Vec<Tuple> = ids
            .iter()
            .map(|&id| product.tuple(id))
            .collect::<Result<_>>()?;
        Relation::new(out_schema, rows)
    }
}

impl std::fmt::Display for JoinSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pairs.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, (a, b)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            write!(f, "{a} ≍ {b}")?;
        }
        Ok(())
    }
}

/// One side of a named equality: `(relation occurrence, attribute name)`.
pub type NamedAttr<'a> = (usize, &'a str);

/// Build a [`JoinSpec`] by resolving `(occurrence, attr_name)` pairs against
/// a schema; convenience for tests and examples.
pub fn spec_by_names(
    schema: &JoinSchema,
    pairs: &[(NamedAttr<'_>, NamedAttr<'_>)],
) -> Result<JoinSpec> {
    let resolved: Vec<(GlobalAttr, GlobalAttr)> = pairs
        .iter()
        .map(|&((ra, na), (rb, nb))| {
            Ok((
                schema.global_by_name(ra, na)?,
                schema.global_by_name(rb, nb)?,
            ))
        })
        .collect::<Result<_>>()?;
    Ok(JoinSpec::new(resolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::DataType;

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

    #[test]
    fn normalization_orders_dedups_and_drops_reflexive() {
        let s = JoinSpec::new(vec![
            (GlobalAttr(3), GlobalAttr(1)),
            (GlobalAttr(1), GlobalAttr(3)),
            (GlobalAttr(2), GlobalAttr(2)),
        ]);
        assert_eq!(s.pairs(), &[(GlobalAttr(1), GlobalAttr(3))]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn q1_selects_paper_tuples() {
        // Q1: To = City — the paper says it selects tuples (3),(4),(8),(10)
        // and (12)... actually exactly those product tuples where the flight
        // destination equals the hotel city.
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let q1 = spec_by_names(p.schema(), &[((0, "To"), (1, "City"))]).unwrap();
        let ids = q1.eval_nested_loop(&p).unwrap();
        // Ranks are 0-based: paper tuple (k) = rank k-1.
        let ranks: Vec<u64> = ids.iter().map(|id| id.0).collect();
        assert_eq!(ranks, vec![2, 3, 7, 9]);
    }

    #[test]
    fn q2_selects_paper_tuples() {
        // Q2: To = City AND Airline = Discount — tuples (3) and (4).
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let q2 = spec_by_names(
            p.schema(),
            &[((0, "To"), (1, "City")), ((0, "Airline"), (1, "Discount"))],
        )
        .unwrap();
        let ids = q2.eval_nested_loop(&p).unwrap();
        let ranks: Vec<u64> = ids.iter().map(|id| id.0).collect();
        assert_eq!(ranks, vec![2, 3]);
    }

    #[test]
    fn hash_and_nested_loop_evaluators_agree() {
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        for pairs in [
            vec![],
            vec![((0, "To"), (1, "City"))],
            vec![((0, "To"), (1, "City")), ((0, "Airline"), (1, "Discount"))],
            vec![((0, "From"), (1, "City"))],
            vec![((0, "From"), (0, "To"))], // intra-relation (selection)
            vec![((0, "From"), (0, "To")), ((0, "To"), (1, "City"))],
        ] {
            let spec = spec_by_names(p.schema(), &pairs).unwrap();
            let reference = spec.eval_nested_loop(&p).unwrap();
            assert_eq!(spec.eval_hash(&p).unwrap(), reference, "hash, spec {spec}");
        }
    }

    #[test]
    fn three_way_join() {
        let f = flights();
        let h = hotels();
        let h2 = hotels();
        let p = Product::new(vec![&f, &h, &h2]).unwrap();
        // flight.To = hotel1.City and hotel1.City = hotel2.City
        let spec = spec_by_names(
            p.schema(),
            &[((0, "To"), (1, "City")), ((1, "City"), (2, "City"))],
        )
        .unwrap();
        let hash = spec.eval_hash(&p).unwrap();
        let nl = spec.eval_nested_loop(&p).unwrap();
        assert_eq!(hash, nl);
        assert!(!hash.is_empty());
    }

    #[test]
    fn always_spec_selects_everything() {
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let all = JoinSpec::always().eval_hash(&p).unwrap();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn check_rejects_out_of_range() {
        let f = flights();
        let p = Product::new(vec![&f]).unwrap();
        let bad = JoinSpec::new(vec![(GlobalAttr(0), GlobalAttr(9))]);
        assert!(bad.eval_nested_loop(&p).is_err());
        assert!(bad.eval_hash(&p).is_err());
    }

    #[test]
    fn materialize_produces_qualified_schema() {
        let f = flights();
        let h = hotels();
        let p = Product::new(vec![&f, &h]).unwrap();
        let q1 = spec_by_names(p.schema(), &[((0, "To"), (1, "City"))]).unwrap();
        let ids = q1.eval_hash(&p).unwrap();
        let rel = q1.materialize(&p, &ids, "packages").unwrap();
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.schema().attributes()[0].name, "flights.From");
        assert_eq!(rel.schema().attributes()[3].name, "hotels.City");
    }

    #[test]
    fn self_join_materializes() {
        let h = hotels();
        let h2 = hotels();
        let p = Product::new(vec![&h, &h2]).unwrap();
        let spec = spec_by_names(p.schema(), &[((0, "Discount"), (1, "Discount"))]).unwrap();
        let ids = spec.eval_hash(&p).unwrap();
        let rel = spec.materialize(&p, &ids, "pairs").unwrap();
        assert_eq!(rel.schema().attributes()[0].name, "hotels#1.City");
        assert_eq!(rel.schema().attributes()[2].name, "hotels#2.City");
        // Each hotel pairs at least with itself on equal discount.
        assert!(rel.len() >= 3);
    }

    #[test]
    fn display_spec() {
        let s = JoinSpec::new(vec![(GlobalAttr(1), GlobalAttr(3))]);
        assert_eq!(s.to_string(), "#1 ≍ #3");
        assert_eq!(JoinSpec::always().to_string(), "TRUE");
    }

    #[test]
    fn empty_relation_join_is_empty() {
        let f = flights();
        let empty = Relation::empty(RelationSchema::of("e", &[("x", DataType::Text)]).unwrap());
        let p = Product::new(vec![&f, &empty]).unwrap();
        let spec = JoinSpec::always();
        assert!(spec.eval_hash(&p).unwrap().is_empty());
        assert!(spec.eval_nested_loop(&p).unwrap().is_empty());
    }
}
