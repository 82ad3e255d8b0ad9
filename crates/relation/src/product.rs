//! Lazy n-ary cartesian products.
//!
//! The set of *candidate tuples* JIM asks the user about is the cartesian
//! product `R1 × … × Rn`. Products are huge (the paper's motivation for
//! pruning), so they are never materialized: a [`Product`] exposes a linear
//! id space (mixed-radix encoding, **last relation varies fastest**, which
//! matches the row order of the paper's Figure 1) plus lazy decoding,
//! iteration and sampling.
//!
//! A product **owns** its relations behind [`Arc`] handles, so a product —
//! and everything built on top of it, like `jim-core`'s `Engine` — is a
//! self-contained `Send + 'static` value that can be stored in a session
//! map and served across requests. Self-joins share one allocation.

use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::JoinSchema;
use crate::tuple::Tuple;
use rand::Rng;
use std::sync::Arc;

/// Identifier of a tuple in a cartesian product (its mixed-radix rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProductId(pub u64);

impl ProductId {
    /// The raw rank.
    pub fn rank(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ProductId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Conversion into the shared relation handles a [`Product`] owns.
///
/// Implemented for `Arc<Relation>` (moved in), `Relation` (wrapped) and
/// `&Relation` / `&Arc<Relation>` (cloned), so existing call sites like
/// `Product::new(vec![&flights, &hotels])` keep working while services can
/// share relations across sessions at zero copy cost.
pub trait IntoSharedRelation {
    /// Produce the owned handle.
    fn into_shared(self) -> Arc<Relation>;
}

impl IntoSharedRelation for Arc<Relation> {
    fn into_shared(self) -> Arc<Relation> {
        self
    }
}

impl IntoSharedRelation for Relation {
    fn into_shared(self) -> Arc<Relation> {
        Arc::new(self)
    }
}

impl IntoSharedRelation for &Relation {
    fn into_shared(self) -> Arc<Relation> {
        Arc::new(self.clone())
    }
}

impl IntoSharedRelation for &Arc<Relation> {
    fn into_shared(self) -> Arc<Relation> {
        Arc::clone(self)
    }
}

/// The cartesian product of owned (shared) relations.
#[derive(Debug, Clone)]
pub struct Product {
    relations: Vec<Arc<Relation>>,
    schema: JoinSchema,
    size: u64,
}

impl Product {
    /// Build the product view. Fails on an empty relation list or if the
    /// product size overflows `u64`.
    pub fn new<R: IntoSharedRelation>(relations: Vec<R>) -> Result<Self> {
        let relations: Vec<Arc<Relation>> = relations
            .into_iter()
            .map(IntoSharedRelation::into_shared)
            .collect();
        if relations.is_empty() {
            return Err(RelationError::InvalidJoin {
                message: "cartesian product of zero relations".into(),
            });
        }
        let schema = JoinSchema::new(relations.iter().map(|r| r.schema().clone()).collect())?;
        let mut size: u64 = 1;
        for r in &relations {
            size = size
                .checked_mul(r.len() as u64)
                .ok_or_else(|| RelationError::InvalidJoin {
                    message: "cartesian product size overflows u64".into(),
                })?;
        }
        Ok(Product {
            relations,
            schema,
            size,
        })
    }

    /// The join schema of the product.
    pub fn schema(&self) -> &JoinSchema {
        &self.schema
    }

    /// The participating relations (shared handles).
    pub fn relations(&self) -> &[Arc<Relation>] {
        &self.relations
    }

    /// Number of tuples in the product.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// True iff any participating relation is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Decode a product id into per-relation row indices.
    pub fn decode(&self, id: ProductId) -> Result<Vec<usize>> {
        let mut idx = Vec::with_capacity(self.relations.len());
        self.decode_into(id, &mut idx)?;
        Ok(idx)
    }

    /// [`Product::decode`] into a caller-owned buffer (resized to one slot
    /// per relation), so a sweep over many ids reuses one allocation.
    pub fn decode_into(&self, id: ProductId, idx: &mut Vec<usize>) -> Result<()> {
        if id.0 >= self.size {
            return Err(RelationError::InvalidJoin {
                message: format!("product id {} out of range ({} tuples)", id.0, self.size),
            });
        }
        idx.clear();
        idx.resize(self.relations.len(), 0);
        let mut rest = id.0;
        for (slot, rel) in idx.iter_mut().zip(&self.relations).rev() {
            let n = rel.len() as u64;
            *slot = (rest % n) as usize;
            rest /= n;
        }
        Ok(())
    }

    /// Encode per-relation row indices into a product id.
    pub fn encode(&self, indices: &[usize]) -> Result<ProductId> {
        if indices.len() != self.relations.len() {
            return Err(RelationError::InvalidJoin {
                message: format!(
                    "expected {} row indices, got {}",
                    self.relations.len(),
                    indices.len()
                ),
            });
        }
        let mut rank: u64 = 0;
        for (&i, rel) in indices.iter().zip(&self.relations) {
            if i >= rel.len() {
                return Err(RelationError::InvalidJoin {
                    message: format!("row index {i} out of range for `{}`", rel.name()),
                });
            }
            rank = rank * rel.len() as u64 + i as u64;
        }
        Ok(ProductId(rank))
    }

    /// Materialize the product tuple behind `id` (concatenation of the
    /// component rows).
    pub fn tuple(&self, id: ProductId) -> Result<Tuple> {
        let idx = self.decode(id)?;
        Ok(Tuple::concat(
            idx.iter()
                .zip(&self.relations)
                .map(|(&i, r)| r.row(i).expect("decoded index in range")),
        ))
    }

    /// Borrow the component rows behind `id` without concatenating them.
    pub fn component_rows(&self, id: ProductId) -> Result<Vec<&Tuple>> {
        let idx = self.decode(id)?;
        Ok(idx
            .iter()
            .zip(&self.relations)
            .map(|(&i, r)| r.row(i).expect("decoded index in range"))
            .collect())
    }

    /// Iterate over all `(id, tuple)` pairs in rank order.
    pub fn iter(&self) -> ProductIter<'_> {
        ProductIter {
            product: self,
            next: 0,
        }
    }

    /// Draw `k` *distinct* product ids uniformly at random (all of them if
    /// `k >= size`). Used to subsample gigantic products before inference.
    pub fn sample(&self, rng: &mut impl Rng, k: usize) -> Vec<ProductId> {
        let n = self.size;
        if n == 0 {
            return Vec::new();
        }
        if (k as u64) >= n {
            return (0..n).map(ProductId).collect();
        }
        // Floyd's algorithm: k distinct values from [0, n).
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k as u64)..n {
            let t = rng.gen_range(0..=j);
            let pick = if chosen.insert(t) { t } else { j };
            if pick != t {
                chosen.insert(pick);
            }
            out.push(ProductId(pick));
        }
        out
    }
}

/// Iterator over all tuples of a [`Product`] in rank order.
#[derive(Debug)]
pub struct ProductIter<'p> {
    product: &'p Product,
    next: u64,
}

impl Iterator for ProductIter<'_> {
    type Item = (ProductId, Tuple);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.product.size {
            return None;
        }
        let id = ProductId(self.next);
        self.next += 1;
        Some((id, self.product.tuple(id).expect("rank in range")))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.product.size - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ProductIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tup;
    use crate::value::{DataType, Value};

    fn rel(name: &str, attr: &str, vals: &[i64]) -> Relation {
        Relation::new(
            RelationSchema::of(name, &[(attr, DataType::Int)]).unwrap(),
            vals.iter().map(|&v| tup![v]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn size_and_schema() {
        let a = rel("a", "x", &[1, 2, 3]);
        let b = rel("b", "y", &[10, 20]);
        let p = Product::new(vec![&a, &b]).unwrap();
        assert_eq!(p.size(), 6);
        assert_eq!(p.schema().num_attrs(), 2);
    }

    #[test]
    fn last_relation_varies_fastest() {
        let a = rel("a", "x", &[1, 2]);
        let b = rel("b", "y", &[10, 20, 30]);
        let p = Product::new(vec![&a, &b]).unwrap();
        let tuples: Vec<Tuple> = p.iter().map(|(_, t)| t).collect();
        assert_eq!(tuples[0], tup![1, 10]);
        assert_eq!(tuples[1], tup![1, 20]);
        assert_eq!(tuples[2], tup![1, 30]);
        assert_eq!(tuples[3], tup![2, 10]);
        assert_eq!(tuples.len(), 6);
    }

    #[test]
    fn encode_decode_round_trip() {
        let a = rel("a", "x", &[1, 2, 3]);
        let b = rel("b", "y", &[10, 20]);
        let c = rel("c", "z", &[5, 6, 7, 8]);
        let p = Product::new(vec![&a, &b, &c]).unwrap();
        for (id, _) in p.iter() {
            let idx = p.decode(id).unwrap();
            assert_eq!(p.encode(&idx).unwrap(), id);
        }
    }

    #[test]
    fn decode_into_reuses_the_buffer() {
        let a = rel("a", "x", &[1, 2, 3]);
        let b = rel("b", "y", &[10, 20]);
        let p = Product::new(vec![&a, &b]).unwrap();
        let mut idx = vec![7; 5];
        for (id, _) in p.iter() {
            p.decode_into(id, &mut idx).unwrap();
            assert_eq!(idx, p.decode(id).unwrap());
        }
        let err = p.decode_into(ProductId(6), &mut idx).unwrap_err();
        assert_eq!(Err(err), p.decode(ProductId(6)));
    }

    #[test]
    fn decode_out_of_range() {
        let a = rel("a", "x", &[1]);
        let p = Product::new(vec![&a]).unwrap();
        assert!(p.decode(ProductId(1)).is_err());
        assert!(p.encode(&[1]).is_err());
        assert!(p.encode(&[0, 0]).is_err());
    }

    #[test]
    fn empty_relation_gives_empty_product() {
        let a = rel("a", "x", &[]);
        let b = rel("b", "y", &[1]);
        let p = Product::new(vec![&a, &b]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    fn component_rows_borrow() {
        let a = rel("a", "x", &[7]);
        let b = rel("b", "y", &[9]);
        let p = Product::new(vec![&a, &b]).unwrap();
        let rows = p.component_rows(ProductId(0)).unwrap();
        assert_eq!(rows[0][0], Value::Int(7));
        assert_eq!(rows[1][0], Value::Int(9));
    }

    #[test]
    fn sample_is_distinct_and_in_range() {
        use rand::SeedableRng;
        let a = rel("a", "x", &[1, 2, 3, 4, 5]);
        let b = rel("b", "y", &[1, 2, 3, 4, 5]);
        let p = Product::new(vec![&a, &b]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let s = p.sample(&mut rng, 10);
        assert_eq!(s.len(), 10);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(s.iter().all(|id| id.0 < 25));
    }

    #[test]
    fn sample_more_than_size_returns_all() {
        use rand::SeedableRng;
        let a = rel("a", "x", &[1, 2]);
        let p = Product::new(vec![&a]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = p.sample(&mut rng, 100);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn figure1_rank_order() {
        // Two relations of sizes 4 and 3 -> 12 tuples; tuple (3) of the paper
        // (1-based) is rank 2: first flight, third hotel.
        let flights = rel("f", "x", &[1, 2, 3, 4]);
        let hotels = rel("h", "y", &[1, 2, 3]);
        let p = Product::new(vec![&flights, &hotels]).unwrap();
        assert_eq!(p.decode(ProductId(2)).unwrap(), vec![0, 2]);
        assert_eq!(p.decode(ProductId(11)).unwrap(), vec![3, 2]);
    }
}
