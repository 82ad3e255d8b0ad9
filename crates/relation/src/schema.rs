//! Relation schemas and the *join schema* over several relations.
//!
//! JIM operates on the cartesian product of `n ≥ 2` relations. The
//! [`JoinSchema`] concatenates their attribute lists and gives every
//! attribute a **global index** ([`GlobalAttr`]) used by equality atoms.

use crate::error::{RelationError, Result};
use crate::value::DataType;
use std::fmt::{self, Write};
use std::sync::Arc;

/// A named, typed attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
}

impl Attribute {
    /// Construct an attribute.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Attribute {
            name: name.into(),
            dtype,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.dtype)
    }
}

/// Schema of a single relation: a name plus an ordered attribute list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<Attribute>,
}

impl RelationSchema {
    /// Build a schema, rejecting duplicate attribute names.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Result<Self> {
        let name = name.into();
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(RelationError::DuplicateAttribute {
                    relation: name,
                    attribute: a.name.clone(),
                });
            }
        }
        Ok(RelationSchema { name, attributes })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(name: impl Into<String>, attrs: &[(&str, DataType)]) -> Result<Self> {
        RelationSchema::new(
            name,
            attrs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect(),
        )
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered attribute list.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of the attribute with the given name.
    pub fn index_of(&self, attribute: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == attribute)
            .ok_or_else(|| RelationError::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attribute.to_string(),
            })
    }

    /// Attribute at `idx`, if any.
    pub fn attribute(&self, idx: usize) -> Option<&Attribute> {
        self.attributes.get(idx)
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// Index of an attribute in the *concatenated* schema of a join
/// (`0 ..` over all relations in order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAttr(pub u32);

impl GlobalAttr {
    /// The raw index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GlobalAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The concatenated schema of `n` relations participating in a join.
///
/// The same relation may appear several times (self-joins — the Set-cards
/// demo of Figure 5 joins the deck with itself); occurrences are
/// distinguished by their position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSchema {
    relations: Arc<[RelationSchema]>,
    /// `offsets[i]` = global index of the first attribute of relation `i`.
    offsets: Vec<u32>,
    total_attrs: u32,
}

impl JoinSchema {
    /// Build a join schema over the given relation occurrences.
    pub fn new(relations: Vec<RelationSchema>) -> Result<Self> {
        if relations.is_empty() {
            return Err(RelationError::InvalidJoin {
                message: "a join schema needs at least one relation".into(),
            });
        }
        let mut offsets = Vec::with_capacity(relations.len());
        let mut total: u32 = 0;
        for r in &relations {
            offsets.push(total);
            total += r.arity() as u32;
        }
        Ok(JoinSchema {
            relations: relations.into(),
            offsets,
            total_attrs: total,
        })
    }

    /// The participating relation schemas, in order.
    pub fn relations(&self) -> &[RelationSchema] {
        &self.relations
    }

    /// Number of relation occurrences.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total number of attributes across all occurrences.
    pub fn num_attrs(&self) -> usize {
        self.total_attrs as usize
    }

    /// Map a global attribute to `(relation occurrence, local index)`.
    pub fn locate(&self, attr: GlobalAttr) -> Result<(usize, usize)> {
        if attr.0 >= self.total_attrs {
            return Err(RelationError::AttrOutOfRange {
                index: attr.index(),
                len: self.num_attrs(),
            });
        }
        // offsets is sorted; find the last offset <= attr.
        let rel = match self.offsets.binary_search(&attr.0) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Ok((rel, (attr.0 - self.offsets[rel]) as usize))
    }

    /// Map `(relation occurrence, local index)` to a global attribute.
    pub fn global(&self, rel: usize, local: usize) -> Result<GlobalAttr> {
        let schema = self
            .relations
            .get(rel)
            .ok_or_else(|| RelationError::InvalidJoin {
                message: format!("relation occurrence {rel} out of range"),
            })?;
        if local >= schema.arity() {
            return Err(RelationError::UnknownAttribute {
                relation: schema.name().to_string(),
                attribute: format!("<local index {local}>"),
            });
        }
        Ok(GlobalAttr(self.offsets[rel] + local as u32))
    }

    /// Resolve `occurrence.attribute_name` to a global attribute.
    pub fn global_by_name(&self, rel: usize, attribute: &str) -> Result<GlobalAttr> {
        let schema = self
            .relations
            .get(rel)
            .ok_or_else(|| RelationError::InvalidJoin {
                message: format!("relation occurrence {rel} out of range"),
            })?;
        let local = schema.index_of(attribute)?;
        self.global(rel, local)
    }

    /// The attribute metadata behind a global index.
    pub fn attribute(&self, attr: GlobalAttr) -> Result<&Attribute> {
        let (rel, local) = self.locate(attr)?;
        Ok(&self.relations[rel].attributes()[local])
    }

    /// Declared type of a global attribute.
    pub fn dtype(&self, attr: GlobalAttr) -> Result<DataType> {
        Ok(self.attribute(attr)?.dtype)
    }

    /// A unique, human-readable name for a global attribute.
    ///
    /// Uses `rel.attr` when the relation occurs once, `rel#k.attr` for the
    /// k-th occurrence in a self-join.
    pub fn qualified_name(&self, attr: GlobalAttr) -> Result<String> {
        let mut out = String::new();
        self.write_qualified_name(attr, &mut out)?;
        Ok(out)
    }

    /// [`JoinSchema::qualified_name`], appended to `out`.
    pub fn write_qualified_name(&self, attr: GlobalAttr, out: &mut String) -> Result<()> {
        let (rel, local) = self.locate(attr)?;
        let schema = &self.relations[rel];
        let same_name = |r: &&RelationSchema| r.name() == schema.name();
        out.push_str(schema.name());
        if self.relations.iter().filter(same_name).count() > 1 {
            let occurrence = self.relations[..rel].iter().filter(same_name).count() + 1;
            let _ = write!(out, "#{occurrence}");
        }
        out.push('.');
        out.push_str(&schema.attributes()[local].name);
        Ok(())
    }

    /// Append the SQL alias of a relation occurrence (`r1`, `r2`, …) to
    /// `out`; stable and short, used by the SQL renderer.
    pub(crate) fn write_sql_alias(&self, rel: usize, out: &mut String) {
        let _ = write!(out, "r{}", rel + 1);
    }

    /// Iterate over all global attributes.
    pub fn attrs(&self) -> impl Iterator<Item = GlobalAttr> + '_ {
        (0..self.total_attrs).map(GlobalAttr)
    }

    /// True iff the two attributes live in different relation occurrences.
    pub fn cross_relation(&self, a: GlobalAttr, b: GlobalAttr) -> Result<bool> {
        Ok(self.locate(a)?.0 != self.locate(b)?.0)
    }
}

impl fmt::Display for JoinSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                f.write_str(" × ")?;
            }
            write!(f, "{}", r.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights() -> RelationSchema {
        RelationSchema::of(
            "flights",
            &[
                ("From", DataType::Text),
                ("To", DataType::Text),
                ("Airline", DataType::Text),
            ],
        )
        .unwrap()
    }

    fn hotels() -> RelationSchema {
        RelationSchema::of(
            "hotels",
            &[("City", DataType::Text), ("Discount", DataType::Text)],
        )
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = RelationSchema::of("r", &[("a", DataType::Int), ("a", DataType::Text)]);
        assert!(matches!(err, Err(RelationError::DuplicateAttribute { .. })));
    }

    #[test]
    fn index_of_finds_attributes() {
        let f = flights();
        assert_eq!(f.index_of("To").unwrap(), 1);
        assert!(f.index_of("Nope").is_err());
    }

    #[test]
    fn join_schema_global_indexing() {
        let js = JoinSchema::new(vec![flights(), hotels()]).unwrap();
        assert_eq!(js.num_attrs(), 5);
        assert_eq!(js.global(0, 1).unwrap(), GlobalAttr(1));
        assert_eq!(js.global(1, 0).unwrap(), GlobalAttr(3));
        assert_eq!(js.locate(GlobalAttr(3)).unwrap(), (1, 0));
        assert_eq!(js.locate(GlobalAttr(2)).unwrap(), (0, 2));
        assert!(js.locate(GlobalAttr(5)).is_err());
        assert!(js.global(2, 0).is_err());
        assert!(js.global(0, 3).is_err());
    }

    #[test]
    fn join_schema_round_trip_all_attrs() {
        let js = JoinSchema::new(vec![flights(), hotels(), flights()]).unwrap();
        for attr in js.attrs() {
            let (rel, local) = js.locate(attr).unwrap();
            assert_eq!(js.global(rel, local).unwrap(), attr);
        }
    }

    #[test]
    fn qualified_names_disambiguate_self_joins() {
        let js = JoinSchema::new(vec![flights(), hotels()]).unwrap();
        assert_eq!(js.qualified_name(GlobalAttr(1)).unwrap(), "flights.To");
        assert_eq!(js.qualified_name(GlobalAttr(3)).unwrap(), "hotels.City");

        let selfjoin = JoinSchema::new(vec![flights(), flights()]).unwrap();
        assert_eq!(
            selfjoin.qualified_name(GlobalAttr(0)).unwrap(),
            "flights#1.From"
        );
        assert_eq!(
            selfjoin.qualified_name(GlobalAttr(3)).unwrap(),
            "flights#2.From"
        );

        let mixed = JoinSchema::new(vec![flights(), hotels(), flights()]).unwrap();
        let names: Vec<String> = mixed
            .attrs()
            .map(|a| mixed.qualified_name(a).unwrap())
            .collect();
        assert_eq!(
            names.join(" "),
            "flights#1.From flights#1.To flights#1.Airline hotels.City hotels.Discount \
             flights#2.From flights#2.To flights#2.Airline"
        );
        let mut out = String::from("x ");
        mixed.write_qualified_name(GlobalAttr(6), &mut out).unwrap();
        mixed.write_sql_alias(2, &mut out);
        assert_eq!(out, "x flights#2.Tor3");
        assert!(mixed.write_qualified_name(GlobalAttr(8), &mut out).is_err());
    }

    #[test]
    fn global_by_name() {
        let js = JoinSchema::new(vec![flights(), hotels()]).unwrap();
        assert_eq!(js.global_by_name(1, "Discount").unwrap(), GlobalAttr(4));
        assert!(js.global_by_name(1, "From").is_err());
    }

    #[test]
    fn cross_relation_test() {
        let js = JoinSchema::new(vec![flights(), hotels()]).unwrap();
        assert!(js.cross_relation(GlobalAttr(1), GlobalAttr(3)).unwrap());
        assert!(!js.cross_relation(GlobalAttr(0), GlobalAttr(2)).unwrap());
    }

    #[test]
    fn empty_join_schema_rejected() {
        assert!(JoinSchema::new(vec![]).is_err());
    }

    #[test]
    fn display_formats() {
        let js = JoinSchema::new(vec![flights(), hotels()]).unwrap();
        assert_eq!(js.to_string(), "flights × hotels");
        assert_eq!(
            flights().to_string(),
            "flights(From text, To text, Airline text)"
        );
    }

    #[test]
    fn dtype_lookup() {
        let js = JoinSchema::new(vec![flights(), hotels()]).unwrap();
        assert_eq!(js.dtype(GlobalAttr(4)).unwrap(), DataType::Text);
    }
}
