//! Error types for the inference engine.

use jim_relation::{ProductId, RelationError};
use std::fmt;

/// Errors produced by the JIM inference engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceError {
    /// The user gave a label that contradicts the labels given so far
    /// (e.g. labeled a certain-positive tuple as negative). The paper's
    /// interactive scenario assumes a consistent user; surfacing this as an
    /// error lets sessions detect careless answers instead of silently
    /// corrupting the version space.
    InconsistentLabel {
        /// The tuple that was labeled.
        tuple: ProductId,
        /// `true` if the offending label was positive.
        positive: bool,
    },
    /// A tuple id was labeled twice.
    AlreadyLabeled {
        /// The tuple that was labeled before.
        tuple: ProductId,
    },
    /// One answer batch contained the same tuple id with *both* labels.
    /// Duplicates with equal labels collapse silently; a contradiction
    /// rejects the whole batch atomically (no label of it is applied).
    ConflictingBatchLabels {
        /// The tuple that appeared with both labels.
        tuple: ProductId,
    },
    /// An in-range tuple id fell in no signature group. This is an
    /// internal-invariant error, not an input error: every engine's
    /// groups cover its whole product, so an id in `0..size` always
    /// finds its group, and an id past the product fails earlier with
    /// the product's range error ([`InferenceError::Relation`]). The
    /// proptest `ids_outside_the_witness_samples_classify_and_label_alike`
    /// in `tests/factorized.rs` pins both halves.
    UnknownTuple {
        /// The offending tuple id.
        tuple: ProductId,
    },
    /// The atom universe is empty (no type-compatible attribute pairs), so
    /// there is nothing to infer.
    EmptyUniverse,
    /// The instance's cartesian product exceeded the bound on enumeration
    /// (`EngineOptions::max_product`).
    ProductTooLarge {
        /// Number of tuples in the product.
        size: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Factorized construction gave up: the relations' block structure is
    /// too rich to sweep within the configured budget. A product past the
    /// enumeration bound that fails this way cannot be opened exactly.
    FactorizationTooLarge {
        /// The estimated sweep cost (block combinations or candidate block
        /// pairs).
        cost: u64,
        /// The configured limit (`EngineOptions::max_combos`).
        limit: u64,
    },
    /// An exact computation (consistent-predicate count, optimal planner)
    /// exceeded its configured budget.
    BudgetExceeded {
        /// What was being computed.
        what: &'static str,
    },
    /// A persisted artifact (JSON transcript, wire message) failed to
    /// decode.
    Decode {
        /// What went wrong.
        message: String,
    },
    /// An error bubbled up from the relational substrate.
    Relation(RelationError),
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::InconsistentLabel { tuple, positive } => {
                let sign = if *positive { "+" } else { "-" };
                write!(
                    f,
                    "label {sign} on tuple {tuple} contradicts the labels given so far"
                )
            }
            InferenceError::AlreadyLabeled { tuple } => {
                write!(f, "tuple {tuple} is already labeled")
            }
            InferenceError::ConflictingBatchLabels { tuple } => {
                write!(f, "batch labels tuple {tuple} both + and -")
            }
            InferenceError::UnknownTuple { tuple } => {
                write!(f, "tuple {tuple} is not part of this instance")
            }
            InferenceError::EmptyUniverse => {
                f.write_str("no candidate equality atoms: the relations share no type-compatible attribute pairs")
            }
            InferenceError::ProductTooLarge { size, limit } => {
                write!(f, "cartesian product has {size} tuples, above the limit of {limit}")
            }
            InferenceError::FactorizationTooLarge { cost, limit } => {
                write!(f, "factorization too large: sweep cost {cost} exceeds limit {limit}")
            }
            InferenceError::BudgetExceeded { what } => {
                write!(f, "exact computation of {what} exceeded its budget")
            }
            InferenceError::Decode { message } => write!(f, "decode error: {message}"),
            InferenceError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InferenceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InferenceError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for InferenceError {
    fn from(e: RelationError) -> Self {
        InferenceError::Relation(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, InferenceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_tuple() {
        let e = InferenceError::InconsistentLabel {
            tuple: ProductId(7),
            positive: false,
        };
        assert!(e.to_string().contains("t7"));
        assert!(e.to_string().contains('-'));
    }

    #[test]
    fn relation_error_converts() {
        let r = RelationError::UnknownRelation {
            relation: "x".into(),
        };
        let e: InferenceError = r.clone().into();
        assert_eq!(e, InferenceError::Relation(r));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
