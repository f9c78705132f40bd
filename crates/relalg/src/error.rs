//! Classified errors for the relational layer.
//!
//! Two families of failure used to abort the process instead of
//! reporting: relations larger than `u32::MAX` tuples silently *wrapped*
//! their tuple ids through `as u32` casts (colliding distinct tuples in
//! the join graph), and a predicate applied to the wrong value domain
//! (`r.A ⊆ s.B` over integers, say) hit an `expect` deep inside a
//! builder. Both are **input** errors — adversarial workloads reach the
//! builders through the CLI and the realizers — so they surface here as
//! typed variants instead of panics.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::missing_panics_doc
    )
)]

use crate::relation::Relation;
use std::fmt;

/// A classified relational-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelalgError {
    /// Tuple ids in join graphs and results are `u32`; a relation with
    /// more tuples than `u32::MAX` cannot be represented without id
    /// collisions, so it is rejected instead of silently wrapping.
    TooManyTuples {
        /// Name of the offending relation.
        relation: String,
        /// Its (unrepresentable) tuple count.
        len: usize,
    },
    /// A tuple's value kind does not match the predicate's domain (for
    /// example an `Int` where set-containment needs a `Set`).
    WrongDomain {
        /// Name of the offending relation.
        relation: String,
        /// Tuple position of the first mismatch.
        tuple: usize,
        /// Domain the predicate evaluates over.
        expected: &'static str,
        /// Domain actually found at `tuple`.
        found: &'static str,
    },
    /// A conjunctive query with no atoms.
    EmptyQuery,
    /// An atom referenced a relation index outside the provided slice.
    UnknownRelation {
        /// Atom position in the query.
        atom: usize,
        /// The out-of-range relation index.
        relation: usize,
        /// How many relations were provided.
        available: usize,
    },
    /// A relation's arity does not match its atom's variable count.
    ArityMismatch {
        /// Name of the offending relation.
        relation: String,
        /// Arity the atom requires.
        expected: usize,
        /// The relation's actual arity.
        found: usize,
    },
    /// An atom repeats a variable (`R(x, x)` is not supported by the
    /// trie iterators).
    RepeatedVariable {
        /// Atom position in the query.
        atom: usize,
        /// The repeated variable.
        var: u32,
    },
    /// The query's fractional edge cover leaves a variable uncovered
    /// (incident weights sum to less than 1), so it certifies no AGM
    /// output bound.
    UncoveredVariable {
        /// The uncovered variable.
        var: u32,
    },
    /// The fractional edge cover has the wrong number of weights or a
    /// negative weight.
    MalformedCover {
        /// What is wrong with it.
        detail: String,
    },
    /// An unknown multiway algorithm name.
    UnknownAlgorithm {
        /// The name that did not resolve.
        name: String,
    },
    /// An internal invariant failed. Never expected; reported instead
    /// of panicking so the planning service cannot be taken down by a
    /// latent bug in the trie iterators.
    Internal(&'static str),
}

impl fmt::Display for RelalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelalgError::TooManyTuples { relation, len } => write!(
                f,
                "relation {relation:?} has {len} tuples; tuple ids are u32, so at most \
                 {} tuples are representable",
                u32::MAX
            ),
            RelalgError::WrongDomain {
                relation,
                tuple,
                expected,
                found,
            } => write!(
                f,
                "relation {relation:?} tuple {tuple} is {found}-valued where the \
                 predicate needs {expected}"
            ),
            RelalgError::EmptyQuery => write!(f, "conjunctive query has no atoms"),
            RelalgError::UnknownRelation {
                atom,
                relation,
                available,
            } => write!(
                f,
                "atom {atom} references relation {relation} but only {available} were provided"
            ),
            RelalgError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation {relation:?} has arity {found} but its atom binds {expected} variables"
            ),
            RelalgError::RepeatedVariable { atom, var } => {
                write!(f, "atom {atom} repeats variable v{var}")
            }
            RelalgError::UncoveredVariable { var } => write!(
                f,
                "fractional edge cover leaves variable v{var} uncovered (incident weight < 1)"
            ),
            RelalgError::MalformedCover { detail } => {
                write!(f, "malformed fractional edge cover: {detail}")
            }
            RelalgError::UnknownAlgorithm { name } => write!(
                f,
                "unknown multiway join algorithm {name:?} (expected lftj, generic, or cascade)"
            ),
            RelalgError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for RelalgError {}

/// Converts a tuple position to a `u32` tuple id, rejecting relations
/// beyond the representable range — the checked discipline shared by the
/// join-graph builders, traces, and the fragmented executor.
pub(crate) fn checked_tuple_count(rel: &Relation) -> Result<u32, RelalgError> {
    u32::try_from(rel.len()).map_err(|_| RelalgError::TooManyTuples {
        relation: rel.name().to_string(),
        len: rel.len(),
    })
}

/// The set carried by tuple `i` of `rel`, or the classified domain error.
pub(crate) fn require_set(rel: &Relation, i: usize) -> Result<&crate::value::IdSet, RelalgError> {
    let v = rel.value(i);
    v.as_set().ok_or_else(|| RelalgError::WrongDomain {
        relation: rel.name().to_string(),
        tuple: i,
        expected: "set",
        found: v.domain(),
    })
}

/// The region carried by tuple `i` of `rel`, or the classified domain
/// error.
pub(crate) fn require_region(
    rel: &Relation,
    i: usize,
) -> Result<&jp_geometry::Region, RelalgError> {
    let v = rel.value(i);
    v.as_region().ok_or_else(|| RelalgError::WrongDomain {
        relation: rel.name().to_string(),
        tuple: i,
        expected: "spatial",
        found: v.domain(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::IdSet;

    #[test]
    fn display_variants() {
        let e = RelalgError::TooManyTuples {
            relation: "R".into(),
            len: 5_000_000_000,
        };
        assert!(e.to_string().contains("5000000000"));
        let e = RelalgError::WrongDomain {
            relation: "R".into(),
            tuple: 3,
            expected: "set",
            found: "int",
        };
        assert!(e.to_string().contains("tuple 3"));
        assert!(e.to_string().contains("int"));
        assert!(RelalgError::EmptyQuery.to_string().contains("no atoms"));
        assert!(RelalgError::UncoveredVariable { var: 2 }
            .to_string()
            .contains("v2"));
    }

    #[test]
    fn require_set_classifies() {
        let r = Relation::from_ints("R", [1]);
        match require_set(&r, 0) {
            Err(RelalgError::WrongDomain {
                expected, found, ..
            }) => {
                assert_eq!(expected, "set");
                assert_eq!(found, "int");
            }
            other => panic!("expected WrongDomain, got {other:?}"),
        }
        let s = Relation::from_sets("S", [IdSet::empty()]);
        assert!(require_set(&s, 0).is_ok());
    }

    #[test]
    fn checked_tuple_count_small_relations_pass() {
        let r = Relation::from_ints("R", [1, 2, 3]);
        assert_eq!(checked_tuple_count(&r).unwrap(), 3);
    }
}
