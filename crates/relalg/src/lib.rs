#![forbid(unsafe_code)]
//! Relational substrate for the reproduction of *On the Complexity of
//! Join Predicates* (PODS 2001).
//!
//! Implements §2's model exactly: single-column multiset relations
//! ([`relation::Relation`]), join predicates ([`predicate`]), and the
//! join graph ([`mod@join_graph`]) that the pebble game is played on —
//! plus real join algorithms ([`algorithms`]), the realization lemmas
//! ([`realize`]: Lemma 3.3 set-containment universality, Lemma 3.4
//! spatial realization), synthetic workload generators ([`workload`]),
//! and join-algorithm access traces ([`trace`]) whose implied pebbling
//! cost experiment E16 measures.

pub mod algorithms;
pub mod error;
pub mod join_graph;
pub mod parallel;
pub mod predicate;
pub mod query;
pub mod realize;
pub mod relation;
pub mod trace;
pub mod trie;
pub mod value;
pub mod workload;

pub use algorithms::multiway::{
    explain_plan, query_join_graph, solve as multiway_solve, AtomExplain, MultiwayAlgo,
    MultiwayOutput, MultiwayStats, PlanExplain,
};
pub use error::RelalgError;
pub use join_graph::{containment_graph, equijoin_graph, join_graph, spatial_graph};
pub use predicate::JoinPredicate;
pub use query::{Atom, ConjunctiveQuery};
pub use relation::Relation;
pub use trie::{DenseNode, MultiRelation, TrieIndex, TrieIter};
pub use value::{IdSet, Value};
