//! Graph substrate for the reproduction of *On the Complexity of Join
//! Predicates* (Cai, Chakaravarthy, Kaushik, Naughton — PODS 2001).
//!
//! The paper models a join instance as a **bipartite join graph**
//! `G = (R, S, E)` with one vertex per tuple and one edge per joining pair,
//! and studies a two-pebble game whose moves live on that graph. This crate
//! provides everything graph-theoretic the paper needs:
//!
//! * [`BipartiteGraph`] — join graphs themselves (§2 of the paper);
//! * [`Graph`] — general undirected graphs, used for line graphs, TSP(1,2)
//!   instances and the reduction gadgets (§2.2, §4);
//! * [`mod@line_graph`] — the line graph `L(G)` construction that turns
//!   pebbling into a traveling-salesman path problem (Propositions 2.1/2.2);
//! * [`hamilton`] — exact Hamiltonian-path search (perfect pebblings exist
//!   iff `L(G)` is traceable, Proposition 2.1);
//! * [`generators`] — every graph family the paper mentions, including the
//!   worst-case family `G_n` of Figure 1;
//! * [`components`], [`traversal`], [`properties`] — the structural
//!   subroutines (Betti number `β₀`, DFS trees, complete-bipartite tests)
//!   used by the bounds and the 1.25-approximation of Theorem 3.1;
//! * [`dot`] — DOT export used to regenerate the paper's figures.

pub mod bipartite;
pub mod canon;
pub mod components;
pub mod dot;
pub mod generators;
pub mod graph;
pub mod hamilton;
pub mod line_graph;
pub mod matching;
pub mod metrics;
pub mod properties;
pub mod traversal;

pub use bipartite::{quotient, BipartiteGraph, Side, Vertex};
pub use components::{betti_number, ComponentMap};
pub use graph::Graph;
pub use line_graph::line_graph;
pub use matching::{maximum_matching, Matching};
