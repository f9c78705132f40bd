//! `join-predicates` — facade crate for the reproduction of
//! *On the Complexity of Join Predicates* (Cai, Chakaravarthy, Kaushik,
//! Naughton — PODS 2001).
//!
//! The paper models the tuple-level work of a join as a two-pebble game on
//! the bipartite *join graph* and separates join predicates by the optimal
//! pebbling cost of the graphs they can produce and by the complexity of
//! finding optimal pebblings. This crate re-exports the four layers:
//!
//! * [`graph`] — bipartite graphs, line graphs, Hamiltonian paths,
//!   generators (substrate);
//! * [`geometry`] — rectangles, rectilinear regions, R-trees, sweeps
//!   (substrate for spatial-overlap joins);
//! * [`relalg`] — relations, join predicates, join-graph construction,
//!   real join algorithms, the universality/realization lemmas;
//! * [`pebble`] — the paper's contribution: pebbling schemes, cost bounds,
//!   exact and approximate solvers, and the MAX-SNP L-reductions.
//!
//! # Quickstart
//!
//! ```
//! use join_predicates::prelude::*;
//!
//! // Two single-column relations joined by equality.
//! let r = Relation::from_ints("R", [1, 1, 2, 7]);
//! let s = Relation::from_ints("S", [1, 2, 2, 5]);
//! let g = join_graph(&r, &s, &Equality).unwrap();
//!
//! // Equijoin join graphs are unions of complete bipartite graphs and
//! // pebble perfectly (Theorem 3.2): effective cost == number of edges.
//! let scheme = pebble_equijoin(&g).expect("equijoin graph");
//! assert_eq!(scheme.effective_cost(&g), g.edge_count());
//! ```

pub use jp_geometry as geometry;
pub use jp_graph as graph;
pub use jp_pebble as pebble;
pub use jp_relalg as relalg;

/// Convenience re-exports covering the public API most examples need.
pub mod prelude {
    pub use jp_graph::{betti_number, generators, line_graph, BipartiteGraph, Graph, Side, Vertex};

    pub use jp_geometry::{Point, Rect, Region};

    pub use jp_relalg::{
        join_graph,
        predicate::{Equality, JoinPredicate, SetContainment, SetOverlap, SpatialOverlap},
        realize,
        relation::Relation,
        value::Value,
    };

    pub use jp_pebble::{
        approx::{dfs_partition, equijoin::pebble_equijoin, nearest_neighbor, path_cover},
        bounds,
        exact::{optimal_effective_cost, optimal_scheme, optimal_total_cost},
        scheme::{Config, PebblingScheme},
        tsp::Tsp12,
    };
}
