//! `jp-pebble` — the core of the reproduction of *On the Complexity of
//! Join Predicates* (Cai, Chakaravarthy, Kaushik, Naughton — PODS 2001).
//!
//! The paper models any join algorithm's tuple-level work as a two-pebble
//! game on the join graph and classifies join predicates two ways:
//!
//! * **combinatorially** — by the optimal pebbling cost `π(G)` of the join
//!   graphs the predicate can produce: `m` for equijoins (perfect,
//!   Theorem 3.2) up to `1.25m − 1` for set-containment and
//!   spatial-overlap joins (Theorems 3.1/3.3, Lemma 3.4);
//! * **computationally** — by the complexity of *finding* an optimal
//!   pebbling: linear time for equijoins (Theorem 4.1), NP-complete
//!   (Theorem 4.2) and MAX-SNP-complete (Theorem 4.4) in general.
//!
//! Module map:
//!
//! * [`scheme`] — configurations, schemes, costs `π̂`/`π`, validation;
//! * [`bounds`] — the §2.1/§3 combinatorial bounds;
//! * [`tsp`] — the TSP(1,2) view of pebbling over line graphs (§2.2);
//! * [`exact`] — optimal pebbling via a layered endpoint-set DP over
//!   `L(G)` and the `PEBBLE(D)` decision procedure; [`exact_bb`] —
//!   budgeted branch-and-bound exactness beyond the DP's memory wall;
//! * [`approx`] — the constructive 1.25-approximation of Theorem 3.1, the
//!   linear-time equijoin pebbler of Theorem 4.1, and the heuristic
//!   ladder (nearest neighbour, greedy path cover, Euler trails, 2-opt);
//! * [`portfolio`] — the whole ladder raced in parallel on the `jp-par`
//!   work-stealing runtime against a shared atomic incumbent, with
//!   lower-bound-certified abandonment;
//! * [`memo`] — workload-level memoization: closed-form recognizers plus
//!   a sharded cache keyed by canonical component form, so isomorphic
//!   components are solved once per workload (or once per lifetime, with
//!   JSONL persistence);
//! * [`families`] — closed-form optima for the structured families,
//!   including the Figure 1 worst-case spiders `G_n`;
//! * [`reductions`] — the L-reductions of §4 (diamond gadget,
//!   TSP-4(1,2) → TSP-3(1,2), TSP-3(1,2) → PEBBLE);
//! * [`analysis`] — per-scheme statistics and implied-scheme conversion
//!   used by the experiment harness;
//! * [`fragmentation`] — the §5 open problem (optimal tuple-to-fragment
//!   mappings), implemented as exact + heuristic solvers;
//! * [`paging`] — the page-fetch scheduling model of the paper's §2
//!   related work (Merrett et al. / Neyer–Widmayer), reconstructed as
//!   pebbling the quotient page graph;
//! * [`buffers`] — the `B`-buffer generalization: the 1.25 worst case is
//!   specific to two pebbles and collapses at `B = 3`.

pub mod analysis;
pub mod approx;
pub mod bounds;
pub mod buffers;
pub mod exact;
pub mod exact_bb;
pub mod families;
pub mod fragmentation;
pub mod memo;
pub mod paging;
pub mod portfolio;
pub mod reductions;
pub mod scheme;
pub mod tsp;

pub use scheme::{Config, PebblingScheme};

/// Errors produced by scheme construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PebbleError {
    /// Consecutive configurations differ in more (or fewer) than one
    /// pebble — the canonical-form invariant is broken at index `at`.
    NotCanonical {
        /// Index of the offending transition.
        at: usize,
    },
    /// An edge id exceeds the graph's edge count.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: usize,
    },
    /// A configuration pebbles a vertex that does not exist in the
    /// graph — the scheme was built for a different (larger) graph.
    VertexOutOfRange {
        /// The offending pebble position.
        vertex: jp_graph::Vertex,
        /// How many vertices that side of the graph actually has.
        side_count: u32,
    },
    /// A tuple pair referenced by a trace is not an edge of the join
    /// graph (the pair does not join).
    NotAnEdge {
        /// Left tuple id.
        left: u32,
        /// Right tuple id.
        right: u32,
    },
    /// The scheme finished without deleting this edge.
    EdgeNotDeleted {
        /// The first undeleted edge.
        edge: usize,
    },
    /// The graph is not an equijoin join graph (some component is not
    /// complete bipartite) — returned by the Theorem 4.1 pebbler.
    NotEquijoinGraph,
    /// A buffer pool smaller than two slots cannot play the game (the
    /// paper's game *is* the two-slot case).
    BufferTooSmall {
        /// The requested capacity.
        buffer: usize,
    },
    /// A branch-and-bound search exhausted its node budget before
    /// proving optimality.
    BudgetExhausted {
        /// The exhausted node budget.
        budget: u64,
        /// Search nodes actually expanded before giving up.
        nodes: u64,
    },
    /// The instance is too large for the exact solver.
    TooLarge {
        /// Edges in the largest connected component.
        component_edges: usize,
        /// The solver's limit.
        limit: usize,
    },
    /// A page layout would need more pages than `u32` page ids can
    /// address — rejected up front instead of silently truncating.
    TooManyPages {
        /// Pages the layout would need on the overflowing side.
        pages: usize,
    },
}

impl std::fmt::Display for PebbleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PebbleError::NotCanonical { at } => {
                write!(
                    f,
                    "configurations {at} and {} differ in more than one pebble",
                    at + 1
                )
            }
            PebbleError::EdgeOutOfRange { edge } => write!(f, "edge id {edge} out of range"),
            PebbleError::VertexOutOfRange { vertex, side_count } => write!(
                f,
                "configuration pebbles {vertex}, but that side of the graph has only \
                 {side_count} vertices"
            ),
            PebbleError::NotAnEdge { left, right } => {
                write!(f, "tuple pair ({left}, {right}) is not a join-graph edge")
            }
            PebbleError::EdgeNotDeleted { edge } => {
                write!(f, "scheme never deletes edge {edge}")
            }
            PebbleError::NotEquijoinGraph => {
                write!(f, "graph has a component that is not complete bipartite")
            }
            PebbleError::BufferTooSmall { buffer } => {
                write!(
                    f,
                    "buffer capacity {buffer} is below the two-pebble minimum"
                )
            }
            PebbleError::BudgetExhausted { budget, nodes } => write!(
                f,
                "branch-and-bound node budget of {budget} exhausted after expanding {nodes} \
                 nodes without proving optimality; re-run with a larger --budget"
            ),
            PebbleError::TooLarge {
                component_edges,
                limit,
            } => write!(
                f,
                "component with {component_edges} edges exceeds exact-solver limit {limit}"
            ),
            PebbleError::TooManyPages { pages } => {
                write!(f, "layout needs {pages} pages, but page ids are u32")
            }
        }
    }
}

impl std::error::Error for PebbleError {}
