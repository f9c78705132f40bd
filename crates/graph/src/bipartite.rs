//! Bipartite join graphs (§2 of the paper).
//!
//! A join instance over relations `R` and `S` induces the bipartite graph
//! `G = (R, S, E)` with an edge per joining tuple pair. The paper works with
//! the edge set only: "we will remove a priori all isolated vertices, and
//! assume henceforth that all `G` in this paper have no singletons". The
//! [`BipartiteGraph::strip_isolated`] method implements exactly that step.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which side of the bipartition a vertex belongs to (`R` is left, `S` is
/// right, matching the paper's `G = (R, S, E)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Side {
    /// The `R` side (left partition).
    Left,
    /// The `S` side (right partition).
    Right,
}

/// A vertex of a bipartite graph, identified by side and index within that
/// side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Vertex {
    /// Partition the vertex belongs to.
    pub side: Side,
    /// Index within the partition (`0..left_count()` or `0..right_count()`).
    pub index: u32,
}

impl Vertex {
    /// Vertex `index` on the `R` side.
    pub fn left(index: u32) -> Self {
        Vertex {
            side: Side::Left,
            index,
        }
    }

    /// Vertex `index` on the `S` side.
    pub fn right(index: u32) -> Self {
        Vertex {
            side: Side::Right,
            index,
        }
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.side {
            Side::Left => write!(f, "r{}", self.index),
            Side::Right => write!(f, "s{}", self.index),
        }
    }
}

/// An undirected bipartite graph with partitions of fixed size and a
/// deduplicated, sorted edge list.
///
/// Edges are pairs `(l, r)` with `l` an index into the left partition and
/// `r` an index into the right partition. Edge indices (positions in
/// [`BipartiteGraph::edges`]) are stable and are the vertex ids of the line
/// graph [`crate::line_graph::line_graph`] builds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "BipartiteGraphData", into = "BipartiteGraphData")]
pub struct BipartiteGraph {
    left: u32,
    right: u32,
    edges: Vec<(u32, u32)>,
    left_adj: Vec<Vec<u32>>,
    right_adj: Vec<Vec<u32>>,
}

/// Serialization proxy: only partition sizes and the edge list are
/// persisted; adjacency is rebuilt on deserialization.
#[derive(Serialize, Deserialize)]
struct BipartiteGraphData {
    left: u32,
    right: u32,
    edges: Vec<(u32, u32)>,
}

impl TryFrom<BipartiteGraphData> for BipartiteGraph {
    type Error = GraphError;

    fn try_from(d: BipartiteGraphData) -> Result<Self, GraphError> {
        BipartiteGraph::try_new(d.left, d.right, d.edges)
    }
}

/// Isolated vertices a graph may declare beyond the `2m` its `m` edges
/// can touch (see [`BipartiteGraph::try_new`]).
pub const MAX_ISOLATED_VERTICES: u64 = 1 << 16;

/// Why [`BipartiteGraph::try_new`] refused a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge names a vertex its side does not have.
    EndpointOutOfRange {
        /// The offending edge `(l, r)`.
        edge: (u32, u32),
        /// Declared left partition size.
        left: u32,
        /// Declared right partition size.
        right: u32,
    },
    /// `left + right` exceeds `2m + MAX_ISOLATED_VERTICES`.
    TooManyVertices {
        /// Declared `left + right`.
        vertices: u64,
        /// The cap for this edge count.
        cap: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { edge, left, right } => write!(
                f,
                "edge ({}, {}) out of range for a {left}×{right} graph",
                edge.0, edge.1
            ),
            GraphError::TooManyVertices { vertices, cap } => write!(
                f,
                "{vertices} vertices exceed the cap of {cap} \
                 (2 per edge plus {MAX_ISOLATED_VERTICES} isolated)"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<BipartiteGraph> for BipartiteGraphData {
    fn from(g: BipartiteGraph) -> Self {
        BipartiteGraphData {
            left: g.left,
            right: g.right,
            edges: g.edges,
        }
    }
}

impl BipartiteGraph {
    /// Builds a bipartite graph from partition sizes and an edge list.
    ///
    /// Duplicate edges are collapsed (relations are multisets, but the join
    /// *graph* is simple: a pair of tuples either joins or does not). Edges
    /// are sorted lexicographically.
    ///
    /// ```
    /// use jp_graph::BipartiteGraph;
    ///
    /// let g = BipartiteGraph::new(2, 2, vec![(1, 0), (0, 0), (1, 0)]);
    /// assert_eq!(g.edges(), &[(0, 0), (1, 0)]);
    /// assert_eq!(g.edge_count(), 2);
    /// ```
    ///
    /// For trusted callers (generators, transformations of graphs that
    /// already exist); untrusted input goes through
    /// [`BipartiteGraph::try_new`].
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range.
    pub fn new(left: u32, right: u32, mut edges: Vec<(u32, u32)>) -> Self {
        for &(l, r) in &edges {
            assert!(
                l < left,
                "left endpoint {l} out of range (left size {left})"
            );
            assert!(
                r < right,
                "right endpoint {r} out of range (right size {right})"
            );
        }
        edges.sort_unstable();
        edges.dedup();
        let mut g = BipartiteGraph {
            left,
            right,
            edges,
            left_adj: Vec::new(),
            right_adj: Vec::new(),
        };
        g.rebuild_adjacency();
        g
    }

    /// The fallible [`BipartiteGraph::new`], for untrusted input (wire
    /// frames, graph files, memo files): an out-of-range endpoint or an
    /// oversized vertex count is a [`GraphError`], never a panic or an
    /// allocation the input did not pay for.
    ///
    /// The vertex cap follows from the paper's normalization: `m` edges
    /// touch at most `2m` vertices, and every other vertex is isolated,
    /// which adds nothing to the pebbling cost. So `left + right` may
    /// exceed `2m` only by [`MAX_ISOLATED_VERTICES`], enough for
    /// non-joining tuples but not for a short input to demand gigabytes of
    /// adjacency.
    ///
    /// ```
    /// use jp_graph::{BipartiteGraph, GraphError};
    ///
    /// assert!(BipartiteGraph::try_new(2, 2, vec![(1, 0)]).is_ok());
    /// assert!(matches!(
    ///     BipartiteGraph::try_new(1, 1, vec![(0, 1)]),
    ///     Err(GraphError::EndpointOutOfRange { .. })
    /// ));
    /// assert!(matches!(
    ///     BipartiteGraph::try_new(4_000_000_000, 1, vec![(0, 0)]),
    ///     Err(GraphError::TooManyVertices { .. })
    /// ));
    /// ```
    pub fn try_new(left: u32, right: u32, edges: Vec<(u32, u32)>) -> Result<Self, GraphError> {
        if let Some(&edge) = edges.iter().find(|&&(l, r)| l >= left || r >= right) {
            return Err(GraphError::EndpointOutOfRange { edge, left, right });
        }
        let vertices = u64::from(left) + u64::from(right);
        let cap = 2 * edges.len() as u64 + MAX_ISOLATED_VERTICES;
        if vertices > cap {
            return Err(GraphError::TooManyVertices { vertices, cap });
        }
        Ok(BipartiteGraph::new(left, right, edges))
    }

    fn rebuild_adjacency(&mut self) {
        self.left_adj = vec![Vec::new(); self.left as usize];
        self.right_adj = vec![Vec::new(); self.right as usize];
        for &(l, r) in &self.edges {
            self.left_adj[l as usize].push(r);
            self.right_adj[r as usize].push(l);
        }
    }

    /// Number of vertices in the left (`R`) partition.
    pub fn left_count(&self) -> u32 {
        self.left
    }

    /// Number of vertices in the right (`S`) partition.
    pub fn right_count(&self) -> u32 {
        self.right
    }

    /// Total number of vertices.
    pub fn vertex_count(&self) -> u32 {
        self.left + self.right
    }

    /// Number of edges `m`. The paper measures everything in terms of `m`,
    /// "the number of tuples produced by the join".
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The sorted, deduplicated edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The endpoints of edge `e` as [`Vertex`] values.
    pub fn edge_vertices(&self, e: usize) -> (Vertex, Vertex) {
        let (l, r) = self.edges[e];
        (Vertex::left(l), Vertex::right(r))
    }

    /// Right-side neighbours of left vertex `l`.
    pub fn left_neighbors(&self, l: u32) -> &[u32] {
        &self.left_adj[l as usize]
    }

    /// Left-side neighbours of right vertex `r`.
    pub fn right_neighbors(&self, r: u32) -> &[u32] {
        &self.right_adj[r as usize]
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: Vertex) -> usize {
        match v.side {
            Side::Left => self.left_adj[v.index as usize].len(),
            Side::Right => self.right_adj[v.index as usize].len(),
        }
    }

    /// Whether the edge `(l, r)` is present. Binary search over the sorted
    /// edge list.
    pub fn has_edge(&self, l: u32, r: u32) -> bool {
        self.edges.binary_search(&(l, r)).is_ok()
    }

    /// Position of edge `(l, r)` in the edge list, if present.
    pub fn edge_index(&self, l: u32, r: u32) -> Option<usize> {
        self.edges.binary_search(&(l, r)).ok()
    }

    /// Whether the graph has any isolated (degree-0) vertices.
    pub fn has_isolated_vertices(&self) -> bool {
        self.left_adj.iter().any(Vec::is_empty) || self.right_adj.iter().any(Vec::is_empty)
    }

    /// Removes isolated vertices, re-indexing both partitions densely.
    ///
    /// This is the paper's normalization step ("we will remove a priori all
    /// isolated vertices"): tuples that join with nothing play no role in
    /// the pebble game. Returns the stripped graph together with the maps
    /// from new indices back to original indices.
    pub fn strip_isolated(&self) -> (BipartiteGraph, Vec<u32>, Vec<u32>) {
        let left_keep: Vec<u32> = (0..self.left)
            .filter(|&l| !self.left_adj[l as usize].is_empty())
            .collect();
        let right_keep: Vec<u32> = (0..self.right)
            .filter(|&r| !self.right_adj[r as usize].is_empty())
            .collect();
        let mut left_map = vec![u32::MAX; self.left as usize];
        for (new, &old) in left_keep.iter().enumerate() {
            left_map[old as usize] = new as u32;
        }
        let mut right_map = vec![u32::MAX; self.right as usize];
        for (new, &old) in right_keep.iter().enumerate() {
            right_map[old as usize] = new as u32;
        }
        let edges = self
            .edges
            .iter()
            .map(|&(l, r)| (left_map[l as usize], right_map[r as usize]))
            .collect();
        let g = BipartiteGraph::new(left_keep.len() as u32, right_keep.len() as u32, edges);
        (g, left_keep, right_keep)
    }

    /// Disjoint union `G ⊎ H` (Lemma 2.2 studies its pebbling cost).
    ///
    /// `H`'s left vertices are shifted by `self.left_count()` and its right
    /// vertices by `self.right_count()`.
    pub fn disjoint_union(&self, other: &BipartiteGraph) -> BipartiteGraph {
        let mut edges = self.edges.clone();
        edges.extend(
            other
                .edges
                .iter()
                .map(|&(l, r)| (l + self.left, r + self.right)),
        );
        BipartiteGraph::new(self.left + other.left, self.right + other.right, edges)
    }

    /// The subgraph induced by a subset of edges, with vertices re-indexed
    /// densely (isolated vertices of the subgraph are dropped).
    pub fn edge_subgraph(&self, edge_ids: &[usize]) -> BipartiteGraph {
        let edges: Vec<(u32, u32)> = edge_ids.iter().map(|&e| self.edges[e]).collect();
        let left = self.left;
        let right = self.right;
        let (g, _, _) = BipartiteGraph::new(left, right, edges).strip_isolated();
        g
    }

    /// Iterator over all vertices (left first, then right).
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        (0..self.left)
            .map(Vertex::left)
            .chain((0..self.right).map(Vertex::right))
    }

    /// Flattens a [`Vertex`] into a single index in `0..vertex_count()`
    /// (left vertices first). Useful for union-find and visited arrays.
    pub fn flat_index(&self, v: Vertex) -> usize {
        match v.side {
            Side::Left => v.index as usize,
            Side::Right => (self.left + v.index) as usize,
        }
    }

    /// Inverse of [`BipartiteGraph::flat_index`].
    pub fn unflatten(&self, idx: usize) -> Vertex {
        if (idx as u32) < self.left {
            Vertex::left(idx as u32)
        } else {
            Vertex::right(idx as u32 - self.left)
        }
    }
}

impl fmt::Display for BipartiteGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BipartiteGraph(|R|={}, |S|={}, m={})",
            self.left,
            self.right,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> BipartiteGraph {
        // r0 - s0 - r1 - s1
        BipartiteGraph::new(2, 2, vec![(0, 0), (1, 0), (1, 1)])
    }

    #[test]
    fn new_sorts_and_dedups() {
        let g = BipartiteGraph::new(2, 2, vec![(1, 1), (0, 0), (1, 1), (1, 0)]);
        assert_eq!(g.edges(), &[(0, 0), (1, 0), (1, 1)]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        BipartiteGraph::new(1, 1, vec![(0, 1)]);
    }

    #[test]
    fn try_new_classifies_bad_input() {
        assert_eq!(
            BipartiteGraph::try_new(1, 1, vec![(0, 1)]),
            Err(GraphError::EndpointOutOfRange {
                edge: (0, 1),
                left: 1,
                right: 1
            })
        );
        // the frame that once aborted jp serve: 4e9 declared vertices,
        // two edges
        let err = BipartiteGraph::try_new(4_000_000_000, 1, vec![(0, 0), (1, 0)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::TooManyVertices {
                vertices: 4_000_000_001,
                cap: 4 + MAX_ISOLATED_VERTICES
            }
        );
        assert!(err.to_string().contains("4000000001"), "{err}");
        // the cap itself is accepted, one more is not
        let at_cap = MAX_ISOLATED_VERTICES as u32 + 1;
        assert!(BipartiteGraph::try_new(at_cap, 1, vec![(0, 0)]).is_ok());
        assert!(BipartiteGraph::try_new(at_cap + 2, 1, vec![(0, 0)]).is_err());
        // valid input builds exactly what `new` builds
        assert_eq!(
            BipartiteGraph::try_new(2, 2, vec![(1, 1), (0, 0), (1, 1)]).unwrap(),
            BipartiteGraph::new(2, 2, vec![(1, 1), (0, 0), (1, 1)])
        );
    }

    #[test]
    fn serde_rejects_what_try_new_rejects() {
        let huge = r#"{"left":4000000000,"right":1,"edges":[[0,0],[1,0]]}"#;
        let err = serde_json::from_str::<BipartiteGraph>(huge).unwrap_err();
        assert!(err.to_string().contains("exceed the cap"), "{err}");
        let out = r#"{"left":1,"right":1,"edges":[[0,1]]}"#;
        let err = serde_json::from_str::<BipartiteGraph>(out).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = path3();
        assert_eq!(g.left_neighbors(0), &[0]);
        assert_eq!(g.left_neighbors(1), &[0, 1]);
        assert_eq!(g.right_neighbors(0), &[0, 1]);
        assert_eq!(g.degree(Vertex::left(1)), 2);
        assert_eq!(g.degree(Vertex::right(1)), 1);
    }

    #[test]
    fn has_edge_and_index() {
        let g = path3();
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_index(1, 1), Some(2));
        assert_eq!(g.edge_index(0, 1), None);
    }

    #[test]
    fn strip_isolated_removes_and_reindexes() {
        let g = BipartiteGraph::new(4, 3, vec![(0, 2), (3, 2)]);
        assert!(g.has_isolated_vertices());
        let (s, lmap, rmap) = g.strip_isolated();
        assert_eq!(s.left_count(), 2);
        assert_eq!(s.right_count(), 1);
        assert_eq!(s.edges(), &[(0, 0), (1, 0)]);
        assert_eq!(lmap, vec![0, 3]);
        assert_eq!(rmap, vec![2]);
        assert!(!s.has_isolated_vertices());
    }

    #[test]
    fn strip_isolated_is_identity_when_clean() {
        let g = path3();
        let (s, lmap, rmap) = g.strip_isolated();
        assert_eq!(s, g);
        assert_eq!(lmap, vec![0, 1]);
        assert_eq!(rmap, vec![0, 1]);
    }

    #[test]
    fn disjoint_union_shifts_indices() {
        let g = path3();
        let h = BipartiteGraph::new(1, 1, vec![(0, 0)]);
        let u = g.disjoint_union(&h);
        assert_eq!(u.left_count(), 3);
        assert_eq!(u.right_count(), 3);
        assert_eq!(u.edge_count(), 4);
        assert!(u.has_edge(2, 2));
    }

    #[test]
    fn edge_subgraph_drops_isolated() {
        let g = path3();
        let s = g.edge_subgraph(&[0]);
        assert_eq!(s.left_count(), 1);
        assert_eq!(s.right_count(), 1);
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = path3();
        for v in g.vertices() {
            assert_eq!(g.unflatten(g.flat_index(v)), v);
        }
        assert_eq!(g.vertices().count(), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Vertex::left(3).to_string(), "r3");
        assert_eq!(Vertex::right(0).to_string(), "s0");
        assert_eq!(path3().to_string(), "BipartiteGraph(|R|=2, |S|=2, m=3)");
    }
}

/// The quotient of a bipartite graph under vertex classifications: left
/// vertex `l` maps to class `left_class[l]`, right vertex `r` to
/// `right_class[r]`; the quotient has an edge between two classes iff
/// some original edge connects them.
///
/// This is the shared abstraction behind page-level pebbling (tuples →
/// pages; the related work of Merrett et al. the paper builds on) and
/// fragment mappings (tuples → fragments, the §5 open problem): in both,
/// the derived problem lives on the quotient graph.
///
/// # Panics
/// Panics if a classification is the wrong length or a class id is out
/// of range.
pub fn quotient(
    g: &BipartiteGraph,
    left_class: &[u32],
    n_left_classes: u32,
    right_class: &[u32],
    n_right_classes: u32,
) -> BipartiteGraph {
    assert_eq!(
        left_class.len(),
        g.left_count() as usize,
        "left classification length"
    );
    assert_eq!(
        right_class.len(),
        g.right_count() as usize,
        "right classification length"
    );
    let edges = g
        .edges()
        .iter()
        .map(|&(l, r)| {
            let cl = left_class[l as usize];
            let cr = right_class[r as usize];
            assert!(cl < n_left_classes, "left class {cl} out of range");
            assert!(cr < n_right_classes, "right class {cr} out of range");
            (cl, cr)
        })
        .collect();
    BipartiteGraph::new(n_left_classes, n_right_classes, edges)
}

#[cfg(test)]
mod quotient_tests {
    use super::*;

    #[test]
    fn quotient_merges_edges() {
        // path r0-s0-r1-s1 with both lefts in class 0, rights split
        let g = BipartiteGraph::new(2, 2, vec![(0, 0), (1, 0), (1, 1)]);
        let q = quotient(&g, &[0, 0], 1, &[0, 1], 2);
        assert_eq!(q.edges(), &[(0, 0), (0, 1)]);
    }

    #[test]
    fn identity_quotient_is_identity() {
        let g = BipartiteGraph::new(3, 2, vec![(0, 1), (2, 0)]);
        let lid: Vec<u32> = (0..3).collect();
        let rid: Vec<u32> = (0..2).collect();
        assert_eq!(quotient(&g, &lid, 3, &rid, 2), g);
    }

    #[test]
    #[should_panic(expected = "classification length")]
    fn wrong_length_rejected() {
        let g = BipartiteGraph::new(2, 2, vec![(0, 0)]);
        quotient(&g, &[0], 1, &[0, 0], 1);
    }

    #[test]
    fn total_collapse_gives_single_edge() {
        let g = BipartiteGraph::new(4, 4, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        let q = quotient(&g, &[0; 4], 1, &[0; 4], 1);
        assert_eq!(q.edge_count(), 1);
    }
}
