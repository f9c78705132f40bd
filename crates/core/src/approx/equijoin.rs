//! The linear-time perfect pebbler for equijoin join graphs
//! (Lemma 3.2, Theorem 3.2, Theorem 4.1).
//!
//! Every connected component of an equijoin join graph is a complete
//! bipartite graph `K_{k,l}`, and `K_{k,l}` pebbles perfectly with the
//! boustrophedon sequence
//! `(u1,v1),(u1,v2),…,(u1,vl),(u2,vl),(u2,v(l−1)),…` — "similar to the
//! merge phase of sort-merge join" (the paper's remark after
//! Theorem 4.1). The whole pebbler runs in `O(|V| + |E|)`:
//! component detection is one BFS, the completeness check is arithmetic
//! (`m_c = k_c · l_c`), and the sweep emits each edge once, locating edge
//! ids through the sorted edge list's per-left-vertex contiguity rather
//! than by search.

use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::{BipartiteGraph, ComponentMap};

/// Pebbles an equijoin join graph perfectly: the returned scheme has
/// `π(P) = m` (and `π̂(P) = m + β₀`). Errors with
/// [`PebbleError::NotEquijoinGraph`] if some component is not complete
/// bipartite — by Theorem 3.2's characterization such a graph cannot come
/// from an equijoin.
///
/// ```
/// use jp_graph::generators;
/// use jp_pebble::approx::pebble_equijoin;
///
/// let g = generators::complete_bipartite(4, 6);
/// let scheme = pebble_equijoin(&g).unwrap();
/// assert_eq!(scheme.effective_cost(&g), 24); // π = m: perfect
///
/// // Non-equijoin graphs are rejected:
/// assert!(pebble_equijoin(&generators::spider(3)).is_err());
/// ```
pub fn pebble_equijoin(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    let _span = jp_obs::span("approx.equijoin", "pebble");
    let cm = ComponentMap::new(g);
    let n_comp = cm.count as usize;
    jp_obs::counter("approx.equijoin", "components", n_comp as u64);
    jp_obs::counter("approx.equijoin", "edges", g.edge_count() as u64);
    // Component population counts (completeness check is m_c == k_c·l_c).
    let mut lefts = vec![0usize; n_comp];
    let mut rights = vec![0usize; n_comp];
    let mut edges = vec![0usize; n_comp];
    #[expect(
        clippy::indexing_slicing,
        reason = "component ids are < n_comp == lefts.len()"
    )]
    for &c in &cm.left {
        if c != u32::MAX {
            lefts[c as usize] += 1;
        }
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "component ids are < n_comp == rights.len()"
    )]
    for &c in &cm.right {
        if c != u32::MAX {
            rights[c as usize] += 1;
        }
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "component ids are < n_comp == edges.len()"
    )]
    for &c in &cm.edge {
        edges[c as usize] += 1;
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "c ranges over 0..n_comp, the length of all three vectors"
    )]
    if (0..n_comp).any(|c| edges[c] != lefts[c] * rights[c]) {
        return Err(PebbleError::NotEquijoinGraph);
    }
    // Edge ids of left vertex `l` occupy the contiguous range
    // offset[l] .. offset[l] + deg(l) in the sorted edge list, ordered by
    // ascending right endpoint. The boustrophedon per component walks its
    // left vertices (in index order) alternating sweep direction.
    let mut offset = vec![0usize; g.left_count() as usize + 1];
    #[expect(
        clippy::indexing_slicing,
        reason = "offset has left_count+1 slots; l < left_count"
    )]
    for l in 0..g.left_count() as usize {
        offset[l + 1] = offset[l] + g.left_neighbors(l as u32).len();
    }
    // Left vertices grouped by component, preserving index order.
    let mut comp_lefts: Vec<Vec<u32>> = vec![Vec::new(); n_comp];
    for (l, &c) in cm.left.iter().enumerate() {
        if c != u32::MAX {
            #[expect(
                clippy::indexing_slicing,
                reason = "component ids are < n_comp == comp_lefts.len()"
            )]
            comp_lefts[c as usize].push(l as u32);
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(g.edge_count());
    for ls in comp_lefts {
        for (step, &l) in ls.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "l is a left-vertex id; offset has left_count+1 slots"
            )]
            let range = offset[l as usize]..offset[l as usize + 1];
            if step % 2 == 0 {
                order.extend(range);
            } else {
                order.extend(range.rev());
            }
        }
    }
    let scheme = PebblingScheme::from_edge_sequence(g, &order)?;
    debug_assert_eq!(scheme.effective_cost(g), g.edge_count());
    // Theorem 4.1's pebbler is perfect whenever it succeeds.
    jp_obs::counter("approx.equijoin", "jumps", 0);
    Ok(scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::generators;

    #[test]
    fn complete_bipartite_is_perfect() {
        for (k, l) in [(1, 1), (1, 5), (3, 4), (4, 4), (7, 2)] {
            let g = generators::complete_bipartite(k, l);
            let s = pebble_equijoin(&g).unwrap();
            s.validate(&g).unwrap();
            assert_eq!(s.effective_cost(&g), g.edge_count(), "K_{{{k},{l}}}");
            assert_eq!(s.jumps(&g), 0, "no jumps inside one component");
        }
    }

    #[test]
    fn unions_pebble_perfectly() {
        // CLAIM(L3.2, T3.2)
        // Theorem 3.2: π(G) = m for any equijoin graph.
        let g = generators::complete_bipartite(2, 5)
            .disjoint_union(&generators::matching(4))
            .disjoint_union(&generators::complete_bipartite(3, 3));
        let s = pebble_equijoin(&g).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.effective_cost(&g), g.edge_count());
        // π̂ = m + β₀
        assert_eq!(
            s.cost(),
            g.edge_count() + jp_graph::betti_number(&g) as usize
        );
    }

    #[test]
    fn isolated_vertices_are_harmless() {
        let g = jp_graph::BipartiteGraph::new(4, 4, vec![(0, 0), (0, 1), (3, 0), (3, 1)]);
        let s = pebble_equijoin(&g).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.effective_cost(&g), 4);
    }

    #[test]
    fn rejects_non_equijoin_graphs() {
        for g in [
            generators::path(3),
            generators::spider(3),
            generators::cycle(3),
        ] {
            assert_eq!(
                pebble_equijoin(&g).unwrap_err(),
                PebbleError::NotEquijoinGraph,
                "{g}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = jp_graph::BipartiteGraph::new(1, 1, vec![]);
        let s = pebble_equijoin(&g).unwrap();
        assert_eq!(s.cost(), 0);
    }

    #[test]
    fn matches_exact_solver() {
        // CLAIM(T4.1)
        // Theorem 4.1: linear-time result equals the optimum.
        use crate::exact::optimal_effective_cost;
        let g = generators::complete_bipartite(2, 4)
            .disjoint_union(&generators::complete_bipartite(1, 3));
        let s = pebble_equijoin(&g).unwrap();
        assert_eq!(s.effective_cost(&g), optimal_effective_cost(&g).unwrap());
    }

    #[test]
    fn real_equijoin_workload_end_to_end() {
        use jp_relalg::{equijoin_graph, workload};
        let (r, s) = workload::zipf_equijoin(60, 60, 12, 0.8, 5);
        let g = equijoin_graph(&r, &s).unwrap();
        let scheme = pebble_equijoin(&g).unwrap();
        scheme.validate(&g).unwrap();
        assert_eq!(scheme.effective_cost(&g), g.edge_count());
    }
}
