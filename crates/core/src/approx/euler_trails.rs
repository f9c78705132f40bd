//! Linear-time trail-decomposition pebbler.
//!
//! Lemma 3.1 promises a linear-time pebbling within `1.25m`; the paper
//! omits its construction. This module provides the crate's *linear-time*
//! practical pebbler, built directly on `G` (never materializing `L(G)`):
//!
//! 1. pair up odd-degree vertices with virtual edges (Euler's theorem: a
//!    connected graph with `2k` odd vertices decomposes into `max(1, k)`
//!    edge-disjoint trails);
//! 2. find an Euler circuit of the augmented graph with Hierholzer's
//!    algorithm and split it at the virtual edges into trails;
//! 3. a trail is a walk whose consecutive edges share a vertex — i.e. a
//!    path in `L(G)` — so stitching the trails yields a tour with at most
//!    `#trails − 1` jumps.
//!
//! The jump count is bounded by the odd-vertex count, not by `m/4`, so
//! this pebbler trades the 1.25 guarantee of
//! [`crate::approx::dfs_partition`] for near-linear time: the
//! decomposition is `O(|V| + |E|)` and the greedy stitch adds `O(t²)`
//! endpoint comparisons over the `t = max(1, odd/2)` trails (t is small
//! for the low-odd-degree graphs this pebbler targets; a worst-case
//! matching degenerates to `t = m`). Experiments (E5) compare the two.

use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::{BipartiteGraph, ComponentMap};

/// Pebbles via Euler-trail decomposition, per component, in near-linear
/// time (see the module docs for the trail-stitching caveat).
pub fn pebble_euler_trails(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    let _span = jp_obs::span("approx.euler_trails", "pebble");
    let cm = ComponentMap::new(g);
    jp_obs::counter("approx.euler_trails", "components", u64::from(cm.count));
    jp_obs::counter("approx.euler_trails", "edges", g.edge_count() as u64);
    let mut order: Vec<usize> = Vec::with_capacity(g.edge_count());
    let mut n_trails: u64 = 0;
    for edges in cm.edges_by_component() {
        let sub = g.edge_subgraph(&edges);
        let trails = trail_decomposition(&sub);
        n_trails += trails.len() as u64;
        let tour = stitch_trails(&sub, trails);
        #[expect(
            clippy::indexing_slicing,
            reason = "trail edges are subgraph edge ids 0..edges.len()"
        )]
        order.extend(tour.iter().map(|&e| edges[e as usize]));
    }
    jp_obs::counter("approx.euler_trails", "trails", n_trails);
    PebblingScheme::from_edge_sequence(g, &order)
}

/// Stitches trails into one edge order, preferring a next trail whose
/// first (or last) edge shares a vertex with the current tail edge —
/// checked directly on edge coordinates, so `L(G)` is never built.
fn stitch_trails(g: &BipartiteGraph, mut trails: Vec<Vec<u32>>) -> Vec<u32> {
    let share = |e1: u32, e2: u32| -> bool {
        match (g.edges().get(e1 as usize), g.edges().get(e2 as usize)) {
            (Some(&(l1, r1)), Some(&(l2, r2))) => l1 == l2 || r1 == r2,
            _ => false,
        }
    };
    let mut tour: Vec<u32> = Vec::new();
    if trails.is_empty() {
        return tour;
    }
    tour.append(&mut trails.remove(0));
    while !trails.is_empty() {
        let mut chosen = None;
        if let Some(&tail) = tour.last() {
            for (i, t) in trails.iter().enumerate() {
                let (Some(&head), Some(&last)) = (t.first(), t.last()) else {
                    continue;
                };
                if share(tail, head) {
                    chosen = Some((i, false));
                    break;
                }
                if share(tail, last) {
                    chosen = Some((i, true));
                    break;
                }
            }
        }
        let (i, rev) = chosen.unwrap_or((0, false));
        let mut t = trails.remove(i);
        if rev {
            t.reverse();
        }
        tour.append(&mut t);
    }
    tour
}

/// Decomposes a connected bipartite graph's edges into `max(1, k)`
/// edge-disjoint trails (`k` = half the odd-degree vertex count),
/// returned as sequences of edge ids (paths in the line graph).
// audit:allow(obs-coverage) decomposition worker — pebble_euler_trails opens the span
pub fn trail_decomposition(g: &BipartiteGraph) -> Vec<Vec<u32>> {
    let m = g.edge_count();
    if m == 0 {
        return Vec::new();
    }
    let nv = g.vertex_count() as usize;
    // Build a multigraph adjacency of (flat_target, edge_id); virtual
    // pairing edges get ids >= m.
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nv];
    for (e, &(l, r)) in g.edges().iter().enumerate() {
        let fl = l as usize;
        let fr = g.left_count() as usize + r as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "flat ids are < left+right = nv = adj.len() for in-range edges"
        )]
        {
            adj[fl].push((fr as u32, e as u32));
            adj[fr].push((fl as u32, e as u32));
        }
    }
    #[expect(clippy::indexing_slicing, reason = "v ranges over 0..nv == adj.len()")]
    let odd: Vec<usize> = (0..nv).filter(|&v| adj[v].len() % 2 == 1).collect();
    debug_assert!(odd.len().is_multiple_of(2));
    let mut next_virtual = m as u32;
    for pair in odd.chunks(2) {
        let [a, b] = pair else { continue }; // odd count is even: chunks are exact pairs
        let (a, b) = (*a, *b);
        #[expect(
            clippy::indexing_slicing,
            reason = "odd vertices are indices < nv == adj.len()"
        )]
        {
            adj[a].push((b as u32, next_virtual));
            adj[b].push((a as u32, next_virtual));
        }
        next_virtual += 1;
    }
    // If everything was even, the circuit never closes without a start
    // marker; we split at virtual edges, so with zero virtual edges the
    // whole circuit is one trail.
    // Hierholzer from any non-isolated vertex.
    #[expect(clippy::indexing_slicing, reason = "v ranges over 0..nv == adj.len()")]
    let Some(start) = (0..nv).find(|&v| !adj[v].is_empty()) else {
        return Vec::new(); // unreachable: m > 0 means some vertex has an edge
    };
    let mut used = vec![false; next_virtual as usize];
    let mut iter_pos = vec![0usize; nv];
    let mut stack: Vec<(usize, u32)> = vec![(start, u32::MAX)]; // (vertex, incoming edge)
    let mut circuit: Vec<u32> = Vec::with_capacity(next_virtual as usize); // edge ids in order
    while let Some(&(v, _)) = stack.last() {
        let mut advanced = false;
        #[expect(
            clippy::indexing_slicing,
            reason = "stack holds vertices < nv == iter_pos.len() == adj.len()"
        )]
        while iter_pos[v] < adj[v].len() {
            #[expect(
                clippy::indexing_slicing,
                reason = "loop condition bounds iter_pos[v] within adj[v]"
            )]
            let (w, e) = adj[v][iter_pos[v]];
            iter_pos[v] += 1;
            #[expect(
                clippy::indexing_slicing,
                reason = "edge ids (real and virtual) are < next_virtual == used.len()"
            )]
            if !used[e as usize] {
                used[e as usize] = true;
                stack.push((w as usize, e));
                advanced = true;
                break;
            }
        }
        if !advanced {
            if let Some((_, incoming)) = stack.pop() {
                if incoming != u32::MAX {
                    circuit.push(incoming);
                }
            }
        }
    }
    debug_assert_eq!(
        circuit.len(),
        next_virtual as usize,
        "graph must be connected"
    );
    // Split the circuit at virtual edges. The circuit is circular, so
    // rotate it to start at a virtual edge first — then no fragment wraps
    // around the list boundary.
    if next_virtual as usize == m {
        // Eulerian graph: the whole circuit is one trail.
        return vec![circuit];
    }
    let Some(pos) = circuit.iter().position(|&e| e >= m as u32) else {
        return vec![circuit]; // unreachable: next_virtual > m puts a virtual edge in the circuit
    };
    circuit.rotate_left(pos);
    let mut trails: Vec<Vec<u32>> = Vec::new();
    let mut cur: Vec<u32> = Vec::new();
    for &e in &circuit {
        if e >= m as u32 {
            if !cur.is_empty() {
                trails.push(std::mem::take(&mut cur));
            }
        } else {
            cur.push(e);
        }
    }
    if !cur.is_empty() {
        trails.push(cur);
    }
    trails
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::{generators, line_graph};

    fn check_trails(g: &BipartiteGraph) {
        let trails = trail_decomposition(g);
        let lg = line_graph(g);
        let mut seen = vec![false; g.edge_count()];
        for t in &trails {
            for w in t.windows(2) {
                assert!(lg.has_edge(w[0], w[1]), "trail edges must chain in L(G)");
            }
            for &e in t {
                assert!(!seen[e as usize], "edge {e} reused");
                seen[e as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all edges covered");
        // Euler bound on trail count
        let odd = g.vertices().filter(|&v| g.degree(v) % 2 == 1).count();
        assert!(
            trails.len() <= (odd / 2).max(1),
            "trail count exceeds Euler bound"
        );
    }

    #[test]
    fn trail_invariants_on_families() {
        for g in [
            generators::path(7),
            generators::cycle(4),
            generators::star(6),
            generators::spider(5),
            generators::complete_bipartite(3, 4),
            generators::complete_bipartite(2, 2),
        ] {
            check_trails(&g);
        }
    }

    #[test]
    fn trail_invariants_on_random_graphs() {
        for seed in 0..25 {
            let g = generators::random_connected_bipartite(6, 6, 17, seed);
            check_trails(&g);
        }
    }

    #[test]
    fn even_graph_single_trail() {
        // cycles are Eulerian: one trail covering everything
        let g = generators::cycle(5);
        let trails = trail_decomposition(&g);
        assert_eq!(trails.len(), 1);
        assert_eq!(trails[0].len(), 10);
    }

    #[test]
    fn scheme_is_valid_and_linearly_bounded() {
        // CLAIM(L3.1): near-linear-time pebbler within the trail bound
        for seed in 0..15 {
            let g = generators::random_connected_bipartite(7, 7, 20, seed);
            let s = pebble_euler_trails(&g).unwrap();
            s.validate(&g).unwrap();
            let m = g.edge_count();
            let odd = g.vertices().filter(|&v| g.degree(v) % 2 == 1).count();
            assert!(
                s.effective_cost(&g) <= m + (odd / 2).max(1) - 1 + 1,
                "cost bounded by trails, seed {seed}"
            );
        }
    }

    #[test]
    fn spider_cost_hits_the_optimal_shape() {
        // On spiders the trail decomposition naturally pairs legs:
        // cost should be within 1 of optimum.
        use crate::exact::optimal_effective_cost;
        for n in [4u32, 6] {
            let g = generators::spider(n);
            let s = pebble_euler_trails(&g).unwrap();
            let opt = optimal_effective_cost(&g).unwrap();
            assert!(s.effective_cost(&g) <= opt + 1, "G_{n}");
        }
    }

    #[test]
    fn disconnected_and_empty() {
        let g = generators::matching(3);
        let s = pebble_euler_trails(&g).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.cost(), 6);
        let e = jp_graph::BipartiteGraph::new(1, 1, vec![]);
        assert_eq!(pebble_euler_trails(&e).unwrap().cost(), 0);
    }
}
