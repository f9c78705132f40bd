//! Nearest-neighbour tour construction on the completed line graph.
//!
//! The simplest TSP(1,2) heuristic: start anywhere, always follow a good
//! (weight-1) edge to an unvisited node when one exists, jump otherwise.
//! No approximation guarantee below 1.5 in general, but fast
//! (`O(|L(G)|)` amortized) and a useful ablation baseline against the
//! guaranteed constructions.

use crate::approx::per_component_scheme;
use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::{BipartiteGraph, Graph};

/// Pebbles via a nearest-neighbour tour of each component's line graph.
// audit:allow(obs-coverage) thin wrapper — per_component_scheme opens the approx.nn span
pub fn pebble_nearest_neighbor(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    per_component_scheme(g, "approx.nn", nearest_neighbor_tour)
}

/// Nearest-neighbour tour over the weight-1 graph: greedy good-edge steps
/// with lowest-degree tie-breaking (saving high-degree vertices for
/// later), jumping to the lowest-indexed unvisited node when stuck.
// audit:allow(obs-coverage) tour worker — the per_component_scheme driver opens the span
pub fn nearest_neighbor_tour(lg: &Graph) -> Vec<u32> {
    let n = lg.vertex_count() as usize;
    if n == 0 {
        return Vec::new();
    }
    let mut visited = vec![false; n];
    // Start from a minimum-degree vertex: endpoints of sparse structures
    // are the worst places to strand.
    let start = (0..n as u32).min_by_key(|&v| lg.degree(v)).unwrap_or(0);
    let mut tour = Vec::with_capacity(n);
    let mut cur = start;
    #[expect(
        clippy::indexing_slicing,
        reason = "vertex ids are < n == visited.len() by construction"
    )]
    {
        visited[cur as usize] = true;
    }
    tour.push(cur);
    let mut next_unvisited = 0usize;
    while tour.len() < n {
        #[expect(
            clippy::indexing_slicing,
            reason = "vertex ids are < n == visited.len() by construction"
        )]
        let next_good = lg
            .neighbors(cur)
            .iter()
            .copied()
            .filter(|&w| !visited[w as usize])
            .min_by_key(|&w| lg.degree(w));
        let next = match next_good {
            Some(w) => w,
            None => {
                while visited.get(next_unvisited).copied().unwrap_or(false) {
                    next_unvisited += 1;
                }
                next_unvisited as u32
            }
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "tour.len() < n guarantees an unvisited vertex < n exists"
        )]
        {
            visited[next as usize] = true;
        }
        tour.push(next);
        cur = next;
    }
    tour
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::{generators, line_graph};

    #[test]
    fn tour_is_a_permutation() {
        let g = generators::spider(5);
        let lg = line_graph(&g);
        let tour = nearest_neighbor_tour(&lg);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..lg.vertex_count()).collect::<Vec<_>>());
    }

    #[test]
    fn perfect_on_stars_and_paths() {
        for g in [generators::star(8), generators::path(9)] {
            let s = pebble_nearest_neighbor(&g).unwrap();
            s.validate(&g).unwrap();
            assert_eq!(s.effective_cost(&g), g.edge_count(), "{g}");
        }
    }

    #[test]
    fn valid_on_random_graphs_with_sane_cost() {
        // CLAIM(C2.1)
        for seed in 0..20 {
            let g = generators::random_connected_bipartite(5, 5, 13, seed);
            let s = pebble_nearest_neighbor(&g).unwrap();
            s.validate(&g).unwrap();
            let m = g.edge_count();
            assert!(s.effective_cost(&g) >= m);
            assert!(
                s.effective_cost(&g) < 2 * m,
                "Corollary 2.1 range, seed {seed}"
            );
        }
    }

    #[test]
    fn handles_disconnected_input() {
        let g = generators::matching(3).disjoint_union(&generators::spider(3));
        let s = pebble_nearest_neighbor(&g).unwrap();
        s.validate(&g).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = jp_graph::BipartiteGraph::new(1, 1, vec![]);
        assert_eq!(pebble_nearest_neighbor(&g).unwrap().cost(), 0);
    }
}
