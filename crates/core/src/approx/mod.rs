//! Approximation algorithms and heuristics for `PEBBLE`.
//!
//! `PEBBLE` is NP-complete (Theorem 4.2) and MAX-SNP-complete
//! (Theorem 4.4): no PTAS exists unless `P = NP`, but constant factors are
//! achievable. This module provides the ladder the paper sketches:
//!
//! * [`equijoin`] — Theorem 4.1: *exact* and linear-time on equijoin join
//!   graphs (the easy extreme);
//! * [`dfs_partition`] — Theorem 3.1 / Lemma 3.1: the constructive
//!   1.25-factor guarantee for arbitrary connected bipartite graphs;
//! * [`nearest_neighbor`], [`path_cover`], [`euler_trails`] — fast
//!   heuristics without (or with weaker) guarantees;
//! * [`matching_cover`] — the "with more work, one can approximate
//!   better" remark made concrete: a maximum-matching-seeded path cover
//!   (Edmonds' blossoms over `L(G)`), the core of the
//!   Papadimitriou–Yannakakis 7/6 approach;
//! * [`two_opt`], [`or_opt`] — local-search improvements applicable on
//!   top of any tour (segment reversal / segment relocation).
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

pub mod dfs_partition;
pub mod equijoin;
pub mod euler_trails;
pub mod matching_cover;
pub mod nearest_neighbor;
pub mod or_opt;
pub mod path_cover;
pub mod two_opt;

pub use dfs_partition::pebble_dfs_partition;
pub use equijoin::pebble_equijoin;
pub use euler_trails::pebble_euler_trails;
pub use matching_cover::pebble_matching_cover;
pub use nearest_neighbor::pebble_nearest_neighbor;
pub use or_opt::improve_or_opt;
pub use path_cover::pebble_path_cover;
pub use two_opt::improve_two_opt;

use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::{BipartiteGraph, ComponentMap};

/// Runs a per-component line-graph tour builder over every connected
/// component and assembles one scheme, in component order (additivity,
/// Lemma 2.2, says this loses nothing). `obs_component` names the
/// heuristic in emitted instrumentation events (e.g. `"approx.nn"`).
pub(crate) fn per_component_scheme(
    g: &BipartiteGraph,
    obs_component: &'static str,
    mut tour_for: impl FnMut(&jp_graph::Graph) -> Vec<u32>,
) -> Result<PebblingScheme, PebbleError> {
    let _span = jp_obs::span(obs_component, "pebble");
    let cm = ComponentMap::new(g);
    jp_obs::counter(obs_component, "components", u64::from(cm.count));
    jp_obs::counter(obs_component, "edges", g.edge_count() as u64);
    let mut order: Vec<usize> = Vec::with_capacity(g.edge_count());
    let mut jumps: u64 = 0;
    for edges in cm.edges_by_component() {
        let sub = g.edge_subgraph(&edges);
        let lg = jp_graph::line_graph(&sub);
        let tour = tour_for(&lg);
        debug_assert_eq!(tour.len(), edges.len());
        if jp_obs::enabled() {
            jumps += tour
                .windows(2)
                .filter(|w| matches!(w, [a, b] if !lg.has_edge(*a, *b)))
                .count() as u64;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "tour is a permutation of line-graph vertices 0..edges.len()"
        )]
        order.extend(tour.iter().map(|&e| edges[e as usize]));
    }
    jp_obs::counter(obs_component, "jumps", jumps);
    PebblingScheme::from_edge_sequence(g, &order)
}

/// Greedy stitching of vertex-disjoint paths in a graph into one tour:
/// repeatedly appends the unused path (in either orientation) whose head
/// is adjacent to the current tail, falling back to an arbitrary path
/// (which costs a jump). Shared helper of the path-producing heuristics.
pub(crate) fn stitch_paths(lg: &jp_graph::Graph, mut paths: Vec<Vec<u32>>) -> Vec<u32> {
    let mut tour: Vec<u32> = Vec::new();
    if paths.is_empty() {
        return tour;
    }
    tour.append(&mut paths.remove(0));
    while !paths.is_empty() {
        let mut chosen: Option<(usize, bool)> = None;
        if let Some(&tail) = tour.last() {
            for (i, p) in paths.iter().enumerate() {
                let (Some(&head), Some(&last)) = (p.first(), p.last()) else {
                    continue;
                };
                if lg.has_edge(tail, head) {
                    chosen = Some((i, false));
                    break;
                }
                if lg.has_edge(tail, last) {
                    chosen = Some((i, true));
                    break;
                }
            }
        }
        let (i, rev) = chosen.unwrap_or((0, false));
        let mut p = paths.remove(i);
        if rev {
            p.reverse();
        }
        tour.append(&mut p);
    }
    tour
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::{generators, Graph};

    #[test]
    fn stitch_prefers_good_connections() {
        // L = path 0-1-2-3; paths [0,1] and [2,3] stitch without jump.
        let lg = Graph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let tour = stitch_paths(&lg, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(tour, vec![0, 1, 2, 3]);
        // reversed orientation also found
        let tour = stitch_paths(&lg, vec![vec![1, 0], vec![3, 2]]);
        assert_eq!(tour, vec![1, 0, 3, 2].into_iter().collect::<Vec<u32>>());
        // wait: 0 adjacent to 3? no — stitching falls back. Check cost via
        // count of non-edges along the tour instead of exact sequence.
        let jumps = tour.windows(2).filter(|w| !lg.has_edge(w[0], w[1])).count();
        assert!(jumps <= 1);
    }

    #[test]
    fn stitch_empty_and_single() {
        let lg = Graph::empty(3);
        assert!(stitch_paths(&lg, vec![]).is_empty());
        assert_eq!(stitch_paths(&lg, vec![vec![2]]), vec![2]);
    }

    #[test]
    fn per_component_scheme_covers_all_components() {
        let g = generators::path(3).disjoint_union(&generators::matching(2));
        // trivial tour: identity order per component
        let s =
            per_component_scheme(&g, "approx.test", |lg| (0..lg.vertex_count()).collect()).unwrap();
        s.validate(&g).unwrap();
    }
}
