//! Matching-seeded path cover — toward the Papadimitriou–Yannakakis 7/6.
//!
//! The paper: "an algorithm by Papadimitriou and Yannakakis can be used
//! to approximate PEBBLE within a factor of 7/6". Their TSP(1,2)
//! algorithm grows tours from maximum matchings; this pebbler implements
//! the matching-seeded core: take a **maximum matching** of `L(G)`
//! (Edmonds' blossoms — line graphs are non-bipartite), which is the
//! provably largest set of disjoint good steps, then greedily link the
//! matched pairs and leftover vertices into paths and stitch.
//!
//! Guarantee inherited from the matching: the tour uses at least
//! `|M| = ν(L(G))` good edges, so jumps `≤ (m − 1) − ν(L(G))` — at least
//! as strong a start as any greedy cover can promise. (The full 7/6
//! bound needs maximum *2-matchings*; DESIGN.md records the delta.)

use crate::approx::{per_component_scheme, stitch_paths};
use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::{matching::maximum_matching, BipartiteGraph, Graph};

/// Pebbles via a maximum-matching-seeded path cover of each component's
/// line graph.
// audit:allow(obs-coverage) thin wrapper — per_component_scheme opens the approx.matching_cover span
pub fn pebble_matching_cover(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    per_component_scheme(g, "approx.matching_cover", |lg| {
        let paths = matching_path_cover(lg);
        jp_obs::counter("approx.matching_cover", "paths", paths.len() as u64);
        stitch_paths(lg, paths)
    })
}

/// Path cover seeded with a maximum matching: matched edges enter the
/// cover first (they can never conflict), then remaining good edges are
/// added greedily while the cover stays a disjoint union of paths.
// audit:allow(obs-coverage) cover worker — pebble_matching_cover opens the span
pub fn matching_path_cover(lg: &Graph) -> Vec<Vec<u32>> {
    let n = lg.vertex_count() as usize;
    if n == 0 {
        return Vec::new();
    }
    let matching = maximum_matching(lg);
    let mut uf: Vec<u32> = (0..n as u32).collect();
    fn find(uf: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        #[expect(
            clippy::indexing_slicing,
            reason = "union-find entries are vertex ids < n == uf.len()"
        )]
        while uf[root as usize] != root {
            root = uf[root as usize];
        }
        let mut cur = v;
        #[expect(
            clippy::indexing_slicing,
            reason = "union-find entries are vertex ids < n == uf.len()"
        )]
        while uf[cur as usize] != root {
            let next = uf[cur as usize];
            uf[cur as usize] = root;
            cur = next;
        }
        root
    }
    let mut cover_deg = vec![0u8; n];
    let mut cover_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let add =
        |u: u32, v: u32, uf: &mut Vec<u32>, deg: &mut Vec<u8>, adj: &mut Vec<Vec<u32>>| -> bool {
            #[expect(
                clippy::indexing_slicing,
                reason = "u, v are line-graph vertex ids < n == deg.len()"
            )]
            if deg[u as usize] >= 2 || deg[v as usize] >= 2 {
                return false;
            }
            let (ru, rv) = (find(uf, u), find(uf, v));
            if ru == rv {
                return false;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "find returns ids < n; u, v < n == adj.len()"
            )]
            {
                uf[ru as usize] = rv;
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
            true
        };
    // 1. seed with the maximum matching (always addable: disjoint edges)
    for (u, v) in matching.edges() {
        let ok = add(u, v, &mut uf, &mut cover_deg, &mut cover_adj);
        debug_assert!(ok, "matching edges are disjoint");
    }
    // 2. link greedily with remaining good edges, scarce endpoints first
    #[expect(
        clippy::indexing_slicing,
        reason = "mate is n-sized, u is a vertex id < n"
    )]
    let mut rest: Vec<(u32, u32)> = lg
        .edges()
        .iter()
        .copied()
        .filter(|&(u, v)| matching.mate[u as usize] != v)
        .collect();
    rest.sort_by_key(|&(u, v)| lg.degree(u) + lg.degree(v));
    for (u, v) in rest {
        add(u, v, &mut uf, &mut cover_deg, &mut cover_adj);
    }
    // 3. materialize paths
    let mut seen = vec![false; n];
    let mut paths = Vec::new();
    for start in 0..n as u32 {
        #[expect(
            clippy::indexing_slicing,
            reason = "start ranges over 0..n == seen.len() == cover_deg.len()"
        )]
        if seen[start as usize] || cover_deg[start as usize] > 1 {
            continue;
        }
        let mut path = vec![start];
        #[expect(clippy::indexing_slicing, reason = "start < n == seen.len()")]
        {
            seen[start as usize] = true;
        }
        let mut cur = start;
        #[expect(
            clippy::indexing_slicing,
            reason = "cover entries are vertex ids < n == seen.len()"
        )]
        while let Some(&w) = cover_adj[cur as usize].iter().find(|&&w| !seen[w as usize]) {
            seen[w as usize] = true;
            path.push(w);
            cur = w;
        }
        paths.push(path);
    }
    debug_assert!(seen.iter().all(|&s| s));
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_effective_cost;
    use jp_graph::{generators, line_graph};

    #[test]
    fn cover_contains_a_maximum_matching_worth_of_good_edges() {
        for seed in 0..10 {
            let g = generators::random_connected_bipartite(5, 5, 12, seed);
            let lg = line_graph(&g);
            let nu = maximum_matching(&lg).len();
            let paths = matching_path_cover(&lg);
            let good_edges: usize = paths.iter().map(|p| p.len() - 1).sum();
            assert!(
                good_edges >= nu,
                "seed {seed}: cover {good_edges} < matching {nu}"
            );
            // jump bound: tour jumps <= paths - 1 = (n - good) - 1
            let n = lg.vertex_count() as usize;
            assert_eq!(paths.len(), n - good_edges);
        }
    }

    #[test]
    fn valid_schemes_with_matching_strength() {
        for seed in 0..15 {
            let g = generators::random_connected_bipartite(5, 5, 13, seed);
            let s = pebble_matching_cover(&g).unwrap();
            s.validate(&g).unwrap();
            let opt = optimal_effective_cost(&g).unwrap();
            assert!(s.effective_cost(&g) >= opt, "seed {seed}");
            // matching bound: jumps <= m - 1 - nu(L)
            let lg = line_graph(&g);
            let nu = maximum_matching(&lg).len();
            assert!(
                s.jumps(&g) <= g.edge_count() - 1 - nu,
                "seed {seed}: matching jump bound violated"
            );
        }
    }

    #[test]
    fn optimal_on_spiders() {
        // the matching seed pairs each pendant with its clique vertex —
        // exactly the optimal leg pairing
        for n in [4u32, 6, 8] {
            let g = generators::spider(n);
            let s = pebble_matching_cover(&g).unwrap();
            s.validate(&g).unwrap();
            let opt = crate::families::spider_optimal_cost(n as u64) as usize;
            assert!(
                s.effective_cost(&g) <= opt + 1,
                "G_{n}: {} vs optimal {opt}",
                s.effective_cost(&g)
            );
        }
    }

    #[test]
    fn perfect_on_traceable_families() {
        for g in [
            generators::path(8),
            generators::star(7),
            generators::cycle(4),
        ] {
            let s = pebble_matching_cover(&g).unwrap();
            s.validate(&g).unwrap();
            assert_eq!(s.effective_cost(&g), g.edge_count(), "{g}");
        }
    }

    #[test]
    fn handles_edge_cases() {
        let empty = jp_graph::BipartiteGraph::new(1, 1, vec![]);
        assert_eq!(pebble_matching_cover(&empty).unwrap().cost(), 0);
        let single = generators::complete_bipartite(1, 1);
        assert_eq!(
            pebble_matching_cover(&single)
                .unwrap()
                .effective_cost(&single),
            1
        );
        let disconnected = generators::matching(3).disjoint_union(&generators::spider(3));
        let s = pebble_matching_cover(&disconnected).unwrap();
        s.validate(&disconnected).unwrap();
    }
}
