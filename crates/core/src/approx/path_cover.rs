//! Greedy path-cover heuristic for TSP(1,2) on the line graph.
//!
//! The classical matching-flavoured TSP(1,2) approach (the
//! Papadimitriou–Yannakakis 7/6 algorithm builds a maximum path cover via
//! matchings; this is its standard greedy sibling): greedily select good
//! edges that keep the selection a disjoint union of paths, then stitch
//! the paths. The tour's jumps equal `#paths − 1 ≤` (uncovered degree
//! slack), which in practice lands well below the 1.25 construction.

use crate::approx::{per_component_scheme, stitch_paths};
use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::{BipartiteGraph, Graph};

/// Pebbles via a greedy path cover of each component's line graph.
// audit:allow(obs-coverage) thin wrapper — per_component_scheme opens the approx.path_cover span
pub fn pebble_path_cover(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    per_component_scheme(g, "approx.path_cover", |lg| {
        let paths = greedy_path_cover(lg);
        jp_obs::counter("approx.path_cover", "paths", paths.len() as u64);
        stitch_paths(lg, paths)
    })
}

/// Greedily covers the vertices of `lg` with vertex-disjoint paths using
/// only good edges: an edge joins the cover when both endpoints still
/// have degree < 2 in the cover and lie on different paths. Edges are
/// scanned in ascending endpoint-degree order so scarce connections are
/// claimed first. Returns the paths (isolated vertices become length-1
/// paths).
// audit:allow(obs-coverage) cover worker — pebble_path_cover opens the span
pub fn greedy_path_cover(lg: &Graph) -> Vec<Vec<u32>> {
    let n = lg.vertex_count() as usize;
    if n == 0 {
        return Vec::new();
    }
    // union-find over path fragments
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
    let mut edges: Vec<(u32, u32)> = lg.edges().to_vec();
    edges.sort_by_key(|&(u, v)| lg.degree(u) + lg.degree(v));
    for (u, v) in edges {
        #[expect(
            clippy::indexing_slicing,
            reason = "u, v are line-graph vertex ids < n == cover_deg.len()"
        )]
        if cover_deg[u as usize] >= 2 || cover_deg[v as usize] >= 2 {
            continue;
        }
        let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
        if ru == rv {
            continue; // would close a cycle
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "find returns ids < n; u, v < n == cover_adj.len()"
        )]
        {
            uf[ru as usize] = rv;
            cover_deg[u as usize] += 1;
            cover_deg[v as usize] += 1;
            cover_adj[u as usize].push(v);
            cover_adj[v as usize].push(u);
        }
    }
    // materialize paths: walk from endpoints (cover degree <= 1)
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
        loop {
            #[expect(
                clippy::indexing_slicing,
                reason = "cover entries are vertex ids < n == cover_adj.len() == seen.len()"
            )]
            let next = cover_adj[cur as usize]
                .iter()
                .copied()
                .find(|&w| !seen[w as usize]);
            match next {
                Some(w) => {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "w is a vertex id < n == seen.len()"
                    )]
                    {
                        seen[w as usize] = true;
                    }
                    path.push(w);
                    cur = w;
                }
                None => break,
            }
        }
        paths.push(path);
    }
    debug_assert!(
        seen.iter().all(|&s| s),
        "cover is acyclic so endpoints reach everything"
    );
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::{generators, line_graph};

    #[test]
    fn cover_is_disjoint_paths_on_real_line_graphs() {
        for g in [generators::spider(5), generators::complete_bipartite(3, 4)] {
            let lg = line_graph(&g);
            let paths = greedy_path_cover(&lg);
            let mut seen = vec![false; lg.vertex_count() as usize];
            for p in &paths {
                for w in p.windows(2) {
                    assert!(lg.has_edge(w[0], w[1]));
                }
                for &v in p {
                    assert!(!seen[v as usize]);
                    seen[v as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn single_path_graph_yields_one_path() {
        // L(path graph) is a path; greedy must cover it with one path.
        let g = generators::path(8);
        let lg = line_graph(&g);
        let paths = greedy_path_cover(&lg);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 8);
    }

    #[test]
    fn perfect_on_clique_line_graphs() {
        let g = generators::star(10); // L = K_10
        let s = pebble_path_cover(&g).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.effective_cost(&g), 10);
    }

    #[test]
    fn near_optimal_on_spiders() {
        // π(G_n) = m + ceil(n/2) − 1; path cover should land close.
        use crate::exact::optimal_effective_cost;
        for n in [3u32, 4, 5, 6] {
            let g = generators::spider(n);
            let s = pebble_path_cover(&g).unwrap();
            s.validate(&g).unwrap();
            let opt = optimal_effective_cost(&g).unwrap();
            let got = s.effective_cost(&g);
            assert!(got >= opt);
            assert!(got <= opt + 2, "G_{n}: {got} vs opt {opt}");
        }
    }

    #[test]
    fn valid_on_random_graphs() {
        for seed in 0..20 {
            let g = generators::random_connected_bipartite(6, 5, 15, seed);
            let s = pebble_path_cover(&g).unwrap();
            s.validate(&g).unwrap();
            assert!(s.effective_cost(&g) < 2 * g.edge_count(), "seed {seed}");
        }
    }

    #[test]
    fn isolated_line_graph_vertices_become_singletons() {
        // matching: L(G) has no edges; every vertex its own path
        let g = generators::matching(4);
        let s = pebble_path_cover(&g).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.cost(), 8); // Lemma 2.4: 2m
    }
}
