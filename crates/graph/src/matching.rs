//! Maximum matching in general graphs — Edmonds' blossom algorithm.
//!
//! The paper points at Papadimitriou–Yannakakis for approximating
//! `PEBBLE` "within a factor of 7/6"; their TSP(1,2) algorithm is built
//! on matchings. This module supplies the primitive: a maximum matching
//! in an arbitrary graph (line graphs are non-bipartite, so augmenting
//! paths must shrink odd cycles — blossoms).
//!
//! Implementation: the classical `O(V³)` blossom algorithm with an
//! explicit base array (union of blossom contractions), BFS forest, and
//! augmenting-path flipping. Verified against exhaustive search on small
//! graphs and against closed forms on structured families.

use crate::graph::Graph;

/// A matching: `mate[v]` is `v`'s partner or `u32::MAX` when unmatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Partner per vertex (`u32::MAX` = unmatched).
    pub mate: Vec<u32>,
}

impl Matching {
    /// Number of matched edges.
    pub fn len(&self) -> usize {
        self.mate.iter().filter(|&&m| m != u32::MAX).count() / 2
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matched edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &v)| (v != u32::MAX && (u as u32) < v).then_some((u as u32, v)))
            .collect()
    }

    /// Validates the matching against a graph: partners are mutual,
    /// distinct, and adjacent.
    pub fn validate(&self, g: &Graph) -> bool {
        if self.mate.len() != g.vertex_count() as usize {
            return false;
        }
        self.mate.iter().enumerate().all(|(u, &v)| {
            v == u32::MAX
                || (v != u as u32
                    && (v as usize) < self.mate.len()
                    && self.mate[v as usize] == u as u32
                    && g.has_edge(u as u32, v))
        })
    }
}

/// Computes a maximum matching with Edmonds' blossom algorithm, `O(V³)`.
pub fn maximum_matching(g: &Graph) -> Matching {
    let n = g.vertex_count() as usize;
    const NONE: u32 = u32::MAX;
    let mut mate = vec![NONE; n];
    // greedy warm start
    for u in 0..n as u32 {
        if mate[u as usize] == NONE {
            for &v in g.neighbors(u) {
                if mate[v as usize] == NONE {
                    mate[u as usize] = v;
                    mate[v as usize] = u;
                    break;
                }
            }
        }
    }
    let mut parent = vec![NONE; n]; // BFS forest parent (through matched edges)
    let mut base = vec![0u32; n]; // blossom base per vertex
    let mut q: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut used = vec![false; n];
    let mut blossom = vec![false; n];

    // lowest common ancestor of a and b in the alternating forest
    fn lca(base: &[u32], parent: &[u32], mate: &[u32], mut a: u32, mut b: u32) -> u32 {
        const NONE: u32 = u32::MAX;
        let n = base.len();
        let mut path = vec![false; n];
        loop {
            a = base[a as usize];
            path[a as usize] = true;
            if mate[a as usize] == NONE {
                break;
            }
            a = parent[mate[a as usize] as usize];
        }
        loop {
            b = base[b as usize];
            if path[b as usize] {
                return b;
            }
            b = parent[mate[b as usize] as usize];
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the blossom step threads the search arrays it updates explicitly"
    )]
    fn mark_path(
        base: &[u32],
        mate: &[u32],
        parent: &mut [u32],
        blossom: &mut [bool],
        mut v: u32,
        b: u32,
        mut child: u32,
    ) {
        while base[v as usize] != b {
            blossom[base[v as usize] as usize] = true;
            blossom[base[mate[v as usize] as usize] as usize] = true;
            parent[v as usize] = child;
            child = mate[v as usize];
            v = parent[mate[v as usize] as usize];
        }
    }

    // find an augmenting path from root and flip it; returns success
    let mut find_path = |mate: &mut Vec<u32>, root: u32| -> bool {
        used.iter_mut().for_each(|x| *x = false);
        parent.iter_mut().for_each(|x| *x = NONE);
        for (i, b) in base.iter_mut().enumerate() {
            *b = i as u32;
        }
        q.clear();
        q.push_back(root);
        used[root as usize] = true;
        while let Some(v) = q.pop_front() {
            for &to in g.neighbors(v) {
                if base[v as usize] == base[to as usize] || mate[v as usize] == to {
                    continue;
                }
                if to == root
                    || (mate[to as usize] != NONE && parent[mate[to as usize] as usize] != NONE)
                {
                    // blossom found: contract it
                    let curbase = lca(&base, &parent, mate, v, to);
                    blossom.iter_mut().for_each(|x| *x = false);
                    mark_path(&base, mate, &mut parent, &mut blossom, v, curbase, to);
                    mark_path(&base, mate, &mut parent, &mut blossom, to, curbase, v);
                    for i in 0..n {
                        if blossom[base[i] as usize] {
                            base[i] = curbase;
                            if !used[i] {
                                used[i] = true;
                                q.push_back(i as u32);
                            }
                        }
                    }
                } else if parent[to as usize] == NONE {
                    parent[to as usize] = v;
                    if mate[to as usize] == NONE {
                        // augment along the path ending at `to`
                        let mut u = to;
                        while u != NONE {
                            let pv = parent[u as usize];
                            let ppv = mate[pv as usize];
                            mate[u as usize] = pv;
                            mate[pv as usize] = u;
                            u = ppv;
                        }
                        return true;
                    } else {
                        let m = mate[to as usize];
                        if !used[m as usize] {
                            used[m as usize] = true;
                            q.push_back(m);
                        }
                    }
                }
            }
        }
        false
    };

    for v in 0..n as u32 {
        if mate[v as usize] == NONE {
            find_path(&mut mate, v);
        }
    }
    Matching { mate }
}

/// Exhaustive maximum-matching size (reference for tests): branch on each
/// edge. Exponential; tiny graphs only.
pub fn maximum_matching_size_brute(g: &Graph) -> usize {
    fn rec(edges: &[(u32, u32)], used: &mut Vec<bool>) -> usize {
        match edges.split_first() {
            None => 0,
            Some((&(u, v), rest)) => {
                let skip = rec(rest, used);
                if !used[u as usize] && !used[v as usize] {
                    used[u as usize] = true;
                    used[v as usize] = true;
                    let take = 1 + rec(rest, used);
                    used[u as usize] = false;
                    used[v as usize] = false;
                    skip.max(take)
                } else {
                    skip
                }
            }
        }
    }
    let mut used = vec![false; g.vertex_count() as usize];
    rec(g.edges(), &mut used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_families() {
        // path on n vertices: floor(n/2)
        let p5 = Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let m = maximum_matching(&p5);
        assert!(m.validate(&p5));
        assert_eq!(m.len(), 2);
        // K4: perfect matching
        let k4 = Graph::complete(4);
        assert_eq!(maximum_matching(&k4).len(), 2);
        // odd cycle C5: 2 (needs a blossom to see it is not 1)
        let c5 = Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let m = maximum_matching(&c5);
        assert!(m.validate(&c5));
        assert_eq!(m.len(), 2);
        // Petersen graph: perfect matching (size 5)
        let petersen = Graph::new(
            10,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0), // outer C5
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5), // inner pentagram
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9), // spokes
            ],
        );
        let m = maximum_matching(&petersen);
        assert!(m.validate(&petersen));
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn blossom_heavy_case() {
        // two triangles joined by a path — classic blossom trap for
        // non-contracting algorithms.
        let g = Graph::new(
            8,
            vec![
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let m = maximum_matching(&g);
        assert!(m.validate(&g));
        assert_eq!(m.len(), maximum_matching_size_brute(&g));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use crate::generators::random_bounded_degree;
        for seed in 0..30 {
            let g = random_bounded_degree(9, 4, 12, seed);
            let m = maximum_matching(&g);
            assert!(m.validate(&g), "seed {seed}");
            assert_eq!(m.len(), maximum_matching_size_brute(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_on_line_graphs() {
        use crate::{generators, line_graph};
        for seed in 0..10 {
            let b = generators::random_connected_bipartite(4, 4, 9, seed);
            let lg = line_graph(&b);
            let m = maximum_matching(&lg);
            assert!(m.validate(&lg), "seed {seed}");
            assert_eq!(m.len(), maximum_matching_size_brute(&lg), "seed {seed}");
        }
    }

    #[test]
    fn empty_and_trivial() {
        let g = Graph::empty(3);
        let m = maximum_matching(&g);
        assert!(m.is_empty());
        assert!(m.validate(&g));
        assert!(m.edges().is_empty());
        let e = Graph::new(2, vec![(0, 1)]);
        let m = maximum_matching(&e);
        assert_eq!(m.edges(), vec![(0, 1)]);
    }
}
