//! The constructive 1.25-approximation of Theorem 3.1.
//!
//! "We give a partition `E = E₁ ∪ … ∪ E_k`, where each `E_i` has a
//! Hamiltonian path and at most one `|E_i| < 4`." The construction works
//! on a rooted DFS tree of the (claw-free) line graph `L(G)`:
//!
//! 1. in a DFS tree of a claw-free graph every node has ≤ 2 children
//!    (children are pairwise non-adjacent, so 3 children + parent would
//!    be an induced `K_{1,3}`);
//! 2. *twin elimination*: two leaf siblings `l₁, l₂` under `p` with
//!    grandparent `g` cannot both be non-adjacent to `g` (claw-freeness,
//!    since `l₁ ⊥ l₂`), so rotating the tree — delete `(g,p)`, add
//!    `(g,l₁)`, making `p` a child of `l₁` — removes the twin without
//!    changing the vertex set or spanning property;
//! 3. repeatedly peel the subtree of a *lowest* node with ≥ 4 descendants:
//!    with no twins, each child subtree of size ≤ 3 is a path, so the
//!    peeled subtree is a path of 4–7 vertices; the rest of the tree stays
//!    connected. A final remainder of ≤ 3 vertices (connected, so
//!    traceable) may survive.
//!
//! Stitching the peeled paths yields a tour with at most
//! `⌊m/4⌋` jumps, i.e. `π ≤ ⌈1.25·m⌉` per connected component — the
//! Lemma 3.1 guarantee. (The sharper `π(G) ≤ 1.25m − 1` of Theorem 3.1 is
//! a statement about the *optimum*, certified separately by the exact
//! solver.)
//!
//! Each peel recomputes the DFS tree of the remaining induced subgraph —
//! `O(|L(G)|)` per round — keeping the implementation exactly aligned
//! with the proof. The paper's linear-time refinement (Lemma 3.1) is
//! represented at scale by [`crate::approx::euler_trails`].

use crate::approx::{per_component_scheme, stitch_paths};
use crate::scheme::PebblingScheme;
use crate::PebbleError;
use jp_graph::traversal::DfsTree;
use jp_graph::{BipartiteGraph, Graph};

/// Pebbles an arbitrary bipartite graph with guaranteed effective cost
/// `≤ Σ_c ⌈1.25·m_c⌉` over components (Theorem 3.1's algorithmic bound).
// audit:allow(obs-coverage) thin wrapper — per_component_scheme opens the approx.dfs_partition span
pub fn pebble_dfs_partition(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    per_component_scheme(g, "approx.dfs_partition", |lg| {
        let paths = partition_into_paths(lg);
        jp_obs::counter("approx.dfs_partition", "paths", paths.len() as u64);
        stitch_paths(lg, paths)
    })
}

/// Partitions the vertex set of a connected claw-free graph (a line
/// graph) into vertex-disjoint paths, all but at most one of length ≥ 4 —
/// the Theorem 3.1 partition. Exposed for direct testing of the
/// partition invariants.
// audit:allow(obs-coverage) partition worker — pebble_dfs_partition opens the span
pub fn partition_into_paths(lg: &Graph) -> Vec<Vec<u32>> {
    let n = lg.vertex_count() as usize;
    if n == 0 {
        return Vec::new();
    }
    debug_assert!(
        jp_graph::line_graph::is_claw_free(lg),
        "input must be claw-free"
    );
    let mut alive: Vec<bool> = vec![true; n];
    let mut alive_count = n;
    let mut paths: Vec<Vec<u32>> = Vec::new();
    while alive_count > 0 {
        #[expect(clippy::indexing_slicing, reason = "v ranges over 0..n == alive.len()")]
        let keep: Vec<u32> = (0..n as u32).filter(|&v| alive[v as usize]).collect();
        let (sub, back) = lg.induced_subgraph(&keep);
        debug_assert!(sub.is_connected(), "peeling must preserve connectivity");
        if alive_count <= 3 {
            let p = small_hamiltonian_path(&sub);
            #[expect(
                clippy::indexing_slicing,
                reason = "subgraph vertices index back, which maps all of them"
            )]
            paths.push(p.into_iter().map(|v| back[v as usize]).collect());
            break;
        }
        let path = peel_one_path(&sub);
        #[expect(
            clippy::indexing_slicing,
            reason = "back maps subgraph vertices to original ids < n"
        )]
        for &v in &path {
            alive[back[v as usize] as usize] = false;
        }
        alive_count -= path.len();
        #[expect(
            clippy::indexing_slicing,
            reason = "back maps subgraph vertices to original ids < n"
        )]
        paths.push(path.into_iter().map(|v| back[v as usize]).collect());
    }
    paths
}

/// Hamiltonian path of a connected graph with ≤ 3 vertices (single
/// vertex, edge, path, or triangle — all traceable).
fn small_hamiltonian_path(g: &Graph) -> Vec<u32> {
    let n = g.vertex_count();
    debug_assert!((1..=3).contains(&n));
    match n {
        1 => vec![0],
        2 => vec![0, 1],
        #[expect(
            clippy::unreachable,
            reason = "proof invariant: a connected graph on 3 vertices is traceable"
        )]
        _ => {
            // order the three vertices so consecutive ones are adjacent
            for [a, b, c] in [[0u32, 1, 2], [0, 2, 1], [1, 0, 2]] {
                if g.has_edge(a, b) && g.has_edge(b, c) {
                    return vec![a, b, c];
                }
            }
            unreachable!("connected graph on 3 vertices is traceable")
        }
    }
}

/// One round of the Theorem 3.1 peeling on a connected claw-free graph
/// with ≥ 4 vertices: DFS tree, twin elimination, peel the subtree of a
/// lowest node with ≥ 4 descendants. Returns the peeled path.
fn peel_one_path(sub: &Graph) -> Vec<u32> {
    let n = sub.vertex_count() as usize;
    let t = DfsTree::new(sub, 0);
    debug_assert_eq!(t.len(), n, "graph must be connected");
    // Mutable tree representation.
    let mut parent = t.parent.clone();
    let mut children = t.children.clone();
    eliminate_twins(sub, &mut parent, &mut children);
    // Depths and subtree sizes from the (rotated) tree.
    let order = preorder(t.root, &children, n);
    let mut depth = vec![0u32; n];
    let mut size = vec![1u32; n];
    for &v in &order {
        #[expect(
            clippy::indexing_slicing,
            reason = "tree arrays are n-sized and hold vertex ids < n"
        )]
        if parent[v as usize] != u32::MAX {
            depth[v as usize] = depth[parent[v as usize] as usize] + 1;
        }
    }
    for &v in order.iter().rev() {
        #[expect(
            clippy::indexing_slicing,
            reason = "tree arrays are n-sized and hold vertex ids < n"
        )]
        if parent[v as usize] != u32::MAX {
            size[parent[v as usize] as usize] += size[v as usize];
        }
    }
    // Lowest (deepest) node with >= 4 descendants; the root itself has
    // n >= 4 descendants (caller's guard).
    #[expect(
        clippy::indexing_slicing,
        reason = "v ranges over 0..n == size.len() == depth.len()"
    )]
    let r = (0..n as u32)
        .filter(|&v| size[v as usize] >= 4)
        .max_by_key(|&v| depth[v as usize])
        .unwrap_or(t.root);
    // Collect r's subtree; with no twins it is a path through r.
    #[expect(clippy::indexing_slicing, reason = "r < n == size.len()")]
    let subtree = preorder(r, &children, size[r as usize] as usize);
    linearize_path_subtree(r, &children, &subtree)
}

/// Preorder of the subtree rooted at `r` (capacity hint `cap`).
fn preorder(r: u32, children: &[Vec<u32>], cap: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(cap);
    let mut stack = vec![r];
    while let Some(v) = stack.pop() {
        out.push(v);
        #[expect(
            clippy::indexing_slicing,
            reason = "tree nodes are vertex ids < children.len()"
        )]
        for &c in children[v as usize].iter().rev() {
            stack.push(c);
        }
    }
    out
}

/// Twin elimination: while two leaf siblings exist, rotate. Leaf siblings
/// are pairwise non-adjacent (DFS children), so claw-freeness guarantees
/// the grandparent is adjacent to one of them.
fn eliminate_twins(g: &Graph, parent: &mut [u32], children: &mut [Vec<u32>]) {
    loop {
        let mut rotated = false;
        for p in 0..parent.len() as u32 {
            #[expect(
                clippy::indexing_slicing,
                reason = "p ranges over 0..parent.len() == children.len(), and children hold vertex ids < children.len()"
            )]
            let leaves: Vec<u32> = children[p as usize]
                .iter()
                .copied()
                .filter(|&c| children[c as usize].is_empty())
                .collect();
            if leaves.len() < 2 {
                continue;
            }
            #[expect(clippy::indexing_slicing, reason = "p ranges over 0..parent.len()")]
            let gp = parent[p as usize];
            if gp == u32::MAX {
                // p is the root: with ≤2 children both leaves, the whole
                // tree is a path already (≤3 nodes) — caller handles that
                // case before peeling; no rotation possible or needed.
                continue;
            }
            let [l1, l2, ..] = leaves.as_slice() else {
                continue; // unreachable: guarded by leaves.len() >= 2 above
            };
            let (l1, l2) = (*l1, *l2);
            // claw-freeness: gp adjacent to l1 or l2
            let l = if g.has_edge(gp, l1) {
                l1
            } else {
                debug_assert!(
                    g.has_edge(gp, l2),
                    "claw-freeness violated: {gp} not adjacent to either twin"
                );
                l2
            };
            // rotate: remove (gp, p), add (gp, l), reparent p under l
            #[expect(
                clippy::indexing_slicing,
                reason = "gp, p, l are tree vertex ids < children.len() == parent.len()"
            )]
            {
                children[gp as usize].retain(|&c| c != p);
                children[gp as usize].push(l);
                children[p as usize].retain(|&c| c != l);
                children[l as usize].push(p);
                parent[l as usize] = gp;
                parent[p as usize] = l;
            }
            rotated = true;
            break;
        }
        if !rotated {
            return;
        }
    }
}

/// Linearizes a tree known to be a path (every node ≤ 2 tree-neighbours):
/// returns the vertices in path order.
///
/// # Panics
///
/// Panics if `r` has more than two children or another node of the
/// subtree has more than one. Neither happens on the tree `peel_one_path`
/// passes in. There every node has at most two children, because a DFS
/// tree of a claw-free graph does and the rotations of `eliminate_twins`
/// never add a child to a node that had one. After twin elimination no
/// node has two leaf children. And `r` is a lowest node with ≥ 4
/// descendants, so each child subtree of `r` has at most 3 nodes; a
/// twin-free tree on at most 3 nodes is a path hanging from its root.
fn linearize_path_subtree(r: u32, children: &[Vec<u32>], subtree: &[u32]) -> Vec<u32> {
    // r has ≤ 2 children; every other node ≤ 1 child. Walk down each arm.
    let walk_down = |start: u32| -> Vec<u32> {
        let mut arm = Vec::new();
        let mut v = start;
        loop {
            arm.push(v);
            #[expect(
                clippy::indexing_slicing,
                reason = "tree nodes are vertex ids < children.len()"
            )]
            match children[v as usize].as_slice() {
                [] => break,
                [c] => v = *c,
                #[expect(
                    clippy::panic,
                    reason = "proof invariant: twin elimination leaves every non-root node <= 1 child"
                )]
                more => panic!(
                    "subtree is not a path: node {v} has {} children (twin elimination incomplete)",
                    more.len()
                ),
            }
        }
        arm
    };
    #[expect(
        clippy::indexing_slicing,
        reason = "r is a tree vertex id < children.len()"
    )]
    let path = match children[r as usize].as_slice() {
        [] => vec![r],
        [c] => {
            let mut p = vec![r];
            p.extend(walk_down(*c));
            p
        }
        [c1, c2] => {
            let mut left = walk_down(*c1);
            left.reverse();
            left.push(r);
            left.extend(walk_down(*c2));
            left
        }
        #[expect(
            clippy::panic,
            reason = "proof invariant: DFS trees of claw-free graphs have <= 2 children per node"
        )]
        more => panic!(
            "node {r} has {} children in a claw-free DFS tree",
            more.len()
        ),
    };
    debug_assert_eq!(
        path.len(),
        subtree.len(),
        "path must cover the whole subtree"
    );
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use jp_graph::{generators, line_graph};

    fn check_partition(g: &BipartiteGraph) {
        let lg = line_graph(g);
        let paths = partition_into_paths(&lg);
        // disjoint cover
        let mut seen = vec![false; lg.vertex_count() as usize];
        for p in &paths {
            for w in p.windows(2) {
                assert!(lg.has_edge(w[0], w[1]), "parts must be paths in L(G)");
            }
            for &v in p {
                assert!(!seen[v as usize], "vertex {v} covered twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all vertices covered");
        // at most one small part
        let small = paths.iter().filter(|p| p.len() < 4).count();
        assert!(small <= 1, "at most one part smaller than 4, got {small}");
    }

    #[test]
    fn partition_invariants_on_families() {
        for g in [
            generators::spider(3),
            generators::spider(6),
            generators::path(9),
            generators::cycle(4),
            generators::complete_bipartite(3, 4),
            generators::star(7),
        ] {
            check_partition(&g);
        }
    }

    #[test]
    fn partition_invariants_on_random_graphs() {
        for seed in 0..25 {
            let g = generators::random_connected_bipartite(5, 6, 14, seed);
            check_partition(&g);
        }
    }

    #[test]
    fn guarantee_holds_on_families() {
        for g in [
            generators::spider(8),
            generators::path(13),
            generators::complete_bipartite(4, 5),
            generators::cycle(6),
        ] {
            let s = pebble_dfs_partition(&g).unwrap();
            s.validate(&g).unwrap();
            let m = g.edge_count();
            assert!(
                s.effective_cost(&g) <= (5 * m).div_ceil(4),
                "{g}: cost {} > 1.25·{m}",
                s.effective_cost(&g)
            );
        }
    }

    #[test]
    fn guarantee_holds_on_random_graphs() {
        // CLAIM(T3.1)
        for seed in 0..30 {
            let g = generators::random_connected_bipartite(6, 6, 16, seed);
            let s = pebble_dfs_partition(&g).unwrap();
            s.validate(&g).unwrap();
            let m = g.edge_count();
            assert!(s.effective_cost(&g) <= (5 * m).div_ceil(4), "seed {seed}");
            assert!(s.effective_cost(&g) >= bounds::lower_bound_effective(&g));
        }
    }

    #[test]
    fn achieves_optimum_on_easy_graphs() {
        // On stars L(G) = K_n: everything is adjacent, no jumps possible.
        let g = generators::star(9);
        let s = pebble_dfs_partition(&g).unwrap();
        assert_eq!(s.effective_cost(&g), 9);
    }

    #[test]
    fn within_125_of_exact_on_small_graphs() {
        use crate::exact::optimal_effective_cost;
        for seed in 0..15 {
            let g = generators::random_connected_bipartite(4, 4, 10, seed);
            let approx = pebble_dfs_partition(&g).unwrap().effective_cost(&g);
            let opt = optimal_effective_cost(&g).unwrap();
            assert!(approx >= opt, "seed {seed}");
            assert!(
                approx as f64 <= 1.25 * opt as f64 + 1.0,
                "seed {seed}: {approx} vs {opt}"
            );
        }
    }

    #[test]
    fn disconnected_graphs_handled() {
        let g = generators::spider(4).disjoint_union(&generators::path(5));
        let s = pebble_dfs_partition(&g).unwrap();
        s.validate(&g).unwrap();
    }

    #[test]
    fn single_edge() {
        let g = generators::complete_bipartite(1, 1);
        let s = pebble_dfs_partition(&g).unwrap();
        assert_eq!(s.effective_cost(&g), 1);
    }
}
