//! Exact Hamiltonian-path and minimum-jump path search.
//!
//! Proposition 2.1 of the paper: a connected graph `G` with `m` edges has a
//! *perfect* pebbling scheme (`π(G) = m`) iff its line graph `L(G)` has a
//! Hamiltonian path; Proposition 2.2 generalizes this to `π(G) = m + J`,
//! where `J` is the fewest *jumps* (steps between non-adjacent vertices)
//! of any path visiting every vertex of `L(G)`. This module provides the
//! exact (exponential) search for both, plus the backtracking enumerator
//! that certifies the Figure 2 diamond gadget (which needs *all*
//! Hamiltonian paths inspected).
//!
//! Both searches are one kernel, the layered endpoint-set DP
//! [`min_jump_layers`]. `layer_j[mask]` is a `u32` bitset of the vertices
//! at which a path visiting exactly `mask` with at most `j` jumps can end:
//!
//! * layer 0 is the Held–Karp-style Hamiltonian-path DP — a mask extends
//!   to every free vertex adjacent to one of its endpoints, which is one
//!   OR over the endpoints' adjacency words;
//! * layer `j` extends the same way, and additionally to *any* free vertex
//!   wherever layer `j − 1` is non-empty (the jump).
//!
//! Layers are deepened one at a time until the full mask has an endpoint,
//! so the first non-empty layer `J` is the minimum jump count, and the
//! path is rebuilt backwards from the stored layers. Time is
//! `O((J + 1) · 2ⁿ · n)` and memory `(J + 1) · 2ⁿ · 4` bytes; a plain
//! Hamiltonian-path question is the `J = 0` case and costs one layer.
//! `J` is at most `n − 1` on any graph (every vertex order is a path with
//! `n − 1` jumps), so a sparse or disconnected graph can need up to `n`
//! layers; line graphs of connected join graphs need `J ≤ ⌈n/4⌉` (the
//! 1.25 upper bound, Theorem 3.1).
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

use crate::graph::Graph;

/// Hard cap for the bitmask DP (memory is `2ⁿ` u32 words per layer).
pub const MAX_DP_VERTICES: u32 = 26;

/// How many masks of a layer [`min_jump_layers`] processes between two
/// abandon polls. Each mask is one OR per endpoint, so the polls cost
/// nothing measurable while a racer abandoning a 20-vertex search is
/// heard within a fraction of a millisecond. Graphs with at most 12
/// vertices (`2¹² = 4096` masks per layer) are never polled.
const ABANDON_POLL_MASKS: usize = 4096;

/// The stored layers of one [`min_jump_layers`] run.
#[derive(Debug, Clone)]
pub struct JumpLayers {
    n: usize,
    /// `adj[v]`: bitset of `v`'s neighbours.
    adj: Vec<u32>,
    /// `layers[j][mask]`: endpoints of paths over `mask` with ≤ `j` jumps.
    layers: Vec<Vec<u32>>,
    expanded: u64,
}

impl JumpLayers {
    /// The deepest layer computed: the minimum jump count whenever
    /// [`JumpLayers::ends`] is non-empty.
    pub fn jumps(&self) -> usize {
        self.layers.len().saturating_sub(1)
    }

    /// Bitset of the vertices at which a path visiting every vertex with
    /// at most [`JumpLayers::jumps`] jumps can end (empty when the search
    /// stopped at its jump cap first).
    pub fn ends(&self) -> u32 {
        let full = (1usize << self.n) - 1;
        self.layers
            .last()
            .and_then(|layer| layer.get(full))
            .copied()
            .unwrap_or(0)
    }

    /// DP cells allocated: `(jumps + 1) · 2ⁿ`, four bytes each.
    pub fn cells(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Masks expanded (a mask with at least one reachable free vertex),
    /// summed over all layers.
    pub fn expanded(&self) -> u64 {
        self.expanded
    }

    /// A path visiting every vertex with at most [`JumpLayers::jumps`]
    /// jumps and ending at `end`, in visit order; `None` when `end` is not
    /// in [`JumpLayers::ends`].
    pub fn path_to(&self, end: u32) -> Option<Vec<u32>> {
        if self.ends() & 1u32.checked_shl(end)? == 0 {
            return None;
        }
        let mut mask = (1usize << self.n) - 1;
        let mut v = end;
        let mut j = self.jumps();
        let mut path = Vec::with_capacity(self.n);
        path.push(v);
        // Invariant: a path over `mask` with ≤ `j` jumps ends at `v`, so
        // the lookups below stay in bounds and `j` never drops below 0.
        while mask.count_ones() > 1 {
            mask &= !(1usize << v);
            let layer = |j: usize| self.layers.get(j).and_then(|l| l.get(mask)).copied();
            let by_edge = layer(j)? & self.adj.get(v as usize)?;
            v = if by_edge != 0 {
                by_edge.trailing_zeros()
            } else {
                // no edge into `v` from this layer: the step was a jump
                j = j.checked_sub(1)?;
                layer(j)?.trailing_zeros()
            };
            path.push(v);
        }
        path.reverse();
        Some(path)
    }

    /// Computes the next layer; `false` when `abandon` stopped it.
    fn deepen(&mut self, seeds: u32, abandon: &dyn Fn(usize) -> bool) -> bool {
        let size = 1usize << self.n;
        let full = (size - 1) as u32;
        let prev = self.layers.last();
        let mut cur = vec![0u32; size];
        let mut seed = seeds & full;
        while seed != 0 {
            let v = seed.trailing_zeros();
            seed &= seed - 1;
            #[expect(
                clippy::indexing_slicing,
                reason = "seed ⊆ full, so v < n and 1 << v < size = cur.len()"
            )]
            {
                cur[1usize << v] |= 1 << v;
            }
        }
        for mask in 1..size {
            if mask % ABANDON_POLL_MASKS == 0 && abandon(mask) {
                return false;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "mask < size, the length of every layer"
            )]
            let reach = if prev.is_some_and(|p| p[mask] != 0) {
                full
            } else {
                #[expect(clippy::indexing_slicing, reason = "mask < size = cur.len()")]
                let mut ends = cur[mask];
                let mut reach = 0;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "endpoints lie in mask ⊆ full, so each is < n = adj.len()"
                )]
                while ends != 0 {
                    reach |= self.adj[ends.trailing_zeros() as usize];
                    ends &= ends - 1;
                }
                reach
            };
            let mut free = reach & !(mask as u32);
            if free == 0 {
                continue;
            }
            self.expanded += 1;
            while free != 0 {
                let bit = free & free.wrapping_neg();
                free ^= bit;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "adjacency words and `full` hold only bits < n, so mask | bit ≤ full < size"
                )]
                {
                    cur[mask | bit as usize] |= bit;
                }
            }
        }
        self.layers.push(cur);
        true
    }
}

/// The layered endpoint-set DP over `g`: paths start at a vertex of the
/// bitset `seeds`, and layers are deepened until some path visits every
/// vertex or the layer count reaches `max_jumps + 1`. Within every layer
/// `abandon(mask)` is called before each mask that is a multiple of 4096,
/// and the search gives up with `None` as soon as it returns `true`;
/// callers that never abandon pass `&|_| false`.
///
/// The result holds `(J + 1) · 2ⁿ` four-byte cells, where `J` is the
/// minimum jump count (capped at `max_jumps`): up to `n · 2ⁿ · 4` bytes
/// on an arbitrary graph, and far less on line graphs of connected join
/// graphs (see the module docs).
///
/// # Panics
/// Panics if `g` has more than [`MAX_DP_VERTICES`] vertices.
pub fn min_jump_layers(
    g: &Graph,
    seeds: u32,
    max_jumps: usize,
    abandon: &dyn Fn(usize) -> bool,
) -> Option<JumpLayers> {
    let n = g.vertex_count();
    assert!(
        n <= MAX_DP_VERTICES,
        "hamiltonian path DP supports at most {MAX_DP_VERTICES} vertices, got {n}"
    );
    let adj = (0..n)
        .map(|v| g.neighbors(v).iter().fold(0u32, |w, &u| w | 1 << u))
        .collect();
    let n = n as usize;
    let mut dp = JumpLayers {
        n,
        adj,
        layers: Vec::new(),
        expanded: 0,
    };
    let cap = max_jumps.min(n.saturating_sub(1));
    loop {
        if !dp.deepen(seeds, abandon) {
            return None;
        }
        if dp.ends() != 0 || dp.jumps() >= cap {
            return Some(dp);
        }
    }
}

/// Bitset of all `n` vertices.
fn all_vertices(g: &Graph) -> u32 {
    1u32.checked_shl(g.vertex_count())
        .map_or(u32::MAX, |b| b - 1)
}

/// Whether `g` has a Hamiltonian path. Graphs with 0 or 1 vertices count
/// as trivially traceable.
pub fn has_hamiltonian_path(g: &Graph) -> bool {
    hamiltonian_path(g).is_some()
}

/// Finds a Hamiltonian path, if one exists, as a vertex sequence.
pub fn hamiltonian_path(g: &Graph) -> Option<Vec<u32>> {
    if g.vertex_count() == 0 {
        return Some(Vec::new());
    }
    let dp = min_jump_layers(g, all_vertices(g), 0, &|_| false)?;
    dp.path_to(dp.ends().trailing_zeros())
}

/// Finds a Hamiltonian path with prescribed endpoints `s` and `t`, if one
/// exists. The returned path starts at `s` and ends at `t`.
///
/// # Panics
/// Panics if `s == t`.
pub fn hamiltonian_path_between(g: &Graph, s: u32, t: u32) -> Option<Vec<u32>> {
    assert!(s != t, "endpoints must differ");
    min_jump_layers(g, 1u32.checked_shl(s)?, 0, &|_| false)?.path_to(t)
}

/// Enumerates every Hamiltonian path of `g` (up to direction: each path is
/// reported once, with `path[0] ≤ path[last]`), invoking `f` for each.
/// Backtracking search — use only on small graphs (the Figure 2 gadget has
/// 11 vertices).
pub fn for_each_hamiltonian_path(g: &Graph, mut f: impl FnMut(&[u32])) {
    let n = g.vertex_count() as usize;
    if n == 0 {
        return;
    }
    if n == 1 {
        f(&[0]);
        return;
    }
    let mut path: Vec<u32> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn rec(
        g: &Graph,
        path: &mut Vec<u32>,
        used: &mut [bool],
        n: usize,
        f: &mut impl FnMut(&[u32]),
    ) {
        if path.len() == n {
            if path.first() <= path.last() {
                f(path);
            }
            return;
        }
        let Some(&last) = path.last() else {
            return;
        };
        for &w in g.neighbors(last) {
            #[expect(
                clippy::indexing_slicing,
                reason = "neighbours of a vertex of g are < n = used.len()"
            )]
            if !used[w as usize] {
                used[w as usize] = true;
                path.push(w);
                rec(g, path, used, n, f);
                path.pop();
                used[w as usize] = false;
            }
        }
    }
    #[expect(clippy::indexing_slicing, reason = "start < n = used.len()")]
    for start in 0..n as u32 {
        used[start as usize] = true;
        path.push(start);
        rec(g, &mut path, &mut used, n, &mut f);
        path.pop();
        used[start as usize] = false;
    }
}

/// The set of unordered endpoint pairs over all Hamiltonian paths of `g`.
pub fn hamiltonian_endpoint_pairs(g: &Graph) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for_each_hamiltonian_path(g, |p| {
        let (Some(&a), Some(&b)) = (p.first(), p.last()) else {
            return;
        };
        let e = (a.min(b), a.max(b));
        if !pairs.contains(&e) {
            pairs.push(e);
        }
    });
    pairs.sort_unstable();
    pairs
}

/// Validates that `path` is a Hamiltonian path of `g`.
pub fn is_hamiltonian_path(g: &Graph, path: &[u32]) -> bool {
    let n = g.vertex_count() as usize;
    if path.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in path {
        match seen.get_mut(v as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
    }
    path.iter()
        .zip(path.iter().skip(1))
        .all(|(&u, &v)| g.has_edge(u, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_graphs() {
        assert!(has_hamiltonian_path(&Graph::empty(0)));
        assert!(has_hamiltonian_path(&Graph::empty(1)));
        assert!(!has_hamiltonian_path(&Graph::empty(2)));
    }

    #[test]
    fn path_graph_is_traceable() {
        let g = Graph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let p = hamiltonian_path(&g).unwrap();
        assert!(is_hamiltonian_path(&g, &p));
        assert_eq!(hamiltonian_endpoint_pairs(&g), vec![(0, 3)]);
    }

    #[test]
    fn star_is_not_traceable() {
        // K_{1,3} has no Hamiltonian path.
        let g = Graph::new(4, vec![(0, 1), (0, 2), (0, 3)]);
        assert!(!has_hamiltonian_path(&g));
        assert!(hamiltonian_path(&g).is_none());
    }

    #[test]
    fn complete_graph_any_endpoints() {
        let g = Graph::complete(5);
        assert!(has_hamiltonian_path(&g));
        for s in 0..5 {
            for t in 0..5 {
                if s != t {
                    let p = hamiltonian_path_between(&g, s, t).unwrap();
                    assert!(is_hamiltonian_path(&g, &p));
                    assert_eq!(p[0], s);
                    assert_eq!(*p.last().unwrap(), t);
                }
            }
        }
        // K5 has paths between all 10 pairs
        assert_eq!(hamiltonian_endpoint_pairs(&g).len(), 10);
    }

    #[test]
    fn constrained_endpoints_respected() {
        // path 0-1-2-3: only 0..3 works
        let g = Graph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(hamiltonian_path_between(&g, 0, 3).is_some());
        assert!(hamiltonian_path_between(&g, 3, 0).is_some());
        assert!(hamiltonian_path_between(&g, 0, 2).is_none());
        assert!(hamiltonian_path_between(&g, 1, 2).is_none());
    }

    #[test]
    fn cycle_has_all_adjacent_breaks() {
        // C5: hamiltonian paths are the cycle minus one edge.
        let g = Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let pairs = hamiltonian_endpoint_pairs(&g);
        // endpoints of each path are the two ends of a removed edge
        assert_eq!(pairs, vec![(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn enumeration_counts_k4() {
        // K4 has 4!/2 = 12 Hamiltonian paths up to direction.
        let mut count = 0;
        for_each_hamiltonian_path(&Graph::complete(4), |_| count += 1);
        assert_eq!(count, 12);
    }

    #[test]
    fn spider_line_graph_is_not_traceable() {
        // L(G_n) for the Fig 1 family: K_n + n pendants. For n >= 3 there
        // is no Hamiltonian path (two pendants force >2 endpoints).
        use crate::{generators, line_graph::line_graph};
        assert!(!has_hamiltonian_path(&line_graph(&generators::spider(3))));
        assert!(!has_hamiltonian_path(&line_graph(&generators::spider(4))));
        // n = 2: G_2 is a path of 4 edges, L is a path -> traceable.
        assert!(has_hamiltonian_path(&line_graph(&generators::spider(2))));
    }

    #[test]
    fn validator_rejects_bad_paths() {
        let g = Graph::new(3, vec![(0, 1), (1, 2)]);
        assert!(is_hamiltonian_path(&g, &[0, 1, 2]));
        assert!(!is_hamiltonian_path(&g, &[0, 2, 1])); // 0-2 not an edge
        assert!(!is_hamiltonian_path(&g, &[0, 1])); // too short
        assert!(!is_hamiltonian_path(&g, &[0, 1, 1])); // repeat
    }
}
