//! The §5 open problem: optimal fragment mappings.
//!
//! "Many join algorithms in practice work by first mapping the input
//! relations `R` and `S` into `R₁ … R_m` and `S₁ … S_n`, and doing the
//! join by investigating a subset of the joins `R_i ⋈ S_j` … Here it is
//! natural to ask how hard it is to find the optimal mapping of the
//! tuples of `R` and `S` to the `R_i` and `S_j`. For the three classes of
//! joins we consider in this paper … this problem is NP-complete.
//! However, we conjecture that the problem for equijoins has good
//! approximation algorithms."
//!
//! Formalization implemented here: given the join graph `G = (R, S, E)`,
//! fragment counts `(p, q)` and per-fragment capacities, assign every
//! tuple to one fragment; fragment pair `(i, j)` must be *investigated*
//! if some joining tuple pair maps into it; minimize the number of
//! investigated pairs (each investigated pair is a sub-join that must be
//! scheduled — the parallelism / memory-pass cost of §5).
//!
//! * [`exact_min_investigated`] — brute force with fragment-symmetry
//!   pruning (tiny instances; the problem is NP-complete);
//! * [`component_pack`] — the equijoin-friendly heuristic behind the
//!   paper's conjecture: pack whole connected components into fragment
//!   pairs (components never straddle a sub-join unless capacity forces
//!   a split);
//! * [`local_search`] — tuple-relocation improvement for any mapping;
//! * [`connected_lower_bound`] — for a *connected* graph every pair of
//!   used fragments must be linked through investigated pairs, so at
//!   least `used_left + used_right − 1` sub-joins are unavoidable; with
//!   capacities this separates connected worst-case graphs (spiders,
//!   realizable only by containment/spatial joins) from equijoin graphs,
//!   which shatter into components (experiment E17).

use jp_graph::{BipartiteGraph, ComponentMap};
use std::collections::HashSet;

/// An assignment of tuples to fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentMapping {
    /// Fragment id (`0..p`) per left tuple.
    pub left: Vec<u32>,
    /// Fragment id (`0..q`) per right tuple.
    pub right: Vec<u32>,
    /// Number of left fragments `p`.
    pub p: u32,
    /// Number of right fragments `q`.
    pub q: u32,
}

impl FragmentMapping {
    /// Validates shape and fragment-id ranges against a graph, plus the
    /// capacity constraints.
    pub fn validate(
        &self,
        g: &BipartiteGraph,
        cap_left: usize,
        cap_right: usize,
    ) -> Result<(), String> {
        if self.left.len() != g.left_count() as usize {
            return Err(format!(
                "left mapping has {} entries for {} tuples",
                self.left.len(),
                g.left_count()
            ));
        }
        if self.right.len() != g.right_count() as usize {
            return Err(format!(
                "right mapping has {} entries for {} tuples",
                self.right.len(),
                g.right_count()
            ));
        }
        let mut lcount = vec![0usize; self.p as usize];
        for &f in &self.left {
            let slot = lcount
                .get_mut(f as usize)
                .ok_or(format!("left fragment {f} ≥ p"))?;
            *slot += 1;
            if *slot > cap_left {
                return Err(format!("left fragment {f} exceeds capacity {cap_left}"));
            }
        }
        let mut rcount = vec![0usize; self.q as usize];
        for &f in &self.right {
            let slot = rcount
                .get_mut(f as usize)
                .ok_or(format!("right fragment {f} ≥ q"))?;
            *slot += 1;
            if *slot > cap_right {
                return Err(format!("right fragment {f} exceeds capacity {cap_right}"));
            }
        }
        Ok(())
    }

    /// The set of fragment pairs that must be investigated.
    pub fn investigated(&self, g: &BipartiteGraph) -> HashSet<(u32, u32)> {
        g.edges()
            .iter()
            .map(|&(l, r)| (self.left[l as usize], self.right[r as usize]))
            .collect()
    }

    /// The cost: number of investigated fragment pairs.
    pub fn cost(&self, g: &BipartiteGraph) -> usize {
        self.investigated(g).len()
    }
}

/// Default capacity: balanced fragments with one tuple of slack.
pub fn balanced_capacity(tuples: usize, fragments: u32) -> usize {
    tuples.div_ceil(fragments.max(1) as usize)
}

/// Exhaustive minimum over all capacity-respecting mappings, with
/// first-use symmetry canonicalization (tuple `t` may open fragment `k`
/// only if fragments `0..k` are already open). Exponential — intended
/// for graphs with at most ~8 tuples per side.
///
/// # Panics
/// Panics when the capacities admit no assignment at all
/// (`p·cap_left < |R|` or `q·cap_right < |S|`).
pub fn exact_min_investigated(
    g: &BipartiteGraph,
    p: u32,
    q: u32,
    cap_left: usize,
    cap_right: usize,
) -> (FragmentMapping, usize) {
    let nl = g.left_count() as usize;
    let nr = g.right_count() as usize;
    assert!(
        nl + nr <= 16,
        "exact fragmentation is exponential; keep it tiny"
    );
    let mut best: Option<(FragmentMapping, usize)> = None;
    let mut left = vec![0u32; nl];
    let mut right = vec![0u32; nr];

    #[allow(
        clippy::too_many_arguments,
        reason = "the exhaustive search threads its partial assignment and incumbent explicitly"
    )]
    fn rec(
        g: &BipartiteGraph,
        p: u32,
        q: u32,
        cap_left: usize,
        cap_right: usize,
        left: &mut Vec<u32>,
        right: &mut Vec<u32>,
        idx: usize,
        best: &mut Option<(FragmentMapping, usize)>,
    ) {
        let nl = left.len();
        let nr = right.len();
        if idx == nl + nr {
            let m = FragmentMapping {
                left: left.clone(),
                right: right.clone(),
                p,
                q,
            };
            if m.validate(g, cap_left, cap_right).is_ok() {
                let c = m.cost(g);
                if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    *best = Some((m, c));
                }
            }
            return;
        }
        // canonical: next tuple may use fragments 0..=max_used+1
        let (assignments, used_max, frags): (&mut Vec<u32>, u32, u32) = if idx < nl {
            let used = left[..idx].iter().copied().max().map_or(0, |m| m + 1);
            (left, used, p)
        } else {
            let used = right[..idx - nl].iter().copied().max().map_or(0, |m| m + 1);
            (right, used, q)
        };
        let local = if idx < nl { idx } else { idx - nl };
        let limit = (used_max + 1).min(frags);
        let _ = assignments;
        for f in 0..limit {
            if idx < nl {
                left[local] = f;
            } else {
                right[local] = f;
            }
            rec(g, p, q, cap_left, cap_right, left, right, idx + 1, best);
        }
    }
    rec(
        g, p, q, cap_left, cap_right, &mut left, &mut right, 0, &mut best,
    );
    best.expect("some assignment exists (capacities must admit one)")
}

/// The component-packing heuristic: assign whole connected components to
/// fragment pairs, first-fit-decreasing by component size, splitting a
/// component across fragments only when capacity forces it. On equijoin
/// graphs (many small complete-bipartite components) this keeps each
/// component inside a single sub-join — the structure behind the paper's
/// conjecture that equijoin fragmentation approximates well.
///
/// ```
/// use jp_graph::generators;
/// use jp_pebble::fragmentation::component_pack;
///
/// // Four disjoint edges fit diagonally into a 2×2 fragment grid.
/// let g = generators::matching(4);
/// let m = component_pack(&g, 2, 2, 2, 2);
/// assert_eq!(m.cost(&g), 2); // two sub-joins instead of four
/// ```
pub fn component_pack(
    g: &BipartiteGraph,
    p: u32,
    q: u32,
    cap_left: usize,
    cap_right: usize,
) -> FragmentMapping {
    assert!(
        p as usize * cap_left >= g.left_count() as usize
            && q as usize * cap_right >= g.right_count() as usize,
        "capacities cannot hold the relations ({p}×{cap_left} / {q}×{cap_right} \
         for {}×{} tuples)",
        g.left_count(),
        g.right_count()
    );
    let cm = ComponentMap::new(g);
    let n_comp = cm.count as usize;
    // gather component members
    let mut comp_left: Vec<Vec<u32>> = vec![Vec::new(); n_comp];
    let mut comp_right: Vec<Vec<u32>> = vec![Vec::new(); n_comp];
    for (l, &c) in cm.left.iter().enumerate() {
        if c != u32::MAX {
            comp_left[c as usize].push(l as u32);
        }
    }
    for (r, &c) in cm.right.iter().enumerate() {
        if c != u32::MAX {
            comp_right[c as usize].push(r as u32);
        }
    }
    let mut order: Vec<usize> = (0..n_comp).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(comp_left[c].len() + comp_right[c].len()));
    let mut lroom = vec![cap_left; p as usize];
    let mut rroom = vec![cap_right; q as usize];
    let mut left = vec![u32::MAX; g.left_count() as usize];
    let mut right = vec![u32::MAX; g.right_count() as usize];
    // round-robin fallback distributor for overflow / isolated tuples
    let spill = |room: &mut Vec<usize>| -> u32 {
        let (idx, slot) = room
            .iter_mut()
            .enumerate()
            .max_by_key(|(_, r)| **r)
            .expect("fragments exist");
        if *slot > 0 {
            *slot -= 1;
        }
        idx as u32
    };
    let mut used_pairs: HashSet<(u32, u32)> = HashSet::new();
    for c in order {
        // best-fit *pair*: among pairs with room for the whole component,
        // reuse an already-investigated pair when possible (new pairs are
        // the cost being minimized), then prefer the roomiest.
        let fit = (0..p as usize)
            .flat_map(|lf| (0..q as usize).map(move |rf| (lf, rf)))
            .filter(|&(lf, rf)| lroom[lf] >= comp_left[c].len() && rroom[rf] >= comp_right[c].len())
            .max_by_key(|&(lf, rf)| {
                (
                    used_pairs.contains(&(lf as u32, rf as u32)),
                    lroom[lf].min(rroom[rf]),
                )
            });
        match fit {
            Some((lf, rf)) => {
                used_pairs.insert((lf as u32, rf as u32));
                lroom[lf] -= comp_left[c].len();
                rroom[rf] -= comp_right[c].len();
                for &l in &comp_left[c] {
                    left[l as usize] = lf as u32;
                }
                for &r in &comp_right[c] {
                    right[r as usize] = rf as u32;
                }
            }
            None => {
                // split: chunk each side into as few fragments as
                // possible (a k×l complete-bipartite component split over
                // a×b fragments costs a·b sub-joins, so minimizing the
                // fragment counts per side minimizes the damage)
                chunk_assign(&comp_left[c], &mut lroom, &mut left);
                chunk_assign(&comp_right[c], &mut rroom, &mut right);
            }
        }
    }
    // isolated tuples
    for slot in left.iter_mut().filter(|s| **s == u32::MAX) {
        *slot = spill(&mut lroom);
    }
    for slot in right.iter_mut().filter(|s| **s == u32::MAX) {
        *slot = spill(&mut rroom);
    }
    FragmentMapping { left, right, p, q }
}

/// Assigns `members` to fragments using as few fragments as possible:
/// repeatedly fill the fragment with the most remaining room.
fn chunk_assign(members: &[u32], room: &mut [usize], assign: &mut [u32]) {
    let mut idx = 0;
    while idx < members.len() {
        let (frag, r) = room
            .iter_mut()
            .enumerate()
            .max_by_key(|(_, r)| **r)
            .expect("fragments exist");
        // feasibility is asserted by the callers, so room always remains
        let take = (*r).min(members.len() - idx);
        assert!(take > 0, "chunk_assign called with exhausted capacity");
        *r -= take;
        for &m in &members[idx..idx + take] {
            assign[m as usize] = frag as u32;
        }
        idx += take;
    }
}

/// Tuple-relocation local search: repeatedly move one tuple to another
/// fragment (capacity permitting) when that reduces the investigated-pair
/// count; first-improvement, bounded passes.
pub fn local_search(
    g: &BipartiteGraph,
    mut m: FragmentMapping,
    cap_left: usize,
    cap_right: usize,
    max_passes: usize,
) -> FragmentMapping {
    let mut lcount = vec![0usize; m.p as usize];
    for &f in &m.left {
        lcount[f as usize] += 1;
    }
    let mut rcount = vec![0usize; m.q as usize];
    for &f in &m.right {
        rcount[f as usize] += 1;
    }
    let mut cost = m.cost(g);
    for _ in 0..max_passes {
        let mut improved = false;
        for l in 0..m.left.len() {
            let cur = m.left[l];
            for f in 0..m.p {
                if f == cur || lcount[f as usize] >= cap_left {
                    continue;
                }
                m.left[l] = f;
                let c = m.cost(g);
                if c < cost {
                    cost = c;
                    lcount[cur as usize] -= 1;
                    lcount[f as usize] += 1;
                    improved = true;
                    break;
                }
                m.left[l] = cur;
            }
        }
        for r in 0..m.right.len() {
            let cur = m.right[r];
            for f in 0..m.q {
                if f == cur || rcount[f as usize] >= cap_right {
                    continue;
                }
                m.right[r] = f;
                let c = m.cost(g);
                if c < cost {
                    cost = c;
                    rcount[cur as usize] -= 1;
                    rcount[f as usize] += 1;
                    improved = true;
                    break;
                }
                m.right[r] = cur;
            }
        }
        if !improved {
            break;
        }
    }
    m
}

/// Lower bound for *connected* graphs: contract tuples to fragments; the
/// investigated pairs form a connected bipartite graph over the used
/// fragments, so `cost ≥ used_left + used_right − 1`, and capacities
/// force `used_left ≥ ⌈|R'|/cap⌉`, `used_right ≥ ⌈|S'|/cap⌉` (primed =
/// non-isolated tuples). Returns 0 for edgeless graphs; for disconnected
/// graphs apply per component and take the max (a valid but weaker
/// bound).
pub fn connected_lower_bound(g: &BipartiteGraph, cap_left: usize, cap_right: usize) -> usize {
    let cm = ComponentMap::new(g);
    if cm.count == 0 {
        return 0;
    }
    let mut best = 0usize;
    let mut lsize = vec![0usize; cm.count as usize];
    let mut rsize = vec![0usize; cm.count as usize];
    for &c in cm.left.iter().filter(|&&c| c != u32::MAX) {
        lsize[c as usize] += 1;
    }
    for &c in cm.right.iter().filter(|&&c| c != u32::MAX) {
        rsize[c as usize] += 1;
    }
    for c in 0..cm.count as usize {
        let ul = lsize[c].div_ceil(cap_left.max(1));
        let ur = rsize[c].div_ceil(cap_right.max(1));
        best = best.max(ul + ur - 1);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::generators;

    #[test]
    fn cost_counts_distinct_pairs() {
        let g = generators::matching(4);
        // everything in one fragment pair
        let m = FragmentMapping {
            left: vec![0; 4],
            right: vec![0; 4],
            p: 2,
            q: 2,
        };
        assert_eq!(m.cost(&g), 1);
        // diagonal split
        let m = FragmentMapping {
            left: vec![0, 0, 1, 1],
            right: vec![0, 0, 1, 1],
            p: 2,
            q: 2,
        };
        assert_eq!(m.cost(&g), 2);
        // anti-diagonal: same count, different pairs
        let m = FragmentMapping {
            left: vec![0, 1, 0, 1],
            right: vec![0, 1, 0, 1],
            p: 2,
            q: 2,
        };
        assert_eq!(m.cost(&g), 2);
    }

    #[test]
    fn validate_checks_shape_and_capacity() {
        let g = generators::matching(3);
        let m = FragmentMapping {
            left: vec![0, 0, 0],
            right: vec![0, 0, 0],
            p: 1,
            q: 1,
        };
        assert!(m.validate(&g, 3, 3).is_ok());
        assert!(m.validate(&g, 2, 3).is_err(), "capacity violated");
        let bad = FragmentMapping {
            left: vec![0, 0],
            right: vec![0, 0, 0],
            p: 1,
            q: 1,
        };
        assert!(bad.validate(&g, 3, 3).is_err(), "shape mismatch");
        let oob = FragmentMapping {
            left: vec![5, 0, 0],
            right: vec![0, 0, 0],
            p: 1,
            q: 1,
        };
        assert!(oob.validate(&g, 3, 3).is_err(), "fragment id out of range");
    }

    #[test]
    fn exact_on_matching_achieves_diagonal() {
        // 4 independent edges into a 2×2 fragment grid with capacity 2:
        // optimal packs two edges per diagonal pair: cost 2.
        let g = generators::matching(4);
        let (m, c) = exact_min_investigated(&g, 2, 2, 2, 2);
        assert_eq!(c, 2);
        m.validate(&g, 2, 2).unwrap();
        assert_eq!(m.cost(&g), 2);
    }

    #[test]
    fn exact_on_connected_graph_matches_lower_bound() {
        // spider G_3: connected, 4 left (c,w1..w3) and 3 right tuples.
        // p = q = 2, caps force both left fragments and both right
        // fragments in use: cost ≥ 2 + 2 − 1 = 3.
        let g = generators::spider(3);
        let (_, c) = exact_min_investigated(&g, 2, 2, 2, 2);
        assert!(c >= connected_lower_bound(&g, 2, 2));
        assert_eq!(connected_lower_bound(&g, 2, 2), 3);
        assert_eq!(c, 3);
    }

    #[test]
    fn component_pack_is_valid_and_good_on_equijoin_graphs() {
        // 4 components of K_{2,2}: 8 left, 8 right tuples; 2×2 grid with
        // capacity 4 per fragment → two components per diagonal pair.
        let unit = generators::complete_bipartite(2, 2);
        let g = unit
            .disjoint_union(&unit)
            .disjoint_union(&unit)
            .disjoint_union(&unit);
        let m = component_pack(&g, 2, 2, 4, 4);
        m.validate(&g, 4, 4).unwrap();
        assert!(
            m.cost(&g) <= 3,
            "components should pack, got {}",
            m.cost(&g)
        );
        // connected-graph bound does not apply per whole graph: per
        // component it is 1.
        assert_eq!(connected_lower_bound(&g, 4, 4), 1);
    }

    #[test]
    fn component_pack_splits_when_forced() {
        // one K_{3,3} with capacity 2: must split
        let g = generators::complete_bipartite(3, 3);
        let m = component_pack(&g, 2, 2, 2, 2);
        m.validate(&g, 2, 2).unwrap();
        // all four fragment pairs become sub-joins for a split clique
        assert_eq!(m.cost(&g), 4);
    }

    #[test]
    fn local_search_never_worsens() {
        for seed in 0..10 {
            let g = generators::random_bipartite(6, 6, 0.3, seed);
            let cap = 3;
            let m0 = component_pack(&g, 2, 2, cap, cap);
            let before = m0.cost(&g);
            let m1 = local_search(&g, m0, cap, cap, 5);
            m1.validate(&g, cap, cap).unwrap();
            assert!(m1.cost(&g) <= before, "seed {seed}");
        }
    }

    #[test]
    fn equijoin_vs_worst_case_separation() {
        // The E17 story in miniature: an equijoin graph (4 matching
        // edges) needs 2 sub-joins on a 2×2 grid; the connected G_3
        // (containment/spatial-only) needs 3.
        let eq = generators::matching(4);
        let (_, c_eq) = exact_min_investigated(&eq, 2, 2, 2, 2);
        let worst = generators::spider(3);
        let (_, c_w) = exact_min_investigated(&worst, 2, 2, 2, 2);
        assert!(c_eq < c_w, "equijoin {c_eq} vs worst case {c_w}");
    }
}
