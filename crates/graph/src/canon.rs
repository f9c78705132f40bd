//! Canonical forms for small bipartite components — the fingerprint
//! behind `jp-pebble`'s memo cache.
//!
//! Lemma 2.2 (additivity) reduces every pebbling problem to its
//! connected components, and real workloads repeat the same component
//! *shapes* endlessly (equijoin `K_{k,l}` blocks, matchings, short
//! paths). Two isomorphic components have the same optimal cost and —
//! up to relabeling — the same optimal scheme, so a cache keyed by a
//! canonical form turns the repeats into hash lookups.
//!
//! [`canonical_form`] computes an exact canonical labeling in two
//! stages:
//!
//! 1. **degree-sequence refinement** (1-WL / color refinement): vertices
//!    start colored by `(side, degree)` and are repeatedly split by the
//!    multiset of neighbor colors until stable. Color ids are ranks of
//!    sorted signatures, so they are isomorphism-invariant;
//! 2. **canonical labeling by exhaustion within color classes**: only
//!    permutations inside a refinement class can matter, so the minimum
//!    relabeled edge list over the (budgeted) product of per-class
//!    permutations is a true canonical form. Both orientations are
//!    tried so a component and its mirror (`K_{2,3}` vs `K_{3,2}`)
//!    share a key.
//!
//! Highly symmetric components (large classes refinement cannot split,
//! e.g. crown graphs) blow the [`MAX_CANON_LABELINGS`] budget; the
//! function then returns `None` and the caller simply solves fresh —
//! canonicalization is an accelerator, never an obligation.
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

use crate::bipartite::BipartiteGraph;

/// Components with more vertices than this are not canonicalized —
/// beyond it the refinement cost and key size outgrow the solve they
/// would save.
pub const MAX_CANON_VERTICES: u32 = 64;

/// Upper bound on candidate labelings (the product of per-class
/// factorials, both sides, both orientations counted separately).
pub const MAX_CANON_LABELINGS: u64 = 20_000;

/// Largest refinement class the exhaustive stage will permute.
pub const MAX_CANON_CLASS: usize = 7;

/// The canonical fingerprint of a bipartite graph: isomorphic graphs
/// (including mirror images) produce equal keys, non-isomorphic graphs
/// produce distinct keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey {
    /// Vertices on the canonical left side.
    pub left: u32,
    /// Vertices on the canonical right side.
    pub right: u32,
    /// The lexicographically minimal relabeled edge list, sorted.
    pub edges: Vec<(u32, u32)>,
}

/// A canonical key together with the labeling that produced it, so
/// edge-level data attached to the key (e.g. a cached pebbling order)
/// can be translated to and from this graph's labels.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The graph's canonical fingerprint.
    pub key: CanonicalKey,
    /// Whether the canonical left side is this graph's *right* side.
    pub swapped: bool,
    to_canon_a: Vec<u32>,
    to_canon_b: Vec<u32>,
    from_canon_a: Vec<u32>,
    from_canon_b: Vec<u32>,
}

impl CanonicalForm {
    /// The canonical edge id of this graph's edge `e`, i.e. the index
    /// of its relabeled pair in `key.edges`. `None` if `e` is out of
    /// range (the form was built for a different graph).
    pub fn canonical_edge(&self, g: &BipartiteGraph, e: usize) -> Option<usize> {
        let &(l, r) = g.edges().get(e)?;
        let (av, bv) = if self.swapped { (r, l) } else { (l, r) };
        let a = self.to_canon_a.get(av as usize).copied()?;
        let b = self.to_canon_b.get(bv as usize).copied()?;
        self.key.edges.binary_search(&(a, b)).ok()
    }

    /// The edge id in `g` of the canonical edge `k`. `None` if `k` is
    /// out of range or the pair is not an edge of `g` (the form was
    /// built for a different graph).
    pub fn original_edge(&self, g: &BipartiteGraph, k: usize) -> Option<usize> {
        let &(a, b) = self.key.edges.get(k)?;
        let av = self.from_canon_a.get(a as usize).copied()?;
        let bv = self.from_canon_b.get(b as usize).copied()?;
        let (l, r) = if self.swapped { (bv, av) } else { (av, bv) };
        g.edge_index(l, r)
    }
}

/// Computes the canonical form of `g`, or `None` when the graph is too
/// large or too symmetric for the labeling budget (see the module
/// docs) — callers then solve without the cache.
pub fn canonical_form(g: &BipartiteGraph) -> Option<CanonicalForm> {
    if g.vertex_count() > MAX_CANON_VERTICES {
        return None;
    }
    // Orientation 1: canonical left = g's left.
    let fwd: Vec<(u32, u32)> = g.edges().to_vec();
    // Orientation 2: the mirror image.
    let rev: Vec<(u32, u32)> = g.edges().iter().map(|&(l, r)| (r, l)).collect();
    let cand_fwd = best_labeling(g.left_count(), g.right_count(), &fwd);
    let cand_rev = best_labeling(g.right_count(), g.left_count(), &rev);
    let (swapped, best) = match (cand_fwd, cand_rev) {
        (Some(f), Some(r)) => {
            let fk = (g.left_count(), g.right_count(), &f.edges);
            let rk = (g.right_count(), g.left_count(), &r.edges);
            if rk < fk {
                (true, r)
            } else {
                (false, f)
            }
        }
        // Both orientations face the same class structure, so a budget
        // bail on one side is a bail on both; `None` otherwise would
        // make the key depend on which side happened to fit.
        _ => return None,
    };
    let (left, right) = if swapped {
        (g.right_count(), g.left_count())
    } else {
        (g.left_count(), g.right_count())
    };
    Some(CanonicalForm {
        key: CanonicalKey {
            left,
            right,
            edges: best.edges,
        },
        swapped,
        from_canon_a: invert(&best.label_a),
        from_canon_b: invert(&best.label_b),
        to_canon_a: best.label_a,
        to_canon_b: best.label_b,
    })
}

/// The winning labeling of one orientation: the minimal relabeled edge
/// list plus the vertex → canonical-label maps that produced it.
struct Labeling {
    edges: Vec<(u32, u32)>,
    label_a: Vec<u32>,
    label_b: Vec<u32>,
}

/// `label[v] = canonical label` → `inv[label] = v`.
fn invert(label: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; label.len()];
    for (v, &lab) in label.iter().enumerate() {
        if let Some(slot) = inv.get_mut(lab as usize) {
            *slot = v as u32;
        }
    }
    inv
}

/// One refinement class on one side: the vertices sharing a final
/// color, plus every candidate ordering of them the exhaustive stage
/// will try (a single ordering when permuting cannot change the edge
/// list).
struct Class {
    /// `true` for side A (canonical left), `false` for side B.
    side_a: bool,
    /// First canonical label of the class's block.
    base: u32,
    /// Candidate orderings of the class's vertices.
    perms: Vec<Vec<u32>>,
}

/// Exact canonical labeling of one orientation: WL refinement, then
/// the lexicographically minimal relabeled edge list over all
/// per-class permutations. `None` when the budget is blown.
fn best_labeling(a_count: u32, b_count: u32, edges: &[(u32, u32)]) -> Option<Labeling> {
    let (colors_a, colors_b) = refine(a_count, b_count, edges);
    let classes = build_classes(&colors_a, &colors_b, edges)?;

    let mut label_a = vec![0u32; a_count as usize];
    let mut label_b = vec![0u32; b_count as usize];
    let mut counters = vec![0usize; classes.len()];
    let mut best: Option<Labeling> = None;
    loop {
        // Materialize the labeling selected by the current counters.
        for (class, &c) in classes.iter().zip(&counters) {
            let target = if class.side_a {
                &mut label_a
            } else {
                &mut label_b
            };
            let perm = class.perms.get(c)?; // counters stay in range
            for (offset, &v) in perm.iter().enumerate() {
                if let Some(slot) = target.get_mut(v as usize) {
                    *slot = class.base + offset as u32;
                }
            }
        }
        let mut relabeled: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(av, bv)| {
                let a = label_a.get(av as usize).copied().unwrap_or(u32::MAX);
                let b = label_b.get(bv as usize).copied().unwrap_or(u32::MAX);
                (a, b)
            })
            .collect();
        relabeled.sort_unstable();
        let better = match &best {
            Some(b) => relabeled < b.edges,
            None => true,
        };
        if better {
            best = Some(Labeling {
                edges: relabeled,
                label_a: label_a.clone(),
                label_b: label_b.clone(),
            });
        }
        // Advance the odometer over per-class permutation choices.
        let mut done = true;
        for (c, class) in counters.iter_mut().zip(&classes) {
            *c += 1;
            if *c < class.perms.len() {
                done = false;
                break;
            }
            *c = 0;
        }
        if done {
            return best;
        }
    }
}

/// 1-WL color refinement over both sides. Returns the stable color of
/// every vertex, per side; equal colors ⇒ the vertices are not
/// distinguished by any degree-sequence invariant.
fn refine(a_count: u32, b_count: u32, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<usize>) {
    let mut adj_a: Vec<Vec<u32>> = vec![Vec::new(); a_count as usize];
    let mut adj_b: Vec<Vec<u32>> = vec![Vec::new(); b_count as usize];
    for &(av, bv) in edges {
        if let Some(n) = adj_a.get_mut(av as usize) {
            n.push(bv);
        }
        if let Some(n) = adj_b.get_mut(bv as usize) {
            n.push(av);
        }
    }
    // Initial colors: rank of (side, degree) among the distinct pairs.
    let sig0: Vec<(usize, usize)> = adj_a
        .iter()
        .map(|n| (0usize, n.len()))
        .chain(adj_b.iter().map(|n| (1usize, n.len())))
        .collect();
    let mut colors = rank(&sig0);
    let n = colors.len();
    let mut distinct = count_distinct(&colors);
    for _ in 0..n {
        // Signature: own color + sorted neighbor-color multiset. B-side
        // colors live at offset `a_count` in the flat color vector.
        let sig: Vec<(usize, Vec<usize>)> = (0..n)
            .map(|v| {
                let own = colors.get(v).copied().unwrap_or(0);
                let nbrs = if v < a_count as usize {
                    adj_a.get(v).map(Vec::as_slice).unwrap_or(&[])
                } else {
                    adj_b
                        .get(v - a_count as usize)
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                };
                let mut nc: Vec<usize> = nbrs
                    .iter()
                    .filter_map(|&u| {
                        let flat = if v < a_count as usize {
                            a_count as usize + u as usize
                        } else {
                            u as usize
                        };
                        colors.get(flat).copied()
                    })
                    .collect();
                nc.sort_unstable();
                (own, nc)
            })
            .collect();
        colors = rank(&sig);
        let d = count_distinct(&colors);
        if d == distinct {
            break;
        }
        distinct = d;
    }
    let colors_b = colors.split_off(a_count as usize);
    (colors, colors_b)
}

/// Replaces each signature by the rank of its value among the sorted
/// distinct signatures — canonical color ids.
fn rank<T: Ord + Clone>(sigs: &[T]) -> Vec<usize> {
    let mut sorted: Vec<T> = sigs.to_vec();
    sorted.sort();
    sorted.dedup();
    sigs.iter()
        .map(|s| sorted.binary_search(s).unwrap_or(0))
        .collect()
}

fn count_distinct(colors: &[usize]) -> usize {
    let mut c = colors.to_vec();
    c.sort_unstable();
    c.dedup();
    c.len()
}

/// Groups each side into refinement classes (in color order, so the
/// label blocks are isomorphism-invariant) and precomputes each class's
/// candidate permutations. `None` when a class is too large or the
/// total labeling count blows [`MAX_CANON_LABELINGS`].
fn build_classes(
    colors_a: &[usize],
    colors_b: &[usize],
    edges: &[(u32, u32)],
) -> Option<Vec<Class>> {
    let mut touched_a = vec![false; colors_a.len()];
    let mut touched_b = vec![false; colors_b.len()];
    for &(av, bv) in edges {
        if let Some(t) = touched_a.get_mut(av as usize) {
            *t = true;
        }
        if let Some(t) = touched_b.get_mut(bv as usize) {
            *t = true;
        }
    }
    let mut classes = Vec::new();
    let mut budget = 1u64;
    for (side_a, colors, touched) in [(true, colors_a, &touched_a), (false, colors_b, &touched_b)] {
        let mut by_color: std::collections::BTreeMap<usize, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (v, &c) in colors.iter().enumerate() {
            by_color.entry(c).or_default().push(v as u32);
        }
        let mut base = 0u32;
        for (_, members) in by_color {
            let size = members.len();
            // Permuting vertices no edge touches cannot change the edge
            // list; give those classes (and singletons) one ordering.
            let needs_perms = size > 1
                && members
                    .iter()
                    .any(|&v| touched.get(v as usize) == Some(&true));
            let perms = if needs_perms {
                if size > MAX_CANON_CLASS {
                    return None;
                }
                let all = permutations(&members);
                budget = budget.saturating_mul(all.len() as u64);
                if budget > MAX_CANON_LABELINGS {
                    return None;
                }
                all
            } else {
                vec![members.clone()]
            };
            classes.push(Class {
                side_a,
                base,
                perms,
            });
            base += size as u32;
        }
    }
    Some(classes)
}

/// All permutations of `items`, by Heap's algorithm.
fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut a = items.to_vec();
    let n = a.len();
    let mut c = vec![0usize; n];
    out.push(a.clone());
    let mut i = 0;
    while i < n {
        let Some(ci) = c.get_mut(i) else {
            break; // unreachable: i < n == c.len() by construction
        };
        if *ci < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(*ci, i);
            }
            out.push(a.clone());
            *ci += 1;
            i = 0;
        } else {
            *ci = 0;
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Relabels `g` by the given vertex permutations (left and right).
    fn relabel(g: &BipartiteGraph, lperm: &[u32], rperm: &[u32]) -> BipartiteGraph {
        let edges = g
            .edges()
            .iter()
            .map(|&(l, r)| (lperm[l as usize], rperm[r as usize]))
            .collect();
        BipartiteGraph::new(g.left_count(), g.right_count(), edges)
    }

    fn key(g: &BipartiteGraph) -> CanonicalKey {
        canonical_form(g).expect("canonicalizable").key
    }

    #[test]
    fn isomorphic_relabelings_share_a_key() {
        for g in [
            generators::spider(4),
            generators::path(7),
            generators::matching(5),
            generators::complete_bipartite(3, 4),
            generators::random_connected_bipartite(4, 4, 9, 3),
            generators::caterpillar(4),
        ] {
            let k = key(&g);
            let lperm: Vec<u32> = (0..g.left_count()).rev().collect();
            let rperm: Vec<u32> = (0..g.right_count())
                .map(|i| (i + 1) % g.right_count())
                .collect();
            assert_eq!(key(&relabel(&g, &lperm, &rperm)), k, "{g}");
        }
    }

    #[test]
    fn mirror_images_share_a_key() {
        assert_eq!(
            key(&generators::complete_bipartite(2, 3)),
            key(&generators::complete_bipartite(3, 2))
        );
        assert_eq!(
            key(&generators::complete_bipartite(1, 5)),
            key(&generators::complete_bipartite(5, 1))
        );
    }

    #[test]
    fn non_isomorphic_graphs_get_distinct_keys() {
        // C8 vs C4 ⊎ C4 (= K_{2,2} ⊎ K_{2,2}): identical degree
        // sequences (2-regular, 4+4 vertices, 8 edges) — refinement
        // alone cannot split them, the exhaustive stage must
        let c8 = generators::cycle(4);
        let c4x2 = generators::cycle(2).disjoint_union(&generators::cycle(2));
        assert_ne!(key(&c8), key(&c4x2));
        assert_ne!(key(&generators::path(5)), key(&generators::path(6)));
        assert_ne!(
            key(&generators::complete_bipartite(2, 3)),
            key(&generators::complete_bipartite(2, 4))
        );
    }

    #[test]
    fn too_symmetric_components_bail_within_budget() {
        // crown(6): 6+6 vertices, all degree 5, WL cannot split either
        // side, 720·720 labelings blow the budget — a clean None
        assert!(canonical_form(&generators::crown(6)).is_none());
    }

    #[test]
    fn canonicalization_is_deterministic() {
        let g = generators::random_connected_bipartite(5, 4, 11, 9);
        let a = canonical_form(&g).unwrap();
        let b = canonical_form(&g).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.swapped, b.swapped);
    }

    #[test]
    fn edge_translation_round_trips() {
        for g in [
            generators::spider(4),
            generators::complete_bipartite(3, 2),
            generators::random_connected_bipartite(4, 5, 10, 1),
        ] {
            let f = canonical_form(&g).unwrap();
            assert_eq!(f.key.edges.len(), g.edge_count());
            let mut seen = vec![false; g.edge_count()];
            for k in 0..f.key.edges.len() {
                let e = f.original_edge(&g, k).expect("maps to an edge");
                assert!(!seen[e], "canonical edge {k} duplicated");
                seen[e] = true;
                assert_eq!(f.canonical_edge(&g, e), Some(k), "round trip of {e}");
            }
            assert!(seen.iter().all(|&s| s), "every edge covered");
        }
    }

    #[test]
    fn translation_carries_schemes_between_isomorphic_copies() {
        // the memo's core soundness property: an edge order expressed in
        // canonical ids lands on corresponding edges of any isomorphic
        // copy
        let g1 = generators::random_connected_bipartite(4, 4, 9, 5);
        let lperm: Vec<u32> = vec![2, 0, 3, 1];
        let rperm: Vec<u32> = vec![1, 3, 0, 2];
        let g2 = relabel(&g1, &lperm, &rperm);
        let f1 = canonical_form(&g1).unwrap();
        let f2 = canonical_form(&g2).unwrap();
        assert_eq!(f1.key, f2.key);
        // the edge correspondence k ↦ (e1, e2) must be induced by a
        // vertex isomorphism (it may differ from (lperm, rperm) by an
        // automorphism of g1, which is fine)
        let mut lmap = vec![None; g1.left_count() as usize];
        let mut rmap = vec![None; g1.right_count() as usize];
        for k in 0..f1.key.edges.len() {
            let e1 = f1.original_edge(&g1, k).unwrap();
            let e2 = f2.original_edge(&g2, k).unwrap();
            let (l1, r1) = g1.edges()[e1];
            let (l2, r2) = g2.edges()[e2];
            for (map, from, to) in [(&mut lmap, l1, l2), (&mut rmap, r1, r2)] {
                match map[from as usize] {
                    None => map[from as usize] = Some(to),
                    Some(prev) => assert_eq!(prev, to, "inconsistent vertex map"),
                }
            }
        }
        // injective on every vertex that carries an edge
        for map in [&lmap, &rmap] {
            let mut targets: Vec<u32> = map.iter().flatten().copied().collect();
            let before = targets.len();
            targets.sort_unstable();
            targets.dedup();
            assert_eq!(targets.len(), before, "vertex map not injective");
        }
    }
}
