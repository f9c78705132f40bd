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
//! [`canonical_form`] labels a graph by individualization–refinement,
//! the design of McKay & Piperno, "Practical graph isomorphism, II"
//! (J. Symbolic Computation 60, 2014):
//!
//! 1. **Partition refinement.** An ordered partition of the vertices
//!    lives in flat arrays: `lab` lists the vertices by position, and
//!    `cell_end[s]` gives the end of the cell that starts at position
//!    `s`. Refinement takes a splitter cell, counts each vertex's
//!    neighbours in it (neighbour sets are `u64` masks, so a count is a
//!    popcount), and splits every cell by that count, smaller counts
//!    first. New fragments become splitters in turn until the partition
//!    is equitable. The root partition is `[side A | side B]`.
//! 2. **Search.** While some cell has more than one vertex, each vertex
//!    of the first such cell is individualized in turn (moved to a cell
//!    of its own at the cell's front) and the partition refined again.
//!    A leaf is a discrete partition, i.e. a labeling; its certificate
//!    is the relabeled adjacency. Refinement and the choice of cell
//!    commute with relabeling, so the set of leaf certificates is an
//!    isomorphism invariant, and the least one is the canonical form.
//! 3. **Automorphism pruning.** Two leaves with equal certificates
//!    differ by an automorphism, which is kept as a generator. A vertex
//!    in the orbit of an already searched sibling, under the generators
//!    that fix the path to the node, is not searched. A leaf equal to
//!    the first or the best leaf also abandons the rest of its subtree,
//!    back to the node where its path left that leaf's path. A crown
//!    (`K_{n,n}` minus a perfect matching, `n!` labelings per side)
//!    then costs `O(n²)` nodes.
//!
//! When the sides have equal size both orientations are searched, so a
//! component and its mirror share a key; otherwise the smaller side is
//! the canonical left (`K_{2,3}` and `K_{3,2}` both key as `K_{2,3}`).
//! [`MAX_CANON_NODES`] bounds the search; a component that reaches it
//! gets `None` and the caller solves it fresh.
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

/// Components with more vertices than this are not canonicalized: the
/// search keeps a vertex set in one `u64`, and beyond it the key outgrows
/// the solve it would save.
pub const MAX_CANON_VERTICES: u32 = 64;

/// Search nodes one [`canonical_form`] call may visit, both orientations
/// together. Components from real workloads need a few dozen at most
/// (a 7+7-vertex random block a handful, `crown(10)` about a hundred).
/// The bound exists for components sent over the wire: a hostile
/// ≤ 64-vertex graph with few automorphisms that refinement cannot
/// split could otherwise make one memo probe search exponentially many
/// labelings. Such a component gets `None` and is solved fresh.
pub const MAX_CANON_NODES: u64 = 1 << 14;

/// The canonical fingerprint of a bipartite graph: isomorphic graphs
/// (including mirror images) produce equal keys, non-isomorphic graphs
/// produce distinct keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey {
    /// Vertices on the canonical left side.
    pub left: u32,
    /// Vertices on the canonical right side.
    pub right: u32,
    /// The edge list relabeled by the least leaf of the search, sorted.
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
    /// The graph's left side size: left vertex `l` is flat vertex `l`,
    /// right vertex `r` is flat vertex `left + r`.
    left: u32,
    /// Flat vertex → canonical position. Positions below `key.left`
    /// are canonical left labels; position `p` above is right label
    /// `p - key.left`.
    to_canon: Vec<u32>,
    /// Canonical position → flat vertex.
    from_canon: Vec<u32>,
}

impl CanonicalForm {
    /// The canonical edge id of this graph's edge `e`, i.e. the index
    /// of its relabeled pair in `key.edges`. `None` if `e` is out of
    /// range (the form was built for a different graph).
    pub fn canonical_edge(&self, g: &BipartiteGraph, e: usize) -> Option<usize> {
        let &(l, r) = g.edges().get(e)?;
        let pl = self.to_canon.get(l as usize).copied()?;
        let pr = self
            .to_canon
            .get(self.left.checked_add(r)? as usize)
            .copied()?;
        let (pa, pb) = if self.swapped { (pr, pl) } else { (pl, pr) };
        let b = pb.checked_sub(self.key.left)?;
        self.key.edges.binary_search(&(pa, b)).ok()
    }

    /// The edge id in `g` of the canonical edge `k`. `None` if `k` is
    /// out of range or the pair is not an edge of `g` (the form was
    /// built for a different graph).
    pub fn original_edge(&self, g: &BipartiteGraph, k: usize) -> Option<usize> {
        let &(a, b) = self.key.edges.get(k)?;
        let va = self.from_canon.get(a as usize).copied()?;
        let vb = self
            .from_canon
            .get(self.key.left.checked_add(b)? as usize)
            .copied()?;
        let (vl, vr) = if self.swapped { (vb, va) } else { (va, vb) };
        g.edge_index(vl, vr.checked_sub(self.left)?)
    }
}

/// Computes the canonical form of `g`, or `None` when the graph has
/// more than [`MAX_CANON_VERTICES`] vertices or its search reaches
/// [`MAX_CANON_NODES`] — callers then solve without the cache.
pub fn canonical_form(g: &BipartiteGraph) -> Option<CanonicalForm> {
    label(g, true)
}

/// [`canonical_form`], with or without automorphism pruning. The
/// unpruned search visits every leaf; the tests compare the two to check
/// that pruning never loses the least leaf.
fn label(g: &BipartiteGraph, prune: bool) -> Option<CanonicalForm> {
    let (left, right) = (g.left_count(), g.right_count());
    if u64::from(left) + u64::from(right) > u64::from(MAX_CANON_VERTICES) {
        return None;
    }
    let mut search = Search::new(g, prune);
    // The key compares (left, right) first, so with unequal sides only
    // the orientation that puts the smaller side left can win.
    if left <= right {
        search.run(false)?;
    }
    if right <= left {
        search.run(true)?;
    }
    let (n, swapped, best) = (search.n, search.kept_swapped, &search.kept);
    let (a, b) = if swapped {
        (right, left)
    } else {
        (left, right)
    };
    let from_canon: Vec<u32> = best.lab.iter().take(n).map(|&v| u32::from(v)).collect();
    let mut to_canon = vec![0u32; n];
    for (pos, &v) in (0u32..).zip(&from_canon) {
        if let Some(slot) = to_canon.get_mut(v as usize) {
            *slot = pos;
        }
    }
    let mut edges = Vec::with_capacity(g.edge_count());
    for (i, &row) in (0..a).zip(&best.cert) {
        edges.extend(Bits(row).map(|j| (i, j)));
    }
    Some(CanonicalForm {
        key: CanonicalKey {
            left: a,
            right: b,
            edges,
        },
        swapped,
        left,
        to_canon,
        from_canon,
    })
}

/// Vertex capacity of the search's fixed-size arrays.
const W: usize = MAX_CANON_VERTICES as usize;

/// The mask of vertex (or position) `x`; `x < 64` throughout, since no
/// searched graph has more than [`MAX_CANON_VERTICES`] vertices.
fn bit(x: u32) -> u64 {
    1u64.checked_shl(x).unwrap_or(0)
}

/// The set bits of a mask, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let x = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(x)
    }
}

/// The end of the cell starting at `start`; always past `start`, so a
/// scan over cells makes progress.
fn end_of(cell_end: &[u32], start: usize) -> usize {
    cell_end
        .get(start)
        .map_or(usize::MAX, |&e| (e as usize).max(start + 1))
}

/// The vertices at positions `range` of `lab`, as a mask.
fn mask_of(lab: &[u32], range: std::ops::Range<usize>) -> u64 {
    lab.get(range)
        .unwrap_or(&[])
        .iter()
        .fold(0, |m, &v| m | bit(v))
}

/// The refinement: splitters waiting to be applied, and scratch space
/// for the cell being split.
struct Refiner {
    /// Start positions of the cells waiting to act as splitters. The
    /// lowest goes first, an order that relabeling cannot change.
    queued: u64,
    /// `(neighbour count, vertex)` for the cell being split.
    keyed: [(u32, u32); W],
}

impl Refiner {
    /// Refines `(lab, cell_end)` with the queued splitters until the
    /// partition is equitable: the vertices of a cell have equally many
    /// neighbours in each cell. Positions below `a` hold one side and
    /// the rest the other, so a splitter can only split cells across.
    fn refine(&mut self, adj: &[u64; W], a: usize, lab: &mut [u32], cell_end: &mut [u32]) {
        while self.queued != 0 {
            let w = self.queued.trailing_zeros() as usize;
            self.queued &= self.queued - 1;
            let splitter = mask_of(lab, w..end_of(cell_end, w));
            let (mut start, stop) = if w < a { (a, lab.len()) } else { (0, a) };
            while start < stop {
                let end = end_of(cell_end, start);
                if end - start > 1 {
                    self.split(adj, splitter, start, end, lab, cell_end);
                }
                start = end;
            }
        }
    }

    /// Splits the cell `start..end` by each vertex's neighbour count in
    /// `splitter`, fragments in increasing count order, and queues the
    /// fragments as splitters: all of them if the cell was queued (its
    /// first fragment keeps the queued start), otherwise all but the
    /// first largest, whose counts follow from the others'.
    fn split(
        &mut self,
        adj: &[u64; W],
        splitter: u64,
        start: usize,
        end: usize,
        lab: &mut [u32],
        cell_end: &mut [u32],
    ) {
        let count = |v: u32| {
            adj.get(v as usize)
                .map_or(0, |&m| (m & splitter).count_ones())
        };
        let (Some(cell), Some(keyed)) =
            (lab.get_mut(start..end), self.keyed.get_mut(..end - start))
        else {
            return;
        };
        let Some(&v0) = cell.first() else {
            return;
        };
        let c0 = count(v0);
        if cell.iter().all(|&v| count(v) == c0) {
            return;
        }
        for (k, &v) in keyed.iter_mut().zip(cell.iter()) {
            *k = (count(v), v);
        }
        keyed.sort_unstable();
        for (slot, &(_, v)) in cell.iter_mut().zip(keyed.iter()) {
            *slot = v;
        }
        // (length, MAX - start): the first of the largest fragments wins
        let mut largest = (0, 0);
        let mut frag = start;
        for (i, pair) in keyed.windows(2).enumerate() {
            if let [(x, _), (y, _)] = pair {
                if x != y {
                    let frag_end = start + i + 1;
                    if let Some(e) = cell_end.get_mut(frag) {
                        *e = frag_end as u32;
                    }
                    largest = largest.max((frag_end - frag, usize::MAX - frag));
                    frag = frag_end;
                }
            }
        }
        if let Some(e) = cell_end.get_mut(frag) {
            *e = end as u32;
        }
        largest = largest.max((end - frag, usize::MAX - frag));
        let skip = if self.queued & bit(start as u32) != 0 {
            start
        } else {
            usize::MAX - largest.1
        };
        let mut frag = start;
        while frag < end {
            if frag != skip {
                self.queued |= bit(frag as u32);
            }
            frag = end_of(cell_end, frag);
        }
    }
}

/// A leaf of the search: the labeling (`lab[pos]` = vertex), its
/// certificate, and the individualized vertices on the path to it.
/// Only the prefixes for the current graph are meaningful.
struct Leaf {
    lab: [u8; W],
    /// One row per canonical left label: the mask of its neighbours'
    /// canonical right labels.
    cert: [u64; W],
    path: [u8; W],
}

impl Leaf {
    const EMPTY: Leaf = Leaf {
        lab: [0; W],
        cert: [0; W],
        path: [0; W],
    };

    fn set(&mut self, lab: &[u32], cert: &[u64], path: &[u32]) {
        for (d, &v) in self.lab.iter_mut().zip(lab) {
            *d = v as u8;
        }
        for (d, &row) in self.cert.iter_mut().zip(cert) {
            *d = row;
        }
        for (d, &v) in self.path.iter_mut().zip(path) {
            *d = v as u8;
        }
    }
}

/// How a subtree's search ended.
enum Step {
    /// Searched (or pruned) completely.
    Done,
    /// An automorphism showed the rest of the search below the node at
    /// this level to be redundant.
    Unwind(usize),
    /// [`MAX_CANON_NODES`] ran out.
    Exhausted,
}

/// The individualization–refinement search of one graph, one
/// orientation per [`Search::run`].
struct Search {
    /// Neighbour mask of every flat vertex: left vertex `l` is `l`,
    /// right vertex `r` is `left + r`.
    adj: [u64; W],
    left: u32,
    n: usize,
    /// Size of the canonical left side in the current orientation.
    a: usize,
    /// One ordered partition per level of the current path, `2n`
    /// entries each: `lab` (vertices by position), then `cell_end`
    /// (`cell_end[s]` ends the cell starting at position `s`).
    part: Vec<u32>,
    refiner: Refiner,
    /// `path[..level]`: the vertices individualized on the way to the
    /// current node at `level`.
    path: [u32; W],
    /// The first leaf of this orientation, once `have_first`.
    first: Leaf,
    have_first: bool,
    /// The least leaf of this orientation, once `have_best`; until a
    /// leaf beats `first`, `first` is the least.
    best: Leaf,
    have_best: bool,
    /// Certificate of the leaf being scored.
    cert: [u64; W],
    /// The least leaf over the orientations searched so far (when
    /// `have_kept`), and whether it is the swapped one.
    kept: Leaf,
    have_kept: bool,
    kept_swapped: bool,
    /// Automorphisms found: each as a vertex permutation, with the
    /// mask of the vertices it moves.
    gens: Vec<([u8; W], u64)>,
    /// Whether automorphisms prune the search, and the node budget
    /// applies (always, outside tests).
    prune: bool,
    nodes_left: u64,
}

impl Search {
    fn new(g: &BipartiteGraph, prune: bool) -> Search {
        let left = g.left_count();
        let mut adj = [0u64; W];
        for &(l, r) in g.edges() {
            if let Some(m) = adj.get_mut(l as usize) {
                *m |= bit(left + r);
            }
            if let Some(m) = adj.get_mut((left + r) as usize) {
                *m |= bit(l);
            }
        }
        let n = (left + g.right_count()) as usize;
        Search {
            adj,
            left,
            n,
            a: 0,
            part: Vec::with_capacity(8 * n),
            refiner: Refiner {
                queued: 0,
                keyed: [(0, 0); W],
            },
            path: [0; W],
            first: Leaf::EMPTY,
            have_first: false,
            best: Leaf::EMPTY,
            have_best: false,
            cert: [0; W],
            kept: Leaf::EMPTY,
            have_kept: false,
            kept_swapped: false,
            gens: Vec::new(),
            prune,
            nodes_left: if prune { MAX_CANON_NODES } else { u64::MAX },
        }
    }

    /// The partition of `level`, as `(lab, cell_end)`.
    fn level(&self, level: usize) -> Option<(&[u32], &[u32])> {
        let n = self.n;
        let part = self.part.get(2 * n * level..2 * n * (level + 1))?;
        Some(part.split_at(n))
    }

    /// Searches with the graph's right side (`swapped`) or left side
    /// as the canonical left, and keeps the least leaf in `kept` if it
    /// is less than the other orientation's. `None` when the node
    /// budget runs out.
    fn run(&mut self, swapped: bool) -> Option<()> {
        let (left, n) = (self.left, self.n as u32);
        let (a_side, b_side) = if swapped {
            (left..n, 0..left)
        } else {
            (0..left, left..n)
        };
        self.a = a_side.len();
        self.part.clear();
        self.part.extend(a_side.chain(b_side));
        self.part.resize(2 * self.n, 0);
        let (lab, cell_end) = self.part.split_at_mut(self.n);
        for (start, end) in [(0, self.a), (self.a, self.n)] {
            if let (true, Some(e)) = (start < end, cell_end.get_mut(start)) {
                *e = end as u32;
                self.refiner.queued |= bit(start as u32);
            }
        }
        self.refiner.refine(&self.adj, self.a, lab, cell_end);
        self.gens.clear();
        self.have_first = false;
        self.have_best = false;
        if let Step::Exhausted = self.visit(0) {
            return None;
        }
        let least = if self.have_best {
            &self.best
        } else {
            &self.first
        };
        let a = self.a;
        if !self.have_kept || least.cert.get(..a) < self.kept.cert.get(..a) {
            self.kept.lab = least.lab;
            self.kept.cert = least.cert;
            self.have_kept = true;
            self.kept_swapped = swapped;
        }
        Some(())
    }

    /// Searches the subtree of the node at `level`, whose refined
    /// partition is the `level`-th in `part`.
    fn visit(&mut self, level: usize) -> Step {
        if self.nodes_left == 0 {
            return Step::Exhausted;
        }
        self.nodes_left -= 1;
        let Some((lab, cell_end)) = self.level(level) else {
            return Step::Exhausted;
        };
        let mut start = 0;
        let target = loop {
            if start >= self.n {
                break None;
            }
            let end = end_of(cell_end, start);
            if end - start > 1 {
                break Some((start, end));
            }
            start = end;
        };
        let Some((start, end)) = target else {
            return self.leaf(level);
        };
        let mut searched = 0u64;
        for v in Bits(mask_of(lab, start..end)) {
            if self.prune && searched != 0 && self.orbit(v, level) & searched != 0 {
                continue;
            }
            searched |= bit(v);
            if let Some(p) = self.path.get_mut(level) {
                *p = v;
            }
            self.individualize(level, start, end, v);
            match self.visit(level + 1) {
                Step::Done => {}
                Step::Unwind(to) if to >= level => {}
                other => return other,
            }
        }
        Step::Done
    }

    /// Copies the partition at `level` to `level + 1`, moves `v` to a
    /// cell of its own at the front of the cell `start..end`, and
    /// refines.
    fn individualize(&mut self, level: usize, start: usize, end: usize, v: u32) {
        let size = 2 * self.n;
        let (from, to) = (size * level, size * (level + 1));
        if self.part.len() < to + size {
            self.part.resize(to + size, 0);
        }
        self.part.copy_within(from..to, to);
        let Some(part) = self.part.get_mut(to..to + size) else {
            return;
        };
        let (lab, cell_end) = part.split_at_mut(self.n);
        if let Some(p) = lab
            .get(start..end)
            .and_then(|c| c.iter().position(|&u| u == v))
        {
            lab.swap(start, start + p);
        }
        if let Some(e) = cell_end.get_mut(start) {
            *e = (start + 1) as u32;
        }
        if let Some(e) = cell_end.get_mut(start + 1) {
            *e = end as u32;
        }
        self.refiner.queued = bit(start as u32);
        self.refiner.refine(&self.adj, self.a, lab, cell_end);
    }

    /// The orbit of `v` under the automorphisms found so far that fix
    /// the path to the node at `level`.
    fn orbit(&self, v: u32, level: usize) -> u64 {
        let path = self.path.get(..level).unwrap_or(&[]);
        let fixed = path.iter().fold(0, |m, &f| m | bit(f));
        let mut orbit = bit(v);
        let mut frontier = orbit;
        while frontier != 0 {
            let mut grown = orbit;
            for (g, _) in self.gens.iter().filter(|(_, moved)| moved & fixed == 0) {
                for u in Bits(frontier) {
                    grown |= g.get(u as usize).map_or(0, |&w| bit(u32::from(w)));
                }
            }
            frontier = grown & !orbit;
            orbit = grown;
        }
        orbit
    }

    /// Scores the discrete partition at `level` against the first and
    /// the best leaf.
    fn leaf(&mut self, level: usize) -> Step {
        let n = self.n;
        let Some(lab) = self.part.get(2 * n * level..2 * n * level + n) else {
            return Step::Exhausted;
        };
        let mut inv = [0u32; W];
        for (pos, &v) in (0u32..).zip(lab) {
            if let Some(p) = inv.get_mut(v as usize) {
                *p = pos;
            }
        }
        let a = self.a;
        for (row, &v) in self.cert.iter_mut().zip(lab.get(..a).unwrap_or(&[])) {
            let nbrs = self.adj.get(v as usize).copied().unwrap_or(0);
            *row = Bits(nbrs).fold(0, |row, u| {
                row | inv
                    .get(u as usize)
                    .map_or(0, |&p| bit(p.wrapping_sub(a as u32)))
            });
        }
        let (cert, path) = (
            self.cert.get(..a).unwrap_or(&[]),
            self.path.get(..level).unwrap_or(&[]),
        );
        if !self.have_first {
            self.first.set(lab, cert, path);
            self.have_first = true;
            return Step::Done;
        }
        let equal = if Some(cert) == self.first.cert.get(..a) {
            &self.first
        } else {
            let least = if self.have_best {
                &self.best
            } else {
                &self.first
            };
            match Some(cert).cmp(&least.cert.get(..a)) {
                std::cmp::Ordering::Equal => least,
                std::cmp::Ordering::Less => {
                    self.best.set(lab, cert, path);
                    self.have_best = true;
                    return Step::Done;
                }
                std::cmp::Ordering::Greater => return Step::Done,
            }
        };
        if !self.prune {
            return Step::Done;
        }
        // Equal certificates: `lab[i] ↦ equal.lab[i]` is an automorphism
        // taking this leaf's path to `equal`'s, so the subtree where the
        // two paths part mirrors one already searched.
        let mut gen = [0u8; W];
        let mut moved = 0;
        for (&u, &w) in lab.iter().zip(&equal.lab) {
            if let Some(slot) = gen.get_mut(u as usize) {
                *slot = w;
            }
            if u != u32::from(w) {
                moved |= bit(u);
            }
        }
        let parted = path
            .iter()
            .zip(&equal.path)
            .position(|(&x, &y)| x != u32::from(y))
            .unwrap_or(level);
        self.gens.push((gen, moved));
        Step::Unwind(parted)
    }
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

    /// A pseudo-random permutation of `0..n` (Fisher–Yates on an LCG).
    fn scrambled(n: u32, seed: u64) -> Vec<u32> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut p: Vec<u32> = (0..n).collect();
        for i in (1..p.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.swap(i, (state >> 33) as usize % (i + 1));
        }
        p
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
    fn crowns_canonicalize_and_share_keys_with_their_copies() {
        // crown(n) = K_{n,n} minus a perfect matching: refinement splits
        // nothing, n!·n! side-preserving labelings, and an automorphism
        // group of order 2·n! that the search must find to stay small
        for n in 4..=10 {
            let g = generators::crown(n);
            let k = key(&g);
            assert_eq!(
                (k.left, k.right, k.edges.len()),
                (n, n, (n * (n - 1)) as usize)
            );
            let lperm: Vec<u32> = (0..n).map(|i| (i + 2) % n).collect();
            let rperm: Vec<u32> = (0..n).rev().collect();
            assert_eq!(key(&relabel(&g, &lperm, &rperm)), k, "crown({n}) relabeled");
            assert_eq!(key(&mirror(&g)), k, "crown({n}) mirrored");
            // one vertex pair short of a crown is another graph
            let mut edges = g.edges().to_vec();
            edges.pop();
            assert_ne!(key(&BipartiteGraph::new(n, n, edges)), k);
        }
    }

    /// `g` with its sides exchanged.
    fn mirror(g: &BipartiteGraph) -> BipartiteGraph {
        let edges = g.edges().iter().map(|&(l, r)| (r, l)).collect();
        BipartiteGraph::new(g.right_count(), g.left_count(), edges)
    }

    /// The edge-subset graph of `K_{l,r}` whose edge `(i, j)` is bit
    /// `i·r + j` of `mask`.
    fn subset_graph(l: u32, r: u32, mask: u32) -> BipartiteGraph {
        let edges = (0..l)
            .flat_map(|i| (0..r).map(move |j| (i, j)))
            .filter(|&(i, j)| mask >> (i * r + j) & 1 == 1)
            .collect();
        BipartiteGraph::new(l, r, edges)
    }

    /// `mask` (a subset of `K_{l,r}`) with its edge bits moved by `f`,
    /// as a subset of `K_{l2,r2}`.
    fn map_mask(l: u32, r: u32, r2: u32, mask: u32, f: impl Fn(u32, u32) -> (u32, u32)) -> u32 {
        let mut out = 0;
        for i in 0..l {
            for j in 0..r {
                if mask >> (i * r + j) & 1 == 1 {
                    let (i2, j2) = f(i, j);
                    out |= 1 << (i2 * r2 + j2);
                }
            }
        }
        out
    }

    #[test]
    fn keys_match_isomorphism_classes_on_every_small_edge_subset() {
        // Every edge subset of K_{3,3}, K_{3,4}, K_{4,3} and K_{4,4}.
        // The isomorphism classes come from a BFS over masks whose
        // moves generate every isomorphism: adjacent transpositions on
        // each side, the side swap of a square shape, and the mirror
        // between K_{3,4} and K_{4,3}. Keys must be equal exactly when
        // two subsets share a class.
        let shapes: [(u32, u32); 4] = [(3, 3), (3, 4), (4, 3), (4, 4)];
        let mut offset = [0usize; 4];
        let mut total = 0;
        for (o, &(l, r)) in offset.iter_mut().zip(&shapes) {
            *o = total;
            total += 1 << (l * r);
        }
        let node = |shape: usize, mask: u32| offset[shape] + mask as usize;
        let moves = |shape: usize, mask: u32| {
            let (l, r) = shapes[shape];
            let mut out = Vec::new();
            for t in 0..l - 1 {
                let swap = |i: u32| {
                    if i == t {
                        t + 1
                    } else if i == t + 1 {
                        t
                    } else {
                        i
                    }
                };
                out.push(node(shape, map_mask(l, r, r, mask, |i, j| (swap(i), j))));
            }
            for t in 0..r - 1 {
                let swap = |j: u32| {
                    if j == t {
                        t + 1
                    } else if j == t + 1 {
                        t
                    } else {
                        j
                    }
                };
                out.push(node(shape, map_mask(l, r, r, mask, |i, j| (i, swap(j)))));
            }
            let mirror_shape = shapes.iter().position(|&s| s == (r, l)).unwrap();
            out.push(node(mirror_shape, map_mask(l, r, l, mask, |i, j| (j, i))));
            out
        };
        let mut class = vec![usize::MAX; total];
        let mut classes = 0;
        for (shape, &(l, r)) in shapes.iter().enumerate() {
            for mask in 0..1u32 << (l * r) {
                if class[node(shape, mask)] != usize::MAX {
                    continue;
                }
                class[node(shape, mask)] = classes;
                let mut stack = vec![(shape, mask)];
                while let Some((s, m)) = stack.pop() {
                    for next in moves(s, m) {
                        if class[next] == usize::MAX {
                            class[next] = classes;
                            let s2 = offset.iter().rposition(|&o| o <= next).unwrap();
                            stack.push((s2, (next - offset[s2]) as u32));
                        }
                    }
                }
                classes += 1;
            }
        }
        let mut class_of_key = std::collections::HashMap::new();
        let mut key_of_class = vec![None; classes];
        for (shape, &(l, r)) in shapes.iter().enumerate() {
            for mask in 0..1u32 << (l * r) {
                let k = key(&subset_graph(l, r, mask));
                let c = class[node(shape, mask)];
                let seen = *class_of_key.entry(k.clone()).or_insert(c);
                assert_eq!(
                    seen, c,
                    "K_{{{l},{r}}} subset {mask:#x}: key shared across classes"
                );
                match &key_of_class[c] {
                    None => key_of_class[c] = Some(k),
                    Some(prev) => {
                        assert_eq!(prev, &k, "K_{{{l},{r}}} subset {mask:#x}: class split")
                    }
                }
            }
        }
        assert_eq!(class_of_key.len(), classes);
    }

    #[test]
    fn pruning_never_loses_the_least_leaf() {
        // The unpruned search scores every leaf; pruning by orbits and
        // by unwinding at equal leaves must still find the same least
        // one, on every labeling of every graph tried.
        let same = |g: &BipartiteGraph| {
            let pruned = label(g, true).expect("pruned").key;
            assert_eq!(
                pruned,
                label(g, false).expect("unpruned").key,
                "{:?}",
                g.edges()
            );
        };
        for (l, r) in [(3, 3), (3, 4), (4, 3)] {
            for mask in 0..1u32 << (l * r) {
                same(&subset_graph(l, r, mask));
            }
        }
        for n in 2..=5 {
            same(&generators::crown(n));
        }
        // Regular graphs whose components refinement cannot tell apart,
        // so one cell holds several orbits, under several labelings.
        let c = generators::cycle;
        for g in [
            c(3).disjoint_union(&c(2)),
            c(2).disjoint_union(&c(3)).disjoint_union(&c(2)),
            c(4).disjoint_union(&c(2)).disjoint_union(&c(2)),
            c(4).disjoint_union(&c(3)).disjoint_union(&c(2)),
            c(2).disjoint_union(&c(4)).disjoint_union(&c(3)),
            generators::crown(4).disjoint_union(&generators::complete_bipartite(3, 3)),
            generators::complete_bipartite(3, 3).disjoint_union(&generators::crown(4)),
        ] {
            for seed in 0..8 {
                let lperm = scrambled(g.left_count(), seed);
                let rperm = scrambled(g.right_count(), seed + 100);
                same(&relabel(&g, &lperm, &rperm));
            }
        }
        for seed in 0..200 {
            let (l, r) = (3 + (seed % 4) as u32, 3 + (seed / 4 % 4) as u32);
            let m = (l + r - 1) as usize + (seed as usize % 5);
            let g = generators::random_connected_bipartite(l, r, m, seed);
            same(&g);
            // two copies: an automorphism that swaps whole components
            if l + r <= 8 {
                same(&g.disjoint_union(&g));
            }
        }
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
