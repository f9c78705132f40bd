//! Pebbling configurations and schemes (§2 and §2.1 of the paper).
//!
//! The pebble game: two pebbles sit on vertices of the join graph; when
//! the pebbles cover the two endpoints of an edge, that edge is deleted.
//! "In a single move, one of the two pebbles can be moved to another node"
//! — *any* node, not just a neighbour. A pebbling scheme is a sequence of
//! configurations that deletes all edges.
//!
//! # Cost accounting
//!
//! We store schemes in **canonical form**: a sequence of configurations in
//! which consecutive configurations differ in *exactly one* pebble
//! position. Reaching the first configuration takes two placements; each
//! subsequent configuration takes one move, so
//!
//! ```text
//! π̂(P) = #configurations + 1        (Definition 2.1)
//! π(P)  = π̂(P) − β₀(G)              (Definition 2.2)
//! ```
//!
//! The canonical form makes Definition 2.1's `k + 1` literal: a
//! configuration pair that moves both pebbles is represented by the
//! intermediate configuration, which is exactly how the definition counts
//! it (two moves). [`PebblingScheme::from_edge_sequence`] inserts those
//! intermediates automatically.
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

use crate::PebbleError;
use jp_graph::{betti_number, BipartiteGraph, Vertex};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pebbling configuration: the (unordered) positions of the two pebbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Config {
    /// First pebble position.
    pub a: Vertex,
    /// Second pebble position.
    pub b: Vertex,
}

impl Config {
    /// Builds a configuration; order of the pebbles is irrelevant.
    pub fn new(a: Vertex, b: Vertex) -> Self {
        Config { a, b }
    }

    /// Whether the configuration covers vertex `v` with either pebble.
    pub fn covers(&self, v: Vertex) -> bool {
        self.a == v || self.b == v
    }

    /// Whether the two configurations denote the same pebble multiset.
    pub fn same_positions(&self, other: &Config) -> bool {
        (self.a == other.a && self.b == other.b) || (self.a == other.b && self.b == other.a)
    }

    /// Number of pebbles that must move to go from `self` to `other`
    /// (0, 1, or 2), treating configurations as multisets.
    pub fn moves_to(&self, other: &Config) -> u8 {
        if self.same_positions(other) {
            return 0;
        }
        let shared = other.covers(self.a) || other.covers(self.b);
        if shared {
            1
        } else {
            2
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.a, self.b)
    }
}

/// A pebbling scheme in canonical form (consecutive configurations differ
/// in exactly one pebble).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PebblingScheme {
    configs: Vec<Config>,
}

impl PebblingScheme {
    /// Builds a scheme from explicit configurations, checking the
    /// canonical-form invariant.
    pub fn from_configs(configs: Vec<Config>) -> Result<Self, PebbleError> {
        for (i, w) in configs.windows(2).enumerate() {
            if let [prev, next] = w {
                if prev.moves_to(next) != 1 {
                    return Err(PebbleError::NotCanonical { at: i });
                }
            }
        }
        Ok(PebblingScheme { configs })
    }

    /// Builds a scheme that deletes the graph's edges in the given order,
    /// inserting intermediate configurations whenever both pebbles must
    /// move. `edge_ids` must cover every edge of `g` at least once
    /// (repeats are allowed and cost moves but delete nothing new).
    ///
    /// ```
    /// use jp_graph::generators;
    /// use jp_pebble::PebblingScheme;
    ///
    /// // A matching needs two moves per edge (Lemma 2.4: π̂ = 2m).
    /// let g = generators::matching(3);
    /// let s = PebblingScheme::from_edge_sequence(&g, &[0, 1, 2]).unwrap();
    /// assert_eq!(s.cost(), 6);
    /// assert_eq!(s.effective_cost(&g), 3);
    /// ```
    pub fn from_edge_sequence(g: &BipartiteGraph, edge_ids: &[usize]) -> Result<Self, PebbleError> {
        if g.edge_count() == 0 {
            return Ok(PebblingScheme {
                configs: Vec::new(),
            });
        }
        let mut seen = vec![false; g.edge_count()];
        let mut configs: Vec<Config> = Vec::with_capacity(edge_ids.len() + 4);
        for &e in edge_ids {
            match seen.get_mut(e) {
                Some(slot) => *slot = true,
                None => return Err(PebbleError::EdgeOutOfRange { edge: e }),
            }
            let (u, v) = g.edge_vertices(e);
            let target = Config::new(u, v);
            match configs.last() {
                None => configs.push(target),
                Some(last) => match last.moves_to(&target) {
                    0 => {}
                    1 => configs.push(target),
                    _ => {
                        // Both intermediates (u, last.b) and (last.a, v) are
                        // one move from each end. Prefer one that does not
                        // land on an edge the sequence has not reached yet —
                        // otherwise that edge is deleted early and the
                        // scheme's deletion order diverges from `edge_ids`.
                        let mid_a = Config::new(u, last.b);
                        let mid_b = Config::new(last.a, v);
                        let covers_fresh = |c: &Config| {
                            edge_covered(g, c).is_some_and(|e| seen.get(e) == Some(&false))
                        };
                        let mid = if covers_fresh(&mid_a) && !covers_fresh(&mid_b) {
                            mid_b
                        } else {
                            mid_a
                        };
                        configs.push(mid);
                        configs.push(target);
                    }
                },
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(PebbleError::EdgeNotDeleted { edge: missing });
        }
        Ok(PebblingScheme { configs })
    }

    /// The configurations, in order.
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// Number of configurations `k`.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the scheme is empty (only valid for edgeless graphs).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The total cost `π̂(P) = k + 1` (Definition 2.1). The empty scheme
    /// (edgeless graph) costs 0.
    pub fn cost(&self) -> usize {
        if self.configs.is_empty() {
            0
        } else {
            self.configs.len() + 1
        }
    }

    /// The effective cost `π(P) = π̂(P) − β₀(G)` (Definition 2.2).
    ///
    /// Saturates at 0 when the scheme is paired with a graph it cannot
    /// be valid for (a valid scheme always has `π̂ ≥ m + β₀`); call
    /// [`PebblingScheme::validate`] to detect such mismatches.
    pub fn effective_cost(&self, g: &BipartiteGraph) -> usize {
        self.cost().saturating_sub(betti_number(g) as usize)
    }

    /// Validates the scheme against a graph: every pebbled vertex exists,
    /// the configurations are in canonical form, and every edge of `g` is
    /// covered by some configuration.
    pub fn validate(&self, g: &BipartiteGraph) -> Result<(), PebbleError> {
        for c in &self.configs {
            for v in [c.a, c.b] {
                let side_count = match v.side {
                    jp_graph::Side::Left => g.left_count(),
                    jp_graph::Side::Right => g.right_count(),
                };
                if v.index >= side_count {
                    return Err(PebbleError::VertexOutOfRange {
                        vertex: v,
                        side_count,
                    });
                }
            }
        }
        for (i, w) in self.configs.windows(2).enumerate() {
            if let [prev, next] = w {
                if prev.moves_to(next) != 1 {
                    return Err(PebbleError::NotCanonical { at: i });
                }
            }
        }
        let mut deleted = vec![false; g.edge_count()];
        for c in &self.configs {
            if let Some(slot) = edge_covered(g, c).and_then(|e| deleted.get_mut(e)) {
                *slot = true;
            }
        }
        match deleted.iter().position(|&d| !d) {
            Some(e) => Err(PebbleError::EdgeNotDeleted { edge: e }),
            None => Ok(()),
        }
    }

    /// The deletion order of edges: for each configuration, the id of the
    /// edge it deletes (first cover wins); configurations that cover no
    /// new edge yield `None` (these are the scheme's *jumps*).
    pub fn deletion_order(&self, g: &BipartiteGraph) -> Vec<Option<usize>> {
        let mut deleted = vec![false; g.edge_count()];
        self.configs
            .iter()
            .map(|c| {
                let e = edge_covered(g, c)?;
                let slot = deleted.get_mut(e)?;
                if *slot {
                    None
                } else {
                    *slot = true;
                    Some(e)
                }
            })
            .collect()
    }

    /// Number of configurations that delete no fresh edge — the "extra
    /// cost" counterpart of the TSP view (§2.2). For a valid scheme over a
    /// connected graph, `cost() == m + jumps() + 1`.
    pub fn jumps(&self, g: &BipartiteGraph) -> usize {
        self.deletion_order(g)
            .iter()
            .filter(|d| d.is_none())
            .count()
    }
}

/// The edge of `g` covered by configuration `c`, if any (pebbles on
/// opposite sides joined by an edge).
fn edge_covered(g: &BipartiteGraph, c: &Config) -> Option<usize> {
    use jp_graph::Side;
    let (l, r) = match (c.a.side, c.b.side) {
        (Side::Left, Side::Right) => (c.a.index, c.b.index),
        (Side::Right, Side::Left) => (c.b.index, c.a.index),
        _ => return None,
    };
    g.edge_index(l, r)
}

impl fmt::Display for PebblingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PebblingScheme(k={}, π̂={})",
            self.configs.len(),
            self.cost()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::generators;

    fn v(side: char, i: u32) -> Vertex {
        match side {
            'l' => Vertex::left(i),
            _ => Vertex::right(i),
        }
    }

    #[test]
    fn config_moves() {
        let c1 = Config::new(v('l', 0), v('r', 0));
        let c2 = Config::new(v('r', 0), v('l', 0));
        let c3 = Config::new(v('l', 0), v('r', 1));
        let c4 = Config::new(v('l', 1), v('r', 1));
        assert_eq!(c1.moves_to(&c2), 0);
        assert!(c1.same_positions(&c2));
        assert_eq!(c1.moves_to(&c3), 1);
        assert_eq!(c1.moves_to(&c4), 2);
        assert_eq!(c3.moves_to(&c4), 1);
    }

    #[test]
    fn scheme_for_larger_graph_is_rejected() {
        // A scheme built for spider(4) pebbles vertices that a small path
        // graph does not have; validate must flag the mismatch even if the
        // small graph's edges all happen to be covered.
        let big = generators::spider(4);
        let order: Vec<usize> = (0..big.edge_count()).collect();
        let s = PebblingScheme::from_edge_sequence(&big, &order).unwrap();
        let small = generators::path(2);
        match s.validate(&small) {
            Err(PebbleError::VertexOutOfRange { .. }) => {}
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn single_edge_scheme() {
        let g = generators::complete_bipartite(1, 1);
        let s = PebblingScheme::from_edge_sequence(&g, &[0]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.cost(), 2); // place two pebbles
        assert_eq!(s.effective_cost(&g), 1); // π = m = 1
        s.validate(&g).unwrap();
    }

    #[test]
    fn matching_costs_2m() {
        // Lemma 2.4: π̂ = 2m for a matching.
        for m in 1..6u32 {
            let g = generators::matching(m);
            let order: Vec<usize> = (0..m as usize).collect();
            let s = PebblingScheme::from_edge_sequence(&g, &order).unwrap();
            s.validate(&g).unwrap();
            assert_eq!(s.cost(), 2 * m as usize, "π̂(matching {m})");
            assert_eq!(s.effective_cost(&g), m as usize, "π(matching {m})");
        }
    }

    #[test]
    fn complete_bipartite_boustrophedon_is_perfect() {
        // Lemma 3.2's sequence: (u1,v1),(u1,v2),...,(u1,vl),(u2,vl),...
        let g = generators::complete_bipartite(3, 4);
        // edges are sorted (l, r); boustrophedon order:
        let mut order = Vec::new();
        for l in 0..3u32 {
            let rs: Vec<u32> = if l % 2 == 0 {
                (0..4).collect()
            } else {
                (0..4).rev().collect()
            };
            for r in rs {
                order.push(g.edge_index(l, r).unwrap());
            }
        }
        let s = PebblingScheme::from_edge_sequence(&g, &order).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.effective_cost(&g), g.edge_count()); // perfect: π = m
        assert_eq!(s.jumps(&g), 0);
    }

    #[test]
    fn from_edge_sequence_inserts_intermediates() {
        let g = generators::matching(2);
        let s = PebblingScheme::from_edge_sequence(&g, &[0, 1]).unwrap();
        // (r0,s0) -> intermediate -> (r1,s1)
        assert_eq!(s.len(), 3);
        assert_eq!(s.jumps(&g), 1);
        s.validate(&g).unwrap();
    }

    #[test]
    fn from_edge_sequence_rejects_missing_edges() {
        let g = generators::path(3);
        let err = PebblingScheme::from_edge_sequence(&g, &[0, 1]).unwrap_err();
        assert!(matches!(err, PebbleError::EdgeNotDeleted { edge: 2 }));
    }

    #[test]
    fn from_edge_sequence_rejects_out_of_range() {
        let g = generators::path(2);
        let err = PebblingScheme::from_edge_sequence(&g, &[0, 5]).unwrap_err();
        assert!(matches!(err, PebbleError::EdgeOutOfRange { edge: 5 }));
    }

    #[test]
    fn from_configs_rejects_double_moves() {
        let c1 = Config::new(v('l', 0), v('r', 0));
        let c2 = Config::new(v('l', 1), v('r', 1));
        let err = PebblingScheme::from_configs(vec![c1, c2]).unwrap_err();
        assert!(matches!(err, PebbleError::NotCanonical { at: 0 }));
    }

    #[test]
    fn validate_catches_uncovered_edge() {
        let g = generators::path(2); // edges (0,0), (1,0)
        let s = PebblingScheme::from_configs(vec![Config::new(v('l', 0), v('r', 0))]).unwrap();
        assert!(matches!(
            s.validate(&g),
            Err(PebbleError::EdgeNotDeleted { edge: 1 })
        ));
    }

    #[test]
    fn deletion_order_reports_jumps() {
        let g = generators::matching(2);
        let s = PebblingScheme::from_edge_sequence(&g, &[0, 1]).unwrap();
        let order = s.deletion_order(&g);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], Some(0));
        assert_eq!(order[1], None); // intermediate hop
        assert_eq!(order[2], Some(1));
    }

    #[test]
    fn repeated_edges_cost_but_do_not_break() {
        let g = generators::path(2);
        let s = PebblingScheme::from_edge_sequence(&g, &[0, 1, 0]).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.jumps(&g), 1); // the revisit deletes nothing new
    }

    #[test]
    fn empty_graph_empty_scheme() {
        let g = jp_graph::BipartiteGraph::new(2, 2, vec![]);
        let s = PebblingScheme::from_edge_sequence(&g, &[]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.cost(), 0);
        assert_eq!(s.effective_cost(&g), 0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn cost_is_m_plus_jumps_plus_one_when_connected() {
        let g = generators::spider(4);
        let order: Vec<usize> = (0..g.edge_count()).collect();
        let s = PebblingScheme::from_edge_sequence(&g, &order).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.cost(), g.edge_count() + s.jumps(&g) + 1);
    }
}

/// One step of a scheme replay: the configuration reached and the edge it
/// deletes, if any (`None` marks a jump or a revisit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStep {
    /// Step index (0-based configuration position).
    pub index: usize,
    /// The configuration after this step.
    pub config: Config,
    /// The edge deleted at this step, if a fresh one is covered.
    pub deletes: Option<usize>,
    /// Cumulative pebble moves so far (the running `π̂`).
    pub moves_so_far: usize,
}

impl PebblingScheme {
    /// Replays the scheme against a graph, yielding one [`ReplayStep`]
    /// per configuration — the step-by-step view the paper's §2 describes
    /// ("a sequence of moves of pebbles in the join graph, the purpose of
    /// which is to delete all edges").
    pub fn replay<'a>(&'a self, g: &'a BipartiteGraph) -> impl Iterator<Item = ReplayStep> + 'a {
        let mut deleted = vec![false; g.edge_count()];
        self.configs
            .iter()
            .enumerate()
            .map(move |(index, &config)| {
                let covered =
                    edge_covered(g, &config).and_then(|e| deleted.get_mut(e).map(|slot| (e, slot)));
                let deletes = match covered {
                    Some((e, slot)) if !*slot => {
                        *slot = true;
                        Some(e)
                    }
                    _ => None,
                };
                ReplayStep {
                    index,
                    config,
                    deletes,
                    // the first configuration costs two placements
                    moves_so_far: index + 2,
                }
            })
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use jp_graph::generators;

    #[test]
    fn replay_steps_account_for_everything() {
        let g = generators::spider(3);
        let order: Vec<usize> = (0..g.edge_count()).collect();
        let s = PebblingScheme::from_edge_sequence(&g, &order).unwrap();
        let steps: Vec<ReplayStep> = s.replay(&g).collect();
        assert_eq!(steps.len(), s.len());
        let deletions = steps.iter().filter(|st| st.deletes.is_some()).count();
        assert_eq!(deletions, g.edge_count());
        assert_eq!(steps.last().unwrap().moves_so_far, s.cost());
        // deletion order matches the dedicated accessor
        let via_replay: Vec<Option<usize>> = steps.iter().map(|st| st.deletes).collect();
        assert_eq!(via_replay, s.deletion_order(&g));
    }

    #[test]
    fn replay_of_empty_scheme_is_empty() {
        let g = jp_graph::BipartiteGraph::new(1, 1, vec![]);
        let s = PebblingScheme::from_edge_sequence(&g, &[]).unwrap();
        assert_eq!(s.replay(&g).count(), 0);
    }
}

impl PebblingScheme {
    /// Compresses the scheme by deleting redundant configurations: a
    /// configuration may be dropped when it deletes no fresh edge and its
    /// neighbours are one pebble move apart (so the sequence stays
    /// canonical). Runs passes until a fixed point. The result is a valid
    /// scheme for the same graph with `cost() ≤` the original — a cheap
    /// post-optimizer for schemes implied by algorithm traces, which
    /// often park pebbles on already-joined tuples.
    pub fn compress(&self, g: &BipartiteGraph) -> PebblingScheme {
        let mut configs = self.configs.clone();
        loop {
            // which configs delete fresh edges in the current sequence
            let mut deleted = vec![false; g.edge_count()];
            let mut deletes: Vec<bool> = Vec::with_capacity(configs.len());
            for c in &configs {
                match edge_covered(g, c).and_then(|e| deleted.get_mut(e)) {
                    Some(slot) if !*slot => {
                        *slot = true;
                        deletes.push(true);
                    }
                    _ => deletes.push(false),
                }
            }
            let mut removed_any = false;
            let mut out: Vec<Config> = Vec::with_capacity(configs.len());
            for (i, (&c, &del)) in configs.iter().zip(&deletes).enumerate() {
                if !del {
                    let prev = out.last();
                    let next = configs.get(i + 1);
                    let removable = match (prev, next) {
                        // interior: neighbours must stay one move apart
                        (Some(p), Some(n)) => p.moves_to(n) == 1,
                        // trailing or leading non-deleting configs always go
                        _ => true,
                    };
                    if removable {
                        removed_any = true;
                        continue;
                    }
                }
                out.push(c);
            }
            configs = out;
            if !removed_any {
                break;
            }
        }
        PebblingScheme { configs }
    }
}

#[cfg(test)]
mod compress_tests {
    use super::*;
    use jp_graph::generators;

    #[test]
    fn compress_removes_redundant_revisits() {
        let g = generators::path(2); // edges (0,0), (1,0)
                                     // visit edge 0, edge 1, then pointlessly revisit edge 0
        let s = PebblingScheme::from_edge_sequence(&g, &[0, 1, 0]).unwrap();
        assert_eq!(s.len(), 3);
        let c = s.compress(&g);
        c.validate(&g).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.effective_cost(&g), 2); // now perfect
    }

    #[test]
    fn compress_never_breaks_validity_or_raises_cost() {
        for seed in 0..15 {
            let g = generators::random_connected_bipartite(4, 4, 9, seed);
            // a deliberately wasteful order: every edge twice
            let mut order: Vec<usize> = (0..g.edge_count()).collect();
            order.extend(0..g.edge_count());
            let s = PebblingScheme::from_edge_sequence(&g, &order).unwrap();
            let c = s.compress(&g);
            c.validate(&g).unwrap();
            assert!(c.cost() <= s.cost(), "seed {seed}");
            // compressing again changes nothing (fixed point)
            assert_eq!(c.compress(&g), c, "seed {seed}");
        }
    }

    #[test]
    fn compress_preserves_already_tight_schemes() {
        let g = generators::complete_bipartite(3, 3);
        let s = crate::approx::pebble_equijoin(&g).unwrap();
        let c = s.compress(&g);
        assert_eq!(c.cost(), s.cost());
    }
}
