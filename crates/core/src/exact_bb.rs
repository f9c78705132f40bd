//! Branch-and-bound exact solver for minimum-jump Hamiltonian paths.
//!
//! [`crate::exact`]'s layered DP is memory-bound at ~20 line-graph
//! vertices (`(J+1)·2^m` words). This module trades guaranteed polynomial
//! *space* for worst-case exponential time: depth-first search over
//! partial tours with
//!
//! * an incumbent seeded from the greedy path cover + 2-opt (so pruning
//!   starts strong),
//! * an admissible lower bound on remaining jumps: unvisited vertices
//!   whose *unvisited* good-degree is zero must each be entered and left
//!   by jumps, contributing `≥ ⌈(isolated − 1)/1⌉`-ish; we use the safe
//!   count `max(stranded − 1, 0)` where `stranded` counts unvisited
//!   vertices with no unvisited good neighbour and no good edge to the
//!   current endpoint,
//! * a node budget, returning `None` when exhausted (the caller falls
//!   back or reports).
//!
//! The search is parallel by construction: every start vertex is a root
//! task on the `jp-par` work-stealing runtime, and all workers share one
//! `SharedSearch` — the incumbent jump count lives in an `AtomicUsize`,
//! so the moment one worker improves it, every other subtree prunes
//! against the better bound. The node budget is a shared pool claimed in
//! small chunks, which keeps total expansions within the budget without a
//! per-node contended atomic. [`bb_min_jump_tour`] is the one-worker
//! case of [`bb_min_jump_tour_par`] — same code path, strictly
//! sequential schedule.
//!
//! Cross-validated against Held–Karp on every instance both can solve.
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

use crate::approx::path_cover::greedy_path_cover;
use crate::approx::stitch_paths;
use crate::approx::two_opt::improve_two_opt;
use crate::scheme::PebblingScheme;
use crate::tsp::Tsp12;
use crate::PebbleError;
use jp_graph::{BipartiteGraph, ComponentMap, Graph};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Search-effort statistics from one [`bb_min_jump_tour`] run.
///
/// Previously buried in the private `Searcher`, these are the signals a
/// caller needs to size a budget: how much of it the search consumed,
/// how well the lower bound pruned, and how often the incumbent moved.
/// In parallel runs the counts are aggregated across all workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// DFS nodes expanded (summed over workers).
    pub nodes_expanded: u64,
    /// The node budget the search ran under.
    pub budget: u64,
    /// Subtrees cut because partial jumps alone matched the incumbent.
    pub incumbent_prunes: u64,
    /// Subtrees cut by the admissible lower bound.
    pub lb_prunes: u64,
    /// Times a strictly better tour replaced the incumbent.
    pub incumbent_improvements: u64,
}

impl SearchStats {
    /// Fraction of the node budget consumed, in `[0, 1]`.
    // audit:allow(obs-coverage) accessor — no solver work, nothing to trace
    pub fn budget_used(&self) -> f64 {
        if self.budget == 0 {
            1.0
        } else {
            (self.nodes_expanded as f64 / self.budget as f64).min(1.0)
        }
    }
}

/// Result of a budgeted search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbOutcome {
    /// Proven optimal tour and its jump count.
    Optimal {
        /// The minimum-jump tour.
        tour: Vec<u32>,
        /// Its jump count.
        jumps: usize,
        /// Search effort expended.
        stats: SearchStats,
    },
    /// Budget exhausted; best tour found so far (not proven optimal).
    BudgetExhausted {
        /// The best tour found.
        tour: Vec<u32>,
        /// Its jump count.
        jumps: usize,
        /// Search effort expended.
        stats: SearchStats,
    },
}

impl BbOutcome {
    /// The tour, optimal or not.
    // audit:allow(obs-coverage) accessor — no solver work, nothing to trace
    pub fn tour(&self) -> &[u32] {
        match self {
            BbOutcome::Optimal { tour, .. } | BbOutcome::BudgetExhausted { tour, .. } => tour,
        }
    }

    /// The jump count of the returned tour.
    // audit:allow(obs-coverage) accessor — no solver work, nothing to trace
    pub fn jumps(&self) -> usize {
        match self {
            BbOutcome::Optimal { jumps, .. } | BbOutcome::BudgetExhausted { jumps, .. } => *jumps,
        }
    }

    /// Whether optimality was proven.
    // audit:allow(obs-coverage) accessor — no solver work, nothing to trace
    pub fn is_optimal(&self) -> bool {
        matches!(self, BbOutcome::Optimal { .. })
    }

    /// Search-effort statistics, regardless of outcome.
    // audit:allow(obs-coverage) accessor — no solver work, nothing to trace
    pub fn stats(&self) -> &SearchStats {
        match self {
            BbOutcome::Optimal { stats, .. } | BbOutcome::BudgetExhausted { stats, .. } => stats,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Budget chunk each worker claims from the shared pool at a time: large
/// enough to keep the shared counter off the per-node hot path, small
/// enough that the total expansion overshoot is negligible (at most one
/// chunk per worker below the claimed total).
const CLAIM_CHUNK: u64 = 256;

/// State shared by every worker of one branch-and-bound run.
struct SharedSearch {
    /// Global upper bound: the best jump count found by *any* worker.
    /// An improvement here immediately strengthens every other worker's
    /// pruning — the point of sharing the incumbent.
    best_jumps: AtomicUsize,
    /// The tour realizing `best_jumps`; writers serialize on the lock
    /// and re-check `best_jumps` inside it, so jumps and tour stay
    /// consistent.
    best_tour: Mutex<Vec<u32>>,
    /// Incumbent improvements across all workers.
    improvements: AtomicU64,
    /// Node-budget pool: total claimed so far (may overshoot `budget` by
    /// up to one chunk per worker; actual expansions never do).
    claimed: AtomicU64,
    budget: u64,
    /// Set when any worker ran out of budget: optimality is unproven.
    truncated: AtomicBool,
}

impl SharedSearch {
    fn offer(&self, jumps: usize, tour: &[u32]) {
        let improved = {
            let mut guard = lock(&self.best_tour);
            // race:order(writers serialize on best_tour and re-check under it; readers prune against a possibly-stale bound, which is safe)
            if jumps < self.best_jumps.load(Ordering::Relaxed) {
                self.best_jumps.store(jumps, Ordering::Relaxed);
                *guard = tour.to_vec();
                true
            } else {
                false
            }
        };
        if improved {
            // race:order(monotonic statistic, read after the scoped join)
            self.improvements.fetch_add(1, Ordering::Relaxed);
            // Live incumbent after the guard is gone: `jp pulse top`
            // shows the bound tightening while the search runs.
            jp_obs::gauge("bb", "incumbent_jumps", jumps as u64);
        }
    }
}

/// Per-worker search state; all pruning bounds come from [`SharedSearch`].
struct Searcher<'a> {
    ones: &'a Graph,
    n: usize,
    shared: &'a SharedSearch,
    /// Locally claimed budget not yet spent.
    allowance: u64,
    /// Nodes this worker actually expanded (exact, unlike `claimed`).
    nodes: u64,
    truncated: bool,
    incumbent_prunes: u64,
    lb_prunes: u64,
}

impl Searcher<'_> {
    /// Claims the right to expand one node, drawing on the shared pool
    /// in chunks. Returns `false` when the budget is exhausted.
    fn try_claim(&mut self) -> bool {
        if self.allowance == 0 {
            let prev = self
                .shared
                .claimed
                // race:order(monotone pool counter; overshoot is bounded by one chunk per worker and expansions are counted exactly per worker)
                .fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
            if prev >= self.shared.budget {
                return false;
            }
            self.allowance = CLAIM_CHUNK.min(self.shared.budget - prev);
        }
        self.allowance -= 1;
        self.nodes += 1;
        true
    }

    /// Admissible bound — the paper's `B⁺/B⁻` degree-deficiency argument
    /// (Theorem 3.3), applied to the remaining instance: every unvisited
    /// vertex is incident to two remaining-path edges (one for the final
    /// endpoint), and good incidences are capped by its available good
    /// degree `avail(v)` (unvisited neighbours plus the current
    /// endpoint). With `S = Σ max(0, 2 − avail(v)) − 1` bad incidences
    /// forced and each jump absorbing at most two, the remaining jumps
    /// are at least `⌈max(S, 0) / 2⌉`. Tight on the spider family.
    fn lower_bound(&self, visited: &[bool], cur: u32) -> usize {
        let mut deficiency = 0usize;
        for v in 0..self.n as u32 {
            #[expect(
                clippy::indexing_slicing,
                reason = "vertex ids are < n == visited.len() by construction"
            )]
            if visited[v as usize] {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "vertex ids are < n == visited.len() by construction"
            )]
            let avail = self
                .ones
                .neighbors(v)
                .iter()
                .filter(|&&w| w == cur || !visited[w as usize])
                .take(2)
                .count();
            deficiency += 2 - avail;
        }
        deficiency.saturating_sub(1).div_ceil(2)
    }

    fn dfs(
        &mut self,
        visited: &mut [bool],
        cur: u32,
        placed: usize,
        jumps: usize,
        tour: &mut Vec<u32>,
    ) {
        // race:order(pruning against a stale bound is safe — it only delays the cut, never removes the optimum)
        if jumps >= self.shared.best_jumps.load(Ordering::Relaxed) {
            self.incumbent_prunes += 1;
            return;
        }
        if !self.try_claim() {
            self.truncated = true;
            return;
        }
        if placed == self.n {
            self.shared.offer(jumps, tour);
            return;
        }
        // race:order(pruning against a stale bound is safe — it only delays the cut, never removes the optimum)
        if jumps + self.lower_bound(visited, cur) >= self.shared.best_jumps.load(Ordering::Relaxed)
        {
            self.lb_prunes += 1;
            return;
        }
        // good moves first, lowest unvisited-good-degree first
        #[expect(
            clippy::indexing_slicing,
            reason = "vertex ids are < n == visited.len() by construction"
        )]
        let mut good: Vec<(usize, u32)> = self
            .ones
            .neighbors(cur)
            .iter()
            .copied()
            .filter(|&w| !visited[w as usize])
            .map(|w| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "vertex ids are < n == visited.len() by construction"
                )]
                let deg = self
                    .ones
                    .neighbors(w)
                    .iter()
                    .filter(|&&x| !visited[x as usize] && x != w)
                    .count();
                (deg, w)
            })
            .collect();
        good.sort_unstable();
        for (_, w) in good {
            #[expect(
                clippy::indexing_slicing,
                reason = "vertex ids are < n == visited.len() by construction"
            )]
            {
                visited[w as usize] = true;
            }
            tour.push(w);
            self.dfs(visited, w, placed + 1, jumps, tour);
            tour.pop();
            #[expect(
                clippy::indexing_slicing,
                reason = "vertex ids are < n == visited.len() by construction"
            )]
            {
                visited[w as usize] = false;
            }
        }
        // jump moves (cost 1): only try jump targets that are stranded or
        // low-degree first; trying all is required for exactness
        // race:order(pruning against a stale bound is safe — it only delays the cut, never removes the optimum)
        if jumps + 1 < self.shared.best_jumps.load(Ordering::Relaxed) {
            #[expect(
                clippy::indexing_slicing,
                reason = "vertex ids are < n == visited.len() by construction"
            )]
            let mut targets: Vec<(usize, u32)> = (0..self.n as u32)
                .filter(|&w| !visited[w as usize] && !self.ones.has_edge(cur, w))
                .map(|w| {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "vertex ids are < n == visited.len() by construction"
                    )]
                    let deg = self
                        .ones
                        .neighbors(w)
                        .iter()
                        .filter(|&&x| !visited[x as usize])
                        .count();
                    (deg, w)
                })
                .collect();
            targets.sort_unstable();
            for (_, w) in targets {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "vertex ids are < n == visited.len() by construction"
                )]
                {
                    visited[w as usize] = true;
                }
                tour.push(w);
                self.dfs(visited, w, placed + 1, jumps + 1, tour);
                tour.pop();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "vertex ids are < n == visited.len() by construction"
                )]
                {
                    visited[w as usize] = false;
                }
            }
        }
    }
}

/// Search effort of one root task (one start vertex).
#[derive(Default)]
struct TaskEffort {
    nodes: u64,
    incumbent_prunes: u64,
    lb_prunes: u64,
}

/// Minimum-jump Hamiltonian path by branch and bound with a node budget
/// — the one-worker case of [`bb_min_jump_tour_par`].
// audit:allow(obs-coverage) thin wrapper — bb_min_jump_tour_par opens the bb.search span
pub fn bb_min_jump_tour(ones: &Graph, budget: u64) -> BbOutcome {
    bb_min_jump_tour_par(ones, budget, 1)
}

/// Minimum-jump Hamiltonian path by parallel branch and bound: every
/// start vertex is a root task on the `jp-par` work-stealing runtime,
/// and all workers prune against one shared atomic incumbent.
///
/// With `threads == 1` the schedule is strictly sequential (start
/// vertices in lowest-degree-first order, exactly the historical
/// behaviour). Any thread count returns the same jump count whenever the
/// budget suffices to prove optimality — only the tour and the
/// per-worker effort split may differ.
pub fn bb_min_jump_tour_par(ones: &Graph, budget: u64, threads: usize) -> BbOutcome {
    let _span = jp_obs::span("bb", "search");
    let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Solver);
    let n = ones.vertex_count() as usize;
    if n == 0 {
        return BbOutcome::Optimal {
            tour: Vec::new(),
            jumps: 0,
            stats: SearchStats {
                budget,
                ..SearchStats::default()
            },
        };
    }
    // incumbent: greedy path cover, stitched and 2-opted
    let mut incumbent = stitch_paths(ones, greedy_path_cover(ones));
    let tsp = Tsp12::new(ones.clone());
    improve_two_opt(&tsp, &mut incumbent, 6);
    let inc_jumps = tsp.tour_jumps(&incumbent);
    let shared = SharedSearch {
        best_jumps: AtomicUsize::new(inc_jumps), // search only for strictly better tours
        best_tour: Mutex::new(incumbent),
        improvements: AtomicU64::new(0),
        claimed: AtomicU64::new(0),
        budget,
        truncated: AtomicBool::new(false),
    };
    let mut stats = SearchStats {
        budget,
        ..SearchStats::default()
    };
    if inc_jumps > 0 {
        // one root task per start vertex, lowest degree first
        let mut starts: Vec<(usize, u32)> = (0..n as u32).map(|v| (ones.degree(v), v)).collect();
        starts.sort_unstable();
        let shared_ref = &shared;
        let efforts = jp_par::run_tasks(threads, starts, |_, (_, v)| {
            // zero jumps cannot be beaten, and a blown budget means the
            // remaining starts stay unexplored either way
            // race:order(stale reads of either flag only delay the early-out by one task)
            if shared_ref.best_jumps.load(Ordering::Relaxed) == 0
                || shared_ref.truncated.load(Ordering::Relaxed)
            {
                return TaskEffort::default();
            }
            let mut searcher = Searcher {
                ones,
                n,
                shared: shared_ref,
                allowance: 0,
                nodes: 0,
                truncated: false,
                incumbent_prunes: 0,
                lb_prunes: 0,
            };
            let mut visited = vec![false; n];
            let mut tour = Vec::with_capacity(n);
            #[expect(
                clippy::indexing_slicing,
                reason = "vertex ids are < n == visited.len() by construction"
            )]
            {
                visited[v as usize] = true;
            }
            tour.push(v);
            searcher.dfs(&mut visited, v, 1, 0, &mut tour);
            if searcher.truncated {
                // race:order(one-way latch, definitively read only after the run_tasks join)
                shared_ref.truncated.store(true, Ordering::Relaxed);
            }
            TaskEffort {
                nodes: searcher.nodes,
                incumbent_prunes: searcher.incumbent_prunes,
                lb_prunes: searcher.lb_prunes,
            }
        });
        for effort in &efforts {
            stats.nodes_expanded += effort.nodes;
            stats.incumbent_prunes += effort.incumbent_prunes;
            stats.lb_prunes += effort.lb_prunes;
        }
    }
    // race:order(both reads happen after the run_tasks join, which synchronizes all worker writes)
    let proven = !shared.truncated.load(Ordering::Relaxed);
    stats.incumbent_improvements = shared.improvements.load(Ordering::Relaxed);
    // best_jumps only improves on the seed; if the search found a better
    // tour, best_tour holds it, else the incumbent stands.
    let tour = lock(&shared.best_tour).clone();
    let final_jumps = tsp.tour_jumps(&tour);
    debug_assert!(final_jumps <= inc_jumps);
    if jp_obs::enabled() {
        jp_obs::counter("bb", "workers", threads.max(1) as u64);
        jp_obs::counter("bb", "nodes_expanded", stats.nodes_expanded);
        jp_obs::counter("bb", "incumbent_prunes", stats.incumbent_prunes);
        jp_obs::counter("bb", "lb_prunes", stats.lb_prunes);
        jp_obs::counter("bb", "incumbent_improvements", stats.incumbent_improvements);
        jp_obs::counter("bb", "budget", stats.budget);
        jp_obs::counter(
            "bb",
            "budget_used_permille",
            (stats.budget_used() * 1000.0) as u64,
        );
        jp_obs::counter("bb", "truncated", u64::from(!proven));
    }
    if proven {
        BbOutcome::Optimal {
            tour,
            jumps: final_jumps,
            stats,
        }
    } else {
        BbOutcome::BudgetExhausted {
            tour,
            jumps: final_jumps,
            stats,
        }
    }
}

/// Optimal effective cost by branch and bound (per component). Returns
/// [`PebbleError::BudgetExhausted`] when optimality was not proven
/// within `budget` search nodes on some component.
// audit:allow(obs-coverage) per-component driver — bb_min_jump_tour opens the bb.search span
pub fn optimal_effective_cost_bb(g: &BipartiteGraph, budget: u64) -> Result<usize, PebbleError> {
    optimal_effective_cost_bb_par(g, budget, 1)
}

/// [`optimal_effective_cost_bb`] with each component searched by
/// `threads` parallel workers sharing one incumbent.
// audit:allow(obs-coverage) per-component driver — bb_min_jump_tour_par opens the bb.search span
pub fn optimal_effective_cost_bb_par(
    g: &BipartiteGraph,
    budget: u64,
    threads: usize,
) -> Result<usize, PebbleError> {
    let cm = ComponentMap::new(g);
    let mut total = 0usize;
    for edges in cm.edges_by_component() {
        let sub = g.edge_subgraph(&edges);
        let lg = jp_graph::line_graph(&sub);
        match bb_min_jump_tour_par(&lg, budget, threads) {
            BbOutcome::Optimal { jumps, .. } => total += edges.len() + jumps,
            BbOutcome::BudgetExhausted { stats, .. } => {
                return Err(PebbleError::BudgetExhausted {
                    budget,
                    nodes: stats.nodes_expanded,
                })
            }
        }
    }
    Ok(total)
}

/// Optimal scheme via branch and bound.
// audit:allow(obs-coverage) per-component driver — bb_min_jump_tour opens the bb.search span
pub fn optimal_scheme_bb(g: &BipartiteGraph, budget: u64) -> Result<PebblingScheme, PebbleError> {
    optimal_scheme_bb_par(g, budget, 1)
}

/// [`optimal_scheme_bb`] with each component searched by `threads`
/// parallel workers sharing one incumbent.
// audit:allow(obs-coverage) per-component driver — bb_min_jump_tour_par opens the bb.search span
pub fn optimal_scheme_bb_par(
    g: &BipartiteGraph,
    budget: u64,
    threads: usize,
) -> Result<PebblingScheme, PebbleError> {
    let cm = ComponentMap::new(g);
    let mut order: Vec<usize> = Vec::with_capacity(g.edge_count());
    for edges in cm.edges_by_component() {
        let sub = g.edge_subgraph(&edges);
        let lg = jp_graph::line_graph(&sub);
        match bb_min_jump_tour_par(&lg, budget, threads) {
            BbOutcome::Optimal { tour, .. } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "tour is a permutation of line-graph vertices 0..edges.len()"
                )]
                order.extend(tour.iter().map(|&e| edges[e as usize]));
            }
            BbOutcome::BudgetExhausted { stats, .. } => {
                return Err(PebbleError::BudgetExhausted {
                    budget,
                    nodes: stats.nodes_expanded,
                })
            }
        }
    }
    PebblingScheme::from_edge_sequence(g, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use jp_graph::{generators, line_graph};

    const BUDGET: u64 = 5_000_000;

    #[test]
    fn agrees_with_held_karp_on_families() {
        for g in [
            generators::spider(5),
            generators::path(8),
            generators::complete_bipartite(3, 4),
            generators::cycle(4),
            generators::star(6),
        ] {
            let hk = exact::optimal_effective_cost(&g).unwrap();
            let bb = optimal_effective_cost_bb(&g, BUDGET).unwrap();
            assert_eq!(bb, hk, "{g}");
        }
    }

    #[test]
    fn agrees_with_held_karp_on_random_graphs() {
        for seed in 0..20 {
            let g = generators::random_connected_bipartite(5, 5, 13, seed);
            let hk = exact::optimal_effective_cost(&g).unwrap();
            let bb = optimal_effective_cost_bb(&g, BUDGET).unwrap();
            assert_eq!(bb, hk, "seed {seed}");
        }
    }

    #[test]
    fn reaches_beyond_held_karp_memory_limit() {
        // G_12 has m = 24 > MAX_EXACT_EDGES; closed form is known.
        let g = generators::spider(12);
        assert!(exact::optimal_effective_cost(&g).is_err());
        let bb = optimal_effective_cost_bb(&g, BUDGET).unwrap();
        assert_eq!(bb as u64, crate::families::spider_optimal_cost(12));
    }

    #[test]
    fn scheme_is_valid_and_optimal() {
        let g = generators::random_connected_bipartite(4, 5, 11, 3);
        let s = optimal_scheme_bb(&g, BUDGET).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(
            s.effective_cost(&g),
            exact::optimal_effective_cost(&g).unwrap()
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // budget of 1 node cannot prove anything non-trivial
        let g = generators::spider(6);
        let lg = line_graph(&g);
        let out = bb_min_jump_tour(&lg, 1);
        assert!(!out.is_optimal());
        // but the incumbent is still a valid tour
        let tsp = Tsp12::new(lg);
        assert!(tsp.is_valid_tour(out.tour()));
    }

    #[test]
    fn zero_jump_instances_terminate_immediately() {
        // star: L = K_n, incumbent already perfect, no search needed
        let g = generators::star(30);
        let bb = optimal_effective_cost_bb(&g, 10).unwrap();
        assert_eq!(bb, 30);
    }

    #[test]
    fn outcome_accessors() {
        let g = generators::path(4);
        let lg = line_graph(&g);
        let out = bb_min_jump_tour(&lg, BUDGET);
        assert!(out.is_optimal());
        assert_eq!(out.jumps(), 0);
        assert_eq!(out.tour().len(), 4);
    }

    #[test]
    fn parallel_cost_matches_sequential_on_families() {
        for g in [
            generators::spider(6),
            generators::complete_bipartite(3, 4),
            generators::random_connected_bipartite(5, 5, 14, 9),
        ] {
            let seq = optimal_effective_cost_bb(&g, BUDGET).unwrap();
            for threads in [2, 8] {
                let par = optimal_effective_cost_bb_par(&g, BUDGET, threads).unwrap();
                assert_eq!(par, seq, "{g} at {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_scheme_is_valid_and_optimal() {
        let g = generators::random_connected_bipartite(4, 5, 11, 3);
        let s = optimal_scheme_bb_par(&g, BUDGET, 4).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(
            s.effective_cost(&g),
            exact::optimal_effective_cost(&g).unwrap()
        );
    }

    #[test]
    fn parallel_budget_exhaustion_is_reported() {
        let g = generators::spider(6);
        let lg = line_graph(&g);
        let out = bb_min_jump_tour_par(&lg, 1, 4);
        assert!(!out.is_optimal());
        assert!(out.stats().nodes_expanded <= 1, "budget is a hard cap");
    }

    #[test]
    fn parallel_node_total_respects_budget() {
        // expansions (unlike the claim counter) must never exceed budget
        let g = generators::spider(8);
        let lg = line_graph(&g);
        for threads in [1, 4] {
            let out = bb_min_jump_tour_par(&lg, 1000, threads);
            assert!(
                out.stats().nodes_expanded <= 1000,
                "threads = {threads}, nodes = {}",
                out.stats().nodes_expanded
            );
        }
    }
}
