//! Exact optimal pebbling — the `PEBBLE` problem of Definition 4.1.
//!
//! `PEBBLE` is NP-complete (Theorem 4.2), so exactness costs exponential
//! time: we solve the equivalent minimum-jump Hamiltonian-path problem on
//! `L(G)` (Proposition 2.2) per connected component (justified by the
//! additivity Lemma 2.2). The search itself is the layered endpoint-set
//! DP of [`jp_graph::hamilton::min_jump_layers`]; this module wraps it in
//! the `exact` span, its work counters and the portfolio's abandon
//! polling. For a component with `m` edges and minimum jump count `J` it
//! takes `O((J + 1) · 2^m · m)` time and `(J + 1) · 2^m · 4` bytes, where
//! `J ≤ ⌈m/4⌉` on connected components by the 1.25 upper bound
//! (Theorem 3.1) — practical to `m ≈ 20` edges per component, which is
//! exactly the regime the experiments need (closed-form families cover
//! the large instances). On an arbitrary TSP(1,2) weight-1 graph with `n`
//! nodes ([`min_jump_tour`], [`optimal_tsp_cost`]) `J` can reach `n − 1`
//! — 20 isolated nodes take 20 layers, 80 MiB — so the bytes bound there
//! is `n · 2^n · 4`.
//!
//! Counters per [`min_jump_tour`] call: `exact.dp_states` is the DP
//! cells allocated, `(J + 1) · 2^m`; `exact.dp_bytes` is four bytes per
//! cell; `exact.subset_iterations` is the masks expanded, summed over
//! the layers; `exact.abandoned_at_mask` is the mask at which a raced
//! search gave up.
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

use crate::memo::Memo;
use crate::scheme::PebblingScheme;
use crate::tsp::Tsp12;
use crate::PebbleError;
use jp_graph::hamilton::min_jump_layers;
use jp_graph::{BipartiteGraph, ComponentMap, Graph};

/// Default per-component edge limit for the exact solver.
pub const MAX_EXACT_EDGES: usize = 20;

/// Minimum-jump Hamiltonian path over the weight-1 graph `ones`:
/// returns `(tour, jumps)` minimizing the number of weight-2 steps.
/// Takes `(jumps + 1) · 2^n · 4` bytes for `n` nodes; `jumps` is at most
/// `⌈n/4⌉` on line graphs of connected join graphs but up to `n − 1` on
/// sparse or disconnected graphs.
///
/// # Panics
/// Panics if `ones` has more than [`MAX_EXACT_EDGES`] vertices (callers
/// gate on size first) or zero vertices.
// audit:allow(obs-coverage) thin wrapper — min_jump_tour_racing opens the exact span
pub fn min_jump_tour(ones: &Graph) -> (Vec<u32>, usize) {
    match min_jump_tour_racing(ones, &|| false) {
        Some(result) => result,
        #[expect(
            clippy::unreachable,
            reason = "the never-true abandon closure cannot make racing return None"
        )]
        None => unreachable!("abandon closure is constant false"),
    }
}

/// [`min_jump_tour`] that can be raced: `abandon` is polled every 4096
/// masks of each DP layer (see [`min_jump_layers`]), and a `true` return
/// makes the search give up and return `None`. The portfolio runtime
/// uses this to cut the exact strategy short the moment a heuristic
/// proves it can no longer win. With a constant-`false` closure the
/// behaviour and result are exactly [`min_jump_tour`]'s.
///
/// # Panics
/// As [`min_jump_tour`].
pub(crate) fn min_jump_tour_racing(
    ones: &Graph,
    abandon: &dyn Fn() -> bool,
) -> Option<(Vec<u32>, usize)> {
    let _span = jp_obs::span("exact", "min_jump_tour");
    let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Solver);
    let n = ones.vertex_count() as usize;
    assert!(n >= 1, "empty TSP instance");
    assert!(
        n <= MAX_EXACT_EDGES,
        "instance too large for exact DP ({n} nodes)"
    );
    let poll = |mask: usize| {
        let stop = abandon();
        if stop {
            jp_obs::counter("exact", "abandoned_at_mask", mask as u64);
        }
        stop
    };
    let dp = min_jump_layers(ones, (1u32 << n) - 1, usize::MAX, &poll)?;
    let cells = dp.cells() as u64;
    jp_obs::counter("exact", "dp_states", cells);
    jp_obs::counter("exact", "dp_bytes", 4 * cells);
    jp_obs::counter("exact", "subset_iterations", dp.expanded());
    // with no jump cap the last layer reaches the full mask (any vertex
    // order is a path with n − 1 jumps), so its lowest end has a path
    let tour = dp.path_to(dp.ends().trailing_zeros())?;
    Some((tour, dp.jumps()))
}

/// Per-component exact solution: `(edge order, jumps)` for each connected
/// component, in component order.
type ComponentSolutions = Vec<(Vec<usize>, usize)>;

fn solve_components(g: &BipartiteGraph, limit: usize) -> Result<ComponentSolutions, PebbleError> {
    solve_components_memo(g, limit, None)
}

fn solve_components_memo(
    g: &BipartiteGraph,
    limit: usize,
    memo: Option<&Memo>,
) -> Result<ComponentSolutions, PebbleError> {
    match solve_components_racing(g, limit, &|| false, memo)? {
        Some(comps) => Ok(comps),
        #[expect(
            clippy::unreachable,
            reason = "the never-true abandon closure cannot make racing return None"
        )]
        None => unreachable!("abandon closure is constant false"),
    }
}

/// [`solve_components`] that can be raced: `abandon` is threaded into
/// every per-component [`min_jump_tour_racing`] call. `Ok(None)` means
/// the search was abandoned mid-flight; `Err` still reports structural
/// problems (an over-limit component) regardless of the race.
///
/// With a memo, each component first tries the recognizers and the
/// *exact-only* slice of the cache — both proved optimal, so the result
/// keeps the exact solver's guarantee — and a served component skips its
/// size check entirely: a recognized `K_{6,7}` no longer trips the
/// 20-edge wall. Fresh DP solutions are recorded as exact entries.
/// With `memo == None` the behaviour is byte-for-byte the old one.
pub(crate) fn solve_components_racing(
    g: &BipartiteGraph,
    limit: usize,
    abandon: &dyn Fn() -> bool,
    memo: Option<&Memo>,
) -> Result<Option<ComponentSolutions>, PebbleError> {
    let _span = jp_obs::span("exact", "solve");
    let cm = ComponentMap::new(g);
    jp_obs::counter("exact", "components", u64::from(cm.count));
    jp_obs::counter("exact", "edges", g.edge_count() as u64);
    let mut out = Vec::with_capacity(cm.count as usize);
    for edges in cm.edges_by_component() {
        // edge_subgraph keeps edges in the order of `edges` after sorting?
        // BipartiteGraph::new sorts edges; map subgraph edge ids back to
        // original ids through coordinates: subgraph construction
        // preserves the relative lexicographic order of edges, and
        // `edges` came sorted from edges_by_component (ascending ids =
        // lexicographic), so sub edge id i is original edge edges[i].
        let sub = g.edge_subgraph(&edges);
        if let Some(memo) = memo {
            if let Some((sub_order, cost)) = memo.solve_component(&sub, true) {
                let order: Vec<usize> = sub_order
                    .iter()
                    .filter_map(|&e| edges.get(e).copied())
                    .collect();
                let jumps = cost.saturating_sub(order.len());
                jp_obs::counter("exact", "jumps", jumps as u64);
                out.push((order, jumps));
                continue;
            }
        }
        if edges.len() > limit {
            return Err(PebbleError::TooLarge {
                component_edges: edges.len(),
                limit,
            });
        }
        let lg = jp_graph::line_graph(&sub);
        let Some((tour, jumps)) = min_jump_tour_racing(&lg, abandon) else {
            return Ok(None);
        };
        if let Some(memo) = memo {
            let sub_order: Vec<usize> = tour.iter().map(|&e| e as usize).collect();
            memo.record_component(&sub, &sub_order, true);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "tour is a permutation of line-graph vertices 0..edges.len()"
        )]
        let order: Vec<usize> = tour.iter().map(|&e| edges[e as usize]).collect();
        jp_obs::counter("exact", "jumps", jumps as u64);
        out.push((order, jumps));
    }
    Ok(Some(out))
}

/// The optimal effective cost `π(G)`: `Σ_c (m_c + J_c)` over components.
///
/// ```
/// use jp_graph::generators;
/// use jp_pebble::exact::optimal_effective_cost;
///
/// // Theorem 3.3: the Figure 1 spider G_4 costs 1.25·m − 1.
/// let g = generators::spider(4);
/// assert_eq!(optimal_effective_cost(&g).unwrap(), 9); // m = 8
/// // Complete bipartite graphs pebble perfectly (Lemma 3.2).
/// let k = generators::complete_bipartite(3, 3);
/// assert_eq!(optimal_effective_cost(&k).unwrap(), 9); // = m
/// ```
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn optimal_effective_cost(g: &BipartiteGraph) -> Result<usize, PebbleError> {
    optimal_effective_cost_with_limit(g, MAX_EXACT_EDGES)
}

/// [`optimal_effective_cost`] with a caller-chosen per-component limit
/// (memory grows as `2^limit`; beyond ~24 is unreasonable).
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn optimal_effective_cost_with_limit(
    g: &BipartiteGraph,
    limit: usize,
) -> Result<usize, PebbleError> {
    let comps = solve_components(g, limit)?;
    Ok(comps.iter().map(|(order, jumps)| order.len() + jumps).sum())
}

/// The optimal total cost `π̂(G) = π(G) + β₀(G)`.
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn optimal_total_cost(g: &BipartiteGraph) -> Result<usize, PebbleError> {
    Ok(optimal_effective_cost(g)? + jp_graph::betti_number(g) as usize)
}

/// An optimal pebbling scheme, concatenating per-component optimal edge
/// orders (Lemma 2.2: nothing is gained by interleaving components).
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn optimal_scheme(g: &BipartiteGraph) -> Result<PebblingScheme, PebbleError> {
    let comps = solve_components(g, MAX_EXACT_EDGES)?;
    let order: Vec<usize> = comps.into_iter().flat_map(|(o, _)| o).collect();
    PebblingScheme::from_edge_sequence(g, &order)
}

/// [`optimal_effective_cost`] consulting a memo: recognized families and
/// exact cache hits are served without the DP (and without its size
/// limit); every fresh DP solve is recorded. The cost is still exact.
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn optimal_effective_cost_memo(g: &BipartiteGraph, memo: &Memo) -> Result<usize, PebbleError> {
    let comps = solve_components_memo(g, MAX_EXACT_EDGES, Some(memo))?;
    Ok(comps.iter().map(|(order, jumps)| order.len() + jumps).sum())
}

/// [`optimal_scheme`] consulting a memo; see
/// [`optimal_effective_cost_memo`].
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn optimal_scheme_memo(g: &BipartiteGraph, memo: &Memo) -> Result<PebblingScheme, PebbleError> {
    let comps = solve_components_memo(g, MAX_EXACT_EDGES, Some(memo))?;
    let order: Vec<usize> = comps.into_iter().flat_map(|(o, _)| o).collect();
    PebblingScheme::from_edge_sequence(g, &order)
}

/// `PEBBLE(D)` (Definition 4.1): decide whether `π(G) ≤ K`. Decidable
/// exactly only for small components; NP-complete in general
/// (Theorem 4.2).
// audit:allow(obs-coverage) thin wrapper — solve_components opens the exact.solve span
pub fn pebble_decision(g: &BipartiteGraph, k: usize) -> Result<bool, PebbleError> {
    Ok(optimal_effective_cost(g)? <= k)
}

/// Exact minimum TSP(1,2) tour cost over an arbitrary instance (used by
/// the §4 reduction experiments, where instances are not line graphs).
/// Memory is [`min_jump_tour`]'s: up to `n · 2^n · 4` bytes when the
/// weight-1 graph is sparse enough to force `n − 1` jumps.
///
/// # Panics
/// Panics if the instance has more than [`MAX_EXACT_EDGES`] nodes (the
/// exact DP's memory wall); gate on [`Tsp12::n`] first.
// audit:allow(obs-coverage) thin wrapper — min_jump_tour opens the exact span
pub fn optimal_tsp_cost(tsp: &Tsp12) -> usize {
    let n = tsp.n();
    if n == 0 {
        return 0;
    }
    let (_, jumps) = min_jump_tour(tsp.ones());
    n - 1 + jumps
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::generators;

    #[test]
    fn perfect_families_cost_m() {
        for g in [
            generators::complete_bipartite(2, 3),
            generators::complete_bipartite(3, 3),
            generators::path(6),
            generators::cycle(3),
            generators::star(5),
        ] {
            assert_eq!(optimal_effective_cost(&g).unwrap(), g.edge_count(), "{g}");
        }
    }

    #[test]
    fn matching_total_cost_2m() {
        // CLAIM(L2.4)
        // Lemma 2.4 via the exact solver.
        for m in 1..6 {
            let g = generators::matching(m);
            assert_eq!(optimal_total_cost(&g).unwrap(), 2 * m as usize);
            assert_eq!(optimal_effective_cost(&g).unwrap(), m as usize);
        }
    }

    #[test]
    fn spider_optima_match_closed_form() {
        // π(G_n) = m + ceil((n−2)/2); equals 1.25m − 1 for even n (T3.3).
        for n in 2..8u32 {
            let g = generators::spider(n);
            let m = 2 * n as usize;
            let expect = m + (n as usize).saturating_sub(2).div_ceil(2);
            assert_eq!(optimal_effective_cost(&g).unwrap(), expect, "G_{n}");
        }
        // even-n paper form
        let g6 = generators::spider(6);
        assert_eq!(optimal_effective_cost(&g6).unwrap(), 5 * 12 / 4 - 1);
    }

    #[test]
    fn additivity_lemma_2_2() {
        // CLAIM(L2.2)
        let a = generators::spider(3);
        let b = generators::path(4);
        let u = a.disjoint_union(&b);
        assert_eq!(
            optimal_effective_cost(&u).unwrap(),
            optimal_effective_cost(&a).unwrap() + optimal_effective_cost(&b).unwrap()
        );
        assert_eq!(
            optimal_total_cost(&u).unwrap(),
            optimal_total_cost(&a).unwrap() + optimal_total_cost(&b).unwrap()
        );
    }

    #[test]
    fn optimal_scheme_is_valid_and_matches_cost() {
        for g in [
            generators::spider(4),
            generators::random_connected_bipartite(4, 4, 9, 5),
            generators::matching(3).disjoint_union(&generators::path(3)),
        ] {
            let s = optimal_scheme(&g).unwrap();
            s.validate(&g).unwrap();
            assert_eq!(
                s.effective_cost(&g),
                optimal_effective_cost(&g).unwrap(),
                "{g}"
            );
        }
    }

    #[test]
    fn decision_procedure() {
        let g = generators::spider(4); // π = 9
        assert!(pebble_decision(&g, 9).unwrap());
        assert!(!pebble_decision(&g, 8).unwrap());
        assert!(pebble_decision(&g, 100).unwrap());
    }

    #[test]
    fn too_large_reports_error() {
        let g = generators::complete_bipartite(5, 5); // 25 edges in one component
        match optimal_effective_cost(&g) {
            Err(PebbleError::TooLarge {
                component_edges: 25,
                limit,
            }) => {
                assert_eq!(limit, MAX_EXACT_EDGES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn memo_lifts_recognized_families_past_the_dp_wall() {
        // K_{5,5} alone is TooLarge (previous test); with a memo the
        // boustrophedon recognizer answers it exactly, and the result
        // stays exact: π(K_{5,5}) = 25 (Lemma 3.2).
        let memo = Memo::new();
        let g = generators::complete_bipartite(5, 5);
        assert_eq!(optimal_effective_cost_memo(&g, &memo).unwrap(), 25);
        let s = optimal_scheme_memo(&g, &memo).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.effective_cost(&g), 25);
    }

    #[test]
    fn memo_cost_agrees_with_fresh_exact() {
        let memo = Memo::new();
        for seed in 0..6 {
            let g = generators::random_connected_bipartite(4, 4, 9, seed);
            let fresh = optimal_effective_cost(&g).unwrap();
            // first call records, second is served from the cache
            assert_eq!(optimal_effective_cost_memo(&g, &memo).unwrap(), fresh);
            assert_eq!(optimal_effective_cost_memo(&g, &memo).unwrap(), fresh);
        }
    }

    #[test]
    fn optimal_cost_within_bounds() {
        // CLAIM(L2.1, C2.1)
        use crate::bounds;
        for seed in 0..8 {
            let g = generators::random_connected_bipartite(3, 4, 8, seed);
            let opt = optimal_effective_cost(&g).unwrap();
            assert!(opt >= bounds::best_lower_bound(&g), "seed {seed}");
            assert!(opt <= bounds::upper_bound_effective(&g), "seed {seed}");
        }
    }

    #[test]
    fn min_jump_tour_reconstruction_is_consistent() {
        let g = generators::spider(5);
        let lg = jp_graph::line_graph(&g);
        let (tour, jumps) = min_jump_tour(&lg);
        assert_eq!(tour.len(), lg.vertex_count() as usize);
        let recount = tour.windows(2).filter(|w| !lg.has_edge(w[0], w[1])).count();
        assert_eq!(recount, jumps);
    }

    #[test]
    fn racing_gives_up_at_the_first_poll_once_abandoned() {
        // 14 line-graph vertices: layer 0 alone spans four poll chunks
        let lg = jp_graph::line_graph(&generators::spider(7));
        assert!(min_jump_tour_racing(&lg, &|| true).is_none());
        assert_eq!(
            min_jump_tour_racing(&lg, &|| false),
            Some(min_jump_tour(&lg))
        );
    }
}
