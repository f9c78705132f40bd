//! The workload entry point: solve a whole (possibly disconnected) join
//! graph with the memo in front of the solver ladder.
//!
//! Per connected component (additivity, Lemma 2.2):
//!
//! 1. recognizer / validated cache hit via [`Memo::solve_component`];
//! 2. on a miss, the full portfolio race
//!    ([`crate::portfolio::portfolio_scheme_memo`], without the memo:
//!    step 1 already probed it), recording the fresh result once —
//!    under the canonical form the probe computed, flagged exact when
//!    the race proved it optimal — for every later isomorphic copy.
//!
//! Across a workload of repeated shapes — equijoin block unions, skewed
//! key distributions, the §2–§3 families at many sizes — almost every
//! component after the first of its kind is served from the cache.

use crate::memo::store::{ComponentSource, Memo};
use crate::scheme::PebblingScheme;
use crate::{portfolio, PebbleError};
use jp_graph::{BipartiteGraph, ComponentMap};

/// Per-solve provenance of a [`solve_with_memo_report`] run: how many
/// components the graph had and how each was served. Unlike
/// [`crate::memo::MemoStats`] — global counters a shared memo bumps from
/// every thread — this report belongs to one solve, so concurrent
/// callers (jp-serve requests against one warm store) get exact
/// per-request attribution with no delta-diffing races.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoSolveReport {
    /// Connected components in the solved graph.
    pub components: u64,
    /// Components answered by a closed-form recognizer.
    pub recognized: u64,
    /// Components served from the cache (validated hits).
    pub hits: u64,
    /// Components solved fresh by the portfolio race.
    pub fresh: u64,
}

impl MemoSolveReport {
    /// Components served without running the solver ladder.
    // audit:allow(obs-coverage) pure arithmetic on an already-built report
    pub fn served(&self) -> u64 {
        self.recognized + self.hits
    }
}

/// Solves `g` component by component through the memo, racing the
/// portfolio only on cache misses. The scheme is equivalent to the
/// memo-less portfolio's — on every recognized family and every exact
/// cache hit it is *optimal* — and each fresh solve is recorded so
/// isomorphic components later in the workload become hash lookups.
// audit:allow(obs-coverage) thin wrapper — solve_with_memo_report opens the memo.solve span
pub fn solve_with_memo(
    g: &BipartiteGraph,
    memo: &Memo,
    threads: usize,
) -> Result<PebblingScheme, PebbleError> {
    solve_with_memo_report(g, memo, threads).map(|(scheme, _)| scheme)
}

/// [`solve_with_memo`] plus a per-solve [`MemoSolveReport`] saying how
/// each component was served. This is the re-entrant form: many threads
/// may call it against one shared `Memo` and each gets the provenance
/// of its own request only.
pub fn solve_with_memo_report(
    g: &BipartiteGraph,
    memo: &Memo,
    threads: usize,
) -> Result<(PebblingScheme, MemoSolveReport), PebbleError> {
    let _span = jp_obs::span("memo", "solve");
    let cm = ComponentMap::new(g);
    if jp_obs::enabled() {
        jp_obs::counter("memo", "components", u64::from(cm.count));
    }
    let mut report = MemoSolveReport {
        components: u64::from(cm.count),
        ..MemoSolveReport::default()
    };
    let mut order = Vec::with_capacity(g.edge_count());
    for edges in cm.edges_by_component() {
        let sub = g.edge_subgraph(&edges);
        let sub_order = match memo.probe(&sub, false) {
            Ok((o, _, ComponentSource::Recognized)) => {
                report.recognized += 1;
                o
            }
            Ok((o, _, ComponentSource::Cache)) => {
                report.hits += 1;
                o
            }
            Err(miss) => {
                report.fresh += 1;
                let (scheme, proved) = portfolio::portfolio_scheme_memo(&sub, threads, None)?;
                let o: Vec<usize> = scheme.deletion_order(&sub).into_iter().flatten().collect();
                memo.record_miss(&sub, miss, &o, proved);
                o
            }
        };
        // sub edge ids index into this component's original edge list;
        // any inconsistency is caught by from_edge_sequence below, which
        // rejects an order that is not a permutation of all edges.
        order.extend(sub_order.iter().filter_map(|&e| edges.get(e).copied()));
    }
    Ok((PebblingScheme::from_edge_sequence(g, &order)?, report))
}

/// The effective cost `π(G)` of the memoized solve.
// audit:allow(obs-coverage) thin wrapper — solve_with_memo opens the memo.solve span
pub fn memoized_effective_cost(
    g: &BipartiteGraph,
    memo: &Memo,
    threads: usize,
) -> Result<usize, PebbleError> {
    Ok(solve_with_memo(g, memo, threads)?.effective_cost(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::portfolio_effective_cost;
    use jp_graph::generators;

    #[test]
    fn memoized_cost_matches_fresh_cost() {
        let memo = Memo::new();
        for g in [
            generators::spider(5),
            generators::complete_bipartite(3, 4),
            generators::random_connected_bipartite(4, 4, 10, 3),
            generators::matching(3).disjoint_union(&generators::path(4)),
        ] {
            let fresh = portfolio_effective_cost(&g, 2).unwrap();
            assert_eq!(memoized_effective_cost(&g, &memo, 2).unwrap(), fresh, "{g}");
            // second solve is served from recognizers/cache, same cost
            assert_eq!(memoized_effective_cost(&g, &memo, 2).unwrap(), fresh, "{g}");
        }
    }

    #[test]
    fn repeated_components_hit_the_cache() {
        let memo = Memo::new();
        let block = generators::random_connected_bipartite(4, 4, 9, 7);
        let mut g = block.clone();
        for _ in 0..5 {
            g = g.disjoint_union(&block);
        }
        let s = solve_with_memo(&g, &memo, 2).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(
            s.effective_cost(&g),
            6 * portfolio_effective_cost(&block, 2).unwrap()
        );
        let st = memo.stats();
        // first copy missed (or was recognized); the other five hit
        assert!(
            st.hits + st.recognized >= 5,
            "expected ≥5 cache/recognizer serves, got {st:?}"
        );
    }

    #[test]
    fn solve_report_attributes_each_component() {
        let memo = Memo::new();
        let block = generators::random_connected_bipartite(4, 4, 9, 7);
        let g = generators::spider(5)
            .disjoint_union(&block)
            .disjoint_union(&block);
        let (s, rep) = solve_with_memo_report(&g, &memo, 1).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(rep.components, 3);
        assert_eq!(rep.recognized, 1, "the spider has a closed form");
        // first block copy solved fresh, the isomorphic repeat hits
        assert_eq!((rep.fresh, rep.hits), (1, 1), "{rep:?}");
        assert_eq!(rep.served(), 2);
        // a second full solve of the same graph is served end to end
        let (_, rep2) = solve_with_memo_report(&g, &memo, 1).unwrap();
        assert_eq!(rep2.fresh, 0, "{rep2:?}");
        assert_eq!(rep2.served(), 3);
    }
}
