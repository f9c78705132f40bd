//! Portfolio racing: every solver in the ladder runs as a task on the
//! `jp-par` work-stealing runtime, against one shared incumbent.
//!
//! The ladder of §3–§4 spans five orders of magnitude in cost: the exact
//! DP proves optimality but burns `O(2^m)` work, while `dfs_partition`
//! gives the constructive 1.25 guarantee in linear time.
//! Instead of picking one solver per instance, [`portfolio_scheme`] races
//! them all and keeps the best scheme any of them produced:
//!
//! * the **incumbent** — the best effective cost offered so far — lives
//!   in an `AtomicUsize` every strategy can read;
//! * the **floor** is the certified lower bound
//!   [`crate::bounds::best_lower_bound`] (Lemma 2.1 / Theorem 3.3):
//!   no scheme whatsoever can cost less, so the moment the incumbent
//!   reaches it, every still-running strategy is provably unable to
//!   improve the answer and *abandons* its remaining work;
//! * the expensive strategies are **pollable**: the exact DP checks the
//!   incumbent every few thousand DP masks
//!   ([`crate::exact`]'s racing entry point), and the local-search
//!   ladder checks between improvement passes, so a cheap heuristic
//!   that certifies optimality cuts the exponential work short within
//!   milliseconds;
//! * a finished exact solve is a **proof** too: once the exact strategy
//!   has offered its optimum, the race is marked proved and every
//!   strategy that has not started yet (or is between polls) gives up,
//!   even when the optimum lies above the floor.
//!
//! Abandonment is *sound*: a strategy gives up only when the incumbent
//! already equals the floor, or the exact optimum is already on offer —
//! a cost its own result could at best match.
//! Hence the returned cost is identical for every thread count — with
//! one worker nothing is ever abandoned mid-race on the result path,
//! with many workers the same minimum is found sooner. The winning
//! strategy (lowest cost, ties to the earlier ladder position) is
//! recorded through `jp-obs` counters.

use crate::approx::nearest_neighbor::nearest_neighbor_tour;
use crate::approx::{
    improve_or_opt, improve_two_opt, pebble_dfs_partition, pebble_equijoin, pebble_euler_trails,
    pebble_matching_cover, pebble_nearest_neighbor, pebble_path_cover, per_component_scheme,
};
use crate::exact::{solve_components_racing, MAX_EXACT_EDGES};
use crate::scheme::PebblingScheme;
use crate::tsp::Tsp12;
use crate::{bounds, PebbleError};
use jp_graph::BipartiteGraph;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The racing strategies, in ladder order. The position doubles as the
/// tie-break: among equal-cost finishers the earliest position wins, so
/// the recorded winner is stable. Position 0 is the exact solver — the
/// only one that is expensive enough to need mid-flight abandonment, and
/// therefore the one that profits most from racing.
pub const STRATEGIES: [&str; 8] = [
    "exact",
    "ladder",
    "matching_cover",
    "dfs_partition",
    "euler_trails",
    "path_cover",
    "nearest_neighbor",
    "equijoin",
];

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Best {
    cost: usize,
    strategy: usize,
    scheme: PebblingScheme,
}

/// Shared race state: the atomic incumbent every strategy polls, the
/// certified floor below which no scheme can go, whether an offered
/// scheme is already proved optimal, and the best scheme so far.
struct Race {
    incumbent: AtomicUsize,
    floor: usize,
    proved: AtomicBool,
    best: Mutex<Option<Best>>,
}

impl Race {
    /// `true` while some scheme could still cost less than the incumbent.
    /// Once `false` it stays `false` (the incumbent only decreases, the
    /// floor is a true lower bound, and `proved` is only ever set after
    /// the optimum is in `best`), which is what makes abandoning on it
    /// sound.
    fn beatable(&self) -> bool {
        // race:order(a stale read only delays abandonment by one poll; the flag is set once, after the proved scheme is stored under the best lock)
        !self.proved.load(Ordering::Relaxed)
            // race:order(a stale read only delays abandonment by one poll; the incumbent is monotonically decreasing)
            && self.incumbent.load(Ordering::Relaxed) > self.floor
    }

    /// Offers `scheme`; `proved` marks it optimal, which ends the race.
    fn offer(&self, g: &BipartiteGraph, strategy: usize, scheme: PebblingScheme, proved: bool) {
        let cost = scheme.effective_cost(g);
        // race:order(fetch_min is monotone and the winning scheme is re-checked under the best lock below)
        self.incumbent.fetch_min(cost, Ordering::Relaxed);
        // Live incumbent: the race's current best effective cost.
        jp_pulse::gauge_set(
            "portfolio.incumbent_cost",
            // race:order(live gauge snapshot of a monotone value)
            self.incumbent.load(Ordering::Relaxed) as u64,
        );
        let mut best = lock(&self.best);
        let replace = match &*best {
            Some(b) => (cost, strategy) < (b.cost, b.strategy),
            None => true,
        };
        if replace {
            *best = Some(Best {
                cost,
                strategy,
                scheme,
            });
        }
        drop(best);
        if proved {
            // race:order(read by beatable() as a hint only; the proved scheme is already stored under the best lock)
            self.proved.store(true, Ordering::Relaxed);
        }
    }
}

/// Strategy 0: the exact solver, polled against the incumbent between DP
/// mask chunks. A returned scheme is optimal. `None` when abandoned or
/// when a component exceeds the exact DP's memory wall — in a race that
/// is a skip, not an error.
fn run_exact(g: &BipartiteGraph, race: &Race) -> Option<PebblingScheme> {
    if !race.beatable() {
        return None;
    }
    match solve_components_racing(g, MAX_EXACT_EDGES, &|| !race.beatable(), None) {
        Ok(Some(comps)) => {
            let order: Vec<usize> = comps.into_iter().flat_map(|(o, _)| o).collect();
            PebblingScheme::from_edge_sequence(g, &order).ok()
        }
        Ok(None) | Err(_) => None,
    }
}

/// Strategy 1: nearest-neighbour seed plus alternating 2-opt/Or-opt
/// passes to a local optimum, polling the incumbent between passes.
/// Abandoning mid-ladder keeps the tour built so far — it stops
/// improving rather than discarding work.
fn run_ladder(g: &BipartiteGraph, race: &Race) -> Option<PebblingScheme> {
    if !race.beatable() {
        return None;
    }
    per_component_scheme(g, "portfolio.ladder", |lg| {
        let tsp = Tsp12::new(lg.clone());
        let mut tour = nearest_neighbor_tour(lg);
        while race.beatable() {
            let improved = improve_two_opt(&tsp, &mut tour, 1) + improve_or_opt(&tsp, &mut tour, 1);
            if improved == 0 {
                break;
            }
        }
        tour
    })
    .ok()
}

/// Monolithic strategies (2..): too fast to poll internally, so the only
/// abandonment point is before starting. Solver errors (e.g. `equijoin`
/// on a non-equijoin graph) are skips, not race failures.
fn run_if_beatable(
    race: &Race,
    solver: impl FnOnce() -> Result<PebblingScheme, PebbleError>,
) -> Option<PebblingScheme> {
    if !race.beatable() {
        return None;
    }
    solver().ok()
}

/// Races the full solver ladder on `threads` workers and returns the
/// best scheme any strategy produced.
///
/// The returned *cost* is deterministic across thread counts (see the
/// module docs for the soundness argument); the winning strategy and
/// the tour itself may differ. With `threads == 1` the strategies run
/// in ladder order on the calling thread.
///
/// ```
/// use jp_graph::generators;
/// use jp_pebble::portfolio::portfolio_scheme;
///
/// let g = generators::spider(5);
/// let s = portfolio_scheme(&g, 4).unwrap();
/// assert_eq!(s.effective_cost(&g), 12); // m + ceil((n-2)/2)
/// ```
// audit:allow(obs-coverage) thin wrapper; portfolio_scheme_proved opens the span
pub fn portfolio_scheme(g: &BipartiteGraph, threads: usize) -> Result<PebblingScheme, PebbleError> {
    portfolio_scheme_proved(g, threads).map(|(scheme, _)| scheme)
}

/// [`portfolio_scheme`] plus whether the returned scheme is *proved*
/// optimal: the exact strategy finished, or the winner meets the
/// certified floor. The memoized solve
/// ([`crate::memo::solve_with_memo`]) probes the memo per component
/// before it races, and records what this returns.
pub fn portfolio_scheme_proved(
    g: &BipartiteGraph,
    threads: usize,
) -> Result<(PebblingScheme, bool), PebbleError> {
    let _span = jp_obs::span("portfolio", "race");
    let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Solver);
    let race = Race {
        incumbent: AtomicUsize::new(usize::MAX),
        floor: bounds::best_lower_bound(g),
        proved: AtomicBool::new(false),
        best: Mutex::new(None),
    };
    if jp_obs::enabled() {
        jp_obs::counter("portfolio", "workers", threads.max(1) as u64);
        jp_obs::counter("portfolio", "floor", race.floor as u64);
    }
    let race_ref = &race;
    let completed = jp_par::run_tasks(threads, (0..STRATEGIES.len()).collect(), |_, idx| {
        let scheme = match idx {
            0 => run_exact(g, race_ref),
            1 => run_ladder(g, race_ref),
            2 => run_if_beatable(race_ref, || pebble_matching_cover(g)),
            3 => run_if_beatable(race_ref, || pebble_dfs_partition(g)),
            4 => run_if_beatable(race_ref, || pebble_euler_trails(g)),
            5 => run_if_beatable(race_ref, || pebble_path_cover(g)),
            6 => run_if_beatable(race_ref, || pebble_nearest_neighbor(g)),
            _ => run_if_beatable(race_ref, || pebble_equijoin(g)),
        };
        match scheme {
            Some(s) => {
                race_ref.offer(g, idx, s, idx == 0);
                true
            }
            None => false,
        }
    });
    let finished = completed.iter().filter(|&&done| done).count();
    if jp_obs::enabled() {
        jp_obs::counter("portfolio", "completed", finished as u64);
        jp_obs::counter(
            "portfolio",
            "abandoned",
            (STRATEGIES.len() - finished) as u64,
        );
    }
    let winner = lock(&race.best).take();
    match winner {
        Some(b) => {
            if jp_obs::enabled() {
                jp_obs::counter("portfolio", "winner_cost", b.cost as u64);
                jp_obs::counter(
                    "portfolio",
                    &format!("winner.{}", STRATEGIES[b.strategy]),
                    1,
                );
            }
            // race:order(read after run_tasks joined every worker)
            let proved = race.proved.load(Ordering::Relaxed) || b.cost == race.floor;
            Ok((b.scheme, proved))
        }
        // Unreachable in practice: dfs_partition succeeds on every
        // bipartite graph and is only abandoned after some other offer
        // already hit the floor or was proved. Kept as a fallback, not an
        // assert.
        None => {
            let scheme = pebble_dfs_partition(g)?;
            let proved = scheme.effective_cost(g) == race.floor;
            Ok((scheme, proved))
        }
    }
}

/// The effective cost of the portfolio winner.
// audit:allow(obs-coverage) thin wrapper — portfolio_scheme opens the portfolio.race span
pub fn portfolio_effective_cost(g: &BipartiteGraph, threads: usize) -> Result<usize, PebbleError> {
    Ok(portfolio_scheme(g, threads)?.effective_cost(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use jp_graph::generators;

    #[test]
    fn portfolio_is_exact_on_small_instances() {
        // the exact strategy completes (or something matched the floor),
        // so on DP-sized instances the portfolio result is optimal
        for g in [
            generators::spider(5),
            generators::complete_bipartite(3, 4),
            generators::path(9),
            generators::random_connected_bipartite(4, 4, 10, 2),
        ] {
            let opt = exact::optimal_effective_cost(&g).unwrap();
            for threads in [1, 4] {
                assert_eq!(
                    portfolio_effective_cost(&g, threads).unwrap(),
                    opt,
                    "{g} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn portfolio_handles_instances_beyond_the_exact_solver() {
        // spider(12) has a 24-edge component: exact is skipped, the
        // heuristics still race, and dfs_partition's pendant-tight
        // result hits the floor
        let g = generators::spider(12);
        let cost = portfolio_effective_cost(&g, 4).unwrap();
        assert_eq!(cost as u64, crate::families::spider_optimal_cost(12));
    }

    #[test]
    fn portfolio_scheme_is_valid() {
        let g = generators::random_connected_bipartite(5, 5, 13, 7);
        let s = portfolio_scheme(&g, 2).unwrap();
        s.validate(&g).unwrap();
    }

    #[test]
    fn empty_graph_costs_nothing() {
        let g = BipartiteGraph::new(2, 2, Vec::new());
        assert_eq!(portfolio_effective_cost(&g, 4).unwrap(), 0);
    }

    #[test]
    fn a_finished_exact_solve_ends_the_race() {
        let g = generators::spider(4);
        let race = Race {
            incumbent: AtomicUsize::new(usize::MAX),
            floor: 0,
            proved: AtomicBool::new(false),
            best: Mutex::new(None),
        };
        let heuristic = pebble_dfs_partition(&g).unwrap();
        race.offer(&g, 3, heuristic, false);
        assert!(
            race.beatable(),
            "a heuristic above the floor proves nothing"
        );
        race.offer(&g, 0, exact::optimal_scheme(&g).unwrap(), true);
        assert!(!race.beatable(), "the exact optimum is on offer");
        assert_eq!(lock(&race.best).as_ref().map(|b| b.strategy), Some(0));
    }

    #[test]
    fn proved_flag_holds_above_the_floor_at_every_thread_count() {
        // optimum above the certified floor: only the exact strategy can
        // prove it, and the flag must not depend on who finished first
        let g = generators::random_connected_bipartite(8, 8, 16, 5);
        let opt = exact::optimal_effective_cost(&g).unwrap();
        assert!(
            opt > bounds::best_lower_bound(&g),
            "instance must sit above the floor"
        );
        for threads in [1, 2, 8] {
            let (s, proved) = portfolio_scheme_proved(&g, threads).unwrap();
            assert_eq!(s.effective_cost(&g), opt, "{threads} threads");
            assert!(proved, "{threads} threads");
        }
    }

    #[test]
    fn cost_is_thread_count_invariant() {
        for seed in 0..6 {
            let g = generators::random_connected_bipartite(4, 5, 12, seed);
            let base = portfolio_effective_cost(&g, 1).unwrap();
            for threads in [2, 8] {
                assert_eq!(
                    portfolio_effective_cost(&g, threads).unwrap(),
                    base,
                    "seed {seed} at {threads} threads"
                );
            }
        }
    }
}
