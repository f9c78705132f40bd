//! 2-opt local search on TSP(1,2) tours.
//!
//! The paper notes that "with more work, one can approximate better" than
//! 1.25 (citing the 7/6 algorithm of Papadimitriou–Yannakakis). 2-opt is
//! the workhorse improvement step: replace tour edges `(t[i−1], t[i])`
//! and `(t[j], t[j+1])` by `(t[i−1], t[j])` and `(t[i], t[j+1])`
//! (reversing the middle) whenever that removes a jump. With weights in
//! `{1, 2}` a move helps iff it converts at least one bad step to good
//! without creating more bad ones than it removes.

use crate::tsp::Tsp12;

/// Improves `tour` in place by first-improvement 2-opt passes until no
/// improving move exists or `max_passes` is exhausted. Returns the number
/// of jumps removed.
pub fn improve_two_opt(tsp: &Tsp12, tour: &mut [u32], max_passes: usize) -> usize {
    let n = tour.len();
    if n < 3 {
        return 0;
    }
    let _span = jp_obs::span("approx.two_opt", "improve");
    let start_jumps = tsp.tour_jumps(tour);
    let mut improved_any = true;
    let mut passes = 0;
    let mut moves: u64 = 0;
    while improved_any && passes < max_passes {
        improved_any = false;
        passes += 1;
        // consider cutting after position i-1 and after j (reverse i..=j)
        for i in 1..n - 1 {
            for j in i + 1..n {
                #[expect(clippy::indexing_slicing, reason = "1 <= i < j < n == tour.len()")]
                let (prev, head, tail) = (tour[i - 1], tour[i], tour[j]);
                let next = tour.get(j + 1).copied();
                let before = tsp.weight(prev, head) + next.map_or(0, |x| tsp.weight(tail, x));
                let after = tsp.weight(prev, tail) + next.map_or(0, |x| tsp.weight(head, x));
                if after < before {
                    #[expect(clippy::indexing_slicing, reason = "1 <= i < j < n == tour.len()")]
                    tour[i..=j].reverse();
                    improved_any = true;
                    moves += 1;
                }
            }
        }
    }
    let removed = start_jumps - tsp.tour_jumps(tour);
    if jp_obs::enabled() {
        jp_obs::counter("approx.two_opt", "passes", passes as u64);
        jp_obs::counter("approx.two_opt", "improving_moves", moves);
        jp_obs::counter("approx.two_opt", "jumps_removed", removed as u64);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::nearest_neighbor::nearest_neighbor_tour;
    use jp_graph::{generators, line_graph, Graph};

    #[test]
    fn fixes_an_obvious_bad_tour() {
        // L = path 0-1-2-3; tour [0,2,1,3] has 3 jumps... (0,2) bad, (2,1)
        // good, (1,3) bad. 2-opt should reach the perfect tour.
        let lg = Graph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let tsp = Tsp12::new(lg);
        let mut tour = vec![0, 2, 1, 3];
        let removed = improve_two_opt(&tsp, &mut tour, 10);
        assert!(removed >= 1);
        assert_eq!(tsp.tour_jumps(&tour), 0);
    }

    #[test]
    fn never_worsens() {
        for seed in 0..20 {
            let g = generators::random_connected_bipartite(5, 5, 13, seed);
            let lg = line_graph(&g);
            let tsp = Tsp12::new(lg.clone());
            let mut tour = nearest_neighbor_tour(&lg);
            let before = tsp.tour_cost(&tour);
            improve_two_opt(&tsp, &mut tour, 5);
            assert!(tsp.is_valid_tour(&tour), "seed {seed}");
            assert!(tsp.tour_cost(&tour) <= before, "seed {seed}");
        }
    }

    #[test]
    fn reaches_optimum_on_small_instances() {
        use crate::exact::min_jump_tour;
        let mut optimal_hits = 0;
        for seed in 0..10 {
            let g = generators::random_connected_bipartite(4, 4, 9, seed);
            let lg = line_graph(&g);
            let (_, opt_jumps) = min_jump_tour(&lg);
            let tsp = Tsp12::new(lg.clone());
            let mut tour = nearest_neighbor_tour(&lg);
            improve_two_opt(&tsp, &mut tour, 20);
            if tsp.tour_jumps(&tour) == opt_jumps {
                optimal_hits += 1;
            }
            assert!(tsp.tour_jumps(&tour) >= opt_jumps);
        }
        assert!(
            optimal_hits >= 6,
            "2-opt should usually reach optimum, got {optimal_hits}/10"
        );
    }

    #[test]
    fn tiny_tours_untouched() {
        let tsp = Tsp12::new(Graph::new(2, vec![(0, 1)]));
        let mut tour = vec![1, 0];
        assert_eq!(improve_two_opt(&tsp, &mut tour, 5), 0);
        assert_eq!(tour, vec![1, 0]);
    }
}
