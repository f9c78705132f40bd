//! Or-opt local search on TSP(1,2) tours.
//!
//! Complements [`crate::approx::two_opt`]: instead of reversing a
//! segment, or-opt *relocates* a short segment (length 1–3) between two
//! other positions. On weight-{1,2} instances this fixes the common
//! pattern 2-opt cannot: a vertex stranded between two jumps that fits
//! snugly somewhere else (frequent in line graphs of star-like join
//! graphs). Used as the second rung of the improvement ladder and by the
//! branch-and-bound incumbent in ablation experiments.

use crate::tsp::Tsp12;

/// Improves `tour` in place by first-improvement or-opt passes (segment
/// lengths 1, 2, 3) until no improving move exists or `max_passes` is
/// exhausted. Returns the total cost reduction.
pub fn improve_or_opt(tsp: &Tsp12, tour: &mut Vec<u32>, max_passes: usize) -> usize {
    let n = tour.len();
    if n < 3 {
        return 0;
    }
    let _span = jp_obs::span("approx.or_opt", "improve");
    let start_cost = tsp.tour_cost(tour);
    let mut improved_any = true;
    let mut passes = 0;
    let mut moves: u64 = 0;
    while improved_any && passes < max_passes {
        improved_any = false;
        passes += 1;
        'outer: for seg_len in 1..=3usize {
            if seg_len + 1 >= n {
                continue;
            }
            for i in 0..=(n - seg_len) {
                let j = i + seg_len; // segment is tour[i..j]
                                     // cost of edges removed around the segment
                let removed = edge_w(tsp, tour, i.wrapping_sub(1), i) + edge_w(tsp, tour, j - 1, j);
                // closing the gap
                #[expect(
                    clippy::indexing_slicing,
                    reason = "guarded: 0 < i and j < n == tour.len()"
                )]
                let gap = if i > 0 && j < n {
                    tsp.weight(tour[i - 1], tour[j])
                } else {
                    0
                };
                // try inserting between positions (k, k+1) outside the segment
                for k in 0..n - 1 {
                    if k + 1 >= i && k < j {
                        continue; // overlaps the segment or its boundary
                    }
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "k < n - 1, so k and k+1 index tour"
                    )]
                    let old_edge = tsp.weight(tour[k], tour[k + 1]);
                    // segment endpoints after insertion (either orientation)
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i < j <= n, so i and j-1 index tour"
                    )]
                    let (seg_front, seg_back) = (tour[i], tour[j - 1]);
                    for flip in [false, true] {
                        let (s_head, s_tail) = if flip {
                            (seg_back, seg_front)
                        } else {
                            (seg_front, seg_back)
                        };
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "k < n - 1, so k and k+1 index tour"
                        )]
                        let added = tsp.weight(tour[k], s_head) + tsp.weight(s_tail, tour[k + 1]);
                        let before = removed + old_edge;
                        let after = gap + added;
                        if after < before {
                            apply_move(tour, i, j, k, flip);
                            improved_any = true;
                            moves += 1;
                            continue 'outer;
                        }
                    }
                }
            }
        }
    }
    let saved = start_cost - tsp.tour_cost(tour);
    if jp_obs::enabled() {
        jp_obs::counter("approx.or_opt", "passes", passes as u64);
        jp_obs::counter("approx.or_opt", "improving_moves", moves);
        jp_obs::counter("approx.or_opt", "cost_saved", saved as u64);
    }
    saved
}

/// Weight of the tour edge between positions `a` and `b`, or 0 when
/// either position is off the ends (usize::MAX wraps handle `i = 0`).
fn edge_w(tsp: &Tsp12, tour: &[u32], a: usize, b: usize) -> usize {
    if a >= tour.len() || b >= tour.len() {
        return 0;
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded: a and b checked against tour.len() above"
    )]
    tsp.weight(tour[a], tour[b])
}

/// Removes `tour[i..j]` and reinserts it (possibly flipped) after the
/// element originally at position `k` (`k` outside `[i-1, j)`).
fn apply_move(tour: &mut Vec<u32>, i: usize, j: usize, k: usize, flip: bool) {
    let mut seg: Vec<u32> = tour.drain(i..j).collect();
    if flip {
        seg.reverse();
    }
    // position k referred to the original tour; after drain, indices past
    // the segment shift left by its length
    let insert_at = if k < i { k + 1 } else { k + 1 - seg.len() };
    for (offset, v) in seg.into_iter().enumerate() {
        tour.insert(insert_at + offset, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::nearest_neighbor::nearest_neighbor_tour;
    use jp_graph::{generators, line_graph, Graph};

    #[test]
    fn relocates_a_stranded_vertex() {
        // L = path 0-1-2-3-4; tour [0,1,3,4,2] strands 2 at the end.
        let lg = Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let tsp = Tsp12::new(lg);
        let mut tour = vec![0, 1, 3, 4, 2];
        let saved = improve_or_opt(&tsp, &mut tour, 10);
        assert!(saved >= 1, "should relocate vertex 2 between 1 and 3");
        assert_eq!(tsp.tour_jumps(&tour), 0);
        assert!(tsp.is_valid_tour(&tour));
    }

    #[test]
    fn never_worsens_and_preserves_validity() {
        for seed in 0..20 {
            let g = generators::random_connected_bipartite(5, 5, 12, seed);
            let lg = line_graph(&g);
            let tsp = Tsp12::new(lg.clone());
            let mut tour = nearest_neighbor_tour(&lg);
            let before = tsp.tour_cost(&tour);
            improve_or_opt(&tsp, &mut tour, 5);
            assert!(tsp.is_valid_tour(&tour), "seed {seed}");
            assert!(tsp.tour_cost(&tour) <= before, "seed {seed}");
        }
    }

    #[test]
    fn combined_ladder_reaches_optimum_usually() {
        use crate::approx::two_opt::improve_two_opt;
        use crate::exact::min_jump_tour;
        let mut hits = 0;
        for seed in 0..10 {
            let g = generators::random_connected_bipartite(4, 4, 10, seed);
            let lg = line_graph(&g);
            let (_, opt) = min_jump_tour(&lg);
            let tsp = Tsp12::new(lg.clone());
            let mut tour = nearest_neighbor_tour(&lg);
            improve_two_opt(&tsp, &mut tour, 10);
            improve_or_opt(&tsp, &mut tour, 10);
            improve_two_opt(&tsp, &mut tour, 10);
            if tsp.tour_jumps(&tour) == opt {
                hits += 1;
            }
        }
        assert!(
            hits >= 7,
            "ladder should usually reach optimum, got {hits}/10"
        );
    }

    #[test]
    fn tiny_tours_untouched() {
        let tsp = Tsp12::new(Graph::new(2, vec![(0, 1)]));
        let mut tour = vec![0, 1];
        assert_eq!(improve_or_opt(&tsp, &mut tour, 3), 0);
        assert_eq!(tour, vec![0, 1]);
    }
}
