//! Independent oracles for the exact minimum-jump kernel
//! (`jp_graph::hamilton::min_jump_layers` behind `exact::min_jump_tour`):
//! on random line graphs and arbitrary TSP(1,2) instances its jump
//! count must equal the branch-and-bound optimum and, on small
//! instances, a brute-force minimum over every permutation; its tour
//! must be a permutation with exactly the reported jumps; and a
//! constant-`true` abandon hook must stop it.

use std::cell::Cell;

use jp_graph::hamilton::min_jump_layers;
use jp_graph::{line_graph, BipartiteGraph, Graph};
use jp_pebble::exact::min_jump_tour;
use jp_pebble::exact_bb::{bb_min_jump_tour, BbOutcome};
use jp_pebble::tsp::Tsp12;
use proptest::prelude::*;

/// Line graphs of arbitrary (possibly disconnected) join graphs with
/// 1..=14 edges.
fn line_graphs() -> impl Strategy<Value = Graph> {
    (1u32..=6, 1u32..=6).prop_flat_map(|(k, l)| {
        proptest::collection::vec((0..k, 0..l), 1..=14)
            .prop_map(move |edges| line_graph(&BipartiteGraph::new(k, l, edges)))
    })
}

/// Weight-1 graphs of arbitrary TSP(1,2) instances on 1..=10 nodes.
fn tsp_instances() -> impl Strategy<Value = Tsp12> {
    (1u32..=10).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=30).prop_map(move |pairs| {
            let edges = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            Tsp12::new(Graph::new(n, edges))
        })
    })
}

fn jumps_of(g: &Graph, tour: &[u32]) -> usize {
    tour.windows(2).filter(|w| !g.has_edge(w[0], w[1])).count()
}

/// Minimum jumps over every vertex permutation (Heap's algorithm).
fn brute_force_jumps(g: &Graph) -> usize {
    let mut perm: Vec<u32> = (0..g.vertex_count()).collect();
    let n = perm.len();
    let mut best = jumps_of(g, &perm);
    let mut c = vec![0usize; n];
    let mut i = 1;
    while i < n {
        if c[i] < i {
            let j = if i % 2 == 0 { 0 } else { c[i] };
            perm.swap(j, i);
            best = best.min(jumps_of(g, &perm));
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    best
}

fn check_kernel(g: &Graph) {
    let n = g.vertex_count() as usize;
    let (tour, jumps) = min_jump_tour(g);
    // the tour is a permutation whose recounted jumps are the answer
    let mut sorted = tour.clone();
    sorted.sort_unstable();
    prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<u32>>());
    prop_assert_eq!(jumps_of(g, &tour), jumps);
    // branch and bound with an unbounded budget proves the optimum
    match bb_min_jump_tour(g, u64::MAX) {
        BbOutcome::Optimal { jumps: bb, .. } => prop_assert_eq!(jumps, bb),
        other => prop_assert!(false, "unbounded B&B did not finish: {other:?}"),
    }
    if n <= 8 {
        prop_assert_eq!(jumps, brute_force_jumps(g));
    }
    // a constant-true hook stops the search at its first poll; the kernel
    // first polls at mask 4096, so pad the instance with isolated
    // vertices to at least 13 (2¹³ masks per layer)
    let padded = Graph::new(g.vertex_count().max(13), g.edges().to_vec());
    let all = (1u32 << padded.vertex_count()) - 1;
    let polled = Cell::new(Vec::new());
    let abandon = |mask: usize| {
        let mut seen = polled.take();
        seen.push(mask);
        polled.set(seen);
        true
    };
    prop_assert!(min_jump_layers(&padded, all, usize::MAX, &abandon).is_none());
    prop_assert_eq!(polled.take(), vec![4096]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_oracles_on_line_graphs(g in line_graphs()) {
        check_kernel(&g);
    }

    #[test]
    fn kernel_matches_oracles_on_tsp12_instances(tsp in tsp_instances()) {
        check_kernel(tsp.ones());
    }
}

/// Sparse and disconnected 16-vertex instances, where the minimum jump
/// count is the path-cover number minus one and the kernel stores up to
/// 16 layers: the jump-heavy regime the line-graph cases above never
/// reach.
#[test]
fn kernel_handles_jump_heavy_sixteen_vertex_instances() {
    let n = 16;
    let paths = |len: u32| {
        let edges = (0..n - 1)
            .filter(|v| (v + 1) % len != 0)
            .map(|v| (v, v + 1));
        Graph::new(n, edges.collect())
    };
    // (graph, minimum jumps): no edges, a perfect matching, four P4s,
    // two P8s, one P16
    for (g, want) in [
        (Graph::empty(n), 15),
        (paths(2), 7),
        (paths(4), 3),
        (paths(8), 1),
        (paths(16), 0),
    ] {
        let (tour, jumps) = min_jump_tour(&g);
        assert_eq!(jumps, want);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<u32>>());
        assert_eq!(jumps_of(&g, &tour), want);
        let dp = min_jump_layers(&g, (1 << n) - 1, usize::MAX, &|_| false).unwrap();
        assert_eq!(dp.cells(), (want + 1) << n);
    }
}
