//! Property tests for the jp-memo cache: memoization must be invisible
//! in the answers. For every generator family and every thread count the
//! memoized cost equals the fresh portfolio cost — a cache hit serving a
//! wrong or mislabeled scheme would show up here immediately — and a
//! second pass over a shuffled workload of already-seen shapes must be
//! served almost entirely without touching the solver ladder.

use jp_graph::{generators, BipartiteGraph};
use jp_pebble::memo::{memoized_effective_cost, solve_with_memo, Memo};
use jp_pebble::portfolio::portfolio_effective_cost;
use jp_pebble::{bounds, exact};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every generator family at assorted sizes — the shapes a
/// repeated-family workload is made of. The vendored proptest has no
/// `prop_oneof`, so the family is picked by an integer selector.
fn family_graph() -> impl Strategy<Value = BipartiteGraph> {
    (0u32..9, 1u32..=6, 1u32..=6, any::<u64>()).prop_map(|(which, a, b, seed)| match which {
        0 => generators::complete_bipartite(a, b),
        1 => generators::matching(a + b),
        2 => generators::path(2 * a + b),
        3 => generators::cycle(a.max(2)),
        4 => generators::star(a + b),
        5 => generators::spider(a + 2),
        6 => generators::crown(a + 1),
        7 => generators::caterpillar(a + 1),
        _ => {
            let (k, l) = (a.clamp(2, 5), b.clamp(2, 4));
            let min = (k + l - 1) as usize;
            let max = ((k * l) as usize).min(14);
            let m = min + (seed as usize) % (max - min + 1);
            generators::random_connected_bipartite(k, l, m, seed)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memoized cost == fresh portfolio cost, at every thread count,
    /// whether the memo is cold, warming, or already hot.
    #[test]
    fn memoized_cost_equals_fresh_cost(g in family_graph(), h in family_graph()) {
        let fresh_g = portfolio_effective_cost(&g, 1).unwrap();
        let fresh_h = portfolio_effective_cost(&h, 1).unwrap();
        let memo = Memo::new();
        for threads in THREAD_COUNTS {
            prop_assert_eq!(memoized_effective_cost(&g, &memo, threads).unwrap(), fresh_g,
                "g, threads = {}", threads);
            prop_assert_eq!(memoized_effective_cost(&h, &memo, threads).unwrap(), fresh_h,
                "h, threads = {}", threads);
        }
        // a union solved through the now-hot memo is still additive
        let u = g.disjoint_union(&h);
        let s = solve_with_memo(&u, &memo, 2).unwrap();
        s.validate(&u).unwrap();
        prop_assert_eq!(s.effective_cost(&u), fresh_g + fresh_h);
        prop_assert!(s.effective_cost(&u) >= bounds::best_lower_bound(&u));
    }

    /// The memoized exact path keeps the exact answer.
    #[test]
    fn memoized_exact_stays_exact(
        g in (2u32..=4, 2u32..=4, any::<u64>()).prop_flat_map(|(k, l, seed)| {
            let min = (k + l - 1) as usize;
            let max = (k * l) as usize;
            (min..=max).prop_map(move |m| generators::random_connected_bipartite(k, l, m, seed))
        }),
    ) {
        let opt = exact::optimal_effective_cost(&g).unwrap();
        let memo = Memo::new();
        // cold (records) and hot (serves) must both agree with fresh
        prop_assert_eq!(exact::optimal_effective_cost_memo(&g, &memo).unwrap(), opt);
        prop_assert_eq!(exact::optimal_effective_cost_memo(&g, &memo).unwrap(), opt);
        let s = exact::optimal_scheme_memo(&g, &memo).unwrap();
        s.validate(&g).unwrap();
        prop_assert_eq!(s.effective_cost(&g), opt);
    }
}

/// A second pass over a shuffled repeated-shape workload is ≥90% served
/// from recognizers and cache hits — the tentpole's headline property.
#[test]
fn second_pass_is_served_from_the_cache() {
    // a workload of repeated shapes: families plus random blocks, each
    // appearing several times under different labels
    let mut shapes: Vec<BipartiteGraph> = Vec::new();
    for seed in 0..6u64 {
        shapes.push(generators::random_connected_bipartite(4, 4, 9, seed));
    }
    shapes.push(generators::spider(5));
    shapes.push(generators::complete_bipartite(3, 4));
    shapes.push(generators::cycle(5));

    let memo = Memo::new();
    let mut first_pass: Vec<usize> = Vec::new();
    for g in &shapes {
        first_pass.push(memoized_effective_cost(g, &memo, 2).unwrap());
    }
    let warm = memo.stats();

    // second pass: same shapes, shuffled order
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    order.reverse();
    order.swap(0, 3);
    for &i in &order {
        assert_eq!(
            memoized_effective_cost(&shapes[i], &memo, 2).unwrap(),
            first_pass[i],
            "shape {i} changed cost on the second pass"
        );
    }
    let hot = memo.stats();

    let second_lookups =
        (hot.hits + hot.misses + hot.recognized) - (warm.hits + warm.misses + warm.recognized);
    let second_served = (hot.hits + hot.recognized) - (warm.hits + warm.recognized);
    assert!(
        second_served as f64 >= 0.9 * second_lookups as f64,
        "second pass served {second_served}/{second_lookups} from cache/recognizers; stats {hot:?}"
    );
    assert_eq!(hot.rejects, 0, "no validated hit may fail: {hot:?}");
}
