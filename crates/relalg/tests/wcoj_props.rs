//! Cross-algorithm equality and AGM-bound properties for the
//! worst-case-optimal multiway join engines.
//!
//! A binary equijoin is the conjunctive query `Q(i,j) ← R'(v,i) ∧
//! S'(v,j)` over tagged relations `R' = {(value, tuple_id)}`, so the
//! trie-based engines must reproduce the classic equijoin algorithms
//! (hash, sort-merge, index nested loops) exactly — including on empty
//! relations, all-duplicate keys, and single-tuple inputs. On the
//! cyclic queries (triangle, 4-clique, bowtie) LFTJ, generic join, and
//! the binary cascade must agree byte-for-byte at 1/2/8 threads, and
//! the output never exceeds the AGM fractional-cover bound. That holds
//! too on instances whose trie nodes are dense, where levels intersect
//! by word AND, and on one whose levels mix dense and sparse nodes.

use jp_relalg::{
    algorithms, multiway_solve, query_join_graph, workload, Atom, ConjunctiveQuery, MultiRelation,
    MultiwayAlgo, Relation,
};
use proptest::prelude::*;

const ALGOS: [MultiwayAlgo; 3] = [
    MultiwayAlgo::Lftj,
    MultiwayAlgo::Generic,
    MultiwayAlgo::Cascade,
];

/// `Q(i,j) ← R'(v,i) ∧ S'(v,j)`: the binary equijoin as a conjunctive
/// query. Each atom has cover weight 1 — the bound is `|R|·|S|`.
fn pair_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        "pair",
        vec![
            Atom {
                relation: 0,
                vars: vec![0, 1],
            },
            Atom {
                relation: 1,
                vars: vec![0, 2],
            },
        ],
        vec![1.0, 1.0],
    )
    .unwrap()
}

/// Tags a single-column integer relation with tuple ids: `(value, id)`.
fn tag(name: &str, r: &Relation) -> MultiRelation {
    let tuples = r
        .values()
        .iter()
        .enumerate()
        .map(|(i, v)| vec![v.as_int().unwrap(), i as i64]);
    MultiRelation::new(name, 2, tuples).unwrap()
}

/// Runs the binary-equijoin encoding through every multiway engine and
/// checks the projected pairs against the classic equijoin algorithms.
fn check_binary_equijoin(r: &Relation, s: &Relation, threads: usize) {
    let expect = algorithms::equi::hash_join(r, s);
    assert_eq!(algorithms::equi::sort_merge(r, s), expect);
    assert_eq!(algorithms::equi::index_nested_loops(r, s), expect);
    let q = pair_query();
    let rels = vec![tag("R", r), tag("S", s)];
    for algo in ALGOS {
        let out = multiway_solve(&q, &rels, algo, threads).unwrap();
        assert!(out.rows.len() as f64 <= out.agm_bound, "{}", algo.name());
        // Variable order is (v, i, j); project to the (i, j) pairs.
        let mut pairs: Vec<(u32, u32)> = out
            .rows
            .iter()
            .map(|row| (row[1] as u32, row[2] as u32))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, expect, "{} at {threads} threads", algo.name());
    }
    // Each output row is one edge of the query's join graph.
    if !expect.is_empty() {
        let g = query_join_graph(&q, &rels).unwrap();
        assert_eq!(g.edge_count(), expect.len());
    }
}

#[test]
fn degenerate_binary_inputs() {
    let empty = Relation::from_ints("E", Vec::<i64>::new());
    let single = Relation::from_ints("U", [7]);
    let dups = Relation::from_ints("D", [7, 7, 7, 7]);
    let mixed = Relation::from_ints("M", [7, 8, 9]);
    for r in [&empty, &single, &dups, &mixed] {
        for s in [&empty, &single, &dups, &mixed] {
            for threads in [1, 2, 8] {
                check_binary_equijoin(r, s, threads);
            }
        }
    }
}

#[test]
fn skewed_triangle_thread_and_algorithm_parity() {
    let (q, rels) = workload::triangle_skewed(80, 9);
    let base = multiway_solve(&q, &rels, MultiwayAlgo::Cascade, 1).unwrap();
    assert!(base.rows.len() as f64 <= base.agm_bound);
    for threads in [1, 2, 8] {
        for algo in [MultiwayAlgo::Lftj, MultiwayAlgo::Generic] {
            let out = multiway_solve(&q, &rels, algo, threads).unwrap();
            assert_eq!(out.rows, base.rows, "{} at {threads}", algo.name());
            assert_eq!(out.order, base.order);
        }
    }
}

/// Checks that every engine returns the cascade's rows at 1/2/8
/// threads, that LFTJ and generic join report the same counters at one
/// thread, and that the word-AND path ran.
fn check_dense_parity(q: &ConjunctiveQuery, rels: &[MultiRelation]) {
    let base = multiway_solve(q, rels, MultiwayAlgo::Cascade, 1).unwrap();
    assert!(base.rows.len() as f64 <= base.agm_bound, "{}", q.name());
    let lftj = multiway_solve(q, rels, MultiwayAlgo::Lftj, 1).unwrap();
    let generic = multiway_solve(q, rels, MultiwayAlgo::Generic, 1).unwrap();
    assert!(lftj.stats.words > 0, "{}: no level was ANDed", q.name());
    assert_eq!(lftj.stats.words, generic.stats.words, "{}", q.name());
    assert_eq!(lftj.stats.intermediate, generic.stats.intermediate);
    for threads in [1, 2, 8] {
        for algo in [MultiwayAlgo::Lftj, MultiwayAlgo::Generic] {
            let out = multiway_solve(q, rels, algo, threads).unwrap();
            assert_eq!(
                out.rows,
                base.rows,
                "{} {} at {threads}",
                q.name(),
                algo.name()
            );
        }
    }
}

#[test]
fn dense_instances_agree_at_all_thread_counts() {
    // About 8 edges per id over 20 ids (one bitset word per node) and 4
    // per id over 125 ids (two words per node, as in the benchmark).
    for (n, deg) in [(160, 8), (500, 4)] {
        for seed in 0..2 {
            let (q, rels) = workload::triangle_random(n, deg, seed);
            check_dense_parity(&q, &rels);
            let (q, rels) = workload::clique4_random(n, deg, seed);
            check_dense_parity(&q, &rels);
            let (q, rels) = workload::bowtie_random(n, deg, seed);
            check_dense_parity(&q, &rels);
        }
    }
}

#[test]
fn mixed_layout_instance_agrees_at_all_thread_counts() {
    // A dense cluster of ids around zero, linked among themselves, and
    // ids about a thousand apart, negatives included, linked to both:
    // roots and spread ids' nodes are sparse and cluster ids' nodes
    // dense, so some levels AND words and the mixed ones seek.
    let mut state = 7u64;
    let mut draw = |m: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64 % m
    };
    let mut edges: Vec<Vec<i64>> = Vec::new();
    for _ in 0..200 {
        edges.push(vec![draw(24) - 12, draw(24) - 12]);
    }
    for _ in 0..100 {
        let spread = (draw(40) - 20) * 1009;
        let other = if draw(2) == 0 {
            draw(24) - 12
        } else {
            (draw(40) - 20) * 1009
        };
        edges.push(vec![spread, other]);
    }
    let rel = |name: &str| MultiRelation::new(name, 2, edges.clone()).unwrap();
    let tri = vec![rel("R"), rel("S"), rel("T")];
    check_dense_parity(&ConjunctiveQuery::triangle(), &tri);
    let clique: Vec<_> = ["E01", "E02", "E03", "E12", "E13", "E23"]
        .iter()
        .map(|name| rel(name))
        .collect();
    check_dense_parity(&ConjunctiveQuery::four_clique(), &clique);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn binary_equijoin_encoding_matches_classic_algorithms(
        rv in proptest::collection::vec(0i64..6, 0..20),
        sv in proptest::collection::vec(0i64..6, 0..20),
        threads_pick in 0usize..3,
    ) {
        let r = Relation::from_ints("R", rv);
        let s = Relation::from_ints("S", sv);
        check_binary_equijoin(&r, &s, [1, 2, 8][threads_pick]);
    }

    #[test]
    fn triangle_engines_agree_at_all_thread_counts(
        n in 10usize..80,
        deg in 2usize..6,
        seed in 0u64..1000,
        threads_pick in 0usize..3,
    ) {
        let (q, rels) = workload::triangle_random(n, deg, seed);
        let threads = [1, 2, 8][threads_pick];
        let base = multiway_solve(&q, &rels, MultiwayAlgo::Cascade, 1).unwrap();
        prop_assert!(base.rows.len() as f64 <= base.agm_bound);
        for algo in [MultiwayAlgo::Lftj, MultiwayAlgo::Generic] {
            let out = multiway_solve(&q, &rels, algo, threads).unwrap();
            prop_assert_eq!(&out.rows, &base.rows, "{} at {}", algo.name(), threads);
        }
    }

    #[test]
    fn clique_and_bowtie_engines_agree(
        n in 10usize..60,
        seed in 0u64..1000,
        threads_pick in 0usize..3,
    ) {
        let threads = [1, 2, 8][threads_pick];
        for (q, rels) in [
            workload::clique4_random(n, 3, seed),
            workload::bowtie_random(n, 3, seed),
        ] {
            let base = multiway_solve(&q, &rels, MultiwayAlgo::Cascade, 1).unwrap();
            prop_assert!(base.rows.len() as f64 <= base.agm_bound);
            for algo in [MultiwayAlgo::Lftj, MultiwayAlgo::Generic] {
                let out = multiway_solve(&q, &rels, algo, threads).unwrap();
                prop_assert_eq!(&out.rows, &base.rows, "{} at {}", algo.name(), threads);
            }
        }
    }

    #[test]
    fn query_join_graph_edge_counts_match_pairwise_joins(
        n in 4usize..40,
        seed in 0u64..1000,
    ) {
        let (q, rels) = workload::triangle_random(n, 3, seed);
        let g = query_join_graph(&q, &rels).unwrap();
        // The disjoint union of the three pairwise shared-variable
        // equijoin graphs: count each pair by brute force.
        let mut expect = 0usize;
        // R(a,b)↔S(b,c) share b; R(a,b)↔T(a,c) share a; S(b,c)↔T(a,c)
        // share c.
        let pairs = [(0usize, 1usize, 1usize, 0usize), (0, 2, 0, 0), (1, 2, 1, 1)];
        for (ai, bi, ca, cb) in pairs {
            for ta in rels[ai].tuples() {
                for tb in rels[bi].tuples() {
                    if ta[ca] == tb[cb] {
                        expect += 1;
                    }
                }
            }
        }
        prop_assert_eq!(g.edge_count(), expect);
    }
}
