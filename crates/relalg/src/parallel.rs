//! Parallel fragmented join execution — the *practice* behind §5.
//!
//! "Many join algorithms in practice work by first mapping the input
//! relations `R` and `S` into `R₁ … R_m` and `S₁ … S_n`, and doing the
//! join by investigating a subset of the joins `R_i ⋈ S_j`. This is done
//! either to explore parallelism or to make better use of main memory."
//!
//! [`fragmented_join`] executes exactly that plan: given fragment
//! assignments (produced e.g. by `jp_pebble::fragmentation`), it runs
//! the sub-joins on the `jp-par` work-stealing runtime and merges the
//! results, skipping fragment pairs that the assignment proves empty.
//! Work-stealing matters under skew: with the earlier fixed-wave
//! schedule, one oversized `R_i ⋈ S_j` stalled its entire wave, while
//! here idle workers steal the remaining sub-joins and keep every core
//! busy. The result is always identical to the unfragmented join —
//! output order is fixed by a final sort, so it is deterministic for
//! every thread count, and tests and properties enforce it — which is
//! what makes the §5 *cost* question (how few sub-joins can a mapping
//! get away with?) well-posed.

use crate::algorithms::JoinResult;
use crate::predicate::JoinPredicate;
use crate::relation::Relation;

/// Tuple ids in a [`JoinResult`] are `u32`; a relation position beyond
/// that must fail loudly instead of silently wrapping into a colliding
/// id.
fn tuple_id(position: usize) -> u32 {
    u32::try_from(position).expect("relation has more than u32::MAX tuples; tuple ids are u32")
}

/// Executes `R ⋈ S` as a set of per-fragment-pair sub-joins scheduled on
/// the `jp-par` work-stealing runtime with `max_threads` workers.
///
/// `left_frag[i]` / `right_frag[j]` give each tuple's fragment (`0..p`,
/// `0..q`). Only fragment pairs containing at least one candidate tuple
/// pair are scheduled; within a sub-join the predicate is evaluated
/// exhaustively (nested loops — the baseline every sub-join algorithm
/// refines). A skewed fragment pair no longer stalls its peers: workers
/// that finish early steal queued sub-joins. The final sort makes the
/// output independent of the schedule.
///
/// # Panics
/// Panics if the assignment lengths do not match the relations, a
/// fragment id is out of range, or a relation has more than `u32::MAX`
/// tuples (tuple ids in the result are `u32`).
#[allow(clippy::too_many_arguments, reason = "the plan IS the argument list")]
pub fn fragmented_join(
    r: &Relation,
    s: &Relation,
    pred: &(dyn JoinPredicate + Sync),
    left_frag: &[u32],
    p: u32,
    right_frag: &[u32],
    q: u32,
    max_threads: usize,
) -> JoinResult {
    let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Relalg);
    assert_eq!(left_frag.len(), r.len(), "left fragment assignment length");
    assert_eq!(
        right_frag.len(),
        s.len(),
        "right fragment assignment length"
    );
    assert!(max_threads > 0, "need at least one thread");
    // Bucket tuple ids by fragment.
    let mut left_buckets: Vec<Vec<u32>> = vec![Vec::new(); p as usize];
    for (i, &f) in left_frag.iter().enumerate() {
        assert!(f < p, "left fragment {f} out of range");
        left_buckets[f as usize].push(tuple_id(i));
    }
    let mut right_buckets: Vec<Vec<u32>> = vec![Vec::new(); q as usize];
    for (j, &f) in right_frag.iter().enumerate() {
        assert!(f < q, "right fragment {f} out of range");
        right_buckets[f as usize].push(tuple_id(j));
    }
    // Schedule the non-empty fragment pairs; idle workers steal.
    let tasks: Vec<(usize, usize)> = (0..p as usize)
        .flat_map(|a| (0..q as usize).map(move |b| (a, b)))
        .filter(|&(a, b)| !left_buckets[a].is_empty() && !right_buckets[b].is_empty())
        .collect();
    let results = jp_par::run_tasks(max_threads, tasks, |_, (a, b)| {
        sub_join(r, s, pred, &left_buckets[a], &right_buckets[b])
    });
    let mut out: JoinResult = results.into_iter().flatten().collect();
    out.sort_unstable();
    out
}

/// One exhaustive sub-join `R_a ⋈ S_b` over the bucketed tuple ids.
fn sub_join(
    r: &Relation,
    s: &Relation,
    pred: &(dyn JoinPredicate + Sync),
    ls: &[u32],
    rs: &[u32],
) -> JoinResult {
    let mut pairs = Vec::new();
    for &i in ls {
        for &j in rs {
            if pred.matches(r.value(i as usize), s.value(j as usize)) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::nested_loops;
    use crate::predicate::{Equality, SetContainment, SpatialOverlap};
    use crate::workload;

    fn round_robin(n: usize, k: u32) -> Vec<u32> {
        (0..n).map(|i| (i as u32) % k).collect()
    }

    #[test]
    fn matches_sequential_equijoin() {
        let (r, s) = workload::zipf_equijoin(120, 100, 15, 0.8, 21);
        let expect = {
            let mut e = nested_loops(&r, &s, &Equality);
            e.sort_unstable();
            e
        };
        for (p, q, threads) in [(1, 1, 1), (3, 2, 2), (4, 4, 8), (7, 5, 3)] {
            let got = fragmented_join(
                &r,
                &s,
                &Equality,
                &round_robin(r.len(), p),
                p,
                &round_robin(s.len(), q),
                q,
                threads,
            );
            assert_eq!(got, expect, "p={p} q={q} threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_containment_and_spatial() {
        let (r, s) = workload::set_workload(60, 50, 300, 2..=5, 6..=12, 0.5, 22);
        let mut expect = nested_loops(&r, &s, &SetContainment);
        expect.sort_unstable();
        let got = fragmented_join(
            &r,
            &s,
            &SetContainment,
            &round_robin(r.len(), 3),
            3,
            &round_robin(s.len(), 3),
            3,
            4,
        );
        assert_eq!(got, expect);

        let r = workload::uniform_rects(80, 1_000, 50, 23);
        let s = workload::uniform_rects(70, 1_000, 50, 24);
        let mut expect = nested_loops(&r, &s, &SpatialOverlap);
        expect.sort_unstable();
        let got = fragmented_join(
            &r,
            &s,
            &SpatialOverlap,
            &round_robin(r.len(), 2),
            2,
            &round_robin(s.len(), 4),
            4,
            4,
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_fragments_are_skipped() {
        let r = Relation::from_ints("R", [1, 2]);
        let s = Relation::from_ints("S", [1, 2]);
        // all left tuples in fragment 0 of 3; fragments 1,2 empty
        let got = fragmented_join(&r, &s, &Equality, &[0, 0], 3, &[0, 1], 2, 2);
        assert_eq!(got, vec![(0, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fragment_id_rejected() {
        let r = Relation::from_ints("R", [1]);
        fragmented_join(&r, &r.clone(), &Equality, &[5], 2, &[0], 1, 1);
    }

    #[test]
    fn component_pack_mapping_executes_correctly() {
        // end-to-end with the §5 solver: pack, then execute the plan
        use jp_graph::quotient;
        let (r, s) = workload::zipf_equijoin(90, 90, 30, 0.5, 25);
        let g = crate::equijoin_graph(&r, &s).unwrap();
        // simple hash fragmentation here (the pebble-side packer is
        // exercised in jp-pebble's tests; relalg must not depend on it)
        let lf = round_robin(r.len(), 4);
        let rf = round_robin(s.len(), 4);
        let got = fragmented_join(&r, &s, &Equality, &lf, 4, &rf, 4, 4);
        assert_eq!(got, g.edges().to_vec());
        // investigated pairs = edges of the quotient graph
        let pq = quotient(&g, &lf, 4, &rf, 4);
        assert!(pq.edge_count() <= 16);
    }
}

/// Executes only the given fragment pairs — the §5 plan executor: when
/// the mapping was planned against the true join graph, the investigated
/// pairs (`FragmentMapping::investigated` on the pebble side, or the
/// quotient graph's edges) are exactly the sub-joins that can produce
/// output, and every other pair may be skipped safely.
///
/// # Panics
/// As [`fragmented_join`], plus if a pair references an out-of-range
/// fragment.
#[allow(clippy::too_many_arguments, reason = "the plan IS the argument list")]
pub fn fragmented_join_pairs(
    r: &Relation,
    s: &Relation,
    pred: &(dyn JoinPredicate + Sync),
    left_frag: &[u32],
    p: u32,
    right_frag: &[u32],
    q: u32,
    pairs: &[(u32, u32)],
    max_threads: usize,
) -> JoinResult {
    assert_eq!(left_frag.len(), r.len(), "left fragment assignment length");
    assert_eq!(
        right_frag.len(),
        s.len(),
        "right fragment assignment length"
    );
    assert!(max_threads > 0, "need at least one thread");
    let mut left_buckets: Vec<Vec<u32>> = vec![Vec::new(); p as usize];
    for (i, &f) in left_frag.iter().enumerate() {
        assert!(f < p, "left fragment {f} out of range");
        left_buckets[f as usize].push(tuple_id(i));
    }
    let mut right_buckets: Vec<Vec<u32>> = vec![Vec::new(); q as usize];
    for (j, &f) in right_frag.iter().enumerate() {
        assert!(f < q, "right fragment {f} out of range");
        right_buckets[f as usize].push(tuple_id(j));
    }
    for &(a, b) in pairs {
        assert!(a < p && b < q, "pair ({a}, {b}) out of range");
    }
    let results = jp_par::run_tasks(max_threads, pairs.to_vec(), |_, (a, b)| {
        sub_join(
            r,
            s,
            pred,
            &left_buckets[a as usize],
            &right_buckets[b as usize],
        )
    });
    let mut out: JoinResult = results.into_iter().flatten().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod pair_tests {
    use super::*;
    use crate::predicate::Equality;
    use crate::workload;
    use jp_graph::quotient;

    #[test]
    fn investigated_pairs_suffice() {
        // plan against the true join graph, then execute only its pairs
        let (r, s) = workload::zipf_equijoin(80, 80, 25, 0.6, 61);
        let g = crate::equijoin_graph(&r, &s).unwrap();
        let lf: Vec<u32> = (0..r.len()).map(|i| (i % 3) as u32).collect();
        let rf: Vec<u32> = (0..s.len()).map(|i| (i % 3) as u32).collect();
        let investigated = quotient(&g, &lf, 3, &rf, 3).edges().to_vec();
        let got = fragmented_join_pairs(&r, &s, &Equality, &lf, 3, &rf, 3, &investigated, 3);
        assert_eq!(got, g.edges().to_vec());
        // fewer pairs than the full grid when the mapping is any good
        assert!(investigated.len() <= 9);
    }

    #[test]
    fn missing_pairs_miss_results() {
        // dropping an investigated pair loses exactly its sub-join output
        let r = Relation::from_ints("R", [1, 2]);
        let s = Relation::from_ints("S", [1, 2]);
        let lf = [0u32, 1];
        let rf = [0u32, 1];
        let all = fragmented_join_pairs(&r, &s, &Equality, &lf, 2, &rf, 2, &[(0, 0), (1, 1)], 2);
        assert_eq!(all, vec![(0, 0), (1, 1)]);
        let partial = fragmented_join_pairs(&r, &s, &Equality, &lf, 2, &rf, 2, &[(0, 0)], 2);
        assert_eq!(partial, vec![(0, 0)]);
    }
}
