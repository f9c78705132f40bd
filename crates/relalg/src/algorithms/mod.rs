//! Join algorithms.
//!
//! The paper's motivation (§1): equijoins have "a number of recognized
//! good algorithms, including index nested loops, sort-merge join, and
//! hash-join", while spatial-overlap and set-containment joins only have
//! algorithms "requiring either replication of data or repeated processing
//! of data". This module implements representatives of all of them so the
//! experiments can exhibit the contrast the pebble game explains:
//!
//! * [`nested_loops`] — the universal baseline for any predicate;
//! * [`equi`] — hash join, sort-merge join, index nested loops;
//! * [`containment`] — naive, inverted-index, and signature-filter joins;
//! * [`spatial`] — naive, plane-sweep, PBSM grid, and R-tree joins.
//!
//! Every algorithm returns the same pair set (sorted `(r_id, s_id)` pairs,
//! i.e. exactly the edge list of the join graph) and is cross-validated
//! against [`nested_loops`] in tests.

pub mod containment;
pub mod equi;
pub mod multiway;
pub mod spatial;

use crate::predicate::JoinPredicate;
use crate::relation::Relation;

/// The result of a join: tuple-id pairs, sorted lexicographically — the
/// edge list of the join graph.
pub type JoinResult = Vec<(u32, u32)>;

/// Nested-loops join: evaluates the predicate over the full cross product.
/// Works for every predicate; `O(|R|·|S|)`.
pub fn nested_loops(r: &Relation, s: &Relation, pred: &dyn JoinPredicate) -> JoinResult {
    let mut out = Vec::new();
    for (i, a) in r.iter() {
        for (j, b) in s.iter() {
            if pred.matches(a, b) {
                out.push((i, j));
            }
        }
    }
    out
}

/// Block nested-loops join: identical output to [`nested_loops`], but
/// iterates in cache-friendly blocks — the classical I/O-aware variant.
#[allow(
    clippy::needless_range_loop,
    reason = "index arithmetic is the point of blocking"
)]
pub fn block_nested_loops(
    r: &Relation,
    s: &Relation,
    pred: &dyn JoinPredicate,
    block: usize,
) -> JoinResult {
    assert!(block > 0, "block size must be positive");
    let mut out = Vec::new();
    let rv = r.values();
    let sv = s.values();
    for rb in (0..rv.len()).step_by(block) {
        let rend = (rb + block).min(rv.len());
        for sb in (0..sv.len()).step_by(block) {
            let send = (sb + block).min(sv.len());
            for i in rb..rend {
                for j in sb..send {
                    if pred.matches(&rv[i], &sv[j]) {
                        out.push((i as u32, j as u32));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Band, Equality};

    #[test]
    fn nested_loops_basic() {
        let r = Relation::from_ints("R", [1, 2, 3]);
        let s = Relation::from_ints("S", [2, 3, 4]);
        assert_eq!(nested_loops(&r, &s, &Equality), vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn block_nested_loops_matches_nested_loops() {
        let r = Relation::from_ints("R", (0..37).map(|i| i % 5).collect::<Vec<_>>());
        let s = Relation::from_ints("S", (0..29).map(|i| i % 7).collect::<Vec<_>>());
        let expect = nested_loops(&r, &s, &Band(1));
        for block in [1, 4, 16, 100] {
            assert_eq!(
                block_nested_loops(&r, &s, &Band(1), block),
                expect,
                "block {block}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_rejected() {
        let r = Relation::from_ints("R", [1]);
        block_nested_loops(&r, &r, &Equality, 0);
    }
}
