//! Model-checked properties of the CSR trie and its leapfrog cursor.
//!
//! Random `open`/`up`/`advance`/`seek`/`key`/`remaining` sequences run
//! on random relations of arity 1–3 under every column permutation, and
//! each step is compared with a naive model: the `BTreeSet` of permuted
//! rows, scanned afresh on every call. The model's `remaining` counts
//! rows, so a cursor that counted distinct keys there — or skipped a key
//! on `advance` — fails.

use jp_relalg::{MultiRelation, TrieIndex, TrieIter};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One cursor call, drawn as `(op, argument)`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Open,
    Up,
    Advance,
    Seek(i64),
    Key,
    Remaining,
}

fn op((code, arg): (u8, i64)) -> Op {
    match code {
        0 | 1 => Op::Open,
        2 => Op::Up,
        3 | 4 => Op::Advance,
        5 | 6 => Op::Seek(arg),
        7 => Op::Key,
        _ => Op::Remaining,
    }
}

/// The cursor spelled out against the row set: one entry per open
/// level, holding that level's current key (`None` once exhausted).
struct Model {
    rows: BTreeSet<Vec<i64>>,
    depth: usize,
    stack: Vec<Option<i64>>,
}

impl Model {
    /// The keys bound at the levels above the current one.
    fn prefix(&self, levels: usize) -> Option<Vec<i64>> {
        self.stack.iter().take(levels).copied().collect()
    }

    /// Rows under the node the cursor's level `d` (0-based) walks.
    fn node_rows(&self, d: usize) -> Vec<&Vec<i64>> {
        let Some(prefix) = self.prefix(d) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter(|r| r.get(..d) == Some(&prefix[..]))
            .collect()
    }

    /// Distinct keys of level `d` under its node, ascending.
    fn node_keys(&self, d: usize) -> Vec<i64> {
        let keys: BTreeSet<i64> = self.node_rows(d).iter().map(|r| r[d]).collect();
        keys.into_iter().collect()
    }

    fn open(&mut self) -> Option<i64> {
        let d = self.stack.len();
        if d >= self.depth || self.stack.last().is_some_and(Option::is_none) {
            return None;
        }
        let first = self.node_keys(d).first().copied()?;
        self.stack.push(Some(first));
        Some(first)
    }

    fn up(&mut self) {
        self.stack.pop();
    }

    fn key(&self) -> Option<i64> {
        self.stack.last().copied().flatten()
    }

    /// Moves the current level to its first key `k` with
    /// `pick(current, k)`, or past the end when there is none.
    fn step(&mut self, pick: impl Fn(i64, i64) -> bool) -> Option<i64> {
        let d = self.stack.len().checked_sub(1)?;
        let current = self.key()?;
        let next = self.node_keys(d).into_iter().find(|&k| pick(current, k));
        *self.stack.last_mut()? = next;
        next
    }

    fn advance(&mut self) -> Option<i64> {
        self.step(|current, k| k > current)
    }

    fn seek(&mut self, v: i64) -> Option<i64> {
        self.step(|current, k| k >= current.max(v))
    }

    /// Rows of the current node from the current key on.
    fn remaining(&self) -> usize {
        let (Some(d), Some(current)) = (self.stack.len().checked_sub(1), self.key()) else {
            return 0;
        };
        self.node_rows(d).iter().filter(|r| r[d] >= current).count()
    }
}

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<u32>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(at, (n - 1) as u32);
            out.push(p);
        }
    }
    out
}

/// Builds the relation from the first `arity` columns of each tuple,
/// then replays `ops` on the trie and the model under every column
/// permutation.
fn check(arity: usize, tuples: &[(i64, i64, i64)], ops: &[Op]) {
    let rows: Vec<Vec<i64>> = tuples
        .iter()
        .map(|&(a, b, c)| [a, b, c][..arity].to_vec())
        .collect();
    let rel = MultiRelation::new("R", arity, rows.clone()).unwrap();
    let stored: Vec<Vec<i64>> = rel.tuples().map(<[i64]>::to_vec).collect();
    let distinct: BTreeSet<Vec<i64>> = rows.into_iter().collect();
    assert_eq!(stored, distinct.iter().cloned().collect::<Vec<_>>());
    for perm in permutations(arity) {
        let permuted: BTreeSet<Vec<i64>> = distinct
            .iter()
            .map(|r| perm.iter().map(|&c| r[c as usize]).collect())
            .collect();
        let trie = TrieIndex::build(&rel, &perm).unwrap();
        assert_eq!(trie.rows(), permuted.len());
        assert_eq!(trie.depth(), arity);
        let mut it = TrieIter::new(&trie);
        let mut model = Model {
            rows: permuted,
            depth: arity,
            stack: Vec::new(),
        };
        for (i, &op) in ops.iter().enumerate() {
            let ctx = format!("perm {perm:?}, step {i} {op:?}");
            match op {
                Op::Open => assert_eq!(it.open(), model.open(), "{ctx}"),
                Op::Up => {
                    it.up();
                    model.up();
                }
                Op::Advance => assert_eq!(it.advance(), model.advance(), "{ctx}"),
                Op::Seek(v) => assert_eq!(it.seek(v), model.seek(v), "{ctx}"),
                Op::Key => assert_eq!(it.key(), model.key(), "{ctx}"),
                Op::Remaining => assert_eq!(it.remaining(), model.remaining(), "{ctx}"),
            }
            assert_eq!(it.depth(), model.stack.len(), "{ctx}");
            assert_eq!(it.key(), model.key(), "{ctx}");
            assert_eq!(it.remaining(), model.remaining(), "{ctx}");
        }
    }
}

/// A walk that opens every level, drains the deepest with `advance`,
/// climbs back and repeats — touching every key — then seeks past the
/// end on the way out.
fn full_walk(depth: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..4 {
        ops.extend(std::iter::repeat_n(Op::Open, depth));
        ops.extend(std::iter::repeat_n(Op::Advance, 3));
        ops.push(Op::Up);
        ops.push(Op::Advance);
    }
    ops.extend([Op::Seek(i64::MAX), Op::Key, Op::Remaining, Op::Open]);
    ops
}

#[test]
fn degenerate_relations_match_the_model() {
    for arity in 1..=3 {
        let walk = full_walk(arity);
        // empty
        check(arity, &[], &walk);
        // a single tuple
        check(arity, &[(4, 5, 6)], &walk);
        // all duplicates collapse to one row
        check(arity, &[(2, 2, 2); 5], &walk);
    }
}

#[test]
fn remaining_counts_rows_not_distinct_keys() {
    let rel =
        MultiRelation::new("R", 2, vec![vec![1, 1], vec![1, 2], vec![1, 3], vec![2, 1]]).unwrap();
    let trie = TrieIndex::build(&rel, &[0, 1]).unwrap();
    let mut it = TrieIter::new(&trie);
    assert_eq!(it.remaining(), 0, "root");
    assert_eq!(it.open(), Some(1));
    assert_eq!(it.remaining(), 4, "two keys ahead, four rows");
    assert_eq!(it.advance(), Some(2));
    assert_eq!(it.remaining(), 1);
    assert_eq!(it.advance(), None);
    assert_eq!(it.remaining(), 0);
}

#[test]
fn relations_of_any_arity_sort_and_dedup() {
    // Arities 0 through 6 cover every row-sorting path.
    let mut seed = 1u64;
    for arity in 0..=6usize {
        let mut tuples = Vec::new();
        for _ in 0..40 {
            let t: Vec<i64> = (0..arity)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((seed >> 33) % 3) as i64 - 1
                })
                .collect();
            tuples.push(t);
        }
        let rel = MultiRelation::new("R", arity, tuples.clone()).unwrap();
        let expect: BTreeSet<Vec<i64>> = if arity == 0 {
            BTreeSet::new()
        } else {
            tuples.into_iter().collect()
        };
        let got: Vec<Vec<i64>> = rel.tuples().map(<[i64]>::to_vec).collect();
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>(), "arity {arity}");
        assert_eq!(rel.len(), got.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn cursor_matches_the_row_set_model(
        arity in 1usize..4,
        tuples in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 0..24),
        ops in proptest::collection::vec((0u8..9, -1i64..6), 0..80),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(op).collect();
        check(arity, &tuples, &ops);
    }
}
