//! Model-checked properties of the CSR trie and its leapfrog cursor.
//!
//! Random `open`/`up`/`advance`/`seek`/`key`/`remaining` sequences run
//! on random relations of arity 1–3 under every column permutation, and
//! each step is compared with a naive model: the `BTreeSet` of permuted
//! rows, scanned afresh on every call. The model's `remaining` counts
//! rows, so a cursor that counted distinct keys there — or skipped a key
//! on `advance` — fails.
//!
//! The dense layout is checked the same way, over key domains that make
//! it appear: small domains, negative keys, keys within 64 of `i64::MIN`
//! and `i64::MAX`, and clusters beside spread-out keys so one level
//! mixes dense and sparse nodes. Every node's bitset must be present
//! exactly when the density rule says, hold exactly the node's keys, and
//! `place` on any member must land where `seek` lands.

use jp_relalg::{DenseNode, MultiRelation, TrieIndex, TrieIter};
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
    Dense,
    Place(i64),
}

fn op((code, arg): (u8, i64)) -> Op {
    match code {
        0 | 1 => Op::Open,
        2 => Op::Up,
        3 | 4 => Op::Advance,
        5 | 6 => Op::Seek(arg),
        7 => Op::Key,
        8 => Op::Remaining,
        9 => Op::Dense,
        _ => Op::Place(arg),
    }
}

/// The bitset the density rule gives a node with these ascending keys:
/// its first word number and its words, or `None` when the word span
/// `first.div_euclid(64) ..= last.div_euclid(64)` is not strictly
/// shorter than the key count.
fn expected_bitset(keys: &[i64]) -> Option<(i64, Vec<u64>)> {
    let base = keys.first()?.div_euclid(64);
    let span = i128::from(keys.last()?.div_euclid(64)) - i128::from(base) + 1;
    if span >= keys.len() as i128 {
        return None;
    }
    let mut words = vec![0u64; span as usize];
    for &k in keys {
        words[(k.div_euclid(64) - base) as usize] |= 1 << k.rem_euclid(64);
    }
    Some((base, words))
}

fn bitset(node: &DenseNode<'_>) -> (i64, Vec<u64>) {
    (node.base(), node.words().to_vec())
}

/// The keys a bitset holds, ascending.
fn members(node: &DenseNode<'_>) -> Vec<i64> {
    let mut keys = Vec::new();
    for (w, &word) in (node.base()..).zip(node.words()) {
        keys.extend((0..64).filter(|b| word >> b & 1 == 1).map(|b| w * 64 + b));
    }
    keys
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

    /// The bitset of the current level's node, by the density rule.
    fn dense(&self) -> Option<(i64, Vec<u64>)> {
        let d = self.stack.len().checked_sub(1)?;
        expected_bitset(&self.node_keys(d))
    }

    /// Jumps to member `v` of a dense node, backwards too; otherwise
    /// leaves the cursor where it is.
    fn place(&mut self, v: i64) -> Option<i64> {
        let d = self.stack.len().checked_sub(1)?;
        let keys = self.node_keys(d);
        expected_bitset(&keys)?;
        keys.contains(&v).then(|| {
            self.stack[d] = Some(v);
            v
        })
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
                Op::Dense => assert_eq!(it.dense().map(|n| bitset(&n)), model.dense(), "{ctx}"),
                Op::Place(v) => {
                    let got = it.dense().and_then(|n| it.place(&n, v));
                    assert_eq!(got, model.place(v), "{ctx}");
                }
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

/// Visits every node below the cursor's freshly opened level (`keys`
/// are that node's keys) and checks its layout against the density
/// rule; for a dense node, `place` on each member must land where `seek`
/// lands — same key, same remaining rows, same first child — and `place`
/// on a non-member must fail without moving the cursor.
fn check_node(it: &mut TrieIter<'_>, rows: &BTreeSet<Vec<i64>>, prefix: &mut Vec<i64>) {
    let d = prefix.len();
    let under: Vec<&Vec<i64>> = rows.iter().filter(|r| r[..d] == prefix[..]).collect();
    let keys: Vec<i64> = under
        .iter()
        .map(|r| r[d])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let node = it.dense();
    assert_eq!(
        node.map(|n| bitset(&n)),
        expected_bitset(&keys),
        "node {prefix:?}"
    );
    if let Some(node) = node {
        assert_eq!(members(&node), keys, "node {prefix:?}");
        for &k in &keys {
            let (mut placed, mut sought) = (it.clone(), it.clone());
            assert_eq!(placed.place(&node, k), Some(k), "node {prefix:?} key {k}");
            assert_eq!(sought.seek(k), Some(k));
            assert_eq!(
                placed.remaining(),
                sought.remaining(),
                "node {prefix:?} key {k}"
            );
            assert_eq!(placed.open(), sought.open(), "node {prefix:?} key {k}");
        }
        for probe in keys
            .iter()
            .flat_map(|&k| [k.wrapping_sub(1), k.wrapping_add(1)])
        {
            if !keys.contains(&probe) {
                let mut placed = it.clone();
                assert_eq!(
                    placed.place(&node, probe),
                    None,
                    "node {prefix:?} probe {probe}"
                );
                assert_eq!(placed.key(), it.key());
            }
        }
    }
    while let Some(k) = it.key() {
        prefix.push(k);
        if it.open().is_some() {
            check_node(it, rows, prefix);
            it.up();
        }
        prefix.pop();
        it.advance();
    }
}

/// Checks every node's layout under every column permutation.
fn check_layout(arity: usize, tuples: &[(i64, i64, i64)]) {
    let rows: Vec<Vec<i64>> = tuples
        .iter()
        .map(|&(a, b, c)| [a, b, c][..arity].to_vec())
        .collect();
    let rel = MultiRelation::new("R", arity, rows.clone()).unwrap();
    for perm in permutations(arity) {
        let permuted: BTreeSet<Vec<i64>> = rows
            .iter()
            .map(|r| perm.iter().map(|&c| r[c as usize]).collect())
            .collect();
        let trie = TrieIndex::build(&rel, &perm).unwrap();
        let mut it = TrieIter::new(&trie);
        assert!(it.dense().is_none(), "the root has no level open");
        if it.open().is_some() {
            check_node(&mut it, &permuted, &mut Vec::new());
        }
    }
}

/// Maps a raw draw into one of the dense-layout key domains: 0 small,
/// 1 negatives around zero, 2 the 64 keys at either end of `i64`, 3 a
/// dense cluster beside keys a thousand apart.
fn domain_key(domain: u8, raw: i64) -> i64 {
    match domain {
        0 => raw % 8,
        1 => raw % 140 - 70,
        2 if raw % 2 == 0 => i64::MIN + raw % 64,
        2 => i64::MAX - raw % 64,
        _ if raw % 3 == 0 => raw * 1000,
        _ => raw % 16,
    }
}

#[test]
fn dense_layout_at_the_extremes_of_i64() {
    // The two ends of i64 in one node: a span of 2^58 words, sparse.
    check_layout(1, &[(i64::MIN, 0, 0), (i64::MAX, 0, 0)]);
    // Full words at both ends, and a two-key node inside one word.
    let low: Vec<_> = (0..64).map(|k| (i64::MIN + k, 0, 0)).collect();
    let high: Vec<_> = (0..64).map(|k| (i64::MAX - k, 1, 0)).collect();
    check_layout(1, &low);
    check_layout(1, &high);
    check_layout(2, &[low.clone(), high.clone()].concat());
    check_layout(2, &[(5, i64::MIN, 0), (5, i64::MIN + 1, 0), (6, -1, 0)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn dense_nodes_match_their_key_sets(
        arity in 1usize..4,
        domain in 0u8..4,
        raw in proptest::collection::vec((0i64..200, 0i64..200, 0i64..200), 0..48),
    ) {
        let tuples: Vec<_> = raw
            .iter()
            .map(|&(a, b, c)| (domain_key(domain, a), domain_key(domain, b), domain_key(domain, c)))
            .collect();
        check_layout(arity, &tuples);
    }

    #[test]
    fn dense_cursor_matches_the_row_set_model(
        arity in 1usize..4,
        domain in 0u8..4,
        raw in proptest::collection::vec((0i64..200, 0i64..200, 0i64..200), 0..32),
        ops in proptest::collection::vec((0u8..11, 0i64..200), 0..80),
    ) {
        let tuples: Vec<_> = raw
            .iter()
            .map(|&(a, b, c)| (domain_key(domain, a), domain_key(domain, b), domain_key(domain, c)))
            .collect();
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(code, arg)| op((code, domain_key(domain, arg))))
            .collect();
        check(arity, &tuples, &ops);
    }

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
