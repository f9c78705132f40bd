//! Sorted trie indexes over multi-column relations, with the
//! seek/next iterator interface of Veldhuizen's Leapfrog Triejoin
//! (PAPERS.md \[LFTJ\]).
//!
//! A [`MultiRelation`] is a set-semantics relation of fixed arity over
//! `i64` keys, stored as one flat row-major buffer of sorted, distinct
//! rows. A [`TrieIndex`] materializes it under a column permutation as
//! an array (CSR) trie: level `d` holds the distinct values of permuted
//! column `d` of every node at that depth, concatenated in sorted order,
//! and two offset arrays beside them — each key's child range in level
//! `d + 1` and each key's first row. A [`TrieIter`] walks it with
//! `open` / `up` / `key` / `advance` / `seek`: `open` is one child-range
//! lookup and `advance` one step, both `O(1)`; `seek` binary-searches
//! the distinct keys left in the current node, `O(log k)` for `k` keys.
//! [`TrieIter::remaining`] reads the row offsets, so it counts rows, not
//! keys — the generic-join pivot metric. No per-node allocation.
//!
//! A node (the keys under one parent key, or the whole root level) has a
//! second layout when it is dense. Its bitset covers the 64-key words
//! `first.div_euclid(64) ..= last.div_euclid(64)`, aligned on multiples
//! of 64 so that any two nodes' words line up, and the node is dense
//! when that span is strictly fewer words than it has keys. The rule
//! reads only the data: there is no threshold to tune. A dense node
//! keeps its sorted keys too, so `seek`/`advance` work on every node;
//! beside them it stores the words and, per word, the index in the
//! level's keys of the word's first key. [`TrieIter::dense`] exposes the
//! bitset and [`TrieIter::place`] positions on a member key in `O(1)`:
//! that rank plus the popcount of the bits below the key. A level with
//! no dense node stores nothing extra.
//!
//! Everything here is panic-free (clippy denies panic sites in this
//! module outside tests): out-of-contract calls return `None` or an
//! [`RelalgError`], never abort, because the multiway join planner
//! feeds these iterators from untrusted CLI workloads.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::missing_panics_doc
    )
)]

use crate::error::RelalgError;

/// A fixed-arity relation over `i64` keys with set semantics: rows are
/// sorted lexicographically and deduplicated at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRelation {
    name: String,
    arity: usize,
    /// Row-major tuple store, `len() * arity` keys, sorted + deduped.
    data: Vec<i64>,
}

impl MultiRelation {
    /// Builds a relation from tuples, sorting and deduplicating.
    ///
    /// # Errors
    /// [`RelalgError::ArityMismatch`] if any tuple's length differs
    /// from `arity`. Arity 0 is accepted and yields an empty relation
    /// (a zero-column tuple carries no information).
    pub fn new(
        name: impl Into<String>,
        arity: usize,
        tuples: impl IntoIterator<Item = Vec<i64>>,
    ) -> Result<Self, RelalgError> {
        let name = name.into();
        let tuples = tuples.into_iter();
        let mut data = Vec::with_capacity(tuples.size_hint().0.saturating_mul(arity));
        for t in tuples {
            if t.len() != arity {
                return Err(RelalgError::ArityMismatch {
                    relation: name,
                    expected: arity,
                    found: t.len(),
                });
            }
            data.extend_from_slice(&t);
        }
        let data = sorted_distinct_rows(&data, arity);
        Ok(MultiRelation { name, arity, data })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Tuple `row`, or `None` out of range.
    pub fn tuple(&self, row: usize) -> Option<&[i64]> {
        let start = row.checked_mul(self.arity)?;
        let end = start.checked_add(self.arity)?;
        self.data.get(start..end)
    }

    /// All tuples in sorted order.
    pub fn tuples(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks_exact(self.arity.max(1))
    }
}

/// Sorts the fixed-arity rows of a flat row-major buffer
/// lexicographically and drops duplicates. Binary rows (every relation
/// the workloads build) sort as `[i64; 2]` arrays; other arities sort
/// as slices. Arity 0 holds no rows.
fn sorted_distinct_rows(data: &[i64], arity: usize) -> Vec<i64> {
    match arity {
        0 => Vec::new(),
        2 => {
            let mut rows = data.as_chunks::<2>().0.to_vec();
            rows.sort_unstable();
            rows.dedup();
            rows.into_flattened()
        }
        _ => {
            let mut rows: Vec<&[i64]> = data.chunks_exact(arity).collect();
            rows.sort_unstable();
            rows.dedup();
            rows.concat()
        }
    }
}

/// One trie depth in CSR form: the distinct keys of every node at this
/// depth, concatenated, with offsets into the next level and into the
/// rows. Key `i`'s children are `child[i]..child[i + 1]` of the next
/// level's keys, and its rows are `rows[i]..rows[i + 1]`. The deepest
/// level has no children, so its `child` is empty.
///
/// Node `n` of a level is the child node of key `n` of the level above
/// (the root level is node 0). A dense node `n` owns
/// `words[nodes[n]..nodes[n + 1]]`, whose word `i` has bit
/// `k.rem_euclid(64)` set for each of its keys `k` in word number
/// `first.div_euclid(64) + i`, and `rank[j]` is the index in `keys` of
/// word `j`'s first key (of the next key, for an empty word). A sparse
/// node's range is empty, and `nodes` is empty when no node of the level
/// is dense. `dense` counts the dense nodes.
#[derive(Debug, Clone, Default)]
struct TrieLevel {
    keys: Vec<i64>,
    child: Vec<u32>,
    rows: Vec<u32>,
    nodes: Vec<u32>,
    words: Vec<u64>,
    rank: Vec<u32>,
    dense: usize,
}

impl TrieLevel {
    /// Pushes the next child offset: `next` (the level below) ends the
    /// child node of this level's last key so far, if any, and the
    /// child range of the key pushed next starts where `next`'s keys end.
    fn push_child(&mut self, next: &mut TrieLevel) {
        if let (Some(&from), Some(node)) = (self.child.last(), self.keys.len().checked_sub(1)) {
            next.close_node(node, from as usize);
        }
        self.child.push(next.keys.len() as u32);
    }

    /// Ends node `node`, whose keys are `keys[start..]`, storing its
    /// bitset if it is dense: its word span is strictly shorter than its
    /// key count. Word numbers are `k >> 6` (= `k.div_euclid(64)`) and
    /// bit indexes `k & 63` (= `k.rem_euclid(64)`).
    fn close_node(&mut self, node: usize, start: usize) {
        let Some(node_keys) = self.keys.get(start..) else {
            return;
        };
        let (Some(&first), Some(&last)) = (node_keys.first(), node_keys.last()) else {
            return;
        };
        // Both word numbers lie within ±2^57, so the span cannot overflow.
        let span = ((last >> 6) - (first >> 6)) as usize + 1;
        let dense = span < node_keys.len();
        if self.nodes.is_empty() {
            if !dense {
                return;
            }
            // Every node before this one is sparse: empty word ranges.
            self.nodes.resize(node + 1, 0);
        }
        if dense {
            self.dense += 1;
            self.words.reserve(span);
            self.rank.reserve(span);
            // Keys ascend, so each word is built in a register and
            // stored once, with the index of its first key (for an empty
            // word, of the next key) as its rank.
            let (mut word_no, mut word, mut rank) = (first >> 6, 0u64, start as u32);
            for (&k, j) in node_keys.iter().zip(rank..) {
                while word_no < k >> 6 {
                    self.words.push(word);
                    self.rank.push(rank);
                    (word_no, word, rank) = (word_no + 1, 0, j);
                }
                word |= 1 << (k & 63);
            }
            self.words.push(word);
            self.rank.push(rank);
        }
        self.nodes.push(self.words.len() as u32);
    }

    /// The bitset of node `node`, or `None` if that node is sparse.
    fn dense(&self, node: usize) -> Option<DenseNode<'_>> {
        let (&from, &to) = (self.nodes.get(node)?, self.nodes.get(node + 1)?);
        let range = from as usize..to as usize;
        let rank = self.rank.get(range.clone())?;
        let first = self.keys.get(*rank.first()? as usize)?;
        Some(DenseNode {
            base: first >> 6,
            words: self.words.get(range)?,
            rank,
        })
    }
}

/// The bitset of one dense trie node: `words()[i]` has bit
/// `k.rem_euclid(64)` set for each of the node's keys `k` with
/// `k.div_euclid(64) == base() + i`. Word numbers of different nodes
/// line up, so an intersection ANDs the words with equal numbers.
#[derive(Debug, Clone, Copy)]
pub struct DenseNode<'a> {
    base: i64,
    words: &'a [u64],
    rank: &'a [u32],
}

impl<'a> DenseNode<'a> {
    /// The word number (`key.div_euclid(64)`) of the first word.
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The node's bitset words, first word at [`base`](DenseNode::base).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

/// A trie view of a [`MultiRelation`] under a column permutation:
/// rows re-ordered column-wise by `perm`, sorted lexicographically, and
/// stored one [`TrieLevel`] per permuted column.
#[derive(Debug, Clone)]
pub struct TrieIndex {
    rows: usize,
    levels: Vec<TrieLevel>,
}

impl TrieIndex {
    /// Materializes the trie for `rel` with trie level `d` reading
    /// column `perm[d]` of the original relation. The identity
    /// permutation reads the relation's rows, already sorted, in place;
    /// any other permutes them into one flat buffer and sorts that.
    ///
    /// # Errors
    /// [`RelalgError::Internal`] if `perm` is not a permutation of
    /// `0..arity` (planner bug, not user input);
    /// [`RelalgError::TooManyTuples`] if the row offsets would not fit
    /// in `u32`.
    pub fn build(rel: &MultiRelation, perm: &[u32]) -> Result<Self, RelalgError> {
        let arity = rel.arity();
        let mut seen = vec![false; arity];
        if perm.len() != arity {
            return Err(RelalgError::Internal("trie permutation has wrong length"));
        }
        for &c in perm {
            match seen.get_mut(c as usize) {
                Some(s) if !*s => *s = true,
                _ => return Err(RelalgError::Internal("trie permutation is not a bijection")),
            }
        }
        if u32::try_from(rel.len()).is_err() {
            return Err(RelalgError::TooManyTuples {
                relation: rel.name().to_string(),
                len: rel.len(),
            });
        }
        if perm.iter().zip(0u32..).all(|(&c, d)| c == d) {
            return Ok(Self::from_sorted(&rel.data, arity));
        }
        let mut data = Vec::with_capacity(rel.data.len());
        for t in rel.tuples() {
            data.extend(perm.iter().filter_map(|&c| t.get(c as usize).copied()));
        }
        let data = sorted_distinct_rows(&data, arity);
        Ok(Self::from_sorted(&data, arity))
    }

    /// One pass over the sorted, distinct rows of a flat row-major
    /// buffer: a row whose first difference from its predecessor is at
    /// column `c` starts a new key at every level from `c` down. A new
    /// key at a level with children ends its predecessor's child node,
    /// which is when that node's layout is chosen. Callers guarantee the
    /// row count fits in `u32`.
    fn from_sorted(data: &[i64], arity: usize) -> Self {
        let rows = data.chunks_exact(arity.max(1));
        let mut levels = vec![TrieLevel::default(); arity];
        // Every row is one key of the deepest level.
        if let Some(leaf) = levels.last_mut() {
            leaf.keys.reserve_exact(rows.len());
            leaf.rows.reserve_exact(rows.len() + 1);
        }
        let mut prev: Option<&[i64]> = None;
        let mut n: u32 = 0;
        for row in rows {
            let first = prev.map_or(0, |p| {
                p.iter().zip(row).position(|(a, b)| a != b).unwrap_or(arity)
            });
            for d in first..arity {
                let Some((level, below)) = levels.get_mut(d..).and_then(|l| l.split_first_mut())
                else {
                    break;
                };
                let Some(&k) = row.get(d) else {
                    break;
                };
                if let Some(next) = below.first_mut() {
                    level.push_child(next);
                }
                level.keys.push(k);
                level.rows.push(n);
            }
            n += 1;
            prev = Some(row);
        }
        if let Some(root) = levels.first_mut() {
            root.close_node(0, 0);
        }
        for d in 0..arity {
            let Some((level, below)) = levels.get_mut(d..).and_then(|l| l.split_first_mut()) else {
                break;
            };
            if let Some(next) = below.first_mut() {
                level.push_child(next);
            }
            level.rows.push(n);
        }
        TrieIndex {
            rows: n as usize,
            levels,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Trie depth (the relation's arity).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The share of the nodes at trie level `depth` that are stored
    /// dense (see [`TrieIter::dense`]): 0 when none is, or past the last
    /// level.
    pub(crate) fn dense_share(&self, depth: usize) -> f64 {
        let nodes = match depth.checked_sub(1) {
            Some(up) => self.levels.get(up).map_or(0, |l| l.keys.len()),
            None => 1,
        };
        match self.levels.get(depth) {
            Some(level) if nodes > 0 => level.dense as f64 / nodes as f64,
            _ => 0.0,
        }
    }
}

/// One open trie level: the cursor position and the end of the key
/// range of the node the cursor entered (the iterators only ever move
/// forward, so the start is not kept). Positions index `level.keys`.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    level: &'a TrieLevel,
    pos: usize,
    hi: usize,
}

impl Cursor<'_> {
    fn key(&self) -> Option<i64> {
        if self.pos >= self.hi {
            return None;
        }
        self.level.keys.get(self.pos).copied()
    }
}

/// A cursor over a [`TrieIndex`], one level per trie depth.
///
/// At depth `d` (after `d` calls to [`open`](TrieIter::open)), the
/// cursor enumerates the distinct values of permuted column `d-1`
/// within the rows matching the keys selected at shallower levels.
/// `advance` moves to the next distinct value, `seek` leapfrogs to the
/// first value ≥ a target; both return the new key or `None` when the
/// level is exhausted.
#[derive(Debug, Clone)]
pub struct TrieIter<'a> {
    trie: &'a TrieIndex,
    levels: Vec<Cursor<'a>>,
}

impl<'a> TrieIter<'a> {
    /// A cursor at the trie root (no level open).
    pub fn new(trie: &'a TrieIndex) -> Self {
        TrieIter {
            trie,
            levels: Vec::with_capacity(trie.depth()),
        }
    }

    /// Current depth (number of open levels).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Descends one level, positioning on its first key. Returns that
    /// key, or `None` if the trie is already at full depth or the new
    /// level is empty (in which case no level is opened).
    pub fn open(&mut self) -> Option<i64> {
        let level = self.trie.levels.get(self.levels.len())?;
        let (lo, hi) = match self.levels.last() {
            // Child range of the current key at the parent level.
            Some(parent) => {
                if parent.pos >= parent.hi {
                    return None; // parent level exhausted; nothing below
                }
                let child = &parent.level.child;
                (
                    *child.get(parent.pos)? as usize,
                    *child.get(parent.pos + 1)? as usize,
                )
            }
            None => (0, level.keys.len()),
        };
        let cursor = Cursor { level, pos: lo, hi };
        let key = cursor.key()?;
        self.levels.push(cursor);
        Some(key)
    }

    /// Ascends one level. No-op at the root.
    pub fn up(&mut self) {
        self.levels.pop();
    }

    /// Rows remaining in the current level's range (an upper bound on
    /// the distinct keys still ahead) — the generic-join pivot metric.
    /// Zero at the root.
    pub fn remaining(&self) -> usize {
        self.levels.last().map_or(0, |c| {
            let rows = &c.level.rows;
            match (rows.get(c.pos), rows.get(c.hi)) {
                (Some(&from), Some(&to)) => to.saturating_sub(from) as usize,
                _ => 0,
            }
        })
    }

    /// The key at the current level, or `None` at the root / past the
    /// end.
    pub fn key(&self) -> Option<i64> {
        self.levels.last()?.key()
    }

    /// Moves to the next distinct key at the current level. Returns it,
    /// or `None` when the level is exhausted.
    pub fn advance(&mut self) -> Option<i64> {
        let c = self.levels.last_mut()?;
        if c.pos >= c.hi {
            return None;
        }
        c.pos += 1;
        c.key()
    }

    /// Leapfrogs to the first key ≥ `v` at the current level. Returns
    /// it, or `None` when no such key exists. Seeking backwards is a
    /// no-op (the cursor only moves forward).
    pub fn seek(&mut self, v: i64) -> Option<i64> {
        let c = self.levels.last_mut()?;
        let ahead = c.level.keys.get(c.pos..c.hi)?;
        c.pos += ahead.partition_point(|&k| k < v);
        c.key()
    }

    /// The bitset of the node the current level walks, or `None` at the
    /// root or when that node is stored sparse. The node is the child
    /// node of the parent level's current key (node 0 at the first
    /// level), so the cursor needs no field of its own for it.
    pub fn dense(&self) -> Option<DenseNode<'a>> {
        let c = self.levels.last()?;
        let node = match self.levels.len().checked_sub(2) {
            Some(parent) => self.levels.get(parent)?.pos,
            None => 0,
        };
        let level: &'a TrieLevel = c.level;
        level.dense(node)
    }

    /// Positions the current level on `key` in `O(1)`: the rank of its
    /// word in `node`, which must be what [`dense`](TrieIter::dense)
    /// returned for this level, plus the popcount of the bits below it.
    /// Lands where a fresh `seek(key)` would. Returns `key`, or `None`
    /// with the cursor unmoved when `key` is not in the node.
    pub fn place(&mut self, node: &DenseNode<'_>, key: i64) -> Option<i64> {
        let i = usize::try_from((key >> 6).checked_sub(node.base)?).ok()?;
        let (&word, &rank) = (node.words.get(i)?, node.rank.get(i)?);
        let bit = 1u64 << (key & 63);
        if word & bit == 0 {
            return None;
        }
        let pos = rank as usize + (word & (bit - 1)).count_ones() as usize;
        let c = self.levels.last_mut()?;
        if pos >= c.hi || c.level.keys.get(pos) != Some(&key) {
            return None;
        }
        c.pos = pos;
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(tuples: &[&[i64]]) -> MultiRelation {
        MultiRelation::new(
            "R",
            tuples.first().map_or(2, |t| t.len()),
            tuples.iter().map(|t| t.to_vec()),
        )
        .unwrap()
    }

    #[test]
    fn multi_relation_sorts_and_dedups() {
        let r = rel(&[&[3, 1], &[1, 2], &[3, 1], &[1, 1]]);
        let rows: Vec<&[i64]> = r.tuples().collect();
        assert_eq!(rows, vec![&[1i64, 1][..], &[1, 2], &[3, 1]]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuple(2), Some(&[3i64, 1][..]));
        assert_eq!(r.tuple(3), None);
    }

    #[test]
    fn arity_mismatch_is_classified() {
        let e = MultiRelation::new("R", 2, vec![vec![1, 2], vec![1]]);
        assert!(matches!(e, Err(RelalgError::ArityMismatch { .. })));
    }

    #[test]
    fn permuted_trie_reorders_columns() {
        let r = rel(&[&[1, 10], &[2, 5], &[2, 7]]);
        let t = TrieIndex::build(&r, &[1, 0]).unwrap();
        // sorted by (col1, col0): (5,2), (7,2), (10,1)
        let mut it = TrieIter::new(&t);
        assert_eq!(it.open(), Some(5));
        assert_eq!(it.advance(), Some(7));
        assert_eq!(it.advance(), Some(10));
        assert_eq!(it.advance(), None);
    }

    #[test]
    fn bad_permutation_is_internal_error() {
        let r = rel(&[&[1, 2]]);
        assert!(TrieIndex::build(&r, &[0]).is_err());
        assert!(TrieIndex::build(&r, &[0, 0]).is_err());
        assert!(TrieIndex::build(&r, &[0, 2]).is_err());
    }

    #[test]
    fn open_up_walks_groups() {
        let r = rel(&[&[1, 10], &[1, 20], &[2, 30]]);
        let t = TrieIndex::build(&r, &[0, 1]).unwrap();
        let mut it = TrieIter::new(&t);
        assert_eq!(it.open(), Some(1));
        assert_eq!(it.open(), Some(10));
        assert_eq!(it.advance(), Some(20));
        assert_eq!(it.advance(), None);
        it.up();
        assert_eq!(it.advance(), Some(2));
        assert_eq!(it.open(), Some(30));
        assert_eq!(it.advance(), None);
        it.up();
        assert_eq!(it.advance(), None);
    }

    #[test]
    fn seek_leapfrogs_forward_only() {
        let r = rel(&[&[1, 0], &[3, 0], &[5, 0], &[9, 0]]);
        let t = TrieIndex::build(&r, &[0, 1]).unwrap();
        let mut it = TrieIter::new(&t);
        assert_eq!(it.open(), Some(1));
        assert_eq!(it.seek(4), Some(5));
        // backward seek does not rewind
        assert_eq!(it.seek(2), Some(5));
        assert_eq!(it.seek(6), Some(9));
        assert_eq!(it.seek(10), None);
        assert_eq!(it.key(), None);
    }

    #[test]
    fn degenerate_relations() {
        // empty
        let r = MultiRelation::new("R", 2, Vec::<Vec<i64>>::new()).unwrap();
        assert!(r.is_empty());
        let t = TrieIndex::build(&r, &[0, 1]).unwrap();
        let mut it = TrieIter::new(&t);
        assert_eq!(it.open(), None);
        assert_eq!(it.depth(), 0);
        // single tuple
        let r = rel(&[&[7, 8]]);
        let t = TrieIndex::build(&r, &[0, 1]).unwrap();
        let mut it = TrieIter::new(&t);
        assert_eq!(it.open(), Some(7));
        assert_eq!(it.open(), Some(8));
        assert_eq!(it.open(), None, "already at full depth");
        // all-duplicate rows collapse under set semantics
        let r = rel(&[&[4, 4], &[4, 4], &[4, 4]]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn key_reflects_cursor() {
        let r = rel(&[&[2, 1], &[2, 9], &[6, 3]]);
        let t = TrieIndex::build(&r, &[0, 1]).unwrap();
        let mut it = TrieIter::new(&t);
        assert_eq!(it.key(), None, "root has no key");
        it.open();
        assert_eq!(it.key(), Some(2));
        it.open();
        assert_eq!(it.key(), Some(1));
        it.up();
        it.advance();
        assert_eq!(it.key(), Some(6));
    }
}
