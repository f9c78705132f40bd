//! Worst-case-optimal multiway joins over trie indexes.
//!
//! Two algorithms over the shared variable-ordering plan of a
//! [`ConjunctiveQuery`]:
//!
//! * **Leapfrog Triejoin** (Veldhuizen 2012): at each variable, the
//!   participating atoms' trie iterators leapfrog — every iterator
//!   repeatedly seeks to the current maximum key — so each level is a
//!   sorted-list intersection whose cost tracks the smallest list.
//! * **Generic join** (Ngo–Porat–Ré–Rudra 2012): at each variable the
//!   smallest participating iterator enumerates candidates and the
//!   others are probed by seek — the textbook form whose runtime is
//!   bounded by the AGM fractional-cover output bound.
//!
//! Both share one intersection step. When every participant's freshly
//! opened trie node is stored as a bitset (see [`crate::trie`]), it ANDs
//! their aligned words and positions every participant on each set bit
//! by rank and popcount: an intersection linear in the smallest word
//! span, which keeps generic join's AGM guarantee. Otherwise, including
//! on a level mixing dense and sparse nodes, the algorithm's own seeks
//! run. Which plan levels can be all dense at all is decided once per
//! plan from the tries, so a level with a sparse-only participant never
//! checks, and the others check the participant least often dense
//! first.
//!
//! Both are compared against [`MultiwayAlgo::Cascade`], the binary
//! nested-loops join tree that materializes every intermediate result —
//! the baseline whose intermediate-tuple blowup on skewed instances is
//! exactly what worst-case optimality eliminates (experiment E23).
//!
//! Work counters are deterministic and surface through jp-obs
//! (`wcoj.seek`, `wcoj.words`, `wcoj.emit`, `wcoj.intermediate`), so
//! `jp trace check` gates them against the committed baseline. This
//! module denies clippy's panic lints outside tests: all cursor access
//! is checked, and planner invariant breaks surface as
//! [`RelalgError::Internal`].
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
use crate::query::ConjunctiveQuery;
use crate::trie::{DenseNode, MultiRelation, TrieIndex, TrieIter};
use jp_graph::BipartiteGraph;
use std::collections::HashMap;

/// Which multiway algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiwayAlgo {
    /// Leapfrog Triejoin.
    Lftj,
    /// Generic join (smallest-relation candidate enumeration).
    Generic,
    /// Binary nested-loops cascade (the non-worst-case-optimal
    /// baseline; materializes every intermediate result).
    Cascade,
}

impl MultiwayAlgo {
    /// Short name, used in bench case labels and CLI output.
    // audit:allow(obs-coverage) constant label accessor, not a solver entrypoint
    pub fn name(self) -> &'static str {
        match self {
            MultiwayAlgo::Lftj => "lftj",
            MultiwayAlgo::Generic => "generic",
            MultiwayAlgo::Cascade => "cascade",
        }
    }
}

impl std::str::FromStr for MultiwayAlgo {
    type Err = RelalgError;

    fn from_str(s: &str) -> Result<Self, RelalgError> {
        match s {
            "lftj" => Ok(MultiwayAlgo::Lftj),
            "generic" => Ok(MultiwayAlgo::Generic),
            "cascade" => Ok(MultiwayAlgo::Cascade),
            other => Err(RelalgError::UnknownAlgorithm {
                name: other.to_string(),
            }),
        }
    }
}

/// Deterministic work counters for one multiway execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiwayStats {
    /// Cursor movements: `open`/`advance`/`seek` calls (and, for the
    /// cascade, tuple-pair comparisons — its analogue of a probe).
    /// Beyond the `open`s, these happen on sparse and mixed levels only.
    pub seeks: u64,
    /// Bitset words ANDed: one per aligned word position an all-dense
    /// level intersects, whatever the number of participants.
    pub words: u64,
    /// Output rows emitted.
    pub emits: u64,
    /// Intermediate tuples: partial bindings at non-final levels for
    /// the trie algorithms; materialized intermediate-result rows for
    /// the cascade. The quantity worst-case optimality bounds.
    pub intermediate: u64,
}

/// The result of a multiway join: output rows in the plan's variable
/// order, plus the certified AGM bound and the work counters.
#[derive(Debug, Clone)]
pub struct MultiwayOutput {
    /// Output rows; `rows[i][d]` binds variable `order[d]`. Sorted.
    pub rows: Vec<Vec<i64>>,
    /// The shared variable ordering the plan bound, most-constrained
    /// variable first.
    pub order: Vec<u32>,
    /// The AGM bound `∏ |R_i|^{w_i}` for this instance; `rows.len()`
    /// never exceeds it.
    pub agm_bound: f64,
    /// Deterministic work counters.
    pub stats: MultiwayStats,
}

/// One atom of an explained plan: where it sits in the trie-join and
/// what the fractional cover charges it.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomExplain {
    /// Index into the relation slice.
    pub relation: usize,
    /// Variables bound by the atom's columns, in column order.
    pub vars: Vec<u32>,
    /// The atom's fractional-edge-cover weight `w_i`.
    pub weight: f64,
    /// Cardinality of the backing relation.
    pub rows: usize,
    /// The atom's variables permuted into global binding order — the
    /// key order of the trie index built for it.
    pub key_order: Vec<u32>,
}

/// The compiled plan in explainable form: what `jp explain` renders
/// and annotates with observed counters. Everything here is decided
/// before the first tuple is touched.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// The shared variable ordering, most-constrained variable first.
    pub order: Vec<u32>,
    /// Per atom: position, cover weight, cardinality, trie key order.
    pub atoms: Vec<AtomExplain>,
    /// `levels[d]` = indices of atoms participating in the
    /// intersection at binding level `d` (the atoms containing
    /// variable `order[d]`).
    pub levels: Vec<Vec<usize>>,
    /// The AGM output bound `∏ |R_i|^{w_i}` for this instance.
    pub agm_bound: f64,
}

/// Explains the plan [`solve`] would run for `(q, rels)` without
/// executing it: variable ordering, per-atom trie key orders, level
/// membership, cover weights, and the certified AGM bound.
///
/// # Errors
/// The same validation failures as [`solve`]:
/// [`RelalgError::UnknownRelation`] / [`RelalgError::ArityMismatch`].
// audit:allow(obs-coverage) pure planning metadata — the paired solve() run carries the wcoj spans and counters
pub fn explain_plan(
    q: &ConjunctiveQuery,
    rels: &[MultiRelation],
) -> Result<PlanExplain, RelalgError> {
    q.check_relations(rels)?;
    let order = q.variable_order();
    let rank: HashMap<u32, usize> = order.iter().enumerate().map(|(d, &v)| (v, d)).collect();
    let sizes: Vec<usize> = rels.iter().map(MultiRelation::len).collect();
    let atoms = q
        .atoms()
        .iter()
        .zip(q.cover())
        .map(|(atom, &weight)| {
            let mut key_order = atom.vars.clone();
            key_order.sort_by_key(|v| rank.get(v).copied().unwrap_or(usize::MAX));
            AtomExplain {
                relation: atom.relation,
                vars: atom.vars.clone(),
                weight,
                rows: sizes.get(atom.relation).copied().unwrap_or(0),
                key_order,
            }
        })
        .collect();
    let levels = order
        .iter()
        .map(|v| {
            q.atoms()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.vars.contains(v))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    Ok(PlanExplain {
        agm_bound: q.agm_bound(&sizes),
        order,
        atoms,
        levels,
    })
}

/// The compiled plan: variable order, per-level participating atoms,
/// and one trie index per atom with columns permuted into order rank.
struct Plan {
    order: Vec<u32>,
    /// `levels[d]` = indices of atoms containing variable `order[d]`.
    levels: Vec<Vec<usize>>,
    /// `dense[d]`: level `d`'s participants in the order the word-AND
    /// path checks their nodes, the trie level with the smallest share
    /// of dense nodes first, so a level that turns out mixed is usually
    /// rejected by its first check. Empty when some participant's trie
    /// level has no dense node, so the level never checks.
    dense: Vec<Vec<usize>>,
    tries: Vec<TrieIndex>,
}

fn compile(q: &ConjunctiveQuery, rels: &[MultiRelation]) -> Result<Plan, RelalgError> {
    q.check_relations(rels)?;
    let order = q.variable_order();
    let rank: HashMap<u32, usize> = order.iter().enumerate().map(|(d, &v)| (v, d)).collect();
    let mut tries = Vec::with_capacity(q.atoms().len());
    for atom in q.atoms() {
        let Some(rel) = rels.get(atom.relation) else {
            return Err(RelalgError::Internal("atom relation vanished after check"));
        };
        // Column permutation: the atom's columns sorted by global rank.
        let mut cols: Vec<u32> = (0..atom.vars.len() as u32).collect();
        cols.sort_by_key(|&c| {
            atom.vars
                .get(c as usize)
                .and_then(|v| rank.get(v))
                .copied()
                .unwrap_or(usize::MAX)
        });
        tries.push(TrieIndex::build(rel, &cols)?);
    }
    let levels: Vec<Vec<usize>> = order
        .iter()
        .map(|v| {
            q.atoms()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.vars.contains(v))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    // Each atom opens its trie levels in plan order, one per plan level
    // it takes part in.
    let mut opened = vec![0usize; tries.len()];
    let dense = levels
        .iter()
        .map(|parts| {
            let mut shares = Vec::with_capacity(parts.len());
            for &a in parts {
                if let (Some(depth), Some(trie)) = (opened.get_mut(a), tries.get(a)) {
                    shares.push((trie.dense_share(*depth), a));
                    *depth += 1;
                }
            }
            if shares.len() < parts.len() || shares.iter().any(|&(share, _)| share == 0.0) {
                return Vec::new();
            }
            shares.sort_by(|x, y| x.0.total_cmp(&y.0));
            shares.into_iter().map(|(_, a)| a).collect()
        })
        .collect();
    Ok(Plan {
        order,
        levels,
        dense,
        tries,
    })
}

/// The recursive trie-join engine shared by LFTJ and generic join;
/// only the per-level intersection strategy differs.
struct Engine<'a> {
    plan: &'a Plan,
    iters: Vec<TrieIter<'a>>,
    /// The bitsets of the all-dense levels being intersected, a stack
    /// of one slice per level, so recursion allocates nothing.
    nodes: Vec<DenseNode<'a>>,
    binding: Vec<i64>,
    rows: Vec<Vec<i64>>,
    stats: MultiwayStats,
    generic: bool,
}

impl<'a> Engine<'a> {
    fn new(plan: &'a Plan, generic: bool) -> Self {
        Engine {
            plan,
            iters: plan.tries.iter().map(TrieIter::new).collect(),
            nodes: Vec::new(),
            binding: vec![0; plan.order.len()],
            rows: Vec::new(),
            stats: MultiwayStats::default(),
            generic,
        }
    }

    /// Opens every participant of level `d` (one seek each, stopping at
    /// the first whose node is empty), runs `body` over the participants
    /// if all of them opened, and `up`s the opened ones on the way out.
    /// A level with an empty participant yields `empty`.
    fn within_level<T>(
        &mut self,
        d: usize,
        empty: T,
        body: impl FnOnce(&mut Self, &'a [usize]) -> Result<T, RelalgError>,
    ) -> Result<T, RelalgError> {
        let plan = self.plan;
        let Some(parts) = plan.levels.get(d) else {
            return Err(RelalgError::Internal("join level out of plan range"));
        };
        let mut opened = 0;
        for &a in parts {
            self.stats.seeks += 1;
            let Some(it) = self.iters.get_mut(a) else {
                return Err(RelalgError::Internal("plan references missing iterator"));
            };
            if it.open().is_none() {
                break;
            }
            opened += 1;
        }
        let out = if opened == parts.len() {
            body(self, parts)
        } else {
            Ok(empty)
        };
        for &a in parts.iter().take(opened) {
            if let Some(it) = self.iters.get_mut(a) {
                it.up();
            }
        }
        out
    }

    /// Opens the participating iterators at level `d`, intersects, and
    /// restores the iterators on the way out.
    fn enter(&mut self, d: usize) -> Result<(), RelalgError> {
        let generic = self.generic;
        self.within_level(d, (), |eng, parts| {
            eng.intersect(d, parts, generic, |eng, key| eng.on_match(d, key))
        })
    }

    /// Intersects the freshly opened participants of level `d`: `on_key`
    /// gets each common key in ascending order, with every participant
    /// positioned on it. An all-dense level ANDs bitsets; any other runs
    /// generic join's probes if `generic`, else leapfrog.
    fn intersect(
        &mut self,
        d: usize,
        parts: &[usize],
        generic: bool,
        mut on_key: impl FnMut(&mut Self, i64) -> Result<(), RelalgError>,
    ) -> Result<(), RelalgError> {
        let plan = self.plan;
        let order = plan.dense.get(d).map(Vec::as_slice).unwrap_or_default();
        if !order.is_empty() && self.and_dense(order, &mut on_key)? {
            Ok(())
        } else if generic {
            self.intersect_generic(parts, on_key)
        } else {
            self.leapfrog(parts, on_key)
        }
    }

    /// The word-AND intersection, if every participant's current node is
    /// dense; returns whether it ran. Word numbers are aligned across
    /// nodes, so only the overlapping span is ANDed.
    fn and_dense(
        &mut self,
        parts: &[usize],
        on_key: &mut impl FnMut(&mut Self, i64) -> Result<(), RelalgError>,
    ) -> Result<bool, RelalgError> {
        let mark = self.nodes.len();
        for &a in parts {
            match self.iters.get(a).and_then(TrieIter::dense) {
                Some(node) => self.nodes.push(node),
                None => {
                    self.nodes.truncate(mark);
                    return Ok(false);
                }
            }
        }
        let level = self.nodes.get(mark..).unwrap_or_default();
        let from = level.iter().map(DenseNode::base).max().unwrap_or(0);
        let to = level
            .iter()
            .map(|n| n.base() + n.words().len() as i64)
            .min()
            .unwrap_or(0);
        for w in from..to {
            let mut word = u64::MAX;
            for n in self.nodes.get(mark..).unwrap_or_default() {
                let i = (w - n.base()) as usize;
                word &= n.words().get(i).copied().unwrap_or(0);
            }
            self.stats.words += 1;
            while word != 0 {
                // `w` is a word number, so shifting it back cannot lose
                // bits of a key.
                let key = (w << 6) | i64::from(word.trailing_zeros());
                word &= word - 1;
                for (i, &a) in parts.iter().enumerate() {
                    let (Some(node), Some(it)) = (self.nodes.get(mark + i), self.iters.get_mut(a))
                    else {
                        return Err(RelalgError::Internal("dense level lost a participant"));
                    };
                    if it.place(node, key).is_none() {
                        return Err(RelalgError::Internal("dense node lost a member key"));
                    }
                }
                on_key(self, key)?;
            }
        }
        self.nodes.truncate(mark);
        Ok(true)
    }

    /// A key matched at level `d` by every participant: emit or recurse.
    fn on_match(&mut self, d: usize, key: i64) -> Result<(), RelalgError> {
        let Some(slot) = self.binding.get_mut(d) else {
            return Err(RelalgError::Internal("binding slot out of range"));
        };
        *slot = key;
        if d + 1 == self.plan.order.len() {
            self.stats.emits += 1;
            self.rows.push(self.binding.clone());
            Ok(())
        } else {
            self.stats.intermediate += 1;
            self.enter(d + 1)
        }
    }

    /// Leapfrog intersection: every participant repeatedly seeks to the
    /// running maximum until all keys agree; `on_key` gets each agreed
    /// key in ascending order.
    fn leapfrog(
        &mut self,
        parts: &[usize],
        mut on_key: impl FnMut(&mut Self, i64) -> Result<(), RelalgError>,
    ) -> Result<(), RelalgError> {
        loop {
            let mut hi = i64::MIN;
            let mut all_eq = true;
            let mut first = true;
            for &a in parts {
                let Some(k) = self.iters.get(a).and_then(TrieIter::key) else {
                    return Ok(()); // a participant is exhausted
                };
                if first {
                    hi = k;
                    first = false;
                } else if k != hi {
                    all_eq = false;
                    hi = hi.max(k);
                }
            }
            if first {
                return Err(RelalgError::Internal("level with no participants"));
            }
            if all_eq {
                on_key(self, hi)?;
                let Some(&a0) = parts.first() else {
                    return Ok(());
                };
                self.stats.seeks += 1;
                if self.iters.get_mut(a0).and_then(TrieIter::advance).is_none() {
                    return Ok(());
                }
            } else {
                for &a in parts {
                    let Some(it) = self.iters.get_mut(a) else {
                        return Err(RelalgError::Internal("plan references missing iterator"));
                    };
                    if it.key().is_some_and(|k| k < hi) {
                        self.stats.seeks += 1;
                        if it.seek(hi).is_none() {
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    /// Generic-join intersection: the participant with the fewest
    /// remaining rows enumerates candidates; the others are probed.
    fn intersect_generic(
        &mut self,
        parts: &[usize],
        mut on_key: impl FnMut(&mut Self, i64) -> Result<(), RelalgError>,
    ) -> Result<(), RelalgError> {
        let pivot = parts
            .iter()
            .copied()
            .min_by_key(|&a| self.iters.get(a).map_or(usize::MAX, TrieIter::remaining));
        let Some(pivot) = pivot else {
            return Err(RelalgError::Internal("level with no participants"));
        };
        loop {
            let Some(k) = self.iters.get(pivot).and_then(TrieIter::key) else {
                return Ok(()); // pivot exhausted
            };
            let mut present = true;
            for &a in parts {
                if a == pivot {
                    continue;
                }
                let Some(it) = self.iters.get_mut(a) else {
                    return Err(RelalgError::Internal("plan references missing iterator"));
                };
                self.stats.seeks += 1;
                // Probes are forward-only and pivot keys ascend, so a
                // plain lower-bound seek is sound.
                if it.seek(k) != Some(k) {
                    present = false;
                    break;
                }
            }
            if present {
                on_key(self, k)?;
            }
            self.stats.seeks += 1;
            if self
                .iters
                .get_mut(pivot)
                .and_then(TrieIter::advance)
                .is_none()
            {
                return Ok(());
            }
        }
    }

    /// Runs the engine restricted to the given level-0 keys (the
    /// parallel path: each worker gets a chunk of the root candidates).
    fn run_restricted(&mut self, keys: &[i64]) -> Result<(), RelalgError> {
        self.within_level(0, (), |eng, parts| {
            'keys: for &k in keys {
                for &a in parts {
                    let Some(it) = eng.iters.get_mut(a) else {
                        return Err(RelalgError::Internal("plan references missing iterator"));
                    };
                    eng.stats.seeks += 1;
                    if it.seek(k) != Some(k) {
                        // The key list came from a prior root
                        // intersection; a miss means the chunk is past
                        // this iterator's range.
                        continue 'keys;
                    }
                }
                eng.on_match(0, k)?;
            }
            Ok(())
        })
    }

    /// Collects the root-level candidate keys (the intersection of
    /// level-0 participants, by word AND or leapfrog) without recursing.
    fn root_keys(&mut self) -> Result<Vec<i64>, RelalgError> {
        self.within_level(0, Vec::new(), |eng, parts| {
            let mut keys = Vec::new();
            eng.intersect(0, parts, false, |_, key| {
                keys.push(key);
                Ok(())
            })?;
            Ok(keys)
        })
    }
}

/// Executes a multiway join.
///
/// `threads > 1` splits the root-level candidate keys over the `jp-par`
/// work-stealing runtime (trie algorithms only; the cascade baseline is
/// sequential). Output rows are sorted, so the result is byte-identical
/// for every thread count, and the work counters are sums over a fixed
/// partition — deterministic as well.
///
/// # Errors
/// Query/relation mismatches ([`RelalgError::UnknownRelation`],
/// [`RelalgError::ArityMismatch`]) and planner invariant violations
/// ([`RelalgError::Internal`]).
pub fn solve(
    q: &ConjunctiveQuery,
    rels: &[MultiRelation],
    algo: MultiwayAlgo,
    threads: usize,
) -> Result<MultiwayOutput, RelalgError> {
    let _span = jp_obs::span("wcoj", algo.name());
    let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Relalg);
    let plan = compile(q, rels)?;
    let sizes: Vec<usize> = rels.iter().map(MultiRelation::len).collect();
    let agm_bound = q.agm_bound(&sizes);
    let (mut rows, stats) = match algo {
        MultiwayAlgo::Cascade => cascade(q, rels, &plan.order)?,
        MultiwayAlgo::Lftj | MultiwayAlgo::Generic => {
            let generic = algo == MultiwayAlgo::Generic;
            if threads <= 1 {
                let mut eng = Engine::new(&plan, generic);
                eng.enter(0)?;
                (eng.rows, eng.stats)
            } else {
                solve_parallel(&plan, generic, threads)?
            }
        }
    };
    rows.sort_unstable();
    let stats = MultiwayStats {
        emits: rows.len() as u64,
        ..stats
    };
    jp_obs::counter("wcoj", "seek", stats.seeks);
    jp_obs::counter("wcoj", "words", stats.words);
    jp_obs::counter("wcoj", "emit", stats.emits);
    jp_obs::counter("wcoj", "intermediate", stats.intermediate);
    Ok(MultiwayOutput {
        rows,
        order: plan.order,
        agm_bound,
        stats,
    })
}

/// Parallel trie join: chunk the root candidate keys, one engine per
/// chunk on the work-stealing runtime, merge and sort.
fn solve_parallel(
    plan: &Plan,
    generic: bool,
    threads: usize,
) -> Result<(Vec<Vec<i64>>, MultiwayStats), RelalgError> {
    let mut scout = Engine::new(plan, generic);
    let keys = scout.root_keys()?;
    let mut stats = scout.stats;
    if keys.is_empty() {
        return Ok((Vec::new(), stats));
    }
    // Fixed chunk geometry → deterministic per-chunk counters whose sum
    // is independent of scheduling.
    let chunk = keys.len().div_ceil(threads * 4).max(1);
    let chunks: Vec<Vec<i64>> = keys.chunks(chunk).map(<[i64]>::to_vec).collect();
    let results = jp_par::run_tasks(threads, chunks, |_, chunk| {
        let mut eng = Engine::new(plan, generic);
        let res = eng.run_restricted(&chunk);
        res.map(|()| (eng.rows, eng.stats))
    });
    let mut rows = Vec::new();
    for r in results {
        let (mut chunk_rows, s) = r?;
        rows.append(&mut chunk_rows);
        stats.seeks += s.seeks;
        stats.words += s.words;
        stats.emits += s.emits;
        stats.intermediate += s.intermediate;
    }
    Ok((rows, stats))
}

/// The binary nested-loops cascade: joins the atoms left to right,
/// materializing each intermediate result — the baseline whose
/// intermediate count the worst-case-optimal algorithms beat on skew.
fn cascade(
    q: &ConjunctiveQuery,
    rels: &[MultiRelation],
    order: &[u32],
) -> Result<(Vec<Vec<i64>>, MultiwayStats), RelalgError> {
    let mut stats = MultiwayStats::default();
    let mut acc_vars: Vec<u32> = Vec::new();
    // One row of no bindings: the join identity.
    let mut acc: Vec<Vec<i64>> = vec![Vec::new()];
    let last = q.atoms().len().saturating_sub(1);
    for (ai, atom) in q.atoms().iter().enumerate() {
        let Some(rel) = rels.get(atom.relation) else {
            return Err(RelalgError::Internal("atom relation vanished after check"));
        };
        // Columns of this atom joining already-bound variables, and the
        // fresh columns it introduces.
        let shared: Vec<(usize, usize)> = atom
            .vars
            .iter()
            .enumerate()
            .filter_map(|(c, v)| acc_vars.iter().position(|av| av == v).map(|p| (c, p)))
            .collect();
        let fresh: Vec<usize> = (0..atom.vars.len())
            .filter(|c| !shared.iter().any(|&(sc, _)| sc == *c))
            .collect();
        let mut next = Vec::new();
        for row in &acc {
            for t in rel.tuples() {
                stats.seeks += 1; // one tuple-pair comparison
                let matches = shared
                    .iter()
                    .all(|&(c, p)| t.get(c).is_some() && t.get(c) == row.get(p));
                if matches {
                    let mut nr = row.clone();
                    for &c in &fresh {
                        if let Some(&v) = t.get(c) {
                            nr.push(v);
                        }
                    }
                    next.push(nr);
                }
            }
        }
        for &c in &fresh {
            if let Some(&v) = atom.vars.get(c) {
                acc_vars.push(v);
            }
        }
        acc = next;
        if ai < last {
            stats.intermediate += acc.len() as u64;
        }
    }
    // Project to the shared variable order so all algorithms emit
    // byte-identical rows.
    let mut rows = Vec::with_capacity(acc.len());
    for row in acc {
        let mut out = Vec::with_capacity(order.len());
        for v in order {
            let Some(p) = acc_vars.iter().position(|av| av == v) else {
                return Err(RelalgError::Internal("cascade lost a variable binding"));
            };
            let Some(&val) = row.get(p) else {
                return Err(RelalgError::Internal("cascade row missing a binding"));
            };
            out.push(val);
        }
        rows.push(out);
    }
    rows.sort_unstable();
    rows.dedup();
    stats.emits = rows.len() as u64;
    Ok((rows, stats))
}

/// The join graph of a conjunctive query for the pebbling pipeline:
/// for every pair of atoms sharing at least one variable, the bipartite
/// graph of tuple pairs agreeing on the shared variables — an equijoin
/// graph on the composite shared key, so each pairwise graph is a union
/// of complete bipartite blocks and the disjoint union of all pairs
/// flows through the §3 recognizers and the memoized component solver.
///
/// # Errors
/// [`RelalgError::TooManyTuples`] if any relation exceeds `u32::MAX`
/// tuples, plus query/relation mismatch errors.
pub fn query_join_graph(
    q: &ConjunctiveQuery,
    rels: &[MultiRelation],
) -> Result<BipartiteGraph, RelalgError> {
    let _span = jp_obs::span("wcoj", "join_graph");
    q.check_relations(rels)?;
    for rel in rels {
        if u32::try_from(rel.len()).is_err() {
            return Err(RelalgError::TooManyTuples {
                relation: rel.name().to_string(),
                len: rel.len(),
            });
        }
    }
    let atoms = q.atoms();
    let mut graph: Option<BipartiteGraph> = None;
    for (i, ai) in atoms.iter().enumerate() {
        for aj in atoms.iter().skip(i + 1) {
            let shared: Vec<(usize, usize)> = ai
                .vars
                .iter()
                .enumerate()
                .filter_map(|(ci, v)| aj.vars.iter().position(|w| w == v).map(|cj| (ci, cj)))
                .collect();
            if shared.is_empty() {
                continue;
            }
            let (Some(ri), Some(rj)) = (rels.get(ai.relation), rels.get(aj.relation)) else {
                return Err(RelalgError::Internal("atom relation vanished after check"));
            };
            // Group right tuples by their shared-key projection.
            let mut groups: HashMap<Vec<i64>, Vec<u32>> = HashMap::new();
            for (jrow, t) in rj.tuples().enumerate() {
                let key: Vec<i64> = shared
                    .iter()
                    .filter_map(|&(_, cj)| t.get(cj).copied())
                    .collect();
                groups.entry(key).or_default().push(jrow as u32);
            }
            let mut edges = Vec::new();
            for (irow, t) in ri.tuples().enumerate() {
                let key: Vec<i64> = shared
                    .iter()
                    .filter_map(|&(ci, _)| t.get(ci).copied())
                    .collect();
                if let Some(js) = groups.get(&key) {
                    edges.extend(js.iter().map(|&j| (irow as u32, j)));
                }
            }
            let pair = BipartiteGraph::new(ri.len() as u32, rj.len() as u32, edges);
            graph = Some(match graph {
                Some(g) => g.disjoint_union(&pair),
                None => pair,
            });
        }
    }
    graph.ok_or(RelalgError::Internal(
        "query has no pair of atoms sharing a variable",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn tri_rels(r: &[(i64, i64)], s: &[(i64, i64)], t: &[(i64, i64)]) -> Vec<MultiRelation> {
        let mk = |name: &str, e: &[(i64, i64)]| {
            MultiRelation::new(name, 2, e.iter().map(|&(a, b)| vec![a, b])).unwrap()
        };
        vec![mk("R", r), mk("S", s), mk("T", t)]
    }

    #[test]
    fn explain_matches_what_solve_actually_runs() {
        let (q, rels) = workload::triangle_random(60, 4, 7);
        let plan = explain_plan(&q, &rels).unwrap();
        let out = solve(&q, &rels, MultiwayAlgo::Lftj, 1).unwrap();
        assert_eq!(plan.order, out.order, "same variable ordering");
        assert_eq!(plan.agm_bound, out.agm_bound, "same certified bound");
        assert_eq!(plan.atoms.len(), 3);
        for (atom, w) in plan.atoms.iter().zip(q.cover()) {
            assert_eq!(atom.weight, *w);
            assert_eq!(atom.rows, rels[atom.relation].len());
            // the key order is the atom's vars, reordered
            let mut sorted_vars = atom.vars.clone();
            sorted_vars.sort_unstable();
            let mut sorted_keys = atom.key_order.clone();
            sorted_keys.sort_unstable();
            assert_eq!(sorted_vars, sorted_keys);
        }
        // every level intersects the atoms containing that variable;
        // for the triangle each variable lives in exactly 2 atoms
        assert!(
            plan.levels.iter().all(|l| l.len() == 2),
            "{:?}",
            plan.levels
        );
        assert!(out.stats.emits as f64 <= plan.agm_bound);
    }

    #[test]
    fn explain_rejects_mismatched_relations_like_solve_does() {
        let q = ConjunctiveQuery::triangle();
        let rels = tri_rels(&[(1, 2)], &[(2, 3)], &[(1, 3)]);
        assert!(explain_plan(&q, &rels[..2]).is_err(), "missing relation");
    }

    #[test]
    fn triangle_all_algorithms_agree() {
        let q = ConjunctiveQuery::triangle();
        let rels = tri_rels(
            &[(1, 2), (1, 3), (2, 3), (4, 5)],
            &[(2, 3), (3, 1), (3, 4), (5, 6)],
            &[(1, 3), (1, 4), (2, 4), (9, 9)],
        );
        let lftj = solve(&q, &rels, MultiwayAlgo::Lftj, 1).unwrap();
        let gen = solve(&q, &rels, MultiwayAlgo::Generic, 1).unwrap();
        let cas = solve(&q, &rels, MultiwayAlgo::Cascade, 1).unwrap();
        // (1,2,3), (1,3,4), (2,3,4) are the triangles of this instance.
        assert_eq!(lftj.rows, vec![vec![1, 2, 3], vec![1, 3, 4], vec![2, 3, 4]]);
        assert_eq!(gen.rows, lftj.rows);
        assert_eq!(cas.rows, lftj.rows);
        assert!(lftj.rows.len() as f64 <= lftj.agm_bound);
    }

    #[test]
    fn thread_counts_agree() {
        let (q, rels) = workload::triangle_random(60, 4, 11);
        let base = solve(&q, &rels, MultiwayAlgo::Lftj, 1).unwrap();
        for threads in [2, 8] {
            for algo in [MultiwayAlgo::Lftj, MultiwayAlgo::Generic] {
                let out = solve(&q, &rels, algo, threads).unwrap();
                assert_eq!(out.rows, base.rows, "{} at {threads}", algo.name());
            }
        }
    }

    #[test]
    fn empty_relation_empties_output() {
        let q = ConjunctiveQuery::triangle();
        let rels = tri_rels(&[(1, 2)], &[], &[(1, 3)]);
        for algo in [
            MultiwayAlgo::Lftj,
            MultiwayAlgo::Generic,
            MultiwayAlgo::Cascade,
        ] {
            let out = solve(&q, &rels, algo, 1).unwrap();
            assert!(out.rows.is_empty(), "{}", algo.name());
        }
    }

    #[test]
    fn unknown_algorithm_is_classified() {
        assert!(matches!(
            "hash".parse::<MultiwayAlgo>(),
            Err(RelalgError::UnknownAlgorithm { .. })
        ));
        assert_eq!("lftj".parse::<MultiwayAlgo>(), Ok(MultiwayAlgo::Lftj));
    }

    #[test]
    fn mismatched_relations_are_classified() {
        let q = ConjunctiveQuery::triangle();
        let short = vec![MultiRelation::new("R", 2, vec![vec![1, 2]]).unwrap()];
        assert!(matches!(
            solve(&q, &short, MultiwayAlgo::Lftj, 1),
            Err(RelalgError::UnknownRelation { .. })
        ));
        let bad_arity = vec![
            MultiRelation::new("R", 3, vec![vec![1, 2, 3]]).unwrap(),
            MultiRelation::new("S", 2, vec![vec![1, 2]]).unwrap(),
            MultiRelation::new("T", 2, vec![vec![1, 2]]).unwrap(),
        ];
        assert!(matches!(
            solve(&q, &bad_arity, MultiwayAlgo::Lftj, 1),
            Err(RelalgError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn skew_gap_lftj_beats_cascade() {
        let (q, rels) = workload::triangle_skewed(64, 5);
        let lftj = solve(&q, &rels, MultiwayAlgo::Lftj, 1).unwrap();
        let cas = solve(&q, &rels, MultiwayAlgo::Cascade, 1).unwrap();
        assert_eq!(lftj.rows, cas.rows);
        assert!(
            cas.stats.intermediate >= 10 * lftj.stats.intermediate.max(1),
            "cascade {} vs lftj {}",
            cas.stats.intermediate,
            lftj.stats.intermediate
        );
    }

    #[test]
    fn agm_bound_holds_on_workloads() {
        for seed in 0..4 {
            let (q, rels) = workload::triangle_random(50, 4, seed);
            let out = solve(&q, &rels, MultiwayAlgo::Lftj, 1).unwrap();
            assert!(out.rows.len() as f64 <= out.agm_bound, "seed {seed}");
            let (q, rels) = workload::clique4_random(24, 3, seed);
            let out = solve(&q, &rels, MultiwayAlgo::Generic, 1).unwrap();
            assert!(out.rows.len() as f64 <= out.agm_bound, "seed {seed}");
        }
    }

    #[test]
    fn query_join_graph_is_pairwise_equijoin_union() {
        let q = ConjunctiveQuery::triangle();
        let rels = tri_rels(&[(1, 2), (2, 2)], &[(2, 3)], &[(1, 3)]);
        let g = query_join_graph(&q, &rels).unwrap();
        // Three atom pairs each share one variable; the union holds all
        // three pairwise graphs.
        // R-S share b: R(1,2),R(2,2) × S(2,3) → 2 edges.
        // S-T share c: S(2,3) × T(1,3) → 1 edge. R-T share a: 1 edge.
        assert_eq!(g.edge_count(), 4);
    }
}
