//! The sharded, thread-safe component-result cache.
//!
//! Keys are the canonical forms of [`jp_graph::canon`]: isomorphic
//! components (including mirror images) share an entry, so one solve of
//! a `K_{3,4}` block serves every other `K_{3,4}` block in the workload
//! regardless of labeling. Values store the optimal (or best-known)
//! deletion order in *canonical* edge ids, translated back through the
//! component's own canonical form on every hit.
//!
//! **Trust nothing you did not just compute.** Every hit — and every
//! entry loaded from a `--memo-file` — is rebuilt into a scheme and
//! re-validated against [`crate::scheme`]'s verifier before it is
//! served; an entry that fails (stale file, corrupted line, hash
//! collision, a bug elsewhere) degrades to a per-entry skip counted in
//! `memo.reject` / `memo.poisoned`, never to a wrong answer or a panic.

use crate::memo::recognize::recognize_component;
use crate::scheme::PebblingScheme;
use jp_graph::canon::{canonical_form, CanonicalForm, CanonicalKey};
use jp_graph::BipartiteGraph;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Shard count: enough to keep portfolio workers from serializing on
/// one lock, small enough that an empty memo is nearly free.
const SHARDS: usize = 16;

/// Caps on persisted entries: a `--memo-file` line claiming a larger
/// component than canonicalization would ever produce is corrupt.
const MAX_FILE_VERTICES: u32 = jp_graph::canon::MAX_CANON_VERTICES;
const MAX_FILE_EDGES: usize = 1 << 10;

/// Where a memo-served component answer came from — reported per solve
/// by [`crate::memo::solve_with_memo_report`] so a caller holding one
/// shared `Memo` across many concurrent requests (the jp-serve warm
/// store) can attribute each answer without diffing the global,
/// concurrently-bumped [`MemoStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentSource {
    /// A closed-form recognizer answered from structure alone.
    Recognized,
    /// A validated cache hit under the canonical key.
    Cache,
}

/// A [`Memo::probe`] miss. It carries the component's canonical form, so
/// recording the fresh solve through [`Memo::record_miss`] does not
/// label the component a second time.
#[derive(Debug)]
pub struct Miss {
    form: Option<Box<CanonicalForm>>,
}

/// One cached result: a deletion order in canonical edge ids, its
/// effective cost, and whether the cost is proved optimal (exact DP or
/// closed form) rather than best-known heuristic.
#[derive(Debug, Clone)]
struct MemoEntry {
    order: Vec<usize>,
    cost: usize,
    exact: bool,
}

/// A snapshot of the cache's counters (also emitted as `memo.*` jp-obs
/// counters when tracing is on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from the cache (validated).
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Lookups answered by a closed-form recognizer (no cache needed).
    pub recognized: u64,
    /// Entries inserted or improved.
    pub inserts: u64,
    /// Cache entries that failed re-validation and were dropped.
    pub rejects: u64,
    /// Persisted lines skipped as corrupt during [`Memo::load_jsonl`].
    pub poisoned: u64,
}

impl MemoStats {
    /// Lookups that consulted the cache (hits + misses).
    // audit:allow(obs-coverage) pure arithmetic on an already-captured snapshot
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The cache. Cheap to create; share one per workload (or per process)
/// by reference — all methods take `&self` and are thread-safe.
pub struct Memo {
    shards: Vec<Mutex<HashMap<CanonicalKey, MemoEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    recognized: AtomicU64,
    inserts: AtomicU64,
    rejects: AtomicU64,
    poisoned: AtomicU64,
}

impl Default for Memo {
    fn default() -> Self {
        Memo::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A temp-file name next to `target` (same directory, hence the same
/// filesystem, so the rename in [`Memo::save_jsonl`] is atomic). The
/// pid plus a process-wide counter keeps concurrent savers — two
/// threads checkpointing different memos to the same path — from
/// clobbering each other's half-written temp.
fn sibling_temp_path(target: &std::path::Path) -> std::path::PathBuf {
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    // race:order(uniqueness only: any interleaving of fetch_add yields distinct ids)
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = target
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "memo.jsonl".to_string());
    target.with_file_name(format!("{name}.tmp.{}.{seq}", std::process::id()))
}

/// The serialized form of one cache entry — one JSON object per line in
/// a `--memo-file`.
#[derive(Serialize, Deserialize)]
struct MemoRecord {
    left: u32,
    right: u32,
    edges: Vec<(u32, u32)>,
    order: Vec<usize>,
    cost: usize,
    exact: bool,
}

impl Memo {
    /// An empty cache.
    // audit:allow(obs-coverage) constructor — lookups and inserts emit the memo counters
    pub fn new() -> Memo {
        Memo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recognized: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Current counter values.
    // audit:allow(obs-coverage) counter snapshot — no solver work to trace
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            // race:order(monotonic statistics; a snapshot mid-run may lag but every counter is exact once workers join)
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            // race:order(same monotonic-statistics snapshot as above)
            recognized: self.recognized.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            // race:order(same monotonic-statistics snapshot as above)
            rejects: self.rejects.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }

    /// Cached entries across all shards.
    // audit:allow(obs-coverage) counter snapshot — no solver work to trace
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// `true` when nothing is cached yet.
    // audit:allow(obs-coverage) counter snapshot — no solver work to trace
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &CanonicalKey) -> Option<&Mutex<HashMap<CanonicalKey, MemoEntry>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards.get((h.finish() % SHARDS as u64) as usize)
    }

    fn bump(&self, counter: &AtomicU64, name: &str) {
        // race:order(monotonic statistic; cache answers are protected by the shard locks, not by this counter)
        counter.fetch_add(1, Ordering::Relaxed);
        jp_obs::counter("memo", name, 1);
    }

    /// Publishes live occupancy gauges: total cached entries and the
    /// imbalance of the fullest shard relative to a perfectly uniform
    /// spread (100 = uniform; 1600 = everything in one of 16 shards).
    fn publish_occupancy(&self) {
        if !jp_obs::enabled() {
            return;
        }
        let mut total = 0usize;
        let mut largest = 0usize;
        for shard in &self.shards {
            let len = lock(shard).len();
            total += len;
            largest = largest.max(len);
        }
        jp_obs::gauge("memo", "occupancy", total as u64);
        if let Some(imbalance) = (largest * SHARDS * 100).checked_div(total) {
            jp_obs::gauge("memo", "shard_imbalance_pct", imbalance as u64);
        }
    }

    /// Solves a connected component from structure alone when possible:
    /// closed-form recognizer first, then a validated cache hit. Returns
    /// `(deletion order in this graph's edge ids, effective cost π)`;
    /// `None` sends the caller to the solver ladder. With `exact_only`
    /// set, heuristic cache entries are ignored (recognizers are always
    /// exact) — the mode the exact solver uses so its optimality
    /// guarantee survives memoization.
    // audit:allow(obs-coverage) hot per-component probe — counters cover it; a span per lookup would dwarf the lookup
    pub fn solve_component(
        &self,
        sub: &BipartiteGraph,
        exact_only: bool,
    ) -> Option<(Vec<usize>, usize)> {
        self.probe(sub, exact_only)
            .ok()
            .map(|(order, cost, _)| (order, cost))
    }

    /// [`Memo::solve_component`] plus the provenance of the answer —
    /// recognizer or cache — so per-request attribution never has to
    /// diff the shared counters under concurrency. A miss comes back as
    /// a [`Miss`], for a caller that solves the component fresh and then
    /// records it with [`Memo::record_miss`].
    // audit:allow(obs-coverage) hot per-component probe — counters cover it; a span per lookup would dwarf the lookup
    pub fn probe(
        &self,
        sub: &BipartiteGraph,
        exact_only: bool,
    ) -> Result<(Vec<usize>, usize, ComponentSource), Miss> {
        let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Memo);
        if let Some(r) = recognize_component(sub) {
            self.bump(&self.recognized, "recognized");
            return Ok((r.order, r.cost, ComponentSource::Recognized));
        }
        let Some(form) = canonical_form(sub) else {
            return Err(Miss { form: None });
        };
        let Some(shard) = self.shard(&form.key) else {
            return Err(Miss { form: None });
        };
        let entry = {
            let map = lock(shard);
            match map.get(&form.key) {
                Some(e) if !exact_only || e.exact => e.clone(),
                _ => {
                    drop(map);
                    self.bump(&self.misses, "miss");
                    return Err(Miss {
                        form: Some(Box::new(form)),
                    });
                }
            }
        };
        // Translate the canonical order into this component's labels and
        // re-validate from scratch before serving it (satellite 3: a hit
        // must never return a stale or mislabeled answer).
        let order: Option<Vec<usize>> = entry
            .order
            .iter()
            .map(|&k| form.original_edge(sub, k))
            .collect();
        let checked = order.and_then(|order| {
            let scheme = PebblingScheme::from_edge_sequence(sub, &order).ok()?;
            scheme.validate(sub).ok()?;
            let cost = scheme.effective_cost(sub);
            // an exact entry must reproduce its recorded cost bit for
            // bit; a heuristic entry may only be served at its recorded
            // cost or better
            if (entry.exact && cost != entry.cost) || cost > entry.cost {
                return None;
            }
            Some((order, cost))
        });
        match checked {
            Some((order, cost)) => {
                self.bump(&self.hits, "hit");
                Ok((order, cost, ComponentSource::Cache))
            }
            None => {
                self.bump(&self.rejects, "reject");
                self.bump(&self.misses, "miss");
                Err(Miss {
                    form: Some(Box::new(form)),
                })
            }
        }
    }

    /// Records a freshly solved component: `order` is a deletion order
    /// in `sub`'s edge ids, `exact` whether its cost is proved optimal.
    /// The entry is stored under the canonical key (when the component
    /// canonicalizes) and replaces an existing entry only when strictly
    /// better (exact beats heuristic, then lower cost).
    // audit:allow(obs-coverage) hot per-component record — counters cover it; see solve_component
    pub fn record_component(&self, sub: &BipartiteGraph, order: &[usize], exact: bool) {
        let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Memo);
        if let Some(form) = canonical_form(sub) {
            self.insert(sub, form, order, exact);
        }
    }

    /// [`Memo::record_component`] for the component `sub` whose
    /// [`Memo::probe`] returned `miss`, reusing the canonical form the
    /// probe already computed.
    // audit:allow(obs-coverage) hot per-component record — counters cover it; see solve_component
    pub fn record_miss(&self, sub: &BipartiteGraph, miss: Miss, order: &[usize], exact: bool) {
        let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Memo);
        if let Some(form) = miss.form {
            self.insert(sub, *form, order, exact);
        }
    }

    fn insert(&self, sub: &BipartiteGraph, form: CanonicalForm, order: &[usize], exact: bool) {
        // Only record orders that build a valid covering scheme — the
        // cost stored is the one the rebuilt scheme actually achieves.
        let Ok(scheme) = PebblingScheme::from_edge_sequence(sub, order) else {
            return;
        };
        if scheme.validate(sub).is_err() {
            return;
        }
        let cost = scheme.effective_cost(sub);
        let canon_order: Option<Vec<usize>> =
            order.iter().map(|&e| form.canonical_edge(sub, e)).collect();
        let Some(canon_order) = canon_order else {
            return;
        };
        let Some(shard) = self.shard(&form.key) else {
            return;
        };
        let mut map = lock(shard);
        let better = match map.get(&form.key) {
            Some(old) => {
                (exact, std::cmp::Reverse(cost)) > (old.exact, std::cmp::Reverse(old.cost))
            }
            None => true,
        };
        if better {
            map.insert(
                form.key,
                MemoEntry {
                    order: canon_order,
                    cost,
                    exact,
                },
            );
            drop(map);
            self.bump(&self.inserts, "insert");
            self.publish_occupancy();
        }
    }

    /// Serializes every entry as one JSON object per line. Entries are
    /// written in sorted key order so the file is deterministic.
    ///
    /// The write is atomic with respect to crashes: the lines go to a
    /// same-directory temp file first (so the rename cannot cross a
    /// filesystem boundary), are flushed and fsynced, and only then
    /// renamed over `path`. A process killed mid-save — including
    /// `kill -9` during a jp-serve shutdown checkpoint — leaves either
    /// the old complete file or the new complete file, never a
    /// truncated one; at worst a `.tmp.<pid>` orphan remains, which no
    /// loader ever reads.
    // audit:allow(obs-coverage) persistence I/O — no solver work to trace
    pub fn save_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut entries: Vec<(CanonicalKey, MemoEntry)> = Vec::new();
        for shard in &self.shards {
            let map = lock(shard);
            entries.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (key, entry) in entries {
            let rec = MemoRecord {
                left: key.left,
                right: key.right,
                edges: key.edges,
                order: entry.order,
                cost: entry.cost,
                exact: entry.exact,
            };
            let line = serde_json::to_string(&rec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            out.push_str(&line);
            out.push('\n');
        }
        let tmp = sibling_temp_path(path);
        let write_result = (|| -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, out.as_bytes())?;
            // Flushed data must be durable before the rename makes it
            // the cache: rename-over-old with unsynced contents can
            // surface as an empty file after a power cut.
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if write_result.is_err() {
            // Leave no temp droppings behind on failure.
            let _ = std::fs::remove_file(&tmp);
        }
        write_result
    }

    /// Loads entries from a JSONL file previously written by
    /// [`Memo::save_jsonl`] (or by anyone — nothing in the file is
    /// trusted). Each line is independently parsed, bounds-checked,
    /// re-canonicalized and scheme-verified; a line failing any step is
    /// skipped and counted (`memo.poisoned`), never a panic. Returns
    /// `(loaded, skipped)`.
    // audit:allow(obs-coverage) persistence I/O — per-entry verification emits the memo counters
    pub fn load_jsonl(&self, path: &std::path::Path) -> std::io::Result<(usize, usize)> {
        let text = std::fs::read_to_string(path)?;
        let mut loaded = 0usize;
        let mut skipped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if self.load_record(line) {
                loaded += 1;
            } else {
                skipped += 1;
                self.bump(&self.poisoned, "poisoned");
            }
        }
        Ok((loaded, skipped))
    }

    /// Verifies and inserts one persisted line. `false` = corrupt.
    fn load_record(&self, line: &str) -> bool {
        let Ok(rec) = serde_json::from_str::<MemoRecord>(line) else {
            return false;
        };
        // Structural bounds before touching graph construction (whose
        // constructor asserts on out-of-range endpoints).
        if rec.left == 0
            || rec.right == 0
            || rec.left.saturating_add(rec.right) > MAX_FILE_VERTICES
            || rec.edges.is_empty()
            || rec.edges.len() > MAX_FILE_EDGES
            || rec.order.len() != rec.edges.len()
            || rec
                .edges
                .iter()
                .any(|&(l, r)| l >= rec.left || r >= rec.right)
            || rec.order.iter().any(|&e| e >= rec.edges.len())
        {
            return false;
        }
        let g = BipartiteGraph::new(rec.left, rec.right, rec.edges.clone());
        if g.edges() != rec.edges.as_slice() {
            return false; // unsorted or duplicated edges: not a canonical key
        }
        // The file claims (left, right, edges) is canonical; verify by
        // re-canonicalizing the graph it describes.
        let Some(form) = canonical_form(&g) else {
            return false;
        };
        if form.key.left != rec.left || form.key.right != rec.right || form.key.edges != rec.edges {
            return false;
        }
        // Rebuild and verify the claimed scheme on the canonical graph.
        let Ok(scheme) = PebblingScheme::from_edge_sequence(&g, &rec.order) else {
            return false;
        };
        if scheme.validate(&g).is_err() {
            return false;
        }
        let cost = scheme.effective_cost(&g);
        if (rec.exact && cost != rec.cost) || cost > rec.cost {
            return false;
        }
        // record_component re-translates through the graph's own form,
        // which lands back on the same key.
        self.record_component(&g, &rec.order, rec.exact);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use jp_graph::generators;

    fn relabel(g: &BipartiteGraph, lshift: u32, rshift: u32) -> BipartiteGraph {
        let edges = g
            .edges()
            .iter()
            .map(|&(l, r)| {
                (
                    (l + lshift) % g.left_count(),
                    (r + rshift) % g.right_count(),
                )
            })
            .collect();
        BipartiteGraph::new(g.left_count(), g.right_count(), edges)
    }

    #[test]
    fn record_then_hit_isomorphic_copy() {
        let memo = Memo::new();
        let g = generators::random_connected_bipartite(4, 4, 9, 7);
        // random graphs are (usually) no closed-form family; force the
        // cache path by checking the recognizer first
        if recognize_component(&g).is_some() {
            return; // seed happens to be a family; nothing to test here
        }
        assert!(memo.solve_component(&g, false).is_none());
        let s = exact::optimal_scheme(&g).unwrap();
        let order: Vec<usize> = s.deletion_order(&g).into_iter().flatten().collect();
        memo.record_component(&g, &order, true);
        assert_eq!(memo.len(), 1);
        // same graph hits
        let (o1, c1) = memo.solve_component(&g, true).unwrap();
        assert_eq!(c1, exact::optimal_effective_cost(&g).unwrap());
        let s1 = PebblingScheme::from_edge_sequence(&g, &o1).unwrap();
        assert_eq!(s1.effective_cost(&g), c1);
        // a relabeled isomorphic copy hits the same entry
        let h = relabel(&g, 2, 3);
        let (o2, c2) = memo.solve_component(&h, true).unwrap();
        assert_eq!(c2, c1);
        let s2 = PebblingScheme::from_edge_sequence(&h, &o2).unwrap();
        s2.validate(&h).unwrap();
        assert_eq!(s2.effective_cost(&h), c1);
        let st = memo.stats();
        assert_eq!((st.hits, st.inserts), (2, 1));
    }

    #[test]
    fn recognized_families_bypass_the_cache() {
        let memo = Memo::new();
        let g = generators::complete_bipartite(6, 7); // beyond the DP wall
        let (order, cost) = memo.solve_component(&g, true).unwrap();
        assert_eq!(cost, 42);
        let s = PebblingScheme::from_edge_sequence(&g, &order).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.effective_cost(&g), 42);
        assert!(memo.is_empty(), "recognizers never populate the cache");
        assert_eq!(memo.stats().recognized, 1);
    }

    #[test]
    fn exact_only_ignores_heuristic_entries() {
        let memo = Memo::new();
        let g = generators::random_connected_bipartite(4, 4, 10, 11);
        if recognize_component(&g).is_some() {
            return;
        }
        let s = crate::approx::pebble_dfs_partition(&g).unwrap();
        let order: Vec<usize> = s.deletion_order(&g).into_iter().flatten().collect();
        memo.record_component(&g, &order, false);
        assert!(memo.solve_component(&g, true).is_none());
        assert!(memo.solve_component(&g, false).is_some());
    }

    #[test]
    fn exact_entries_replace_heuristic_ones() {
        let memo = Memo::new();
        let g = generators::random_connected_bipartite(4, 4, 10, 11);
        if recognize_component(&g).is_some() {
            return;
        }
        let heur = crate::approx::pebble_dfs_partition(&g).unwrap();
        let horder: Vec<usize> = heur.deletion_order(&g).into_iter().flatten().collect();
        memo.record_component(&g, &horder, false);
        let opt = exact::optimal_scheme(&g).unwrap();
        let oorder: Vec<usize> = opt.deletion_order(&g).into_iter().flatten().collect();
        memo.record_component(&g, &oorder, true);
        let (_, cost) = memo.solve_component(&g, true).unwrap();
        assert_eq!(cost, exact::optimal_effective_cost(&g).unwrap());
        // a later, worse heuristic does not clobber the exact entry
        memo.record_component(&g, &horder, false);
        let (_, cost2) = memo.solve_component(&g, true).unwrap();
        assert_eq!(cost2, cost);
    }

    #[test]
    fn jsonl_round_trip_and_poisoned_lines() {
        let memo = Memo::new();
        let g = generators::random_connected_bipartite(4, 4, 9, 7);
        if recognize_component(&g).is_some() {
            return;
        }
        let s = exact::optimal_scheme(&g).unwrap();
        let order: Vec<usize> = s.deletion_order(&g).into_iter().flatten().collect();
        memo.record_component(&g, &order, true);
        let dir = std::env::temp_dir().join(format!("jp_memo_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.jsonl");
        memo.save_jsonl(&path).unwrap();

        // clean reload serves the entry
        let fresh = Memo::new();
        let (loaded, skipped) = fresh.load_jsonl(&path).unwrap();
        assert_eq!((loaded, skipped), (1, 0));
        assert!(fresh.solve_component(&g, true).is_some());

        // poison the file: garbage line, bad JSON field types, an
        // out-of-range edge, and a cost lie — all skipped cleanly
        let good = std::fs::read_to_string(&path).unwrap();
        let lied = good.replace("\"cost\":", "\"cost\": 0 , \"old_cost\":");
        let poisoned_text = format!(
            "not json at all\n{{\"left\": 1}}\n\
             {{\"left\":2,\"right\":2,\"edges\":[[0,9]],\"order\":[0],\"cost\":1,\"exact\":true}}\n\
             {lied}{good}"
        );
        std::fs::write(&path, poisoned_text).unwrap();
        let reloaded = Memo::new();
        let (loaded, skipped) = reloaded.load_jsonl(&path).unwrap();
        assert_eq!(loaded, 1, "the intact line still loads");
        assert_eq!(skipped, 4, "every corrupt line skipped");
        assert_eq!(reloaded.stats().poisoned, 4);
        assert!(reloaded.solve_component(&g, true).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_canonical_file_entries_are_rejected() {
        // a record whose key is NOT in canonical form (valid graph, but
        // shifted labels) must be rejected — otherwise two labelings of
        // one component would occupy two cache slots with inconsistent
        // keys
        let g = generators::random_connected_bipartite(4, 4, 9, 7);
        let form = jp_graph::canon::canonical_form(&g).unwrap();
        let shifted = relabel(&g, 1, 1);
        if shifted.edges() == form.key.edges.as_slice() {
            return; // astronomically unlikely: the shift IS canonical
        }
        let rec = format!(
            "{{\"left\":{},\"right\":{},\"edges\":{:?},\"order\":{:?},\"cost\":{},\"exact\":false}}",
            shifted.left_count(),
            shifted.right_count(),
            shifted.edges().iter().map(|&(l, r)| [l, r]).collect::<Vec<_>>(),
            (0..shifted.edge_count()).collect::<Vec<_>>(),
            2 * shifted.edge_count(),
        );
        let memo = Memo::new();
        assert!(!memo.load_record(&rec.replace(' ', "")));
    }

    /// A memo with one exact entry for `g`, for the atomic-save tests.
    fn one_entry_memo(g: &BipartiteGraph) -> Memo {
        let memo = Memo::new();
        let s = exact::optimal_scheme(g).unwrap();
        let order: Vec<usize> = s.deletion_order(g).into_iter().flatten().collect();
        memo.record_component(g, &order, true);
        memo
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_droppings() {
        let g = generators::random_connected_bipartite(4, 4, 9, 7);
        if recognize_component(&g).is_some() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("jp_memo_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.jsonl");
        let memo = one_entry_memo(&g);
        memo.save_jsonl(&path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();

        // Simulate a crash mid-checkpoint: a partially-written temp file
        // sits next to the target (as `kill -9` between create and
        // rename would leave it). The target must be untouched — the
        // temp never shadows it — and a reload still serves the entry.
        let crashed_tmp = sibling_temp_path(&path);
        let half = &first[..first.len() / 2];
        std::fs::write(&crashed_tmp, half).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            first,
            "a partial temp file must never shadow the saved cache"
        );
        let reloaded = Memo::new();
        let (loaded, skipped) = reloaded.load_jsonl(&path).unwrap();
        assert_eq!((loaded, skipped), (1, 0));
        assert!(reloaded.solve_component(&g, true).is_some());

        // A subsequent full save replaces the target atomically and
        // cleans up after itself: the only leftover temp is the one we
        // planted to simulate the crash.
        memo.save_jsonl(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        let temps: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert_eq!(
            temps,
            vec![crashed_tmp
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned()],
            "save must not leave its own temp files behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_keeps_the_old_cache_intact() {
        let g = generators::random_connected_bipartite(4, 4, 9, 7);
        if recognize_component(&g).is_some() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("jp_memo_atomicfail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.jsonl");
        let memo = one_entry_memo(&g);
        memo.save_jsonl(&path).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();

        // Saving into a directory that does not exist fails before any
        // rename could happen; the original file is untouched.
        let bad = dir.join("no_such_subdir").join("memo.jsonl");
        assert!(memo.save_jsonl(&bad).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
