//! The live registry: counters, gauges and streaming log₂ histograms
//! keyed `component.name`, fed by [`crate::counter`], [`crate::gauge`]
//! and [`crate::observe`] while a live [`crate::ScopedSink`] is open and
//! read at any time through [`live_snapshot`].
//!
//! Metrics are spread over shards by a hash of `component.name`, and a
//! shard is a short list scanned under a read lock, so an update to an
//! existing metric compares the key in place and allocates nothing. Only
//! the first update of a name takes the shard's write lock and allocates
//! the key.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Bucket `i` holds values whose bit length is `i`, i.e. the range
/// `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly the value 0), so 65
/// buckets cover all of `u64`.
const HISTOGRAM_BUCKETS: usize = 65;

/// Registry shard count; `component.name` hashes to a shard.
const SHARDS: usize = 16;

/// A lock-free streaming histogram over power-of-two buckets. Merging is
/// per-bucket atomic addition, so partial histograms from many threads
/// combine into the same totals in any order or grouping.
#[derive(Debug)]
pub struct PulseHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for PulseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PulseHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        PulseHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(b) = self.buckets.get(Self::bucket_index(v)) {
            // race:order(per-bucket atomic addition commutes; totals are exact, cross-field reads may tear harmlessly)
            b.fetch_add(1, Ordering::Relaxed);
        }
        // race:order(same commutative accounting as above)
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // race:order(sampled statistic; exact once publishers stop)
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        // race:order(sampled statistic; exact once publishers stop)
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket observation counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| {
            self.buckets
                .get(i)
                // race:order(sampled statistic; exact once publishers stop)
                .map(|b| b.load(Ordering::Relaxed))
                .unwrap_or(0)
        })
    }

    /// Adds every observation of `other` into `self`. Bucket-wise
    /// addition commutes and associates, so merging per-thread shards in
    /// any order yields the histogram a single sequential observer would
    /// have built.
    pub fn merge_from(&self, other: &PulseHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.bucket_counts()) {
            if theirs > 0 {
                // race:order(bucket-wise merge commutes and associates — see the histogram property tests)
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
        // race:order(same commutative merge as above)
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// The nearest-rank quantile over the *bucketized* data: every
    /// observation is represented by its bucket's upper bound, and the
    /// rank-`⌈q·n⌉` smallest representative is returned — exactly
    /// [`nearest_rank`] applied to that representative multiset. `0`
    /// when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, c) in self.bucket_counts().iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= target.max(1) {
                return ((1u128 << i) - 1) as u64;
            }
        }
        u64::MAX
    }
}

/// The nearest-rank quantile of an **ascending-sorted** slice: the
/// smallest element whose rank covers fraction `q` of the data (`q` is
/// clamped to `[0, 1]`; an empty slice yields 0).
///
/// This is the exact-percentile counterpart to
/// [`PulseHistogram::quantile_upper_bound`], shared by the `--stats`
/// renderer and the jp-trace analyzer so both report identical numbers.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    let idx = rank.max(1).min(n) - 1;
    sorted.get(idx).copied().unwrap_or(0)
}

/// One update from an emission call.
#[derive(Clone, Copy)]
pub(crate) enum Update {
    /// [`crate::counter`]: add to a counter.
    Add(u64),
    /// [`crate::gauge`]: overwrite a gauge.
    Set(u64),
    /// [`crate::observe`]: record into a histogram.
    Observe(u64),
}

/// One named metric. The histogram (65 atomic buckets) is boxed so
/// counter and gauge entries stay small.
enum Metric {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    Histogram(Box<PulseHistogram>),
}

impl Metric {
    fn new(update: Update) -> Metric {
        let metric = match update {
            Update::Add(_) => Metric::Counter(AtomicU64::new(0)),
            Update::Set(_) => Metric::Gauge(AtomicU64::new(0)),
            Update::Observe(_) => Metric::Histogram(Box::default()),
        };
        metric.apply(update);
        metric
    }

    /// Applies `update`. A name reused with another kind keeps the kind
    /// it was created with, and the mismatched update is dropped.
    fn apply(&self, update: Update) {
        match (self, update) {
            (Metric::Counter(c), Update::Add(v)) => {
                // race:order(commutative counter bump; read by samplers as a statistic)
                c.fetch_add(v, Ordering::Relaxed);
            }
            (Metric::Gauge(g), Update::Set(v)) => {
                // race:order(last-writer-wins gauge; samplers read whichever value is current)
                g.store(v, Ordering::Relaxed);
            }
            (Metric::Histogram(h), Update::Observe(v)) => h.observe(v),
            _ => {}
        }
    }
}

struct Entry {
    /// `component.name`.
    key: String,
    metric: Metric,
}

impl Entry {
    /// Whether this entry's key is `component.name`, without building it.
    fn is(&self, component: &str, name: &str) -> bool {
        self.key.len() == component.len() + 1 + name.len()
            && self.key.starts_with(component)
            && self.key.ends_with(name)
            && self.key.as_bytes().get(component.len()) == Some(&b'.')
    }
}

static REGISTRY: [RwLock<Vec<Entry>>; SHARDS] = [const { RwLock::new(Vec::new()) }; SHARDS];

fn read(shard: &RwLock<Vec<Entry>>) -> RwLockReadGuard<'_, Vec<Entry>> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

fn write(shard: &RwLock<Vec<Entry>>) -> RwLockWriteGuard<'_, Vec<Entry>> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

/// The shard of `component.name`: FNV-1a over the key's bytes, fed in
/// pieces so the key is never built.
fn shard_of(component: &str, name: &str) -> Option<&'static RwLock<Vec<Entry>>> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in component
        .as_bytes()
        .iter()
        .chain(b".")
        .chain(name.as_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    REGISTRY.get((h % SHARDS as u64) as usize)
}

/// Applies `update` to the metric `component.name`, creating it on first
/// use.
pub(crate) fn publish(component: &str, name: &str, update: Update) {
    let Some(shard) = shard_of(component, name) else {
        return;
    };
    {
        let entries = read(shard);
        if let Some(entry) = entries.iter().find(|e| e.is(component, name)) {
            entry.metric.apply(update);
            return;
        }
    }
    let mut entries = write(shard);
    match entries.iter().find(|e| e.is(component, name)) {
        Some(entry) => entry.metric.apply(update),
        None => entries.push(Entry {
            key: format!("{component}.{name}"),
            metric: Metric::new(update),
        }),
    }
}

/// Empties the registry; a live scope starts from zero.
pub(crate) fn reset() {
    for shard in &REGISTRY {
        write(shard).clear();
    }
}

/// A deterministic (sorted) flattening of the live registry. Counters
/// and gauges appear under their `component.name` key; a histogram `h`
/// expands to `h.count`, `h.sum`, and the nearest-rank-over-buckets
/// `h.p50`, `h.p95`, `h.p99` upper bounds. The registry keeps its values
/// after the live scope closes, until the next one opens.
pub fn live_snapshot() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for shard in &REGISTRY {
        for Entry { key, metric } in read(shard).iter() {
            match metric {
                Metric::Counter(v) | Metric::Gauge(v) => {
                    // race:order(sampled snapshot; exact once publishers leave the scope)
                    out.insert(key.clone(), v.load(Ordering::Relaxed));
                }
                Metric::Histogram(h) => {
                    out.insert(format!("{key}.count"), h.count());
                    out.insert(format!("{key}.sum"), h.sum());
                    out.insert(format!("{key}.p50"), h.quantile_upper_bound(0.50));
                    out.insert(format!("{key}.p95"), h.quantile_upper_bound(0.95));
                    out.insert(format!("{key}.p99"), h.quantile_upper_bound(0.99));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, observe, ScopedSink};

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&v, 0.5), 5);
        assert_eq!(nearest_rank(&v, 0.95), 10);
        assert_eq!(nearest_rank(&v, 1.0), 10);
        let odd = [10, 20, 30];
        assert_eq!(nearest_rank(&odd, 0.5), 20);
        assert_eq!(nearest_rank(&odd, 0.95), 30);
    }

    #[test]
    fn histogram_buckets_cover_the_domain() {
        let h = PulseHistogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // the zero
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 1); // 4
        assert_eq!(buckets[10], 1); // 1023
        assert_eq!(buckets[11], 1); // 1024
        assert_eq!(buckets[64], 1); // u64::MAX
        assert_eq!(buckets.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn histogram_quantiles_match_the_obs_reference() {
        let values = [0u64, 1, 1, 2, 3, 7, 100, 100, 1000];
        let h = PulseHistogram::new();
        for &v in &values {
            h.observe(v);
        }
        // The contract: nearest rank over each observation's bucket
        // upper bound.
        let mut bounds: Vec<u64> = values
            .iter()
            .map(|&v| ((1u128 << (64 - v.leading_zeros())) - 1) as u64)
            .collect();
        bounds.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                h.quantile_upper_bound(q),
                nearest_rank(&bounds, q),
                "q = {q}"
            );
        }
    }

    #[test]
    fn counters_gauges_and_histograms_snapshot_sorted() {
        let _scope = ScopedSink::open(None, true);
        counter("test", "reg.c", 2);
        counter("test", "reg.c", 3);
        gauge("test", "reg.g", 9);
        gauge("test", "reg.g", 4);
        for v in [1u64, 2, 3, 1000] {
            observe("test", "reg.h", v);
        }
        let snap = live_snapshot();
        assert_eq!(snap.get("test.reg.c"), Some(&5));
        assert_eq!(snap.get("test.reg.g"), Some(&4));
        assert_eq!(snap.get("test.reg.h.count"), Some(&4));
        assert_eq!(snap.get("test.reg.h.sum"), Some(&1006));
        // rank-2 value 2 lives in the log2 bucket [2,3] → upper bound 3
        assert_eq!(snap.get("test.reg.h.p50"), Some(&3));
        assert_eq!(snap.get("test.reg.h.p99"), Some(&1023));
    }

    #[test]
    fn keys_split_anywhere_name_one_metric() {
        let _scope = ScopedSink::open(None, true);
        counter("test.a", "b", 1);
        counter("test", "a.b", 1);
        counter("test", "ab", 1);
        let snap = live_snapshot();
        assert_eq!(snap.get("test.a.b"), Some(&2));
        assert_eq!(snap.get("test.ab"), Some(&1));
    }

    #[test]
    fn live_scope_filters_foreign_threads_until_adopted() {
        let _scope = ScopedSink::open(None, true);
        counter("test", "reg.mine", 1);
        let ticket = crate::ticket();
        std::thread::scope(|s| {
            s.spawn(|| {
                counter("test", "reg.foreign", 1);
                let _adopt = crate::adopt(ticket);
                counter("test", "reg.adopted", 1);
            });
        });
        let snap = live_snapshot();
        assert_eq!(snap.get("test.reg.mine"), Some(&1));
        assert_eq!(snap.get("test.reg.foreign"), None, "cross-talk dropped");
        assert_eq!(snap.get("test.reg.adopted"), Some(&1));
    }

    #[test]
    fn opening_a_live_scope_resets_previous_metrics() {
        {
            let _scope = ScopedSink::open(None, true);
            counter("test", "reg.stale", 7);
        }
        let _scope = ScopedSink::open(None, true);
        assert_eq!(live_snapshot().get("test.reg.stale"), None);
    }

    #[test]
    fn kind_mismatch_is_a_noop_not_a_panic() {
        let _scope = ScopedSink::open(None, true);
        counter("test", "reg.kind", 1);
        gauge("test", "reg.kind", 99);
        observe("test", "reg.kind", 3);
        assert_eq!(live_snapshot().get("test.reg.kind"), Some(&1));
    }
}
