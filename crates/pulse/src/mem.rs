//! Scope-attributed allocation accounting.
//!
//! A binary that installs [`TrackingAlloc`] as its `#[global_allocator]`
//! gets, for free, per-[`MemScope`] byte and allocation-count totals
//! plus a high-water mark ("peak-RSS-equivalent": the peak of the sum of
//! live layout bytes, which tracks RSS minus allocator overhead). The
//! scope is a thread-local *stack*: [`mem_scope`] pushes a coarse label
//! (solver, memo, relalg, par), the returned guard pops back to the
//! previous label on drop, so nesting attributes each allocation to the
//! innermost active scope.
//!
//! Everything on the allocator path is panic-free and allocation-free:
//! a `Cell<u8>` read (with a fallback to [`MemScope::Other`] during TLS
//! teardown) and a handful of relaxed atomic updates. Frees are
//! attributed to the scope active *at free time* — a value allocated in
//! one scope and dropped in another moves bytes between scopes, which is
//! why `bytes_current` is signed per scope while the [`totals`] row is
//! exact by construction.
//!
//! The accounting statics compile unconditionally so call sites and
//! tests need no feature gates; without the `alloc-track` feature (or
//! without the allocator installed) every number simply stays zero and
//! [`tracking_active`] reports `false`.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Coarse attribution scopes for allocation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemScope {
    /// Anything not inside an explicit scope (startup, I/O, tests…).
    Other,
    /// The solver ladder: exact DP, branch-and-bound, heuristics.
    Solver,
    /// The canonical-component memo cache.
    Memo,
    /// Relational algebra: relations, join algorithms, workloads.
    Relalg,
    /// The work-stealing runtime itself (queues, scope bookkeeping).
    Par,
}

/// Number of [`MemScope`] variants.
pub const SCOPE_COUNT: usize = 5;

/// Every scope, in index order.
pub const SCOPES: [MemScope; SCOPE_COUNT] = [
    MemScope::Other,
    MemScope::Solver,
    MemScope::Memo,
    MemScope::Relalg,
    MemScope::Par,
];

impl MemScope {
    /// Stable lower-case label, used in pulse line names
    /// (`mem.<label>.<field>`).
    pub fn label(self) -> &'static str {
        match self {
            MemScope::Other => "other",
            MemScope::Solver => "solver",
            MemScope::Memo => "memo",
            MemScope::Relalg => "relalg",
            MemScope::Par => "par",
        }
    }

    fn index(self) -> usize {
        match self {
            MemScope::Other => 0,
            MemScope::Solver => 1,
            MemScope::Memo => 2,
            MemScope::Relalg => 3,
            MemScope::Par => 4,
        }
    }
}

/// Live accounting cells for one scope.
struct ScopeCells {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_freed: AtomicU64,
    current: AtomicI64,
    peak: AtomicI64,
}

impl ScopeCells {
    const fn new() -> ScopeCells {
        ScopeCells {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
            bytes_freed: AtomicU64::new(0),
            current: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    #[cfg_attr(
        not(feature = "alloc-track"),
        allow(dead_code, reason = "only the alloc-track hooks call it")
    )]
    fn on_alloc(&self, size: u64) {
        // race:order(allocator-path accounting is approximate by design — per-cell totals are exact, cross-cell snapshots may tear)
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(size, Ordering::Relaxed);
        // race:order(high-water mark via fetch_max over this cell's own monotone running total)
        let now = self.current.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    #[cfg_attr(
        not(feature = "alloc-track"),
        allow(dead_code, reason = "only the alloc-track hooks call it")
    )]
    fn on_free(&self, size: u64) {
        // race:order(allocator-path accounting is approximate by design — per-cell totals are exact, cross-cell snapshots may tear)
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.bytes_freed.fetch_add(size, Ordering::Relaxed);
        // race:order(same approximate accounting as above)
        self.current.fetch_sub(size as i64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MemScopeStats {
        MemScopeStats {
            // race:order(sampled snapshot of approximate accounting — fields may tear relative to each other, which the memory axis tolerates)
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            // race:order(same sampled snapshot as above)
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            bytes_freed: self.bytes_freed.load(Ordering::Relaxed),
            // race:order(same sampled snapshot as above)
            bytes_current: self.current.load(Ordering::Relaxed),
            bytes_peak: self.peak.load(Ordering::Relaxed),
        }
    }
}

static SCOPE_CELLS: [ScopeCells; SCOPE_COUNT] = [
    ScopeCells::new(),
    ScopeCells::new(),
    ScopeCells::new(),
    ScopeCells::new(),
    ScopeCells::new(),
];
static TOTAL: ScopeCells = ScopeCells::new();

thread_local! {
    /// Index of this thread's innermost active [`MemScope`].
    static CURRENT: Cell<u8> = const { Cell::new(0) };
}

/// A point-in-time view of one scope's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemScopeStats {
    /// Allocations attributed to the scope.
    pub allocs: u64,
    /// Deallocations attributed to the scope.
    pub frees: u64,
    /// Total bytes ever allocated in the scope.
    pub bytes_allocated: u64,
    /// Total bytes ever freed in the scope.
    pub bytes_freed: u64,
    /// Live bytes: allocated − freed. Signed, because a value may be
    /// freed under a different scope than it was allocated under.
    pub bytes_current: i64,
    /// High-water mark of `bytes_current`.
    pub bytes_peak: i64,
}

/// A point-in-time view of every scope plus the exact process total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Per-scope stats, in [`SCOPES`] order.
    pub scopes: [MemScopeStats; SCOPE_COUNT],
    /// Process-wide stats (peak of the sum — which is *not* the sum of
    /// the per-scope peaks, since scopes peak at different moments).
    pub total: MemScopeStats,
}

/// Pushes `scope` as this thread's allocation-attribution scope until
/// the guard drops (restoring whatever was active before — the stack
/// discipline that makes nesting work).
#[must_use = "attribution lasts only while the guard is alive"]
pub fn mem_scope(scope: MemScope) -> MemScopeGuard {
    let prev = CURRENT
        .try_with(|c| {
            let prev = c.get();
            c.set(scope.index() as u8);
            prev
        })
        .unwrap_or(0);
    MemScopeGuard { prev }
}

/// Restores the previous scope on drop; see [`mem_scope`].
pub struct MemScopeGuard {
    prev: u8,
}

impl Drop for MemScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = CURRENT.try_with(|c| c.set(prev));
    }
}

#[cfg_attr(
    not(feature = "alloc-track"),
    allow(dead_code, reason = "only the alloc-track hooks call it")
)]
fn current_cells() -> &'static ScopeCells {
    let idx = CURRENT.try_with(|c| c.get() as usize).unwrap_or(0);
    SCOPE_CELLS.get(idx).unwrap_or(&TOTAL)
}

/// Records one allocation of `size` bytes against the current scope.
/// Called by the [`TrackingAlloc`] hooks; safe, allocation-free,
/// panic-free.
#[cfg_attr(
    not(feature = "alloc-track"),
    allow(dead_code, reason = "only the alloc-track hooks call it")
)]
pub(crate) fn record_alloc(size: usize) {
    current_cells().on_alloc(size as u64);
    TOTAL.on_alloc(size as u64);
}

/// Records one deallocation of `size` bytes against the current scope.
#[cfg_attr(
    not(feature = "alloc-track"),
    allow(dead_code, reason = "only the alloc-track hooks call it")
)]
pub(crate) fn record_free(size: usize) {
    current_cells().on_free(size as u64);
    TOTAL.on_free(size as u64);
}

/// Whether allocation accounting is live (the tracking allocator is
/// installed and has seen at least one allocation).
pub fn tracking_active() -> bool {
    // race:order(zero/nonzero probe of a monotone counter)
    TOTAL.allocs.load(Ordering::Relaxed) > 0
}

/// The current accounting across all scopes.
pub fn mem_snapshot() -> MemSnapshot {
    MemSnapshot {
        scopes: std::array::from_fn(|i| {
            SCOPE_CELLS
                .get(i)
                .map(ScopeCells::snapshot)
                .unwrap_or_default()
        }),
        total: TOTAL.snapshot(),
    }
}

/// Stats for one scope.
pub fn scope_stats(scope: MemScope) -> MemScopeStats {
    SCOPE_CELLS
        .get(scope.index())
        .map(ScopeCells::snapshot)
        .unwrap_or_default()
}

/// Process-total stats (exact: every allocation lands here once).
pub fn totals() -> MemScopeStats {
    TOTAL.snapshot()
}

/// Resets every high-water mark to the respective current level, so the
/// next [`totals`] `bytes_peak` is the peak *since this call* — how the
/// bench harness scopes its per-case memory axis.
pub fn reset_peaks() {
    for cells in SCOPE_CELLS.iter().chain(std::iter::once(&TOTAL)) {
        // race:order(bench-harness reset between cases; concurrent allocations may re-raise the peak immediately, which is the intent)
        let now = cells.current.load(Ordering::Relaxed);
        cells.peak.store(now, Ordering::Relaxed);
    }
}

/// Pulse line names and values for the sampler: `mem.<scope>.<field>`
/// per scope that has ever seen traffic, plus the `mem.total.*` row.
/// Empty when tracking is inactive, so pulse files from untracked
/// binaries simply lack the memory section. Signed byte levels are
/// clamped at zero for the unsigned wire format.
pub fn sample_lines() -> Vec<(String, u64)> {
    if !tracking_active() {
        return Vec::new();
    }
    let snap = mem_snapshot();
    let mut out = Vec::new();
    let push = |label: &str, s: &MemScopeStats, out: &mut Vec<(String, u64)>| {
        out.push((format!("mem.{label}.allocs"), s.allocs));
        out.push((format!("mem.{label}.frees"), s.frees));
        out.push((format!("mem.{label}.bytes_allocated"), s.bytes_allocated));
        out.push((
            format!("mem.{label}.bytes_current"),
            s.bytes_current.max(0) as u64,
        ));
        out.push((
            format!("mem.{label}.bytes_peak"),
            s.bytes_peak.max(0) as u64,
        ));
    };
    for (scope, stats) in SCOPES.iter().zip(snap.scopes.iter()) {
        if stats.allocs > 0 || stats.frees > 0 {
            push(scope.label(), stats, &mut out);
        }
    }
    push("total", &snap.total, &mut out);
    out
}

/// The tracking allocator: delegates every operation to [`std::alloc::System`]
/// and attributes the layout sizes to the active [`MemScope`].
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: jp_pulse::mem::TrackingAlloc = jp_pulse::mem::TrackingAlloc;
/// ```
#[cfg(feature = "alloc-track")]
#[allow(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait by definition; this module only delegates to System and bumps atomics"
)]
mod tracking {
    use std::alloc::{GlobalAlloc, Layout, System};

    /// See the [module docs](super) — `System` plus scope accounting.
    pub struct TrackingAlloc;

    // SAFETY: every method forwards its arguments to `System` verbatim and
    // returns `System`'s result, so `System` upholds the GlobalAlloc
    // contract; the accounting around each call is safe atomic arithmetic.
    unsafe impl GlobalAlloc for TrackingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                super::record_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            super::record_free(layout.size());
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                super::record_alloc(layout.size());
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                super::record_free(layout.size());
                super::record_alloc(new_size);
            }
            p
        }
    }
}

#[cfg(feature = "alloc-track")]
pub use tracking::TrackingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_restore_the_previous_scope() {
        let read = || CURRENT.with(|c| c.get());
        let base = read();
        {
            let _solver = mem_scope(MemScope::Solver);
            assert_eq!(read(), MemScope::Solver.index() as u8);
            {
                let _memo = mem_scope(MemScope::Memo);
                assert_eq!(read(), MemScope::Memo.index() as u8);
            }
            assert_eq!(read(), MemScope::Solver.index() as u8);
        }
        assert_eq!(read(), base);
    }

    #[test]
    fn record_paths_attribute_to_the_innermost_scope() {
        let before = scope_stats(MemScope::Relalg);
        {
            let _relalg = mem_scope(MemScope::Relalg);
            record_alloc(128);
            record_free(128);
        }
        let after = scope_stats(MemScope::Relalg);
        assert_eq!(after.allocs - before.allocs, 1);
        assert_eq!(after.frees - before.frees, 1);
        assert_eq!(after.bytes_allocated - before.bytes_allocated, 128);
        assert_eq!(
            after.bytes_current - before.bytes_current,
            0,
            "balances to zero after alloc+free"
        );
    }

    #[test]
    fn labels_cover_every_scope() {
        let labels: std::collections::BTreeSet<&str> = SCOPES.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), SCOPE_COUNT);
        for s in SCOPES {
            assert_eq!(SCOPES.get(s.index()).copied(), Some(s), "index round-trip");
        }
    }
}
