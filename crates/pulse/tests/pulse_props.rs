//! Property tests for the pulse primitives (ISSUE 6 satellite).
//!
//! * Histogram merge is associative and commutative, and the merged
//!   result of per-thread shards — at 1, 2, and 8 threads — is
//!   bucket-identical to a single sequential observer, including the
//!   nearest-rank quantiles jp-trace reports.
//! * Allocation accounting balances to zero after scope exit and never
//!   panics under arbitrarily nested scope guards. This test binary
//!   installs the tracking allocator for real, so the accounting under
//!   test is the production `GlobalAlloc` path, not a simulation.

use std::sync::Mutex;

use jp_obs::PulseHistogram;
use jp_pulse::mem::{self, MemScope};
use proptest::collection::vec;
use proptest::prelude::*;

#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: jp_pulse::TrackingAlloc = jp_pulse::TrackingAlloc;

/// Values spanning many log2 buckets, with bias toward bucket edges.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    vec(
        (0u8..4, any::<u64>()).prop_map(|(shape, raw)| match shape {
            0 => 0,
            1 => raw % 15 + 1,
            2 => raw % 1024,
            _ => raw,
        }),
        0..200,
    )
}

fn hist_of(values: &[u64]) -> PulseHistogram {
    let h = PulseHistogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

fn same(a: &PulseHistogram, b: &PulseHistogram) -> bool {
    a.bucket_counts() == b.bucket_counts() && a.count() == b.count() && a.sum() == b.sum()
}

proptest! {
    #[test]
    fn merge_is_commutative(xs in arb_values(), ys in arb_values()) {
        let ab = hist_of(&xs);
        ab.merge_from(&hist_of(&ys));
        let ba = hist_of(&ys);
        ba.merge_from(&hist_of(&xs));
        prop_assert!(same(&ab, &ba));
    }

    #[test]
    fn merge_is_associative(
        xs in arb_values(),
        ys in arb_values(),
        zs in arb_values(),
    ) {
        // (x ⊕ y) ⊕ z
        let left = hist_of(&xs);
        left.merge_from(&hist_of(&ys));
        left.merge_from(&hist_of(&zs));
        // x ⊕ (y ⊕ z)
        let yz = hist_of(&ys);
        yz.merge_from(&hist_of(&zs));
        let right = hist_of(&xs);
        right.merge_from(&yz);
        prop_assert!(same(&left, &right));
    }

    #[test]
    fn parallel_merge_agrees_with_sequential_reference(values in arb_values()) {
        let reference = hist_of(&values);
        for threads in [1usize, 2, 8] {
            let shards: Vec<PulseHistogram> =
                (0..threads).map(|_| PulseHistogram::new()).collect();
            std::thread::scope(|s| {
                for (i, shard) in shards.iter().enumerate() {
                    let chunk: Vec<u64> = values
                        .iter()
                        .copied()
                        .skip(i)
                        .step_by(threads)
                        .collect();
                    s.spawn(move || {
                        for v in chunk {
                            shard.observe(v);
                        }
                    });
                }
            });
            let merged = PulseHistogram::new();
            for shard in &shards {
                merged.merge_from(shard);
            }
            prop_assert!(same(&merged, &reference), "threads={threads}");
            for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(
                    merged.quantile_upper_bound(q),
                    reference.quantile_upper_bound(q),
                    "q={} threads={}", q, threads
                );
            }
        }
    }
}

/// Allocator-accounting tests share scopes with nothing else in this
/// binary, but proptest may run cases on several test threads — a lock
/// keeps measured windows disjoint.
static ALLOC_TEST_LOCK: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_balances_to_zero_after_scope_exit(sizes in vec(1usize..4096, 1..16)) {
        let _serial = ALLOC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = mem::scope_stats(MemScope::Relalg);
        {
            let _scope = mem::mem_scope(MemScope::Relalg);
            for &size in &sizes {
                let buf: Vec<u8> = Vec::with_capacity(size);
                drop(buf);
            }
        }
        let after = mem::scope_stats(MemScope::Relalg);
        prop_assert_eq!(
            after.bytes_current, before.bytes_current,
            "live bytes return to the pre-scope level once everything \
             allocated inside the scope is freed inside it"
        );
        if mem::tracking_active() {
            let total: usize = sizes.iter().sum();
            prop_assert!(after.allocs >= before.allocs + sizes.len() as u64);
            prop_assert!(after.bytes_allocated >= before.bytes_allocated + total as u64);
            prop_assert_eq!(after.bytes_allocated - before.bytes_allocated,
                            after.bytes_freed - before.bytes_freed);
        }
    }

    #[test]
    fn nested_scopes_never_panic_and_restore(path in vec(0u8..5, 0..12)) {
        let _serial = ALLOC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let scopes = [
            MemScope::Other,
            MemScope::Solver,
            MemScope::Memo,
            MemScope::Relalg,
            MemScope::Par,
        ];
        let before = mem::scope_stats(MemScope::Solver);
        fn descend(path: &[u8], scopes: &[MemScope; 5]) {
            match path.split_first() {
                None => {}
                Some((&head, rest)) => {
                    let scope = scopes[head as usize % scopes.len()];
                    let _guard = mem::mem_scope(scope);
                    let buf: Vec<u8> = Vec::with_capacity(64 + head as usize);
                    descend(rest, scopes);
                    drop(buf);
                }
            }
        }
        descend(&path, &scopes);
        // After every guard dropped, the stack is fully unwound and a
        // fresh scope attributes exactly as if nesting never happened.
        {
            let _scope = mem::mem_scope(MemScope::Solver);
            let buf: Vec<u8> = Vec::with_capacity(128);
            drop(buf);
        }
        let after = mem::scope_stats(MemScope::Solver);
        prop_assert_eq!(after.bytes_current, before.bytes_current);
        if mem::tracking_active() {
            prop_assert!(after.allocs > before.allocs);
        }
    }
}

#[test]
fn tracking_allocator_is_live_in_this_binary() {
    // Only meaningful with the default feature set; documents that the
    // property tests above exercised the real GlobalAlloc path.
    if cfg!(feature = "alloc-track") {
        let boxed = Box::new([0u8; 256]);
        drop(boxed);
        assert!(mem::tracking_active());
        let totals = mem::totals();
        assert!(totals.allocs > 0);
        assert!(totals.bytes_allocated >= 256);
    }
}
