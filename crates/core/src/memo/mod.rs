//! `jp-memo` — workload-level memoization across the solver ladder.
//!
//! Lemma 2.2 (additivity) means every pebbling problem decomposes into
//! independent connected components, and real join workloads repeat the
//! same component shapes over and over: an equijoin is a union of
//! `K_{k,l}` blocks (one per join value), skewed workloads repeat small
//! blocks endlessly, and the structured families of §2–§3 recur across
//! experiments. Today that structure is re-solved from scratch on every
//! isomorphic copy; this module turns the repeats into hash lookups.
//!
//! Three layers:
//!
//! * [`recognize`] — structural recognizers answering complete-bipartite
//!   / matching / path / even-cycle / spider components directly from
//!   the closed forms in [`crate::families`] (Lemmas 2.4 / 3.2, Theorem
//!   3.3) with zero search, at any size;
//! * [`store`] — a sharded, thread-safe cache keyed by the canonical
//!   component form of [`jp_graph::canon`], storing `(cost, relabelable
//!   scheme)` entries; optional JSONL persistence for cross-run reuse.
//!   Every hit is re-validated against the scheme verifier before it is
//!   served, so a stale or corrupt entry degrades to a miss, never to a
//!   wrong answer;
//! * [`driver`] — the workload entry point [`driver::solve_with_memo`]:
//!   per component, recognizer → cache → portfolio race, recording every
//!   fresh solve for the next lookup.
//!
//! The exact solver also takes the memo directly
//! (`exact::optimal_scheme_memo`): inside the exact path only entries
//! proved optimal are consulted, so exactness guarantees survive
//! memoization unchanged.

pub mod driver;
pub mod recognize;
pub mod store;

pub use driver::{
    memoized_effective_cost, solve_with_memo, solve_with_memo_report, MemoSolveReport,
};
pub use recognize::{recognize_component, Recognized};
pub use store::{ComponentSource, Memo, MemoStats, Miss};
