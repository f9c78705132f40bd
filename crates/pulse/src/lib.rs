// With alloc-track off the crate is 100% safe code and says so; with it
// on, the one GlobalAlloc impl in `mem` carries a reasoned allow and the
// manifest's `unsafe_code = "deny"` holds everywhere else.
#![cfg_attr(not(feature = "alloc-track"), forbid(unsafe_code))]
//! `jp-pulse` — consumers and exporters of live telemetry.
//!
//! Instrumented code reports through jp-obs alone: one
//! `jp_obs::counter`/`gauge`/`observe` call feeds both the event stream
//! and the live registry, under the key `component.name`. jp-obs owns
//! that registry and the capture scope that turns it on. This crate
//! holds what reads or exports it while a process runs:
//!
//! * [`sampler`] — a background thread that snapshots the live registry
//!   ([`jp_obs::live_snapshot`]) and the memory stats at a fixed interval
//!   into JSONL "pulse" lines that share the jp-obs schema-v2
//!   conventions: pinned key order, kind `Counter`, component `"pulse"`,
//!   monotonic `start` offsets. The damage-tolerant jp-trace reader
//!   consumes pulse files unchanged.
//! * [`mem`] — allocation accounting: a tracking `GlobalAlloc` wrapper
//!   (feature `alloc-track`) attributes bytes, allocation counts and
//!   high-water marks to coarse [`MemScope`]s (solver, memo, relalg,
//!   par) through a thread-local scope stack of guards.
//! * [`expo`] / [`top`] — Prometheus-style text exposition and the
//!   `jp pulse top` terminal renderer over a snapshot.
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

pub mod expo;
pub mod mem;
pub mod sampler;
pub mod top;

#[cfg(feature = "alloc-track")]
pub use mem::TrackingAlloc;
pub use mem::{mem_scope, mem_snapshot, MemScope, MemScopeGuard, MemScopeStats, MemSnapshot};
pub use sampler::{Sampler, SamplerReport};
