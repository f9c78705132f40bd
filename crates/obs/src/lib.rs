//! `jp-obs` — hand-rolled, std-only instrumentation for the solver
//! ladder: the one API every site calls, for both the event stream and
//! the live metrics registry.
//!
//! The paper measures *tuple-level work* (pebble placements, jumps), not
//! wall-clock time, so the solvers need to report what they actually did:
//! how many DP states Held–Karp touched, how many nodes branch-and-bound
//! expanded and why it pruned, how many improving moves 2-opt found. This
//! crate is the plumbing: each site makes one call, and one relaxed
//! atomic load decides whether any destination is on. With none on, a
//! call costs that load and nothing else.
//!
//! # Architecture
//!
//! * [`counter`] — work done. One call feeds a `Counter` [`Event`] to
//!   the sink and taps *and* an add to the live counter `component.name`.
//! * [`gauge`]/[`observe`] — levels and distributions, same shape; they
//!   feed the live registry only (the event stream has no level kind).
//! * [`span`] — an RAII timer; on drop it emits a `Span` event.
//! * [`Event`] — one observation, tagged with a `component` (which
//!   solver) and a `name` (which signal). Serializes to one JSON object
//!   per line (JSONL).
//! * [`Sink`] — where events go. Provided: [`JsonlSink`] (file or
//!   stderr), [`MemorySink`] (tests), [`StatsSink`] (in-process
//!   aggregation for `--stats` and the bench harness), [`NoopSink`], and
//!   [`FanoutSink`] (tee). [`set_sink`] installs one process-wide and
//!   observes every thread; [`set_tap`] adds a secondary destination
//!   that sees only its member threads.
//! * The live registry — counters, gauges and log₂ [`PulseHistogram`]s
//!   keyed `component.name`, read by samplers through
//!   [`live_snapshot`]. A live update never allocates after a name's
//!   first use.
//! * [`ScopedSink`] — the one capture scope: a sink, the live registry,
//!   or both, for the guard's lifetime. Holders serialize on one lock,
//!   and only member threads reach the capture.
//! * [`Ticket`]/[`ticket`]/[`adopt`] — membership. A spawner takes its
//!   ticket and each thread it starts adopts it, so workers join exactly
//!   the captures (scope and taps) their spawner was in, never whatever
//!   happens to be open. Membership is a thread-local, so the emit path
//!   takes no global lock to test it.
//!
//! # Event schema (version 2)
//!
//! ```json
//! {"v":2,"seq":17,"thread":1,"kind":"Counter","component":"bb","name":"nodes_expanded","value":4093,"start":210,"parent":12}
//! {"v":2,"seq":12,"thread":3,"kind":"Span","component":"bb","name":"search","value":1250,"start":180}
//! ```
//!
//! `seq` is a process-wide monotone sequence number (spans *reserve*
//! theirs when opened, so parents order before children); `thread` is
//! the process-local id of the emitting thread (stable per thread,
//! assigned in first-emission order); `value` is the counter value for
//! `Counter` events and elapsed microseconds for `Span` events; `start`
//! is a monotonic microsecond offset since the sink was installed; the
//! optional `parent` is the `seq` of the enclosing span and is omitted
//! at top level; the optional `request` is the serve-request id the
//! event belongs to ([`with_request`]) and is likewise omitted when
//! absent. Version-1 traces (no `v`, no `start`/`parent`) still
//! parse. The full per-version field reference lives in the [`event`]
//! module docs; [`SCHEMA_VERSION`] is what this build writes.
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

pub mod event;
mod global;
mod live;
mod sink;

pub use event::{Event, EventKind, SCHEMA_VERSION};
pub use global::{
    adopt, clear_sink, counter, current_request, current_span, enabled, gauge, link_parent,
    observe, set_sink, set_tap, span, thread_id, ticket, with_request, AdoptGuard, LinkGuard,
    RequestGuard, ScopedSink, SpanGuard, TapGuard, Ticket,
};
pub use live::{live_snapshot, nearest_rank, PulseHistogram};
pub use sink::{FanoutSink, JsonlSink, MemorySink, NoopSink, Sink, StatsSink, StatsSnapshot};
