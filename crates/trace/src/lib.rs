//! `jp-trace` (jp-lens) — analysis over the `jp-obs` event stream.
//!
//! The paper argues join complexity in *counted work* — pebble
//! placements, Held–Karp DP states, branch-and-bound nodes — and
//! `jp-obs` already writes exactly those signals as JSONL. This crate
//! closes the loop from *emit* to *gate*: it reads traces back,
//! reconstructs what the solvers did, and diffs runs against the
//! committed `BENCH_pebbling.json` baseline so a regression in
//! `exact.dp_states` or the memo hit-rate fails CI instead of waiting
//! for someone to eyeball a 2700-line JSON file.
//!
//! # Architecture
//!
//! * [`reader`] — a streaming JSONL reader with the same discipline as
//!   the memo loader: a truncated, corrupt, or future-schema line is a
//!   *per-line skip with a counted reason*, never a panic. See
//!   [`ReadReport`].
//! * [`analyze`] — per-counter totals, per-span exact histograms with
//!   p50/p95/max (nearest-rank, shared with `--stats` via
//!   [`jp_obs::nearest_rank`]), per-thread summaries, span-tree
//!   reconstruction from the v2 `parent` links, seq-gap detection, and
//!   a worker-utilization timeline from the `par.worker.start`/`stop`
//!   markers. See [`Analysis`].
//! * [`flame`] — folded-stack flamegraph export (`inferno`-compatible
//!   text, one `frame;frame;frame value` line per stack; no rendering
//!   dependency).
//! * [`diff`] — the baseline comparator: per-counter noise tolerances
//!   with hard/soft severity classes ([`Tolerances`] documents the
//!   defaults), plus a symmetric run-vs-run diff.
//! * [`request`] — per-request reconstruction over the serve tracing
//!   ids ([`jp_obs::Event::request`]): the cross-thread critical path
//!   of one request and a queue/solve/memo/wcoj/wire blame breakdown,
//!   with a completeness gate for CI.
//!
//! The crate is std-only and free of unsafe code (the workspace forbids
//! it), and clippy denies panic sites in it outside tests.
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

pub mod analyze;
pub mod diff;
pub mod flame;
pub mod pulse;
pub mod reader;
pub mod request;

pub use analyze::{Analysis, SpanNode, SpanStats, ThreadSummary};
pub use diff::{BaselineCase, DiffReport, Finding, Severity, Tolerances};
pub use flame::folded_stacks;
pub use pulse::{pulse_snapshots, PulseSnapshot};
pub use reader::{parse_trace, read_trace, ReadReport};
pub use request::{reconstruct, reconstruct_all, Blame, PathStep, RequestSummary, RequestTrace};
