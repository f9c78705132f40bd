//! jp-serve: a long-lived pebbling/join-planning service.
//!
//! A join planner is most useful warm: the memo store that makes
//! repeated shapes cheap ([`jp_pebble::memo`]) only pays off if it
//! outlives a single CLI invocation. This crate keeps it alive behind
//! a small TCP service:
//!
//! * [`proto`] — the versioned, length-prefixed JSON wire format;
//! * [`server`] — the service itself: acceptor, per-connection
//!   handlers, admission control, and a bounded set of solver slots;
//!   each handler solves its own requests over one shared
//!   [`jp_pebble::memo::Memo`];
//! * [`client`] — a blocking client;
//! * [`loadgen`] — a deterministic Zipf-skewed workload driver with
//!   answer verification, for benchmarks, tests, and CI;
//! * [`xray`] — tail-based request sampling: every request-stamped
//!   jp-obs event is buffered in a bounded ring, and only slow or
//!   failing requests are flushed at full detail (exemplars).
//!
//! Zero dependencies beyond the workspace: the wire format rides the
//! vendored serde, networking is `std::net`, and concurrency is
//! scoped threads — the same discipline as the rest of the
//! workspace.
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

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod xray;

pub use client::Client;
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, ServerSnapshot, SlowRequest};
pub use proto::{PebbleAlgo, Request, RequestBody, Response, ResponseBody, WIRE_VERSION};
pub use server::{ServeConfig, ServeReport, Server};
pub use xray::{Xray, XrayConfig};
