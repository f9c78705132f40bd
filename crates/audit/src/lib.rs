//! `jp-audit` — workspace-native static analysis for the
//! join-predicates repo.
//!
//! The repo's value is that its solvers provably track the paper's
//! claims; this crate is the machinery that keeps code and correctness
//! argument connected as the codebase refactors. It is a zero-dependency
//! token-level analyzer (own lexer, no `syn` — the workspace builds
//! fully offline) enforcing the repo invariants the compiler cannot see:
//!
//! | rule | invariant |
//! |---|---|
//! | `obs-coverage` | every public solver entrypoint opens a `jp-obs` span |
//! | `claim-traceability` | `CLAIM(..)` tags are real and headline claims are tested |
//! | `doc-drift` | CLI flags and README tables agree, both directions |
//! | `atomic-ordering` | non-`SeqCst` orderings carry `// race:order(<why>)` notes |
//! | `lock-order` | the global lock-acquisition graph is acyclic |
//! | `guard-across-call` | no lock guard live across solver/sink calls |
//! | `spawn-containment` | every spawn sits inside `thread::scope` |
//!
//! The last four form the `jp-race` family (see [`rules::race`]): a
//! shared-state model of every atomic operation, lock site, spawn
//! boundary, and channel endpoint, extracted from the token stream and
//! checked as a whole. Rules are configured in `audit.toml` (per-rule
//! `deny`/`warn`/`allow`), with inline escape hatches of the form
//! `// audit:allow(<rule>) <reason>` — a reasonless annotation is itself
//! a finding (`allow-annotation`, the eighth rule).
//!
//! Panic- and unsafe-freedom are not audit rules: clippy enforces the
//! first through `deny(clippy::unwrap_used, …)` attributes on the solver,
//! join, telemetry and serving modules, and rustc the second through the
//! workspace's `unsafe_code = "forbid"` lint. Run as:
//!
//! ```text
//! cargo run -p jp-audit -- check     # lint + regenerate figures/claims_matrix.md
//! cargo run -p jp-audit -- matrix    # print the claims matrix
//! cargo run -p jp-audit -- race      # shared-state model + figures/lock_order.dot
//! cargo run -p jp-audit -- rules     # list rules and configured levels
//! ```

pub mod config;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use config::{Config, Level};
pub use engine::{run, Outcome, RaceSummary};
pub use report::Violation;
