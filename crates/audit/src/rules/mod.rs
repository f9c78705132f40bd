//! The lint rules.
//!
//! Each rule lives in its own module and exposes a `NAME` (used in
//! `audit.toml` sections and `audit:allow` annotations) plus check
//! functions the engine in [`crate::engine`] drives. See the module
//! docs of each rule for exact semantics.

pub mod claims;
pub mod doc_drift;
pub mod obs_coverage;
pub mod race;

/// Name of the meta-rule covering the escape hatches themselves:
/// `audit:allow` annotations must name a real rule and state a reason.
pub const ALLOW_ANNOTATION: &str = "allow-annotation";

/// All rule names, in reporting order.
pub const ALL: [&str; 8] = [
    obs_coverage::NAME,
    claims::NAME,
    doc_drift::NAME,
    race::ATOMIC_ORDERING,
    race::LOCK_ORDER,
    race::GUARD_ACROSS_CALL,
    race::SPAWN_CONTAINMENT,
    ALLOW_ANNOTATION,
];
