//! Benchmark and experiment harness for the join-predicates reproduction.
//!
//! Every row of the experiment index in `DESIGN.md` §3 is implemented
//! here as a function returning a rendered report; the `experiments`
//! binary runs them all (or one by id) and the captured output is the
//! source of `EXPERIMENTS.md`. Figures F1/F2 are produced by the
//! `figures` binary as Graphviz DOT. Criterion benches (in `benches/`)
//! cover the performance-bearing claims (Theorem 4.1 linearity, exact
//! solver exponentiality, join-algorithm throughput).

pub mod experiments;
pub mod metrics;
pub mod table;

pub use experiments::{all_experiments, Experiment};
pub use metrics::{capture, capture_traced, write_metrics, RunMetrics};
