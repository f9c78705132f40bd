//! Runs the experiment suite (E1–E14 of DESIGN.md §3) and prints the
//! markdown reports that `EXPERIMENTS.md` is built from. Each run also
//! writes its deterministic metrics (answer and work counters, span
//! counts; no timings) to `figures/metrics/E*.json`.
//!
//! ```text
//! cargo run -p jp-bench --bin experiments --release            # all
//! cargo run -p jp-bench --bin experiments --release -- E8 E12  # a subset
//! ```
//!
//! Set `JP_METRICS_DIR` to redirect the metrics output; the default is
//! `figures/metrics` under the working directory.
//!
//! Exits non-zero if any experiment fails.

use jp_bench::{all_experiments, capture, write_metrics, RunMetrics};
use std::path::PathBuf;

/// Attribute allocations to pulse memory scopes so each experiment's
/// metrics carry the `mem.*` axis.
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: jp_pulse::TrackingAlloc = jp_pulse::TrackingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_dir = std::env::var_os("JP_METRICS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("figures/metrics"));
    let mut failures = 0usize;
    println!("# Experiments — On the Complexity of Join Predicates (PODS 2001)\n");
    for e in all_experiments() {
        if !args.is_empty() && !args.iter().any(|a| a.eq_ignore_ascii_case(e.id)) {
            continue;
        }
        let ((report, pass), wall_micros, stats) = capture(e.run);
        println!("{report}");
        println!(
            "_{} — {} — {:.2}s_\n",
            e.id,
            e.title,
            wall_micros as f64 / 1e6
        );
        println!("---\n");
        let metrics = RunMetrics::new(e.id, e.title, pass, stats);
        match write_metrics(&metrics_dir, &metrics) {
            Ok(path) => eprintln!("metrics: {}", path.display()),
            Err(err) => eprintln!("metrics: failed to write {}: {err}", e.id),
        }
        if !pass {
            failures += 1;
            eprintln!("FAIL: {} ({})", e.id, e.title);
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
