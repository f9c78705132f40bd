//! CI gate for the live metrics path (the jp-obs live registry and the
//! jp-pulse sampler).
//!
//! Runs one bench case (the `spider_10` memo solve at 4 workers) under a
//! live capture scope with a 10 ms sampler attached and checks:
//!
//! 1. **Liveness**: at least one snapshot is written and every line
//!    parses with the damage-tolerant trace reader.
//! 2. **Write errors**: the sampler reports none, and the final snapshot
//!    carries a `pulse.write_errors` line at zero.
//! 3. **Exposition**: the final snapshot renders to Prometheus-style
//!    exposition text, written to `pulse_check.prom` for CI to upload.
//!
//! ```text
//! cargo run -p jp-bench --bin pulse_check --release -- [out-dir]
//! ```
//!
//! Exits non-zero (with a diagnostic on stderr) on any failed check.

use jp_graph::generators;
use std::path::PathBuf;
use std::time::Duration;

/// Attribute allocations to pulse memory scopes so the sampled
/// snapshots carry the `mem.*` axis.
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: jp_pulse::TrackingAlloc = jp_pulse::TrackingAlloc;

fn fail(msg: &str) -> ! {
    eprintln!("pulse_check: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("figures"));
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(&format!("mkdir {out_dir:?}: {e}")));
    let g = generators::spider(10);
    let pulse_path = out_dir.join("pulse_check.jsonl");
    let scope = jp_obs::ScopedSink::open(None, true);
    let sampler = jp_pulse::Sampler::start(&pulse_path, Duration::from_millis(10))
        .unwrap_or_else(|e| fail(&format!("starting sampler: {e}")));
    let memo = jp_pebble::memo::Memo::new();
    jp_pebble::memo::solve_with_memo(&g, &memo, 4)
        .unwrap_or_else(|e| fail(&format!("sampled solve: {e}")));
    let report = sampler.stop();
    drop(scope);
    if report.snapshots == 0 {
        fail("sampler wrote no snapshots");
    }
    if report.write_errors > 0 {
        fail(&format!(
            "sampler hit {} write error(s) — the pulse file is missing data",
            report.write_errors
        ));
    }

    let (events, read) = jp_trace::read_trace(&pulse_path)
        .unwrap_or_else(|e| fail(&format!("reading {pulse_path:?}: {e}")));
    if read.skipped() > 0 {
        fail(&format!(
            "pulse file has {} unparseable line(s):\n{}",
            read.skipped(),
            read.render()
        ));
    }
    let snaps = jp_trace::pulse_snapshots(&events);
    let Some(last) = snaps.last() else {
        fail("pulse file parsed but contains no snapshots");
    };
    println!(
        "pulse_check: {} snapshot(s), final at {} µs with {} sample(s)",
        snaps.len(),
        last.at_micros,
        last.samples.len()
    );
    // Every snapshot publishes the sampler's own write-failure tally;
    // a healthy CI run must end at zero.
    match last.samples.get("pulse.write_errors").copied() {
        Some(0) => {}
        Some(n) => fail(&format!("final snapshot reports {n} pulse write error(s)")),
        None => fail("final snapshot is missing the pulse.write_errors line"),
    }

    let expo = jp_pulse::expo::render_exposition(&last.samples);
    let expo_path = out_dir.join("pulse_check.prom");
    std::fs::write(&expo_path, &expo)
        .unwrap_or_else(|e| fail(&format!("writing {expo_path:?}: {e}")));
    println!(
        "pulse_check: PASS — {} metric(s) exported to {}",
        last.samples.len(),
        expo_path.display()
    );
}
