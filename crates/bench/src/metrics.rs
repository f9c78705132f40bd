//! Per-run metrics capture for the experiment and benchmark harnesses.
//!
//! Wraps a run in a scoped [`StatsSink`] so the instrumentation the
//! solvers emit (see `jp-obs`) is aggregated per run, then packages the
//! run's deterministic keys with its identity for JSON export — the
//! machine companion to the human-readable markdown reports.

use jp_obs::{FanoutSink, JsonlSink, ScopedSink, Sink, StatsSink, StatsSnapshot};
use jp_pulse::MemScopeStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Starts the per-case memory axis: resets every high-water mark and
/// remembers the counter levels, so [`emit_mem_axis`] can report deltas
/// and the peak *of this case* rather than of the whole process.
fn start_mem_axis() -> jp_pulse::MemSnapshot {
    jp_pulse::mem::reset_peaks();
    jp_pulse::mem_snapshot()
}

/// Emits the case's allocation accounting as `mem.*` counters into the
/// active obs scope (so they land in the captured [`StatsSnapshot`] and
/// any streamed trace). A no-op when the tracking allocator is not
/// installed — baselines from untracked builds simply lack the memory
/// axis, which `trace check` treats as a soft finding.
fn emit_mem_axis(before: &jp_pulse::MemSnapshot) {
    if !jp_pulse::mem::tracking_active() {
        return;
    }
    let after = jp_pulse::mem_snapshot();
    let emit = |label: &str, b: &MemScopeStats, a: &MemScopeStats, always: bool| {
        let allocs = a.allocs.saturating_sub(b.allocs);
        let bytes = a.bytes_allocated.saturating_sub(b.bytes_allocated);
        if !always && allocs == 0 && a.frees.saturating_sub(b.frees) == 0 {
            return;
        }
        jp_obs::counter("mem", &format!("{label}.allocs"), allocs);
        jp_obs::counter("mem", &format!("{label}.bytes_allocated"), bytes);
        // peak since start_mem_axis reset it: the case's high-water mark
        jp_obs::counter(
            "mem",
            &format!("{label}.bytes_peak"),
            a.bytes_peak.max(0) as u64,
        );
    };
    for (scope, (b, a)) in jp_pulse::mem::SCOPES
        .iter()
        .zip(before.scopes.iter().zip(after.scopes.iter()))
    {
        emit(scope.label(), b, a, false);
    }
    emit("total", &before.total, &after.total, true);
}

/// The deterministic metrics of one experiment run, as committed under
/// `figures/metrics/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Run identifier (e.g. `"E5"`).
    pub id: String,
    /// Human title of the run.
    pub title: String,
    /// Whether the run's verdict was PASS.
    pub pass: bool,
    /// Counter totals of the deterministic keys.
    pub counters: BTreeMap<String, u64>,
    /// Span events per deterministic key.
    pub span_counts: BTreeMap<String, u64>,
}

impl RunMetrics {
    /// Keeps the keys [`jp_trace::diff::is_deterministic`] accepts and
    /// drops every timing: wall time, span durations, and the
    /// scheduling and memory keys vary from run to run.
    pub fn new(id: &str, title: &str, pass: bool, stats: StatsSnapshot) -> RunMetrics {
        let keep = |map: BTreeMap<String, u64>| {
            map.into_iter()
                .filter(|(key, _)| jp_trace::diff::is_deterministic(key))
                .collect()
        };
        RunMetrics {
            id: id.to_string(),
            title: title.to_string(),
            pass,
            counters: keep(stats.counters),
            span_counts: keep(stats.span_counts),
        }
    }
}

/// Runs `f` with a scoped stats sink installed, returning its result,
/// the wall time in microseconds, and the aggregated event snapshot.
///
/// The scoped sink is thread-filtered: only events from this thread and
/// from threads that adopted its ticket (`jp_obs::adopt`, which
/// the `jp-par` runtime does for its workers) are aggregated, so
/// concurrent runs on other threads cannot cross-talk into the snapshot.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, u64, StatsSnapshot) {
    let sink = Arc::new(StatsSink::new());
    let t0 = Instant::now();
    let out = {
        let _guard = ScopedSink::install(sink.clone());
        let mem = start_mem_axis();
        let out = f();
        emit_mem_axis(&mem);
        out
    };
    let wall_micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    (out, wall_micros, sink.snapshot())
}

/// Like [`capture`], but additionally streams every event of the run to
/// `trace_path` as JSON Lines (the format `jp trace …` consumes), so a
/// benchmark case leaves both an aggregate snapshot *and* a replayable
/// trace with span trees and worker timelines.
pub fn capture_traced<T>(
    trace_path: &Path,
    f: impl FnOnce() -> T,
) -> std::io::Result<(T, u64, StatsSnapshot)> {
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let stats = Arc::new(StatsSink::new());
    let jsonl = Arc::new(JsonlSink::to_file(trace_path)?);
    let sinks: Vec<Arc<dyn Sink>> = vec![stats.clone(), jsonl];
    let t0 = Instant::now();
    let out = {
        let _guard = ScopedSink::install(Arc::new(FanoutSink::new(sinks)));
        let mem = start_mem_axis();
        let out = f();
        emit_mem_axis(&mem);
        out
    };
    let wall_micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    Ok((out, wall_micros, stats.snapshot()))
}

/// Writes `metrics` as pretty JSON to `<dir>/<id>.json`, creating `dir`
/// as needed. Returns the written path.
pub fn write_metrics(dir: &Path, metrics: &RunMetrics) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", metrics.id));
    let json = serde_json::to_string_pretty(metrics)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_solver_events() {
        let g = jp_graph::generators::spider(5);
        let (cost, _wall, stats) =
            capture(|| jp_pebble::exact::optimal_effective_cost(&g).unwrap());
        assert_eq!(cost, 12);
        // exact equality: the scoped sink filters out events from other
        // test threads, so this capture sees precisely its own run —
        // spider(5) has 10 edges in one component.
        assert_eq!(stats.counters["exact.edges"], 10);
        assert_eq!(stats.counters["exact.components"], 1);
        assert_eq!(stats.span_counts["exact.solve"], 1);
        assert!(stats.span_counts.contains_key("exact.min_jump_tour"));
    }

    #[test]
    fn capture_excludes_concurrent_foreign_runs() {
        // a solver hammering jp-obs on a non-adopted thread must not
        // leak into this capture's snapshot
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let noisy = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let g = jp_graph::generators::spider(4);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = jp_pebble::exact::optimal_effective_cost(&g);
                }
            })
        };
        let g = jp_graph::generators::spider(5);
        let (cost, _, stats) = capture(|| jp_pebble::exact::optimal_effective_cost(&g).unwrap());
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        noisy.join().unwrap();
        assert_eq!(cost, 12);
        assert_eq!(stats.counters["exact.edges"], 10);
        assert_eq!(stats.span_counts["exact.solve"], 1);
    }

    #[test]
    fn capture_includes_adopted_parallel_workers() {
        // jp-par workers adopt into the scope: a portfolio race on 4
        // workers lands entirely in this capture
        let g = jp_graph::generators::spider(5);
        let (cost, _, stats) =
            capture(|| jp_pebble::portfolio::portfolio_effective_cost(&g, 4).unwrap());
        assert_eq!(cost, 12);
        assert_eq!(stats.span_counts["portfolio.race"], 1);
        assert_eq!(stats.counters["portfolio.workers"], 4);
        assert_eq!(stats.counters["par.workers"], 4);
    }

    #[test]
    fn capture_traced_streams_events_alongside_the_snapshot() {
        let dir = std::env::temp_dir().join(format!("jp-capture-traced-{}", std::process::id()));
        let trace = dir.join("nested").join("run.jsonl");
        let g = jp_graph::generators::spider(5);
        let (cost, _wall, stats) = capture_traced(&trace, || {
            jp_pebble::exact::optimal_effective_cost(&g).unwrap()
        })
        .unwrap();
        assert_eq!(cost, 12);
        assert_eq!(stats.counters["exact.edges"], 10);
        // the trace carries the same run, line by line, as parseable events
        let text = std::fs::read_to_string(&trace).unwrap();
        let events: Vec<jp_obs::Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| e.component == "exact" && e.name == "solve"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_json_is_deterministic_and_key_sorted() {
        // counters inserted in reverse order still serialize sorted, two
        // serializations of the same snapshot are byte-identical, and
        // scheduling, memory and timing keys are left out
        let ((), _, stats) = capture(|| {
            jp_obs::counter("zeta", "last", 1);
            jp_obs::counter("alpha", "first", 2);
            jp_obs::counter("mid", "between", 3);
            jp_obs::counter("par", "tasks", 4);
            jp_obs::counter("mem", "total.allocs", 5);
            let _span = jp_obs::span("exact", "solve");
        });
        let m = RunMetrics::new("det", "determinism", true, stats);
        assert_eq!(m.counters.len(), 3, "{:?}", m.counters);
        assert_eq!(m.span_counts["exact.solve"], 1);
        let a = serde_json::to_string_pretty(&m).unwrap();
        assert!(!a.contains("par.tasks") && !a.contains("mem.") && !a.contains("micros"));
        let b = serde_json::to_string_pretty(&m).unwrap();
        assert_eq!(a, b);
        let alpha = a.find("alpha.first").unwrap();
        let mid = a.find("mid.between").unwrap();
        let zeta = a.find("zeta.last").unwrap();
        assert!(alpha < mid && mid < zeta, "counter keys must be sorted");
        // and parsing + re-serializing reproduces the same bytes
        let back: RunMetrics = serde_json::from_str(&a).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), a);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let ((), _, stats) = capture(|| {
            jp_obs::counter("bench", "cases", 3);
        });
        let m = RunMetrics::new("E0", "test", true, stats);
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"bench.cases\""));
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        let dir = std::env::temp_dir().join(format!("jp-metrics-{}", std::process::id()));
        let path = write_metrics(&dir, &m).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: RunMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }
}
