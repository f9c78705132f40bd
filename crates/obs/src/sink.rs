//! Event destinations.

use crate::event::{Event, EventKind};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receives every emitted [`Event`].
///
/// Implementations must be cheap and non-blocking where possible: they
/// run inline on the solver thread.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Discards everything. Useful as an explicit "measured but unobserved"
/// placeholder; with no sink installed the emitters short-circuit before
/// even constructing an event, which is cheaper still.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Writes each event as one JSON object per line.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// A sink writing to (truncating) the file at `path`.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// A sink writing to stderr.
    pub fn to_stderr() -> Self {
        Self::to_writer(Box::new(io::stderr()))
    }

    /// A sink writing to an arbitrary writer.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(w)),
        }
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A broken pipe mid-trace should not take the solver down.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // audit:allow(guard-across-call) flushes the writer this guard protects; it emits nothing and takes no other lock
        let _ = out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// Buffers events in memory; the test workhorse.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Aggregated view of a run, keyed by `component.name`.
///
/// Counters accumulate their values; spans accumulate call counts,
/// total microseconds, and the exact per-call duration histogram behind
/// the p50/p95/max columns. Round-trips through `serde_json` with
/// deterministic (sorted-key) output: every map is a `BTreeMap` and the
/// duration lists are sorted ascending in a [`StatsSink::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StatsSnapshot {
    /// Total per counter signal.
    pub counters: BTreeMap<String, u64>,
    /// Number of span events per signal.
    pub span_counts: BTreeMap<String, u64>,
    /// Total elapsed microseconds per span signal.
    pub span_micros: BTreeMap<String, u64>,
    /// Every span duration per signal (microseconds, sorted ascending in
    /// snapshots) — the exact histogram behind the percentile columns.
    pub span_values: BTreeMap<String, Vec<u64>>,
}

// Hand-written so snapshots serialized by older builds (no
// `span_values`, e.g. the committed bench baselines from earlier PRs)
// still deserialize: any missing map is simply empty.
impl serde::Deserialize for StatsSnapshot {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("object for `StatsSnapshot`", content))?;
        Ok(StatsSnapshot {
            counters: serde::field::<Option<_>>(map, "StatsSnapshot", "counters")?
                .unwrap_or_default(),
            span_counts: serde::field::<Option<_>>(map, "StatsSnapshot", "span_counts")?
                .unwrap_or_default(),
            span_micros: serde::field::<Option<_>>(map, "StatsSnapshot", "span_micros")?
                .unwrap_or_default(),
            span_values: serde::field::<Option<_>>(map, "StatsSnapshot", "span_values")?
                .unwrap_or_default(),
        })
    }
}

impl StatsSnapshot {
    /// Renders a human-readable summary (for `--stats`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (key, v) in &self.counters {
                out.push_str(&format!("  {key:<40} {v}\n"));
            }
        }
        if !self.span_micros.is_empty() {
            out.push_str("spans:\n");
            for (key, micros) in &self.span_micros {
                let calls = self.span_counts.get(key).copied().unwrap_or(0);
                let mut values = self.span_values.get(key).cloned().unwrap_or_default();
                values.sort_unstable();
                let p50 = crate::nearest_rank(&values, 0.50);
                let p95 = crate::nearest_rank(&values, 0.95);
                let p99 = crate::nearest_rank(&values, 0.99);
                let max = values.last().copied().unwrap_or(0);
                out.push_str(&format!(
                    "  {key:<40} {micros} µs over {calls} call(s), p50 {p50} p95 {p95} p99 {p99} max {max} µs\n"
                ));
            }
        }
        if out.is_empty() {
            out.push_str("no events recorded\n");
        }
        out
    }
}

/// Aggregates events into a [`StatsSnapshot`] without retaining them.
#[derive(Debug, Default)]
pub struct StatsSink {
    snapshot: Mutex<StatsSnapshot>,
}

impl StatsSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregation so far, with every duration list sorted ascending
    /// so serialized snapshots are deterministic.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = self
            .snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        for values in snap.span_values.values_mut() {
            values.sort_unstable();
        }
        snap
    }
}

impl Sink for StatsSink {
    fn record(&self, event: &Event) {
        let key = format!("{}.{}", event.component, event.name);
        let mut snap = self.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        match event.kind {
            EventKind::Counter => {
                *snap.counters.entry(key).or_insert(0) += event.value;
            }
            EventKind::Span => {
                *snap.span_counts.entry(key.clone()).or_insert(0) += 1;
                *snap.span_micros.entry(key.clone()).or_insert(0) += event.value;
                snap.span_values.entry(key).or_default().push(event.value);
            }
        }
    }
}

/// Tees every event to several sinks (e.g. `--trace` and `--stats`
/// together).
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl FanoutSink {
    /// A sink forwarding to all of `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_sink_aggregates_by_component_and_name() {
        let sink = StatsSink::new();
        sink.record(&Event::counter("bb", "nodes", 10));
        sink.record(&Event::counter("bb", "nodes", 5));
        sink.record(&Event::counter("exact", "nodes", 1));
        sink.record(&Event::span("bb", "search", 100));
        sink.record(&Event::span("bb", "search", 50));
        let snap = sink.snapshot();
        assert_eq!(snap.counters["bb.nodes"], 15);
        assert_eq!(snap.counters["exact.nodes"], 1);
        assert_eq!(snap.span_counts["bb.search"], 2);
        assert_eq!(snap.span_micros["bb.search"], 150);
        assert_eq!(snap.span_values["bb.search"], vec![50, 100]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshots_without_span_values_still_deserialize() {
        // The shape serialized before span_values existed (committed
        // bench baselines from earlier revisions).
        let json = r#"{"counters":{"bb.nodes":3},"span_counts":{"bb.search":1},"span_micros":{"bb.search":9}}"#;
        let snap: StatsSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(snap.counters["bb.nodes"], 3);
        assert!(snap.span_values.is_empty());
    }

    #[test]
    fn render_reports_exact_percentiles() {
        let sink = StatsSink::new();
        for v in [10, 20, 30, 40, 1000] {
            sink.record(&Event::span("bb", "search", v));
        }
        let text = sink.snapshot().render();
        assert!(
            text.contains("p50 30 p95 1000 p99 1000 max 1000"),
            "render = {text}"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let path = std::env::temp_dir().join("jp_obs_sink_test.jsonl");
        {
            let sink = JsonlSink::to_file(&path).unwrap();
            sink.record(&Event::counter("a", "x", 1));
            sink.record(&Event::span("a", "s", 2));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let e: Event = serde_json::from_str(line).unwrap();
            assert_eq!(e.component, "a");
        }
        let _ = std::fs::remove_file(&path);
    }
}
