//! Per-request reconstruction: everything one serve request did,
//! across threads, with a blame breakdown.
//!
//! jp-serve stamps every jp-obs event a request causes with the
//! client-minted tracing id (`Event::request`): the handler's
//! `serve.request` span and `serve.queue_wait_us` counter, its
//! `serve.wire` span, and everything the solver ladder emits underneath
//! — memo probes, wcoj operators, exact/bb search spans — including the
//! events of jp-par workers a solve fans out to. This module inverts
//! that: given a trace (a full `--trace` capture or a server's
//! tail-sampled xray file) and an id, it rebuilds the request's
//! cross-thread span tree,
//! walks its critical path, and attributes the latency to five blame
//! buckets:
//!
//! * **queue** — admission to solver-slot acquisition, from the
//!   `serve.queue_wait_us` counter (time spent waiting, not working);
//! * **memo** — self-time of `memo.*` spans (warm-store probes);
//! * **wcoj** — self-time of `wcoj.*` spans (multiway join operators);
//! * **wire** — `serve.wire` span time (response serialization and
//!   socket write);
//! * **solve** — self-time of every other span in the request,
//!   including the `serve.request` root's own time: solver work not
//!   otherwise attributed.
//!
//! Self-times decompose exactly (a span's children are subtracted
//! from it), so `memo + wcoj + solve` equals the `serve.request`
//! total whenever the capture is complete — and completeness is
//! checked, not assumed: an event whose `parent` seq resolves neither
//! inside the request nor anywhere in the surrounding trace is an
//! **orphan**, and a request with orphans (or no root span) is
//! reported `INCOMPLETE`. `jp trace request all --min-complete 95`
//! turns that into a CI gate.

use crate::analyze::Analysis;
use jp_obs::{Event, EventKind};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// One span on the request's critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PathStep {
    /// The span's seq.
    pub seq: u64,
    /// Emitting thread — consecutive steps with different threads are
    /// the cross-thread handoffs.
    pub thread: u64,
    /// `component.name` key.
    pub key: String,
    /// Microsecond offset at which the span opened.
    pub start: u64,
    /// Elapsed microseconds.
    pub micros: u64,
    /// Nesting depth along the path (root = 0).
    pub depth: u64,
}

/// Where one request's latency went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Blame {
    /// Admission-to-execution wait (`serve.queue_wait_us`).
    pub queue_us: u64,
    /// Self-time of solver-side spans not attributed elsewhere,
    /// including the `serve.request` root's own time.
    pub solve_us: u64,
    /// Self-time of warm-store (`memo.*`) spans.
    pub memo_us: u64,
    /// Self-time of multiway-join (`wcoj.*`) spans.
    pub wcoj_us: u64,
    /// Response serialization + socket write (`serve.wire`).
    pub wire_us: u64,
}

impl Blame {
    /// Total attributed microseconds.
    pub fn total(&self) -> u64 {
        self.queue_us
            .saturating_add(self.solve_us)
            .saturating_add(self.memo_us)
            .saturating_add(self.wcoj_us)
            .saturating_add(self.wire_us)
    }
}

/// Everything reconstructed for one request id.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestTrace {
    /// The tracing id.
    pub request: u64,
    /// Events stamped with it.
    pub events: u64,
    /// Span events among them.
    pub spans: u64,
    /// Counter events among them.
    pub counters: u64,
    /// Distinct threads the request touched.
    pub threads: Vec<u64>,
    /// Duration of the `serve.request` root span, when present.
    pub total_us: u64,
    /// The blame breakdown.
    pub blame: Blame,
    /// Request events whose `parent` seq resolves neither inside the
    /// request nor anywhere in the surrounding trace.
    pub orphans: u64,
    /// Whether a `serve.request` root was found.
    pub has_root: bool,
    /// The cross-thread critical path, root first.
    pub critical_path: Vec<PathStep>,
}

impl RequestTrace {
    /// Zero orphans and a root to hang the reconstruction on.
    pub fn complete(&self) -> bool {
        self.orphans == 0 && self.has_root
    }

    /// Renders the human-readable report (`jp trace request <id>`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "request {}: {} event(s) ({} spans, {} counters) on {} thread(s) — {}\n",
            self.request,
            self.events,
            self.spans,
            self.counters,
            self.threads.len(),
            if self.complete() {
                "COMPLETE"
            } else {
                "INCOMPLETE"
            }
        ));
        if !self.has_root {
            out.push_str("  no serve.request root span in this capture\n");
        }
        if self.orphans > 0 {
            out.push_str(&format!(
                "  {} orphaned event(s): parent spans missing from the capture\n",
                self.orphans
            ));
        }
        let total = self.total_us.max(1);
        out.push_str(&format!(
            "blame (total {} µs in serve.request, +{} µs queue, +{} µs wire):\n",
            self.total_us, self.blame.queue_us, self.blame.wire_us
        ));
        for (label, us) in [
            ("queue", self.blame.queue_us),
            ("solve", self.blame.solve_us),
            ("memo", self.blame.memo_us),
            ("wcoj", self.blame.wcoj_us),
            ("wire", self.blame.wire_us),
        ] {
            out.push_str(&format!(
                "  {label:<6} {us:>10} µs  ({:>3}% of solve window)\n",
                us.saturating_mul(100) / total
            ));
        }
        out.push_str("critical path:\n");
        for step in &self.critical_path {
            let indent = "  ".repeat((step.depth + 1) as usize);
            out.push_str(&format!(
                "{indent}{key:<32} {micros:>8} µs  @ {start} µs, thread {thread} (seq {seq})\n",
                key = step.key,
                micros = step.micros,
                start = step.start,
                thread = step.thread,
                seq = step.seq
            ));
        }
        out
    }
}

/// Summary over every request in a trace (`jp trace request all`).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RequestSummary {
    /// Requests seen (distinct stamped ids).
    pub requests: u64,
    /// Requests whose reconstruction is complete (zero orphans and a
    /// `serve.request` root).
    pub complete: u64,
    /// `complete / requests` in percent (100 when empty).
    pub complete_pct: u64,
    /// Per-request reconstructions, slowest first.
    pub traces: Vec<RequestTrace>,
}

impl RequestSummary {
    /// Renders the all-requests table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} request(s), {} complete ({}%)\n",
            self.requests, self.complete, self.complete_pct
        ));
        for t in &self.traces {
            out.push_str(&format!(
                "  request {:<22} {:>8} µs  queue {:>6} solve {:>6} memo {:>6} wcoj {:>6} wire {:>6}  {}\n",
                t.request,
                t.total_us,
                t.blame.queue_us,
                t.blame.solve_us,
                t.blame.memo_us,
                t.blame.wcoj_us,
                t.blame.wire_us,
                if t.complete() { "ok" } else { "INCOMPLETE" }
            ));
        }
        out
    }
}

/// Reconstructs one request from a trace. Returns `None` when no
/// event is stamped with `id`.
pub fn reconstruct(events: &[Event], id: u64) -> Option<RequestTrace> {
    let all_span_seqs: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| e.seq)
        .collect();
    let mine: Vec<&Event> = events.iter().filter(|e| e.request == Some(id)).collect();
    if mine.is_empty() {
        return None;
    }
    Some(build(id, &mine, &all_span_seqs))
}

/// Reconstructs every stamped request in the trace, slowest first.
pub fn reconstruct_all(events: &[Event]) -> RequestSummary {
    let all_span_seqs: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| e.seq)
        .collect();
    let mut by_id: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        if let Some(id) = e.request {
            by_id.entry(id).or_default().push(e);
        }
    }
    let mut traces: Vec<RequestTrace> = by_id
        .iter()
        .map(|(&id, mine)| build(id, mine, &all_span_seqs))
        .collect();
    traces.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.request.cmp(&b.request)));
    let requests = traces.len() as u64;
    let complete = traces.iter().filter(|t| t.complete()).count() as u64;
    RequestSummary {
        requests,
        complete,
        complete_pct: complete
            .saturating_mul(100)
            .checked_div(requests)
            .unwrap_or(100),
        traces,
    }
}

/// Blame bucket of one span key's *self* time.
fn bucket_of(key: &str) -> fn(&mut Blame) -> &mut u64 {
    if key == "serve.wire" {
        |b| &mut b.wire_us
    } else if key.starts_with("memo.") {
        |b| &mut b.memo_us
    } else if key.starts_with("wcoj.") {
        |b| &mut b.wcoj_us
    } else {
        |b| &mut b.solve_us
    }
}

fn build(id: u64, mine: &[&Event], all_span_seqs: &BTreeSet<u64>) -> RequestTrace {
    let owned: Vec<Event> = mine.iter().map(|e| (*e).clone()).collect();
    // Reuse the span-tree machinery: within one request the parent
    // links form the same reserved-seq topology as a full trace.
    let analysis = Analysis::from_events(&owned);

    let mut trace = RequestTrace {
        request: id,
        events: mine.len() as u64,
        spans: 0,
        counters: 0,
        threads: Vec::new(),
        total_us: 0,
        blame: Blame::default(),
        orphans: 0,
        has_root: false,
        critical_path: Vec::new(),
    };
    let mut threads: BTreeSet<u64> = BTreeSet::new();
    for e in mine {
        threads.insert(e.thread);
        match e.kind {
            EventKind::Span => trace.spans += 1,
            EventKind::Counter => trace.counters += 1,
        }
        // Orphan = the parent resolves nowhere: not to a span of this
        // request and not to any span in the surrounding trace. A
        // parent outside the request (an unstamped span of whatever
        // called into the request) is a normal cross-request boundary,
        // not a hole.
        if let Some(p) = e.parent {
            if !all_span_seqs.contains(&p) {
                trace.orphans += 1;
            }
        }
        if e.kind == EventKind::Counter && e.component == "serve" && e.name == "queue_wait_us" {
            trace.blame.queue_us = trace.blame.queue_us.saturating_add(e.value);
        }
    }
    trace.threads = threads.into_iter().collect();

    // Self-time blame: subtract in-request children from each span.
    for node in &analysis.nodes {
        let children: u64 = node
            .children
            .iter()
            .filter_map(|&c| analysis.nodes.get(c))
            .fold(0u64, |acc, c| acc.saturating_add(c.micros));
        let self_us = node.micros.saturating_sub(children);
        let slot = bucket_of(&node.key);
        *slot(&mut trace.blame) = slot(&mut trace.blame).saturating_add(self_us);
    }

    // The root: the request's serve.request span (the solve window).
    let root_idx = analysis
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.key == "serve.request")
        .max_by_key(|(_, n)| n.micros)
        .map(|(i, _)| i);
    if let Some(ri) = root_idx {
        trace.has_root = true;
        trace.total_us = analysis.nodes.get(ri).map_or(0, |n| n.micros);
        // Critical path: from the root, repeatedly descend into the
        // child that *finishes last* — the span that was still running
        // when its parent closed, i.e. the one gating completion.
        let mut at = ri;
        let mut depth = 0u64;
        let mut hops = 0usize;
        while let Some(node) = analysis.nodes.get(at) {
            trace.critical_path.push(PathStep {
                seq: node.seq,
                thread: node.thread,
                key: node.key.clone(),
                start: node.start,
                micros: node.micros,
                depth,
            });
            hops += 1;
            if hops > analysis.nodes.len() {
                break; // defensive: a cycle cannot occur (seqs strictly grow), but never loop
            }
            let next = node
                .children
                .iter()
                .filter(|&&c| c != at)
                .max_by_key(|&&c| {
                    analysis
                        .nodes
                        .get(c)
                        .map_or(0, |n| n.start.saturating_add(n.micros))
                })
                .copied();
            match next {
                Some(n) => {
                    at = n;
                    depth += 1;
                }
                None => break,
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, thread: u64, key: (&str, &str), micros: u64) -> Event {
        let mut e = Event::span(key.0, key.1, micros);
        e.seq = seq;
        e.thread = thread;
        e
    }

    fn stamp(mut e: Event, request: u64, parent: Option<u64>, start: u64) -> Event {
        e.request = Some(request);
        e.parent = parent;
        e.start = start;
        e
    }

    /// A two-request trace shaped like a real serve run: an unstamped
    /// par.run batch span, and per request a serve.request root with a
    /// memo probe + solver span under it, a queue-wait counter, and a
    /// handler-side wire span on another thread.
    fn serve_like_trace() -> Vec<Event> {
        let mut par_run = span(10, 2, ("par", "run"), 900);
        par_run.start = 100;
        let mut c1 = Event::counter("serve", "queue_wait_us", 40);
        c1 = stamp(c1, 71, Some(11), 210);
        c1.seq = 12;
        c1.thread = 2;
        let mut c2 = Event::counter("serve", "queue_wait_us", 15);
        c2 = stamp(c2, 72, Some(21), 510);
        c2.seq = 22;
        c2.thread = 3;
        vec![
            par_run,
            // request 71: 300 µs total = 50 memo + 200 exact + 50 self
            stamp(span(11, 2, ("serve", "request"), 300), 71, Some(10), 200),
            c1,
            stamp(span(13, 2, ("memo", "probe"), 50), 71, Some(11), 220),
            stamp(span(14, 2, ("exact", "solve"), 200), 71, Some(11), 280),
            stamp(span(15, 1, ("serve", "wire"), 25), 71, None, 520),
            // request 72: 100 µs total, all solver self-time
            stamp(span(21, 3, ("serve", "request"), 100), 72, Some(10), 500),
            c2,
            stamp(span(23, 1, ("serve", "wire"), 10), 72, None, 620),
        ]
    }

    #[test]
    fn blame_decomposes_the_request_exactly() {
        let events = serve_like_trace();
        let t = reconstruct(&events, 71).expect("request 71 exists");
        assert!(t.complete(), "{t:?}");
        assert_eq!(t.total_us, 300);
        assert_eq!(t.blame.queue_us, 40);
        assert_eq!(t.blame.memo_us, 50);
        assert_eq!(t.blame.solve_us, 250, "exact.solve 200 + root self 50");
        assert_eq!(t.blame.wire_us, 25);
        assert_eq!(t.blame.wcoj_us, 0);
        // memo + solve == serve.request total: exact decomposition
        assert_eq!(t.blame.memo_us + t.blame.solve_us, t.total_us);
        assert_eq!(t.threads, vec![1, 2]);
        assert_eq!(t.events, 5);
    }

    #[test]
    fn the_critical_path_descends_into_the_latest_finishing_child() {
        let events = serve_like_trace();
        let t = reconstruct(&events, 71).expect("request 71 exists");
        let keys: Vec<&str> = t.critical_path.iter().map(|s| s.key.as_str()).collect();
        // exact.solve ends at 480, memo.probe at 270 — the path takes
        // the solver branch
        assert_eq!(keys, vec!["serve.request", "exact.solve"]);
        assert!(t.render().contains("COMPLETE"));
        assert!(t.render().contains("exact.solve"));
    }

    #[test]
    fn a_parent_outside_the_request_but_in_the_trace_is_not_an_orphan() {
        let events = serve_like_trace();
        // both requests parent under the unstamped par.run batch span
        let t71 = reconstruct(&events, 71).expect("request 71");
        let t72 = reconstruct(&events, 72).expect("request 72");
        assert_eq!((t71.orphans, t72.orphans), (0, 0));
    }

    #[test]
    fn a_missing_parent_span_is_an_orphan_and_incomplete() {
        let mut events = serve_like_trace();
        events.retain(|e| e.seq != 10); // drop the par.run span
        let t = reconstruct(&events, 71).expect("request 71");
        assert_eq!(t.orphans, 1);
        assert!(!t.complete());
        assert!(t.render().contains("INCOMPLETE"));
    }

    #[test]
    fn the_all_summary_counts_completeness_and_sorts_by_latency() {
        let events = serve_like_trace();
        let s = reconstruct_all(&events);
        assert_eq!((s.requests, s.complete, s.complete_pct), (2, 2, 100));
        let order: Vec<u64> = s.traces.iter().map(|t| t.request).collect();
        assert_eq!(order, vec![71, 72], "slowest first");
        assert!(s.render().contains("2 request(s), 2 complete (100%)"));
    }

    #[test]
    fn unknown_ids_and_unstamped_traces_reconstruct_to_nothing() {
        let events = serve_like_trace();
        assert!(reconstruct(&events, 999).is_none());
        let unstamped = [span(1, 1, ("exact", "solve"), 10)];
        let s = reconstruct_all(&unstamped);
        assert_eq!((s.requests, s.complete_pct), (0, 100));
    }

    #[test]
    fn a_rootless_request_renders_incomplete_with_the_reason() {
        let events = [stamp(span(5, 1, ("serve", "wire"), 10), 9, None, 0)];
        let t = reconstruct(&events, 9).expect("request 9");
        assert!(!t.has_root);
        assert!(!t.complete());
        assert!(t.render().contains("no serve.request root"));
    }
}
