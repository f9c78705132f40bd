//! Tail-based request sampling for jp-serve.
//!
//! Capturing a full jp-obs trace of a serving run is the right tool in
//! CI, where the workload is small and the bytes are cheap. A
//! long-lived server wants the opposite trade: keep the *interesting*
//! requests at full detail and throw the rest away. The interesting
//! ones are in the tail — a request is worth keeping only once it has
//! finished slow or wrong, which is after its spans were emitted. So
//! the sampler must buffer first and decide later; that is tail-based
//! sampling.
//!
//! [`Xray`] is a secondary jp-obs sink (installed with
//! [`jp_obs::set_tap`], so it composes with a full `--trace` capture
//! rather than replacing it) that:
//!
//! * buffers every request-stamped event in a bounded ring keyed by
//!   request id — at most `xray_ring` in-flight requests are held, and
//!   admitting a new request past the bound evicts the oldest buffer
//!   whole (counted, never silently);
//! * on [`Xray::finish`] — called by the connection handler once the
//!   response frame is on the wire, so the `serve.wire` span is
//!   already in the buffer — flushes the request's *entire* event set
//!   to the xray file when it ran slower than `slow_us` or errored (an
//!   **exemplar**), and only its `serve.request` root span otherwise
//!   (**downsampled**: latency accounting survives, detail does not) —
//!   in both cases parent links pointing outside the request's own
//!   buffered spans are severed, so each flushed request is
//!   self-contained and `jp trace request` reconstructs it COMPLETE
//!   without the surrounding full trace;
//! * reports itself through jp-pulse: the `xray.ring_requests` gauge
//!   (buffer occupancy) and the `xray.exemplars` /
//!   `xray.dropped_requests` counters.
//!
//! The output file is ordinary schema-v2 JSONL, so `jp trace request`,
//! `jp trace flame --request`, and every other trace reader consume it
//! directly.

use jp_obs::{Event, EventKind, Sink};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tail-sampler configuration; the serve CLI exposes each knob as a
/// named flag.
#[derive(Debug, Clone)]
pub struct XrayConfig {
    /// Latency threshold in microseconds: a request at or above it is
    /// flushed at full detail.
    pub slow_us: u64,
    /// Bound on concurrently buffered requests (the ring); at least 1.
    pub ring: usize,
    /// Where the sampled JSONL goes (created/truncated at install).
    pub path: PathBuf,
}

/// In-flight buffers: insertion-ordered so eviction is oldest-first.
#[derive(Default)]
struct Ring {
    order: VecDeque<u64>,
    buf: HashMap<u64, Vec<Event>>,
}

impl Ring {
    /// Buffers one event, evicting oldest requests to respect `cap`.
    /// Returns how many whole requests were evicted.
    fn push(&mut self, id: u64, event: Event, cap: usize) -> u64 {
        if let Some(events) = self.buf.get_mut(&id) {
            events.push(event);
            return 0;
        }
        let mut evicted = 0;
        while self.order.len() >= cap.max(1) {
            if let Some(old) = self.order.pop_front() {
                self.buf.remove(&old);
                evicted += 1;
            } else {
                break;
            }
        }
        self.order.push_back(id);
        self.buf.insert(id, vec![event]);
        evicted
    }

    /// Removes and returns one request's buffer, if it survived.
    fn take(&mut self, id: u64) -> Option<Vec<Event>> {
        let events = self.buf.remove(&id)?;
        self.order.retain(|&q| q != id);
        Some(events)
    }
}

/// The tail sampler. One per [`crate::Server`] lifetime; installed as
/// the process-wide jp-obs tap for the duration of `run`.
pub struct Xray {
    cfg: XrayConfig,
    ring: Mutex<Ring>,
    out: Mutex<std::fs::File>,
    exemplars: AtomicU64,
    downsampled: AtomicU64,
    dropped: AtomicU64,
}

impl Xray {
    /// Creates (truncating) the output file and an empty ring.
    // audit:allow(obs-coverage) sink construction — the sampler consumes obs events, emitting its own would recurse
    pub fn create(cfg: XrayConfig) -> io::Result<Xray> {
        let file = std::fs::File::create(cfg.path.as_path())?;
        Ok(Xray {
            cfg,
            ring: Mutex::new(Ring::default()),
            out: Mutex::new(file),
            exemplars: AtomicU64::new(0),
            downsampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// The configured output path.
    // audit:allow(obs-coverage) trivial accessor
    pub fn path(&self) -> &Path {
        self.cfg.path.as_path()
    }

    /// Requests flushed at full detail (slow or errored).
    // audit:allow(obs-coverage) trivial accessor
    pub fn exemplars(&self) -> u64 {
        // race:order(monotone accounting counter, no ordering dependency)
        self.exemplars.load(Ordering::Relaxed)
    }

    /// Requests reduced to their root span line.
    // audit:allow(obs-coverage) trivial accessor
    pub fn downsampled(&self) -> u64 {
        // race:order(monotone accounting counter, no ordering dependency)
        self.downsampled.load(Ordering::Relaxed)
    }

    /// Requests evicted from the ring before they finished.
    // audit:allow(obs-coverage) trivial accessor
    pub fn dropped(&self) -> u64 {
        // race:order(monotone accounting counter, no ordering dependency)
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ends one request's buffering and applies the tail-sampling
    /// decision. `micros` is the handler-observed total (parse →
    /// response written), which is the latency a client saw; `error`
    /// forces exemplar treatment regardless of latency.
    // audit:allow(obs-coverage) runs inside the request's already-open serve spans; opening another here would self-trace the sampler
    pub fn finish(&self, request: u64, micros: u64, error: bool) {
        let (events, occupancy) = {
            let mut ring = lock(&self.ring);
            let events = ring.take(request);
            (events, ring.order.len() as u64)
        };
        jp_pulse::gauge_set("xray.ring_requests", occupancy);
        let Some(events) = events else {
            // evicted before it finished (already counted), or the
            // request predates the sampler — nothing to decide
            return;
        };
        let exemplar = error || micros >= self.cfg.slow_us;
        let kept: Vec<&Event> = events
            .iter()
            .filter(|event| {
                exemplar
                    || (event.kind == EventKind::Span
                        && event.component == "serve"
                        && event.name == "request")
            })
            .collect();
        // The buffer holds only this request's stamped events; a parent
        // link reaching outside it (an unstamped span that was open on
        // the thread when the request began) would dangle in the
        // sidecar file and read as a hole to
        // `jp trace request`. Sever those links so each flushed request
        // is self-contained and reconstructs COMPLETE on its own.
        let own_spans: std::collections::BTreeSet<u64> = kept
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| e.seq)
            .collect();
        let mut lines = String::new();
        for event in kept {
            let mut event = event.clone();
            if event.parent.is_some_and(|p| !own_spans.contains(&p)) {
                event.parent = None;
            }
            if let Ok(line) = serde_json::to_string(&event) {
                lines.push_str(&line);
                lines.push('\n');
            }
        }
        {
            let mut out = lock(&self.out);
            // a full disk must not take the server down; the drop is
            // visible as a short xray file, not a crash
            let _ = out.write_all(lines.as_bytes());
        }
        if exemplar {
            // race:order(monotone accounting counter, no ordering dependency)
            self.exemplars.fetch_add(1, Ordering::Relaxed);
            jp_pulse::counter_add("xray.exemplars", 1);
        } else {
            // race:order(monotone accounting counter, no ordering dependency)
            self.downsampled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Sink for Xray {
    /// Buffers one request-stamped event; everything unstamped (global
    /// totals, server-wide telemetry) is not this sampler's business.
    // audit:allow(obs-coverage) sink callback — runs inside jp-obs dispatch, emitting from here would recurse
    fn record(&self, event: &Event) {
        let Some(id) = event.request else {
            return;
        };
        let (evicted, occupancy) = {
            let mut ring = lock(&self.ring);
            let evicted = ring.push(id, event.clone(), self.cfg.ring);
            (evicted, ring.order.len() as u64)
        };
        if evicted > 0 {
            // race:order(monotone accounting counter, no ordering dependency)
            self.dropped.fetch_add(evicted, Ordering::Relaxed);
            jp_pulse::counter_add("xray.dropped_requests", evicted);
        }
        jp_pulse::gauge_set("xray.ring_requests", occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_obs::Event;

    fn dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("jp-xray-unit-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    fn stamped(seq: u64, component: &str, name: &str, request: u64) -> Event {
        let mut e = Event::span(component, name, 10);
        e.seq = seq;
        e.request = Some(request);
        e
    }

    fn read_lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .expect("xray file")
            .lines()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn slow_requests_keep_full_detail_fast_ones_keep_the_root() {
        let path = dir().join("tail.jsonl");
        let xr = Xray::create(XrayConfig {
            slow_us: 1000,
            ring: 8,
            path: path.clone(),
        })
        .expect("create");
        for (req, seqs) in [(1u64, [1u64, 2, 3]), (2, [4, 5, 6])] {
            xr.record(&stamped(seqs[0], "memo", "probe", req));
            xr.record(&stamped(seqs[1], "serve", "request", req));
            xr.record(&stamped(seqs[2], "serve", "wire", req));
        }
        xr.finish(1, 5000, false); // slow: exemplar
        xr.finish(2, 40, false); // fast: root span only
        assert_eq!((xr.exemplars(), xr.downsampled(), xr.dropped()), (1, 1, 0));
        let lines = read_lines(&path);
        assert_eq!(lines.len(), 4, "{lines:#?}");
        let of_req1: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"request\":1"))
            .collect();
        assert_eq!(of_req1.len(), 3, "exemplar keeps every span");
        let of_req2: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"request\":2"))
            .collect();
        assert_eq!(of_req2.len(), 1, "downsampled keeps the root");
        assert!(of_req2[0].contains("\"name\":\"request\""), "{of_req2:?}");
    }

    #[test]
    fn errors_are_exemplars_at_any_latency() {
        let path = dir().join("err.jsonl");
        let xr = Xray::create(XrayConfig {
            slow_us: u64::MAX,
            ring: 8,
            path: path.clone(),
        })
        .expect("create");
        xr.record(&stamped(1, "serve", "request", 9));
        xr.record(&stamped(2, "serve", "wire", 9));
        xr.finish(9, 1, true);
        assert_eq!(xr.exemplars(), 1);
        assert_eq!(read_lines(&path).len(), 2);
    }

    #[test]
    fn the_ring_bound_evicts_oldest_and_counts_the_drop() {
        let path = dir().join("ring.jsonl");
        let xr = Xray::create(XrayConfig {
            slow_us: 0,
            ring: 2,
            path: path.clone(),
        })
        .expect("create");
        xr.record(&stamped(1, "serve", "request", 1));
        xr.record(&stamped(2, "serve", "request", 2));
        xr.record(&stamped(3, "serve", "request", 3)); // evicts request 1
        assert_eq!(xr.dropped(), 1);
        xr.finish(1, 10_000, false); // gone: no line, no exemplar
        assert_eq!(xr.exemplars(), 0);
        assert_eq!(read_lines(&path).len(), 0);
        xr.finish(2, 10_000, false);
        xr.finish(3, 10_000, false);
        assert_eq!(xr.exemplars(), 2);
        assert_eq!(read_lines(&path).len(), 2);
    }

    #[test]
    fn parent_links_outside_the_request_are_severed_on_flush() {
        let path = dir().join("sever.jsonl");
        let xr = Xray::create(XrayConfig {
            slow_us: 0,
            ring: 4,
            path: path.clone(),
        })
        .expect("create");
        // root parents under an unstamped outer span (seq 99, not
        // buffered); the wire span parents under the root (seq 2, kept)
        let mut root = stamped(2, "serve", "request", 7);
        root.parent = Some(99);
        let mut wire = stamped(3, "serve", "wire", 7);
        wire.parent = Some(2);
        xr.record(&root);
        xr.record(&wire);
        xr.finish(7, 50, false);
        let lines = read_lines(&path);
        assert_eq!(lines.len(), 2, "{lines:#?}");
        let root_line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"request\""))
            .unwrap();
        assert!(!root_line.contains("\"parent\""), "{root_line}");
        let wire_line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"wire\""))
            .unwrap();
        assert!(wire_line.contains("\"parent\":2"), "{wire_line}");
    }

    #[test]
    fn unstamped_events_are_ignored() {
        let path = dir().join("unstamped.jsonl");
        let xr = Xray::create(XrayConfig {
            slow_us: 0,
            ring: 2,
            path,
        })
        .expect("create");
        xr.record(&Event::counter("serve", "completed_total", 7));
        let ring = lock(&xr.ring);
        assert!(ring.buf.is_empty());
    }
}
