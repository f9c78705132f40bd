//! The pulse sampler: a background thread that periodically snapshots
//! the registry (and the allocation accounting) into a JSONL file.
//!
//! Each snapshot is a group of schema-v2 [`jp_obs::Event`] lines with
//! kind `Counter` and component `"pulse"`, so the damage-tolerant
//! jp-trace reader consumes pulse files with zero new parsing code. A
//! snapshot starts with a marker line named `"snapshot"` whose value is
//! the snapshot ordinal (1-based) and whose `start` field is the
//! microsecond offset since the sampler started; the registry samples
//! and `mem.*` lines of that snapshot follow with the same `start`.
//!
//! Lifecycle: the caller opens a live `jp_obs::ScopedSink`, which turns
//! the registry on for its member threads; [`Sampler::start`] spawns the
//! thread and returns. [`Sampler::stop`] signals the thread, which
//! writes **one final snapshot after the signal** before exiting — the
//! guarantee behind "at least one snapshot, and the last one carries the
//! final counter values" even for runs shorter than the interval.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jp_obs::{Event, EventKind};

use crate::mem;

/// Component string on every pulse line.
pub const PULSE_COMPONENT: &str = "pulse";
/// Name of the per-snapshot marker line.
pub const SNAPSHOT_MARKER: &str = "snapshot";
/// Name of the per-snapshot write-failure counter line: snapshot or
/// flush errors (full disk, revoked fd) silently swallowed before are
/// now counted here, so `jp pulse top` and the CI pulse-check see a
/// nonzero `pulse.write_errors` instead of a quietly shorter file.
pub const WRITE_ERRORS: &str = "pulse.write_errors";

struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    fn new() -> StopSignal {
        StopSignal {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn stop(&self) {
        let mut guard = self
            .stopped
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = true;
        self.cv.notify_all();
    }

    /// Waits up to `interval`; returns `true` once stop was signalled.
    fn wait(&self, interval: Duration) -> bool {
        let guard = self
            .stopped
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if *guard {
            return true;
        }
        let (guard, _timeout) = self
            .cv
            .wait_timeout(guard, interval)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard
    }
}

/// Final report from a stopped [`Sampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerReport {
    /// Snapshots written to the pulse file.
    pub snapshots: u64,
    /// Lines written (snapshot markers + samples).
    pub lines: u64,
    /// Snapshot writes or flushes that failed (full disk, closed fd).
    /// Nonzero means the pulse file is missing data — callers gate on
    /// it rather than silently trusting a truncated file.
    pub write_errors: u64,
}

/// Owns the background snapshot thread.
pub struct Sampler {
    stop: Arc<StopSignal>,
    handle: Option<JoinHandle<(u64, u64)>>,
    /// Shared with the sampler thread: bumped on every failed snapshot
    /// write or flush, read by [`Sampler::stop`] for the report.
    write_errors: Arc<AtomicU64>,
    path: PathBuf,
}

impl Sampler {
    /// Truncates/creates `path` and starts snapshotting the live
    /// registry every `interval`. Sub-millisecond intervals are honored;
    /// zero is clamped to 1ms to keep the loop yielding.
    pub fn start(path: &Path, interval: Duration) -> io::Result<Sampler> {
        let file = File::create(path)?;
        let stop = Arc::new(StopSignal::new());
        let thread_stop = Arc::clone(&stop);
        let write_errors = Arc::new(AtomicU64::new(0));
        let thread_errors = Arc::clone(&write_errors);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("jp-pulse-sampler".to_string())
            // audit:allow(spawn-containment) intentionally outside thread::scope: the Sampler owns the JoinHandle and joins it in stop()/Drop, so the thread never outlives its owner
            .spawn(move || {
                let mut writer = BufWriter::new(file);
                let t0 = Instant::now();
                let mut snapshots: u64 = 0;
                let mut lines: u64 = 0;
                loop {
                    let stopping = thread_stop.wait(interval);
                    snapshots += 1;
                    match write_snapshot(&mut writer, snapshots, t0, &thread_errors) {
                        Ok(n) => lines += n,
                        // race:order(monotonic failure tally; readers only need the eventual count)
                        Err(_) => drop(thread_errors.fetch_add(1, Ordering::Relaxed)),
                    }
                    if writer.flush().is_err() {
                        // race:order(same monotonic failure tally as above)
                        thread_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if stopping {
                        return (snapshots, lines);
                    }
                }
            })?;
        Ok(Sampler {
            stop,
            handle: Some(handle),
            write_errors,
            path: path.to_path_buf(),
        })
    }

    /// The pulse file this sampler writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Signals the thread, waits for the final post-run snapshot, and
    /// returns the report.
    pub fn stop(mut self) -> SamplerReport {
        self.stop.stop();
        let (snapshots, lines) = match self.handle.take() {
            Some(handle) => handle.join().unwrap_or((0, 0)),
            None => (0, 0),
        };
        SamplerReport {
            snapshots,
            lines,
            // race:order(read after join; the thread's final tally is visible)
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // Belt-and-braces shutdown when `stop()` was skipped (panic
        // unwinding through the owner): still signal and join so the
        // final snapshot lands and the file is flushed.
        self.stop.stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Serializes one full snapshot; returns the number of lines written.
/// `errors` is the sampler's running write-failure tally — each snapshot
/// publishes it as a `pulse.write_errors` line, so earlier losses are
/// visible in any later snapshot that does land.
fn write_snapshot<W: Write>(
    out: &mut W,
    ordinal: u64,
    t0: Instant,
    errors: &AtomicU64,
) -> io::Result<u64> {
    let at_micros = t0.elapsed().as_micros() as u64;
    let mut lines = 0u64;
    // race:order(fetch_add keeps seq unique and per-file monotone)
    let mut seq = SEQ.fetch_add(1, Ordering::Relaxed);
    write_line(out, seq, SNAPSHOT_MARKER, ordinal, at_micros)?;
    lines += 1;
    // race:order(same unique-seq allocation as above)
    seq = SEQ.fetch_add(1, Ordering::Relaxed);
    // race:order(monotonic failure tally; the line value may lag a concurrent bump by one tick)
    let write_errors = errors.load(Ordering::Relaxed);
    write_line(out, seq, WRITE_ERRORS, write_errors, at_micros)?;
    lines += 1;
    for (name, value) in jp_obs::live_snapshot() {
        // race:order(same unique-seq allocation as above)
        seq = SEQ.fetch_add(1, Ordering::Relaxed);
        write_line(out, seq, &name, value, at_micros)?;
        lines += 1;
    }
    for (name, value) in mem::sample_lines() {
        // race:order(same unique-seq allocation as above)
        seq = SEQ.fetch_add(1, Ordering::Relaxed);
        write_line(out, seq, &name, value, at_micros)?;
        lines += 1;
    }
    Ok(lines)
}

/// Monotonic sequence shared by every sampler in the process, mirroring
/// the jp-obs convention that `seq` increases within a file.
static SEQ: AtomicU64 = AtomicU64::new(1);

fn write_line<W: Write>(
    out: &mut W,
    seq: u64,
    name: &str,
    value: u64,
    at_micros: u64,
) -> io::Result<()> {
    let mut event = Event::counter(PULSE_COMPONENT, name, value);
    event.seq = seq;
    event.thread = jp_obs::thread_id();
    event.kind = EventKind::Counter;
    event.start = at_micros;
    let line = serde_json::to_string(&event).map_err(io::Error::other)?;
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_obs::ScopedSink;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jp_pulse_sampler_{name}_{}", std::process::id()))
    }

    #[test]
    fn short_run_still_writes_a_final_snapshot() {
        let path = temp_path("short");
        let scope = ScopedSink::open(None, true);
        let sampler = Sampler::start(&path, Duration::from_secs(3600)).expect("start");
        jp_obs::counter("test", "hits", 7);
        jp_obs::gauge("test", "depth", 3);
        let report = sampler.stop();
        drop(scope);
        assert!(report.snapshots >= 1, "final snapshot always lands");
        let text = std::fs::read_to_string(&path).expect("pulse file");
        let _ = std::fs::remove_file(&path);
        let mut marker_seen = false;
        let mut hits = None;
        for line in text.lines() {
            let event: Event = serde_json::from_str(line).expect("schema-v2 line");
            assert_eq!(event.component, PULSE_COMPONENT);
            assert!(matches!(event.kind, EventKind::Counter));
            if event.name == SNAPSHOT_MARKER {
                marker_seen = true;
            }
            if event.name == "test.hits" {
                hits = Some(event.value);
            }
        }
        assert!(marker_seen, "snapshot marker line present");
        assert_eq!(hits, Some(7), "final snapshot carries the counter value");
    }

    #[test]
    fn interval_snapshots_accumulate() {
        let path = temp_path("interval");
        let _scope = ScopedSink::open(None, true);
        let sampler = Sampler::start(&path, Duration::from_millis(5)).expect("start");
        jp_obs::counter("test", "ticks", 1);
        std::thread::sleep(Duration::from_millis(40));
        let report = sampler.stop();
        let _ = std::fs::remove_file(&path);
        assert!(
            report.snapshots >= 2,
            "expected periodic snapshots, got {}",
            report.snapshots
        );
        assert!(report.lines > report.snapshots);
    }

    /// A writer that fails every write — the always-full disk.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
    }

    #[test]
    fn write_snapshot_propagates_writer_errors() {
        let errors = AtomicU64::new(0);
        let err = write_snapshot(&mut FailingWriter, 1, Instant::now(), &errors).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn snapshots_carry_the_write_error_tally() {
        let errors = AtomicU64::new(3);
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 1, Instant::now(), &errors).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let tally = text
            .lines()
            .map(|l| serde_json::from_str::<Event>(l).expect("schema-v2 line"))
            .find(|e| e.name == WRITE_ERRORS)
            .expect("pulse.write_errors line in every snapshot");
        assert_eq!(tally.value, 3);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn full_disk_is_counted_not_swallowed() {
        // /dev/full accepts the open and fails every write with ENOSPC —
        // exactly the failure mode the old `let _ = writer.flush()`
        // swallowed. The report must surface it.
        let _scope = ScopedSink::open(None, true);
        let sampler = Sampler::start(Path::new("/dev/full"), Duration::from_millis(5))
            .expect("open /dev/full");
        jp_obs::counter("test", "full_disk", 1);
        std::thread::sleep(Duration::from_millis(20));
        let report = sampler.stop();
        assert!(
            report.write_errors >= 1,
            "ENOSPC must be counted, got {report:?}"
        );
    }

    #[test]
    fn healthy_run_reports_zero_write_errors() {
        let path = temp_path("healthy");
        let _scope = ScopedSink::open(None, true);
        let sampler = Sampler::start(&path, Duration::from_millis(5)).expect("start");
        jp_obs::counter("test", "ok", 1);
        std::thread::sleep(Duration::from_millis(15));
        let report = sampler.stop();
        let _ = std::fs::remove_file(&path);
        assert_eq!(report.write_errors, 0, "{report:?}");
    }

    #[test]
    fn seq_is_strictly_increasing_within_a_file() {
        let path = temp_path("seq");
        let _scope = ScopedSink::open(None, true);
        let sampler = Sampler::start(&path, Duration::from_millis(5)).expect("start");
        jp_obs::counter("test", "seq", 1);
        std::thread::sleep(Duration::from_millis(25));
        let _ = sampler.stop();
        let text = std::fs::read_to_string(&path).expect("pulse file");
        let _ = std::fs::remove_file(&path);
        let mut last = 0u64;
        for line in text.lines() {
            let event: Event = serde_json::from_str(line).expect("line");
            assert!(
                event.seq > last,
                "seq must increase: {} !> {}",
                event.seq,
                last
            );
            last = event.seq;
        }
    }
}
