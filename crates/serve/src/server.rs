//! The jp-serve server: a long-lived planning service over one warm
//! memo store.
//!
//! ## Thread structure
//!
//! Everything runs under a single [`std::thread::scope`], so shutdown
//! is structural — `run` cannot return with a thread still alive:
//!
//! * the **acceptor** (the thread that called [`Server::run`]) polls a
//!   non-blocking listener and spawns one **handler** per connection;
//! * each handler speaks the [`crate::proto`] frame protocol
//!   synchronously: read a request, admit or reject it, and — for an
//!   admitted pebble job — take a solver slot, solve on its own thread,
//!   and answer on its own socket.
//!
//! A request never changes thread between its frame and its answer.
//! The solver slots, [`ServeConfig::threads`] of them, are a counting
//! semaphore: at most that many requests solve at once, and the rest
//! wait until one is returned. Taking or returning an uncontended slot
//! costs no syscall. A solve that panics is caught on its handler and
//! answered with a classified `Error`, and both its pending slot and
//! its solver slot are released.
//!
//! ## Admission control
//!
//! A request is *rejected with a named reason* rather than queued
//! without bound:
//!
//! * `--max-edges`: graphs above the size cap are never admitted;
//! * `--max-pending`: at most this many admitted-but-unanswered jobs
//!   exist at once (claimed with a compare-exchange, so the bound is
//!   exact under concurrency);
//! * `--budget`: branch-and-bound requests that exhaust the node
//!   budget are answered `Rejected`, mapping
//!   [`PebbleError::BudgetExhausted`] to back-pressure instead of
//!   failure;
//! * during shutdown every new pebble request is answered
//!   `ShuttingDown` while in-flight jobs drain.
//!
//! ## Telemetry
//!
//! Every thread of a run — the acceptor and each handler — adopts the
//! jp-obs ticket taken at [`Server::bind`], so a server joins exactly
//! the captures its binder was in, and its tail sampler's tap sees only
//! this server's threads.
//!
//! Per request: a `serve.request` span, opened when the job takes its
//! solver slot, with a `serve.queue_wait_us` counter inside it
//! (admission to slot), a `serve.wire` span for the response write, one
//! `serve.completed`, `serve.rejected` or `serve.errors` counter for its
//! outcome, and a live `serve.latency_us` histogram (p50/p95/p99 in
//! every pulse snapshot), plus a live `serve.queue_depth` gauge:
//! admitted jobs waiting for a slot. The server schedules no jp-par
//! batches, so its traces carry no `par.*` events of its own; only a
//! cache miss's portfolio race emits them. When the client sent a
//! tracing id (see [`crate::proto::Request::request`]) every one of
//! those events — and everything the solver emits underneath them — is
//! stamped with it, which is what `jp trace request <id>` reconstructs.
//! For a fixed workload the outcome counters, and the `serve.connections`,
//! `serve.accepted` and `serve.cost_sum` totals emitted at end of run,
//! are deterministic: `jp trace check` gates the outcome counters and
//! the cost sum as answer-class. With `--xray-file` set, a
//! [`crate::xray::Xray`] tail sampler additionally keeps slow/failing
//! requests at full detail.

use crate::proto::{
    self, FrameRead, PebbleAlgo, RequestBody, Response, ResponseBody, WIRE_VERSION,
};
use crate::xray::{Xray, XrayConfig};
use jp_graph::{BipartiteGraph, ComponentMap};
use jp_pebble::memo::{solve_with_memo_report, Memo, MemoStats};
use jp_pebble::{exact_bb, PebbleError};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long the acceptor sleeps when `accept` has nothing for it.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Read timeout on handler sockets; bounds how long a handler takes to
/// notice the shutdown flag.
const HANDLER_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Write timeout on handler sockets, so one dead-but-unclosed peer
/// cannot pin a handler thread forever.
const HANDLER_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Server configuration; every limit here is a named CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411` (`:0` for an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Solver slots: at most this many admitted requests solve at once,
    /// each on its own connection's handler thread, while the rest wait
    /// for a slot. Every solve is itself single-threaded. 1 solves one
    /// request at a time — the deterministic mode the trace gate runs.
    pub threads: usize,
    /// Admission bound: maximum admitted-but-unanswered pebble jobs.
    pub max_pending: usize,
    /// Admission bound: maximum edges in a submitted graph.
    pub max_edges: usize,
    /// Node budget for branch-and-bound ([`PebbleAlgo::Bb`]) requests.
    pub budget: u64,
    /// Warm-store checkpoint: loaded (if present) at bind, written
    /// atomically at shutdown.
    pub memo_file: Option<PathBuf>,
    /// When non-zero the server initiates shutdown on its own after
    /// answering this many pebble requests (a test/CI harness bound;
    /// 0 = serve until a `Shutdown` request arrives).
    pub max_requests: u64,
    /// Tail-sampling latency threshold (`--slow-us`): a request whose
    /// handler-observed total reaches it becomes an exemplar.
    pub slow_us: u64,
    /// When set (`--xray-file`), install the [`crate::xray::Xray`]
    /// tail sampler for the lifetime of the run and write sampled
    /// request traces here as schema-v2 JSONL.
    pub xray_file: Option<PathBuf>,
    /// Bound on concurrently buffered requests in the sampler ring
    /// (`--xray-ring`).
    pub xray_ring: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_pending: 64,
            max_edges: 4096,
            budget: 50_000_000,
            memo_file: None,
            max_requests: 0,
            slow_us: 5_000,
            xray_file: None,
            xray_ring: 64,
        }
    }
}

/// What one [`Server::run`] lifetime did, loaded after every thread
/// has joined (so the counters are final, not snapshots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Pebble jobs admitted past admission control.
    pub accepted: u64,
    /// Pebble jobs answered with a cost.
    pub completed: u64,
    /// Requests refused (size cap, pending cap, budget, shutdown).
    pub rejected: u64,
    /// Requests that failed (protocol or solver errors).
    pub errors: u64,
    /// Sum of all answered costs — one number that differs if any
    /// single answer differs, which is what the trace gate wants.
    pub cost_sum: u64,
    /// Whether no admitted job was left unanswered once every handler
    /// had joined — i.e. shutdown drained cleanly.
    pub drained: bool,
    /// Entries in the warm store at exit.
    pub memo_entries: usize,
    /// Entries loaded from the checkpoint file at bind.
    pub preloaded: usize,
    /// Warm-store counters for the whole lifetime.
    pub memo: MemoStats,
    /// Requests the tail sampler kept at full detail (slow/errored).
    pub exemplars: u64,
    /// Requests the tail sampler reduced to their root span.
    pub downsampled: u64,
    /// Requests evicted from the sampler ring before finishing.
    pub xray_dropped: u64,
}

/// State shared by the acceptor and the handlers. All counters are
/// SeqCst: this is control-plane accounting on a network service, not a
/// solver hot loop, and the strongest ordering keeps every cross-thread
/// invariant (admission bound, drain condition) easy to believe.
struct Shared {
    shutdown: AtomicBool,
    /// Admitted-but-unanswered pebble jobs (waiting for a slot or
    /// solving).
    pending: AtomicUsize,
    slots: Slots,
    connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    cost_sum: AtomicU64,
}

impl Shared {
    fn new(threads: usize) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            slots: Slots::new(threads.max(1)),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cost_sum: AtomicU64::new(0),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Claims one pending slot iff fewer than `cap` are taken. The
    /// compare-exchange loop makes the admission bound exact: two
    /// handlers racing for the last slot cannot both win.
    fn try_admit(&self, cap: usize) -> bool {
        let mut cur = self.pending.load(Ordering::SeqCst);
        while cur < cap {
            match self
                .pending
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }
}

/// Counts one request outcome: into its lifetime `total` and as the
/// `serve.<name>` counter.
fn tally(total: &AtomicU64, name: &str) {
    total.fetch_add(1, Ordering::SeqCst);
    jp_obs::counter("serve", name, 1);
}

/// Releases one pending slot on drop, so the drain condition returns to
/// zero however the job ended.
struct PendingGuard<'a>(&'a Shared);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The solver slots: a counting semaphore bounding how many admitted
/// jobs solve at once. The count's lock is never held across a solve or
/// a telemetry call. An uncontended take or release is one uncontended
/// lock round-trip, no syscall, and a release signals the condvar only
/// when a job is waiting.
struct Slots {
    count: Mutex<SlotCount>,
    freed: Condvar,
}

struct SlotCount {
    free: usize,
    /// Admitted jobs blocked on a slot: the `serve.queue_depth` gauge.
    waiting: usize,
}

impl Slots {
    fn new(slots: usize) -> Slots {
        Slots {
            count: Mutex::new(SlotCount {
                free: slots,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Takes a slot, blocking while every slot is held.
    fn acquire(&self) -> SlotGuard<'_> {
        let mut count = lock(&self.count);
        if count.free == 0 {
            count.waiting += 1;
            let depth = count.waiting;
            drop(count);
            jp_obs::gauge("serve", "queue_depth", depth as u64);
            count = lock(&self.count);
            while count.free == 0 {
                count = self.freed.wait(count).unwrap_or_else(|e| e.into_inner());
            }
            count.waiting -= 1;
        }
        count.free -= 1;
        let depth = count.waiting;
        drop(count);
        jp_obs::gauge("serve", "queue_depth", depth as u64);
        SlotGuard(self)
    }
}

/// Returns its slot on drop, waking one waiting job if there is one.
struct SlotGuard<'a>(&'a Slots);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut count = lock(&self.0.count);
        count.free += 1;
        let wake = count.waiting > 0;
        drop(count);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

/// A bound jp-serve instance; [`Server::run`] serves until shutdown.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    memo: Memo,
    preloaded: usize,
    /// The captures the binding thread was in; every thread of the run
    /// adopts it.
    ticket: jp_obs::Ticket,
}

impl Server {
    /// Binds the listen socket and warms the memo store from the
    /// checkpoint file, when one is configured and present. Takes the
    /// calling thread's jp-obs ticket: the run reports into the captures
    /// this thread is in, whichever thread later calls [`Server::run`].
    // audit:allow(obs-coverage) setup I/O — per-request spans live in execute_job/handle_conn
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let memo = Memo::new();
        let mut preloaded = 0;
        if let Some(path) = &cfg.memo_file {
            if path.exists() {
                let (loaded, _skipped) = memo.load_jsonl(path)?;
                preloaded = loaded;
            }
        }
        Ok(Server {
            cfg,
            listener,
            memo,
            preloaded,
            ticket: jp_obs::ticket(),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    // audit:allow(obs-coverage) trivial accessor
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Entries loaded from the memo checkpoint at bind time.
    // audit:allow(obs-coverage) trivial accessor
    pub fn preloaded(&self) -> usize {
        self.preloaded
    }

    /// Serves until a `Shutdown` request (or the `max_requests` bound)
    /// fires, drains in-flight work, checkpoints the memo atomically,
    /// and returns the lifetime report.
    // audit:allow(obs-coverage) lifetime loop — emits the end-of-run counter set; per-request spans live in execute_job/handle_conn
    pub fn run(self) -> io::Result<ServeReport> {
        let _adopt = jp_obs::adopt(self.ticket);
        self.listener.set_nonblocking(true)?;
        let shared = Shared::new(self.cfg.threads);
        let cfg = &self.cfg;
        let memo = &self.memo;
        // Tail sampler: installed as a jp-obs *tap* so it rides
        // alongside (never instead of) a full --trace capture. This
        // thread joins it, and the handlers below adopt this thread's
        // ticket, so it sees this server's requests and no one else's.
        // The guard uninstalls it before the report reads its counters.
        let xray = match &cfg.xray_file {
            Some(path) => Some(std::sync::Arc::new(Xray::create(XrayConfig {
                slow_us: cfg.slow_us,
                ring: cfg.xray_ring,
                path: path.clone(),
            })?)),
            None => None,
        };
        let tap = xray
            .as_ref()
            .map(|x| jp_obs::set_tap(x.clone() as std::sync::Arc<dyn jp_obs::Sink>));
        std::thread::scope(|s| {
            accept_loop(&self.listener, s, &shared, memo, cfg, xray.as_deref());
        });
        drop(tap);
        // every handler has joined: a job still pending now was never
        // answered
        let drained = shared.pending.load(Ordering::SeqCst) == 0;
        let report = ServeReport {
            connections: shared.connections.load(Ordering::SeqCst),
            accepted: shared.accepted.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
            errors: shared.errors.load(Ordering::SeqCst),
            cost_sum: shared.cost_sum.load(Ordering::SeqCst),
            drained,
            memo_entries: self.memo.len(),
            preloaded: self.preloaded,
            memo: self.memo.stats(),
            exemplars: xray.as_ref().map_or(0, |x| x.exemplars()),
            downsampled: xray.as_ref().map_or(0, |x| x.downsampled()),
            xray_dropped: xray.as_ref().map_or(0, |x| x.dropped()),
        };
        // End-of-run totals the per-request counters do not carry: for
        // a fixed workload these are identical run to run.
        jp_obs::counter("serve", "connections", report.connections);
        jp_obs::counter("serve", "accepted", report.accepted);
        jp_obs::counter("serve", "cost_sum", report.cost_sum);
        if let Some(path) = &cfg.memo_file {
            // atomic temp+rename checkpoint: a crash mid-save (or a
            // kill -9) leaves the previous checkpoint intact
            self.memo.save_jsonl(path)?;
        }
        Ok(report)
    }
}

/// The acceptor: polls the non-blocking listener, spawns a handler
/// per connection (each adopting the acceptor's ticket), and initiates
/// shutdown when the `max_requests` bound fires. Returns once shutdown
/// is flagged.
fn accept_loop<'scope, 'env>(
    listener: &'scope TcpListener,
    s: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'scope Shared,
    memo: &'scope Memo,
    cfg: &'scope ServeConfig,
    xray: Option<&'scope Xray>,
) {
    let ticket = jp_obs::ticket();
    while !shared.shutting_down() {
        if cfg.max_requests > 0 && shared.completed.load(Ordering::SeqCst) >= cfg.max_requests {
            shared.begin_shutdown();
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                s.spawn(move || {
                    let _adopt = jp_obs::adopt(ticket);
                    handle_conn(stream, shared, memo, cfg, xray)
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // a broken listener cannot serve anyone: drain and exit
                tally(&shared.errors, "errors");
                shared.begin_shutdown();
            }
        }
    }
}

/// One connection: a synchronous request/response loop over the frame
/// protocol. Exits on peer close, connection error, or (when idle)
/// server shutdown.
fn handle_conn(
    stream: TcpStream,
    shared: &Shared,
    memo: &Memo,
    cfg: &ServeConfig,
    xray: Option<&Xray>,
) {
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(HANDLER_READ_TIMEOUT)).is_err()
        || stream
            .set_write_timeout(Some(HANDLER_WRITE_TIMEOUT))
            .is_err()
    {
        tally(&shared.errors, "errors");
        return;
    }
    // a buffered reader usually takes a whole frame, header and payload,
    // in one read
    let mut reader = BufReader::new(&stream);
    loop {
        let payload = match proto::read_frame(&mut reader) {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Idle) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => {
                tally(&shared.errors, "errors");
                return;
            }
        };
        let (id, request, body) = match proto::parse_request(&payload) {
            Ok(req) => (req.id, req.request, req.body),
            Err(reason) => {
                tally(&shared.errors, "errors");
                if respond(&stream, 0, ResponseBody::Error { reason }).is_err() {
                    return;
                }
                continue;
            }
        };
        // Stamp every event this request causes with its tracing id; the
        // solve runs on this thread too. Dropped once the answer is on
        // the wire, so a failed write counts as a connection error.
        let req = jp_obs::with_request(request);
        let t0 = Instant::now();
        let reply = match body {
            RequestBody::Ping => ResponseBody::Pong,
            RequestBody::Stats => stats_body(shared, memo),
            RequestBody::Shutdown => {
                shared.begin_shutdown();
                ResponseBody::ShuttingDown
            }
            RequestBody::Pebble { graph, algo } => admit(graph.edge_count(), shared, cfg, || {
                solve_body(&graph, algo, memo, cfg)
            }),
        };
        let failed = matches!(reply, ResponseBody::Error { .. });
        let wrote = {
            // serve.wire: response serialization + socket write, the
            // last leg of the request's critical path
            let _wire = jp_obs::span("serve", "wire");
            respond(&stream, id, reply)
        };
        if let (Some(x), Some(rid)) = (xray, request) {
            x.finish(rid, micros(t0.elapsed()), failed || wrote.is_err());
        }
        drop(req);
        if wrote.is_err() {
            tally(&shared.errors, "errors");
            return;
        }
    }
}

/// Admission control for one pebble request of `edges` edges. An
/// admitted job waits for a solver slot and runs `solve` on the calling
/// handler thread.
fn admit(
    edges: usize,
    shared: &Shared,
    cfg: &ServeConfig,
    solve: impl FnOnce() -> ResponseBody,
) -> ResponseBody {
    if shared.shutting_down() {
        tally(&shared.rejected, "rejected");
        return ResponseBody::ShuttingDown;
    }
    if edges > cfg.max_edges {
        tally(&shared.rejected, "rejected");
        return ResponseBody::Rejected {
            reason: format!(
                "graph has {edges} edges, above the --max-edges cap of {}",
                cfg.max_edges
            ),
        };
    }
    if !shared.try_admit(cfg.max_pending) {
        tally(&shared.rejected, "rejected");
        return ResponseBody::Rejected {
            reason: format!(
                "{} jobs already pending, the --max-pending admission bound; retry later",
                cfg.max_pending
            ),
        };
    }
    shared.accepted.fetch_add(1, Ordering::SeqCst);
    let _pending = PendingGuard(shared);
    let admitted = Instant::now();
    let _slot = shared.slots.acquire();
    execute_job(admitted, shared, solve)
}

/// Builds the `Stats` response from the shared counters and the warm
/// store.
fn stats_body(shared: &Shared, memo: &Memo) -> ResponseBody {
    let st = memo.stats();
    ResponseBody::Stats {
        entries: memo.len() as u64,
        hits: st.hits,
        misses: st.misses,
        recognized: st.recognized,
        completed: shared.completed.load(Ordering::SeqCst),
        rejected: shared.rejected.load(Ordering::SeqCst),
        errors: shared.errors.load(Ordering::SeqCst),
    }
}

/// Writes one response frame.
fn respond(stream: &TcpStream, id: u64, body: ResponseBody) -> io::Result<()> {
    let resp = Response {
        v: WIRE_VERSION,
        id,
        body,
    };
    let mut w = io::BufWriter::new(stream);
    proto::write_message(&mut w, &resp)?;
    w.flush()
}

/// Runs one admitted job in its solver slot and does the per-request
/// accounting. A panicking solve is contained here and answered with a
/// classified error; the caller's guards release both slots either way.
fn execute_job(
    admitted: Instant,
    shared: &Shared,
    solve: impl FnOnce() -> ResponseBody,
) -> ResponseBody {
    let t0 = Instant::now();
    let queue_wait = micros(t0.duration_since(admitted));
    let solved = {
        let _span = jp_obs::span("serve", "request");
        jp_obs::counter("serve", "queue_wait_us", queue_wait);
        std::panic::catch_unwind(AssertUnwindSafe(solve))
    };
    let micros = micros(t0.elapsed());
    let body = match solved {
        Ok(mut body) => {
            if let ResponseBody::Cost { micros: m, .. } = &mut body {
                *m = micros;
            }
            body
        }
        Err(_) => ResponseBody::Error {
            reason: "the solver task died before producing an answer".to_string(),
        },
    };
    match &body {
        ResponseBody::Cost { cost, .. } => {
            shared.cost_sum.fetch_add(*cost, Ordering::SeqCst);
            tally(&shared.completed, "completed");
        }
        ResponseBody::Rejected { .. } => tally(&shared.rejected, "rejected"),
        _ => tally(&shared.errors, "errors"),
    }
    jp_obs::observe("serve", "latency_us", micros);
    body
}

/// `d` in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Runs the requested solver rung. Jobs solve single-threaded
/// (`threads == 1` inside the solve): parallelism comes from many
/// handlers solving at once, and a sequential solve per job is what
/// makes the memo counters of a fixed workload deterministic.
fn solve_body(
    g: &BipartiteGraph,
    algo: PebbleAlgo,
    memo: &Memo,
    cfg: &ServeConfig,
) -> ResponseBody {
    match algo {
        PebbleAlgo::Auto => match solve_with_memo_report(g, memo, 1) {
            Ok((scheme, rep)) => ResponseBody::Cost {
                cost: scheme.effective_cost(g) as u64,
                components: rep.components,
                served: rep.served(),
                fresh: rep.fresh,
                micros: 0,
            },
            Err(e) => ResponseBody::Error {
                reason: format!("solver error: {e}"),
            },
        },
        PebbleAlgo::Bb => match exact_bb::optimal_scheme_bb_par(g, cfg.budget, 1) {
            Ok(scheme) => {
                let components = u64::from(ComponentMap::new(g).count);
                ResponseBody::Cost {
                    cost: scheme.effective_cost(g) as u64,
                    components,
                    served: 0,
                    fresh: components,
                    micros: 0,
                }
            }
            Err(e @ PebbleError::BudgetExhausted { .. }) => ResponseBody::Rejected {
                reason: format!("{e}"),
            },
            Err(e) => ResponseBody::Error {
                reason: format!("solver error: {e}"),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(cost: u64) -> ResponseBody {
        ResponseBody::Cost {
            cost,
            components: 1,
            served: 0,
            fresh: 1,
            micros: 0,
        }
    }

    fn free_slots(shared: &Shared) -> usize {
        lock(&shared.slots.count).free
    }

    #[test]
    fn no_more_than_threads_solves_hold_a_slot_at_once() {
        for threads in [1, 2, 3] {
            let shared = Shared::new(threads);
            let cfg = ServeConfig {
                threads,
                max_pending: usize::MAX,
                ..ServeConfig::default()
            };
            let (inside, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let solve = || {
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(now, Ordering::SeqCst);
                // Hold the slot until the bound has been reached once, so
                // the test cannot pass by never overlapping, then a little
                // longer so later solves overlap too.
                let deadline = Instant::now() + Duration::from_secs(5);
                while most.load(Ordering::SeqCst) < threads && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(200));
                }
                std::thread::sleep(Duration::from_micros(200));
                inside.fetch_sub(1, Ordering::SeqCst);
                cost(1)
            };
            let jobs = 4 * threads + 2;
            std::thread::scope(|s| {
                for _ in 0..jobs {
                    s.spawn(|| {
                        let body = admit(1, &shared, &cfg, solve);
                        assert!(matches!(body, ResponseBody::Cost { .. }), "{body:?}");
                    });
                }
            });
            assert_eq!(most.load(Ordering::SeqCst), threads, "threads = {threads}");
            assert_eq!(shared.completed.load(Ordering::SeqCst), jobs as u64);
            assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
            assert_eq!(free_slots(&shared), threads);
        }
    }

    #[test]
    fn a_panicking_solve_is_answered_and_releases_both_slots() {
        let shared = Shared::new(1);
        let cfg = ServeConfig::default();
        let died = admit(1, &shared, &cfg, || -> ResponseBody {
            panic!("solver bug")
        });
        match died {
            ResponseBody::Error { reason } => {
                assert!(reason.contains("solver task died"), "{reason}")
            }
            other => panic!("expected an error answer, got {other:?}"),
        }
        assert_eq!(shared.errors.load(Ordering::SeqCst), 1);
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
        assert_eq!(free_slots(&shared), 1);
        // the only slot is free again, so the next job is served
        let next = admit(1, &shared, &cfg, || cost(7));
        assert!(
            matches!(next, ResponseBody::Cost { cost: 7, .. }),
            "{next:?}"
        );
        assert_eq!(shared.completed.load(Ordering::SeqCst), 1);
        assert_eq!(shared.cost_sum.load(Ordering::SeqCst), 7);
    }
}
