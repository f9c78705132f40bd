//! `jp-par` — a zero-dependency, std-only work-stealing runtime for the
//! solver ladder.
//!
//! The ROADMAP's north star is a system that runs "as fast as the
//! hardware allows", and the worst-case-optimal-join literature ("Skew
//! Strikes Back", Ngo et al. 2013; Leapfrog Triejoin, Veldhuizen 2014)
//! teaches that *skew-tolerant scheduling* is what separates theoretical
//! from practical optimality. A fixed wave/barrier schedule stalls every
//! wave on its slowest task; a work-stealing schedule lets idle workers
//! drain whatever queue still has work.
//!
//! # Design
//!
//! [`run_tasks`] owns the whole lifecycle: seed tasks are distributed
//! round-robin across per-worker deques, workers run under
//! [`std::thread::scope`], and each worker takes from three sources in
//! order:
//!
//! 1. its **own deque**, front first (FIFO — seeds run in index order);
//! 2. the **shared injector**, where [`Worker::spawn`]ed tasks land;
//! 3. **stealing** — the back of another worker's deque, scanning
//!    victims ring-wise from its own id.
//!
//! Deques are `Mutex<VecDeque>` — contention is per-task, and tasks in
//! this workspace are coarse (a sub-join, a heuristic run, a
//! branch-and-bound root), so a lock-free deque would buy nothing but
//! `unsafe`. Termination is a single `pending` count of queued + running
//! tasks; workers spin-yield only in the rare window where `pending > 0`
//! but every queue is momentarily empty.
//!
//! Results are returned **in task-index order** (seeds first, then
//! spawned tasks in spawn order), so output is deterministic regardless
//! of which worker ran what. Workers [`jp_obs::adopt`] the ticket of the
//! thread that called [`run_tasks`], so they join exactly the captures
//! it was in, and every event they emit carries their thread id, so
//! parallel traces stay attributable.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A caught worker panic, re-thrown on the calling thread.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A task tagged with its dense result index.
struct IndexedTask<T> {
    index: usize,
    payload: T,
}

/// State shared by all workers of one [`run_tasks`] call.
struct Shared<T> {
    /// Global queue for dynamically [`Worker::spawn`]ed tasks.
    injector: Mutex<VecDeque<IndexedTask<T>>>,
    /// One deque per worker; seeds are distributed round-robin.
    locals: Vec<Mutex<VecDeque<IndexedTask<T>>>>,
    /// Tasks queued or currently running; 0 means done.
    pending: AtomicUsize,
    /// Next free result index (seeds occupy `0..seed_count`).
    next_index: AtomicUsize,
    /// Successful steals, for the `par.steals` counter.
    steals: AtomicU64,
    /// Dynamically spawned tasks, for the `par.spawned` counter.
    spawned: AtomicU64,
    /// Set when a task panicked: all workers stop taking new tasks, and
    /// the first captured payload is re-thrown by [`run_tasks`]. Without
    /// this a panicking task would strand `pending` above zero and
    /// deadlock the surviving workers.
    abort: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle passed to the task closure: identifies the executing worker
/// and lets tasks enqueue more work.
pub struct Worker<'a, T> {
    shared: &'a Shared<T>,
    id: usize,
}

impl<T> Worker<'_, T> {
    /// The executing worker's index in `0..threads`.
    // audit:allow(obs-coverage) trivial accessor — the surrounding run_tasks span covers it
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueues `task` on the shared injector, where any worker may pick
    /// it up. Returns the task's result index: its result appears at
    /// that position of [`run_tasks`]'s output (spawned tasks follow the
    /// seeds, in spawn order).
    // audit:allow(obs-coverage) queue push on the task hot path — aggregated into the par.spawned counter instead of a per-call span
    pub fn spawn(&self, task: T) -> usize {
        // race:order(index allocation only needs uniqueness, not ordering — results are sorted by index after the join)
        let index = self.shared.next_index.fetch_add(1, Ordering::Relaxed);
        // Count the task as pending *before* it becomes visible: a thief
        // could otherwise pop and finish it and drive `pending` to zero
        // while it was never accounted for.
        // race:order(Release pairs with the Acquire loads in worker_loop: a worker that sees pending==0 also sees every spawn accounted)
        self.shared.pending.fetch_add(1, Ordering::Release);
        // race:order(monotonic statistic, read after the scoped join)
        self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.injector).push_back(IndexedTask {
            index,
            payload: task,
        });
        index
    }

    /// Own deque front → injector front → steal from a victim's back.
    fn next_task(&self) -> Option<IndexedTask<T>> {
        if let Some(deque) = self.shared.locals.get(self.id) {
            if let Some(t) = lock(deque).pop_front() {
                return Some(t);
            }
        }
        if let Some(t) = lock(&self.shared.injector).pop_front() {
            return Some(t);
        }
        let n = self.shared.locals.len();
        for k in 1..n {
            let Some(victim) = self.shared.locals.get((self.id + k) % n) else {
                continue;
            };
            let stolen = lock(victim).pop_back();
            if let Some(t) = stolen {
                // race:order(monotonic statistic, read after the scoped join)
                self.shared.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }
}

fn worker_loop<'a, T, R, F>(
    shared: &'a Shared<T>,
    id: usize,
    ticket: jp_obs::Ticket,
    run_span: Option<u64>,
    run_request: Option<u64>,
    f: &F,
) -> Vec<(usize, R)>
where
    F: Fn(&Worker<'a, T>, T) -> R,
{
    // Join the captures the caller of run_tasks was in for this
    // worker's lifetime, and no others.
    let _adopt = jp_obs::adopt(ticket);
    // Allocation attribution: everything this worker does defaults to
    // the `par` scope; solver/memo entry points override by nesting.
    let _mem = jp_pulse::mem_scope(jp_pulse::MemScope::Par);
    // Nest everything this worker emits (task spans included) under the
    // runtime's `par.run` span, which outlives every worker — so traces
    // form one tree with zero orphaned parents.
    let _link = jp_obs::link_parent(run_span);
    // Inherit the caller's serve-request context: a parallel solve run
    // on behalf of one request stamps that request's id from every
    // worker, not just the thread that called run_tasks. Inert (None)
    // outside a request.
    let _req = jp_obs::with_request(run_request);
    // Start/stop markers bracket the worker's lifetime; their `start`
    // offsets are what `trace summary` turns into the utilization
    // timeline.
    jp_obs::counter("par", "worker.start", 1);
    // Live per-worker utilization: busy time spent inside tasks over
    // wall time since the worker started. Published as a live gauge
    // after every task, so `jp pulse top` shows load while we run.
    let started = std::time::Instant::now();
    let mut busy = std::time::Duration::ZERO;
    let util_gauge = format!("worker.{id}.util_pct");
    let worker = Worker { shared, id };
    let mut out = Vec::new();
    loop {
        // race:order(Acquire on pending pairs with the Release bumps/decrements; Acquire on abort pairs with the Release store below so an observed abort also shows the filled panic slot)
        if shared.pending.load(Ordering::Acquire) == 0 || shared.abort.load(Ordering::Acquire) {
            break;
        }
        match worker.next_task() {
            Some(task) => {
                let task_start = jp_obs::enabled().then(std::time::Instant::now);
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(&worker, task.payload))) {
                    Ok(result) => out.push((task.index, result)),
                    Err(payload) => {
                        let mut slot = lock(&shared.panic);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        // Upgraded from Relaxed: Release publishes the
                        // slot write to workers that observe the latch
                        // without ever taking the panic mutex.
                        // race:order(Release pairs with the Acquire latch check at the top of the loop)
                        shared.abort.store(true, Ordering::Release);
                    }
                }
                // race:order(Release pairs with the Acquire loads: the 0-observer sees all task effects)
                shared.pending.fetch_sub(1, Ordering::Release);
                if let Some(t0) = task_start {
                    busy += t0.elapsed();
                    let wall = started.elapsed().as_micros().max(1);
                    let pct = (busy.as_micros().saturating_mul(100) / wall) as u64;
                    jp_obs::gauge("par", &util_gauge, pct.min(100));
                    jp_obs::gauge(
                        "par",
                        "queue_depth",
                        // race:order(Acquire pairs with the Release bumps; the gauge is a live snapshot either way)
                        shared.pending.load(Ordering::Acquire) as u64,
                    );
                }
            }
            // pending > 0 but every queue momentarily empty: the last
            // tasks are running elsewhere and may still spawn more.
            None => std::thread::yield_now(),
        }
    }
    jp_obs::counter("par", "worker_tasks", out.len() as u64);
    jp_obs::counter("par", "worker.stop", 1);
    out
}

/// Runs `tasks` across `threads` workers and returns the results in
/// task-index order: seed results first (matching the input order), then
/// results of [`Worker::spawn`]ed tasks in spawn order.
///
/// `threads == 1` (or any value clamped up to 1) runs everything on the
/// calling thread — no spawn overhead, strictly sequential FIFO order —
/// so single-threaded behaviour is the exact baseline the parallel runs
/// are compared against.
///
/// If a task panics, workers stop taking new tasks and the first panic
/// payload is re-thrown on the calling thread.
///
/// ```
/// let squares = jp_par::run_tasks(4, (0u64..32).collect(), |_, x| x * x);
/// assert_eq!(squares, (0u64..32).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn run_tasks<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: for<'a> Fn(&Worker<'a, T>, T) -> R + Sync,
{
    let _span = jp_obs::span("par", "run");
    // The captures the caller is in, which every worker joins.
    let ticket = jp_obs::ticket();
    // The seq the span reserved: workers link it as their parent so
    // cross-thread task spans still nest under this `par.run`.
    let run_span = jp_obs::current_span();
    // The request context at the call site, inherited by every worker.
    let run_request = jp_obs::current_request();
    let seed_count = tasks.len();
    if seed_count == 0 {
        return Vec::new();
    }
    let threads = threads.max(1);
    let shared = Shared {
        injector: Mutex::new(VecDeque::new()),
        locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(seed_count),
        next_index: AtomicUsize::new(seed_count),
        steals: AtomicU64::new(0),
        spawned: AtomicU64::new(0),
        abort: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    for (index, payload) in tasks.into_iter().enumerate() {
        if let Some(deque) = shared.locals.get(index % threads) {
            lock(deque).push_back(IndexedTask { index, payload });
        }
    }
    let collected: Vec<(usize, R)> = if threads == 1 {
        worker_loop(&shared, 0, ticket, run_span, run_request, &f)
    } else {
        let shared_ref = &shared;
        let f_ref = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|id| {
                    s.spawn(move || {
                        worker_loop(shared_ref, id, ticket, run_span, run_request, f_ref)
                    })
                })
                .collect();
            let mut all = Vec::new();
            for handle in handles {
                match handle.join() {
                    Ok(part) => all.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            all
        })
    };
    if let Some(payload) = lock(&shared.panic).take() {
        std::panic::resume_unwind(payload);
    }
    // Every load below runs after the scoped join (or the sequential
    // worker_loop return), which already synchronizes all worker writes.
    if jp_obs::enabled() {
        jp_obs::counter("par", "workers", threads as u64);
        jp_obs::counter(
            "par",
            "tasks",
            // race:order(read after the scoped join; Acquire is belt-and-braces)
            shared.next_index.load(Ordering::Acquire) as u64,
        );
        // race:order(statistics read after the scoped join)
        jp_obs::counter("par", "steals", shared.steals.load(Ordering::Relaxed));
        jp_obs::counter("par", "spawned", shared.spawned.load(Ordering::Relaxed));
    }
    // race:order(read after the scoped join; Acquire is belt-and-braces)
    let total = shared.next_index.load(Ordering::Acquire);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    for (index, result) in collected {
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every task index completes exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn results_preserve_task_order() {
        for threads in [1, 2, 4, 9] {
            let out = run_tasks(threads, (0u64..100).collect(), |_, x| x * 2);
            assert_eq!(out, (0u64..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let out: Vec<u32> = run_tasks(4, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let out = run_tasks(0, vec![1, 2, 3], |w, x| {
            assert_eq!(w.id(), 0);
            x + 10
        });
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = run_tasks(8, vec![5u64, 7], |w, x| {
            assert!(w.id() < 8);
            x
        });
        assert_eq!(out, vec![5, 7]);
    }

    #[test]
    fn skewed_seeds_get_stolen() {
        // Two workers; worker 0's first seed blocks until one of worker
        // 0's other seeds (even index) has executed on worker 1 — i.e.
        // until a steal demonstrably happened. Worker 1's seeds are all
        // trivial, so it drains its own deque and must steal to help.
        let stolen = AtomicBool::new(false);
        let out = run_tasks(2, (0usize..12).collect(), |w, x| {
            if x % 2 == 0 && x != 0 && w.id() == 1 {
                stolen.store(true, Ordering::SeqCst);
            }
            if x == 0 {
                for _ in 0..5000 {
                    if stolen.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            x
        });
        assert!(stolen.load(Ordering::SeqCst), "worker 1 never stole");
        assert_eq!(out, (0usize..12).collect::<Vec<_>>());
    }

    #[test]
    fn spawned_tasks_run_and_append_results() {
        for threads in [1, 3] {
            let out = run_tasks(threads, vec![10u64, 20], |w, x| {
                if x == 10 {
                    let index = w.spawn(11);
                    assert_eq!(index, 2, "first spawn lands after the seeds");
                }
                x
            });
            assert_eq!(out, vec![10, 20, 11], "threads = {threads}");
        }
    }

    #[test]
    fn recursive_spawns_terminate() {
        // Each task < 8 spawns its successor; all must complete.
        let out = run_tasks(2, vec![0u64], |w, x| {
            if x < 8 {
                w.spawn(x + 1);
            }
            x
        });
        assert_eq!(out, (0u64..=8).collect::<Vec<_>>());
    }

    #[test]
    fn workers_adopt_into_scoped_captures() {
        let sink = std::sync::Arc::new(jp_obs::MemorySink::new());
        let _guard = jp_obs::ScopedSink::install(sink.clone());
        let out = run_tasks(3, (0u64..9).collect(), |_, x| {
            jp_obs::counter("par", "task_seen", x);
            x
        });
        assert_eq!(out.len(), 9);
        let events = sink.events();
        let seen = events.iter().filter(|e| e.name == "task_seen").count();
        assert_eq!(seen, 9, "worker events must reach the scoped capture");
        let worker_reports: Vec<_> = events.iter().filter(|e| e.name == "worker_tasks").collect();
        assert_eq!(worker_reports.len(), 3, "one summary per worker");
        let distinct: std::collections::BTreeSet<u64> =
            worker_reports.iter().map(|e| e.thread).collect();
        assert_eq!(distinct.len(), 3, "each worker has its own thread id");
        let tasks = events
            .iter()
            .find(|e| e.component == "par" && e.name == "tasks")
            .expect("par.tasks counter");
        assert_eq!(tasks.value, 9);
        // Every worker brackets its lifetime and parents its events
        // under the par.run span (which is emitted last, after joining).
        let run = events
            .iter()
            .find(|e| e.component == "par" && e.name == "run")
            .expect("par.run span");
        let starts: Vec<_> = events.iter().filter(|e| e.name == "worker.start").collect();
        let stops: Vec<_> = events.iter().filter(|e| e.name == "worker.stop").collect();
        assert_eq!(starts.len(), 3);
        assert_eq!(stops.len(), 3);
        for e in starts.iter().chain(&stops) {
            assert_eq!(e.parent, Some(run.seq), "{} on thread {}", e.name, e.thread);
            assert!(run.seq < e.seq, "parents reserve seqs before children");
        }
        for e in events.iter().filter(|e| e.name == "task_seen") {
            assert_eq!(e.parent, Some(run.seq));
        }
    }

    #[test]
    fn workers_of_a_non_member_stay_out_of_the_capture() {
        let sink = std::sync::Arc::new(jp_obs::MemorySink::new());
        let _guard = jp_obs::ScopedSink::install(sink.clone());
        // A thread that never joined the capture fans work out to four
        // workers; they take its ticket, not the open scope.
        std::thread::spawn(|| {
            run_tasks(4, (0u64..16).collect(), |_, x| {
                jp_obs::counter("par", "leaked_task", x);
                x
            })
        })
        .join()
        .expect("outsider thread");
        let events = sink.events();
        assert!(
            events.is_empty(),
            "capture holds foreign events: {events:?}"
        );
    }

    #[test]
    fn workers_inherit_the_callers_request_context() {
        let sink = std::sync::Arc::new(jp_obs::MemorySink::new());
        let _guard = jp_obs::ScopedSink::install(sink.clone());
        let _req = jp_obs::with_request(Some(512));
        let out = run_tasks(3, (0u64..6).collect(), |_, x| {
            jp_obs::counter("par", "task_req", x);
            x
        });
        assert_eq!(out.len(), 6);
        let events = sink.events();
        for e in events.iter().filter(|e| e.name == "task_req") {
            assert_eq!(e.request, Some(512), "thread {}", e.thread);
        }
        let run = events.iter().find(|e| e.name == "run").expect("par.run");
        assert_eq!(run.request, Some(512));
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            run_tasks(2, vec![0u32, 1], |_, x| {
                assert_ne!(x, 1, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }
}
