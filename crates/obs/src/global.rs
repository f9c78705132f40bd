//! The process-wide routes, the capture scope and tickets, and the
//! emission API.

use crate::event::Event;
use crate::live::{self, Update};
use crate::sink::Sink;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// [`GATE`] bit: a sink or a tap is installed, so events are built.
const EVENTS: u8 = 1;
/// [`GATE`] bit: a live scope is open, so the live registry is fed.
const LIVE: u8 = 2;

/// Fast-path gate: one relaxed load decides whether a call site does
/// anything at all. Re-derived from [`ROUTES`] under its write lock.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Where events go.
struct Routes {
    /// The primary sink ([`set_sink`] or a [`ScopedSink`]'s).
    sink: Option<Arc<dyn Sink>>,
    /// Secondary destinations ([`set_tap`]), each with its capture id.
    taps: Vec<(u64, Arc<dyn Sink>)>,
    /// Whether a live [`ScopedSink`] is open.
    live: bool,
    /// The instant the current sink was installed; `start` offsets are
    /// measured from here. `None` while no sink or tap is installed.
    epoch: Option<Instant>,
}

impl Routes {
    /// Re-derives [`GATE`]. Called with the write lock held, so two
    /// installers can never leave the gate disagreeing with the routes.
    fn publish(&mut self) {
        let events = self.sink.is_some() || !self.taps.is_empty();
        if !events {
            self.epoch = None;
        }
        let gate = if events { EVENTS } else { 0 } | if self.live { LIVE } else { 0 };
        // race:order(gate flag only; the routes it summarizes are read under the ROUTES lock)
        GATE.store(gate, Ordering::Relaxed);
    }

    /// Microseconds since the current sink was installed (0 with none).
    fn micros(&self) -> u64 {
        self.epoch.map_or(0, |t0| {
            t0.elapsed().as_micros().min(u64::MAX as u128) as u64
        })
    }
}

static ROUTES: RwLock<Routes> = RwLock::new(Routes {
    sink: None,
    taps: Vec::new(),
    live: false,
    epoch: None,
});

fn read_routes() -> RwLockReadGuard<'static, Routes> {
    ROUTES.read().unwrap_or_else(|e| e.into_inner())
}

fn write_routes() -> RwLockWriteGuard<'static, Routes> {
    ROUTES.write().unwrap_or_else(|e| e.into_inner())
}

/// Capture id of the open [`ScopedSink`]; 0 while none is open, which
/// lets every thread through — a plain [`set_sink`] observes them all.
/// Written under the [`ROUTES`] write lock.
static ACTIVE_SCOPE: AtomicU64 = AtomicU64::new(0);

/// Source of capture ids for scopes and taps; 0 is never handed out.
static NEXT_CAPTURE: AtomicU64 = AtomicU64::new(1);

/// Serializes [`ScopedSink`] holders so concurrent tests don't fight
/// over the process-wide sink and registry.
static SCOPE: Mutex<()> = Mutex::new(());

/// Process-wide monotone event sequence.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Source of process-local thread ids (first thread gets 1, so the `0`
/// placeholder in [`Event`] builders never collides with a real id).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // race:order(id uniqueness only — no ordering dependency)
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);

    /// The captures this thread belongs to; see [`Ticket`].
    static TICKET: Cell<Ticket> = const { Cell::new(Ticket::NONE) };

    /// The stack of open span `seq`s on this thread (innermost last).
    /// [`link_parent`] pushes a foreign span's seq so work handed to a
    /// worker thread still nests under the span that spawned it.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };

    /// The serve-request id everything this thread emits is stamped
    /// with, if any. Installed via [`with_request`] when a handler
    /// starts on a request.
    static CURRENT_REQUEST: Cell<Option<u64>> = const { Cell::new(None) };
}

/// How many captures one thread can belong to at once.
const MAX_CAPTURES: usize = 4;

/// The captures a thread belongs to: the [`ScopedSink`]s and taps it
/// installed itself or was handed.
///
/// A thread that starts other threads takes its own ticket with
/// [`ticket`] and each thread it starts [`adopt`]s it, so they join
/// exactly the captures their spawner was in. A thread that neither
/// installed nor adopted anything belongs to none: an open
/// [`ScopedSink`] and every tap drop its events. Membership is a thread-local read, so the emit path takes
/// no global lock to test it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticket {
    ids: [u64; MAX_CAPTURES],
}

impl Ticket {
    const NONE: Ticket = Ticket {
        ids: [0; MAX_CAPTURES],
    };

    fn holds(&self, id: u64) -> bool {
        id != 0 && self.ids.contains(&id)
    }

    /// This ticket plus capture `id`. A thread already in
    /// [`MAX_CAPTURES`] captures does not join another.
    fn with(mut self, id: u64) -> Ticket {
        if let Some(slot) = self.ids.iter_mut().find(|slot| **slot == 0) {
            *slot = id;
        }
        self
    }

    fn without(mut self, id: u64) -> Ticket {
        for slot in &mut self.ids {
            if *slot == id {
                *slot = 0;
            }
        }
        self
    }
}

fn join_capture(id: u64) {
    TICKET.with(|t| t.set(t.get().with(id)));
}

fn leave_capture(id: u64) {
    TICKET.with(|t| t.set(t.get().without(id)));
}

/// Whether a thread holding `ticket` passes the open scope's filter.
fn in_scope(ticket: &Ticket) -> bool {
    // race:order(stored under the ROUTES write lock before a scope's sink is installed and after it is removed; event delivery loads it under the read lock, and the live path tolerates a stale read at a scope's edges)
    let active = ACTIVE_SCOPE.load(Ordering::Relaxed);
    active == 0 || ticket.holds(active)
}

/// The calling thread's ticket, for the threads it is about to start.
pub fn ticket() -> Ticket {
    TICKET.with(Cell::get)
}

/// Makes the calling thread a member of exactly the captures `ticket`
/// names for the guard's lifetime, restoring its previous membership on
/// drop. `jp-par` workers adopt the ticket of the thread that called
/// `run_tasks`; jp-serve threads adopt the one taken at `Server::bind`.
#[must_use = "membership lasts only while the guard is alive"]
pub fn adopt(ticket: Ticket) -> AdoptGuard {
    let previous = TICKET.with(|t| t.replace(ticket));
    AdoptGuard {
        previous,
        _thread: PhantomData,
    }
}

/// One thread's adopted membership; see [`adopt`].
pub struct AdoptGuard {
    previous: Ticket,
    /// Membership is per thread: the guard must drop where it was made.
    _thread: PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        TICKET.with(|t| t.set(self.previous));
    }
}

/// This thread's process-local id, as stamped into [`Event::thread`].
///
/// Ids are handed out in first-emission order and never reused; they are
/// unrelated to the OS thread id.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Whether any destination is on: a sink, a tap or a live scope. One
/// relaxed atomic load, so call sites can skip computing what they
/// would emit.
#[inline(always)]
pub fn enabled() -> bool {
    // race:order(gate flag only; the routes it summarizes are read under the ROUTES lock)
    GATE.load(Ordering::Relaxed) != 0
}

/// Installs `sink` as the process-wide event destination and resets the
/// `start`-offset epoch to now.
pub fn set_sink(sink: Arc<dyn Sink>) {
    let mut routes = write_routes();
    routes.sink = Some(sink);
    routes.epoch = Some(Instant::now());
    routes.publish();
}

/// Removes the process-wide sink (flushing it first). Emission stays
/// enabled if a tap or a live scope is still up.
pub fn clear_sink() {
    let taken = {
        let mut routes = write_routes();
        let taken = routes.sink.take();
        routes.publish();
        taken
    };
    if let Some(sink) = taken {
        sink.flush();
    }
}

/// Installs `tap` as a secondary event destination for the guard's
/// lifetime, and makes the calling thread a member of it.
///
/// A tap receives the events of its member threads only — the
/// installing thread and the threads that [`adopt`]ed a [`ticket`] it
/// was in — whether or not a primary sink is installed. jp-serve's tail
/// sampler rides this, so it buffers its own server's requests while a
/// `--trace` capture keeps writing the full stream, and two servers in
/// one process never see each other's events. Taps stack; each guard
/// removes exactly its own.
#[must_use = "the tap is removed when the guard drops"]
pub fn set_tap(tap: Arc<dyn Sink>) -> TapGuard {
    // race:order(id uniqueness only — no ordering dependency)
    let token = NEXT_CAPTURE.fetch_add(1, Ordering::Relaxed);
    join_capture(token);
    {
        let mut routes = write_routes();
        routes.taps.push((token, tap));
        routes.epoch.get_or_insert_with(Instant::now);
        routes.publish();
    }
    TapGuard {
        token,
        _thread: PhantomData,
    }
}

/// Removes its own tap (flushing it first) and the installing thread's
/// membership in it; see [`set_tap`]. Other taps are untouched.
pub struct TapGuard {
    token: u64,
    /// Membership is per thread: the guard must drop where it was made.
    _thread: PhantomData<*const ()>,
}

impl Drop for TapGuard {
    fn drop(&mut self) {
        leave_capture(self.token);
        let taken = {
            let mut routes = write_routes();
            let taken = routes
                .taps
                .iter()
                .position(|(t, _)| *t == self.token)
                .map(|i| routes.taps.remove(i).1);
            routes.publish();
            taken
        };
        if let Some(tap) = taken {
            tap.flush();
        }
    }
}

/// The `seq` of the innermost span currently open on this thread (or
/// linked in via [`link_parent`]). This is what newly emitted events
/// record as their `parent`.
pub fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Delivers a fully stamped event: to the sink when `ticket` passes the
/// open scope's filter, and to every tap `ticket` is a member of.
fn deliver(routes: &Routes, ticket: &Ticket, event: &Event) {
    if let Some(sink) = routes.sink.as_ref() {
        if in_scope(ticket) {
            sink.record(event);
        }
    }
    for (token, tap) in &routes.taps {
        if ticket.holds(*token) {
            tap.record(event);
        }
    }
}

/// Makes `parent` (the `seq` of a span open on *another* thread) the
/// enclosing span for everything this thread emits while the guard
/// lives. `jp-par` workers link the runtime's `par.run` span this way,
/// so task spans executed on workers still form one tree with the
/// scheduling span that spawned them.
///
/// `None` is an inert guard, so callers can pass through an optional
/// parent without branching.
#[must_use = "the parent link lasts only while the guard is alive"]
pub fn link_parent(parent: Option<u64>) -> LinkGuard {
    if let Some(seq) = parent {
        SPAN_STACK.with(|s| s.borrow_mut().push(seq));
    }
    LinkGuard { seq: parent }
}

/// Cross-thread parent link for one worker thread; see [`link_parent`].
pub struct LinkGuard {
    seq: Option<u64>,
}

impl Drop for LinkGuard {
    fn drop(&mut self) {
        if let Some(seq) = self.seq {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&v| v == seq) {
                    stack.remove(pos);
                }
            });
        }
    }
}

/// Stamps every event this thread emits with serve-request `id` for the
/// guard's lifetime, restoring the previous request context on drop.
///
/// A serve handler installs this when it starts on a request, so
/// queue-wait counters, memo probes, solver and wcoj spans all carry the
/// same `request` field as the wire frame that caused them. `None` is an
/// inert guard (the ambient context — usually none — stays in place),
/// so callers can pass an optional id through without branching.
#[must_use = "the request context lasts only while the guard is alive"]
pub fn with_request(id: Option<u64>) -> RequestGuard {
    let previous = match id {
        Some(id) => CURRENT_REQUEST.with(|r| r.replace(Some(id))),
        None => None,
    };
    RequestGuard {
        installed: id.is_some(),
        previous,
    }
}

/// The request id events on this thread are currently stamped with.
pub fn current_request() -> Option<u64> {
    CURRENT_REQUEST.with(|r| r.get())
}

/// Request-context scope for one thread; see [`with_request`].
pub struct RequestGuard {
    installed: bool,
    previous: Option<u64>,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if self.installed {
            CURRENT_REQUEST.with(|r| r.set(self.previous));
        }
    }
}

/// Counts `value` units of work: one counter event to the sink and taps,
/// and an add to the live counter `component.name`. Each destination
/// sees the call only while it is on and the calling thread passes its
/// filter.
#[inline]
pub fn counter(component: &str, name: &str, value: u64) {
    // race:order(gate flag only; the routes it summarizes are read under the ROUTES lock)
    let gate = GATE.load(Ordering::Relaxed);
    if gate != 0 {
        emit_counter(gate, component, name, value);
    }
}

fn emit_counter(gate: u8, component: &str, name: &str, value: u64) {
    let ticket = ticket();
    if gate & LIVE != 0 && in_scope(&ticket) {
        live::publish(component, name, Update::Add(value));
    }
    if gate & EVENTS != 0 {
        let mut event = Event::counter(component, name, value);
        // race:order(seq uniqueness only; the trace orders by it after the fact)
        event.seq = SEQ.fetch_add(1, Ordering::Relaxed);
        event.thread = thread_id();
        event.parent = current_span();
        event.request = current_request();
        let routes = read_routes();
        event.start = routes.micros();
        deliver(&routes, &ticket, &event);
    }
}

/// Sets the live gauge `component.name` to `value`. Gauges are levels,
/// not work, so they stay out of the event stream: the live registry is
/// their only destination.
#[inline]
pub fn gauge(component: &str, name: &str, value: u64) {
    live_only(component, name, Update::Set(value));
}

/// Records `value` into the live histogram `component.name`. Like
/// [`gauge`], live registry only: durations reach the event stream as
/// [`span`]s.
#[inline]
pub fn observe(component: &str, name: &str, value: u64) {
    live_only(component, name, Update::Observe(value));
}

#[inline]
fn live_only(component: &str, name: &str, update: Update) {
    // race:order(gate flag only; the routes it summarizes are read under the ROUTES lock)
    if GATE.load(Ordering::Relaxed) & LIVE != 0 && in_scope(&ticket()) {
        live::publish(component, name, update);
    }
}

/// Starts an RAII span timer; the event is emitted on drop.
///
/// The span *reserves* its `seq` now (and records its `start` offset and
/// enclosing `parent`), then becomes the current span for this thread —
/// so counters and child spans opened before the guard drops carry this
/// span's `seq` as their `parent`, and a parent's `seq` is always
/// smaller than its children's.
///
/// With no sink or tap installed the guard is inert: the clock is never
/// read.
#[inline]
pub fn span(component: &'static str, name: &'static str) -> SpanGuard {
    // race:order(gate flag only; the routes it summarizes are read under the ROUTES lock)
    if GATE.load(Ordering::Relaxed) & EVENTS == 0 {
        return SpanGuard {
            start: None,
            seq: 0,
            start_offset: 0,
            parent: None,
            request: None,
            component,
            name,
        };
    }
    // race:order(seq uniqueness only; the trace orders by it after the fact)
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let parent = current_span();
    SPAN_STACK.with(|s| s.borrow_mut().push(seq));
    SpanGuard {
        start: Some(Instant::now()),
        seq,
        start_offset: read_routes().micros(),
        parent,
        // Like `parent`, the request context is captured at open: the
        // span belongs to whatever request was live when it started,
        // even if the guard drops after the handler moved on.
        request: current_request(),
        component,
        name,
    }
}

/// Emits a span event with the elapsed time when dropped. See [`span`].
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    start: Option<Instant>,
    seq: u64,
    start_offset: u64,
    parent: Option<u64>,
    request: Option<u64>,
    component: &'static str,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // Pop this span (wherever it sits — guards may be dropped
            // out of order) so later events no longer parent to it.
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&v| v == self.seq) {
                    stack.remove(pos);
                }
            });
            // Re-check: the sink may have been cleared mid-span. The
            // reserved seq then stays unwritten, which `trace summary`
            // reports as an (expected) gap.
            // race:order(gate flag only; the routes it summarizes are read under the ROUTES lock)
            if GATE.load(Ordering::Relaxed) & EVENTS == 0 {
                return;
            }
            let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let mut event = Event::span(self.component, self.name, micros);
            event.seq = self.seq;
            event.thread = thread_id();
            event.start = self.start_offset;
            event.parent = self.parent;
            event.request = self.request;
            deliver(&read_routes(), &ticket(), &event);
        }
    }
}

/// A capture for the lifetime of the guard: events into a sink, the
/// live registry, or both.
///
/// Holders are serialized through a global lock, so concurrently
/// running tests that each open one observe only their own work. While
/// a scope is open, the sink and the live registry take only the work of
/// its members: the opening thread and the threads that [`adopt`]ed a
/// [`ticket`] naming it. Events from unrelated threads (another test's
/// solver, a thread started outside the capture) are dropped instead of
/// polluting it.
pub struct ScopedSink {
    id: u64,
    _serial: MutexGuard<'static, ()>,
}

impl ScopedSink {
    /// Captures events into `sink`, blocking until any other scope has
    /// dropped.
    pub fn install(sink: Arc<dyn Sink>) -> Self {
        Self::open(Some(sink), false)
    }

    /// Opens a scope with `sink` (if any) as the event destination and,
    /// when `live` is set, the live registry reset to zero and fed.
    /// Blocks until any other scope has dropped. On drop the scope
    /// clears the process-wide sink.
    pub fn open(sink: Option<Arc<dyn Sink>>, live: bool) -> Self {
        let serial = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        // race:order(id uniqueness only — no ordering dependency)
        let id = NEXT_CAPTURE.fetch_add(1, Ordering::Relaxed);
        join_capture(id);
        if live {
            live::reset();
        }
        {
            let mut routes = write_routes();
            // race:order(published by the ROUTES write lock released below)
            ACTIVE_SCOPE.store(id, Ordering::Relaxed);
            if let Some(sink) = sink {
                routes.sink = Some(sink);
                routes.epoch = Some(Instant::now());
            }
            routes.live = live;
            routes.publish();
        }
        ScopedSink {
            id,
            _serial: serial,
        }
    }
}

impl Drop for ScopedSink {
    fn drop(&mut self) {
        let taken = {
            let mut routes = write_routes();
            let taken = routes.sink.take();
            routes.live = false;
            // race:order(published by the ROUTES write lock released below)
            ACTIVE_SCOPE.store(0, Ordering::Relaxed);
            routes.publish();
            taken
        };
        leave_capture(self.id);
        if let Some(sink) = taken {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use crate::EventKind;

    #[test]
    fn disabled_by_default_and_scoped_install_restores() {
        {
            let sink = Arc::new(MemorySink::new());
            let _guard = ScopedSink::install(sink.clone());
            assert!(enabled());
            counter("t", "a", 1);
            {
                let _span = span("t", "s");
            }
            let events = sink.events();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind, EventKind::Counter);
            assert_eq!(events[1].kind, EventKind::Span);
            // Sequence numbers are distinct (spans reserve theirs when
            // opened, so file order is not seq order in general).
            assert_ne!(events[0].seq, events[1].seq);
            // Both events carry this thread's id.
            assert_eq!(events[0].thread, thread_id());
            assert_eq!(events[1].thread, thread_id());
            assert_ne!(events[0].thread, 0, "placeholder id must be replaced");
        }
        // Counter after the scope must go nowhere (and not panic).
        counter("t", "b", 1);
    }

    #[test]
    fn spans_parent_their_children() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        {
            let _outer = span("t", "outer");
            counter("t", "inside", 1);
            {
                let _inner = span("t", "inner");
                counter("t", "deep", 1);
            }
        }
        counter("t", "outside", 1);
        let events = sink.events();
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        let outer = by_name("outer");
        let inner = by_name("inner");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inside").parent, Some(outer.seq));
        assert_eq!(inner.parent, Some(outer.seq));
        assert_eq!(by_name("deep").parent, Some(inner.seq));
        assert_eq!(by_name("outside").parent, None);
        // Parents reserve seqs before their children.
        assert!(outer.seq < inner.seq);
        assert!(inner.seq < by_name("deep").seq);
        // Start offsets are monotone in nesting order.
        assert!(outer.start <= inner.start);
    }

    #[test]
    fn link_parent_adopts_a_foreign_span() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        let outer = span("t", "cross_outer");
        let outer_seq = current_span().unwrap();
        let ticket = ticket();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _adopt = adopt(ticket);
                let _link = link_parent(Some(outer_seq));
                counter("t", "linked", 1);
                let _child = span("t", "cross_child");
            });
        });
        drop(outer);
        let events = sink.events();
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("linked").parent, Some(outer_seq));
        assert_eq!(by_name("cross_child").parent, Some(outer_seq));
        assert_eq!(by_name("cross_outer").seq, outer_seq);
        assert!(outer_seq < by_name("cross_child").seq);
    }

    #[test]
    fn link_parent_none_is_inert() {
        let _link = link_parent(None);
        assert_eq!(current_span(), None);
    }

    #[test]
    fn scoped_capture_filters_foreign_threads() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        counter("t", "mine", 1);
        let ticket = ticket();
        std::thread::scope(|s| {
            // Not adopted: filtered out as cross-talk.
            s.spawn(|| counter("t", "foreign", 1));
            // Adopted: captured, stamped with the worker's own id.
            s.spawn(|| {
                let _adopt = adopt(ticket);
                counter("t", "adopted", 1);
            });
        });
        let events = sink.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"mine"), "{names:?}");
        assert!(names.contains(&"adopted"), "{names:?}");
        assert!(!names.contains(&"foreign"), "{names:?}");
        let adopted = events.iter().find(|e| e.name == "adopted").unwrap();
        assert_ne!(adopted.thread, thread_id(), "worker keeps its own id");
    }

    #[test]
    fn a_non_member_passes_on_no_membership() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        std::thread::scope(|s| {
            // A thread outside the capture starts a worker and hands it
            // its own (empty) ticket: the worker stays outside too.
            s.spawn(|| {
                let outside = ticket();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let _adopt = adopt(outside);
                        counter("t", "outsider_worker", 1);
                    });
                });
            });
        });
        assert!(sink.events().is_empty(), "{:?}", sink.events());
    }

    #[test]
    fn adopt_restores_the_previous_membership() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        {
            let _adopt = adopt(Ticket::default());
            counter("t", "while_outside", 1);
        }
        counter("t", "back_inside", 1);
        let names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["back_inside"]);
    }

    #[test]
    fn plain_set_sink_observes_every_thread() {
        // Serialize against other ScopedSink tests.
        let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        std::thread::scope(|s| {
            s.spawn(|| counter("t", "unscoped_worker", 1));
        });
        clear_sink();
        drop(scope);
        let names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
        assert!(names.contains(&"unscoped_worker".to_string()), "{names:?}");
    }

    #[test]
    fn with_request_stamps_counters_and_spans() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        counter("t", "before", 1);
        {
            let _req = with_request(Some(42));
            counter("t", "inside", 1);
            {
                let _span = span("t", "work");
            }
            {
                // Nested contexts restore the outer id on drop.
                let _inner = with_request(Some(43));
                counter("t", "nested", 1);
            }
            counter("t", "restored", 1);
        }
        counter("t", "after", 1);
        let events = sink.events();
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("before").request, None);
        assert_eq!(by_name("inside").request, Some(42));
        assert_eq!(by_name("work").request, Some(42));
        assert_eq!(by_name("nested").request, Some(43));
        assert_eq!(by_name("restored").request, Some(42));
        assert_eq!(by_name("after").request, None);
    }

    #[test]
    fn with_request_none_is_inert() {
        let _outer = with_request(Some(7));
        {
            let _inner = with_request(None);
            assert_eq!(current_request(), Some(7));
        }
        assert_eq!(current_request(), Some(7));
        drop(_outer);
        assert_eq!(current_request(), None);
    }

    #[test]
    fn span_keeps_the_request_it_opened_under() {
        let sink = Arc::new(MemorySink::new());
        let _guard = ScopedSink::install(sink.clone());
        let opened = {
            let _req = with_request(Some(9));
            span("t", "outlives")
        };
        // The request context is gone, but the span opened under it.
        drop(opened);
        let events = sink.events();
        let e = events.iter().find(|e| e.name == "outlives").unwrap();
        assert_eq!(e.request, Some(9));
    }

    #[test]
    fn tap_sees_events_alongside_the_sink_and_alone() {
        let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::new());
        let tap = Arc::new(MemorySink::new());
        let tap_guard = set_tap(tap.clone());
        assert!(enabled(), "a tap alone enables emission");
        counter("t", "tap_only", 1);
        set_sink(sink.clone());
        counter("t", "both", 1);
        clear_sink();
        assert!(enabled(), "the tap keeps emission on after clear_sink");
        counter("t", "tap_again", 1);
        drop(tap_guard);
        assert!(!enabled());
        drop(scope);
        let tap_names: Vec<String> = tap.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(tap_names, vec!["tap_only", "both", "tap_again"]);
        let sink_names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(sink_names, vec!["both"]);
    }

    #[test]
    fn a_tap_sees_only_its_members() {
        let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        let tap = Arc::new(MemorySink::new());
        let tap_guard = set_tap(tap.clone());
        let ticket = ticket();
        std::thread::scope(|s| {
            s.spawn(|| counter("t", "stranger", 1));
            s.spawn(|| {
                let _adopt = adopt(ticket);
                counter("t", "member", 1);
            });
        });
        drop(tap_guard);
        drop(scope);
        let names: Vec<String> = tap.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["member"]);
    }

    #[test]
    fn a_ticket_holds_four_captures() {
        let mut t = Ticket::default();
        for id in 1..=5 {
            t = t.with(id);
        }
        assert!((1..=4).all(|id| t.holds(id)));
        assert!(!t.holds(5), "a fifth capture is not joined");
        let t = t.without(3).with(6);
        assert!(!t.holds(3) && t.holds(6), "a freed slot is reused");
        assert!(!t.holds(0), "0 names no capture");
    }

    #[test]
    fn taps_stack_and_drop_independently() {
        let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        let first = Arc::new(MemorySink::new());
        let second = Arc::new(MemorySink::new());
        let first_guard = set_tap(first.clone());
        let second_guard = set_tap(second.clone());
        counter("t", "both_taps", 1);
        // Dropping the *first* guard must not disturb the second tap —
        // this is a server's tail sampler outliving a shorter-lived
        // `jp explain` capture (or vice versa).
        drop(first_guard);
        assert!(enabled(), "the remaining tap keeps emission on");
        counter("t", "second_only", 1);
        drop(second_guard);
        assert!(!enabled());
        drop(scope);
        let first_names: Vec<String> = first.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(first_names, vec!["both_taps"]);
        let second_names: Vec<String> = second.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(second_names, vec!["both_taps", "second_only"]);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let mine = thread_id();
        assert_eq!(mine, thread_id(), "stable within a thread");
        let other = std::thread::scope(|s| s.spawn(thread_id).join().unwrap());
        assert_ne!(mine, other);
        assert_ne!(other, 0);
    }
}
