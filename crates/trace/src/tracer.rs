//! The recorder: a deterministic, bounded event sink bound to the
//! simulated clock.
//!
//! ## Scoped or per-thread
//!
//! Instrumented code records into [`current()`]: the tracer installed on
//! the calling thread via [`Tracer::enter`], falling back to a per-thread
//! default. Unlike `argus_obs`, the fallback is per-thread rather than
//! process-wide: a trace is an ordered history, and interleaving events
//! from concurrently running tests (each with its own simulated clock)
//! would destroy the per-guardian monotonicity that lint I12 checks.
//!
//! Long-lived components — a world, its network, a page cache — take a
//! handle to the tracer current when they are built and keep recording
//! there; per-action state machines record through [`with_current`], which
//! borrows the current tracer instead of cloning its handle.
//!
//! ## One lock per event
//!
//! The clock an event is stamped against and the buffer sit behind one
//! lock, so every recording call takes exactly one. The detail level is an
//! atomic beside it: the page cache asks whether device detail is on at
//! every page read and write.
//!
//! A full buffer takes none: once [`EVENT_CAP`] events are held, a record
//! is a load of the `full` flag and an add to the drop count — no lock, no
//! clock reading, no event built to be thrown away. The span and flow id
//! generators are atomics for that reason: an id is still drawn past the
//! cap, so a span opened there closes with its own id. (A world records
//! from one thread; threads sharing a tracer get distinct ids, in no
//! promised order.)
//!
//! ## Determinism
//!
//! Events are appended in program order; span and flow ids are sequence
//! numbers from this tracer's generation. The world resets the current
//! tracer when it is built, so one seed yields one event vector — and the
//! Chrome exporter serializes that vector verbatim, which is what makes
//! same-seed traces byte-identical.

use crate::event::{args, Gid, Key, Ph, TraceEvent};
use argus_sim::SimClock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Hard cap on buffered events. When a run exceeds it, recording stops and
/// the overflow is counted in [`Tracer::dropped`]; lint I12 skips the
/// completeness checks for truncated traces. 2^18 events cover every
/// scenario test and sweep point with room to spare.
pub const EVENT_CAP: usize = 1 << 18;

/// How much the instrumentation records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detail {
    /// Actions, locks, forces, 2PC phases, network flows, recovery.
    Normal,
    /// Additionally every storage-device operation and cache miss. Enabled
    /// by the trace CLI, experiment E16, and the determinism tests; left
    /// off elsewhere to bound trace volume in long bench runs.
    Device,
}

#[derive(Debug)]
struct Inner {
    /// The clock an event is stamped against and the buffer, behind one
    /// lock, so recording takes one.
    state: Mutex<State>,
    /// Whether the detail level is [`Detail::Device`]. The page cache asks
    /// on every page read and write, so the answer is one relaxed load; it
    /// guards no other data (a stale answer records or skips one device
    /// span).
    device_detail: AtomicBool,
    /// Whether the buffer holds [`EVENT_CAP`] events. Set and cleared under
    /// the lock; read outside it, where a stale "not full" only sends one
    /// more record the slow way.
    full: AtomicBool,
    /// Statistics and id generators, none of which publishes other data.
    dropped: AtomicU64,
    next_span: AtomicU64,
    next_flow: AtomicU64,
}

#[derive(Debug)]
struct State {
    clock: SimClock,
    events: Vec<TraceEvent>,
}

/// A handle to one trace buffer. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer at [`Detail::Normal`] on a fresh clock.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    clock: SimClock::new(),
                    events: Vec::new(),
                }),
                device_detail: AtomicBool::new(false),
                full: AtomicBool::new(false),
                dropped: AtomicU64::new(0),
                next_span: AtomicU64::new(0),
                next_flow: AtomicU64::new(0),
            }),
        }
    }

    /// Installs this tracer as the calling thread's current tracer until
    /// the returned guard drops.
    #[must_use = "the tracer is current only while the guard lives"]
    pub fn enter(&self) -> ScopedTracer {
        CURRENT.with(|stack| stack.borrow_mut().push(self.clone()));
        ScopedTracer { _priv: () }
    }

    /// Binds the simulated clock events are stamped against.
    pub fn set_clock(&self, clock: SimClock) {
        self.inner.state.lock().unwrap().clock = clock;
    }

    /// Current time on the bound clock, microseconds.
    pub fn now(&self) -> u64 {
        self.inner.state.lock().unwrap().clock.now()
    }

    /// Sets the recording detail level.
    pub fn set_detail(&self, detail: Detail) {
        self.inner
            .device_detail
            .store(detail == Detail::Device, Relaxed);
    }

    /// Whether device-level events are being recorded.
    #[inline]
    pub fn device_detail(&self) -> bool {
        self.inner.device_detail.load(Relaxed)
    }

    /// Clears the buffer and restarts the span/flow id generations. The
    /// detail level is kept: it is a property of the observer, not the run.
    pub fn reset(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.events.clear();
        self.inner.full.store(false, Relaxed);
        self.inner.dropped.store(0, Relaxed);
        self.inner.next_span.store(0, Relaxed);
        self.inner.next_flow.store(0, Relaxed);
    }

    /// Snapshot of every buffered event, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.state.lock().unwrap().events.clone()
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events lost to the [`EVENT_CAP`].
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Relaxed)
    }

    /// Stamps and appends one event, all under the one state lock — or
    /// counts it dropped, without the lock, when the buffer is full. `ph`
    /// gets the clock reading and returns the event's timestamp and phase.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        cat: &'static str,
        name: &'static str,
        gid: Gid,
        key: Option<Key>,
        a: &[(&'static str, u64)],
        ph: impl FnOnce(u64) -> (u64, Ph),
    ) {
        if self.inner.full.load(Relaxed) {
            self.inner.dropped.fetch_add(1, Relaxed);
            return;
        }
        let mut st = self.inner.state.lock().unwrap();
        if st.events.len() >= EVENT_CAP {
            self.inner.dropped.fetch_add(1, Relaxed);
            return;
        }
        let (ts, ph) = ph(st.clock.now());
        if st.events.len() + 1 == EVENT_CAP {
            self.inner.full.store(true, Relaxed);
        }
        st.events.push(TraceEvent {
            cat,
            name,
            ph,
            ts,
            gid,
            key,
            args: args(a),
        });
    }

    /// Records a point event.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        gid: Gid,
        key: Option<Key>,
        a: &[(&'static str, u64)],
    ) {
        self.record(cat, name, gid, key, a, |now| (now, Ph::Instant));
    }

    /// Records a complete span that started at `start_ts` and ends now.
    /// The retroactive form is what the lock-grant, force, and
    /// action-resolution paths use: a crash before the end simply records
    /// nothing, so no span can dangle.
    pub fn complete(
        &self,
        cat: &'static str,
        name: &'static str,
        gid: Gid,
        key: Option<Key>,
        start_ts: u64,
        a: &[(&'static str, u64)],
    ) {
        self.record(cat, name, gid, key, a, |now| {
            let dur = now.saturating_sub(start_ts);
            (start_ts, Ph::Complete { dur })
        });
    }

    /// Opens a scoped span; the returned guard closes it on drop. Used
    /// only on linear code paths (restart) that cannot leak the guard.
    #[must_use = "dropping the guard closes the span"]
    pub fn begin(
        &self,
        cat: &'static str,
        name: &'static str,
        gid: Gid,
        key: Option<Key>,
    ) -> SpanGuard {
        let span = self.inner.next_span.fetch_add(1, Relaxed);
        self.record(cat, name, gid, key, &[], |now| (now, Ph::Begin { span }));
        SpanGuard {
            tracer: self.clone(),
            cat,
            name,
            gid,
            key,
            span,
        }
    }

    /// Records the start of a causal edge and returns its flow id.
    pub fn flow_start(
        &self,
        cat: &'static str,
        name: &'static str,
        gid: Gid,
        key: Option<Key>,
    ) -> u64 {
        let flow = self.inner.next_flow.fetch_add(1, Relaxed);
        self.record(cat, name, gid, key, &[], |now| {
            (now, Ph::FlowStart { flow })
        });
        flow
    }

    /// Records the arrival of a causal edge.
    pub fn flow_end(
        &self,
        cat: &'static str,
        name: &'static str,
        gid: Gid,
        key: Option<Key>,
        flow: u64,
    ) {
        self.record(cat, name, gid, key, &[], |now| (now, Ph::FlowEnd { flow }));
    }
}

/// Guard for a [`Tracer::begin`] span: records the matching end on drop.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    cat: &'static str,
    name: &'static str,
    gid: Gid,
    key: Option<Key>,
    span: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let span = self.span;
        self.tracer
            .record(self.cat, self.name, self.gid, self.key, &[], |now| {
                (now, Ph::End { span })
            });
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Tracer>> = const { RefCell::new(Vec::new()) };
    static DEFAULT: Tracer = Tracer::new();
}

/// The calling thread's tracer: the innermost [`Tracer::enter`] scope, or
/// the thread's default tracer.
pub fn current() -> Tracer {
    with_current(Tracer::clone)
}

/// Runs `f` on the calling thread's tracer without cloning the handle —
/// the form per-action state machines record through. `f` must not
/// [`Tracer::enter`] or leave a scope: the scope stack is borrowed while it
/// runs.
pub fn with_current<R>(f: impl FnOnce(&Tracer) -> R) -> R {
    CURRENT.with(|stack| match stack.borrow().last() {
        Some(t) => f(t),
        None => DEFAULT.with(|t| f(t)),
    })
}

/// Scope guard from [`Tracer::enter`].
#[derive(Debug)]
pub struct ScopedTracer {
    _priv: (),
}

impl Drop for ScopedTracer {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_tracer_wins_over_default() {
        let t = Tracer::new();
        {
            let _scope = t.enter();
            current().instant("test", "hello", 0, None, &[]);
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].name, "hello");
    }

    #[test]
    fn events_are_stamped_with_the_bound_clock() {
        let t = Tracer::new();
        let clock = SimClock::new();
        t.set_clock(clock.clone());
        clock.advance(42);
        t.instant("test", "tick", 1, Some(Key::new(1, 7)), &[("n", 3)]);
        let events = t.events();
        assert_eq!(events[0].ts, 42);
        assert_eq!(events[0].key, Some(Key::new(1, 7)));
        assert_eq!(events[0].args[0], Some(("n", 3)));
    }

    #[test]
    fn retroactive_complete_measures_elapsed_time() {
        let t = Tracer::new();
        let clock = SimClock::new();
        t.set_clock(clock.clone());
        clock.advance(10);
        let start = t.now();
        clock.advance(25);
        t.complete("cc", "lock_wait", 0, None, start, &[]);
        assert_eq!(t.events()[0].ph, Ph::Complete { dur: 25 });
        assert_eq!(t.events()[0].ts, 10);
    }

    #[test]
    fn span_guard_closes_on_drop_with_matching_id() {
        let t = Tracer::new();
        {
            let _span = t.begin("recovery", "restart", 2, None);
            t.instant("test", "inside", 2, None, &[]);
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        let (Ph::Begin { span: b }, Ph::End { span: e }) = (events[0].ph, events[2].ph) else {
            panic!("expected begin/end bracketing, got {events:?}");
        };
        assert_eq!(b, e);
    }

    #[test]
    fn flow_ids_are_sequential_and_reset_restarts_them() {
        let t = Tracer::new();
        assert_eq!(t.flow_start("net", "Prepare", 0, None), 0);
        assert_eq!(t.flow_start("net", "Prepare", 0, None), 1);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.flow_start("net", "Prepare", 0, None), 0);
    }

    #[test]
    fn cap_stops_recording_and_counts_drops() {
        let t = Tracer::new();
        for _ in 0..EVENT_CAP + 5 {
            t.instant("test", "e", 0, None, &[]);
        }
        assert_eq!(t.len(), EVENT_CAP);
        assert_eq!(t.dropped(), 5);
    }

    #[test]
    fn at_the_cap_ids_keep_counting_and_every_drop_is_counted() {
        let t = Tracer::new();
        // One short of full: the flow start below is the last event kept.
        for _ in 0..EVENT_CAP - 1 {
            t.instant("test", "e", 0, None, &[]);
        }
        let first = t.flow_start("net", "Prepare", 0, None);
        {
            let outer = t.begin("recovery", "restart", 0, None);
            let inner = t.begin("recovery", "pass", 0, None);
            // Opened past the cap, and still told apart.
            assert_eq!((outer.span, inner.span), (0, 1));
        }
        assert_eq!(t.flow_start("net", "Prepare", 0, None), first + 1);
        t.flow_end("net", "Prepare", 1, None, first);
        t.complete("force", "force", 0, None, 0, &[]);
        assert_eq!(t.len(), EVENT_CAP);
        // Two begins, two ends, a flow start, a flow end, a complete.
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.events()[EVENT_CAP - 1].ph, Ph::FlowStart { flow: first });

        // A reset empties the buffer and records again, ids from zero.
        t.reset();
        assert_eq!((t.len(), t.dropped()), (0, 0));
        assert_eq!(t.flow_start("net", "Prepare", 0, None), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn detail_survives_reset() {
        let t = Tracer::new();
        t.set_detail(Detail::Device);
        t.reset();
        assert!(t.device_detail());
    }
}
