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
//! ## Encoded events, one lock each
//!
//! The buffer holds what an event says, as LEB128 fields in one `Vec<u8>`: a
//! kind-and-phase byte, the timestamp as a zig-zag delta from the last, the
//! phase payload, the lane, the key (0, or origin + 1 and a sequence delta)
//! and the arguments: 6–8 bytes an event. [`Tracer::events`] decodes them.
//!
//! The clock an event is stamped against and the buffer sit behind one
//! lock, so every recording call takes exactly one. The detail level is an
//! atomic beside it: the page cache asks whether device detail is on at
//! every page read and write.
//!
//! A full buffer takes none: once [`EVENT_CAP`] events are held, a record
//! is a load of the `full` flag and an add to the drop count — no lock, no
//! clock reading, nothing encoded to be thrown away. The span and flow id
//! generators are atomics for that reason: an id is still drawn past the
//! cap, so a span opened there closes with its own id. (A world records
//! from one thread; threads sharing a tracer get distinct ids, in no
//! promised order.)
//!
//! ## Determinism
//!
//! Events are appended in program order; span and flow ids are sequence
//! numbers from this tracer's generation. The world resets the current
//! tracer when it is built, so one seed yields one event stream — and the
//! Chrome exporter serializes it verbatim, which is what makes same-seed
//! traces byte-identical.

use crate::event::{Gid, Key, Ph, TraceEvent};
use crate::kind::Kind;
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

#[derive(Debug, Default)]
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

/// The clock and `len` encoded events, the next one a delta from `last_*`.
#[derive(Debug, Default)]
struct State {
    clock: SimClock,
    bytes: Vec<u8>,
    len: usize,
    last_ts: u64,
    last_seq: u64,
}

/// Phases a kind byte tells apart: it holds `kind * PHASES + phase`.
const PHASES: usize = 6;

/// Appends `v` as LEB128: seven bits a byte, low bits first.
fn put(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

/// Reads the LEB128 value at `*at` and steps past it.
fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    for (i, &b) in bytes[*at..].iter().enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            *at += i + 1;
            break;
        }
    }
    v
}

/// A signed delta, as a small unsigned number: 0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
}

impl State {
    fn push(&mut self, kind: Kind, ts: u64, ph: Ph, gid: Gid, key: Option<Key>, args: &[u64]) {
        let (phase, payload) = match ph {
            Ph::Complete { dur } => (0, Some(dur)),
            Ph::Begin { span } => (1, Some(span)),
            Ph::End { span } => (2, Some(span)),
            Ph::Instant => (3, None),
            Ph::FlowStart { flow } => (4, Some(flow)),
            Ph::FlowEnd { flow } => (5, Some(flow)),
        };
        let b = &mut self.bytes;
        b.push((kind as usize * PHASES + phase) as u8);
        put(b, zigzag(ts.wrapping_sub(self.last_ts)));
        self.last_ts = ts;
        if let Some(p) = payload {
            put(b, p);
        }
        // Wrapping, so the shared STORE_LANE is the one-byte 0.
        put(b, u64::from(gid.wrapping_add(1)));
        put(b, key.map_or(0, |k| u64::from(k.origin) + 1));
        if let Some(k) = key {
            put(b, zigzag(k.seq.wrapping_sub(self.last_seq)));
            self.last_seq = k.seq;
        }
        for i in 0..kind.arg_names().len() {
            put(b, args.get(i).copied().unwrap_or(0));
        }
        self.len += 1;
    }

    fn events(&self) -> Vec<TraceEvent> {
        let (b, mut at, mut ts, mut seq) = (&self.bytes[..], 0, 0u64, 0u64);
        let mut out = Vec::with_capacity(self.len);
        while at < b.len() {
            let tag = usize::from(b[at]);
            at += 1;
            let kind = Kind::ALL[tag / PHASES];
            ts = ts.wrapping_add(unzigzag(get(b, &mut at)));
            let phase = tag % PHASES;
            let p = if phase == 3 { 0 } else { get(b, &mut at) };
            let ph = match phase {
                0 => Ph::Complete { dur: p },
                1 => Ph::Begin { span: p },
                2 => Ph::End { span: p },
                3 => Ph::Instant,
                4 => Ph::FlowStart { flow: p },
                _ => Ph::FlowEnd { flow: p },
            };
            let gid = (get(b, &mut at) as Gid).wrapping_sub(1);
            let key = match get(b, &mut at) {
                0 => None,
                origin => {
                    seq = seq.wrapping_add(unzigzag(get(b, &mut at)));
                    Some(Key::new((origin - 1) as u32, seq))
                }
            };
            let mut args = [0; 2];
            for a in &mut args[..kind.arg_names().len()] {
                *a = get(b, &mut at);
            }
            out.push(TraceEvent {
                kind,
                ph,
                ts,
                gid,
                key,
                args,
            });
        }
        out
    }
}

/// A handle to one trace buffer. Cloning shares the buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// Creates an empty tracer at [`Detail::Normal`] on a fresh clock.
    pub fn new() -> Self {
        Self::default()
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
        st.bytes.clear();
        (st.len, st.last_ts, st.last_seq) = (0, 0, 0);
        self.inner.full.store(false, Relaxed);
        self.inner.dropped.store(0, Relaxed);
        self.inner.next_span.store(0, Relaxed);
        self.inner.next_flow.store(0, Relaxed);
    }

    /// Every buffered event, decoded, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.state.lock().unwrap().events()
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the buffered events occupy, encoded.
    pub fn stored_bytes(&self) -> usize {
        self.inner.state.lock().unwrap().bytes.len()
    }

    /// Events lost to the [`EVENT_CAP`].
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Relaxed)
    }

    /// Stamps and encodes one event, all under the one state lock — or
    /// counts it dropped, without the lock, when the buffer is full. `ph`
    /// gets the clock reading and returns the event's timestamp and phase.
    fn record(
        &self,
        kind: Kind,
        gid: Gid,
        key: Option<Key>,
        args: &[u64],
        ph: impl FnOnce(u64) -> (u64, Ph),
    ) {
        debug_assert_eq!(args.len(), kind.arg_names().len(), "{kind:?}'s arguments");
        if self.inner.full.load(Relaxed) {
            self.inner.dropped.fetch_add(1, Relaxed);
            return;
        }
        let mut st = self.inner.state.lock().unwrap();
        if st.len >= EVENT_CAP {
            self.inner.dropped.fetch_add(1, Relaxed);
            return;
        }
        let (ts, ph) = ph(st.clock.now());
        if st.len + 1 == EVENT_CAP {
            self.inner.full.store(true, Relaxed);
        }
        st.push(kind, ts, ph, gid, key, args);
    }

    /// Records a point event.
    pub fn instant(&self, kind: Kind, gid: Gid, key: Option<Key>, args: &[u64]) {
        self.record(kind, gid, key, args, |now| (now, Ph::Instant));
    }

    /// Records a complete span that started at `start_ts` and ends now.
    /// The retroactive form is what the lock-grant, force, and
    /// action-resolution paths use: a crash before the end simply records
    /// nothing, so no span can dangle.
    pub fn complete(&self, kind: Kind, gid: Gid, key: Option<Key>, start_ts: u64, args: &[u64]) {
        self.record(kind, gid, key, args, |now| {
            let dur = now.saturating_sub(start_ts);
            (start_ts, Ph::Complete { dur })
        });
    }

    /// Opens a scoped span; the returned guard closes it on drop. Used
    /// only on linear code paths (restart) that cannot leak the guard.
    #[must_use = "dropping the guard closes the span"]
    pub fn begin(&self, kind: Kind, gid: Gid, key: Option<Key>) -> SpanGuard {
        let span = self.inner.next_span.fetch_add(1, Relaxed);
        self.record(kind, gid, key, &[], |now| (now, Ph::Begin { span }));
        SpanGuard {
            tracer: self.clone(),
            kind,
            gid,
            key,
            span,
        }
    }

    /// Records the start of a causal edge and returns its flow id.
    pub fn flow_start(&self, kind: Kind, gid: Gid, key: Option<Key>) -> u64 {
        let flow = self.inner.next_flow.fetch_add(1, Relaxed);
        self.record(kind, gid, key, &[], |now| (now, Ph::FlowStart { flow }));
        flow
    }

    /// Records the arrival of a causal edge.
    pub fn flow_end(&self, kind: Kind, gid: Gid, key: Option<Key>, flow: u64) {
        self.record(kind, gid, key, &[], |now| (now, Ph::FlowEnd { flow }));
    }
}

/// Guard for a [`Tracer::begin`] span: records the matching end on drop.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    kind: Kind,
    gid: Gid,
    key: Option<Key>,
    span: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (span, t) = (self.span, &self.tracer);
        t.record(self.kind, self.gid, self.key, &[], |now| {
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
    use crate::event::STORE_LANE;
    use argus_sim::DetRng;

    #[test]
    fn scoped_tracer_wins_over_default() {
        let t = Tracer::new();
        {
            let _scope = t.enter();
            current().instant(Kind::VoteSent, 0, None, &[1]);
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].name(), "vote_sent");
    }

    #[test]
    fn events_are_stamped_with_the_bound_clock() {
        let t = Tracer::new();
        let clock = SimClock::new();
        t.set_clock(clock.clone());
        clock.advance(42);
        t.instant(Kind::VoteSent, 1, Some(Key::new(1, 7)), &[3]);
        let events = t.events();
        assert_eq!(events[0].ts, 42);
        assert_eq!(events[0].key, Some(Key::new(1, 7)));
        assert_eq!(events[0].arg("ok"), Some(3));
    }

    #[test]
    fn retroactive_complete_measures_elapsed_time() {
        let t = Tracer::new();
        let clock = SimClock::new();
        t.set_clock(clock.clone());
        clock.advance(10);
        let start = t.now();
        clock.advance(25);
        t.complete(Kind::RecoveryPass, 0, None, start, &[]);
        assert_eq!(t.events()[0].ph, Ph::Complete { dur: 25 });
        assert_eq!(t.events()[0].ts, 10);
    }

    #[test]
    fn span_guard_closes_on_drop_with_matching_id() {
        let t = Tracer::new();
        {
            let _span = t.begin(Kind::Restart, 2, None);
            t.instant(Kind::VoteSent, 2, None, &[1]);
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
        assert_eq!(t.flow_start(Kind::NetPrepare, 0, None), 0);
        assert_eq!(t.flow_start(Kind::NetPrepare, 0, None), 1);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.stored_bytes(), 0);
        assert_eq!(t.flow_start(Kind::NetPrepare, 0, None), 0);
    }

    #[test]
    fn every_kind_and_phase_fits_the_tag_byte() {
        assert!(Kind::ALL.len() * PHASES <= 256);
    }

    #[test]
    fn cap_stops_recording_and_counts_drops() {
        let t = Tracer::new();
        for _ in 0..EVENT_CAP + 5 {
            t.instant(Kind::VoteSent, 0, None, &[1]);
        }
        assert_eq!(t.len(), EVENT_CAP);
        assert_eq!(t.dropped(), 5);
        // Kind byte, a zero ts delta, the lane, no key, the one arg.
        assert_eq!(t.stored_bytes(), 5 * EVENT_CAP);
    }

    #[test]
    fn at_the_cap_ids_keep_counting_and_every_drop_is_counted() {
        let t = Tracer::new();
        // One short of full: the flow start below is the last event kept.
        for _ in 0..EVENT_CAP - 1 {
            t.instant(Kind::VoteSent, 0, None, &[1]);
        }
        let first = t.flow_start(Kind::NetPrepare, 0, None);
        {
            let outer = t.begin(Kind::Restart, 0, None);
            let inner = t.begin(Kind::RecoveryPass, 0, None);
            // Opened past the cap, and still told apart.
            assert_eq!((outer.span, inner.span), (0, 1));
        }
        assert_eq!(t.flow_start(Kind::NetPrepare, 0, None), first + 1);
        t.flow_end(Kind::NetPrepare, 1, None, first);
        t.complete(Kind::Force, 0, None, 0, &[0, 0]);
        assert_eq!(t.len(), EVENT_CAP);
        // Two begins, two ends, a flow start, a flow end, a complete.
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.events()[EVENT_CAP - 1].ph, Ph::FlowStart { flow: first });

        // A reset empties the buffer and records again, ids from zero.
        t.reset();
        assert_eq!((t.len(), t.dropped()), (0, 0));
        assert_eq!(t.flow_start(Kind::NetPrepare, 0, None), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn detail_survives_reset() {
        let t = Tracer::new();
        t.set_detail(Detail::Device);
        t.reset();
        assert!(t.device_detail());
    }

    /// The recorder as it was before events were encoded: each kept event
    /// pushed wide, in the analysis form. The encoded buffer must decode to
    /// exactly what this holds.
    #[derive(Default)]
    struct Wide {
        clock: SimClock,
        events: Vec<TraceEvent>,
        dropped: u64,
        next_span: u64,
        next_flow: u64,
    }

    impl Wide {
        fn push(&mut self, kind: Kind, ph: Ph, ts: u64, gid: Gid, key: Option<Key>, a: &[u64]) {
            if self.events.len() >= EVENT_CAP {
                self.dropped += 1;
                return;
            }
            let mut args = [0; 2];
            args[..a.len()].copy_from_slice(a);
            self.events.push(TraceEvent {
                kind,
                ph,
                ts,
                gid,
                key,
                args,
            });
        }

        fn now_push(&mut self, kind: Kind, ph: Ph, gid: Gid, key: Option<Key>, a: &[u64]) {
            let now = self.clock.now();
            self.push(kind, ph, now, gid, key, a);
        }

        fn reset(&mut self) {
            self.events.clear();
            (self.dropped, self.next_span, self.next_flow) = (0, 0, 0);
        }
    }

    /// A value at either end of the range about a third of the time.
    fn edgy(rng: &mut DetRng) -> u64 {
        match rng.gen_range(6) {
            0 => 0,
            1 => u64::MAX,
            2 | 3 => rng.gen_range(1_000),
            _ => rng.next_u64(),
        }
    }

    #[test]
    fn encoded_buffer_decodes_to_what_the_wide_recorder_pushed() {
        let mut rng = DetRng::new(0x7ace);
        let t = Tracer::new();
        let mut wide = Wide::default();
        let mut spans: Vec<(SpanGuard, u64)> = Vec::new();
        let mut flows: Vec<u64> = Vec::new();
        let bare: Vec<Kind> = (Kind::ALL.iter().copied())
            .filter(|k| k.arg_names().is_empty())
            .collect();
        t.set_clock(wide.clock.clone());
        let agree = |t: &Tracer, wide: &Wide| {
            assert_eq!(t.len(), wide.events.len());
            assert_eq!(t.dropped(), wide.dropped);
            assert_eq!(t.events(), wide.events);
        };
        const RESET_AT: u64 = 20_000;
        for step in 0u64.. {
            if step == RESET_AT {
                agree(&t, &wide);
                t.reset();
                wide.reset();
            }
            if step > RESET_AT && wide.dropped >= 2_000 {
                break;
            }
            let kind = Kind::ALL[rng.gen_range(Kind::ALL.len() as u64) as usize];
            let gid = match rng.gen_range(4) {
                0 => STORE_LANE,
                _ => rng.gen_range(3) as Gid,
            };
            let key = match rng.gen_range(3) {
                0 => None,
                1 => Some(Key::new(rng.gen_range(3) as u32, rng.gen_range(50))),
                _ => Some(Key::new(edgy(&mut rng) as u32, edgy(&mut rng))),
            };
            let args: Vec<u64> = kind.arg_names().iter().map(|_| edgy(&mut rng)).collect();
            // Spans and flows carry no arguments.
            let bare = bare[rng.gen_range(bare.len() as u64) as usize];
            match rng.gen_range(10) {
                0 | 1 => {
                    t.instant(kind, gid, key, &args);
                    wide.now_push(kind, Ph::Instant, gid, key, &args);
                }
                2 | 3 => {
                    // Now, retroactive (before the last event), or either end.
                    let now = wide.clock.now();
                    let start = match rng.gen_range(3) {
                        0 => now.saturating_sub(rng.gen_range(100)),
                        1 => now.saturating_sub(rng.gen_range(10_000)),
                        _ => edgy(&mut rng),
                    };
                    t.complete(kind, gid, key, start, &args);
                    let dur = now.saturating_sub(start);
                    wide.push(kind, Ph::Complete { dur }, start, gid, key, &args);
                }
                4 => {
                    let span = wide.next_span;
                    wide.next_span += 1;
                    spans.push((t.begin(bare, gid, key), span));
                    wide.now_push(bare, Ph::Begin { span }, gid, key, &[]);
                }
                5 => {
                    if let Some((guard, span)) = spans.pop() {
                        let (kind, gid, key) = (guard.kind, guard.gid, guard.key);
                        drop(guard);
                        wide.now_push(kind, Ph::End { span }, gid, key, &[]);
                    }
                }
                6 => {
                    let flow = t.flow_start(bare, gid, key);
                    assert_eq!(flow, wide.next_flow);
                    wide.next_flow += 1;
                    wide.now_push(bare, Ph::FlowStart { flow }, gid, key, &[]);
                    flows.push(flow);
                }
                7 => {
                    let flow = match flows.len() {
                        0 => edgy(&mut rng),
                        n => flows[rng.gen_range(n as u64) as usize],
                    };
                    t.flow_end(bare, gid, key, flow);
                    wide.now_push(bare, Ph::FlowEnd { flow }, gid, key, &[]);
                }
                8 => {
                    let room = u64::MAX - wide.clock.now();
                    wide.clock.advance(rng.gen_range(500).min(room));
                }
                _ => {
                    // The clock runs to its end, or starts over on a new one.
                    if rng.gen_range(2) == 0 {
                        wide.clock.advance(u64::MAX - wide.clock.now());
                    } else {
                        wide.clock = SimClock::new();
                    }
                    t.set_clock(wide.clock.clone());
                }
            }
        }
        while let Some((guard, span)) = spans.pop() {
            let (kind, gid, key) = (guard.kind, guard.gid, guard.key);
            drop(guard);
            wide.now_push(kind, Ph::End { span }, gid, key, &[]);
        }
        assert!(wide.dropped > 0 && t.len() == EVENT_CAP);
        agree(&t, &wide);
    }
}
