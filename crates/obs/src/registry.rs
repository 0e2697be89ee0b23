//! The metric registry: named counters, histograms and phase timers,
//! resolvable globally or per-scope.

use crate::counter::Counter;
use crate::hist::Histogram;
use crate::report::Report;
use argus_sim::SimClock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One kind of named metric: the handles by name, and how many by-name
/// resolutions have been served (counted under the lock every resolution
/// takes anyway).
#[derive(Debug)]
struct Named<T> {
    by_name: BTreeMap<String, T>,
    lookups: u64,
}

impl<T: Clone + Default> Named<T> {
    fn new() -> Mutex<Self> {
        Mutex::new(Self {
            by_name: BTreeMap::new(),
            lookups: 0,
        })
    }

    /// Resolves (creating on first use) the handle `name`.
    fn resolve(&mut self, name: &str) -> T {
        self.lookups += 1;
        match self.by_name.get(name) {
            Some(handle) => handle.clone(),
            None => {
                let handle = T::default();
                self.by_name.insert(name.to_string(), handle.clone());
                handle
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    counters: Mutex<Named<Counter>>,
    hists: Mutex<Named<Histogram>>,
    clock: Mutex<SimClock>,
}

/// A registry of named [`Counter`]s and [`Histogram`]s.
///
/// Cloning is cheap (one `Arc`). Instrumented structs resolve handles by
/// name once, at construction, and bump plain atomics afterwards: every
/// by-name call ([`Registry::counter`], [`Registry::histogram`] and the
/// conveniences built on them) takes a lock and walks a string-keyed map,
/// and [`Registry::lookups`] counts them so a test can pin a hot path at
/// zero.
///
/// Resolution is **global-or-injected**: [`crate::current()`] returns the
/// registry installed on the calling thread by [`Registry::enter`], falling
/// back to the process-wide [`crate::global()`] registry. Each `#[test]`
/// runs on its own thread, so a test that wants isolated metrics does
///
/// ```
/// use argus_obs::Registry;
///
/// let reg = Registry::new();
/// let _scope = reg.enter();
/// // everything constructed here records into `reg`
/// argus_obs::current().counter("demo").inc();
/// assert_eq!(reg.counter("demo").get(), 1);
/// ```
///
/// Phase timers measure **simulated** time: the registry holds a [`SimClock`]
/// (replaceable via [`Registry::set_clock`], which `World::new` does). A
/// [`Timer`] is the held-handle form — a histogram plus the clock the
/// registry had when the handle was resolved; a [`PhaseTimer`] guard is the
/// by-name form for cold paths and records `clock.now()` deltas into a
/// histogram when dropped.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry with its own (zeroed) clock.
    pub fn new() -> Self {
        Self::with_clock(SimClock::new())
    }

    /// Creates an empty registry reading simulated time from `clock`.
    pub fn with_clock(clock: SimClock) -> Self {
        Self {
            inner: Arc::new(Inner {
                counters: Named::new(),
                hists: Named::new(),
                clock: Mutex::new(clock),
            }),
        }
    }

    /// Replaces the clock that phase timers read. Existing [`Timer`]s and
    /// [`PhaseTimer`] guards keep their original clock.
    pub fn set_clock(&self, clock: SimClock) {
        *self.inner.clock.lock().unwrap() = clock;
    }

    /// A handle to the registry's clock.
    pub fn clock(&self) -> SimClock {
        self.inner.clock.lock().unwrap().clone()
    }

    /// Whether `other` is a handle to this very registry. Per-thread
    /// handle sets ([`crate::ThreadHandles`]) key on it.
    pub fn same(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// How many by-name resolutions this registry has served. Code between
    /// `World::begin` and the commit acknowledgement performs none in
    /// steady state (`tests/instrumentation_budget.rs`).
    pub fn lookups(&self) -> u64 {
        let counters = self.inner.counters.lock().unwrap().lookups;
        counters + self.inner.hists.lock().unwrap().lookups
    }

    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.counters.lock().unwrap().resolve(name)
    }

    /// Resolves (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.hists.lock().unwrap().resolve(name)
    }

    /// Convenience: `counter(name).add(n)`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Convenience: `counter(name).inc()`.
    pub fn inc(&self, name: &str) {
        self.counter(name).inc();
    }

    /// Convenience: `histogram(name).record(v)`.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Resolves the histogram `name` (by convention suffixed `_us`) as a
    /// [`Timer`] on the clock the registry reads now — the handle a hot
    /// path holds instead of calling [`Registry::phase`] per event.
    pub fn timer(&self, name: &str) -> Timer {
        Timer {
            hist: self.histogram(name),
            clock: self.clock(),
        }
    }

    /// Starts a phase timer recording into the histogram `name` (by
    /// convention suffixed `_us`) when the guard drops. The by-name form,
    /// for cold paths and tests.
    pub fn phase(&self, name: &str) -> PhaseTimer {
        self.timer(name).into_guard()
    }

    /// Snapshots every counter and histogram into a [`Report`].
    pub fn report(&self) -> Report {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .by_name
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let hists = self
            .inner
            .hists
            .lock()
            .unwrap()
            .by_name
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        Report { counters, hists }
    }

    /// Resets every counter and histogram (names persist, so already-cached
    /// handles stay live).
    pub fn reset(&self) {
        for c in self.inner.counters.lock().unwrap().by_name.values() {
            c.reset();
        }
        for h in self.inner.hists.lock().unwrap().by_name.values() {
            h.reset();
        }
    }

    /// Installs this registry as the calling thread's current registry until
    /// the returned guard drops. Nests: the innermost scope wins.
    pub fn enter(&self) -> ScopedRegistry {
        CURRENT.with(|stack| stack.borrow_mut().push(self.clone()));
        ScopedRegistry { _priv: () }
    }
}

/// A histogram handle bound to a simulated clock: the hot-path phase
/// timer. Read [`Timer::now`] where the phase starts and hand the reading
/// to [`Timer::record_since`] where it ends — two atomic loads and one
/// histogram record, no lock, no lookup, nothing cloned. Where the phase
/// has early exits, [`Timer::start`] gives the guard form for the price of
/// two handle clones.
///
/// The clock is the one the registry had when the handle was resolved
/// ([`Registry::timer`]), exactly as the histogram is that registry's: a
/// component resolves both at construction and keeps timing against the
/// world it was built in.
#[derive(Debug, Clone)]
pub struct Timer {
    hist: Histogram,
    clock: SimClock,
}

impl Timer {
    /// The bound clock's current reading, simulated µs.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Records the simulated µs elapsed since `start` and returns them.
    #[inline]
    pub fn record_since(&self, start: u64) -> u64 {
        let elapsed = self.clock.now().saturating_sub(start);
        self.hist.record(elapsed);
        elapsed
    }

    /// Starts a guard that records the elapsed simulated µs when dropped
    /// or stopped, whichever way the phase is left.
    pub fn start(&self) -> PhaseTimer {
        self.clone().into_guard()
    }

    fn into_guard(self) -> PhaseTimer {
        PhaseTimer {
            start: self.now(),
            timer: self,
            stopped: false,
        }
    }
}

/// A span-like guard measuring one phase against the simulated clock.
///
/// Records `clock.now() - start` into its histogram when dropped (or
/// explicitly via [`PhaseTimer::stop`], which also returns the elapsed µs).
#[derive(Debug)]
pub struct PhaseTimer {
    timer: Timer,
    start: u64,
    stopped: bool,
}

impl PhaseTimer {
    /// Stops the timer now, records the elapsed simulated µs, and returns it.
    pub fn stop(mut self) -> u64 {
        self.stopped = true;
        self.timer.record_since(self.start)
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if !self.stopped {
            self.timer.record_since(self.start);
        }
    }
}

/// Guard returned by [`Registry::enter`]; uninstalls the scope on drop.
#[derive(Debug)]
pub struct ScopedRegistry {
    _priv: (),
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry.
pub fn global() -> Registry {
    GLOBAL.get_or_init(Registry::new).clone()
}

/// The registry instrumented code should record into: the innermost registry
/// [`Registry::enter`]ed on this thread, else [`global()`].
pub fn current() -> Registry {
    with_current(Registry::clone)
}

/// Runs `f` on the current registry without cloning the handle. `f` must
/// not [`Registry::enter`] or leave a scope: the scope stack is borrowed
/// while it runs.
fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    CURRENT.with(|stack| match stack.borrow().last() {
        Some(reg) => f(reg),
        None => f(GLOBAL.get_or_init(Registry::new)),
    })
}

/// One set of metric handles per thread, following the thread's current
/// registry.
///
/// Long-lived components resolve their handles at construction. Per-action
/// state machines (a 2PC coordinator, a parked lock request) are built far
/// too often for that and have no owner to hold handles for them, so each
/// such crate keeps one `thread_local!` `ThreadHandles<T>`: the set is
/// resolved from [`current()`] on first use and again only when a different
/// registry has become current, so in steady state an event costs the
/// identity check and the atomic bumps — and every count still lands in
/// the registry that is current *when it is recorded*, as it did when these
/// sites called `current()` per event.
///
/// The set keeps a handle to the registry it was resolved from, so that
/// registry's address cannot be reused while the set could still match it.
#[derive(Debug)]
pub struct ThreadHandles<T> {
    slot: RefCell<Option<(Registry, T)>>,
}

impl<T> ThreadHandles<T> {
    /// An unresolved set.
    pub const fn new() -> Self {
        Self {
            slot: RefCell::new(None),
        }
    }

    /// Runs `f` on the handles of the current registry, calling `resolve`
    /// first if this thread last used a different one. `f` must not use
    /// this same set again, nor enter or leave a registry scope.
    pub fn with<R>(&self, resolve: impl FnOnce(&Registry) -> T, f: impl FnOnce(&T) -> R) -> R {
        with_current(|reg| {
            let mut slot = self.slot.borrow_mut();
            if !matches!(&*slot, Some((bound, _)) if bound.same(reg)) {
                *slot = Some((reg.clone(), resolve(reg)));
            }
            let (_, handles) = slot.as_ref().expect("resolved just above");
            f(handles)
        })
    }
}

impl<T> Default for ThreadHandles<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_are_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn scoped_registry_overrides_global() {
        let reg = Registry::new();
        {
            let _scope = reg.enter();
            current().counter("scoped").inc();
            // Nested scope wins, then restores.
            let inner = Registry::new();
            {
                let _s2 = inner.enter();
                current().counter("scoped").inc();
            }
            current().counter("scoped").inc();
            assert_eq!(inner.counter("scoped").get(), 1);
        }
        assert_eq!(reg.counter("scoped").get(), 2);
        assert_eq!(global().counter("scoped").get(), 0);
    }

    #[test]
    fn phase_timer_records_sim_elapsed() {
        let clock = SimClock::new();
        let reg = Registry::with_clock(clock.clone());
        {
            let _t = reg.phase("demo_us");
            clock.advance(250);
        }
        let t2 = reg.phase("demo_us");
        clock.advance(50);
        assert_eq!(t2.stop(), 50);
        let s = reg.histogram("demo_us").snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 300);
        assert_eq!(s.max, 250);
    }

    #[test]
    fn set_clock_rebinds_timers_resolved_after_it() {
        let reg = Registry::new();
        let clock = SimClock::new();
        clock.advance(77);
        reg.set_clock(clock.clone());
        assert_eq!(reg.clock().now(), 77);
        assert_eq!(reg.timer("t_us").now(), 77);
    }

    #[test]
    fn report_collects_everything() {
        let reg = Registry::new();
        reg.inc("c1");
        reg.observe("h1_us", 9);
        let report = reg.report();
        assert_eq!(report.counters, vec![("c1".to_string(), 1)]);
        assert_eq!(report.hists.len(), 1);
    }

    #[test]
    fn reset_keeps_cached_handles_live() {
        let reg = Registry::new();
        let c = reg.counter("keep");
        c.add(5);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter("keep").get(), 1);
    }

    #[test]
    fn lookups_count_by_name_resolutions_only() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let t = reg.timer("t_us");
        let before = reg.lookups();
        assert_eq!(before, 2);
        c.inc();
        t.record_since(t.now());
        drop(t.start());
        assert_eq!(reg.lookups(), before, "handles resolve nothing");
        reg.inc("c");
        reg.observe("t_us", 1);
        drop(reg.phase("t_us"));
        assert_eq!(reg.lookups(), before + 3);
    }

    #[test]
    fn timer_keeps_the_clock_it_was_resolved_on() {
        let first = SimClock::new();
        let reg = Registry::with_clock(first.clone());
        let timer = reg.timer("demo_us");
        // A later world rebinds the registry; this component stays on its own.
        reg.set_clock(SimClock::new());
        let t0 = timer.now();
        first.advance(40);
        assert_eq!(timer.record_since(t0), 40);
        let guard = timer.start();
        first.advance(2);
        assert_eq!(guard.stop(), 2);
        let s = reg.histogram("demo_us").snapshot();
        assert_eq!((s.count, s.sum), (2, 42));
    }

    #[test]
    fn thread_handles_follow_the_current_registry() {
        thread_local! {
            static HITS: ThreadHandles<Counter> = const { ThreadHandles::new() };
        }
        let hit = || HITS.with(|h| h.with(|reg| reg.counter("hits"), Counter::inc));
        let (a, b) = (Registry::new(), Registry::new());
        {
            let _a = a.enter();
            hit();
            hit();
            {
                let _b = b.enter();
                hit();
            }
            hit();
        }
        assert_eq!(a.counter("hits").get(), 3);
        assert_eq!(b.counter("hits").get(), 1);
        // Resolved once per change of registry, not once per event: a, b, a.
        assert_eq!(a.lookups(), 2 + 1);
        assert_eq!(b.lookups(), 1 + 1);
    }
}
