//! The metric registry: one counter per [`Count`] row and one histogram per
//! [`Hist`] row, resolvable globally or per scope.

use crate::catalogue::{Count, Hist};
use crate::counter::Counter;
use crate::hist::Histogram;
use crate::report::Report;
use argus_sim::SimClock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug)]
struct Inner {
    counters: [Counter; Count::ALL.len()],
    hists: [Histogram; Hist::ALL.len()],
    clock: Mutex<SimClock>,
    /// By-name resolutions served.
    lookups: AtomicU64,
}

/// How a registry call names a metric: by its catalogue row, or — in tests
/// and the benchmark — by its dotted name, which is searched for in the
/// catalogue, counted by [`Registry::lookups`], and panics if it is no row.
pub trait Name<R>: Copy {
    /// The row this names.
    fn row(self, reg: &Registry) -> R;
}

macro_rules! names {
    ($($row:ident),*) => {$(
        impl Name<$row> for $row {
            #[inline]
            fn row(self, _: &Registry) -> $row {
                self
            }
        }

        impl Name<$row> for &str {
            #[inline]
            fn row(self, reg: &Registry) -> $row {
                reg.inner.lookups.fetch_add(1, Ordering::Relaxed);
                $row::named(self)
            }
        }

        impl Name<$row> for &&str {
            fn row(self, reg: &Registry) -> $row {
                (*self).row(reg)
            }
        }
    )*};
}

names!(Count, Hist);

/// One [`Counter`] per [`Count`] row and one [`Histogram`] per [`Hist`]
/// row, and the simulated clock phase timings read.
///
/// Cloning is cheap (one `Arc`). Code records by row
/// (`reg.inc(Count::SlogAppends)`: an index and an atomic add); the
/// by-name forms of [`Registry::counter`], [`Registry::histogram`] and
/// [`Registry::inc`] are for tests and the benchmark, and
/// [`Registry::lookups`] counts them so a test can pin a hot path at zero.
///
/// Resolution is **global-or-injected**: [`crate::current()`] returns the
/// registry installed on the calling thread by [`Registry::enter`], falling
/// back to the process-wide [`crate::global()`] registry. Each `#[test]`
/// runs on its own thread, so a test that wants isolated metrics does
///
/// ```
/// use argus_obs::{Count, Registry};
///
/// let reg = Registry::new();
/// let _scope = reg.enter();
/// // everything constructed here records into `reg`
/// argus_obs::current().inc(Count::SlogAppends);
/// assert_eq!(reg.counter("slog.appends").get(), 1);
/// ```
///
/// Phase timers measure **simulated** time: the registry holds a
/// [`SimClock`] (replaceable via [`Registry::set_clock`], which `World::new`
/// does). A component that times phases reads the clock it was built on —
/// its own, or the registry's at construction — and hands it to
/// [`Registry::record_since`] or [`Registry::phase`].
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
                counters: std::array::from_fn(|_| Counter::new()),
                hists: std::array::from_fn(|_| Histogram::new()),
                clock: Mutex::new(clock),
                lookups: AtomicU64::new(0),
            }),
        }
    }

    /// Replaces the registry's clock. Components built earlier keep the
    /// clock they read then.
    pub fn set_clock(&self, clock: SimClock) {
        *self.inner.clock.lock().unwrap() = clock;
    }

    /// A handle to the registry's clock.
    pub fn clock(&self) -> SimClock {
        self.inner.clock.lock().unwrap().clone()
    }

    /// How many by-name resolutions this registry has served. Code between
    /// `World::begin` and the commit acknowledgement performs none
    /// (`tests/instrumentation_budget.rs`).
    pub fn lookups(&self) -> u64 {
        self.inner.lookups.load(Ordering::Relaxed)
    }

    /// A handle to the counter `name`.
    pub fn counter(&self, name: impl Name<Count>) -> Counter {
        self.inner.counters[name.row(self) as usize].clone()
    }

    /// A handle to the histogram `name`.
    pub fn histogram(&self, name: impl Name<Hist>) -> Histogram {
        self.inner.hists[name.row(self) as usize].clone()
    }

    /// Adds one to the counter `name`.
    #[inline]
    pub fn inc(&self, name: impl Name<Count>) {
        self.add(name.row(self), 1);
    }

    /// Adds `n` to the counter `row`.
    #[inline]
    pub fn add(&self, row: Count, n: u64) {
        self.inner.counters[row as usize].add(n);
    }

    /// Records `v` into the histogram `row`.
    #[inline]
    pub fn record(&self, row: Hist, v: u64) {
        self.inner.hists[row as usize].record(v);
    }

    /// Records into the histogram `row` the simulated µs `clock` moved
    /// since `start`, and returns them.
    #[inline]
    pub fn record_since(&self, row: Hist, clock: &SimClock, start: u64) -> u64 {
        let elapsed = clock.now().saturating_sub(start);
        self.record(row, elapsed);
        elapsed
    }

    /// Starts a guard that records into the histogram `row` the simulated
    /// µs `clock` moves until it is dropped or stopped, whichever way the
    /// phase is left.
    pub fn phase(&self, row: Hist, clock: &SimClock) -> PhaseTimer {
        PhaseTimer {
            reg: self.clone(),
            row,
            start: clock.now(),
            clock: clock.clone(),
            stopped: false,
        }
    }

    /// Snapshots every row, in name order, into a [`Report`].
    pub fn report(&self) -> Report {
        let counters = self.inner.counters.iter().map(Counter::get);
        let hists = self.inner.hists.iter().map(Histogram::snapshot);
        Report {
            counters: Count::ALL.iter().copied().zip(counters).collect(),
            hists: Hist::ALL.iter().copied().zip(hists).collect(),
        }
    }

    /// Resets every counter and histogram; handles stay live.
    pub fn reset(&self) {
        self.inner.counters.iter().for_each(Counter::reset);
        self.inner.hists.iter().for_each(Histogram::reset);
    }

    /// Installs this registry as the calling thread's current registry until
    /// the returned guard drops. Nests: the innermost scope wins.
    pub fn enter(&self) -> ScopedRegistry {
        CURRENT.with(|stack| stack.borrow_mut().push(self.clone()));
        ScopedRegistry { _priv: () }
    }
}

/// A span-like guard measuring one phase against a simulated clock
/// ([`Registry::phase`]).
///
/// Records `clock.now() - start` into its histogram when dropped (or
/// explicitly via [`PhaseTimer::stop`], which also returns the elapsed µs).
#[derive(Debug)]
pub struct PhaseTimer {
    reg: Registry,
    row: Hist,
    clock: SimClock,
    start: u64,
    stopped: bool,
}

impl PhaseTimer {
    /// Stops the timer now, records the elapsed simulated µs, and returns it.
    pub fn stop(mut self) -> u64 {
        self.stopped = true;
        self.reg.record_since(self.row, &self.clock, self.start)
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if !self.stopped {
            self.reg.record_since(self.row, &self.clock, self.start);
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

/// Runs `f` on the current registry without cloning the handle: how a
/// per-action machine (a 2PC coordinator or participant, a fault plan
/// firing a crash) records into the registry current *when its transition
/// runs*. `f` must not [`Registry::enter`] or leave a scope: the scope
/// stack is borrowed while it runs.
pub fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    CURRENT.with(|stack| match stack.borrow().last() {
        Some(reg) => f(reg),
        None => f(GLOBAL.get_or_init(Registry::new)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_and_its_row_are_one_counter() {
        let reg = Registry::new();
        let a = reg.counter("slog.appends");
        let b = reg.counter(Count::SlogAppends);
        a.inc();
        b.inc();
        reg.inc(Count::SlogAppends);
        assert_eq!(reg.counter("slog.appends").get(), 3);
        assert_eq!(reg.counter(Count::SlogForces).get(), 0);
    }

    #[test]
    #[should_panic(expected = "\"demo\" is no Hist of the argus-obs catalogue")]
    fn an_unknown_name_panics() {
        Registry::new().histogram("demo");
    }

    #[test]
    fn scoped_registry_overrides_global() {
        let reg = Registry::new();
        {
            let _scope = reg.enter();
            current().inc(Count::BenchProbe);
            // Nested scope wins, then restores.
            let inner = Registry::new();
            {
                let _s2 = inner.enter();
                with_current(|r| r.inc(Count::BenchProbe));
            }
            with_current(|r| r.inc(Count::BenchProbe));
            assert_eq!(inner.counter(Count::BenchProbe).get(), 1);
        }
        assert_eq!(reg.counter(Count::BenchProbe).get(), 2);
        assert_eq!(global().counter(Count::BenchProbe).get(), 0);
    }

    #[test]
    fn phase_timer_records_sim_elapsed() {
        let clock = SimClock::new();
        let reg = Registry::new();
        {
            let _t = reg.phase(Hist::WorldRestartUs, &clock);
            clock.advance(250);
        }
        let t2 = reg.phase(Hist::WorldRestartUs, &clock);
        clock.advance(50);
        assert_eq!(t2.stop(), 50);
        let s = reg.histogram(Hist::WorldRestartUs).snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 300);
        assert_eq!(s.max, 250);
    }

    #[test]
    fn set_clock_replaces_the_registry_clock() {
        let reg = Registry::new();
        let clock = SimClock::new();
        clock.advance(77);
        reg.set_clock(clock.clone());
        assert_eq!(reg.clock().now(), 77);
    }

    #[test]
    fn report_lists_every_row_in_name_order() {
        let reg = Registry::new();
        reg.inc(Count::CcWaits);
        reg.record(Hist::SlogForceUs, 9);
        let report = reg.report();
        assert_eq!(report.counters.len(), Count::ALL.len());
        assert_eq!(report.hists.len(), Hist::ALL.len());
        let counted: Vec<_> = report.counters.iter().filter(|(_, v)| *v != 0).collect();
        assert_eq!(counted, [&(Count::CcWaits, 1)]);
        assert_eq!(report.hists[Hist::SlogForceUs as usize].1.sum, 9);
    }

    #[test]
    fn reset_keeps_cached_handles_live() {
        let reg = Registry::new();
        let c = reg.counter(Count::CcWaits);
        c.add(5);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter("cc.waits").get(), 1);
    }

    #[test]
    fn lookups_count_by_name_resolutions_only() {
        let reg = Registry::new();
        let c = reg.counter(Count::CcWaits);
        reg.inc(Count::CcWaits);
        reg.add(Count::CcWaits, 2);
        reg.record(Hist::CcWaitUs, 1);
        drop(reg.phase(Hist::CcWaitUs, &SimClock::new()));
        c.inc();
        assert_eq!(reg.lookups(), 0, "rows resolve nothing");
        reg.inc("cc.waits");
        reg.counter("cc.waits");
        reg.histogram("cc.wait_us");
        assert_eq!(reg.lookups(), 3);
    }

    #[test]
    fn timer_keeps_the_clock_it_was_resolved_on() {
        let first = SimClock::new();
        let reg = Registry::with_clock(first.clone());
        let clock = reg.clock();
        // A later world rebinds the registry; this component stays on its own.
        reg.set_clock(SimClock::new());
        let t0 = clock.now();
        first.advance(40);
        assert_eq!(reg.record_since(Hist::CorePrepareUs, &clock, t0), 40);
        let guard = reg.phase(Hist::CorePrepareUs, &clock);
        first.advance(2);
        assert_eq!(guard.stop(), 2);
        let s = reg.histogram(Hist::CorePrepareUs).snapshot();
        assert_eq!((s.count, s.sum), (2, 42));
    }

    #[test]
    fn with_current_follows_the_current_registry() {
        let hit = || with_current(|r| r.inc(Count::TwopcCoordStarted));
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
        assert_eq!(a.counter(Count::TwopcCoordStarted).get(), 3);
        assert_eq!(b.counter(Count::TwopcCoordStarted).get(), 1);
        assert_eq!(a.lookups() + b.lookups(), 0);
    }
}
