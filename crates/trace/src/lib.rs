//! # argus-trace — deterministic causal tracing
//!
//! `argus-obs` aggregates (counters, histograms, timers); it can say
//! *that* p99 commit latency exploded, never *why one action* took that
//! long. This crate records the causal history itself: a span/event
//! stream keyed by `(guardian, action)` with flow edges carried across
//! 2PC messages, cheap enough to leave on and deterministic enough to
//! diff — the same seed yields a byte-identical trace. It is the stack's
//! one event stream: the milestones off the commit path (a log opened, a
//! crash fired, a mirror repair, a compaction or snapshot pass) are kinds
//! of the same catalogue.
//!
//! * [`Tracer`] — the bounded recorder, bound to [`argus_sim::SimClock`];
//!   scoped per thread via [`Tracer::enter`] with a per-thread default
//!   (see [`current()`]);
//! * [`TraceEvent`] / [`Ph`] / [`Key`] / [`Kind`] — the event model: complete
//!   spans, scoped begin/end pairs, instants and flow edges, each of a kind
//!   from one static catalogue (`argus-lint trace --kinds` lists it);
//! * [`to_chrome_json`] — Chrome trace-event export, loadable in
//!   Perfetto (`argus-lint trace --seed N --out trace.json`);
//! * [`attribute`] — per-action latency decomposition into lock-wait /
//!   force-wait / network / device / processing segments that provably
//!   sum to the end-to-end latency (experiment E16);
//! * [`lint_events`] — the structural trace lint behind invariant I12;
//! * [`flight`] — the counterexample flight recorder the sweeper and the
//!   2PC explorer dump failing schedules through.
//!
//! Instrumented crates record into [`current()`]; the guardian world
//! binds its clock and resets the current tracer when it is built, so a
//! tracer entered around a run observes exactly that run.

mod attr;
mod chrome;
mod event;
pub mod flight;
mod kind;
mod lint;
mod tracer;

pub use attr::{attribute, ActionLatency};
pub use chrome::to_chrome_json;
pub use event::{Gid, Key, Ph, TraceEvent, STORE_LANE};
pub use kind::Kind;
pub use lint::lint_events;
pub use tracer::{current, with_current, Detail, ScopedTracer, SpanGuard, Tracer, EVENT_CAP};
