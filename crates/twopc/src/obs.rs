//! The state machines' metric and trace hooks.
//!
//! A [`crate::Coordinator`] or [`crate::Participant`] lives for one action
//! and is built by whoever drives the protocol (the guardian world, the
//! bounded explorer, a benchmark's leaf replay) through constructors that
//! take no registry. Their counts land in whatever registry is current on
//! the thread *when the transition runs*.

use argus_objects::ActionId;
use argus_obs::Count;

/// Adds one to the counter `row` of the thread's current registry.
pub(crate) fn count(row: Count) {
    argus_obs::with_current(|reg| reg.inc(row));
}

/// Records a `twopc` instant on the action's lane of the current tracer.
pub(crate) fn trace_instant(kind: argus_trace::Kind, aid: ActionId, args: &[u64]) {
    let key = argus_trace::Key::new(aid.coordinator.0, aid.seq);
    argus_trace::with_current(|t| t.instant(kind, aid.coordinator.0, Some(key), args));
}
