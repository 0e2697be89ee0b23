//! The state machines' metric handles and trace hook.
//!
//! A [`crate::Coordinator`] or [`crate::Participant`] lives for one action
//! and is built by whoever drives the protocol (the guardian world, the
//! bounded explorer, a benchmark's leaf replay) through constructors that
//! take no registry. Their counts land in whatever registry is current on
//! the thread *when the transition runs*, so the handles cannot live in the
//! machines; they live in one per-thread set that follows the current
//! registry ([`argus_obs::ThreadHandles`]).

use argus_objects::ActionId;
use argus_obs::{Counter, Registry, ThreadHandles};

/// Every `twopc.*` counter.
pub(crate) struct TwopcObs {
    pub coord_started: Counter,
    pub coord_resumed: Counter,
    pub coord_committed: Counter,
    pub coord_aborted: Counter,
    pub coord_done: Counter,
    pub part_prepares: Counter,
    pub part_resumed_in_doubt: Counter,
    pub part_prepare_ok: Counter,
    pub part_prepare_refused: Counter,
    pub part_commits: Counter,
    pub part_aborts: Counter,
}

impl TwopcObs {
    fn resolve(reg: &Registry) -> Self {
        Self {
            coord_started: reg.counter("twopc.coord.started"),
            coord_resumed: reg.counter("twopc.coord.resumed"),
            coord_committed: reg.counter("twopc.coord.committed"),
            coord_aborted: reg.counter("twopc.coord.aborted"),
            coord_done: reg.counter("twopc.coord.done"),
            part_prepares: reg.counter("twopc.part.prepares"),
            part_resumed_in_doubt: reg.counter("twopc.part.resumed_in_doubt"),
            part_prepare_ok: reg.counter("twopc.part.prepare_ok"),
            part_prepare_refused: reg.counter("twopc.part.prepare_refused"),
            part_commits: reg.counter("twopc.part.commits"),
            part_aborts: reg.counter("twopc.part.aborts"),
        }
    }
}

thread_local! {
    static OBS: ThreadHandles<TwopcObs> = const { ThreadHandles::new() };
}

/// Runs `f` on the handles of the thread's current registry.
pub(crate) fn with<R>(f: impl FnOnce(&TwopcObs) -> R) -> R {
    OBS.with(|handles| handles.with(TwopcObs::resolve, f))
}

/// Records a `twopc` instant on the action's lane of the current tracer.
pub(crate) fn trace_instant(kind: argus_trace::Kind, aid: ActionId, args: &[u64]) {
    let key = argus_trace::Key::new(aid.coordinator.0, aid.seq);
    argus_trace::with_current(|t| t.instant(kind, aid.coordinator.0, Some(key), args));
}
