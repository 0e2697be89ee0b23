//! # argus-cc — concurrency control for atomic actions
//!
//! The thesis assumes Argus's two-phase read/write locks on atomic objects
//! (§2.4) but leaves open what happens when two actions collide. This crate
//! supplies the missing subsystem: per-object FIFO wait queues with
//! shared/exclusive modes and upgrade handling, indexed by the actions that
//! parked them ([`LockManager`]), a deterministic deadlock search that
//! starts at the newest parker and derives wait-for edges only for the
//! actions it visits ([`DeadlockSearch`]), and three collision disciplines
//! ([`CcPolicy`]) — optimistic conflict-abort, blocking with deadlock
//! detection (victim = youngest action), and a simulated-clock lock-wait
//! timeout ([`WAIT_TIMEOUT_US`]) — plus a seeded exponential-backoff retry
//! schedule ([`backoff_delay_us`]).
//!
//! The manager is deliberately heap-free: it owns only queues and
//! continuations. Granting is a two-phase conversation with the owner of
//! the heaps (the guardian `World`): walk [`LockManager::fronts`], try the
//! real heap acquisition for each, pop winners with
//! [`LockManager::take_front`], and stamp a front that could not be granted
//! ([`LockManager::note_refused`]) so it is tried again only once the
//! owner's heap has released something. The search reads holders through a
//! callback for the same reason. Queues iterate in [`ObjKey`] order and a
//! search visits successors in action-id order, so a seed pins the
//! complete schedule: grants, deadlocks, victims, and timeouts.

mod graph;
mod lock;
mod policy;

pub use graph::DeadlockSearch;
pub use lock::{Front, LockManager, LockMode, ObjKey, Waiter};
pub use policy::{backoff_delay_us, CcPolicy, WAIT_TIMEOUT_US};

/// How a lock-aware submission resolved, as seen by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcOutcome {
    /// The request was granted and its effect applied synchronously.
    Done,
    /// The request parked on a wait queue; it resumes when the lock is
    /// released (or the action is made a deadlock victim / times out).
    Parked,
    /// The request hit a conflict under [`CcPolicy::ConflictAbort`]; the
    /// caller should abort the action and retry after a backoff.
    Conflict,
}

/// Why the scheduler gave up on a parked action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcFate {
    /// Chosen as the deadlock victim (youngest action on the cycle) and
    /// aborted.
    Victim,
    /// Its lock-wait deadline passed and it was aborted.
    TimedOut,
    /// The guardian holding the awaited object crashed; the wait is moot
    /// and the action was aborted.
    CrashDrained,
}
