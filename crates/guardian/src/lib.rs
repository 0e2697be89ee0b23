//! The Argus guardian substrate (§2.1, §2.3).
//!
//! Guardians are the logical nodes of the distributed system: each
//! encapsulates a volatile [`argus_objects::Heap`], a recovery system over
//! its own stable log, and its halves of any in-flight two-phase commits —
//! which it runs itself, one step at a time: an input (a message, a commit
//! request, a completed force, a timeout, a recovery) goes in, the mail to
//! send, the force deadlines, a verdict or a crash come out (DESIGN.md, "A
//! guardian's step"). [`World`] is the driver: it simulates a network of
//! guardians deterministically — message delivery, the group-commit and
//! lock-wait loops, node crashes (volatile state vanishes, stable media
//! survive), restarts (the recovery system rebuilds the stable state,
//! in-doubt participants query their coordinators, committing coordinators
//! restart phase two) — and applies each step's effects.
//!
//! Simplifications relative to full Argus, recorded in DESIGN.md: handler
//! calls are modeled by the caller manipulating objects at several guardians
//! under one action id, and subactions are elided. A guardian an action
//! only read at is a *read-only participant*: it holds read locks, so it
//! joins two-phase commit and releases them with the action's outcome
//! ([`World::read`]).

mod error;
mod guardian;
mod live;
mod network;
#[cfg(test)]
mod tests;
mod world;

pub use error::{WorldError, WorldResult};
pub use guardian::{Effects, Guardian, Input, RsKind, StagedOp, Touch};
pub use network::{NetFaults, SimNetwork};
pub use world::{MediaKind, Outcome, World, WorldConfig};

// The concurrency-control vocabulary of the `submit_*`/`cc_*` World API, so
// drivers need not depend on `argus-cc` directly.
pub use argus_cc::{BackoffConfig, CcConfig, CcFate, CcOutcome, CcPolicy};
