//! Two-phase commit (§2.2 of the thesis).
//!
//! Pure state machines for the coordinator and the participant. Neither
//! machine performs I/O: each transition returns a list of *effects* —
//! messages to send, records to force — that the guardian substrate executes
//! against its recovery system and network, then acknowledges back into the
//! machine. This keeps the protocol deterministic, directly unit-testable,
//! and lets the fault-injection harness crash a node between any two
//! effects, which is exactly the crash matrix of §2.2.3:
//!
//! * participant crash before the `prepared` record → the action is unknown
//!   there and will abort;
//! * participant crash after `prepared` → in doubt, must query;
//! * coordinator crash before `committing` → the action aborts;
//! * coordinator crash after `committing`, before `done` is durable → phase
//!   two is restarted from the CT;
//! * coordinator crash after `done` is durable → nothing to do.
//!
//! What is forced is what the protocol needs durable before it may go on,
//! and nothing else: a participant forces `prepared` before voting and its
//! verdict before acknowledging, the coordinator forces `committing` before
//! telling anyone to commit. `done` only licenses forgetting, so it is
//! written and never forced — the coordinator finishes on the last
//! acknowledgement, and a lost `done` is the fourth case above. An action
//! whose coordinator is its only participant ([`Coordinator::is_local`]) has
//! one durable point, its own `committed` record: it commits in one forced
//! step with no `committing`, no `done` and no message.

mod coordinator;
mod msg;
mod obs;
mod participant;

pub use coordinator::{CoordEffect, CoordPhase, Coordinator};
pub use msg::{Envelope, Msg};
pub use participant::{PartEffect, PartPhase, Participant};
