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
//! acknowledgement, and a lost `done` is the fourth case above.
//!
//! §2.2 has a coordinator that is also a participant send *itself* a prepare
//! message. Here its guardian is always a participant and it is no party to
//! its own protocol (DESIGN.md deviation 12): it writes to and
//! waits for the *remote* participants only, and once their votes are in,
//! the one [`CoordEffect::ForceCommitting`] stands for the whole commit point
//! at its own guardian — data entries, `prepared`, `committing` and that
//! guardian's `committed`, one step under one force. Its `prepared` precedes
//! no vote and its `committed` no acknowledgement, so a two-guardian commit
//! is three forces and four messages (five and eight by the letter of
//! §2.2), an abort logs nothing at the coordinator, and a guardian is never
//! in doubt about an action it coordinates. With no remote participant
//! ([`Coordinator::is_local`]) that step is the whole commit: no
//! `committing`, no `done`, no message.

mod coordinator;
mod msg;
mod obs;
mod participant;

pub use coordinator::{CoordEffect, CoordPhase, Coordinator};
pub use msg::{Envelope, Msg};
pub use participant::{PartEffect, PartPhase, Participant};
