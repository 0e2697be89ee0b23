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
//! * coordinator crash after `committing`, before `done` → phase two is
//!   restarted from the CT;
//! * coordinator crash after `done` → nothing to do.

mod coordinator;
mod msg;
mod obs;
mod participant;

pub use coordinator::{CoordEffect, CoordPhase, Coordinator};
pub use msg::{Envelope, Msg};
pub use participant::{PartEffect, PartPhase, Participant};
