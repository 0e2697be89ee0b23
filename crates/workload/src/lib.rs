//! Workload generators for the experiments and examples.
//!
//! Three workloads, matching the application domains the thesis's
//! introduction motivates ("banking systems, airline reservation systems,
//! office automation systems, and database systems"):
//!
//! * [`Banking`] — accounts as atomic objects, transfer actions, optional
//!   cross-guardian transfers driving two-phase commit, with a conserved
//!   total balance as the global consistency invariant.
//! * [`Reservations`] — flights with seat vectors plus a mutex audit trail,
//!   exercising the mutex write/recovery path.
//! * [`Synth`] — a parameterized synthetic object store: zipf-selected
//!   updates, adjustable value sizes, and a probability of creating and
//!   linking new objects (the newly-accessible-object machinery of
//!   §3.3.3.2).
//!
//! Plus one adversarial mix for the concurrency-control subsystem:
//!
//! * [`Contended`] — a high-contention zipfian transfer mix over a small
//!   hot account set that deadlocks by construction (no global lock
//!   ordering), driven by a deterministic slot scheduler with seeded
//!   backoff retry — the workload behind experiment E14.
//!
//! And one scale mix for many-guardian worlds:
//!
//! * [`Sharded`] — [`Contended`] generalized to a partitioned object space
//!   across 64–1024 shard guardians: a zipfian population of simulated
//!   users with O(1) home-shard routing issues cross-shard transfer /
//!   airline-reservation actions, spreading two-phase-commit coordination
//!   across every shard — the workload behind experiment E21.
//!
//! All generators draw exclusively from [`argus_sim::DetRng`], so a seed
//! pins down a run exactly.

mod banking;
mod contended;
mod reservations;
mod sharded;
mod slots;
mod synth;

pub use banking::{Banking, BankingConfig, BankingStats};
pub use contended::{Contended, ContendedConfig, ContendedStats};
pub use reservations::{Reservations, ReservationsConfig, ReservationsStats};
pub use sharded::{Sharded, ShardedConfig, ShardedStats};
pub use synth::{Synth, SynthConfig};
