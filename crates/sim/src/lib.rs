//! Deterministic simulation substrate for the Argus reliable-storage stack.
//!
//! The thesis assumes real stable-storage devices and a real distributed
//! system; this crate supplies deterministic stand-ins so that every
//! experiment and every fault-injection run is exactly reproducible:
//!
//! * [`SimClock`] — a shared logical clock in microseconds. Device models and
//!   the network charge time against it instead of sleeping.
//! * [`DetRng`] — a small, seedable xorshift64* generator with the uniform and
//!   zipfian draws the workload generators need. We deliberately avoid
//!   platform entropy: a seed fully determines a run.
//! * [`CostModel`] / [`DeviceStats`] — the I/O cost accounting used to report
//!   simulated device time for the write-path and recovery experiments.
//! * [`IntHasher`] / [`IntMap`] / [`IntSet`] — the one fixed hasher for
//!   tables keyed by integers the program hands out itself (page numbers,
//!   uids, action ids), here because this is the lowest crate every layer
//!   depends on; [`hash`] lists the tables that sit on it.

mod clock;
mod cost;
pub mod hash;
mod rng;

pub use clock::SimClock;
pub use cost::{CostModel, DeviceStats, OpKind, StatsSnapshot};
pub use hash::{IntHasher, IntMap, IntSet};
pub use rng::{DetRng, Zipf};
