//! # argus-obs — observability for the argus workspace
//!
//! The thesis's evaluation artifacts are comparative *claims* (log ⇒ fast
//! write / slow recovery; shadowing ⇒ the reverse; hybrid in between), so
//! every path must be measurable. This crate is the std-only substrate the
//! experiments report against:
//!
//! * [`Counter`] / [`Histogram`] — atomic counters and fixed power-of-two
//!   bucket histograms behind a named [`Registry`];
//! * [`Timer`] / [`PhaseTimer`] — phase timing against the simulated
//!   [`argus_sim::SimClock`]: a held histogram-plus-clock handle for hot
//!   paths (2PC phases, log forces, prepares), a by-name guard for cold
//!   ones (restart, housekeeping);
//! * [`Report`] — text (markdown tables) and JSON exporters over one
//!   registry snapshot.
//!
//! It keeps numbers only. What happened, in order — a log opened, a crash
//! fired, a mirror repaired a page, a housekeeping pass, every lock wait and
//! protocol step — is an event of `argus-trace`'s one catalogue.
//!
//! ## Global or injected
//!
//! Instrumented code records into [`current()`]: the registry installed on
//! the calling thread via [`Registry::enter`], falling back to the
//! process-wide [`global()`] registry. Tests and experiments that want an
//! isolated view enter their own registry; everything else just works.
//!
//! ## Handles, not names, where it is hot
//!
//! Resolving a metric by name takes a lock and walks a string-keyed map.
//! A long-lived component resolves a struct of handles once, when it is
//! built, and bumps atomics afterwards; per-action state machines share one
//! [`ThreadHandles`] set per thread that follows the current registry. The
//! by-name conveniences ([`Registry::inc`], [`Registry::phase`], …) are
//! for tests and cold paths, and [`Registry::lookups`] counts their use so
//! a test can pin a hot path at zero.
//!
//! ```
//! use argus_obs::{current, Registry};
//!
//! let reg = Registry::new();
//! let _scope = reg.enter();
//! current().inc("core.commits");
//! println!("{}", reg.report().to_text());
//! ```

mod counter;
mod hist;
mod registry;
mod report;
mod table;

pub use counter::Counter;
pub use hist::{HistSnapshot, Histogram};
pub use registry::{current, global, PhaseTimer, Registry, ScopedRegistry, ThreadHandles, Timer};
pub use report::Report;
pub use table::{write_grid, Table};
