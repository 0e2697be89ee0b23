//! # argus-obs — observability for the argus workspace
//!
//! The thesis's evaluation artifacts are comparative *claims* (log ⇒ fast
//! write / slow recovery; shadowing ⇒ the reverse; hybrid in between), so
//! every path must be measurable. This crate is the std-only substrate the
//! experiments report against:
//!
//! * [`Count`] / [`Hist`] — the catalogue: every counter and histogram the
//!   stack records, declared once with its dotted name and meaning
//!   (`argus-lint obs --names` prints it);
//! * [`Registry`] — one [`Counter`] per counter row and one [`Histogram`]
//!   (fixed power-of-two buckets) per histogram row, and the simulated
//!   [`argus_sim::SimClock`] phase timings ([`PhaseTimer`]) read;
//! * [`Report`] — every row of one registry snapshot: markdown tables
//!   through [`write_grid`] (every row of each layer that recorded
//!   anything) or one JSON object.
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
//! ## Rows, not names
//!
//! Code records by row — an array index and an atomic add — so no name is
//! resolved at run time. A long-lived component keeps the registry current
//! when it was built; a per-action machine records into the registry
//! current when its transition runs, through [`with_current`]. Naming a
//! metric by its dotted string ([`Registry::counter`], [`Registry::inc`],
//! …) is for tests and the benchmark: it searches the catalogue, panics on
//! a name that is no row, and [`Registry::lookups`] counts it so a test can
//! pin a hot path at zero.
//!
//! ```
//! use argus_obs::{current, Count, Registry};
//!
//! let reg = Registry::new();
//! let _scope = reg.enter();
//! current().inc(Count::CoreCommits);
//! println!("{}", reg.report());
//! ```

mod catalogue;
mod counter;
mod hist;
mod registry;
mod report;

pub use catalogue::{Count, Hist};
pub use counter::Counter;
pub use hist::{HistSnapshot, Histogram};
pub use registry::{current, global, with_current, Name, PhaseTimer, Registry, ScopedRegistry};
pub use report::{write_grid, Report};
