//! argus-check: correctness tooling for the recovery system.
//!
//! Four engines over one oracle, per "Guaranteeing Recoverability via
//! Partially Constrained Transaction Logs" (PAPERS.md) applied to the Oki
//! thesis's hybrid log:
//!
//! * **The static log linter** ([`lint_log`] / [`lint_log_against`]): a pure
//!   function over a decoded [`LogImage`] that verifies the invariant
//!   catalogue I1–I10 — chain termination and completeness, outcome
//!   matching, shadow-map resolution, uid uniqueness, accessibility-set
//!   closure, and agreement between independently reconstructed PT/CT/OT
//!   tables and `core`'s own recovery. Also exposed as the `argus-lint` CLI.
//!   I11 (no stale locks in a quiesced heap, [`lint_heap_quiesced`]) and I12
//!   (a consistent trace, [`lint_trace`]) complete the catalogue.
//! * **The standing check** ([`standing`]): the one structural pass (I12,
//!   then I1–I10 and I11 per guardian) and the one legal-outcomes oracle
//!   over a [`Ledger`] of client-observed fates, under a [`Phase`]. The
//!   sweeper, the VOPR, the scale smoke and the integration tests all call
//!   it.
//! * **The bounded 2PC interleaving explorer** ([`explore::Explorer`]): a
//!   deterministic DFS over the guardians `World` runs, stepped through
//!   `Guardian::step` over each organization's real recovery system, that
//!   enumerates message reorderings, drops, crashes and restarts up to a
//!   configurable budget, asserting atomicity at every reachable state and
//!   linting every guardian's log along the way.
//! * **The crash-schedule sweeper** ([`sweep()`]): every device write of a
//!   fixed 2PC workload as a crash point, with an optional second crash
//!   through recovery, each recovered world held to [`standing`].
//! * **The VOPR** ([`vopr()`]): a seeded randomized fault-composition
//!   explorer — one u64 seed composes message drop/duplication/reordering,
//!   partitions, pauses with clock skew, media decay, and crashes with
//!   recovery against a rolling multi-guardian 2PC workload, holding the
//!   world to [`standing`] at every quiesce point. Violations replay
//!   byte-for-byte from the seed (`argus-lint vopr --seed N --iterations
//!   M`) and dump their schedule through the flight recorder.
//!
//! # Examples
//!
//! ```
//! use argus_check::{lint_log, LogImage};
//! use argus_core::LogEntry;
//! use argus_objects::{ActionId, GuardianId};
//! use argus_slog::LogAddress;
//!
//! let aid = ActionId::new(GuardianId(0), 1);
//! let image = LogImage::from_entries(vec![
//!     (
//!         LogAddress(512),
//!         LogEntry::Prepared { aid, pairs: vec![], prev: None },
//!     ),
//!     (
//!         LogAddress(600),
//!         LogEntry::Committed { aid, prev: Some(LogAddress(512)) },
//!     ),
//! ]);
//! let report = lint_log(&image);
//! report.assert_clean();
//! ```

#![warn(missing_docs)]

pub mod explore;
mod image;
mod ledger;
mod lint;
pub mod sweep;
pub mod vopr;

pub use explore::{ExploreConfig, ExploreReport, ExploreStats, Explorer};
pub use image::{open_copy, BadRecord, LogImage};
pub use ledger::{standing, Action, Fate, Ledger, Phase};
pub use lint::{
    detect_flavor, lint_heap_quiesced, lint_log, lint_log_against, lint_trace, Flavor, Invariant,
    LintReport, ReconObj, Reconstruction, Violation,
};
pub use sweep::{sweep, Counterexample, SweepConfig, SweepReport};
pub use vopr::{vopr, FaultTally, VoprConfig, VoprSummary};
