//! argus-check: correctness tooling for the recovery system.
//!
//! Three engines, per "Guaranteeing Recoverability via Partially Constrained
//! Transaction Logs" (PAPERS.md) applied to the Oki thesis's hybrid log:
//!
//! * **The static log linter** ([`lint_log`] / [`lint_log_against`]): a pure
//!   function over a decoded [`LogImage`] that verifies the invariant
//!   catalogue I1–I10 — chain termination and completeness, outcome
//!   matching, shadow-map resolution, uid uniqueness, accessibility-set
//!   closure, and agreement between independently reconstructed PT/CT/OT
//!   tables and `core`'s own recovery. Also exposed as the `argus-lint` CLI.
//!   The catalogue's one heap-level entry, I11 (no stale locks in a
//!   quiesced world), is checked by [`lint_heap_quiesced`] over a volatile
//!   heap instead of a log image.
//! * **The bounded 2PC interleaving explorer** ([`explore::Explorer`]): a
//!   deterministic DFS over the real `twopc` coordinator/participant state
//!   machines that enumerates message reorderings, drops, and crash points
//!   up to a configurable budget, asserting atomicity at every reachable
//!   state and linting every node's log along the way.
//! * **The VOPR** ([`vopr`]): a seeded randomized fault-composition
//!   explorer — one u64 seed deterministically composes message
//!   drop/duplication/reordering, partitions with scheduled heals, guardian
//!   pauses with clock skew, media decay, and crashes with recovery against
//!   a rolling multi-guardian 2PC workload, running the lint, the
//!   legal-outcomes oracle, heap quiescence, and trace consistency at every
//!   quiesce point. Violations replay byte-for-byte from the seed
//!   (`argus-lint vopr --seed N --iterations M`) and dump their schedule
//!   through the flight recorder.
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
mod lint;
mod obs;
pub mod sweep;
pub mod vopr;

pub use explore::{ExploreConfig, ExploreReport, ExploreStats, Explorer};
pub use image::{open_copy, BadRecord, LogImage};
pub use lint::{
    assert_heap_quiesced, assert_trace_consistent, detect_flavor, lint_heap_quiesced, lint_log,
    lint_log_against, lint_trace, Flavor, Invariant, LintReport, ReconObj, Reconstruction,
    Violation,
};
pub use sweep::{sweep, Counterexample, SweepConfig, SweepReport};
pub use vopr::{vopr, FaultTally, VoprConfig, VoprSummary};
