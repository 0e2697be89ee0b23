//! The recovery system: reliable object storage to support atomic actions.
//!
//! This crate is the paper's primary contribution — Brian Oki's *hybrid log*
//! organization of stable storage and its algorithms (MIT/LCS, 1983):
//!
//! * **Writing** (ch. 3): when a top-level action prepares, the accessible
//!   objects of its Modified Objects Set are flattened and written as data
//!   entries, newly accessible objects are discovered through the
//!   accessibility set and written with `base_committed` / `prepared_data`
//!   special entries, and a forced `prepared` outcome entry seals the
//!   prepare.
//! * **The hybrid log** (ch. 4): the shadowing map is distributed across the
//!   `prepared` entries as `(uid, log address)` pairs and outcome entries
//!   form a backward chain, so recovery touches only the outcome entries and
//!   the data entries it actually needs. *Early prepare* (§4.4) writes data
//!   entries ahead of the prepare message.
//! * **Recovery** (§3.4, §4.3): a backward scan (simple log) or chain walk
//!   (hybrid log) rebuilds volatile memory and the OT/PT/CT tables.
//! * **Housekeeping** (ch. 5): log compaction and the stable-state snapshot
//!   bound recovery time by rebuilding a short log around a `committed_ss`
//!   checkpoint.
//!
//! One record format serves every log organization: the eleven entry kinds
//! are listed once, as [`Entry`], held owned ([`LogEntry`]), borrowed
//! ([`EntryRef`], the write path) or lazily decoded ([`EntryView`], recovery
//! and housekeeping), with one encoder and one decoder.
//!
//! One skeleton carries every log organization: [`LogRs`] owns the stable
//! log, the accessibility set, the prepared-actions table, the staged write
//! path, the recovery epilogue and the housekeeping switch, and is generic
//! over a [`LogFormat`] that supplies only what the thesis says differs —
//! which records a prepare writes, how recovery walks the log, and how
//! housekeeping rebuilds it. Three formats are provided, each behind the
//! name of the organization it makes: [`SimpleLogRs`] (ch. 3),
//! [`HybridLogRs`] (ch. 4/5) and [`RedoRs`] (the REDO-only log with
//! per-object backlinks, after Sauer & Härder). The `argus-shadow` crate
//! adds a shadowing baseline behind the same [`RecoverySystem`] interface,
//! so the thesis's comparative claims can be measured head-to-head.

mod api;
mod compact;
mod entry;
mod error;
mod housekeeping;
mod hybrid;
mod log;
mod redo;
mod restore;
mod simple;
mod tables;
mod writer;

pub use api::{providers, HousekeepingMode, LogStats, RecoveryMode, RecoverySystem, StoreProvider};
pub use entry::{
    decode_entry, decode_entry_view, decode_value, encode_entry, encode_entry_into, encode_value,
    put_aid, put_kind, take_aid, take_kind, Entry, EntryOut, EntryRef, EntryView, GidsView,
    HeapValue, LogEntry, PairsView, RawValue, WireField,
};
pub use error::{RsError, RsResult};
pub use hybrid::HybridLogRs;
pub use log::{LogFormat, LogRs};
pub use redo::RedoRs;
pub use restore::RecoverCtx;
pub use simple::SimpleLogRs;
pub use tables::{
    CState, CoordinatorTable, MutexTable, ObjState, ObjectTable, OtEntry, PState, ParticipantTable,
    RecoveryOutcome,
};

/// The shared writing algorithm (§3.3.3.3), exposed so alternative storage
/// organizations can reuse the MOS / accessibility-set / NAOS machinery —
/// the shadowing baseline plugs its own sink into it.
pub mod writer_sink {
    pub use crate::writer::{process_mos as process, EntrySink as Sink, MosScratch};
}
