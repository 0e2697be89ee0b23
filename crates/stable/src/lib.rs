//! Simulated atomic stable storage.
//!
//! The thesis *assumes* stable storage: "we assume that atomic stable storage
//! exists, has the right properties, and is available to use" (§1.1). It cites
//! Lampson & Sturgis's construction — mirror every logical page on two disks
//! with independent failure modes, write one copy then the other, and repair
//! on read.
//!
//! This crate supplies that substrate, simulated deterministically:
//!
//! * [`RawDisk`] — a fallible disk: pages can *decay* (spontaneously become
//!   unreadable) and a crash in the middle of a write *tears* the page.
//! * [`MirroredDisk`] — the Lampson–Sturgis pair over two raw disks. A crash
//!   at any point leaves every logical page readable as either its old or its
//!   new value — never garbage. Decayed copies are repaired from the twin on
//!   read.
//! * [`MemStore`] — an always-good page store for experiments where media
//!   faults are not under test (node crashes are injected above this layer).
//! * [`DurableFileStore`] — the same interface persisted durably in a real
//!   file (`pwrite` + `fsync`), so logs survive actual process restarts.
//! * [`ByteDevice`] — a byte-addressed extent view over any [`PageStore`]:
//!   it keeps a run of adjacent pages and lends slices of it, so a reader
//!   moving through the device has each page fetched once; the stable log in
//!   `argus-slog` is built on it.
//! * [`PageCache`] — a transparent LRU cache + read-ahead layer over any
//!   [`PageStore`], used to make recovery's log scans run at device speed;
//!   a read-ahead window is fetched as runs ([`PageStore::read_run`]: one
//!   `pread` per run on a real file), not page by page.
//! * [`FaultPlan`] — the crash/decay injector shared by a device stack.
//!
//! All I/O charges simulated time against an [`argus_sim::SimClock`] through
//! [`argus_sim::DeviceStats`], so experiments can report device cost.

mod bytedev;
mod cache;
mod error;
mod fault;
mod file;
mod mem;
mod mirror;
mod page;
mod raw;
mod store;

pub use bytedev::ByteDevice;
pub use cache::{CacheConfig, PageCache};
pub use error::{StorageError, StorageResult};
pub use fault::{DeviceOp, FaultPlan, OpCounts, TraceEntry};
pub use file::DurableFileStore;
pub use mem::MemStore;
pub use mirror::MirroredDisk;
pub use page::{Page, PageNo, PAGE_SIZE};
pub use raw::RawDisk;
pub use store::PageStore;
