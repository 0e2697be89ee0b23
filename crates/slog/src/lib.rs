//! The stable log abstraction (§3.1 of the thesis).
//!
//! > "We postulate the existence of a stable storage system that provides
//! > objects that look like stable logs and behave like stable logs."
//!
//! This crate is that stable-log object, built over the atomic page stores of
//! `argus-stable`. It provides exactly the thesis's interface \[Raible 83\]:
//!
//! | thesis operation             | here                                   |
//! |------------------------------|----------------------------------------|
//! | `write(log, entry)`          | [`StableLog::write`]                   |
//! | `force_write(log, entry)`    | [`StableLog::force_write`]             |
//! | `read(log, log_address)`     | [`StableLog::read`]                    |
//! | `read_backward(log, addr)`   | [`StableLog::walk_backward`]           |
//! | `get_top(log)`               | [`StableLog::get_top`]                 |
//! | `create()`                   | [`StableLog::create`]                  |
//! | `destroy(log)`               | dropping / replacing via [`LogRoot`]   |
//!
//! Semantics preserved from the thesis:
//!
//! * `write` buffers; "the actual writing of the data to the stable storage
//!   device may not have happened when this operation returns". A crash
//!   discards buffered entries.
//! * `force_write` makes the entry *and every earlier buffered entry*
//!   durable before returning.
//! * Entries are addressed by [`LogAddress`]; addresses are monotonically
//!   increasing, which the hybrid log's mutex-recency rule (§4.4) relies on.
//!
//! Records are framed with a CRC32 and a trailer that allows walking the log
//! backwards. The walk ([`BackwardWalk`]) checks every frame and lends each
//! payload out of the byte device's extent, reading every page it touches
//! once; [`StableLog::read_backward`] is the same
//! walk as an `Iterator` of owned payloads. A force is a write and *one*
//! barrier: its last frame carries an end-of-force mark, and that frame is
//! the commit point that makes a multi-page force all-or-nothing. Restart
//! finds the top of the log by scanning forward from the superblock on
//! page 0, which is rewritten only lazily, as a bound on that scan, and at
//! every open, to begin a new epoch that keeps the frames of a torn force
//! dead. [`StableLog`]'s "Durability model" states the contract; DESIGN.md
//! deviation 11 argues it.
//! [`LogRoot`] provides the "new log supplants the old log in one atomic
//! step" needed by housekeeping (ch. 5).

mod addr;
mod codec;
mod log;
mod root;
mod sched;

pub use addr::LogAddress;
pub use codec::{crc32, CodecError, CodecResult, Decoder, Encoder};
pub use log::{BackwardIter, BackwardWalk, LogError, LogResult, StableLog, FORMAT_VERSION};
pub use root::LogRoot;
pub use sched::{ForceConfig, ForceScheduler};
