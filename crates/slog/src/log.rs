//! The stable log proper.

use crate::codec::crc32_extend;
use crate::{crc32, CodecError, LogAddress};
use argus_obs::{Count, Hist, Registry};
use argus_sim::SimClock;
use argus_stable::{ByteDevice, Page, PageStore, StorageError, PAGE_SIZE};
use std::fmt;

const SUPER_MAGIC: u64 = 0x4152_4755_534C_4F47; // "ARGUSLOG"
const REC_MAGIC: u32 = 0xA6_0C_5E_01;
const END_MAGIC: u32 = 0xA6_0C_5E_02;
/// The on-media format this crate writes and the only one it opens. 2: a
/// frame's `seq` word carries the epoch and the end-of-force mark, its
/// checksum covers the header, and the superblock names the epoch.
pub const FORMAT_VERSION: u32 = 2;

/// First byte offset of record storage (the superblock owns page 0).
const DATA_START: u64 = PAGE_SIZE as u64;

/// Frame header: magic(4) + seq(8) + len(4) + crc(4). The crc sums the
/// payload and then the sixteen header bytes before it, so no mixture of a
/// new header with a stale payload (or the reverse) passes for a frame.
const HEADER_LEN: u64 = 20;
/// Frame trailer: len(4) + end-magic(4); enables the backward walk.
const TRAILER_LEN: u64 = 8;

// The header's `seq` word is `epoch(24) ‖ end-of-force(1) ‖ ordinal(39)`:
// which incarnation of the log wrote the frame, whether it is the last frame
// of its force, and the record's index in the log. Callers of `read` and the
// walks see the ordinal only.
const ORDINAL_MASK: u64 = (1 << 39) - 1;
const END_OF_FORCE: u64 = 1 << 39;
const EPOCH_SHIFT: u32 = 40;

/// How far the durable tail may run ahead of the one page 0 names before a
/// force rewrites the superblock — the bound on restart's forward scan (that
/// and the last force's own bytes). Half the default page cache
/// (`CacheConfig::default`: 128 pages = 64 KiB), so what the scan read is
/// still cached when recovery's backward walk starts from the top it found,
/// while a publication — a seek to page 0 and back — is paid once in some
/// seventy 450-byte commits.
const PUBLISH_BOUND: u64 = 32 * 1024;

/// The `seq` word of record number `ordinal` written in `epoch`, unmarked.
/// The shift keeps the epoch's low 24 bits: a stale frame would have to lie
/// unoverwritten through 2²⁴ restarts of one log to pass for a current one.
fn seq_word(epoch: u64, ordinal: u64) -> u64 {
    (epoch << EPOCH_SHIFT) | (ordinal & ORDINAL_MASK)
}

/// A frame's checksum, from the checksum of its payload and the words of its
/// header (`magic ‖ seq ‖ len`: two eight-byte steps for the table-driven
/// crc).
fn frame_crc(payload_crc: u32, seq: u64, len: u32) -> u32 {
    let mut words = [0u8; 16];
    words[..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    words[4..12].copy_from_slice(&seq.to_le_bytes());
    words[12..].copy_from_slice(&len.to_le_bytes());
    crc32_extend(payload_crc, &words)
}

/// Errors surfaced by the log layer.
#[derive(Debug)]
pub enum LogError {
    /// Propagated device error (including the simulated crash).
    Storage(StorageError),
    /// Framing or checksum violation at the given byte offset.
    Corrupt { offset: u64, what: &'static str },
    /// The address does not name a forced record.
    BadAddress(LogAddress),
    /// The store holds no valid log superblock.
    NotALog,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Storage(e) => write!(f, "storage: {e}"),
            LogError::Corrupt { offset, what } => write!(f, "corrupt log at {offset}: {what}"),
            LogError::BadAddress(a) => write!(f, "bad log address {a}"),
            LogError::NotALog => write!(f, "store does not contain a log"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for LogError {
    fn from(e: StorageError) -> Self {
        LogError::Storage(e)
    }
}

impl From<CodecError> for LogError {
    fn from(_: CodecError) -> Self {
        LogError::Corrupt {
            offset: 0,
            what: "undecodable superblock",
        }
    }
}

impl LogError {
    /// Whether this is the simulated node crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, LogError::Storage(e) if e.is_crash())
    }
}

/// Result alias for log operations.
pub type LogResult<T> = Result<T, LogError>;

/// Where the forced log ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Top {
    /// Byte offset one past the last forced record.
    tail: u64,
    /// Number of forced records.
    count: u64,
    /// Offset of the last forced record's header; `0` when the log is empty.
    last_record: u64,
}

impl Top {
    const EMPTY: Top = Top {
        tail: DATA_START,
        count: 0,
        last_record: 0,
    };

    /// The top once a frame of `total` bytes follows this one.
    fn after_frame(self, total: u64) -> Top {
        Top {
            tail: self.tail + total,
            count: self.count + 1,
            last_record: self.tail,
        }
    }
}

/// Page 0: where restart's forward scan starts, and which epoch's frames it
/// accepts. Not the commit point — see [`StableLog`]'s durability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Superblock {
    /// A top that was durable before this page was written.
    top: Top,
    /// The incarnation of the log whose frames follow `top`.
    epoch: u64,
}

impl Superblock {
    fn encode(&self) -> Page {
        let mut buf = [0u8; 48];
        buf[0..8].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf[12..20].copy_from_slice(&self.top.tail.to_le_bytes());
        buf[20..28].copy_from_slice(&self.top.count.to_le_bytes());
        buf[28..36].copy_from_slice(&self.top.last_record.to_le_bytes());
        buf[36..44].copy_from_slice(&self.epoch.to_le_bytes());
        let crc = crc32(&buf[0..44]);
        buf[44..48].copy_from_slice(&crc.to_le_bytes());
        Page::from_bytes(&buf)
    }

    fn decode(page: &Page) -> LogResult<Self> {
        let buf = page.as_slice();
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        if word(0) != SUPER_MAGIC {
            return Err(LogError::NotALog);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(LogError::Corrupt {
                offset: 0,
                what: "unknown superblock version",
            });
        }
        let crc = u32::from_le_bytes(buf[44..48].try_into().unwrap());
        if crc != crc32(&buf[0..44]) {
            return Err(LogError::Corrupt {
                offset: 0,
                what: "superblock checksum",
            });
        }
        Ok(Self {
            top: Top {
                tail: word(12),
                count: word(20),
                last_record: word(28),
            },
            epoch: word(36),
        })
    }
}

/// A stable log over an atomic page store.
///
/// See the crate docs for the mapping to the thesis's interface. Entries are
/// opaque byte payloads here; `argus-core` defines their structure.
///
/// # Examples
///
/// ```
/// use argus_sim::{CostModel, SimClock};
/// use argus_slog::StableLog;
/// use argus_stable::MemStore;
///
/// let store = MemStore::new(SimClock::new(), CostModel::fast());
/// let mut log = StableLog::create(store)?;
///
/// let a = log.write(b"buffered");          // volatile until forced
/// let b = log.force_write(b"durable")?;    // forces a *and* b
/// assert_eq!(log.read(a)?.1, b"buffered");
/// assert_eq!(log.get_top(), Some(b));
///
/// // The backward walk visits newest-first — the recovery access pattern.
/// let walked: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
/// assert_eq!(walked, vec![b"durable".to_vec(), b"buffered".to_vec()]);
/// # Ok::<(), argus_slog::LogError>(())
/// ```
///
/// # Durability model
///
/// [`StableLog::write`] appends to a volatile buffer and *assigns the final
/// address immediately* (the hybrid writer needs data-entry addresses before
/// the force that makes them durable).
///
/// **A force is a write and one barrier, and its commit point is its own
/// last frame.** [`StableLog::force`] marks the newest buffered frame
/// *end-of-force*, writes the buffered frames (from that frame on if an
/// early [`StableLog::flush`] already wrote it unmarked) and issues one
/// `sync`. Nothing is *published*: the top of the log is *found* at restart.
/// [`StableLog::open`]/[`StableLog::reopen`] read the superblock on page 0
/// and scan forward from the tail it names, taking a frame only if its magic,
/// epoch, consecutive ordinal, device-bounded length, checksum (payload and
/// header) and trailer all hold, and keep the frames up to the last intact
/// end-of-force mark. A force some page of which never landed therefore
/// shows either a broken frame before its mark or no mark at all, and is
/// invisible as a whole — the all-or-nothing force the thesis's two-phase
/// commit relies on — and so is anything `flush` wrote that no force
/// followed.
///
/// **The superblock only bounds that scan.** A force rewrites it when the
/// durable tail has run 32 KiB (`PUBLISH_BOUND`) past the tail it names; the
/// page rides that force's barrier and names the top that was durable
/// *before* the force, so it can land or not, in any order with the data,
/// and never claims an unwritten byte. Restart scans at most the bound plus
/// the last force. Inside that window a frame damaged on the medium reads as
/// the end of the log (below the published tail it is a `Corrupt` error, as
/// before).
///
/// **Epochs keep stale frames dead.** A torn force can leave intact frames
/// beyond the recovered top — a later page landed, an earlier one did not —
/// exactly where same-sized appends will put the next ordinal after a
/// restart. Every `open`/`reopen` therefore takes the next epoch and
/// publishes it with the recovered top (one page write, one barrier) before
/// the log accepts an append; frames carry their epoch and the scan rejects
/// any other. [`StableLog::create`] does the same over a reused store.
#[derive(Clone)]
pub struct StableLog<S: PageStore> {
    dev: ByteDevice<S>,
    /// The durable frontier: everything below it has been forced.
    top: Top,
    /// This incarnation of the log, stamped on every frame it writes.
    epoch: u64,
    /// The tail the superblock on the device names (`<= top.tail`).
    published_tail: u64,
    /// Serialized frames not yet forced.
    pending: Vec<u8>,
    /// Prefix of `pending` already written to the device by [`StableLog::flush`]
    /// (on media, unmarked, and so not yet part of the log).
    flushed: usize,
    /// Count of buffered frames, the address of the newest one and the
    /// checksum of its payload (its header is re-summed when a force marks it).
    pending_count: u64,
    pending_last: u64,
    pending_last_crc: u32,
    /// The registry and tracer current when the log was built, and the
    /// registry's clock then, which `slog.force_us` reads.
    obs: Registry,
    clock: SimClock,
    tracer: argus_trace::Tracer,
}

impl<S: PageStore> fmt::Debug for StableLog<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StableLog")
            .field("tail", &self.top.tail)
            .field("count", &self.top.count)
            .field("epoch", &self.epoch)
            .field("published_tail", &self.published_tail)
            .field("pending_bytes", &self.pending.len())
            .finish()
    }
}

impl<S: PageStore> StableLog<S> {
    /// An empty log of `epoch` over `dev`, nothing written yet.
    fn over(dev: ByteDevice<S>, epoch: u64) -> Self {
        let reg = argus_obs::current();
        Self {
            dev,
            top: Top::EMPTY,
            epoch,
            published_tail: DATA_START,
            pending: Vec::new(),
            flushed: 0,
            pending_count: 0,
            pending_last: 0,
            pending_last_crc: 0,
            obs: reg.clone(),
            clock: reg.clock(),
            tracer: argus_trace::current(),
        }
    }

    /// Formats a fresh, empty log onto `store` (the thesis's `create()`).
    ///
    /// A store handed back for reuse still holds the frames of the log it
    /// carried, at the very offsets this one will fill: the new log takes
    /// the epoch after that log's, so none of them can chain onto it. A
    /// store that holds pages but no valid superblock is refused.
    pub fn create(store: S) -> LogResult<Self> {
        let mut dev = ByteDevice::new(store);
        let epoch = if dev.len_bytes() == 0 {
            1
        } else {
            Superblock::decode(&dev.store_mut().read_page(0)?)?.epoch + 1
        };
        let mut log = Self::over(dev, epoch);
        log.publish()?;
        log.dev.sync()?;
        Ok(log)
    }

    /// Opens an existing log from `store`, e.g. after a crash. Buffered
    /// (unforced) entries from before the crash are gone, as they should be.
    pub fn open(store: S) -> LogResult<Self> {
        let mut log = Self::over(ByteDevice::new(store), 0);
        log.reopen()?;
        Ok(log)
    }

    /// Consumes the log, returning the underlying store (for crash
    /// simulation: extract the media, reopen later).
    pub fn into_store(self) -> S {
        self.dev.into_inner()
    }

    /// Simulates restart-in-place: discards all volatile state (the pending
    /// buffer and the tail-page cache), finds the durable top on the
    /// surviving media and opens the next epoch there — one page write and
    /// one barrier, before any append. Equivalent to
    /// `open(self.into_store())` without moving the store.
    pub fn reopen(&mut self) -> LogResult<()> {
        self.pending.clear();
        self.flushed = 0;
        self.pending_count = 0;
        self.pending_last = 0;
        // Page caches under the device are volatile too: a restart starts
        // cold, exactly as the media would be after a real crash.
        self.dev.store_mut().invalidate_volatile();
        let page = self.dev.store_mut().read_page(0)?;
        let sb = Superblock::decode(&page)?;
        let (top, intact) = self.scan_forward(&sb)?;
        self.top = top;
        self.epoch = sb.epoch + 1;
        self.publish()?;
        self.dev.sync()?;
        self.obs
            .add(Count::SlogOpenScannedRecords, intact.count - sb.top.count);
        self.obs
            .add(Count::SlogOpenScannedBytes, intact.tail - sb.top.tail);
        self.obs
            .add(Count::SlogOpenDiscardedBytes, intact.tail - top.tail);
        // The recovered tail is the published one plus the bytes scanned
        // less those discarded: the two counters above carry the rest.
        let (kind, lane) = (argus_trace::Kind::LogOpened, argus_trace::STORE_LANE);
        let args = [self.epoch, sb.top.tail];
        self.tracer.instant(kind, lane, None, &args);
        Ok(())
    }

    /// Walks the frames of `sb`'s epoch that follow its top for as long as
    /// they are intact and consecutive. Returns the top at the last
    /// end-of-force mark — the durable log — and the top of the intact
    /// frames, which lies beyond it when a flush or a torn force left
    /// unmarked frames behind. Anything that is not such a frame is the end
    /// of the log, not an error; only the device failing is.
    fn scan_forward(&mut self, sb: &Superblock) -> LogResult<(Top, Top)> {
        let limit = self.dev.len_bytes();
        let (mut top, mut intact) = (sb.top, sb.top);
        loop {
            let want = seq_word(sb.epoch, intact.count);
            let header = match self.intact_frame(intact.tail, want, limit) {
                Ok(header) => header,
                Err(e @ LogError::Storage(_)) => return Err(e),
                Err(_) => break,
            };
            intact = intact.after_frame(HEADER_LEN + u64::from(header.len) + TRAILER_LEN);
            if header.seq & END_OF_FORCE != 0 {
                top = intact;
            }
        }
        Ok((top, intact))
    }

    /// The frame at `off` if every byte of it checks out: header within
    /// `limit`, the epoch and ordinal of `want`, checksum, trailer.
    fn intact_frame(&mut self, off: u64, want: u64, limit: u64) -> LogResult<FrameHeader> {
        let corrupt = |what| LogError::Corrupt { offset: off, what };
        let header = self.read_header(off, limit)?;
        if header.seq & !END_OF_FORCE != want {
            return Err(corrupt("record epoch or ordinal"));
        }
        self.check_payload(off, &header)?;
        let end = off + HEADER_LEN + u64::from(header.len) + TRAILER_LEN;
        let trailer = self.dev.lend(end - TRAILER_LEN, end)?;
        if trailer[..4] != header.len.to_le_bytes() || trailer[4..] != END_MAGIC.to_le_bytes() {
            return Err(corrupt("record trailer"));
        }
        Ok(header)
    }

    /// Writes the superblock: the current top under the current epoch. No
    /// barrier of its own — the caller's covers it.
    fn publish(&mut self) -> LogResult<()> {
        let sb = Superblock {
            top: self.top,
            epoch: self.epoch,
        };
        self.dev.store_mut().write_page(0, &sb.encode())?;
        self.published_tail = self.top.tail;
        self.obs.inc(Count::SlogSuperblockWrites);
        Ok(())
    }

    /// Borrows the underlying store (for stats).
    pub fn store(&self) -> &S {
        self.dev.store()
    }

    /// Borrows the underlying store mutably — the fault-injection path for
    /// media decay ([`PageStore::decay_page`]); anything else should go
    /// through the log interface.
    pub fn store_mut(&mut self) -> &mut S {
        self.dev.store_mut()
    }

    /// Appends `payload` to the volatile buffer and returns the address the
    /// entry will have once forced.
    pub fn write(&mut self, payload: &[u8]) -> LogAddress {
        // Summed from the caller's bytes, before they are copied: summing
        // the fresh copy instead costs a tenth of a nanosecond a byte.
        let payload_crc = crc32(payload);
        let (base, seq) = self.begin_frame();
        self.pending.extend_from_slice(payload);
        self.end_frame(base, seq, payload_crc)
    }

    /// Like [`StableLog::write`], but the payload is encoded by `f`
    /// *directly into the pending buffer* — no intermediate per-record
    /// allocation. The frame header's length and checksum are backfilled
    /// once `f` returns; if `f` fails, the partial frame is rolled back and
    /// the log is unchanged.
    pub fn write_with<E>(
        &mut self,
        f: impl FnOnce(&mut crate::Encoder) -> Result<(), E>,
    ) -> Result<LogAddress, E> {
        let (base, seq) = self.begin_frame();
        let mut enc = crate::Encoder::from_vec(std::mem::take(&mut self.pending));
        let result = f(&mut enc);
        self.pending = enc.into_inner();
        if let Err(e) = result {
            self.pending.truncate(base);
            return Err(e);
        }
        let payload_crc = crc32(&self.pending[base + HEADER_LEN as usize..]);
        Ok(self.end_frame(base, seq, payload_crc))
    }

    /// Starts a frame at the end of the pending buffer — magic, the `seq`
    /// word, room for length and checksum — and returns where it starts and
    /// its `seq` word. The payload goes behind it.
    fn begin_frame(&mut self) -> (usize, u64) {
        let base = self.pending.len();
        let seq = seq_word(self.epoch, self.top.count + self.pending_count);
        self.pending.extend_from_slice(&REC_MAGIC.to_le_bytes());
        self.pending.extend_from_slice(&seq.to_le_bytes());
        self.pending.extend_from_slice(&[0u8; 8]); // len + crc: `end_frame`
        (base, seq)
    }

    /// Finishes the frame begun at `base`, whose payload sums to
    /// `payload_crc`: backfills length and checksum, appends the trailer and
    /// counts the entry in.
    fn end_frame(&mut self, base: usize, seq: u64, payload_crc: u32) -> LogAddress {
        let payload_start = base + HEADER_LEN as usize;
        let len = (self.pending.len() - payload_start) as u32;
        let crc = frame_crc(payload_crc, seq, len);
        self.pending[payload_start - 8..payload_start - 4].copy_from_slice(&len.to_le_bytes());
        self.pending[payload_start - 4..payload_start].copy_from_slice(&crc.to_le_bytes());
        self.pending.extend_from_slice(&len.to_le_bytes());
        self.pending.extend_from_slice(&END_MAGIC.to_le_bytes());
        let addr = self.top.tail + base as u64;
        self.pending_count += 1;
        self.pending_last = addr;
        self.pending_last_crc = payload_crc;
        self.obs.inc(Count::SlogAppends);
        self.obs.add(Count::SlogAppendBytes, u64::from(len));
        LogAddress(addr)
    }

    /// Writes buffered frames to the device *without* making them part of
    /// the log: the background "free time" writing of early prepare (§4.4).
    /// Flushed frames carry no end-of-force mark, so restart drops them
    /// unless a force followed; flushing is always safe.
    pub fn flush(&mut self) -> LogResult<()> {
        if self.flushed == self.pending.len() {
            return Ok(());
        }
        self.obs.inc(Count::SlogFlushes);
        self.dev.write_at(
            self.top.tail + self.flushed as u64,
            &self.pending[self.flushed..],
        )?;
        self.flushed = self.pending.len();
        Ok(())
    }

    /// Forces every buffered entry to stable storage before returning
    /// (the thesis's `force_write` barrier applied to the whole buffer).
    pub fn force(&mut self) -> LogResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let t0 = self.clock.now();
        let forced = self.force_pending();
        self.obs.record_since(Hist::SlogForceUs, &self.clock, t0);
        forced
    }

    fn force_pending(&mut self) -> LogResult<()> {
        let forced = self.pending_count;
        // The commit point: the newest frame says the force ends with it.
        self.mark_end_of_force(true);
        let synced = self
            .write_unforced()
            .and_then(|()| self.dev.sync().map_err(LogError::from));
        if let Err(e) = synced {
            // Should the caller go on, the frame is no longer a force's last.
            self.mark_end_of_force(false);
            return Err(e);
        }
        let new_top = Top {
            tail: self.top.tail + self.pending.len() as u64,
            count: self.top.count + forced,
            last_record: self.pending_last,
        };
        // Framing invariants of the durable frontier: the tail strictly
        // advances and the newest record header lies inside the newly forced
        // region (I1 in the checker).
        debug_assert!(
            new_top.last_record >= self.top.tail && new_top.last_record < new_top.tail,
            "last record header {} outside the newly forced region {}..{}",
            new_top.last_record,
            self.top.tail,
            new_top.tail
        );
        self.top = new_top;
        self.pending.clear();
        self.flushed = 0;
        self.pending_count = 0;
        self.obs.inc(Count::SlogForces);
        self.obs.record(Hist::SlogForceBatchSize, forced);
        Ok(())
    }

    /// The writes of a force, short of its barrier: the frames not yet on
    /// the device, and the superblock if it has fallen `PUBLISH_BOUND`
    /// behind. The superblock names `self.top`, which the *previous* force
    /// made durable.
    fn write_unforced(&mut self) -> LogResult<()> {
        self.flush()?;
        if self.top.tail - self.published_tail >= PUBLISH_BOUND {
            self.publish()?;
        }
        Ok(())
    }

    /// Sets or clears the end-of-force mark of the newest buffered frame and
    /// re-sums its header. Whatever of that frame is on the device — an early
    /// flush wrote it unmarked, a failed force marked — is now stale, so the
    /// next write resumes from it.
    fn mark_end_of_force(&mut self, on: bool) {
        let at = (self.pending_last - self.top.tail) as usize;
        self.flushed = self.flushed.min(at);
        let header = &mut self.pending[at..at + HEADER_LEN as usize];
        let seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let seq = if on {
            seq | END_OF_FORCE
        } else {
            seq & !END_OF_FORCE
        };
        header[4..12].copy_from_slice(&seq.to_le_bytes());
        let crc = crc32_extend(self.pending_last_crc, &header[..16]);
        header[16..20].copy_from_slice(&crc.to_le_bytes());
    }

    /// `write` + `force`: the entry and all earlier buffered entries are
    /// durable when this returns.
    pub fn force_write(&mut self, payload: &[u8]) -> LogResult<LogAddress> {
        let addr = self.write(payload);
        self.force()?;
        Ok(addr)
    }

    /// Reads the forced entry at `addr`, returning `(sequence, payload)`.
    pub fn read(&mut self, addr: LogAddress) -> LogResult<(u64, Vec<u8>)> {
        let mut payload = Vec::new();
        let seq = self.read_into(addr, &mut payload)?;
        Ok((seq, payload))
    }

    /// Reads the forced entry at `addr` into `payload` (cleared first) and
    /// returns its sequence number. A caller following pointers through the
    /// log reuses one scratch buffer instead of allocating per read.
    pub fn read_into(&mut self, addr: LogAddress, payload: &mut Vec<u8>) -> LogResult<u64> {
        self.obs.inc(Count::SlogEntryReads);
        let header = self.forced_header(addr)?;
        payload.clear();
        payload.extend_from_slice(self.check_payload(addr.offset(), &header)?);
        Ok(header.seq & ORDINAL_MASK)
    }

    /// Whether the forced entry at `addr` is the last one of its force —
    /// where a dump of the log draws the line between two forces.
    pub fn ends_force(&mut self, addr: LogAddress) -> LogResult<bool> {
        Ok(self.forced_header(addr)?.seq & END_OF_FORCE != 0)
    }

    /// The header of the forced frame at `addr`.
    fn forced_header(&mut self, addr: LogAddress) -> LogResult<FrameHeader> {
        let off = addr.offset();
        // (The tail is never below `DATA_START`; an address can be anything.)
        if off < DATA_START || off > self.top.tail - HEADER_LEN {
            return Err(LogError::BadAddress(addr));
        }
        self.read_header(off, self.top.tail)
    }

    /// Reads the frame header at `off`. The frame it describes must end at
    /// or before `limit` — the durable tail for a forced record, the end of
    /// the device for restart's scan — which bounds the length *before*
    /// anything is sized by it.
    fn read_header(&mut self, off: u64, limit: u64) -> LogResult<FrameHeader> {
        let corrupt = |what| LogError::Corrupt { offset: off, what };
        if off + HEADER_LEN + TRAILER_LEN > limit {
            return Err(corrupt("record header"));
        }
        let header = self.dev.lend(off, off + HEADER_LEN)?;
        if header[0..4] != REC_MAGIC.to_le_bytes() {
            return Err(corrupt("record magic"));
        }
        let len = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if off + HEADER_LEN + u64::from(len) + TRAILER_LEN > limit {
            return Err(corrupt("record length"));
        }
        Ok(FrameHeader {
            seq: u64::from_le_bytes(header[4..12].try_into().unwrap()),
            len,
            crc: u32::from_le_bytes(header[16..20].try_into().unwrap()),
        })
    }

    /// Lends the payload of the frame at `off`, checked, with `header`,
    /// against the frame's checksum.
    fn check_payload(&mut self, off: u64, header: &FrameHeader) -> LogResult<&[u8]> {
        let payload = self
            .dev
            .lend(off + HEADER_LEN, off + HEADER_LEN + u64::from(header.len))?;
        if frame_crc(crc32(payload), header.seq, header.len) != header.crc {
            return Err(LogError::Corrupt {
                offset: off,
                what: "record checksum",
            });
        }
        Ok(payload)
    }

    /// One step of the backward walk: lends the checked payload of the
    /// forced frame at `addr` with its ordinal, and finds the frame below it
    /// by that frame's trailer. `end`, when the step above sized this frame
    /// by *its* trailer, is where it ends: the frame is then fetched whole,
    /// its header's page first and on upward — the order header, payload and
    /// trailer are met in — so that no page of it is asked for twice.
    fn step_back(
        &mut self,
        addr: LogAddress,
        end: Option<u64>,
    ) -> LogResult<(u64, Option<LogAddress>, &[u8])> {
        let off = addr.offset();
        if let Some(end) = end {
            self.dev.lend(off, end)?;
        }
        let header = self.forced_header(addr)?;
        self.check_payload(off, &header)?;
        let ordinal = header.seq & ORDINAL_MASK;
        let (at, end) = (off + HEADER_LEN, off + HEADER_LEN + u64::from(header.len));
        if off == DATA_START {
            return Ok((ordinal, None, self.dev.lend(at, end)?));
        }
        if off < DATA_START + HEADER_LEN + TRAILER_LEN {
            return Err(LogError::Corrupt {
                offset: off,
                what: "impossible record offset",
            });
        }
        // The trailer below and the payload above it in one loan: fetching
        // the one must not cost the extent the other.
        let (trailer, frame) = self
            .dev
            .lend(off - TRAILER_LEN, end)?
            .split_at(TRAILER_LEN as usize);
        let len = u32::from_le_bytes(trailer[0..4].try_into().unwrap()) as u64;
        let magic = u32::from_le_bytes(trailer[4..8].try_into().unwrap());
        if magic != END_MAGIC {
            return Err(LogError::Corrupt {
                offset: off - TRAILER_LEN,
                what: "trailer magic",
            });
        }
        let total = HEADER_LEN + len + TRAILER_LEN;
        if off < DATA_START + total {
            return Err(LogError::Corrupt {
                offset: off,
                what: "trailer length",
            });
        }
        let prev = LogAddress(off - total);
        Ok((ordinal, Some(prev), &frame[HEADER_LEN as usize..]))
    }

    /// Address of the last forced entry (the thesis's `get_top`), or `None`
    /// for an empty log.
    pub fn get_top(&self) -> Option<LogAddress> {
        if self.top.count == 0 {
            None
        } else {
            Some(LogAddress(self.top.last_record))
        }
    }

    /// Reads the log backwards, one entry at a time, starting at `from` (or
    /// at the top when `from` is `None`), lending each payload out of the
    /// device's extent — the form every scan of a whole log should use.
    pub fn walk_backward(&mut self, from: Option<LogAddress>) -> BackwardWalk<'_, S> {
        let cursor = from.or(self.get_top());
        BackwardWalk {
            log: self,
            cursor,
            end: None,
            steps: 0,
        }
    }

    /// [`StableLog::walk_backward`] as an [`Iterator`] that hands every
    /// payload out as an owned `Vec`.
    pub fn read_backward(&mut self, from: Option<LogAddress>) -> BackwardIter<'_, S> {
        BackwardIter(self.walk_backward(from))
    }

    /// Number of forced entries.
    pub fn stable_count(&self) -> u64 {
        self.top.count
    }

    /// Number of buffered, not-yet-forced entries.
    pub fn pending_count(&self) -> u64 {
        self.pending_count
    }

    /// Bytes of forced log content (excluding the superblock page).
    pub fn stable_bytes(&self) -> u64 {
        self.top.tail - DATA_START
    }
}

/// The fields of a frame header after the magic.
#[derive(Debug, Clone, Copy)]
struct FrameHeader {
    /// `epoch ‖ end-of-force ‖ ordinal`.
    seq: u64,
    /// Payload bytes.
    len: u32,
    /// Checksum of the payload and then of `magic ‖ seq ‖ len`.
    crc: u32,
}

/// A backward walk over `(address, sequence, payload)`, lending the payload.
///
/// Yields the entry at the starting address first, then each predecessor —
/// the access pattern of every recovery algorithm in the thesis. Each
/// payload is checked (record magic, length, checksum, the predecessor's
/// trailer) and lent, until the next step, out of the device's extent: the
/// walk reads every page it touches once, in the order it first touches it,
/// touches none it does not need — it may be abandoned anywhere — and
/// allocates nothing per record.
pub struct BackwardWalk<'a, S: PageStore> {
    log: &'a mut StableLog<S>,
    cursor: Option<LogAddress>,
    /// Where the frame at `cursor` ends, once the step above it has read
    /// its trailer.
    end: Option<u64>,
    /// Entries asked for so far; counted into the log's metrics when the
    /// walk is dropped, not one by one.
    steps: u64,
}

impl<S: PageStore> BackwardWalk<'_, S> {
    /// The next (older) entry, or `None` below the oldest. An error ends
    /// the walk.
    pub fn next_entry(&mut self) -> Option<LogResult<(LogAddress, u64, &[u8])>> {
        let addr = self.cursor?;
        self.steps += 1;
        match self.log.step_back(addr, self.end) {
            Ok((seq, prev, payload)) => {
                self.cursor = prev;
                self.end = Some(addr.offset());
                Some(Ok((addr, seq, payload)))
            }
            Err(e) => {
                self.cursor = None;
                Some(Err(e))
            }
        }
    }
}

impl<S: PageStore> Drop for BackwardWalk<'_, S> {
    fn drop(&mut self) {
        self.log.obs.add(Count::SlogBackwardHops, self.steps);
        self.log.obs.add(Count::SlogEntryReads, self.steps);
    }
}

/// Iterator over `(address, sequence, payload)` walking the log backwards:
/// [`BackwardWalk`] with each payload copied out.
pub struct BackwardIter<'a, S: PageStore>(BackwardWalk<'a, S>);

impl<S: PageStore> Iterator for BackwardIter<'_, S> {
    type Item = LogResult<(LogAddress, u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.0.next_entry()?;
        Some(item.map(|(addr, seq, payload)| (addr, seq, payload.to_vec())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_sim::{CostModel, SimClock};
    use argus_stable::{FaultPlan, MemStore};

    fn mem() -> MemStore {
        MemStore::new(SimClock::new(), CostModel::fast())
    }

    fn new_log() -> StableLog<MemStore> {
        StableLog::create(mem()).unwrap()
    }

    #[test]
    fn force_write_then_read_roundtrips() {
        let mut log = new_log();
        let a = log.force_write(b"first").unwrap();
        let b = log.force_write(b"second").unwrap();
        assert!(a < b);
        assert_eq!(log.read(a).unwrap(), (0, b"first".to_vec()));
        assert_eq!(log.read(b).unwrap(), (1, b"second".to_vec()));
        assert_eq!(log.get_top(), Some(b));
        assert_eq!(log.stable_count(), 2);
    }

    #[test]
    fn write_assigns_final_addresses_before_force() {
        let mut log = new_log();
        let a = log.write(b"one");
        let b = log.write(b"two");
        assert!(a < b);
        assert_eq!(log.pending_count(), 2);
        // Unforced entries are not readable.
        assert!(matches!(log.read(a), Err(LogError::BadAddress(_))));
        log.force().unwrap();
        assert_eq!(log.read(a).unwrap().1, b"one");
        assert_eq!(log.read(b).unwrap().1, b"two");
    }

    #[test]
    fn force_flushes_all_older_buffered_entries() {
        let mut log = new_log();
        log.write(b"buffered-1");
        log.write(b"buffered-2");
        let c = log.force_write(b"forced").unwrap();
        assert_eq!(log.stable_count(), 3);
        assert_eq!(log.get_top(), Some(c));
    }

    #[test]
    fn backward_iteration_order() {
        let mut log = new_log();
        for i in 0..5u8 {
            log.force_write(&[i]).unwrap();
        }
        let got: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        assert_eq!(got, vec![vec![4], vec![3], vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn backward_iteration_from_middle() {
        let mut log = new_log();
        let addrs: Vec<_> = (0..5u8).map(|i| log.force_write(&[i]).unwrap()).collect();
        let got: Vec<Vec<u8>> = log
            .read_backward(Some(addrs[2]))
            .map(|r| r.unwrap().2)
            .collect();
        assert_eq!(got, vec![vec![2], vec![1], vec![0]]);
    }

    /// What a walk yields per record, owned.
    type Walked = (LogAddress, u64, Vec<u8>);

    /// Payload length of record `i` of [`assorted_log`].
    fn assorted_len(i: u64) -> u64 {
        (i * 37) % 700
    }

    /// A log of records of assorted lengths (some spanning pages), with
    /// each record's address, sequence number and payload, oldest first.
    fn assorted_log() -> (StableLog<MemStore>, Vec<Walked>) {
        let mut log = new_log();
        let mut written = Vec::new();
        for i in 0..40u64 {
            let payload: Vec<u8> = (0..assorted_len(i)).map(|b| (b + i) as u8).collect();
            written.push((log.write(&payload), i, payload));
            if i % 3 == 0 {
                log.force().unwrap();
            }
        }
        log.force().unwrap();
        (log, written)
    }

    /// Drains the lending walk and the owning iterator from `from`,
    /// checking that they agree item for item, errors included.
    fn walk_both_ways(
        log: &mut StableLog<MemStore>,
        from: Option<LogAddress>,
    ) -> Vec<Result<Walked, String>> {
        let mut lent = Vec::new();
        let mut walk = log.walk_backward(from);
        while let Some(item) = walk.next_entry() {
            lent.push(
                item.map(|(addr, seq, payload)| (addr, seq, payload.to_vec()))
                    .map_err(|e| e.to_string()),
            );
        }
        drop(walk);
        let owned: Vec<_> = log
            .read_backward(from)
            .map(|item| item.map_err(|e| e.to_string()))
            .collect();
        assert_eq!(lent, owned);
        lent
    }

    fn flip_byte(log: &mut StableLog<MemStore>, offset: u64) {
        let (pno, at) = (
            offset / PAGE_SIZE as u64,
            (offset % PAGE_SIZE as u64) as usize,
        );
        let store = log.store_mut();
        let mut page = store.read_page(pno).unwrap();
        page.as_mut_slice()[at] ^= 0x40;
        store.write_page(pno, &page).unwrap();
    }

    #[test]
    fn lending_walk_and_read_backward_yield_the_same_entries() {
        let (mut log, written) = assorted_log();
        let newest_first: Vec<_> = written.iter().rev().cloned().map(Ok).collect();
        assert_eq!(walk_both_ways(&mut log, None), newest_first);
        let middle = written[17].0;
        assert_eq!(walk_both_ways(&mut log, Some(middle)), newest_first[22..]);
    }

    #[test]
    fn lending_walk_and_read_backward_fail_alike_on_corruption() {
        // (byte to damage relative to record 20's frame, the error it causes,
        // how many good entries the walk yields first). A bad trailer is
        // found while stepping *over* it, so it costs the record above too.
        for (at, what, good) in [
            (HEADER_LEN + 5, "record checksum", 19),
            (1, "record magic", 19),
            (HEADER_LEN + assorted_len(20) + 5, "trailer magic", 18),
        ] {
            let (mut log, written) = assorted_log();
            let victim = written[20].0;
            flip_byte(&mut log, victim.offset() + at);
            let got = walk_both_ways(&mut log, None);
            assert_eq!(got.len(), good + 1, "{what}");
            let ok: Vec<_> = written.iter().rev().take(good).cloned().map(Ok).collect();
            assert_eq!(got[..good], ok, "{what}");
            let err = got[good].clone().unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn empty_log_iterates_nothing() {
        let mut log = new_log();
        assert_eq!(log.get_top(), None);
        assert!(log.read_backward(None).next().is_none());
    }

    #[test]
    fn reopen_preserves_forced_entries() {
        let mut log = new_log();
        let a = log.force_write(b"durable").unwrap();
        log.write(b"volatile"); // never forced
        let store = log.into_store();
        let mut log = StableLog::open(store).unwrap();
        assert_eq!(log.stable_count(), 1);
        assert_eq!(log.read(a).unwrap().1, b"durable");
        // New writes continue with fresh sequence numbers after the survivors.
        let b = log.force_write(b"after").unwrap();
        assert_eq!(log.read(b).unwrap().0, 1);
    }

    #[test]
    fn crash_discards_buffered_but_keeps_forced() {
        let plan = FaultPlan::new();
        let store = MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast());
        let mut log = StableLog::create(store).unwrap();
        log.force_write(b"safe").unwrap();
        log.write(b"lost");
        plan.arm_after_writes(0);
        assert!(log.force().unwrap_err().is_crash());
        plan.heal();
        let mut log = StableLog::open(log.into_store()).unwrap();
        assert_eq!(log.stable_count(), 1);
        let tops: Vec<_> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        assert_eq!(tops, vec![b"safe".to_vec()]);
    }

    /// A log over a store that crashes when `plan` says so, holding one
    /// forced sentinel that fills page 1 exactly.
    fn faulty_log() -> (FaultPlan, StableLog<MemStore>) {
        let plan = FaultPlan::new();
        let store = MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast());
        let mut log = StableLog::create(store).unwrap();
        log.force_write(&page_payload(0)).unwrap();
        (plan, log)
    }

    /// A payload whose frame fills one page exactly, so that which frames a
    /// torn force leaves behind can be chosen page by page.
    fn page_payload(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE - (HEADER_LEN + TRAILER_LEN) as usize]
    }

    /// Every forced payload, oldest first.
    fn payloads<S: PageStore>(log: &mut StableLog<S>) -> Vec<Vec<u8>> {
        let mut all: Vec<_> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        all.reverse();
        all
    }

    /// What the last open found, as `(published tail, recovered tail,
    /// discarded bytes)`: the tail from its `log_opened` instant on
    /// `tracer`, the rest from the `slog.open.*` counters of `reg` — which
    /// it resets, so the next call sees only the opens after this one.
    fn last_open(reg: &argus_obs::Registry, tracer: &argus_trace::Tracer) -> (u64, u64, u64) {
        let mut events = tracer.events().into_iter().rev();
        let opened = events.find(|e| e.kind == argus_trace::Kind::LogOpened);
        let published = opened.expect("an open was traced").args[1];
        let count = |name| reg.counter(name).get();
        let scanned = count("slog.open.scanned_bytes");
        let discarded = count("slog.open.discarded_bytes");
        reg.reset();
        (published, published + scanned - discarded, discarded)
    }

    #[test]
    fn a_force_is_one_barrier_and_so_is_an_open() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let (plan, mut log) = faulty_log();
        let cost = |log: &mut StableLog<MemStore>, f: &dyn Fn(&mut StableLog<MemStore>)| {
            let before = plan.op_counts();
            f(log);
            plan.op_counts().since(&before)
        };
        // A small force, a force after an early flush, and the forces that
        // carry the log across the publish bound: one barrier each.
        let small = cost(&mut log, &|log| {
            log.force_write(b"small").unwrap();
        });
        assert_eq!((small.writes, small.forces), (1, 1));
        let flushed = cost(&mut log, &|log| {
            log.write(b"early");
            log.flush().unwrap();
            log.write(b"late");
            log.force().unwrap();
        });
        assert_eq!(flushed.forces, 1);
        let superblocks = reg.counter("slog.superblock_writes");
        let published = superblocks.get();
        let mut forces = 0;
        while superblocks.get() == published {
            let one = cost(&mut log, &|log| {
                log.force_write(&page_payload(9)).unwrap();
            });
            assert_eq!(one.forces, 1);
            forces += 1;
        }
        // The bound, give or take the two small forces and the one that
        // carried the page.
        assert!((64..=65).contains(&forces), "{forces} one-page forces");
        let reopened = cost(&mut log, &|log| log.reopen().unwrap());
        assert_eq!((reopened.writes, reopened.forces), (1, 1));
        let before = plan.op_counts();
        let log = StableLog::open(log.into_store()).unwrap();
        let opened = plan.op_counts().since(&before);
        assert_eq!((opened.writes, opened.forces), (1, 1));
        assert_eq!(log.stable_count(), 4 + forces);
    }

    #[test]
    fn the_superblock_names_only_what_an_earlier_force_made_durable() {
        let (reg, tracer) = (argus_obs::Registry::new(), argus_trace::Tracer::new());
        let _scope = (reg.enter(), tracer.enter());
        let (plan, mut log) = faulty_log();
        let superblocks = reg.counter("slog.superblock_writes");
        let published = superblocks.get();
        let mut tail_before_force = 0;
        while superblocks.get() == published {
            tail_before_force = DATA_START + log.stable_bytes();
            plan.start_trace();
            log.force_write(&page_payload(1)).unwrap();
        }
        // The publishing force: its data page, page 0, then its one barrier.
        let ops: Vec<_> = plan.take_trace().iter().map(|t| (t.op, t.page)).collect();
        let data_page = tail_before_force / PAGE_SIZE as u64;
        assert_eq!(
            ops,
            vec![
                (argus_stable::DeviceOp::Write, Some(data_page)),
                (argus_stable::DeviceOp::Write, Some(0)),
                (argus_stable::DeviceOp::Force, None),
            ]
        );
        let top = DATA_START + log.stable_bytes();
        log.reopen().unwrap();
        assert_eq!(reg.counter("slog.open.scanned_records").get(), 1);
        assert_eq!(
            reg.counter("slog.open.scanned_bytes").get(),
            PAGE_SIZE as u64
        );
        assert_eq!(last_open(&reg, &tracer), (tail_before_force, top, 0));
    }

    #[test]
    fn a_torn_force_is_invisible_and_a_crash_at_the_barrier_is_all_or_nothing() {
        // The force writes three data pages, then its barrier. A crash after
        // k < 3 of the pages must hide the whole force; a crash at the
        // barrier finds every page on this medium and shows the whole force
        // (a medium that reorders may show none of it: never a part).
        for k in 0..=3 {
            let (plan, mut log) = faulty_log();
            for fill in 1..=3 {
                log.write(&page_payload(fill));
            }
            if k < 3 {
                plan.arm_after_writes(k);
            } else {
                plan.arm_after_ops(3);
            }
            assert!(log.force().unwrap_err().is_crash(), "crash {k}");
            plan.heal();
            let mut log = StableLog::open(log.into_store()).unwrap();
            let survivors = if k < 3 { 1 } else { 4 };
            assert_eq!(log.stable_count(), survivors, "crash {k}");
            assert_eq!(payloads(&mut log).len() as u64, survivors, "crash {k}");
            // And the log remains appendable, over the wreck.
            let after = log.force_write(b"after").unwrap();
            assert_eq!(log.read(after).unwrap(), (survivors, b"after".to_vec()));
            log.reopen().unwrap();
            assert_eq!(log.stable_count(), survivors + 1, "crash {k}");
        }
    }

    /// One step of a crash script: a call on the log, given the step's number.
    type Step<S> = fn(&mut StableLog<S>, u8) -> LogResult<()>;

    /// The first byte of every forced payload, oldest first: the numbers of
    /// the script steps that wrote them.
    fn steps_seen<S: PageStore>(log: &mut StableLog<S>) -> Vec<u8> {
        payloads(log).iter().map(|p| p[0]).collect()
    }

    /// Runs `script` on `log` until a step crashes. Returns the steps whose
    /// entries a force acknowledged, and the steps that wrote an entry at all.
    fn run_script<S: PageStore>(log: &mut StableLog<S>, script: &[Step<S>]) -> (Vec<u8>, Vec<u8>) {
        let (mut acked, mut written) = (Vec::new(), Vec::new());
        for (step, op) in script.iter().enumerate() {
            let before = log.pending_count();
            let done = op(log, step as u8);
            if log.pending_count() > before {
                written.push(step as u8);
            }
            match done {
                Ok(()) if log.pending_count() == 0 => acked = written.clone(),
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_crash(), "{e}");
                    break;
                }
            }
        }
        (acked, written)
    }

    /// Runs `script` against a fresh log over `store` with a crash armed at
    /// every device operation in turn, and at every device operation of the
    /// `reopen` that follows each of those. Whatever the crash point, the
    /// log must hold the entries of the forces that returned, possibly those
    /// of the one force in flight, and nothing else.
    fn crash_everywhere<S: PageStore>(store: impl Fn(&FaultPlan) -> S, script: &[Step<S>]) {
        let run = |plan: &FaultPlan, crash_at: Option<u64>| {
            let mut log = StableLog::create(store(plan)).unwrap();
            let created = plan.op_counts();
            if let Some(k) = crash_at {
                plan.arm_after_ops(k);
            }
            let (acked, written) = run_script(&mut log, script);
            plan.disarm();
            let ops = plan.op_counts().since(&created).total();
            (log, acked, written, ops)
        };
        let (_, all, _, total) = run(&FaultPlan::new(), None);
        assert!(!all.is_empty());
        let mut crashed_reopens = 0;
        for k in 0..total {
            for second in std::iter::once(None).chain((0..).map(Some)) {
                let plan = FaultPlan::new();
                let (mut log, acked, written, _) = run(&plan, Some(k));
                assert!(plan.is_crashed(), "no crash at operation {k} of {total}");
                plan.heal();
                if let Some(j) = second {
                    plan.arm_after_ops(j);
                    if log.reopen().is_ok() {
                        // `j` is past the reopen's last operation.
                        plan.disarm();
                        break;
                    }
                    crashed_reopens += 1;
                    plan.heal();
                }
                log.reopen().unwrap();
                let got = steps_seen(&mut log);
                assert!(
                    got == acked || got == written,
                    "crash at {k}, then at {second:?} of the reopen: acknowledged \
                     {acked:?}, written {written:?}, found {got:?}"
                );
                // The next force lands on top of whatever the crash left.
                log.force_write(&[0xEE]).unwrap();
                log.reopen().unwrap();
                assert_eq!(steps_seen(&mut log), [got, vec![0xEE]].concat());
            }
        }
        assert!(crashed_reopens > 0);
    }

    /// Appends an entry of a few hundred bytes that starts with `step`.
    fn script_write<S: PageStore>(log: &mut StableLog<S>, step: u8) -> LogResult<()> {
        log.write(&vec![step; 150 + 97 * step as usize]);
        Ok(())
    }

    fn force_flush_force_script<S: PageStore>() -> Vec<Step<S>> {
        vec![
            script_write,
            |log, _| log.force(),
            script_write,
            script_write,
            |log, _| log.flush(),
            script_write,
            |log, _| log.force(),
            script_write,
            |log, _| log.flush(),
            // The last frame is already on the device, unmarked.
            |log, _| log.force(),
        ]
    }

    #[test]
    fn a_crash_at_any_device_operation_leaves_whole_forces_on_memory_media() {
        crash_everywhere(
            |plan| MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast()),
            &force_flush_force_script(),
        );
    }

    #[test]
    fn a_crash_at_any_device_operation_leaves_whole_forces_on_mirrored_media() {
        crash_everywhere(
            |plan| {
                argus_stable::MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast())
            },
            &force_flush_force_script(),
        );
    }

    /// Overwrites the device from byte `offset` on, behind the log's back.
    fn poke(log: &mut StableLog<MemStore>, offset: u64, bytes: &[u8]) {
        log.dev.write_at(offset, bytes).unwrap();
    }

    /// A well-formed frame, as `write` lays one out.
    fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u32;
        let mut f = REC_MAGIC.to_le_bytes().to_vec();
        f.extend_from_slice(&seq.to_le_bytes());
        f.extend_from_slice(&len.to_le_bytes());
        f.extend_from_slice(&frame_crc(crc32(payload), seq, len).to_le_bytes());
        f.extend_from_slice(payload);
        f.extend_from_slice(&len.to_le_bytes());
        f.extend_from_slice(&END_MAGIC.to_le_bytes());
        f
    }

    #[test]
    fn junk_after_the_tail_is_the_end_of_the_log() {
        let mut rng = argus_sim::DetRng::new(0x1A2B);
        let noise: Vec<u8> = (0..3 * PAGE_SIZE)
            .map(|_| rng.gen_range(256) as u8)
            .collect();
        // What the next frame's `seq` word must be for the scan to take it
        // (epoch 1: the log was created and never reopened), with the mark.
        let next = seq_word(1, 2) | END_OF_FORCE;
        let good = frame(next, b"never forced");
        let mut huge = good.clone();
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut long = good.clone();
        long[12..16].copy_from_slice(&(2 * PAGE_SIZE as u32).to_le_bytes());
        let mut bad_crc = good.clone();
        bad_crc[HEADER_LEN as usize] ^= 1;
        let mut bad_trailer = good.clone();
        *bad_trailer.last_mut().unwrap() ^= 1;
        let mut unmarked_crc = good.clone();
        unmarked_crc[8] &= 0x7f; // the mark cleared, the checksum not redone
        let junk: Vec<(&str, Vec<u8>)> = vec![
            ("noise", noise.clone()),
            ("a header claiming 4 GiB", [huge, noise.clone()].concat()),
            ("a length past the device", long),
            ("a length within the noise", {
                let mut f = good.clone();
                f[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
                [f, noise].concat()
            }),
            ("a payload that fails its checksum", bad_crc),
            ("a broken trailer", bad_trailer),
            ("a header edited after it was summed", unmarked_crc),
            ("another epoch", frame(seq_word(2, 2) | END_OF_FORCE, b"x")),
            ("an ordinal gap", frame(seq_word(1, 3) | END_OF_FORCE, b"x")),
        ];
        for (what, bytes) in junk {
            let mut log = new_log();
            log.force_write(b"one").unwrap();
            log.force_write(b"two").unwrap();
            let tail = DATA_START + log.stable_bytes();
            poke(&mut log, tail, &bytes);
            log.reopen().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(log.stable_count(), 2, "{what}");
            assert_eq!(
                payloads(&mut log),
                vec![b"one".to_vec(), b"two".to_vec()],
                "{what}"
            );
            let three = log.force_write(b"three").unwrap();
            log.reopen().unwrap();
            assert_eq!(log.read(three).unwrap(), (2, b"three".to_vec()), "{what}");
        }
        // The control: the same bytes, unbroken, *are* the next force.
        let mut log = new_log();
        log.force_write(b"one").unwrap();
        log.force_write(b"two").unwrap();
        let tail = DATA_START + log.stable_bytes();
        poke(&mut log, tail, &good);
        log.reopen().unwrap();
        assert_eq!(log.stable_count(), 3);
    }

    #[test]
    fn stale_frames_of_a_torn_force_are_never_resurrected() {
        let (reg, tracer) = (argus_obs::Registry::new(), argus_trace::Tracer::new());
        let _scope = (reg.enter(), tracer.enter());
        // Pages 2, 3 and 4 take one frame each. The first force loses page 3
        // although page 4, with the end-of-force mark, landed.
        let (plan, mut log) = faulty_log();
        for fill in [1, 2, 3] {
            log.write(&page_payload(fill));
        }
        log.force().unwrap();
        log.store_mut()
            .write_page(3, &Page::from_bytes(b"never landed"))
            .unwrap();
        log.reopen().unwrap();
        assert_eq!(payloads(&mut log), vec![page_payload(0)]);
        // Page 2's frame is intact but unmarked; page 4's is out of reach.
        assert_eq!(last_open(&reg, &tracer).2, PAGE_SIZE as u64);

        // The same-sized appends again put ordinal 3 at page 4 — and this
        // time the crash takes that page and spares the two before it.
        for fill in [4, 5, 6] {
            log.write(&page_payload(fill));
        }
        plan.arm_after_writes(2);
        assert!(log.force().unwrap_err().is_crash());
        plan.heal();
        log.reopen().unwrap();
        // Frames 4 and 5 are whole and of this epoch, and the frame after
        // them is whole, marked and has the right ordinal: only its epoch
        // says it belongs to a force that was never acknowledged.
        assert_eq!(payloads(&mut log), vec![page_payload(0)]);
        assert_eq!(last_open(&reg, &tracer).2, 2 * PAGE_SIZE as u64);
        let again = log.force_write(&page_payload(7)).unwrap();
        log.reopen().unwrap();
        assert_eq!(payloads(&mut log), vec![page_payload(0), page_payload(7)]);
        assert_eq!(log.get_top(), Some(again));
    }

    #[test]
    fn create_on_a_reused_store_outlives_the_frames_it_holds() {
        let mut old = new_log();
        for fill in [1, 2, 3] {
            old.force_write(&page_payload(fill)).unwrap();
        }
        // The provider hands the same store back for a new log.
        let mut log = StableLog::create(old.into_store()).unwrap();
        assert_eq!(log.stable_count(), 0);
        log.reopen().unwrap();
        assert_eq!(log.stable_count(), 0, "the old log's frames chained on");
        // Same-sized appends over them, torn after the first page.
        log.write(&page_payload(4));
        log.write(&page_payload(5));
        log.flush().unwrap();
        log.reopen().unwrap();
        assert_eq!(log.stable_count(), 0);
        let a = log.force_write(&page_payload(6)).unwrap();
        log.reopen().unwrap();
        assert_eq!(payloads(&mut log), vec![page_payload(6)]);
        assert_eq!(log.read(a).unwrap().0, 0);

        // Pages that are not a log's are not silently formatted over.
        let mut store = mem();
        store
            .write_page(1, &Page::from_bytes(b"someone's"))
            .unwrap();
        assert!(matches!(StableLog::create(store), Err(LogError::NotALog)));
    }

    #[test]
    fn file_store_keeps_every_acknowledged_force_and_nothing_else() {
        use argus_stable::DurableFileStore;
        let (reg, tracer) = (argus_obs::Registry::new(), argus_trace::Tracer::new());
        let _scope = (reg.enter(), tracer.enter());
        let path = std::env::temp_dir().join(format!("argus-slog-file-{}", std::process::id()));
        let open_store =
            || DurableFileStore::open(&path, SimClock::new(), CostModel::fast()).unwrap();
        // After each prefix of the script the process dies.
        let script = force_flush_force_script();
        for cut in 0..=script.len() {
            let _ = std::fs::remove_file(&path);
            let mut log = StableLog::create(open_store()).unwrap();
            let (acked, _) = run_script(&mut log, &script[..cut]);
            // The store goes with whatever it had staged and not synced;
            // a new process opens the file.
            drop(log);
            let mut log = StableLog::open(open_store()).unwrap();
            assert_eq!(steps_seen(&mut log), acked, "cut after call {cut}");
            // All of it below the publish bound: page 0 never moved.
            let (published_tail, recovered_tail, _) = last_open(&reg, &tracer);
            assert_eq!(published_tail, DATA_START, "cut after call {cut}");
            assert_eq!(recovered_tail, DATA_START + log.stable_bytes());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn large_entries_span_pages() {
        let mut log = new_log();
        let big: Vec<u8> = (0..10_000).map(|i| (i % 253) as u8).collect();
        let a = log.force_write(&big).unwrap();
        let small = log.force_write(b"tail").unwrap();
        assert_eq!(log.read(a).unwrap().1, big);
        let got: Vec<_> = log.read_backward(None).map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![small, a]);
    }

    #[test]
    fn write_with_is_equivalent_to_write() {
        let mut log = new_log();
        let a = log.write(b"classic");
        let b: LogAddress = log
            .write_with(|enc| {
                enc.put_raw(b"arena");
                Ok::<(), ()>(())
            })
            .unwrap();
        log.force().unwrap();
        assert_eq!(log.read(a).unwrap(), (0, b"classic".to_vec()));
        assert_eq!(log.read(b).unwrap(), (1, b"arena".to_vec()));
        // The backward walk crosses both framings.
        let got: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        assert_eq!(got, vec![b"arena".to_vec(), b"classic".to_vec()]);
    }

    #[test]
    fn write_with_failure_rolls_the_frame_back() {
        let mut log = new_log();
        let a = log.write(b"kept");
        let err = log.write_with(|enc| {
            enc.put_raw(b"partial garbage");
            Err::<(), &str>("encode failed")
        });
        assert_eq!(err.unwrap_err(), "encode failed");
        assert_eq!(log.pending_count(), 1);
        let b = log.force_write(b"after").unwrap();
        assert_eq!(log.read(a).unwrap().1, b"kept");
        assert_eq!(log.read(b).unwrap().1, b"after");
        assert_eq!(log.stable_count(), 2);
    }

    #[test]
    fn read_into_reuses_the_buffer() {
        let mut log = new_log();
        let a = log.force_write(b"a longer first record").unwrap();
        let b = log.force_write(b"b").unwrap();
        let mut buf = Vec::new();
        assert_eq!(log.read_into(a, &mut buf).unwrap(), 0);
        assert_eq!(buf, b"a longer first record");
        assert_eq!(log.read_into(b, &mut buf).unwrap(), 1);
        assert_eq!(buf, b"b");
    }

    #[test]
    fn open_rejects_a_non_log() {
        let mut store = mem();
        store.write_page(0, &Page::from_bytes(b"garbage")).unwrap();
        assert!(matches!(StableLog::open(store), Err(LogError::NotALog)));
    }

    #[test]
    fn read_rejects_junk_addresses() {
        let mut log = new_log();
        log.force_write(b"x").unwrap();
        for junk in [3, u64::MAX, u64::MAX - 8] {
            assert!(matches!(
                log.read(LogAddress(junk)),
                Err(LogError::BadAddress(_))
            ));
        }
        assert!(matches!(
            log.read(LogAddress(DATA_START + 7)),
            Err(LogError::Corrupt { .. }) | Err(LogError::BadAddress(_))
        ));
    }
}
