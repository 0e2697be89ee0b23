//! The stable log proper.

use crate::{crc32, CodecError, LogAddress};
use argus_stable::{ByteDevice, Page, PageStore, StorageError, PAGE_SIZE};
use std::fmt;

const SUPER_MAGIC: u64 = 0x4152_4755_534C_4F47; // "ARGUSLOG"
const REC_MAGIC: u32 = 0xA6_0C_5E_01;
const END_MAGIC: u32 = 0xA6_0C_5E_02;
const VERSION: u32 = 1;

/// First byte offset of record storage (the superblock owns page 0).
const DATA_START: u64 = PAGE_SIZE as u64;

/// Frame header: magic(4) + seq(8) + len(4) + crc(4).
const HEADER_LEN: u64 = 20;
/// Frame trailer: len(4) + end-magic(4); enables the backward walk.
const TRAILER_LEN: u64 = 8;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Superblock {
    /// Byte offset one past the last forced record.
    tail: u64,
    /// Number of forced records.
    count: u64,
    /// Offset of the last forced record's header; `0` when the log is empty.
    last_record: u64,
}

impl Superblock {
    fn encode(&self) -> Page {
        let mut buf = [0u8; 40];
        buf[0..8].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..20].copy_from_slice(&self.tail.to_le_bytes());
        buf[20..28].copy_from_slice(&self.count.to_le_bytes());
        buf[28..36].copy_from_slice(&self.last_record.to_le_bytes());
        let crc = crc32(&buf[0..36]);
        buf[36..40].copy_from_slice(&crc.to_le_bytes());
        Page::from_bytes(&buf)
    }

    fn decode(page: &Page) -> LogResult<Self> {
        let buf = page.as_slice();
        let magic = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        if magic != SUPER_MAGIC {
            return Err(LogError::NotALog);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(LogError::Corrupt {
                offset: 0,
                what: "unknown superblock version",
            });
        }
        let crc = u32::from_le_bytes(buf[36..40].try_into().unwrap());
        if crc != crc32(&buf[0..36]) {
            return Err(LogError::Corrupt {
                offset: 0,
                what: "superblock checksum",
            });
        }
        Ok(Self {
            tail: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
            count: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            last_record: u64::from_le_bytes(buf[28..36].try_into().unwrap()),
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
/// the force that makes them durable). [`StableLog::force`] writes the
/// buffered frames, syncs, then atomically publishes them by rewriting the
/// superblock. A crash at any intermediate point leaves the previous
/// superblock in place, so half-forced records are simply invisible — the
/// all-or-nothing force the thesis's two-phase commit relies on.
pub struct StableLog<S: PageStore> {
    dev: ByteDevice<S>,
    sb: Superblock,
    /// Serialized frames not yet forced.
    pending: Vec<u8>,
    /// Prefix of `pending` already written to the device by [`StableLog::flush`]
    /// (on media but not yet published by a superblock write).
    flushed: usize,
    /// Count of buffered frames and the address of the newest one.
    pending_count: u64,
    pending_last: u64,
    next_seq: u64,
    obs: SlogObs,
}

/// Cached metric handles for one log (resolved once from the scope's
/// registry so the append path stays a plain atomic bump).
#[derive(Debug, Clone)]
struct SlogObs {
    appends: argus_obs::Counter,
    append_bytes: argus_obs::Counter,
    flushes: argus_obs::Counter,
    forces: argus_obs::Counter,
    batch_size: argus_obs::Histogram,
    force_us: argus_obs::Timer,
    entry_reads: argus_obs::Counter,
    backward_hops: argus_obs::Counter,
    reg: argus_obs::Registry,
}

impl SlogObs {
    fn resolve() -> Self {
        let reg = argus_obs::current();
        Self {
            appends: reg.counter("slog.appends"),
            append_bytes: reg.counter("slog.append_bytes"),
            flushes: reg.counter("slog.flushes"),
            forces: reg.counter("slog.forces"),
            batch_size: reg.histogram("slog.force.batch_size"),
            force_us: reg.timer("slog.force_us"),
            entry_reads: reg.counter("slog.entry_reads"),
            backward_hops: reg.counter("slog.backward_hops"),
            reg,
        }
    }
}

impl<S: PageStore> fmt::Debug for StableLog<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StableLog")
            .field("tail", &self.sb.tail)
            .field("count", &self.sb.count)
            .field("pending_bytes", &self.pending.len())
            .finish()
    }
}

impl<S: PageStore> StableLog<S> {
    /// Formats a fresh, empty log onto `store` (the thesis's `create()`).
    pub fn create(store: S) -> LogResult<Self> {
        let mut dev = ByteDevice::new(store);
        let sb = Superblock {
            tail: DATA_START,
            count: 0,
            last_record: 0,
        };
        dev.store_mut().write_page(0, &sb.encode())?;
        dev.sync()?;
        Ok(Self {
            dev,
            sb,
            pending: Vec::new(),
            flushed: 0,
            pending_count: 0,
            pending_last: 0,
            next_seq: 0,
            obs: SlogObs::resolve(),
        })
    }

    /// Opens an existing log from `store`, e.g. after a crash. Buffered
    /// (unforced) entries from before the crash are gone, as they should be.
    pub fn open(store: S) -> LogResult<Self> {
        let mut dev = ByteDevice::new(store);
        // Whatever the store cached before the crash did not survive it.
        dev.store_mut().invalidate_volatile();
        let page = dev.store_mut().read_page(0)?;
        let sb = Superblock::decode(&page)?;
        Ok(Self {
            dev,
            sb,
            pending: Vec::new(),
            flushed: 0,
            pending_count: 0,
            pending_last: 0,
            next_seq: sb.count,
            obs: SlogObs::resolve(),
        })
    }

    /// Consumes the log, returning the underlying store (for crash
    /// simulation: extract the media, reopen later).
    pub fn into_store(self) -> S {
        self.dev.into_inner()
    }

    /// Simulates restart-in-place: discards all volatile state (the pending
    /// buffer and the tail-page cache) and re-reads the superblock from the
    /// surviving media. Equivalent to `open(self.into_store())` without
    /// moving the store.
    pub fn reopen(&mut self) -> LogResult<()> {
        self.pending.clear();
        self.flushed = 0;
        self.pending_count = 0;
        self.pending_last = 0;
        // Page caches under the device are volatile too: a restart starts
        // cold, exactly as the media would be after a real crash.
        self.dev.store_mut().invalidate_volatile();
        let page = self.dev.store_mut().read_page(0)?;
        self.sb = Superblock::decode(&page)?;
        self.next_seq = self.sb.count;
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
        self.obs.appends.inc();
        self.obs.append_bytes.add(payload.len() as u64);
        let addr = self.sb.tail + self.pending.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        let len = payload.len() as u32;
        self.pending.extend_from_slice(&REC_MAGIC.to_le_bytes());
        self.pending.extend_from_slice(&seq.to_le_bytes());
        self.pending.extend_from_slice(&len.to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.pending.extend_from_slice(&len.to_le_bytes());
        self.pending.extend_from_slice(&END_MAGIC.to_le_bytes());
        self.pending_count += 1;
        self.pending_last = addr;
        LogAddress(addr)
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
        let addr = self.sb.tail + self.pending.len() as u64;
        let base = self.pending.len();
        let mut enc = crate::Encoder::from_vec(std::mem::take(&mut self.pending));
        enc.put_raw(&REC_MAGIC.to_le_bytes());
        enc.put_raw(&self.next_seq.to_le_bytes());
        enc.put_raw(&[0u8; 8]); // len + crc, backfilled below
        let payload_start = enc.len();
        let result = f(&mut enc);
        let mut buf = enc.into_inner();
        if let Err(e) = result {
            buf.truncate(base);
            self.pending = buf;
            return Err(e);
        }
        let len = (buf.len() - payload_start) as u32;
        let crc = crc32(&buf[payload_start..]);
        buf[payload_start - 8..payload_start - 4].copy_from_slice(&len.to_le_bytes());
        buf[payload_start - 4..payload_start].copy_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&END_MAGIC.to_le_bytes());
        self.pending = buf;
        self.next_seq += 1;
        self.pending_count += 1;
        self.pending_last = addr;
        self.obs.appends.inc();
        self.obs.append_bytes.add(len as u64);
        Ok(LogAddress(addr))
    }

    /// Writes buffered frames to the device *without* publishing them: the
    /// background "free time" writing of early prepare (§4.4). Flushed
    /// entries are still invisible after a crash until a force publishes
    /// them via the superblock, so flushing is always safe.
    pub fn flush(&mut self) -> LogResult<()> {
        if self.flushed == self.pending.len() {
            return Ok(());
        }
        self.obs.flushes.inc();
        self.dev.write_at(
            self.sb.tail + self.flushed as u64,
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
        let t0 = self.obs.force_us.now();
        let forced = self.force_pending();
        self.obs.force_us.record_since(t0);
        forced
    }

    fn force_pending(&mut self) -> LogResult<()> {
        let published = self.pending_count;
        self.flush()?;
        self.dev.sync()?;
        // Publication point: one atomic superblock write.
        let new_sb = Superblock {
            tail: self.sb.tail + self.pending.len() as u64,
            count: self.sb.count + self.pending_count,
            last_record: self.pending_last,
        };
        // Framing invariants the published superblock must satisfy: the tail
        // strictly advances, the record count grows with it, and the newest
        // record header lies inside the published region (I1 in the checker).
        debug_assert!(new_sb.tail > self.sb.tail);
        debug_assert!(new_sb.count == self.sb.count + self.pending_count);
        debug_assert!(
            new_sb.last_record >= self.sb.tail && new_sb.last_record < new_sb.tail,
            "last record header {} outside the newly published region {}..{}",
            new_sb.last_record,
            self.sb.tail,
            new_sb.tail
        );
        self.dev.store_mut().write_page(0, &new_sb.encode())?;
        self.dev.sync()?;
        self.sb = new_sb;
        self.pending.clear();
        self.flushed = 0;
        self.pending_count = 0;
        self.obs.forces.inc();
        self.obs.batch_size.record(published);
        self.obs.reg.event(argus_obs::Event::ForceCompleted {
            entries: published,
            stable_bytes: self.stable_bytes(),
        });
        Ok(())
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
    /// returns its sequence number. A caller walking many records reuses one
    /// scratch buffer instead of allocating per read — the recovery chain
    /// walk's allocation-free read path.
    pub fn read_into(&mut self, addr: LogAddress, payload: &mut Vec<u8>) -> LogResult<u64> {
        self.obs.entry_reads.inc();
        let off = addr.offset();
        if off < DATA_START || off + HEADER_LEN > self.sb.tail {
            return Err(LogError::BadAddress(addr));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        self.dev.read_at(off, &mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic != REC_MAGIC {
            return Err(LogError::Corrupt {
                offset: off,
                what: "record magic",
            });
        }
        let seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as u64;
        let crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
        if off + HEADER_LEN + len + TRAILER_LEN > self.sb.tail {
            return Err(LogError::Corrupt {
                offset: off,
                what: "record length",
            });
        }
        payload.clear();
        payload.resize(len as usize, 0);
        self.dev.read_at(off + HEADER_LEN, payload)?;
        if crc32(payload) != crc {
            return Err(LogError::Corrupt {
                offset: off,
                what: "record checksum",
            });
        }
        Ok(seq)
    }

    /// Address of the last forced entry (the thesis's `get_top`), or `None`
    /// for an empty log.
    pub fn get_top(&self) -> Option<LogAddress> {
        if self.sb.count == 0 {
            None
        } else {
            Some(LogAddress(self.sb.last_record))
        }
    }

    /// Reads the log backwards, one entry at a time, starting at `from` (or
    /// at the top when `from` is `None`), lending each payload out of one
    /// reused buffer — the form every scan of a whole log should use.
    pub fn walk_backward(&mut self, from: Option<LogAddress>) -> BackwardWalk<'_, S> {
        let cursor = from.or(self.get_top());
        BackwardWalk {
            log: self,
            cursor,
            payload: Vec::new(),
        }
    }

    /// [`StableLog::walk_backward`] as an [`Iterator`] that hands every
    /// payload out as an owned `Vec`.
    pub fn read_backward(&mut self, from: Option<LogAddress>) -> BackwardIter<'_, S> {
        BackwardIter(self.walk_backward(from))
    }

    /// Number of forced entries.
    pub fn stable_count(&self) -> u64 {
        self.sb.count
    }

    /// Number of buffered, not-yet-forced entries.
    pub fn pending_count(&self) -> u64 {
        self.pending_count
    }

    /// Bytes of forced log content (excluding the superblock page).
    pub fn stable_bytes(&self) -> u64 {
        self.sb.tail - DATA_START
    }

    /// Given a forced record's address, returns the address of the record
    /// preceding it, or `None` at the beginning of the log.
    fn prev_record(&mut self, addr: LogAddress) -> LogResult<Option<LogAddress>> {
        let off = addr.offset();
        if off == DATA_START {
            return Ok(None);
        }
        if off < DATA_START + HEADER_LEN + TRAILER_LEN {
            return Err(LogError::Corrupt {
                offset: off,
                what: "impossible record offset",
            });
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        self.dev.read_at(off - TRAILER_LEN, &mut trailer)?;
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
        Ok(Some(LogAddress(off - total)))
    }
}

/// A backward walk over `(address, sequence, payload)`, lending the payload.
///
/// Yields the entry at the starting address first, then each predecessor —
/// the access pattern of every recovery algorithm in the thesis. Each
/// payload is checked (record magic, length, checksum, the predecessor's
/// trailer) and lent until the next step, so a walk allocates once, not per
/// record.
pub struct BackwardWalk<'a, S: PageStore> {
    log: &'a mut StableLog<S>,
    cursor: Option<LogAddress>,
    payload: Vec<u8>,
}

impl<S: PageStore> BackwardWalk<'_, S> {
    /// The next (older) entry, or `None` below the oldest. An error ends
    /// the walk.
    pub fn next_entry(&mut self) -> Option<LogResult<(LogAddress, u64, &[u8])>> {
        let addr = self.cursor?;
        self.log.obs.backward_hops.inc();
        let step = self
            .log
            .read_into(addr, &mut self.payload)
            .and_then(|seq| Ok((seq, self.log.prev_record(addr)?)));
        match step {
            Ok((seq, prev)) => {
                self.cursor = prev;
                Some(Ok((addr, seq, &self.payload)))
            }
            Err(e) => {
                self.cursor = None;
                Some(Err(e))
            }
        }
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

    #[test]
    fn crash_before_superblock_publish_hides_the_force() {
        // Arm the crash so the record bytes land but the superblock write
        // tears: the entry must be invisible after recovery.
        let plan = FaultPlan::new();
        let store = MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast());
        let mut log = StableLog::create(store).unwrap();
        log.force_write(b"entry-0").unwrap();
        log.write(b"entry-1");
        // The force will write 1 data page then the superblock page; allow
        // exactly the data page.
        plan.arm_after_writes(1);
        assert!(log.force().unwrap_err().is_crash());
        plan.heal();
        let mut log = StableLog::open(log.into_store()).unwrap();
        assert_eq!(log.stable_count(), 1);
        assert_eq!(
            log.read_backward(None)
                .map(|r| r.unwrap().2)
                .collect::<Vec<_>>(),
            vec![b"entry-0".to_vec()]
        );
        // And the log remains appendable.
        log.force_write(b"entry-2").unwrap();
        assert_eq!(log.stable_count(), 2);
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
        assert!(matches!(
            log.read(LogAddress(3)),
            Err(LogError::BadAddress(_))
        ));
        assert!(matches!(
            log.read(LogAddress(DATA_START + 7)),
            Err(LogError::Corrupt { .. }) | Err(LogError::BadAddress(_))
        ));
    }
}
