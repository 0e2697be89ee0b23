//! A durable file-backed page store.

use crate::store::SeqTracker;
use crate::{Page, PageNo, PageStore, StorageError, StorageResult, PAGE_SIZE};
use argus_obs::{Count, Registry};
use argus_sim::{CostModel, DeviceStats, OpKind, SimClock};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// A page store persisted durably in a regular file.
///
/// This is the "real device" backend behind the same [`PageStore`] trait the
/// simulated stores implement, so every recovery organization, the
/// [`crate::PageCache`], and the housekeeping sweeper run unchanged on an
/// actual disk. Three properties make it production-grade rather than a
/// demo:
///
/// * **Durable forces.** `sync` really reaches the platter: one `fsync`
///   (`sync_all`) covers every write staged since the last barrier — what
///   group commit wants. File *creation* is made durable too — the parent
///   directory is fsynced after creating the file, so a power cut right
///   after the first force cannot lose the file's very existence (the
///   classic create-without-dir-fsync bug).
/// * **Write combining.** Page writes are staged in memory — straight into
///   the buffer the `pwrite`s are issued from, in page order — and only hit
///   the file when `sync` runs, one `pwrite` per contiguous page run
///   (`stable.file.pwrites`). The group-commit
///   [`ForceScheduler`](argus_slog) above turns N staged
///   commits into one force, and this layer turns that force into one data
///   write + one fsync — the E18 wall-clock experiment measures exactly
///   this multiplication.
/// * **Honest crash semantics.** Staged pages are volatile:
///   `invalidate_volatile` (run on every log open/reopen, i.e. simulated
///   power cut) drops them, so an unforced write is *gone* after a crash
///   exactly as on real hardware.
///
/// Reads cost one `pread` each, and [`PageStore::read_run`] one `pread` for
/// the whole run (counters `stable.file.{preads,bytes_read}`). The store is
/// the only writer of its file, so it tracks the file's length itself: the
/// filesystem is asked once, at open, and never on the read or write path.
///
/// Torn-write assumption: single-page (512-byte) writes are atomic, matching
/// the sector-atomicity assumption the simulated [`crate::RawDisk`] enforces
/// and classic disks provide. The simulated [`crate::MirroredDisk`] is what
/// the fault-injection suites exercise for decay/torn-page recovery; this
/// backend relies on the filesystem instead.
#[derive(Debug)]
pub struct DurableFileStore {
    file: File,
    pages: u64,
    /// Length of the file in bytes: read at open, advanced by every run
    /// `flush_staged` writes. Reads past it are zeros without a syscall.
    file_len: u64,
    /// Numbers of the pages written since the last sync, ascending. Volatile
    /// by design.
    staged: Vec<PageNo>,
    /// Their bytes, in the same order: a contiguous run of page numbers is
    /// a contiguous run of bytes, ready to `pwrite`. Kept for its capacity.
    staged_bytes: Vec<u8>,
    /// Scratch buffer reused across `read_run`s.
    run_buf: Vec<u8>,
    stats: DeviceStats,
    clock: SimClock,
    model: CostModel,
    tracker: SeqTracker,
    /// The registry current when the store was opened.
    obs: Registry,
}

impl DurableFileStore {
    /// Opens (creating if absent) the store at `path`.
    pub fn open(path: &Path, clock: SimClock, model: CostModel) -> StorageResult<Self> {
        let existed = path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let obs = argus_obs::current();
        if !existed {
            // Durability bug regression: creating the file is itself a write
            // to the *directory*. Without fsyncing the parent, a power cut
            // after the first "durable" force can lose the whole file.
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                File::open(dir)?.sync_all()?;
                obs.inc(Count::StableFileFsyncs);
            }
        }
        let file_len = file.metadata()?.len();
        Ok(Self {
            file,
            pages: file_len / PAGE_SIZE as u64,
            file_len,
            staged: Vec::new(),
            staged_bytes: Vec::new(),
            run_buf: Vec::new(),
            stats: DeviceStats::new(),
            clock,
            model,
            tracker: SeqTracker::default(),
            obs,
        })
    }

    /// The bytes of page `pno` if it is staged.
    fn staged_page(&self, pno: PageNo) -> Option<&[u8]> {
        let at = self.staged.binary_search(&pno).ok()? * PAGE_SIZE;
        Some(&self.staged_bytes[at..at + PAGE_SIZE])
    }

    /// Drains the staged pages to the file, one `pwrite` per run of
    /// contiguous page numbers.
    fn flush_staged(&mut self) -> StorageResult<()> {
        let mut at = 0;
        for run in self.staged.chunk_by(|a, b| a + 1 == *b) {
            let offset = run[0] * PAGE_SIZE as u64;
            let bytes = &self.staged_bytes[at..at + run.len() * PAGE_SIZE];
            self.file.write_all_at(bytes, offset)?;
            self.file_len = self.file_len.max(offset + bytes.len() as u64);
            self.obs.inc(Count::StableFilePwrites);
            self.obs
                .add(Count::StableFileBytesWritten, bytes.len() as u64);
            at += bytes.len();
        }
        self.staged.clear();
        self.staged_bytes.clear();
        Ok(())
    }

    fn charge_read(&mut self, pno: PageNo) {
        let kind = if self.tracker.classify(pno) {
            OpKind::SeqRead
        } else {
            OpKind::RandRead
        };
        self.stats.charge(kind, &self.model, &self.clock);
    }

    /// Fills `buf` from the file at byte `offset` with one `pread`. The file
    /// may be shorter than `pages` claims while writes are staged; whatever
    /// lies past its end is left as the caller zeroed it.
    fn pread(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let have = self.file_len.saturating_sub(offset).min(buf.len() as u64) as usize;
        if have > 0 {
            self.file.read_exact_at(&mut buf[..have], offset)?;
            self.obs.inc(Count::StableFilePreads);
            self.obs.add(Count::StableFileBytesRead, have as u64);
        }
        Ok(())
    }
}

impl PageStore for DurableFileStore {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        let mut page = Page::zeroed();
        self.read_page_into(pno, page.as_mut_slice())?;
        Ok(page)
    }

    fn read_page_into(&mut self, pno: PageNo, out: &mut [u8]) -> StorageResult<()> {
        self.charge_read(pno);
        match self.staged_page(pno) {
            Some(page) => out.copy_from_slice(page),
            None => {
                out.fill(0);
                self.pread(pno * PAGE_SIZE as u64, out)?;
            }
        }
        Ok(())
    }

    fn read_run(&mut self, start: PageNo, out: &mut [Page]) -> Result<(), (usize, StorageError)> {
        // Every page is charged through the tracker as the page-at-a-time
        // loop would; only the transfer is shared.
        for pno in start..start + out.len() as u64 {
            self.charge_read(pno);
        }
        let mut buf = std::mem::take(&mut self.run_buf);
        buf.clear();
        buf.resize(out.len() * PAGE_SIZE, 0);
        let read = self.pread(start * PAGE_SIZE as u64, &mut buf);
        if read.is_ok() {
            for ((pno, bytes), page) in (start..).zip(buf.chunks_exact(PAGE_SIZE)).zip(out) {
                let bytes = self.staged_page(pno).unwrap_or(bytes);
                page.as_mut_slice().copy_from_slice(bytes);
            }
        }
        self.run_buf = buf;
        read.map_err(|e| (0, e))
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        let kind = if self.tracker.classify(pno) {
            OpKind::SeqWrite
        } else {
            OpKind::RandWrite
        };
        self.stats.charge(kind, &self.model, &self.clock);
        match self.staged.binary_search(&pno) {
            Ok(at) => {
                self.staged_bytes[at * PAGE_SIZE..][..PAGE_SIZE].copy_from_slice(page.as_slice())
            }
            Err(at) => {
                // Appended, then moved down to its place — no move at all
                // for the log's ascending writes.
                self.staged.insert(at, pno);
                self.staged_bytes.extend_from_slice(page.as_slice());
                self.staged_bytes[at * PAGE_SIZE..].rotate_right(PAGE_SIZE);
            }
        }
        self.pages = self.pages.max(pno + 1);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.stats.charge(OpKind::Force, &self.model, &self.clock);
        let wrote = !self.staged.is_empty();
        self.flush_staged()?;
        if wrote {
            self.file.sync_all()?;
            self.obs.inc(Count::StableFileFsyncs);
        }
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats.clone()
    }

    fn invalidate_volatile(&mut self) {
        // A crash loses whatever was staged but never synced — drop it and
        // fall back to the page count of the file alone, exactly what a real
        // power cut leaves behind.
        self.staged.clear();
        self.staged_bytes.clear();
        self.pages = self.file_len / PAGE_SIZE as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("argus-filestore-{}-{}", std::process::id(), name));
        p
    }

    fn open(path: &Path) -> DurableFileStore {
        DurableFileStore::open(path, SimClock::new(), CostModel::fast()).unwrap()
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let page = Page::from_bytes(b"persistent");
        {
            let mut s = open(&path);
            s.write_page(3, &page).unwrap();
            s.sync().unwrap();
        }
        {
            let mut s = open(&path);
            assert_eq!(s.page_count(), 4);
            assert_eq!(s.read_page(3).unwrap(), page);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let path = temp_path("zero");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        assert_eq!(s.read_page(42).unwrap(), Page::zeroed());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn staged_writes_read_back_before_sync() {
        let path = temp_path("staged");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        let page = Page::from_bytes(b"staged");
        s.write_page(7, &page).unwrap();
        assert_eq!(s.read_page(7).unwrap(), page);
        assert_eq!(s.page_count(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsynced_writes_are_lost_on_crash() {
        // Regression for the durability contract: a write that was never
        // forced must NOT survive `invalidate_volatile` (the power cut every
        // log open/reopen simulates). The old demo store wrote through
        // eagerly, silently making unforced data look durable.
        let path = temp_path("volatile");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        s.write_page(0, &Page::from_bytes(b"forced")).unwrap();
        s.sync().unwrap();
        s.write_page(1, &Page::from_bytes(b"unforced")).unwrap();
        s.invalidate_volatile();
        assert_eq!(s.read_page(1).unwrap(), Page::zeroed());
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.read_page(0).unwrap(), Page::from_bytes(b"forced"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn force_issues_a_real_fsync_and_creation_syncs_the_directory() {
        // Regression for the durability bug: forces used to be charged to
        // the simulated model only. Now each sync with dirty data issues an
        // fsync and file creation fsyncs the parent directory, both visible
        // through the stable.file.fsyncs counter.
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let path = temp_path("fsync-counter");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        let after_create = reg.counter("stable.file.fsyncs").get();
        assert_eq!(after_create, 1, "file creation must fsync the directory");
        s.write_page(0, &Page::from_bytes(b"a")).unwrap();
        s.write_page(1, &Page::from_bytes(b"b")).unwrap();
        s.sync().unwrap();
        assert_eq!(reg.counter("stable.file.fsyncs").get(), after_create + 1);
        assert_eq!(
            reg.counter("stable.file.bytes_written").get(),
            2 * PAGE_SIZE as u64
        );
        // A sync with nothing new to flush is free.
        s.sync().unwrap();
        assert_eq!(reg.counter("stable.file.fsyncs").get(), after_create + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_combining_coalesces_contiguous_runs() {
        // Eight staged pages, two contiguous runs -> two pwrites, one fsync.
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let path = temp_path("combine");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        for pno in [0u64, 1, 2, 3, 10, 11, 12, 13] {
            s.write_page(pno, &Page::from_bytes(&[pno as u8])).unwrap();
        }
        let fsyncs_before = reg.counter("stable.file.fsyncs").get();
        s.sync().unwrap();
        assert_eq!(reg.counter("stable.file.pwrites").get(), 2);
        assert_eq!(reg.counter("stable.file.fsyncs").get(), fsyncs_before + 1);
        assert_eq!(
            reg.counter("stable.file.bytes_written").get(),
            8 * PAGE_SIZE as u64
        );
        for pno in [0u64, 1, 2, 3, 10, 11, 12, 13] {
            assert_eq!(s.read_page(pno).unwrap(), Page::from_bytes(&[pno as u8]));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_page_rewritten_before_sync_keeps_one_slot_and_its_last_bytes() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let path = temp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        s.write_page(4, &Page::from_bytes(b"first")).unwrap();
        s.write_page(5, &Page::from_bytes(b"next")).unwrap();
        s.write_page(4, &Page::from_bytes(b"second")).unwrap();
        assert_eq!(s.read_page(4).unwrap(), Page::from_bytes(b"second"));
        s.sync().unwrap();
        assert_eq!(
            reg.counter("stable.file.bytes_written").get(),
            2 * PAGE_SIZE as u64
        );
        drop(s);
        let mut s = open(&path);
        assert_eq!(s.read_page(4).unwrap(), Page::from_bytes(b"second"));
        assert_eq!(s.read_page(5).unwrap(), Page::from_bytes(b"next"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pages_staged_in_any_order_flush_as_ascending_runs() {
        // One `pwrite` per run, 3..=5 and 9..=10, whatever the order the
        // pages arrived in, and one fsync for both.
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let path = temp_path("runs");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        let fsyncs_before = reg.counter("stable.file.fsyncs").get();
        for pno in [10u64, 3, 9, 5, 4] {
            s.write_page(pno, &Page::from_bytes(&[pno as u8])).unwrap();
            assert_eq!(s.read_page(pno).unwrap(), Page::from_bytes(&[pno as u8]));
        }
        s.sync().unwrap();
        assert_eq!(reg.counter("stable.file.pwrites").get(), 2);
        assert_eq!(reg.counter("stable.file.fsyncs").get(), fsyncs_before + 1);
        assert_eq!(
            reg.counter("stable.file.bytes_written").get(),
            5 * PAGE_SIZE as u64
        );
        drop(s);
        let mut s = open(&path);
        for pno in 0..11u64 {
            let want = match pno {
                3..=5 | 9 | 10 => Page::from_bytes(&[pno as u8]),
                _ => Page::zeroed(),
            };
            assert_eq!(s.read_page(pno).unwrap(), want, "page {pno}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_crash_forgets_the_staged_run() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let path = temp_path("forgets");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        s.write_page(0, &Page::from_bytes(b"lost")).unwrap();
        s.write_page(1, &Page::from_bytes(b"lost too")).unwrap();
        s.invalidate_volatile();
        // What is staged next starts a run of its own: the forgotten pages
        // are neither read back nor written with it.
        s.write_page(1, &Page::from_bytes(b"kept")).unwrap();
        assert_eq!(s.read_page(0).unwrap(), Page::zeroed());
        s.sync().unwrap();
        assert_eq!(
            reg.counter("stable.file.bytes_written").get(),
            PAGE_SIZE as u64
        );
        assert_eq!(s.read_page(0).unwrap(), Page::zeroed());
        assert_eq!(s.read_page(1).unwrap(), Page::from_bytes(b"kept"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_run_is_one_pread_and_charges_every_page() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let path = temp_path("read-run");
        let _ = std::fs::remove_file(&path);
        let mut s = open(&path);
        for pno in 0..12u64 {
            s.write_page(pno, &Page::from_bytes(&[pno as u8])).unwrap();
        }
        s.sync().unwrap();
        // Page 5 is rewritten but not yet synced, and pages 12..14 exist
        // only as a staged page past the end of the file.
        s.write_page(5, &Page::from_bytes(b"staged")).unwrap();
        s.write_page(13, &Page::from_bytes(b"beyond")).unwrap();

        let before = s.stats().snapshot();
        let mut run = vec![Page::from_bytes(b"stale"); 9];
        s.read_run(2, &mut run).unwrap();
        assert_eq!(reg.counter("stable.file.preads").get(), 1);
        assert_eq!(
            reg.counter("stable.file.bytes_read").get(),
            9 * PAGE_SIZE as u64
        );
        assert_eq!(s.stats().snapshot().since(&before).reads(), 9);
        let want: Vec<Page> = (2..11u64)
            .map(|pno| match pno {
                5 => Page::from_bytes(b"staged"),
                _ => Page::from_bytes(&[pno as u8]),
            })
            .collect();
        assert_eq!(run, want);

        // A run crossing the end of the file: the file's pages in one
        // transfer, zeros and the staged page beyond it.
        run.truncate(5);
        s.read_run(10, &mut run).unwrap();
        assert_eq!(reg.counter("stable.file.preads").get(), 2);
        assert_eq!(
            reg.counter("stable.file.bytes_read").get(),
            11 * PAGE_SIZE as u64
        );
        assert_eq!(
            run,
            vec![
                Page::from_bytes(&[10]),
                Page::from_bytes(&[11]),
                Page::zeroed(),
                Page::from_bytes(b"beyond"),
                Page::zeroed(),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }
}
