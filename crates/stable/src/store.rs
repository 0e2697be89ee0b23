//! The page-store interface.

use crate::{Page, PageNo, StorageError, StorageResult};
use argus_sim::DeviceStats;

/// A device of fixed-size pages with atomic single-page writes.
///
/// This is the contract the thesis assumes of stable storage (§1.1): a write
/// either happens completely or not at all, even across a crash. The mirrored
/// implementation ([`crate::MirroredDisk`]) provides it over fallible media;
/// [`crate::MemStore`] and [`crate::DurableFileStore`] provide it trivially.
///
/// Writing past the current end grows the device with zero pages.
pub trait PageStore {
    /// Reads the page at `pno`.
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page>;

    /// Reads the page at `pno` into `out`, which is one page long.
    ///
    /// By contract this is [`PageStore::read_page`] — the same page, the
    /// same simulated charge, the same faults — without an owned [`Page`]
    /// for the caller to take apart, which is exactly what the default
    /// does. A store that holds or fetches the bytes itself overrides it to
    /// copy them straight out.
    fn read_page_into(&mut self, pno: PageNo, out: &mut [u8]) -> StorageResult<()> {
        out.copy_from_slice(self.read_page(pno)?.as_slice());
        Ok(())
    }

    /// Reads the `out.len()` pages starting at `start` into `out`, whose
    /// pages the caller supplies to be overwritten.
    ///
    /// By contract this is one [`PageStore::read_page_into`] per page in
    /// ascending page order — the same pages, the same simulated charges and
    /// sequential/random classification — which is exactly what the default
    /// does. A store that can serve the run with one physical transfer
    /// ([`crate::DurableFileStore`]: one `pread`) overrides it; only wall
    /// time may differ. An error comes with the number of pages read into
    /// `out` before it.
    fn read_run(&mut self, start: PageNo, out: &mut [Page]) -> Result<(), (usize, StorageError)> {
        for (i, page) in out.iter_mut().enumerate() {
            self.read_page_into(start + i as u64, page.as_mut_slice())
                .map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Atomically replaces the page at `pno`.
    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()>;

    /// Number of pages currently on the device.
    fn page_count(&self) -> u64;

    /// Write barrier: when this returns, every prior write is durable.
    fn sync(&mut self) -> StorageResult<()>;

    /// The device's I/O counters.
    fn stats(&self) -> DeviceStats;

    /// Drops any volatile state (e.g. caches) layered over the durable
    /// media. Called on simulated restart so nothing a crash would have
    /// erased survives into recovery; plain media stores have none.
    fn invalidate_volatile(&mut self) {}

    /// Fault-injection hook: spontaneously decays one media copy of `pno`
    /// (the §1.1 media failure), returning `true` if the store models decay.
    /// Stores with redundant media ([`crate::MirroredDisk`]) lose one leg and
    /// must repair it from the twin on the next read; always-good stores
    /// return `false` and the harness knows decay is not being exercised.
    fn decay_page(&mut self, _pno: PageNo) -> bool {
        false
    }
}

/// Classifies an access as sequential or random relative to the previous one.
///
/// Shared by the store implementations for cost accounting: an access to the
/// same or the following page after the last access of the same kind is
/// sequential, anything else pays a seek.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SeqTracker {
    last: Option<PageNo>,
}

impl SeqTracker {
    /// Records an access to `pno` and reports whether it was sequential.
    pub(crate) fn classify(&mut self, pno: PageNo) -> bool {
        let sequential = match self.last {
            Some(prev) => pno == prev || pno == prev + 1,
            None => true,
        };
        self.last = Some(pno);
        sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_sequential() {
        let mut t = SeqTracker::default();
        assert!(t.classify(10));
    }

    #[test]
    fn forward_step_is_sequential() {
        let mut t = SeqTracker::default();
        t.classify(5);
        assert!(t.classify(6));
        assert!(t.classify(6));
        assert!(t.classify(7));
    }

    #[test]
    fn jumps_are_random() {
        let mut t = SeqTracker::default();
        t.classify(5);
        assert!(!t.classify(9));
        assert!(!t.classify(4));
    }
}
