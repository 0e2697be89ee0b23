//! A byte-addressed extent view over a page store.

use crate::{Page, PageNo, PageStore, StorageResult, PAGE_SIZE};

/// The least room the extent's buffer has: two pages, enough for a record
/// of the usual size wherever it lies. A longer request grows the buffer to
/// fit for as long as the extent adjoins it. More room would buy only fewer
/// re-seatings — a copy of the pages last asked for — which no measurement
/// could tell from none, while every log of a world holds one of these.
const WINDOW: usize = 2 * PAGE_SIZE;

/// Byte-granular reads and writes over any [`PageStore`].
///
/// The stable log stores variable-length records; this adapter handles the
/// page splitting. It keeps one *extent* — a run of adjacent pages as one
/// run of bytes — and lends slices of it ([`ByteDevice::lend`]): a reader
/// that moves through the device in either direction has every page fetched
/// once, in the order it first asks for it, and sees a record that straddles
/// pages as one slice. A request that adjoins or overlaps the extent extends
/// it, fetching only the pages it lacks, in ascending order; one that lies
/// apart from it replaces it. What the extent holds outside the range last
/// asked for it keeps only while the window has room.
///
/// Writes go through to the store and into the extent, so an append finds
/// the partially filled last page there instead of re-reading it. The extent
/// is volatile and is simply dropped (with the device) on a crash.
#[derive(Debug)]
pub struct ByteDevice<S: PageStore> {
    store: S,
    /// The extent: pages `first..` of the store are `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    first: PageNo,
    /// Where a write assembles the page it hands to the store.
    out: Page,
}

impl<S: PageStore> ByteDevice<S> {
    /// Wraps a page store.
    pub fn new(store: S) -> Self {
        Self {
            store,
            buf: Vec::new(),
            start: 0,
            end: 0,
            first: 0,
            out: Page::zeroed(),
        }
    }

    /// Returns the underlying store.
    pub fn into_inner(self) -> S {
        self.store
    }

    /// Borrows the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Borrows the underlying store mutably (drops the extent, which may be
    /// stale after direct page access).
    pub fn store_mut(&mut self) -> &mut S {
        self.end = self.start;
        &mut self.store
    }

    /// One past the last page the extent holds.
    fn end_page(&self) -> PageNo {
        self.first + ((self.end - self.start) / PAGE_SIZE) as u64
    }

    /// Moves the extent inside its buffer so that the pages `[pa, pb)` fit
    /// around it — against the top of the buffer for a reader moving down,
    /// against the bottom for one moving up — keeping only those of its
    /// pages that lie in that range.
    fn reseat(&mut self, pa: PageNo, pb: PageNo, top: bool) {
        let (ka, kb) = (self.first.max(pa), self.end_page().min(pb));
        let (from, kept) = if ka < kb {
            (self.at(ka), (kb - ka) as usize * PAGE_SIZE)
        } else {
            (0, 0)
        };
        let need = (pb - pa) as usize * PAGE_SIZE;
        let want = need.max(WINDOW);
        if kept == 0 && self.buf.len() > want {
            // An outsized record has been and gone.
            self.buf.truncate(want);
            self.buf.shrink_to_fit();
        }
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        let base = if top { self.buf.len() - need } else { 0 };
        // With nothing kept the extent is empty at `pa`, where the range
        // will be filled from.
        let first = if kept == 0 { pa } else { ka };
        let to = base + (first - pa) as usize * PAGE_SIZE;
        self.buf.copy_within(from..from + kept, to);
        (self.start, self.end, self.first) = (to, to + kept, first);
    }

    /// Empties the extent and seats it for the pages `[pa, pb)` — at the
    /// top, so that a reader moving down has the window's room below it.
    fn start_over(&mut self, pa: PageNo, pb: PageNo) {
        self.end = self.start;
        self.reseat(pa, pb, true);
    }

    /// Makes the pages `[pa, pb)` part of the extent, reading the ones it
    /// lacks in ascending order. A failed read leaves the extent holding
    /// only whole, adjacent pages, as ever.
    fn hold(&mut self, pa: PageNo, pb: PageNo) -> StorageResult<()> {
        if pb < self.first || pa > self.end_page() {
            // Nothing held adjoins the range.
            self.start_over(pa, pb);
        }
        if pa < self.first && self.start < (self.first - pa) as usize * PAGE_SIZE {
            self.reseat(pa, pb, true);
        }
        if pa < self.first {
            let lo = self.start - (self.first - pa) as usize * PAGE_SIZE;
            let below = self.buf[lo..self.start].chunks_exact_mut(PAGE_SIZE);
            for (pno, into) in (pa..self.first).zip(below) {
                self.store.read_page_into(pno, into)?;
            }
            (self.start, self.first) = (lo, pa);
        }
        while self.end_page() < pb {
            if self.buf.len() - self.end < PAGE_SIZE {
                self.reseat(pa, pb, false);
            }
            let pno = self.end_page();
            self.store
                .read_page_into(pno, &mut self.buf[self.end..self.end + PAGE_SIZE])?;
            self.end += PAGE_SIZE;
        }
        Ok(())
    }

    /// Where in `buf` the held page `pno` starts.
    fn at(&self, pno: PageNo) -> usize {
        self.start + (pno - self.first) as usize * PAGE_SIZE
    }

    /// Lends the bytes `[lo, hi)` of the device out of the extent, reading
    /// first whichever of their pages it does not hold. The slice is good
    /// until the next call; what else the extent held may be gone after it.
    pub fn lend(&mut self, lo: u64, hi: u64) -> StorageResult<&[u8]> {
        if lo == hi {
            return Ok(&[]);
        }
        let page = PAGE_SIZE as u64;
        self.hold(lo / page, (hi - 1) / page + 1)?;
        let at = self.at(lo / page) + (lo % page) as usize;
        Ok(&self.buf[at..at + (hi - lo) as usize])
    }

    /// Reads `buf.len()` bytes starting at byte `offset`.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        buf.copy_from_slice(self.lend(offset, offset + buf.len() as u64)?);
        Ok(())
    }

    /// Writes `data` starting at byte `offset`, read-modify-writing partial
    /// pages at the extent's edges.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> StorageResult<()> {
        let mut pos = 0usize;
        while pos < data.len() {
            let byte = offset + pos as u64;
            let pno = byte / PAGE_SIZE as u64;
            let in_page = (byte % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - in_page).min(data.len() - pos);
            // A full-page overwrite needs no read.
            if take < PAGE_SIZE {
                self.hold(pno, pno + 1)?;
                let at = self.at(pno);
                self.out
                    .as_mut_slice()
                    .copy_from_slice(&self.buf[at..at + PAGE_SIZE]);
            }
            self.out.as_mut_slice()[in_page..in_page + take]
                .copy_from_slice(&data[pos..pos + take]);
            self.store.write_page(pno, &self.out)?;
            if pno < self.first || pno >= self.end_page() {
                // Not a page the extent holds: the page just written is the
                // one the next append wants, so it becomes the extent.
                self.start_over(pno, pno + 1);
                self.end += PAGE_SIZE;
            }
            let at = self.at(pno);
            self.buf[at..at + PAGE_SIZE].copy_from_slice(self.out.as_slice());
            pos += take;
        }
        Ok(())
    }

    /// Write barrier delegated to the store.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.store.sync()
    }

    /// Device length in bytes (page-granular).
    pub fn len_bytes(&self) -> u64 {
        self.store.page_count() * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, MemStore};
    use argus_sim::{CostModel, SimClock};

    fn dev() -> ByteDevice<MemStore> {
        ByteDevice::new(MemStore::new(SimClock::new(), CostModel::fast()))
    }

    #[test]
    fn roundtrip_within_one_page() {
        let mut d = dev();
        d.write_at(10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        d.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut d = dev();
        let data: Vec<u8> = (0..1500).map(|i| (i % 251) as u8).collect();
        let offset = PAGE_SIZE as u64 - 100;
        d.write_at(offset, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        d.read_at(offset, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn overlapping_writes_compose() {
        let mut d = dev();
        d.write_at(0, b"aaaaaaaaaa").unwrap();
        d.write_at(5, b"bbbbb").unwrap();
        let mut buf = [0u8; 10];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"aaaaabbbbb");
    }

    #[test]
    fn appends_reuse_the_tail_page_cache() {
        let mut d = dev();
        d.write_at(0, b"0123").unwrap();
        let before = d.store().stats().snapshot();
        d.write_at(4, b"4567").unwrap();
        let delta = d.store().stats().snapshot().since(&before);
        // Tail page is cached: the second append performs no read.
        assert_eq!(delta.reads(), 0);
        let mut buf = [0u8; 8];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"01234567");
    }

    #[test]
    fn full_page_overwrite_skips_read() {
        let mut d = dev();
        let page_of_x = vec![b'x'; PAGE_SIZE];
        let before = d.store().stats().snapshot();
        d.write_at(PAGE_SIZE as u64 * 3, &page_of_x).unwrap();
        let delta = d.store().stats().snapshot().since(&before);
        assert_eq!(delta.reads(), 0);
        assert_eq!(delta.writes(), 1);
    }

    /// A device of `pages` pages, page `p` filled with the byte `p`.
    fn numbered(pages: u64, plan: Option<FaultPlan>) -> ByteDevice<MemStore> {
        let (clock, model) = (SimClock::new(), CostModel::fast());
        let mut store = match plan {
            Some(plan) => MemStore::with_fault_plan(plan, clock, model),
            None => MemStore::new(clock, model),
        };
        for pno in 0..pages {
            store
                .write_page(pno, &Page::from_bytes(&[pno as u8; PAGE_SIZE]))
                .unwrap();
        }
        ByteDevice::new(store)
    }

    fn reads(d: &ByteDevice<MemStore>) -> u64 {
        d.store().stats().snapshot().reads()
    }

    #[test]
    fn a_loan_spans_pages_as_one_slice() {
        let mut d = numbered(8, None);
        let page = PAGE_SIZE as u64;
        let lent = d.lend(3 * page - 2, 5 * page + 1).unwrap();
        assert_eq!(lent.len(), 2 * PAGE_SIZE + 3);
        assert_eq!((lent[0], lent[1], lent[2]), (2, 2, 3));
        assert_eq!((lent[PAGE_SIZE + 2], lent[2 * PAGE_SIZE + 2]), (4, 5));
        assert_eq!(reads(&d), 4);
        assert!(d.lend(100, 100).unwrap().is_empty());
        assert_eq!(reads(&d), 4, "an empty loan touches nothing");
    }

    #[test]
    fn a_reader_moving_either_way_fetches_every_page_once() {
        let mut d = numbered(40, None);
        let page = PAGE_SIZE as u64;
        // Down, in overlapping steps of a page and a half.
        let mut hi = 40 * page;
        while hi > 0 {
            let lo = hi.saturating_sub(page + page / 2);
            let lent = d.lend(lo, hi).unwrap();
            assert_eq!(lent[0], (lo / page) as u8);
            assert_eq!(lent[lent.len() - 1], ((hi - 1) / page) as u8);
            hi = lo + 100.min(lo);
        }
        assert_eq!(reads(&d), 40);
        // And back up from the bottom, where the extent now sits.
        for lo in (0..38 * page).step_by(300) {
            let lent = d.lend(lo, lo + 700).unwrap();
            assert_eq!(lent[699], ((lo + 699) / page) as u8);
        }
        assert!(reads(&d) <= 40 + 39, "no page twice on the way up either");
    }

    #[test]
    fn a_request_apart_from_the_extent_replaces_it() {
        let mut d = numbered(32, None);
        let page = PAGE_SIZE as u64;
        d.lend(20 * page, 21 * page).unwrap();
        d.lend(5 * page, 6 * page).unwrap();
        assert_eq!(reads(&d), 2);
        d.lend(20 * page, 21 * page).unwrap();
        assert_eq!(reads(&d), 3, "page 20 went when the extent moved away");
        // An adjoining request extends it.
        d.lend(19 * page, 20 * page).unwrap();
        d.lend(19 * page + 1, 21 * page - 1).unwrap();
        assert_eq!(reads(&d), 4);
    }

    #[test]
    fn an_outsized_loan_is_served_and_its_room_given_back() {
        let mut d = numbered(64, None);
        let page = PAGE_SIZE as u64;
        let lent = d.lend(10 * page + 7, 50 * page + 9).unwrap();
        assert_eq!((lent[0], lent[lent.len() - 1]), (10, 50));
        assert!(d.buf.len() >= 41 * PAGE_SIZE);
        d.lend(2 * page, 3 * page).unwrap();
        assert_eq!(d.buf.len(), WINDOW);
        assert!(d.buf.capacity() < 41 * PAGE_SIZE);
    }

    #[test]
    fn a_failed_read_leaves_the_extent_whole() {
        let plan = FaultPlan::new();
        let mut d = numbered(16, Some(plan.clone()));
        let page = PAGE_SIZE as u64;
        d.lend(8 * page, 9 * page).unwrap();
        // The device dies one page into each extension.
        for (lo, hi) in [(5 * page, 9 * page), (8 * page, 12 * page)] {
            plan.arm_after_ops(1);
            assert!(d.lend(lo, hi).is_err());
            plan.heal();
            plan.disarm();
            for pno in 4..13u64 {
                let lent = d.lend(pno * page, (pno + 1) * page).unwrap();
                assert!(lent.iter().all(|&b| b == pno as u8), "page {pno}");
            }
            d.lend(8 * page, 9 * page).unwrap();
        }
    }

    #[test]
    fn writes_land_in_the_extent_they_touch() {
        let mut d = numbered(8, None);
        let page = PAGE_SIZE as u64;
        d.lend(2 * page, 5 * page).unwrap();
        let before = reads(&d);
        d.write_at(3 * page + 10, b"patched").unwrap();
        let lent = d.lend(2 * page, 5 * page).unwrap();
        assert_eq!(&lent[PAGE_SIZE + 10..PAGE_SIZE + 17], b"patched");
        assert_eq!((lent[PAGE_SIZE + 9], lent[PAGE_SIZE + 17]), (3, 3));
        assert_eq!(reads(&d), before, "read-modify-write out of the extent");
        // A write elsewhere moves the extent to the page written.
        d.write_at(7 * page, b"tail").unwrap();
        assert_eq!(reads(&d), before + 1);
        d.write_at(7 * page + 4, b"more").unwrap();
        assert_eq!(d.lend(7 * page, 7 * page + 8).unwrap(), b"tailmore");
        assert_eq!(reads(&d), before + 1);
    }
}
