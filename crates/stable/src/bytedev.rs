//! A byte-addressed extent view over a page store.

use crate::{Page, PageNo, PageStore, StorageResult, PAGE_SIZE};

/// Byte-granular reads and writes over any [`PageStore`].
///
/// The stable log stores variable-length records; this adapter handles the
/// page splitting. A one-page cache avoids re-reading the partially filled
/// last page on every append and serves the several small reads a log record
/// costs without copying the page — the cache is volatile and is simply
/// dropped (with the device) on a crash.
#[derive(Debug)]
pub struct ByteDevice<S: PageStore> {
    store: S,
    cache: Option<(PageNo, Page)>,
}

impl<S: PageStore> ByteDevice<S> {
    /// Wraps a page store.
    pub fn new(store: S) -> Self {
        Self { store, cache: None }
    }

    /// Returns the underlying store.
    pub fn into_inner(self) -> S {
        self.store
    }

    /// Borrows the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Borrows the underlying store mutably (drops the cache, which may be
    /// stale after direct page access).
    pub fn store_mut(&mut self) -> &mut S {
        self.cache = None;
        &mut self.store
    }

    /// Lends the page at `pno` out of the one-page cache, reading it from
    /// the store first if it is not the cached one.
    fn load_page(&mut self, pno: PageNo) -> StorageResult<&Page> {
        if !matches!(&self.cache, Some((cached, _)) if *cached == pno) {
            let page = self.store.read_page(pno)?;
            self.cache = Some((pno, page));
        }
        match &self.cache {
            Some((_, page)) => Ok(page),
            None => unreachable!("the cache was filled above"),
        }
    }

    fn store_page(&mut self, pno: PageNo, page: Page) -> StorageResult<()> {
        self.store.write_page(pno, &page)?;
        self.cache = Some((pno, page));
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at byte `offset`.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let byte = offset + pos as u64;
            let pno = byte / PAGE_SIZE as u64;
            let in_page = (byte % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - in_page).min(buf.len() - pos);
            let page = self.load_page(pno)?;
            buf[pos..pos + take].copy_from_slice(&page.as_slice()[in_page..in_page + take]);
            pos += take;
        }
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
            let mut page = if in_page == 0 && take == PAGE_SIZE {
                Page::zeroed() // full-page overwrite: no read needed
            } else {
                self.load_page(pno)?.clone()
            };
            page.as_mut_slice()[in_page..in_page + take].copy_from_slice(&data[pos..pos + take]);
            self.store_page(pno, page)?;
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
    use crate::MemStore;
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
}
