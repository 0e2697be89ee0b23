//! A transparent LRU page cache with sequential read-ahead.
//!
//! The thesis charges recovery for every page it touches, and the backward
//! chain walk touches pages newest-to-oldest — the worst case for a device
//! that only rewards forward scans. [`PageCache`] sits between a consumer
//! (the stable log's [`crate::ByteDevice`]) and any [`PageStore`]
//! (`MemStore`, `MirroredDisk`, `DurableFileStore`) and
//!
//! * serves repeated reads from an LRU map without touching the device,
//! * detects sequential runs in **either direction** and prefetches the next
//!   window with ascending (sequential-rate) device reads, fetching each run
//!   of missing pages with one [`PageStore::read_run`], and
//! * stays write-through, so the cache never diverges from the media and the
//!   layers below keep their crash/decay semantics unchanged.
//!
//! The cache is volatile: [`PageStore::invalidate_volatile`] empties it, and
//! the stable log calls that on reopen, so a simulated crash never leaks
//! cached pages into recovery.

use crate::{Page, PageNo, PageStore, StorageResult};
use argus_obs::{Count, Registry};
use argus_sim::{DeviceStats, IntMap};
use argus_trace::Kind;
use std::collections::VecDeque;

/// Tuning knobs for a [`PageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached pages. `0` disables the cache entirely —
    /// every call passes straight through to the inner store.
    pub capacity: usize,
    /// Number of pages to prefetch past a miss that continues a sequential
    /// run (in the run's direction). `0` disables read-ahead.
    pub readahead: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 128,
            readahead: 8,
        }
    }
}

impl CacheConfig {
    /// A configuration that turns the layer into a pure passthrough.
    pub fn disabled() -> Self {
        Self {
            capacity: 0,
            readahead: 0,
        }
    }

    /// Whether the cache holds pages at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

#[derive(Debug)]
struct Slot {
    stamp: u64,
    page: Page,
}

/// An LRU page cache with bidirectional sequential read-ahead over any
/// [`PageStore`]. See the module docs for the contract.
#[derive(Debug)]
pub struct PageCache<S> {
    inner: S,
    cfg: CacheConfig,
    slots: IntMap<PageNo, Slot>,
    /// Every stamp ever handed out, oldest first. Stamps are unique, so an
    /// entry is live exactly when its page's slot still carries that stamp;
    /// re-stamped, evicted and invalidated pages leave dead entries behind,
    /// skipped at eviction and swept when they outnumber the live ones.
    lru: VecDeque<(u64, PageNo)>,
    /// Logical access clock for LRU stamps.
    tick: u64,
    /// The previous read that went to the device; two nearby misses in the
    /// same direction mean a sequential run worth prefetching.
    last_miss: Option<PageNo>,
    /// Scratch for the pages of one read-ahead run.
    run: Vec<Page>,
    /// Pages that left the cache, kept to carry the next ones in: a cache
    /// that has reached its size allocates nothing per page it turns over.
    /// Every insert takes one and gives at most one back.
    spare: Vec<Page>,
    /// The registry and tracer current when the cache was built.
    obs: Registry,
    tracer: argus_trace::Tracer,
}

impl<S: PageStore> PageCache<S> {
    /// Wraps `inner` with a cache configured by `cfg`.
    pub fn new(inner: S, cfg: CacheConfig) -> Self {
        Self {
            inner,
            cfg,
            slots: IntMap::default(),
            lru: VecDeque::new(),
            tick: 0,
            last_miss: None,
            run: Vec::new(),
            spare: Vec::new(),
            obs: argus_obs::current(),
            tracer: argus_trace::current(),
        }
    }

    /// The start of a device span: the clock reading when device detail is
    /// on (one atomic load to find out), `None` when it is off.
    fn device_t0(&self) -> Option<u64> {
        self.tracer.device_detail().then(|| self.tracer.now())
    }

    /// Closes a device span opened by [`PageCache::device_t0`].
    fn device_span(&self, kind: Kind, t0: u64, args: &[u64]) {
        self.tracer
            .complete(kind, argus_trace::STORE_LANE, None, t0, args);
    }

    /// The inner store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the cache, returning the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Sweeps dead entries out of the LRU queue once they outnumber the live
    /// ones, so the queue stays O(capacity) and a use amortised O(1). Called
    /// before every push.
    fn sweep_lru(&mut self) {
        if self.lru.len() >= 2 * self.cfg.capacity.max(16) {
            let slots = &self.slots;
            self.lru
                .retain(|(stamp, pno)| slots.get(pno).is_some_and(|s| s.stamp == *stamp));
        }
    }

    /// Removes the least recently used page: the oldest live stamp.
    fn evict(&mut self) {
        while let Some((stamp, pno)) = self.lru.pop_front() {
            if self.slots.get(&pno).is_some_and(|s| s.stamp == stamp) {
                self.spare
                    .extend(self.slots.remove(&pno).map(|slot| slot.page));
                return;
            }
        }
    }

    /// A page to be overwritten with one coming into the cache.
    fn blank(&mut self) -> Page {
        self.spare.pop().unwrap_or_default()
    }

    fn insert(&mut self, pno: PageNo, page: Page) {
        if self.slots.len() >= self.cfg.capacity && !self.slots.contains_key(&pno) {
            self.evict();
        }
        self.sweep_lru();
        let stamp = self.tick;
        self.lru.push_back((stamp, pno));
        let replaced = self.slots.insert(pno, Slot { stamp, page });
        self.spare.extend(replaced.map(|slot| slot.page));
    }

    /// If the miss at `pno` continues a run (the gap to the previous miss is
    /// within the read-ahead window in either direction — prefetching itself
    /// makes consecutive demand misses land `readahead + 1` apart), reads the
    /// next window into the cache. The window is always read in ascending
    /// page order so the device charges it at the sequential rate, even when
    /// the consumer (recovery's backward chain walk) is moving down.
    fn maybe_readahead(&mut self, pno: PageNo) {
        let k = self.cfg.readahead as u64;
        let Some(prev) = self.last_miss else { return };
        if k == 0 {
            return;
        }
        let limit = self.inner.page_count();
        let (start, end) = if pno > prev && pno - prev <= k + 1 {
            // Ascending run: prefetch the pages just above.
            (pno + 1, (pno + 1 + k).min(limit))
        } else if pno < prev && prev - pno <= k + 1 {
            // Descending run (the backward chain walk): prefetch just below.
            (pno.saturating_sub(k), pno)
        } else {
            return;
        };
        let t0 = self.device_t0();
        let mut fetched = 0u64;
        let mut run = std::mem::take(&mut self.run);
        let mut p = start;
        while p < end {
            if self.slots.contains_key(&p) {
                p += 1;
                continue;
            }
            // One device transfer per maximal run of missing pages. Where
            // the run ends is re-examined after its pages are inserted: an
            // insert may evict a page further up the window, which is then
            // fetched in its turn — page for page what a page-at-a-time
            // loop would read.
            let mut n = 1;
            while p + n < end && !self.slots.contains_key(&(p + n)) {
                n += 1;
            }
            run.extend((0..n).map(|_| self.blank()));
            // Speculative work: a read error (e.g. an injected crash) must
            // not fail the demand read that already succeeded.
            let read = self.inner.read_run(p, &mut run);
            let good = match &read {
                Ok(()) => run.len(),
                Err((good, _)) => *good,
            };
            for page in run.drain(..good) {
                self.tick += 1;
                self.insert(p, page);
                self.obs.inc(Count::StableCacheReadahead);
                fetched += 1;
                p += 1;
            }
            if read.is_err() {
                self.spare.append(&mut run);
                break;
            }
        }
        self.run = run;
        if let Some(t0) = t0 {
            if fetched > 0 {
                self.device_span(Kind::Readahead, t0, &[fetched, start]);
            }
        }
    }
}

impl<S: PageStore> PageStore for PageCache<S> {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        if !self.cfg.is_enabled() {
            return self.inner.read_page(pno);
        }
        let mut page = Page::zeroed();
        self.read_page_into(pno, page.as_mut_slice())?;
        Ok(page)
    }

    fn read_page_into(&mut self, pno: PageNo, out: &mut [u8]) -> StorageResult<()> {
        if !self.cfg.is_enabled() {
            return self.inner.read_page_into(pno, out);
        }
        self.tick += 1;
        self.sweep_lru();
        if let Some(slot) = self.slots.get_mut(&pno) {
            slot.stamp = self.tick;
            self.lru.push_back((self.tick, pno));
            self.obs.inc(Count::StableCacheHit);
            out.copy_from_slice(slot.page.as_slice());
            return Ok(());
        }
        self.obs.inc(Count::StableCacheMiss);
        let t0 = self.device_t0();
        let mut page = self.blank();
        if let Err(e) = self.inner.read_page_into(pno, page.as_mut_slice()) {
            self.spare.push(page);
            return Err(e);
        }
        if let Some(t0) = t0 {
            self.device_span(Kind::PageRead, t0, &[pno]);
        }
        // Copied out before the page goes into its slot: the read-ahead
        // below may evict it again from a cache smaller than its window.
        out.copy_from_slice(page.as_slice());
        self.insert(pno, page);
        self.maybe_readahead(pno);
        self.last_miss = Some(pno);
        Ok(())
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        // Write-through: media first, cache only after the media accepted
        // it, so the cache can never claim a write the device lost.
        let t0 = self.device_t0();
        self.inner.write_page(pno, page)?;
        if let Some(t0) = t0 {
            self.device_span(Kind::PageWrite, t0, &[pno]);
        }
        if self.cfg.is_enabled() {
            self.tick += 1;
            let mut copy = self.blank();
            copy.as_mut_slice().copy_from_slice(page.as_slice());
            self.insert(pno, copy);
        }
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.inner.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn invalidate_volatile(&mut self) {
        self.slots.clear();
        self.lru.clear();
        self.last_miss = None;
        self.inner.invalidate_volatile();
    }

    fn decay_page(&mut self, pno: PageNo) -> bool {
        // Decay happens on the media; drop any cached copy so the next read
        // actually visits (and repairs) the decayed page.
        self.slots.remove(&pno);
        self.inner.decay_page(pno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, MemStore};
    use argus_sim::{CostModel, SimClock};

    fn cached(cfg: CacheConfig) -> PageCache<MemStore> {
        PageCache::new(MemStore::new(SimClock::new(), CostModel::fast()), cfg)
    }

    fn small(n: u8) -> Page {
        Page::from_bytes(&[n])
    }

    #[test]
    fn repeated_reads_hit_without_touching_the_device() {
        let mut c = cached(CacheConfig {
            capacity: 4,
            readahead: 0,
        });
        c.write_page(3, &small(3)).unwrap();
        let before = c.stats().snapshot();
        // Write-through populated the cache: the read is free.
        assert_eq!(c.read_page(3).unwrap(), small(3));
        assert_eq!(c.read_page(3).unwrap(), small(3));
        assert_eq!(c.stats().snapshot().since(&before).reads(), 0);
    }

    #[test]
    fn descending_walk_triggers_ascending_prefetch() {
        let mut c = cached(CacheConfig {
            capacity: 32,
            readahead: 4,
        });
        for pno in 0..16 {
            c.write_page(pno, &small(pno as u8)).unwrap();
        }
        c.invalidate_volatile(); // start cold, like recovery does
        let before = c.stats().snapshot();
        for pno in (0..16).rev() {
            assert_eq!(c.read_page(pno).unwrap(), small(pno as u8));
        }
        let delta = c.stats().snapshot().since(&before);
        // Every page was read from the device exactly once (demand misses
        // plus prefetches), and most at the sequential rate.
        assert_eq!(delta.reads(), 16);
        assert!(
            delta.seq_reads > delta.rand_reads,
            "prefetch should convert the backward walk to sequential reads: {delta}"
        );
    }

    #[test]
    fn ascending_scan_prefetches_ahead() {
        let mut c = cached(CacheConfig {
            capacity: 32,
            readahead: 4,
        });
        for pno in 0..12 {
            c.write_page(pno, &small(pno as u8)).unwrap();
        }
        c.invalidate_volatile();
        for pno in 0..12 {
            assert_eq!(c.read_page(pno).unwrap(), small(pno as u8));
        }
        assert_eq!(c.stats().snapshot().reads(), 12);
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let mut c = cached(CacheConfig {
            capacity: 2,
            readahead: 0,
        });
        c.write_page(0, &small(0)).unwrap();
        c.write_page(1, &small(1)).unwrap();
        c.read_page(0).unwrap(); // page 1 is now coldest
        c.write_page(2, &small(2)).unwrap(); // evicts 1
        let before = c.stats().snapshot();
        c.read_page(0).unwrap();
        c.read_page(2).unwrap();
        assert_eq!(c.stats().snapshot().since(&before).reads(), 0);
        c.read_page(1).unwrap();
        assert_eq!(c.stats().snapshot().since(&before).reads(), 1);
    }

    #[test]
    fn capacity_zero_is_a_pure_passthrough() {
        let mut c = cached(CacheConfig::disabled());
        c.write_page(0, &small(7)).unwrap();
        let before = c.stats().snapshot();
        c.read_page(0).unwrap();
        c.read_page(0).unwrap();
        assert_eq!(c.stats().snapshot().since(&before).reads(), 2);
    }

    #[test]
    fn invalidate_clears_cached_pages() {
        let mut c = cached(CacheConfig {
            capacity: 8,
            readahead: 0,
        });
        c.write_page(0, &small(9)).unwrap();
        c.invalidate_volatile();
        let before = c.stats().snapshot();
        assert_eq!(c.read_page(0).unwrap(), small(9));
        assert_eq!(c.stats().snapshot().since(&before).reads(), 1);
    }

    #[test]
    fn prefetch_error_does_not_fail_the_demand_read() {
        let plan = FaultPlan::new();
        let mut c = PageCache::new(
            MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast()),
            CacheConfig {
                capacity: 8,
                readahead: 4,
            },
        );
        for pno in 0..8 {
            c.write_page(pno, &small(pno as u8)).unwrap();
        }
        c.invalidate_volatile();
        // Walk down to establish a run, then crash the device: the demand
        // read fails cleanly, and no half-prefetched state corrupts later
        // reads after the heal.
        c.read_page(7).unwrap();
        plan.arm_after_writes(0);
        let _ = c.write_page(8, &small(8));
        assert!(c.read_page(3).is_err());
        plan.heal();
        c.invalidate_volatile();
        for pno in 0..8 {
            assert_eq!(c.read_page(pno).unwrap(), small(pno as u8));
        }
    }
}
