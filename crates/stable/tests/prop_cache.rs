//! Cache-transparency property tests: a [`PageCache`] over a page store is
//! byte-identical to the bare store under randomized interleavings of
//! writes, reads, syncs, and crashes.
//!
//! Bulk-read equivalence: [`PageStore::read_run`] is `n` × `read_page` on
//! every store — pages, `DeviceStats` and `SimClock` — and the cache's run
//! read-ahead and O(1) eviction issue, op for op, the device operations of
//! the page-at-a-time, sweep-for-the-minimum cache they replaced, which is
//! kept below as [`RefCache`], the oracle.
//!
//! Driven by the in-tree deterministic RNG (`argus_sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible and no external
//! property-testing crate is needed.

use argus_sim::{CostModel, DetRng, DeviceStats, SimClock};
use argus_stable::{
    CacheConfig, DurableFileStore, FaultPlan, MemStore, MirroredDisk, Page, PageCache, PageNo,
    PageStore, StorageResult,
};
use std::collections::HashMap;

const PAGES: u64 = 24;

fn fill(rng: &mut DetRng) -> Page {
    let mut body = [0u8; 64];
    for b in body.iter_mut() {
        *b = (rng.next_u64() & 0xFF) as u8;
    }
    Page::from_bytes(&body)
}

/// Random write/read/sync/crash interleavings: every read through the cache
/// returns exactly what the bare store returns, and after each simulated
/// restart (cache invalidated, fault plan healed) the full page images
/// still agree.
#[test]
fn cached_reads_match_uncached_under_random_interleavings() {
    for seed in 0..24u64 {
        let mut rng = DetRng::new(0xCAC4E + seed);
        // The same fault plan arming drives both stores: the cache is
        // write-through, so both inner stores see the identical write
        // sequence and crash at the identical step.
        let plan_ref = FaultPlan::new();
        let plan_cached = FaultPlan::new();
        let mut reference =
            MemStore::with_fault_plan(plan_ref.clone(), SimClock::new(), CostModel::fast());
        let mut cached = PageCache::new(
            MemStore::with_fault_plan(plan_cached.clone(), SimClock::new(), CostModel::fast()),
            CacheConfig {
                capacity: 8,
                readahead: 4,
            },
        );

        for _ in 0..rng.gen_between(20, 120) {
            match rng.gen_range(10) {
                // Writes dominate so eviction and write-through churn.
                0..=3 => {
                    let pno = rng.gen_range(PAGES);
                    let page = fill(&mut rng);
                    let a = reference.write_page(pno, &page);
                    let b = cached.write_page(pno, &page);
                    assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}: write disagreement");
                }
                4..=7 => {
                    // While the node is down every device read fails but a
                    // cache hit still serves — a distinction without meaning
                    // (a crashed node runs no reads), so only compare when
                    // the device is up.
                    if plan_ref.is_crashed() {
                        continue;
                    }
                    let pno = rng.gen_range(PAGES);
                    match (reference.read_page(pno), cached.read_page(pno)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "seed {seed}: page {pno} diverged")
                        }
                        (a, b) => {
                            assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}: read disagreement")
                        }
                    }
                }
                8 => {
                    let a = reference.sync();
                    let b = cached.sync();
                    assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}: sync disagreement");
                }
                _ => {
                    if rng.gen_bool(0.5) && !plan_ref.is_crashed() {
                        // Arm a crash a few writes out on both stores.
                        let after = rng.gen_range(6);
                        plan_ref.arm_after_writes(after);
                        plan_cached.arm_after_writes(after);
                    } else {
                        // Simulated restart: the device survives, the cache
                        // does not.
                        plan_ref.heal();
                        plan_cached.heal();
                        reference.invalidate_volatile();
                        cached.invalidate_volatile();
                    }
                }
            }
        }

        // Final restart, then the full images must agree byte for byte.
        plan_ref.heal();
        plan_cached.heal();
        reference.invalidate_volatile();
        cached.invalidate_volatile();
        for pno in 0..PAGES {
            let a = reference.read_page(pno).expect("reference read");
            let b = cached.read_page(pno).expect("cached read");
            assert_eq!(a, b, "seed {seed}: final image diverged at page {pno}");
        }
    }
}

/// Sequential scans (the recovery access pattern, both directions) through
/// a cache with read-ahead return the same bytes as the bare store.
#[test]
fn scans_with_readahead_match_uncached() {
    let mut rng = DetRng::new(0x5CA7);
    let mut reference = MemStore::new(SimClock::new(), CostModel::fast());
    let mut cached = PageCache::new(
        MemStore::new(SimClock::new(), CostModel::fast()),
        CacheConfig {
            capacity: 6,
            readahead: 3,
        },
    );
    for pno in 0..PAGES {
        let page = fill(&mut rng);
        reference.write_page(pno, &page).unwrap();
        cached.write_page(pno, &page).unwrap();
    }
    cached.invalidate_volatile();
    for pno in 0..PAGES {
        assert_eq!(
            reference.read_page(pno).unwrap(),
            cached.read_page(pno).unwrap(),
            "forward scan diverged at {pno}"
        );
    }
    cached.invalidate_volatile();
    for pno in (0..PAGES).rev() {
        assert_eq!(
            reference.read_page(pno).unwrap(),
            cached.read_page(pno).unwrap(),
            "backward scan diverged at {pno}"
        );
    }
}

/// A fresh file store under the temp dir, removed by [`TempFiles::drop`].
struct TempFiles(Vec<std::path::PathBuf>);

impl TempFiles {
    fn open(&mut self, name: &str, clock: SimClock) -> DurableFileStore {
        let path = std::env::temp_dir().join(format!(
            "argus-prop-cache-{}-{name}-{}",
            std::process::id(),
            self.0.len()
        ));
        let _ = std::fs::remove_file(&path);
        self.0.push(path.clone());
        DurableFileStore::open(&path, clock, CostModel::fast()).unwrap()
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Builds two identical stores with `make`, fills both with the same
/// random history — synced pages, then staged-unsynced rewrites and pages
/// past the synced end, then single-copy decay where the media model it —
/// and checks that `read_run(s, n)` on one equals `n` × `read_page` on the
/// other: pages, device counters and simulated time, run after run.
fn check_read_run<S: PageStore>(seed: u64, mut make: impl FnMut(SimClock) -> S) {
    let mut rng = DetRng::new(seed);
    let (clock_run, clock_loop) = (SimClock::new(), SimClock::new());
    let mut by_run = make(clock_run.clone());
    let mut by_loop = make(clock_loop.clone());
    let both = |by_run: &mut S, by_loop: &mut S, pno: PageNo, page: &Page| {
        by_run.write_page(pno, page).unwrap();
        by_loop.write_page(pno, page).unwrap();
    };
    for pno in 0..PAGES {
        let page = fill(&mut rng);
        both(&mut by_run, &mut by_loop, pno, &page);
    }
    by_run.sync().unwrap();
    by_loop.sync().unwrap();
    for _ in 0..8 {
        let pno = rng.gen_range(PAGES + 6);
        let page = fill(&mut rng);
        both(&mut by_run, &mut by_loop, pno, &page);
    }
    for _ in 0..4 {
        let pno = rng.gen_range(PAGES);
        assert_eq!(by_run.decay_page(pno), by_loop.decay_page(pno));
    }

    for _ in 0..40 {
        // Runs start anywhere and may reach well past the last page, and
        // overwrite whatever the pages handed in held.
        let start = rng.gen_range(PAGES + 8);
        let count = rng.gen_range(14) as usize;
        let mut run = vec![fill(&mut rng); count];
        by_run.read_run(start, &mut run).unwrap();
        let looped: Vec<Page> = (start..start + count as u64)
            .map(|pno| by_loop.read_page(pno).unwrap())
            .collect();
        assert_eq!(run, looped, "seed {seed}: run {start}+{count}");
        assert_eq!(
            by_run.stats().snapshot(),
            by_loop.stats().snapshot(),
            "seed {seed}: run {start}+{count}"
        );
        assert_eq!(clock_run.now(), clock_loop.now(), "seed {seed}");
    }
}

#[test]
fn read_run_equals_page_at_a_time_reads_on_every_store() {
    let cfg = CacheConfig {
        capacity: 8,
        readahead: 4,
    };
    let mem = |clock| MemStore::new(clock, CostModel::fast());
    let mirror = |clock| MirroredDisk::new(FaultPlan::new(), clock, CostModel::fast());
    let mut files = TempFiles(Vec::new());
    for seed in 0..12u64 {
        check_read_run(seed, mem);
        check_read_run(seed, mirror);
        check_read_run(seed, |clock| files.open("bare", clock));
        check_read_run(seed, |clock| PageCache::new(mem(clock), cfg));
        check_read_run(seed, |clock| PageCache::new(mirror(clock), cfg));
        check_read_run(seed, |clock| {
            PageCache::new(files.open("cached", clock), cfg)
        });
    }
}

/// The page cache before its eviction became O(1) and its read-ahead a bulk
/// read: every insert sweeps all slots for the minimum stamp, and a window
/// is prefetched one `read_page` at a time. Kept as the oracle.
struct RefCache<S> {
    inner: S,
    cfg: CacheConfig,
    slots: HashMap<PageNo, (u64, Page)>,
    tick: u64,
    last_miss: Option<PageNo>,
}

impl<S: PageStore> RefCache<S> {
    fn insert(&mut self, pno: PageNo, page: Page) {
        if self.slots.len() >= self.cfg.capacity && !self.slots.contains_key(&pno) {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(&victim, _)| victim);
            if let Some(victim) = victim {
                self.slots.remove(&victim);
            }
        }
        self.slots.insert(pno, (self.tick, page));
    }

    fn maybe_readahead(&mut self, pno: PageNo) {
        let k = self.cfg.readahead as u64;
        let Some(prev) = self.last_miss else { return };
        let limit = self.inner.page_count();
        let (start, end) = if pno > prev && pno - prev <= k + 1 {
            (pno + 1, (pno + 1 + k).min(limit))
        } else if pno < prev && prev - pno <= k + 1 {
            (pno.saturating_sub(k), pno)
        } else {
            return;
        };
        for p in start..end {
            if self.slots.contains_key(&p) {
                continue;
            }
            let Ok(page) = self.inner.read_page(p) else {
                break;
            };
            self.tick += 1;
            self.insert(p, page);
        }
    }
}

impl<S: PageStore> PageStore for RefCache<S> {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        self.tick += 1;
        if let Some((stamp, page)) = self.slots.get_mut(&pno) {
            *stamp = self.tick;
            return Ok(page.clone());
        }
        let page = self.inner.read_page(pno)?;
        self.insert(pno, page.clone());
        self.maybe_readahead(pno);
        self.last_miss = Some(pno);
        Ok(page)
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        self.inner.write_page(pno, page)?;
        self.tick += 1;
        self.insert(pno, page.clone());
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
        self.last_miss = None;
        self.inner.invalidate_volatile();
    }

    fn decay_page(&mut self, pno: PageNo) -> bool {
        self.slots.remove(&pno);
        self.inner.decay_page(pno)
    }
}

/// Random read/write/invalidate/decay/crash interleavings, with scans in
/// both directions mixed in so read-ahead windows overlap cached pages and
/// evict inside themselves: the cache and the oracle must return the same
/// results and leave the same device-operation trace — every eviction chose
/// the same victim and every window read the same pages in the same order.
#[test]
fn cache_issues_the_reference_caches_device_operations() {
    for seed in 0..48u64 {
        let mut rng = DetRng::new(0xE71C7 + seed);
        let cfg = CacheConfig {
            capacity: rng.gen_between(2, 12) as usize,
            readahead: rng.gen_range(7) as usize,
        };
        let (plan_new, plan_ref) = (FaultPlan::new(), FaultPlan::new());
        let (clock_new, clock_ref) = (SimClock::new(), SimClock::new());
        let mut new = PageCache::new(
            MirroredDisk::new(plan_new.clone(), clock_new.clone(), CostModel::fast()),
            cfg,
        );
        let mut oracle = RefCache {
            inner: MirroredDisk::new(plan_ref.clone(), clock_ref.clone(), CostModel::fast()),
            cfg,
            slots: HashMap::new(),
            tick: 0,
            last_miss: None,
        };
        plan_new.start_trace();
        plan_ref.start_trace();

        let read = |new: &mut PageCache<MirroredDisk>,
                    oracle: &mut RefCache<MirroredDisk>,
                    pno: PageNo| {
            match (new.read_page(pno), oracle.read_page(pno)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}: page {pno}"),
                (a, b) => assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}: read {pno}"),
            }
        };
        for _ in 0..rng.gen_between(100, 400) {
            match rng.gen_range(20) {
                0..=5 => {
                    let pno = rng.gen_range(PAGES);
                    let page = fill(&mut rng);
                    let a = new.write_page(pno, &page);
                    let b = oracle.write_page(pno, &page);
                    assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}: write {pno}");
                }
                6..=11 => read(&mut new, &mut oracle, rng.gen_range(PAGES)),
                12..=14 => {
                    // A stretch of a scan, up or down.
                    let from = rng.gen_range(PAGES);
                    let len = rng.gen_between(2, 12);
                    let down = rng.gen_bool(0.6);
                    for i in 0..len {
                        let pno = if down {
                            from.saturating_sub(i)
                        } else {
                            from + i
                        };
                        read(&mut new, &mut oracle, pno);
                    }
                }
                15..=16 => {
                    let pno = rng.gen_range(PAGES);
                    assert_eq!(new.decay_page(pno), oracle.decay_page(pno));
                }
                17 => {
                    let after = rng.gen_range(12);
                    plan_new.arm_after_ops(after);
                    plan_ref.arm_after_ops(after);
                }
                18 => {
                    plan_new.heal();
                    plan_ref.heal();
                }
                _ => {
                    plan_new.heal();
                    plan_ref.heal();
                    new.invalidate_volatile();
                    oracle.invalidate_volatile();
                }
            }
        }
        assert_eq!(
            plan_new.take_trace(),
            plan_ref.take_trace(),
            "seed {seed}: device operations diverged"
        );
        assert_eq!(new.stats().snapshot(), oracle.stats().snapshot());
        assert_eq!(clock_new.now(), clock_ref.now());
    }
}
