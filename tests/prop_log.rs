//! Randomized tests of the stable-log substrate: arbitrary write / force /
//! crash sequences against a reference model.
//!
//! Driven by the in-tree deterministic RNG (`argus::sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible. Gated behind the
//! off-by-default `proptest` feature: `cargo test --features proptest`.

use argus::check::lint_log;
use argus::check::LogImage;
use argus::core::{encode_entry, LogEntry};
use argus::guardian::{RsKind, World};
use argus::objects::{ActionId, GuardianId, ObjKind, Uid, Value};
use argus::sim::DeviceStats;
use argus::sim::{CostModel, DetRng, SimClock};
use argus::slog::{crc32, LogAddress, LogError, StableLog};
use argus::stable::{
    CacheConfig, FaultPlan, MemStore, Page, PageCache, PageNo, PageStore, StorageResult, PAGE_SIZE,
};
use argus::workload::{Synth, SynthConfig};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

mod common;

#[derive(Debug, Clone)]
enum LogOp {
    /// Buffer an entry of the given content length.
    Write(u16),
    /// Write the buffer to the device without forcing it (early prepare).
    Flush,
    /// Force the buffer.
    Force,
    /// Crash (drop buffered entries) and reopen.
    Crash,
}

/// Weighted draw: writes 6, flushes 1, forces 2, crashes 1 (of 10).
fn gen_op(rng: &mut DetRng) -> LogOp {
    match rng.gen_range(10) {
        0..=5 => LogOp::Write(rng.gen_range(2000) as u16),
        6 => LogOp::Flush,
        7 | 8 => LogOp::Force,
        _ => LogOp::Crash,
    }
}

fn payload(i: usize, len: u16) -> Vec<u8> {
    let mut bytes = vec![0u8; len as usize];
    for (j, b) in bytes.iter_mut().enumerate() {
        *b = (i.wrapping_mul(31).wrapping_add(j)) as u8;
    }
    bytes
}

/// After any sequence of writes, flushes, forces, and crashes, the log
/// contains exactly the forced prefix, in order, readable both forwards (by
/// address) and backwards (by iteration): what a flush put on the device is
/// no more durable than what stayed in the buffer.
#[test]
fn log_equals_forced_prefix() {
    let mut rng = DetRng::new(0x5106);
    for case in 0..64 {
        let ops: Vec<LogOp> = (0..rng.gen_between(1, 40))
            .map(|_| gen_op(&mut rng))
            .collect();
        let mut log = StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap();
        let mut durable: Vec<(argus::slog::LogAddress, Vec<u8>)> = Vec::new();
        let mut buffered: Vec<(argus::slog::LogAddress, Vec<u8>)> = Vec::new();
        let mut counter = 0usize;

        for op in &ops {
            match op {
                LogOp::Write(len) => {
                    let bytes = payload(counter, *len);
                    counter += 1;
                    let addr = log.write(&bytes);
                    buffered.push((addr, bytes));
                }
                LogOp::Flush => log.flush().unwrap(),
                LogOp::Force => {
                    log.force().unwrap();
                    durable.append(&mut buffered);
                }
                LogOp::Crash => {
                    log.reopen().unwrap();
                    buffered.clear();
                }
            }
        }
        log.force().unwrap();
        durable.append(&mut buffered);

        assert_eq!(log.stable_count(), durable.len() as u64, "case {case}");
        // Forward reads by address.
        for (addr, bytes) in &durable {
            let (_seq, got) = log.read(*addr).unwrap();
            assert_eq!(&got, bytes, "case {case}");
        }
        // Backward iteration covers exactly the durable entries, newest
        // first.
        let walked: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        let expected: Vec<Vec<u8>> = durable.iter().rev().map(|(_, b)| b.clone()).collect();
        assert_eq!(walked, expected, "case {case}");
    }
}

/// A crash at ANY device operation inside a force — a read, a page write or
/// the barrier; after an early flush of some of the entries or not — leaves
/// the log equal to either the pre-force or the post-force state, never
/// something in between, and so does a second crash at any device operation
/// of the reopen that follows (its superblock read, its forward scan, the
/// write and the barrier that open the next epoch).
#[test]
fn force_is_atomic_under_crashes() {
    let mut rng = DetRng::new(0xA70F);
    for case in 0..96 {
        let entries: Vec<u16> = (0..rng.gen_between(1, 6))
            .map(|_| rng.gen_range(600) as u16)
            .collect();
        // How many of the entries an early flush writes before the force.
        let flushed = rng.gen_range(entries.len() as u64 + 1) as usize;
        let crash_after = rng.gen_range(12);
        let second_crash_after = (rng.gen_range(3) == 0).then(|| rng.gen_range(12));

        let plan = FaultPlan::new();
        let store = MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast());
        let mut log = StableLog::create(store).unwrap();
        // A durable sentinel first.
        log.force_write(b"sentinel").unwrap();

        for (i, len) in entries.iter().enumerate() {
            log.write(&payload(i, *len));
            if i + 1 == flushed {
                log.flush().unwrap();
            }
        }
        plan.arm_after_ops(crash_after);
        let result = log.force();
        plan.heal();
        plan.disarm();
        if let Some(n) = second_crash_after {
            plan.arm_after_ops(n);
            if let Err(e) = log.reopen() {
                assert!(e.is_crash(), "case {case}: {e}");
            }
            plan.heal();
            plan.disarm();
        }
        log.reopen().unwrap();

        let count = log.stable_count();
        match result {
            Ok(()) => assert_eq!(count, 1 + entries.len() as u64, "case {case}"),
            Err(_) => assert!(
                count == 1 || count == 1 + entries.len() as u64,
                "case {case}: partial force became visible: {count} entries"
            ),
        }
        // Whatever survived is internally consistent, and what it holds is
        // what was written.
        let mut walked: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        walked.reverse();
        assert_eq!(walked[0], b"sentinel", "case {case}");
        for (i, got) in walked[1..].iter().enumerate() {
            assert_eq!(got, &payload(i, entries[i]), "case {case}");
        }
    }
}

/// Generates a random hybrid log that follows the writer's discipline —
/// data entries below their prepared entry, chained outcomes, verdicts only
/// for prepared actions, references only to base-committed objects — and
/// asserts the argus-check linter accepts every one of them (I1–I9).
#[test]
fn random_well_formed_logs_lint_clean() {
    let mut rng = DetRng::new(0xC4EC);
    for case in 0..48u32 {
        let mut log = StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap();
        let mut force = |entry: &LogEntry| -> LogAddress {
            log.force_write(&encode_entry(entry).unwrap()).unwrap()
        };

        let mut prev: Option<LogAddress> = None;
        // Objects with a base_committed entry: safe targets for references.
        let mut based: Vec<Uid> = Vec::new();
        let mut kinds: HashMap<Uid, ObjKind> = HashMap::new();
        let mut next_uid = 1u64;

        for seq in 0..rng.gen_between(1, 10) {
            let aid = ActionId::new(GuardianId(0), seq);

            // Sometimes introduce a fresh base-committed object first.
            if rng.gen_range(3) == 0 {
                let uid = Uid(next_uid);
                next_uid += 1;
                kinds.insert(uid, ObjKind::Atomic);
                let a = force(&LogEntry::BaseCommitted {
                    uid,
                    value: Value::Int(seq as i64),
                    prev,
                });
                prev = Some(a);
                based.push(uid);
            }

            // The action's data entries, then its prepared entry.
            let mut pairs: Vec<(Uid, LogAddress)> = Vec::new();
            for _ in 0..rng.gen_range(3) {
                let uid = if !based.is_empty() && rng.gen_range(2) == 0 {
                    based[rng.gen_range(based.len() as u64) as usize]
                } else {
                    let uid = Uid(next_uid);
                    next_uid += 1;
                    uid
                };
                if pairs.iter().any(|(u, _)| *u == uid) {
                    continue;
                }
                let kind = *kinds.entry(uid).or_insert(if rng.gen_range(2) == 0 {
                    ObjKind::Atomic
                } else {
                    ObjKind::Mutex
                });
                // Reference only base-committed objects so the restorable
                // set stays closed whatever verdict this action draws.
                let value = if !based.is_empty() && rng.gen_range(3) == 0 {
                    Value::uid_ref(based[rng.gen_range(based.len() as u64) as usize])
                } else {
                    Value::Int(rng.gen_range(1000) as i64)
                };
                let d = force(&LogEntry::DataH { kind, value });
                pairs.push((uid, d));
            }
            let p = force(&LogEntry::Prepared { aid, pairs, prev });
            prev = Some(p);

            // Verdict: commit, abort, or stay in doubt.
            match rng.gen_range(4) {
                0 | 1 => {
                    let c = force(&LogEntry::Committed { aid, prev });
                    prev = Some(c);
                    // Coordinated actions log committing (+ sometimes done).
                    if rng.gen_range(3) == 0 {
                        let cg = force(&LogEntry::Committing {
                            aid,
                            gids: vec![GuardianId(1)],
                            prev,
                        });
                        prev = Some(cg);
                        if rng.gen_range(2) == 0 {
                            let d = force(&LogEntry::Done { aid, prev });
                            prev = Some(d);
                        }
                    }
                }
                2 => {
                    let a = force(&LogEntry::Aborted { aid, prev });
                    prev = Some(a);
                }
                _ => {}
            }
        }

        let report = lint_log(&LogImage::from_log(&mut log));
        assert!(
            report.is_clean(),
            "case {case}: generated log failed lint:\n{report}"
        );
    }
}

/// Any log the real system produces — randomized workload with periodic
/// housekeeping, then a crash/restart — lints clean.
#[test]
fn real_workload_logs_lint_clean() {
    for seed in [1u64, 7, 42] {
        let mut world = World::fast();
        let mut synth = Synth::setup(
            &mut world,
            RsKind::Hybrid,
            SynthConfig {
                objects: 12,
                writes_per_action: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let g = synth.guardian();
        let mut rng = DetRng::new(seed);
        for i in 0..40u64 {
            synth.action(&mut world, &mut rng, false).unwrap();
            if i % 17 == 16 {
                world
                    .housekeep(g, argus::core::HousekeepingMode::Compaction)
                    .unwrap();
            }
        }
        world.crash(g);
        world.restart(g).unwrap();
        common::lint_world(&mut world);
    }
}

// ---- the backward walk against its oracle ---------------------------------

/// The frame format (`FORMAT_VERSION` 2), as the oracle knows it: page 0 is
/// the superblock; a frame is `magic(4) seq(8) len(4) crc(4) payload
/// len(4) end-magic(4)`, its checksum sums the payload and then the header's
/// first sixteen bytes, and the low 39 bits of `seq` are the ordinal.
const DATA_START: u64 = PAGE_SIZE as u64;
const HEADER_LEN: u64 = 20;
const TRAILER_LEN: u64 = 8;
const REC_MAGIC: u32 = 0xA6_0C_5E_01;
const END_MAGIC: u32 = 0xA6_0C_5E_02;
const ORDINAL_MASK: u64 = (1 << 39) - 1;

/// What a walk yields per record, owned; an error as its `Debug` text
/// (variant, offset, reason).
type Walked = Result<(LogAddress, u64, Vec<u8>), String>;

/// Byte-granular read straight off the pages, one `read_page` per page
/// touched and no memory of the last one.
fn read_at<S: PageStore>(store: &mut S, offset: u64, buf: &mut [u8]) -> Result<(), LogError> {
    let mut pos = 0;
    while pos < buf.len() {
        let byte = offset + pos as u64;
        let in_page = (byte % PAGE_SIZE as u64) as usize;
        let take = (PAGE_SIZE - in_page).min(buf.len() - pos);
        let page = store.read_page(byte / PAGE_SIZE as u64)?;
        buf[pos..pos + take].copy_from_slice(&page.as_slice()[in_page..in_page + take]);
        pos += take;
    }
    Ok(())
}

/// The per-record reader the lending walk replaced, kept as its oracle:
/// three reads a record — header, payload, the trailer below — and every
/// check in the order, and with the error, the log made them with.
fn oracle_step<S: PageStore>(
    store: &mut S,
    tail: u64,
    addr: LogAddress,
) -> Result<(u64, Vec<u8>, Option<LogAddress>), LogError> {
    let off = addr.offset();
    let corrupt = |offset, what| LogError::Corrupt { offset, what };
    if off < DATA_START || off > tail - HEADER_LEN {
        return Err(LogError::BadAddress(addr));
    }
    if off + HEADER_LEN + TRAILER_LEN > tail {
        return Err(corrupt(off, "record header"));
    }
    let mut header = [0u8; HEADER_LEN as usize];
    read_at(store, off, &mut header)?;
    if header[0..4] != REC_MAGIC.to_le_bytes() {
        return Err(corrupt(off, "record magic"));
    }
    let seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
    if off + HEADER_LEN + u64::from(len) + TRAILER_LEN > tail {
        return Err(corrupt(off, "record length"));
    }
    let mut summed = vec![0u8; len as usize];
    read_at(store, off + HEADER_LEN, &mut summed)?;
    summed.extend_from_slice(&header[..16]);
    if crc32(&summed) != crc {
        return Err(corrupt(off, "record checksum"));
    }
    summed.truncate(len as usize);
    if off == DATA_START {
        return Ok((seq & ORDINAL_MASK, summed, None));
    }
    if off < DATA_START + HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(off, "impossible record offset"));
    }
    let mut trailer = [0u8; TRAILER_LEN as usize];
    read_at(store, off - TRAILER_LEN, &mut trailer)?;
    if trailer[4..8] != END_MAGIC.to_le_bytes() {
        return Err(corrupt(off - TRAILER_LEN, "trailer magic"));
    }
    let total =
        HEADER_LEN + u64::from(u32::from_le_bytes(trailer[0..4].try_into().unwrap())) + TRAILER_LEN;
    if off < DATA_START + total {
        return Err(corrupt(off, "trailer length"));
    }
    Ok((seq & ORDINAL_MASK, summed, Some(LogAddress(off - total))))
}

/// The oracle's walk from `from`: at most `limit` records, down to the
/// oldest or to the first error.
fn oracle_walk<S: PageStore>(
    log: &mut StableLog<S>,
    from: Option<LogAddress>,
    limit: usize,
) -> Vec<Walked> {
    let tail = DATA_START + log.stable_bytes();
    let mut cursor = from.or(log.get_top());
    let mut out = Vec::new();
    while let Some(addr) = cursor.filter(|_| out.len() < limit) {
        match oracle_step(log.store_mut(), tail, addr) {
            Ok((seq, payload, prev)) => {
                out.push(Ok((addr, seq, payload)));
                cursor = prev;
            }
            Err(e) => {
                out.push(Err(format!("{e:?}")));
                cursor = None;
            }
        }
    }
    out
}

/// The lending walk from `from`, at most `limit` records of it, copied out.
fn lent_walk<S: PageStore>(
    log: &mut StableLog<S>,
    from: Option<LogAddress>,
    limit: usize,
) -> Vec<Walked> {
    let mut out = Vec::new();
    let mut walk = log.walk_backward(from);
    while out.len() < limit {
        let Some(item) = walk.next_entry() else { break };
        out.push(
            item.map(|(addr, seq, payload)| (addr, seq, payload.to_vec()))
                .map_err(|e| format!("{e:?}")),
        );
    }
    out
}

/// A payload length from the shapes that matter to the walk: empty, a
/// frame that fills one page exactly, small, page-straddling, and longer
/// than the two pages the device's extent starts out with.
fn gen_len(rng: &mut DetRng) -> usize {
    match rng.gen_range(8) {
        0 => 0,
        1 => PAGE_SIZE - (HEADER_LEN + TRAILER_LEN) as usize,
        2 | 3 => rng.gen_range(120) as usize,
        4 | 5 => rng.gen_between(300, 900) as usize,
        _ => rng.gen_between(1100, 4000) as usize,
    }
}

/// A forced log of `n` random records over `store`, with each record's
/// address and payload length, oldest first.
fn random_log<S: PageStore>(
    rng: &mut DetRng,
    store: S,
    n: usize,
) -> (StableLog<S>, Vec<(LogAddress, usize)>) {
    let mut log = StableLog::create(store).unwrap();
    let mut written = Vec::new();
    for i in 0..n {
        let len = gen_len(rng);
        let bytes: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
        written.push((log.write(&bytes), len));
        if rng.gen_range(3) == 0 {
            log.force().unwrap();
        }
    }
    log.force().unwrap();
    (log, written)
}

fn mem() -> MemStore {
    MemStore::new(SimClock::new(), CostModel::fast())
}

/// Rewrites the page holding byte `offset` of the log's store.
fn damage<S: PageStore>(log: &mut StableLog<S>, offset: u64, f: impl FnOnce(&mut [u8], usize)) {
    let pno = offset / PAGE_SIZE as u64;
    let store = log.store_mut();
    let mut page = store.read_page(pno).unwrap();
    f(page.as_mut_slice(), (offset % PAGE_SIZE as u64) as usize);
    store.write_page(pno, &page).unwrap();
}

/// The lending walk and the oracle agree record for record — address,
/// ordinal, payload — from the top and from a random record, on intact logs
/// and, error for error, on logs with one seeded corruption: a flipped bit
/// in a header, a payload or a trailer, or a tail whose pages read as zeros.
fn walk_matches_oracle<S: PageStore>(seed: u64, mut store: impl FnMut() -> S) {
    let mut rng = DetRng::new(seed);
    for case in 0..48 {
        let n = rng.gen_between(1, 30) as usize;
        let (mut log, written) = random_log(&mut rng, store(), n);
        let from = written[rng.gen_range(n as u64) as usize].0;
        for from in [None, Some(from)] {
            let want = oracle_walk(&mut log, from, usize::MAX);
            assert!(want.iter().all(Result::is_ok), "case {case}");
            assert_eq!(lent_walk(&mut log, from, usize::MAX), want, "case {case}");
        }
        assert_eq!(
            oracle_walk(&mut log, None, usize::MAX).len(),
            n,
            "case {case}"
        );

        let (victim, len) = written[rng.gen_range(n as u64) as usize];
        let bit = 1u8 << rng.gen_range(8);
        let flip = |bytes: &mut [u8], at: usize| bytes[at] ^= bit;
        let what = match rng.gen_range(4) {
            0 => {
                damage(&mut log, victim.offset() + rng.gen_range(HEADER_LEN), flip);
                "header"
            }
            1 if len > 0 => {
                let at = HEADER_LEN + rng.gen_range(len as u64);
                damage(&mut log, victim.offset() + at, flip);
                "payload"
            }
            2 => {
                let at = HEADER_LEN + len as u64 + rng.gen_range(TRAILER_LEN);
                damage(&mut log, victim.offset() + at, flip);
                "trailer"
            }
            _ => {
                // The device lost its end: from somewhere inside the victim
                // on, every page reads as zeros.
                let tail = DATA_START + log.stable_bytes();
                let mut at = victim.offset() + rng.gen_range(HEADER_LEN + len as u64);
                damage(&mut log, at, |bytes, from| bytes[from..].fill(0));
                at = (at / PAGE_SIZE as u64 + 1) * PAGE_SIZE as u64;
                while at < tail {
                    damage(&mut log, at, |bytes, _| bytes.fill(0));
                    at += PAGE_SIZE as u64;
                }
                "truncated tail"
            }
        };
        for from in [None, Some(from)] {
            let want = oracle_walk(&mut log, from, usize::MAX);
            assert_eq!(
                lent_walk(&mut log, from, usize::MAX),
                want,
                "case {case}: {what} of the record at {victim}"
            );
        }
    }
}

#[test]
fn lending_walk_matches_the_per_record_oracle() {
    walk_matches_oracle(0x0AC1E, mem);
    // Under a cache too small to keep what the extent lets go.
    let tiny = CacheConfig {
        capacity: 4,
        readahead: 2,
    };
    walk_matches_oracle(0x0AC1F, || PageCache::new(mem(), tiny));
}

/// A page store that notes every page read from it. It implements only what
/// a store must, so reads reach it through the trait's defaults.
struct Counting {
    inner: MemStore,
    read: Rc<RefCell<Vec<PageNo>>>,
}

impl PageStore for Counting {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        self.read.borrow_mut().push(pno);
        self.inner.read_page(pno)
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        self.inner.write_page(pno, page)
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
}

/// A walk abandoned after `k` records has read exactly the pages those `k`
/// frames (header and payload) and the trailers below them lie on, each of
/// them once — none twice, and none the walk did not need — and in the order
/// the per-record reader first touches them, which is what the page cache's
/// read-ahead was tuned against.
#[test]
fn an_abandoned_walk_reads_each_page_it_needs_once_and_no_other() {
    let mut rng = DetRng::new(0xF17C4);
    for case in 0..64 {
        let read = Rc::new(RefCell::new(Vec::new()));
        let store = Counting {
            inner: mem(),
            read: read.clone(),
        };
        let n = rng.gen_between(1, 40) as usize;
        let (mut log, written) = random_log(&mut rng, store, n);
        let start = rng.gen_range(n as u64) as usize;
        let k = rng.gen_range(start as u64 + 2) as usize;

        // Whatever the appends left in the device's extent goes, so the
        // walk starts with nothing.
        let _ = log.store_mut();
        read.borrow_mut().clear();
        let walked = lent_walk(&mut log, Some(written[start].0), k);
        assert_eq!(walked.len(), k.min(start + 1), "case {case}");

        let page = PAGE_SIZE as u64;
        let mut want = BTreeSet::new();
        for &(addr, len) in written[..=start].iter().rev().take(k) {
            let lo = match addr.offset() {
                DATA_START => DATA_START,
                off => off - TRAILER_LEN,
            };
            let hi = addr.offset() + HEADER_LEN + len as u64;
            want.extend(lo / page..=(hi - 1) / page);
        }
        let got = std::mem::take(&mut *read.borrow_mut());
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            want.into_iter().collect::<Vec<_>>(),
            "case {case}: {k} records down from record {start} of {written:?}"
        );
        assert_eq!(oracle_walk(&mut log, Some(written[start].0), k), walked);
        let mut first_touches = Vec::new();
        for pno in read.borrow().iter() {
            if !first_touches.contains(pno) {
                first_touches.push(*pno);
            }
        }
        assert_eq!(got, first_touches, "case {case}: order of first touch");
    }
}
