//! Pins the *simulated* cost of a restart: wall-clock work on the recovery
//! read path (bulk `read_run`, the lending backward walk, the O(1) LRU) must
//! not move a single device operation. A fixed-seed 2 000-commit history is
//! built per organization under the default cache, the guardian is crashed
//! and restarted, and the restart's `DeviceStats` delta and
//! `stable.cache.{hit,miss,readahead}` deltas must equal the literals below,
//! which were printed by the commit *before* the read path was reworked.
//! Memory and real-file media charge the same model, so one row serves both.
//!
//! Re-pinned once since, when a local commit became one force (these 2 000
//! actions are all local): the log holds no `committing` and no `done` for
//! them, so it is shorter per commit and every count of the three log
//! organizations fell by 16–25 %. Shadowing reads the same 65
//! live versions and one map as before; its 12 → 20 sequential page reads
//! (+2.8 % busy time) are versions that straddle a page boundary, and which
//! ones do is set by where fixed-size commits land in the pages — histories
//! of 1 000 to 3 000 of these commits give 12 to 21 on either side of the
//! change. No per-restart work was added.
//!
//! Re-pinned a second time — the one re-pin that adds work — when a force
//! became one barrier and the top of the log something restart *finds*: the
//! log's open scans forward from the tail the superblock names (at most the
//! 32 KiB publish bound plus the last force) and then opens
//! its next epoch with one write of page 0 and one barrier, asserted below as
//! exactly that. Under the page cache (the three log organizations) the
//! scanned pages are the ones the backward walk asks for first, so the total
//! of page reads is what it was on simple and redo (1 989 and 2 176) and one
//! more on hybrid; ten of them turn from random to sequential because the
//! scan takes them in ascending order, cache hits grow by the walk re-reading
//! what the scan loaded, misses and read-ahead move by at most 4 pages, and
//! busy time *falls* 0.6–0.8 % with the write and the barrier included.
//! Shadowing runs without the cache, so the scan's 17 pages are added to it:
//! 88 → 105 reads, busy +9.4 %. Nothing else moved.
//!
//! Re-pinned a third time, downward only, when the log's byte device came
//! to keep an extent of adjacent pages and the backward walk to be lent
//! slices of it (DESIGN.md § The log's read path): **pages are no longer
//! asked for two or three times.** Under the cache the five device columns
//! — sequential reads, random reads, busy µs, misses, read-ahead — are the
//! literals they were, digit for digit, on simple, hybrid and redo: the
//! order in which pages are *first* asked for is unchanged and the
//! read-ahead sees nothing else. Only `hits` fell (5 702 → 1 818, 3 010 →
//! 2 164, 6 146 → 1 964): a repeat was a hit, and there are none left to
//! make. Shadowing runs without the cache, where a repeat was a device
//! read: 105 → 103 reads, busy 3 195 → 3 145 µs. The `CacheConfig::disabled()`
//! rows pin the same de-duplication where it shows most, so that it cannot
//! creep back: the commit before read 1 997 + 3 929 pages in 177 175 µs on
//! simple, 682 + 2 548 in 108 785 on hybrid and 2 167 + 4 231 in 190 955 on
//! redo — each page of the log about three times, two of them after the
//! one-page slot had just lost it — against the 1 989 / 1 927 / 2 176
//! distinct pages the cached rows fetch. (Hybrid's chain walk zig-zags —
//! from an outcome entry down to its data entries and back up to the next
//! outcome entry — further than the extent's two pages reach, so its row
//! keeps some repeats; a wider extent would trade them for memory in every
//! log of every world.)

use argus::guardian::{MediaKind, Outcome, RsKind, World, WorldConfig};
use argus::objects::Value;
use argus::obs::Registry;
use argus::sim::{CostModel, DetRng};
use argus::stable::CacheConfig;

const COMMITS: u64 = 2_000;
const OBJECTS: usize = 64;

/// What one restart cost: (seq reads, rand reads, busy µs, hits, misses,
/// read-ahead pages).
type Cost = (u64, u64, u64, u64, u64, u64);

fn restart_cost(kind: RsKind, media: MediaKind, cache: CacheConfig) -> Cost {
    let reg = Registry::new();
    let _scope = reg.enter();
    let cfg = WorldConfig {
        media,
        cache,
        ..WorldConfig::default()
    };
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g = world.add_guardian(kind).unwrap();
    let setup = world.begin(g).unwrap();
    let mut objs = Vec::new();
    for i in 0..OBJECTS {
        let h = world
            .create_atomic(g, setup, Value::Bytes(vec![0; 48]))
            .unwrap();
        world
            .set_stable(g, setup, &format!("o{i}"), Value::heap_ref(h))
            .unwrap();
        objs.push(h);
    }
    assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);

    let mut rng = DetRng::new(0x5EED_2000);
    for _ in 0..COMMITS {
        let aid = world.begin(g).unwrap();
        for _ in 0..4 {
            let h = objs[rng.gen_range(OBJECTS as u64) as usize];
            let fill = rng.gen_range(256) as u8;
            world
                .write_atomic(g, aid, h, move |v| *v = Value::Bytes(vec![fill; 48]))
                .unwrap();
        }
        assert_eq!(world.commit(aid).unwrap(), Outcome::Committed);
    }

    world.crash(g);
    let counter = |name: &str| reg.counter(name).get();
    let dev0 = world.guardian(g).unwrap().log_stats().device;
    let (h0, m0, r0) = (
        counter("stable.cache.hit"),
        counter("stable.cache.miss"),
        counter("stable.cache.readahead"),
    );
    world.restart(g).unwrap();
    let dev = world.guardian(g).unwrap().log_stats().device.since(&dev0);
    assert_eq!(
        (dev.writes(), dev.forces),
        (1, 1),
        "{kind:?}: a restart writes the next epoch's superblock, once"
    );
    (
        dev.seq_reads,
        dev.rand_reads,
        dev.busy_us,
        counter("stable.cache.hit") - h0,
        counter("stable.cache.miss") - m0,
        counter("stable.cache.readahead") - r0,
    )
}

#[test]
fn restart_costs_the_same_simulated_device_operations_as_before() {
    let cached = CacheConfig::default();
    let uncached = CacheConfig::disabled();
    let pinned: [(RsKind, CacheConfig, Cost); 7] = [
        (RsKind::Simple, cached, (1556, 433, 32_925, 1818, 224, 1765)),
        (RsKind::Hybrid, cached, (1509, 418, 31_855, 2164, 220, 1707)),
        (RsKind::Shadow, cached, (34, 69, 3145, 0, 0, 0)),
        (RsKind::Redo, cached, (1697, 479, 36_175, 1964, 252, 1924)),
        (RsKind::Simple, uncached, (55, 1987, 80_075, 0, 0, 0)),
        (RsKind::Hybrid, uncached, (446, 1938, 82_025, 0, 0, 0)),
        (RsKind::Redo, uncached, (75, 2141, 86_435, 0, 0, 0)),
    ];
    let dir = std::env::temp_dir().join(format!("argus-pinned-restart-{}", std::process::id()));
    for (kind, cache, want) in pinned {
        // `MediaKind` is `Copy` and wants a `&'static str`; the few bytes of
        // path leaked per row die with the test process.
        let files: &'static str = dir
            .join(format!("{kind:?}-{}", cache.capacity))
            .to_string_lossy()
            .into_owned()
            .leak();
        for media in [MediaKind::Mem, MediaKind::File { dir: Some(files) }] {
            let got = restart_cost(kind, media, cache);
            println!(
                "{kind:?} on {media:?}, cache of {}: {got:?}",
                cache.capacity
            );
            assert_eq!(
                got, want,
                "{kind:?} on {media:?}, cache of {}: (seq reads, rand reads, busy µs, \
                 cache hits, misses, read-ahead) of one restart moved",
                cache.capacity
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
