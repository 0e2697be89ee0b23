//! A million-action soak: volatile state is bounded by the actions in flight
//! and in doubt, not by history. On every organization the sharded blocking
//! mix and a bank share one world for over 10⁶ actions, with crashes and
//! housekeeping between rounds (`common::MixedRounds`); after every round
//! the world must hold no more per-action rows than it has slots and
//! actions in doubt, and the live heap bytes — counted by this binary's own
//! allocator — must plateau: their mean over the last quarter of the rounds
//! within 2 % of their mean over the second quarter.
//!
//! Ignored in the tier-1 run (it takes a release build about a minute);
//! `scripts/verify.sh --full` runs it:
//!
//! ```sh
//! cargo test --release --offline --test bounded_soak -- --ignored
//! ```

mod common;

use argus::guardian::{CcPolicy, RsKind, World, WorldConfig};
use argus::sim::CostModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Wraps the system allocator, keeping the bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Sharded actions a round, and the slots that run them.
const ACTIONS: u64 = 2_000;
const SLOTS: usize = 16;
/// Banking transfers a round.
const TRANSFERS: u64 = 500;
/// Actions each organization runs.
const TOTAL: u64 = 1_000_000;

fn mean(samples: &[isize]) -> f64 {
    samples.iter().map(|&b| b as f64).sum::<f64>() / samples.len() as f64
}

#[test]
#[ignore = "a release-build soak; scripts/verify.sh --full runs it"]
fn a_million_actions_hold_no_more_memory_than_the_first_quarter_million() {
    for kind in RsKind::ALL {
        // A fresh registry and tracer, so the world's instrumentation stays
        // its own; the trace is emptied every round, as its cap would stop it.
        let reg = argus::obs::Registry::new();
        let tracer = argus::trace::Tracer::new();
        let _scope = (reg.enter(), tracer.enter());
        let cfg = WorldConfig::with_cc(CcPolicy::Blocking);
        let mut world = World::with_config(CostModel::fast(), cfg);
        let mut mix = common::MixedRounds::setup(&mut world, kind, 7, (8, SLOTS, ACTIONS));
        let mut live = Vec::new();
        while mix.committed + mix.transfers < TOTAL {
            mix.round(&mut world, TRANSFERS);
            tracer.reset();
            let retained = world.retained_actions();
            assert!(retained <= SLOTS, "{kind:?}: {retained} rows at rest");
            live.push(LIVE.load(Relaxed));
        }
        mix.audit(&world);
        let quarter = live.len() / 4;
        let second = mean(&live[quarter..2 * quarter]);
        let last = mean(&live[live.len() - quarter..]);
        assert!(
            (last - second).abs() <= 0.02 * second,
            "{kind:?}: live bytes {second:.0} over the second quarter, {last:.0} over the last"
        );
    }
}
