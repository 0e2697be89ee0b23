//! The instrumentation budget of one commit, as numbers.
//!
//! Between `World::begin` and the commit acknowledgement nothing resolves a
//! metric by name — every count goes through a handle resolved when its
//! component was built — and the trace events one commit leaves behind, and
//! the bytes the trace stores for them, are fixed: adding an event to the
//! commit path, or a byte to its encoding, changes a literal below, so it
//! cannot happen unnoticed.

use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{GuardianId, HeapId, Value};
use argus::obs::Registry;
use argus::trace::Tracer;

const OBJECTS: usize = 64;
const WRITES: usize = 4;
const COMMITS: u64 = 1_000;

struct Bench {
    world: World,
    g: GuardianId,
    objects: Vec<HeapId>,
    next: usize,
}

impl Bench {
    fn new(kind: RsKind) -> Self {
        let mut world = World::fast();
        let g = world.add_guardian(kind).unwrap();
        let setup = world.begin(g).unwrap();
        let objects: Vec<HeapId> = (0..OBJECTS)
            .map(|_| world.create_atomic(g, setup, Value::Int(0)).unwrap())
            .collect();
        let refs = objects.iter().map(|h| Value::heap_ref(*h)).collect();
        world
            .set_stable(g, setup, "objects", Value::Seq(refs))
            .unwrap();
        assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);
        Self {
            world,
            g,
            objects,
            next: 0,
        }
    }

    /// `in_flight` actions of four writes each, begun together, their
    /// commits launched together and settled in turn — so with more than
    /// one in flight their records share group-commit forces.
    fn round(&mut self, in_flight: usize) {
        let mut actions = Vec::with_capacity(in_flight);
        for _ in 0..in_flight {
            let aid = self.world.begin(self.g).unwrap();
            for _ in 0..WRITES {
                let h = self.objects[self.next % OBJECTS];
                self.next += 1;
                self.world
                    .write_atomic(self.g, aid, h, |v| {
                        if let Value::Int(n) = v {
                            *n += 1;
                        }
                    })
                    .unwrap();
            }
            actions.push(aid);
        }
        for &aid in &actions {
            self.world.commit_start(aid).unwrap();
        }
        for &aid in &actions {
            assert_eq!(self.world.commit_settle(aid).unwrap(), Outcome::Committed);
        }
    }
}

/// Trace events and the trace bytes stored for them, left by `COMMITS`
/// steady-state commits, `in_flight` at a time; asserts they resolved
/// nothing by name.
fn budget(kind: RsKind, in_flight: usize) -> (u64, u64) {
    let reg = Registry::new();
    let tracer = Tracer::new();
    let (_r, _t) = (reg.enter(), tracer.enter());
    let mut bench = Bench::new(kind);
    for _ in 0..8 {
        bench.round(in_flight);
    }
    let lookups = reg.lookups();
    let traced = tracer.len() as u64;
    let stored = tracer.stored_bytes() as u64;
    for _ in 0..COMMITS / in_flight as u64 {
        bench.round(in_flight);
    }
    assert_eq!(tracer.dropped(), 0, "the trace buffer must hold the run");
    assert_eq!(
        reg.lookups() - lookups,
        0,
        "{kind:?}, {in_flight} in flight: by-name metric lookups on the commit path"
    );
    (
        tracer.len() as u64 - traced,
        tracer.stored_bytes() as u64 - stored,
    )
}

#[test]
fn a_steady_state_commit_resolves_nothing_by_name_and_records_a_fixed_set() {
    // Trace events per 1 000 commits. These actions are local (their origin
    // is their only participant), so a commit is one staged step and one
    // force: 4 trace events on the log organizations (`commit_locally`,
    // `force`, `force_wait`, the action span) and 2 on shadowing, which
    // forces inside its one step. Eight in flight share one force: 7/8
    // fewer `force` spans a commit.
    //
    // Re-pinned downward from 24 (log) and 16 (shadow) a commit when a
    // local commit stopped paying for `committing`, `done`, three more
    // forces and four self-addressed messages.
    let expected = |kind: RsKind, in_flight: usize| match (kind, in_flight) {
        (RsKind::Shadow, _) => 2_000,
        (_, 1) => 4_000,
        (_, _) => 3_125,
    };
    // Trace bytes stored per 1 000 commits: 7.2 an event on the log
    // organizations (6.7 at eight in flight), 6.5 and 7.7 on shadowing. A
    // kind-and-phase byte, a timestamp delta, a duration, a one-byte lane, a
    // key (origin + 1 and a small sequence delta) and the argument values:
    // `force` carries two, `force_wait` and the action span one each.
    let bytes = |kind: RsKind, in_flight: usize| match (kind, in_flight) {
        (RsKind::Shadow, 1) => 13_090,
        (RsKind::Shadow, _) => 15_408,
        (RsKind::Simple, 1) => 28_772,
        (RsKind::Hybrid, 1) => 28_773,
        (RsKind::Redo, 1) => 28_778,
        (RsKind::Redo, _) => 21_088,
        (_, _) => 21_054,
    };
    for kind in RsKind::ALL {
        for in_flight in [1, 8] {
            let (events, stored) = budget(kind, in_flight);
            assert_eq!(
                events,
                expected(kind, in_flight),
                "{kind:?}, {in_flight} in flight: trace events per {COMMITS} commits"
            );
            assert_eq!(
                stored,
                bytes(kind, in_flight),
                "{kind:?}, {in_flight} in flight: trace bytes stored per {COMMITS} commits"
            );
            assert!(
                stored <= 16 * events,
                "{kind:?}: more than 16 bytes an event"
            );
        }
    }
}

#[test]
fn the_seeded_traced_run_stores_a_few_bytes_an_event() {
    // `argus::traced_run` records on the thread's tracer: device detail on,
    // three guardians, 37 distributed commits, flows, page reads and writes.
    let run = argus::traced_run(1);
    assert!(run.violations.is_empty());
    let tracer = argus::trace::current();
    // 7.4 bytes an event, against 136 when each was a wide struct. (Two
    // bytes more since a distributed action's span ends at its commit
    // point: its end time is stored as a different delta.)
    assert_eq!((tracer.len(), tracer.stored_bytes()), (1_019, 7_591));
}
