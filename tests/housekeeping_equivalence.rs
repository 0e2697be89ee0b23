//! S9: housekeeping preserves the recoverable state (ch. 5).
//!
//! Run a randomized workload, then compare the crash-recovered stable state
//! of (a) the untouched log, (b) the compacted log, (c) the snapshotted log
//! — all three must agree, including under traffic between the two
//! housekeeping stages and across repeated passes.

use argus::core::HousekeepingMode;
use argus::guardian::{Outcome, RsKind, World};
use argus::objects::Value;
use argus::sim::DetRng;
use argus::workload::{Synth, SynthConfig};

mod common;

/// Runs `actions` randomized updates and returns the committed value of
/// every stable variable after a crash+restart, with volatile references
/// normalized to durable uids (heap addresses differ run to run).
fn stable_snapshot(world: &World, g: argus::objects::GuardianId, objects: usize) -> Vec<Value> {
    let guardian = world.guardian(g).unwrap();
    (0..objects)
        .map(|i| {
            let name = format!("obj{i}");
            match guardian.stable_value(&name) {
                Some(Value::Ref(argus::objects::ObjRef::Heap(h))) => {
                    let mut value = guardian.heap.read_value(h, None).unwrap().clone();
                    value.map_refs(&mut |r| match r {
                        argus::objects::ObjRef::Heap(hh) => {
                            argus::objects::ObjRef::Uid(guardian.heap.uid_of(hh).unwrap())
                        }
                        uid => uid,
                    });
                    value
                }
                other => panic!("{name} unresolved: {other:?}"),
            }
        })
        .collect()
}

fn run_workload(seed: u64, hk: Option<HousekeepingMode>, hk_every: u64) -> Vec<Value> {
    let objects = 24;
    let mut world = World::fast();
    let mut synth = Synth::setup(
        &mut world,
        RsKind::Hybrid,
        SynthConfig {
            objects,
            writes_per_action: 3,
            value_size: 16,
            new_object_prob: 0.1,
            zipf_theta: 0.5,
        },
    )
    .unwrap();
    let g = synth.guardian();
    let mut rng = DetRng::new(seed);
    for i in 0..60u64 {
        synth.action(&mut world, &mut rng, false).unwrap();
        if let Some(mode) = hk {
            if i % hk_every == hk_every - 1 {
                world.housekeep(g, mode).unwrap();
            }
        }
    }
    world.crash(g);
    world.restart(g).unwrap();
    common::lint_world(&mut world);
    stable_snapshot(&world, g, objects)
}

#[test]
fn compaction_preserves_recovered_state() {
    let baseline = run_workload(42, None, 0);
    let compacted = run_workload(42, Some(HousekeepingMode::Compaction), 20);
    assert_eq!(baseline, compacted);
}

#[test]
fn snapshot_preserves_recovered_state() {
    let baseline = run_workload(42, None, 0);
    let snapshotted = run_workload(42, Some(HousekeepingMode::Snapshot), 20);
    assert_eq!(baseline, snapshotted);
}

#[test]
fn frequent_housekeeping_is_still_correct() {
    for mode in [HousekeepingMode::Compaction, HousekeepingMode::Snapshot] {
        let baseline = run_workload(7, None, 0);
        let frequent = run_workload(7, Some(mode), 5);
        assert_eq!(baseline, frequent, "{mode:?}");
    }
}

#[test]
fn housekeeping_bounds_recovery_cost() {
    // The point of ch. 5: after housekeeping, recovery examines a bounded
    // number of entries regardless of history length.
    let mut world = World::fast();
    let mut synth = Synth::setup(
        &mut world,
        RsKind::Hybrid,
        SynthConfig {
            objects: 16,
            writes_per_action: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let g = synth.guardian();
    let mut rng = DetRng::new(9);
    synth.run(&mut world, &mut rng, 100).unwrap();

    world.crash(g);
    let unbounded = world.restart(g).unwrap();
    common::lint_world(&mut world);

    // Re-run the same history but housekeep at the end.
    let mut world = World::fast();
    let mut synth = Synth::setup(
        &mut world,
        RsKind::Hybrid,
        SynthConfig {
            objects: 16,
            writes_per_action: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let g = synth.guardian();
    let mut rng = DetRng::new(9);
    synth.run(&mut world, &mut rng, 100).unwrap();
    world.housekeep(g, HousekeepingMode::Snapshot).unwrap();
    world.crash(g);
    let bounded = world.restart(g).unwrap();
    common::lint_world(&mut world);

    assert!(
        bounded.entries_examined * 4 < unbounded.entries_examined,
        "housekeeping did not bound recovery: {} vs {}",
        bounded.entries_examined,
        unbounded.entries_examined
    );
}

#[test]
fn interleaved_traffic_between_stages() {
    // begin_housekeeping … more commits … finish_housekeeping, repeated, via
    // the world's guardian — exercised at the recovery-system level in the
    // core crate; here end-to-end with crash+restart after each pass.
    let mut world = World::fast();
    let g = world.add_guardian(RsKind::Hybrid).unwrap();
    for round in 0..3i64 {
        for i in 0..10i64 {
            let a = world.begin(g).unwrap();
            world
                .set_stable(g, a, "v", Value::Int(round * 100 + i))
                .unwrap();
            world.commit(a).unwrap();
        }
        world.housekeep(g, HousekeepingMode::Compaction).unwrap();
        world.crash(g);
        world.restart(g).unwrap();
        assert_eq!(
            world.guardian(g).unwrap().stable_value("v"),
            Some(Value::Int(round * 100 + 9)),
            "round {round}"
        );
        common::lint_world(&mut world);
    }
}

/// A participant kept in doubt across an automatic compaction — its
/// coordinator paused, so its `PrepareOk` is held — learns the verdict
/// above that pass's checkpoint. The next compaction must keep the
/// committed write (the checkpoint ordering fix, DESIGN.md deviation 7).
#[test]
fn a_verdict_reaching_a_compacted_participant_survives_the_next_compaction() {
    for kind in RsKind::ALL {
        let mut world = World::fast();
        let coord = world.add_guardian(kind).unwrap();
        let part = world.add_guardian(kind).unwrap();
        // `x` for the distributed action, `y` for local traffic.
        let setup = world.begin(part).unwrap();
        let mut objects = Vec::new();
        for name in ["x", "y"] {
            let h = world.create_atomic(part, setup, Value::Int(0)).unwrap();
            world
                .set_stable(part, setup, name, Value::heap_ref(h))
                .unwrap();
            objects.push(h);
        }
        assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);
        let (x, y) = (objects[0], objects[1]);
        world
            .set_housekeeping_policy(part, 12, HousekeepingMode::Compaction)
            .unwrap();

        let a = world.begin(coord).unwrap();
        world.set_stable(coord, a, "v", Value::Int(1)).unwrap();
        world
            .write_atomic(part, a, x, |v| *v = Value::Int(777))
            .unwrap();
        world.commit_start(a).unwrap();
        world.pause_guardian(coord);
        world.run_until_quiet().unwrap();

        // Local commits at the in-doubt participant until the policy runs.
        let entries = |world: &World| world.guardian(part).unwrap().log_stats().entries;
        let compacted = (0..50).any(|i| {
            let before = entries(&world);
            let b = world.begin(part).unwrap();
            world
                .write_atomic(part, b, y, |v| *v = Value::Int(i))
                .unwrap();
            assert_eq!(world.commit(b).unwrap(), Outcome::Committed);
            entries(&world) < before
        });
        assert!(compacted, "{kind:?}: the policy never ran");

        world.resume_guardian(coord);
        assert_eq!(world.commit_settle(a).unwrap(), Outcome::Committed);
        world.housekeep(part, HousekeepingMode::Compaction).unwrap();
        common::lint_world(&mut world);
        world.crash(part);
        world.restart(part).unwrap();
        let guardian = world.guardian(part).unwrap();
        let x = match guardian.stable_value("x") {
            Some(Value::Ref(argus::objects::ObjRef::Heap(h))) => h,
            other => panic!("{kind:?}: x unresolved: {other:?}"),
        };
        assert_eq!(
            guardian.heap.read_value(x, None).unwrap(),
            &Value::Int(777),
            "{kind:?}"
        );
    }
}
