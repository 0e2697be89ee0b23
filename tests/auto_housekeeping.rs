//! The automatic housekeeping policy: "Whenever the Argus system has
//! determined that enough old information has accumulated on stable storage
//! at a guardian, it calls the housekeeping operation" (§2.3).

use argus::core::HousekeepingMode;
use argus::guardian::{Outcome, RsKind, World};
use argus::objects::Value;

#[test]
fn policy_keeps_the_log_bounded() {
    let mut world = World::fast();
    let g = world.add_guardian(RsKind::Hybrid).unwrap();
    world
        .set_housekeeping_policy(g, 60, HousekeepingMode::Snapshot)
        .unwrap();

    let mut max_entries = 0;
    for i in 0..200i64 {
        let a = world.begin(g).unwrap();
        world.set_stable(g, a, "v", Value::Int(i)).unwrap();
        world.commit(a).unwrap();
        max_entries = max_entries.max(world.guardian(g).unwrap().log_stats().entries);
    }
    // The log never grows far past the threshold (one commit's worth of
    // slack between checks).
    assert!(
        max_entries < 90,
        "log reached {max_entries} entries despite the policy"
    );

    // And the state is still correct after a crash.
    world.crash(g);
    let outcome = world.restart(g).unwrap();
    assert_eq!(
        world.guardian(g).unwrap().stable_value("v"),
        Some(Value::Int(199))
    );
    // Recovery is bounded too.
    assert!(
        outcome.entries_examined < 200,
        "recovery examined {}",
        outcome.entries_examined
    );
}

#[test]
fn policy_is_per_guardian() {
    let mut world = World::fast();
    let managed = world.add_guardian(RsKind::Hybrid).unwrap();
    let unmanaged = world.add_guardian(RsKind::Hybrid).unwrap();
    world
        .set_housekeeping_policy(managed, 40, HousekeepingMode::Compaction)
        .unwrap();

    for i in 0..80i64 {
        for g in [managed, unmanaged] {
            let a = world.begin(g).unwrap();
            world.set_stable(g, a, "v", Value::Int(i)).unwrap();
            world.commit(a).unwrap();
        }
    }
    let managed_entries = world.guardian(managed).unwrap().log_stats().entries;
    let unmanaged_entries = world.guardian(unmanaged).unwrap().log_stats().entries;
    assert!(
        managed_entries * 3 < unmanaged_entries,
        "policy had no effect: {managed_entries} vs {unmanaged_entries}"
    );
    assert_eq!(
        world.guardian(managed).unwrap().stable_value("v"),
        Some(Value::Int(79))
    );
    assert_eq!(
        world.guardian(unmanaged).unwrap().stable_value("v"),
        Some(Value::Int(79))
    );
}

/// Commits launched together and settled one by one — the overlapped shape
/// `Banking::run_overlapped` and the benchmark drive — are held to the
/// policy and counted like `commit`'s, which is the same two calls. Before,
/// `commit_start` + `commit_settle` skipped both, and a guardian driven
/// that way never compacted.
#[test]
fn overlapped_commits_keep_the_log_bounded_and_are_counted() {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let mut world = World::fast();
    let managed = world.add_guardian(RsKind::Simple).unwrap();
    let unmanaged = world.add_guardian(RsKind::Simple).unwrap();
    world
        .set_housekeeping_policy(managed, 60, HousekeepingMode::Compaction)
        .unwrap();
    let slots: Vec<_> = [managed, unmanaged]
        .into_iter()
        .flat_map(|g| (0..4).map(move |i| (g, i)))
        .map(|(g, i)| (g, world.create_mutex(g, Value::Int(i)).unwrap()))
        .collect();

    let mut max_entries = 0;
    for round in 0..50i64 {
        let launched: Vec<_> = slots
            .iter()
            .map(|&(g, h)| {
                let a = world.begin(g).unwrap();
                world
                    .mutate_mutex(g, a, h, |v| *v = Value::Int(round))
                    .unwrap();
                world.commit_start(a).unwrap();
                a
            })
            .collect();
        for a in launched {
            assert_eq!(world.commit_settle(a).unwrap(), Outcome::Committed);
        }
        max_entries = max_entries.max(world.guardian(managed).unwrap().log_stats().entries);
    }
    assert!(
        max_entries < 90,
        "the managed log reached {max_entries} entries under overlapped commits"
    );
    let unmanaged_entries = world.guardian(unmanaged).unwrap().log_stats().entries;
    assert!(unmanaged_entries > 300, "{unmanaged_entries}");
    assert_eq!(reg.counter("world.commits").get(), 400);
    assert_eq!(reg.histogram("twopc.commit_round_us").snapshot().count, 400);
    assert!(reg.counter("core.hk.passes").get() >= 3);
}
