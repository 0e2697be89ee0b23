//! Real-process-restart tests on the durable file backend: commit, drop the
//! recovery system entirely (the "process" exits), reopen the on-disk store
//! in a fresh one, recover, and lint the on-disk log image against the
//! invariant catalogue — for every storage organization.
//!
//! The same flow runs at world level on `MediaKind::File`, where a crash of
//! a guardian is a real loss of unsynced writes rather than a simulated
//! page-state rollback.

mod common;

use argus::core::providers::FileProvider;
use argus::core::{HybridLogRs, RecoveryMode, RecoverySystem, RedoRs, RsError, SimpleLogRs};
use argus::guardian::{MediaKind, Outcome, RsKind, World, WorldConfig, WorldError};
use argus::objects::{ActionId, GuardianId, Heap, Value};
use argus::shadow::ShadowRs;
use argus::sim::CostModel;
use std::path::PathBuf;

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("argus-restart-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commits `n` root updates (plus one prepared-but-undecided action left
/// in doubt) through any recovery system, returning the heap.
fn build_history(rs: &mut dyn RecoverySystem, n: u64) -> Heap {
    let mut heap = Heap::with_stable_root();
    for i in 0..n {
        let a = aid(i + 1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(i as i64))
            .unwrap();
        rs.prepare(a, &[root], &heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);
    }
    // One action prepared but not decided: it must come back in doubt.
    let b = aid(1000);
    let root = heap.stable_root().unwrap();
    heap.acquire_write(root, b).unwrap();
    heap.write_value(root, b, |v| *v = Value::from("in-doubt"))
        .unwrap();
    rs.prepare(b, &[root], &heap).unwrap();
    heap
}

/// Recovers in a fresh heap and checks the committed root value plus the
/// in-doubt action's restored lock, then returns the recovery outcome.
fn check_recovered(rs: &mut dyn RecoverySystem, n: u64) -> argus::core::RecoveryOutcome {
    let mut heap = Heap::new();
    let out = rs.recover(&mut heap).unwrap();
    let root = heap.stable_root().unwrap();
    assert_eq!(
        heap.read_value(root, None).unwrap(),
        &Value::Int(n as i64 - 1),
        "committed base value must survive the restart"
    );
    let b = aid(1000);
    assert!(rs.is_prepared(b), "prepared action must come back in doubt");
    assert_eq!(
        heap.read_value(root, Some(b)).unwrap(),
        &Value::from("in-doubt"),
        "the in-doubt action's prepared version must be restored under its lock"
    );
    out
}

#[test]
fn simple_log_reopens_from_disk_and_lints() {
    let dir = temp_dir("simple");
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = SimpleLogRs::create(provider).unwrap();
        build_history(&mut rs, 6);
        // rs dropped: the process "exits" with the in-doubt prepare forced.
    }
    let mut provider = FileProvider::new(&dir).unwrap();
    let generation = provider.active_generation().unwrap();
    let store = provider.open_store(generation).unwrap();
    let mut rs = SimpleLogRs::open(provider, store).unwrap();
    let out = check_recovered(&mut rs, 6);
    let entries = rs.dump_log().unwrap().expect("simple log keeps a log");
    common::lint_entries_against(entries, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hybrid_log_reopens_from_disk_and_lints() {
    let dir = temp_dir("hybrid");
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = HybridLogRs::create(provider).unwrap();
        build_history(&mut rs, 6);
    }
    let mut provider = FileProvider::new(&dir).unwrap();
    let generation = provider.active_generation().unwrap();
    let store = provider.open_store(generation).unwrap();
    let mut rs = HybridLogRs::open(provider, store).unwrap();
    let out = check_recovered(&mut rs, 6);
    let entries = rs.dump_log().unwrap().expect("hybrid log keeps a log");
    common::lint_entries_against(entries, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadowing_reopens_from_disk() {
    // Shadowing keeps a map log of its own record format (no LogEntry
    // image to lint), but the restart contract is the same: drop, reopen,
    // recover committed state and in-doubt intents from disk.
    let dir = temp_dir("shadow");
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = ShadowRs::create(provider).unwrap();
        build_history(&mut rs, 6);
    }
    let mut provider = FileProvider::new(&dir).unwrap();
    let generation = provider.active_generation().unwrap();
    let store = provider.open_store(generation).unwrap();
    let mut rs = ShadowRs::open(provider, store).unwrap();
    check_recovered(&mut rs, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn redo_log_reopens_from_disk_in_every_mode_and_lints() {
    // The redo organization restarts from disk in both recovery modes.
    // On-demand leaves most objects on the log, but this history only ever
    // touches the stable root, which is restored eagerly in both modes, so
    // the same recovered-state checks apply to each.
    for mode in [RecoveryMode::Full, RecoveryMode::OnDemand] {
        let dir = temp_dir(&format!("redo-{mode:?}"));
        {
            let provider = FileProvider::new(&dir).unwrap();
            let mut rs = RedoRs::create(provider).unwrap();
            build_history(&mut rs, 6);
        }
        let mut provider = FileProvider::new(&dir).unwrap();
        let generation = provider.active_generation().unwrap();
        let store = provider.open_store(generation).unwrap();
        let mut rs = RedoRs::open(provider, store).unwrap();
        assert!(rs.set_recovery_mode(mode), "redo supports {mode:?}");
        let out = check_recovered(&mut rs, 6);
        let entries = rs.dump_entries().unwrap();
        common::lint_entries_against(entries, &out);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn world_on_file_media_commits_crashes_and_restarts() {
    // A mixed-organization world on real files: a distributed action across
    // all four organizations commits via 2PC, every guardian crashes (real
    // loss of volatile state), restarts, and the logs still lint clean.
    let cfg = WorldConfig {
        media: MediaKind::File { dir: None },
        ..WorldConfig::default()
    };
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g0 = world.add_guardian(RsKind::Simple).unwrap();
    let g1 = world.add_guardian(RsKind::Hybrid).unwrap();
    let g2 = world.add_guardian(RsKind::Shadow).unwrap();
    let g3 = world.add_guardian(RsKind::Redo).unwrap();

    let action = world.begin(g0).unwrap();
    world.set_stable(g0, action, "left", Value::Int(1)).unwrap();
    world
        .set_stable(g1, action, "middle", Value::Int(2))
        .unwrap();
    world
        .set_stable(g2, action, "right", Value::Int(3))
        .unwrap();
    world.set_stable(g3, action, "redo", Value::Int(4)).unwrap();
    assert_eq!(world.commit(action).unwrap(), Outcome::Committed);

    // An uncommitted write staged after the commit: the crash must drop it.
    let doomed = world.begin(g1).unwrap();
    world
        .set_stable(g1, doomed, "middle", Value::Int(99))
        .unwrap();

    for g in [g0, g1, g2, g3] {
        world.crash(g);
        world.restart(g).unwrap();
    }
    assert_eq!(
        world.guardian(g0).unwrap().stable_value("left"),
        Some(Value::Int(1))
    );
    assert_eq!(
        world.guardian(g1).unwrap().stable_value("middle"),
        Some(Value::Int(2)),
        "the uncommitted overwrite must not survive the crash"
    );
    assert_eq!(
        world.guardian(g2).unwrap().stable_value("right"),
        Some(Value::Int(3))
    );
    assert_eq!(
        world.guardian(g3).unwrap().stable_value("redo"),
        Some(Value::Int(4))
    );
    common::lint_world(&mut world);
}

#[test]
fn crash_countdowns_are_refused_on_file_media() {
    // File-backed stores are wired to no fault plan: a countdown armed there
    // would never fire, so a crash sweep would report a crash-free pass as
    // a clean one. Every way of arming one is an error instead.
    let cfg = WorldConfig {
        media: MediaKind::File { dir: None },
        ..WorldConfig::default()
    };
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g = world.add_guardian(RsKind::Hybrid).unwrap();
    let refused = |r: Result<_, WorldError>| matches!(r, Err(WorldError::Rs(RsError::BadState(_))));
    assert!(refused(world.arm_crash_after_writes(g, 0)));
    assert!(refused(world.arm_crash_after_ops(g, 0)));
    world.crash(g);
    assert!(refused(world.restart_with_crash_after_ops(g, 0).map(drop)));

    // Nothing was armed: the guardian restarts and commits as usual.
    world.restart(g).unwrap();
    let a = world.begin(g).unwrap();
    world.set_stable(g, a, "x", Value::Int(1)).unwrap();
    assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
}
