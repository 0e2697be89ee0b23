//! The hybrid log over real files: the `FileProvider` allocates a numbered
//! store file per log generation, so housekeeping's "new log supplants the
//! old" happens across actual files on disk — and the supplanted file is
//! deleted once the switch is durable, or swept by the next open.

use argus::core::providers::FileProvider;
use argus::core::{HousekeepingMode, HybridLogRs, RecoverySystem, RsResult};
use argus::guardian::{MediaKind, Outcome, RsKind, World, WorldConfig};
use argus::objects::{ActionId, GuardianId, Heap, Value};
use argus::shadow::ShadowRs;
use argus::sim::CostModel;
use argus::stable::DurableFileStore;
use std::path::{Path, PathBuf};

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("argus-filetest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The names in `dir`, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Commits action `n`, which sets the stable root to `n`.
fn commit(rs: &mut dyn RecoverySystem, heap: &mut Heap, n: u64) {
    let a = aid(n);
    let root = heap.stable_root().unwrap();
    heap.acquire_write(root, a).unwrap();
    heap.write_value(root, a, |v| *v = Value::Int(n as i64))
        .unwrap();
    rs.prepare(a, &[root], heap).unwrap();
    rs.commit(a).unwrap();
    heap.commit_action(a);
}

#[test]
fn commits_and_recovery_on_real_files() {
    let dir = temp_dir("basic");
    let provider = FileProvider::new(&dir).unwrap();
    let mut rs = HybridLogRs::create(provider).unwrap();
    let mut heap = Heap::with_stable_root();
    for i in 0..5 {
        let a = aid(i + 1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(i as i64))
            .unwrap();
        rs.prepare(a, &[root], &heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);
    }

    rs.simulate_crash().unwrap();
    let mut heap2 = Heap::new();
    rs.recover(&mut heap2).unwrap();
    let root = heap2.stable_root().unwrap();
    assert_eq!(heap2.read_value(root, None).unwrap(), &Value::Int(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn housekeeping_switches_to_a_new_file() {
    let dir = temp_dir("housekeeping");
    let provider = FileProvider::new(&dir).unwrap();
    let mut rs = HybridLogRs::create(provider).unwrap();
    let mut heap = Heap::with_stable_root();
    for i in 0..20 {
        let a = aid(i + 1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(i as i64))
            .unwrap();
        rs.prepare(a, &[root], &heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);
    }
    let before = rs.log().stable_bytes();
    rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
    assert!(rs.log().stable_bytes() < before / 3);

    rs.simulate_crash().unwrap();
    let mut heap2 = Heap::new();
    rs.recover(&mut heap2).unwrap();
    let root = heap2.stable_root().unwrap();
    assert_eq!(heap2.read_value(root, None).unwrap(), &Value::Int(19));
    // Dropping the provider drains its reaper: the supplanted generation
    // is gone.
    drop(rs);
    assert_eq!(files(&dir), ["log-0001.argus", "root.argus"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_from_file_in_a_new_recovery_system() {
    // Full "new process" flow: create, commit, drop the rs entirely, then
    // open the same store file in a fresh recovery system.
    let dir = temp_dir("reopen");
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = HybridLogRs::create(provider).unwrap();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::from("durable"))
            .unwrap();
        rs.prepare(a, &[root], &heap).unwrap();
        rs.commit(a).unwrap();
        // rs dropped here: the process "exits".
    }
    {
        let mut provider = FileProvider::new(&dir).unwrap();
        let generation = provider.active_generation().unwrap();
        let store = provider.open_store(generation).unwrap();
        let mut rs = HybridLogRs::open(provider, store).unwrap();
        let mut heap = Heap::new();
        rs.recover(&mut heap).unwrap();
        let root = heap.stable_root().unwrap();
        assert_eq!(
            heap.read_value(root, None).unwrap(),
            &Value::from("durable")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_root_names_the_active_generation_across_restarts() {
    // Commit, housekeep twice (two generation switches), "exit the
    // process", and reopen purely through the stable root file.
    let dir = temp_dir("root-switch");
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = HybridLogRs::create(provider).unwrap();
        let mut heap = Heap::with_stable_root();
        for i in 0..8 {
            let a = aid(i + 1);
            let root = heap.stable_root().unwrap();
            heap.acquire_write(root, a).unwrap();
            heap.write_value(root, a, |v| *v = Value::Int(i as i64))
                .unwrap();
            rs.prepare(a, &[root], &heap).unwrap();
            rs.commit(a).unwrap();
            heap.commit_action(a);
        }
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
    }
    {
        let mut provider = FileProvider::new(&dir).unwrap();
        let generation = provider.active_generation().unwrap();
        assert_eq!(generation, 2, "two housekeeping passes → generation 2");
        let store = provider.open_store(generation).unwrap();
        let mut rs = HybridLogRs::open(provider, store).unwrap();
        let mut heap = Heap::new();
        rs.recover(&mut heap).unwrap();
        let root = heap.stable_root().unwrap();
        assert_eq!(heap.read_value(root, None).unwrap(), &Value::Int(7));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_numbers_resume_past_a_deleted_generation() {
    // Two passes, whose supplanted generations 0 and 1 are deleted, "a new
    // process", two more passes: the provider must not count up from the
    // gap and hand out the number of a file that is still there — least of
    // all the active one, which `new_store` would remove — and a pass must
    // leave the active file alone until it has supplanted it.
    let dir = temp_dir("gap");
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = HybridLogRs::create(provider).unwrap();
        let mut heap = Heap::with_stable_root();
        commit(&mut rs, &mut heap, 1);
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
    }
    assert_eq!(files(&dir), ["log-0002.argus", "root.argus"]);

    let mut provider = FileProvider::new(&dir).unwrap();
    assert_eq!(provider.active_generation().unwrap(), 2);
    assert_eq!(provider.stores_created(), 3, "resumes past log-0002");
    let store = provider.open_store(2).unwrap();
    let mut rs = HybridLogRs::open(provider, store).unwrap();
    let mut heap = Heap::new();
    rs.recover(&mut heap).unwrap();
    for (pass, generation) in [(1, 3), (2, 4)] {
        commit(&mut rs, &mut heap, 1 + pass);
        let active = dir.join(format!("log-{:04}.argus", generation - 1));
        let before = std::fs::read(&active).unwrap();
        rs.begin_housekeeping(&heap, HousekeepingMode::Snapshot)
            .unwrap();
        assert!(
            dir.join(format!("log-{generation:04}.argus")).exists(),
            "pass {pass} did not write generation {generation}"
        );
        assert_eq!(
            std::fs::read(&active).unwrap(),
            before,
            "pass {pass} touched the active file before supplanting it"
        );
        rs.finish_housekeeping().unwrap();
    }
    rs.simulate_crash().unwrap();
    let mut heap2 = Heap::new();
    rs.recover(&mut heap2).unwrap();
    let root = heap2.stable_root().unwrap();
    assert_eq!(heap2.read_value(root, None).unwrap(), &Value::Int(3));
    drop(rs);
    let mut provider = FileProvider::new(&dir).unwrap();
    assert_eq!(provider.active_generation().unwrap(), 4);
    assert_eq!(provider.stores_created(), 5);
    assert_eq!(files(&dir), ["log-0004.argus", "root.argus"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process exits around one housekeeping pass — (a) begun but not
/// finished, (b) finished but the supplanted file's unlink never ran
/// (stood in for by copying the file back), (c) finished — and a new
/// process reopens through the root. Either log is complete, never
/// neither: each recovers the last committed value, and the open leaves
/// exactly the root and the active log.
fn exits_around_a_pass<R: RecoverySystem>(
    name: &str,
    create: fn(FileProvider) -> RsResult<R>,
    open: fn(FileProvider, DurableFileStore) -> RsResult<R>,
) {
    for case in ["begun", "unlink lost", "finished"] {
        let dir = temp_dir(&format!("{name}-{}", case.replace(' ', "-")));
        let first = dir.join("log-0000.argus");
        {
            let mut rs = create(FileProvider::new(&dir).unwrap()).unwrap();
            let mut heap = Heap::with_stable_root();
            for n in 1..=5 {
                commit(&mut rs, &mut heap, n);
            }
            let supplanted = std::fs::read(&first).unwrap();
            rs.begin_housekeeping(&heap, HousekeepingMode::Snapshot)
                .unwrap();
            if case != "begun" {
                rs.finish_housekeeping().unwrap();
            }
            drop(rs); // the process exits; its reaper drains
            if case == "unlink lost" {
                std::fs::write(&first, supplanted).unwrap();
            }
        }
        let mut provider = FileProvider::new(&dir).unwrap();
        let generation = provider.active_generation().unwrap();
        let store = provider.open_store(generation).unwrap();
        let mut rs = open(provider, store).unwrap();
        let mut heap = Heap::new();
        rs.recover(&mut heap).unwrap();
        let root = heap.stable_root().unwrap();
        assert_eq!(
            heap.read_value(root, None).unwrap(),
            &Value::Int(5),
            "{name}, {case}"
        );
        assert_eq!(
            files(&dir),
            [format!("log-{generation:04}.argus"), "root.argus".into()],
            "{name}, {case}"
        );
        drop(rs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_exit_around_a_hybrid_pass_leaves_one_complete_log() {
    exits_around_a_pass("hybrid", HybridLogRs::create, HybridLogRs::open);
}

#[test]
fn an_exit_around_a_shadow_pass_leaves_one_complete_log() {
    // Shadowing switches in `begin_housekeeping`: "begun" is already past
    // its switch.
    exits_around_a_pass("shadow", ShadowRs::create, ShadowRs::open);
}

#[test]
fn compaction_leaves_one_log_on_every_organization() {
    // The benchmark's shape: 256 objects of 64 bytes, four written an
    // action. After three compaction passes and the world's drop (which
    // drains every reaper), the root and the active log are all there is.
    let base = temp_dir("footprint");
    for kind in RsKind::ALL {
        let dir = base.join(format!("{kind:?}"));
        let media = MediaKind::File {
            dir: Some(dir.to_string_lossy().into_owned().leak()),
        };
        let cfg = WorldConfig {
            media,
            ..WorldConfig::default()
        };
        let mut world = World::with_config(CostModel::default(), cfg);
        let g = world.add_guardian(kind).unwrap();
        let setup = world.begin(g).unwrap();
        let mut objs = Vec::new();
        for i in 0..256 {
            let h = world
                .create_atomic(g, setup, Value::Bytes(vec![0; 64]))
                .unwrap();
            world
                .set_stable(g, setup, &format!("obj{i:03}"), Value::heap_ref(h))
                .unwrap();
            objs.push(h);
        }
        assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);
        for pass in 0..3u8 {
            for round in 0..64u8 {
                let a = world.begin(g).unwrap();
                for k in 0..4 {
                    let h = objs[(round as usize * 4 + k) % objs.len()];
                    world
                        .write_atomic(g, a, h, |v| *v = Value::Bytes(vec![pass ^ round; 64]))
                        .unwrap();
                }
                assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
            }
            world.housekeep(g, HousekeepingMode::Compaction).unwrap();
        }
        drop(world);
        let dir = dir.join("g0");
        let names = files(&dir);
        assert_eq!(names.len(), 2, "{kind:?}: {names:?}");
        assert!(names[0].starts_with("log-") && names[1] == "root.argus");
        let bytes: u64 = names
            .iter()
            .map(|n| std::fs::metadata(dir.join(n)).unwrap().len())
            .sum();
        let live = 256 * 64;
        assert!(
            bytes <= 8 * live,
            "{kind:?}: {bytes} B on disk for {live} B live"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
