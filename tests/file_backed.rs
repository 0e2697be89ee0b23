//! The hybrid log over real files: the `FileProvider` allocates a numbered
//! store file per log generation, so housekeeping's "new log supplants the
//! old" happens across actual files on disk.

use argus::core::providers::FileProvider;
use argus::core::{HousekeepingMode, HybridLogRs, RecoverySystem};
use argus::objects::{ActionId, GuardianId, Heap, Value};
use std::path::PathBuf;

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("argus-filetest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

    // Two generations on disk.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        files.len() >= 2,
        "expected two log generations, found {files:?}"
    );

    rs.simulate_crash().unwrap();
    let mut heap2 = Heap::new();
    rs.recover(&mut heap2).unwrap();
    let root = heap2.stable_root().unwrap();
    assert_eq!(heap2.read_value(root, None).unwrap(), &Value::Int(19));
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
    // Two passes, the oldest supplanted file deleted, "a new process", two
    // more passes: the provider must not count up from the gap and hand out
    // the number of a file that is still there — least of all the active
    // one, which `new_store` would remove.
    let dir = temp_dir("gap");
    let commit = |rs: &mut HybridLogRs<FileProvider>, heap: &mut Heap, n: u64| {
        let a = aid(n);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(n as i64))
            .unwrap();
        rs.prepare(a, &[root], heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);
    };
    {
        let provider = FileProvider::new(&dir).unwrap();
        let mut rs = HybridLogRs::create(provider).unwrap();
        let mut heap = Heap::with_stable_root();
        commit(&mut rs, &mut heap, 1);
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
    }
    std::fs::remove_file(dir.join("log-0000.argus")).unwrap();

    let mut provider = FileProvider::new(&dir).unwrap();
    assert_eq!(provider.active_generation().unwrap(), 2);
    assert_eq!(provider.stores_created(), 3, "resumes past log-0002");
    let active = provider.store_path(2);
    let store = provider.open_store(2).unwrap();
    let mut rs = HybridLogRs::open(provider, store).unwrap();
    let mut heap = Heap::new();
    rs.recover(&mut heap).unwrap();
    for (pass, generation) in [(1, 3), (2, 4)] {
        commit(&mut rs, &mut heap, 1 + pass);
        let before = std::fs::read(&active).unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
        assert!(
            dir.join(format!("log-{generation:04}.argus")).exists(),
            "pass {pass} did not write generation {generation}"
        );
        assert_eq!(
            std::fs::read(&active).unwrap(),
            before,
            "pass {pass} touched the file of the generation that was active at reopen"
        );
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
    let _ = std::fs::remove_dir_all(&dir);
}
