//! Seeded-corruption tests for the argus-check linter: each test
//! hand-builds a structurally broken log and asserts that `lint_log`
//! reports exactly the violated invariant — no more, no less. The last
//! tests drive the same corruptions through the `argus-lint` CLI on a
//! file-backed log.

use argus::check::{detect_flavor, lint_log, Flavor, Invariant, LintReport, LogImage};
use argus::core::{encode_entry, LogEntry};
use argus::objects::{ActionId, GuardianId, ObjKind, Uid, Value};
use argus::sim::{CostModel, SimClock};
use argus::slog::{LogAddress, StableLog};
use argus::stable::{MemStore, PageStore};

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

fn mem_log() -> StableLog<MemStore> {
    StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap()
}

fn force<S: PageStore>(log: &mut StableLog<S>, entry: &LogEntry) -> LogAddress {
    log.force_write(&encode_entry(entry).unwrap()).unwrap()
}

fn lint<S: PageStore>(log: &mut StableLog<S>) -> LintReport {
    lint_log(&LogImage::from_log(log))
}

/// Asserts the report flags `invariant` and nothing else.
#[track_caller]
fn assert_only(report: &LintReport, invariant: Invariant) {
    assert!(
        report.has(invariant),
        "expected a {} violation, got:\n{report}",
        invariant.code()
    );
    assert!(
        report.violations.iter().all(|v| v.invariant == invariant),
        "expected only {} violations, got:\n{report}",
        invariant.code()
    );
}

// ---- I1: well-formedness --------------------------------------------------

#[test]
fn undecodable_record_trips_i1() {
    let mut log = mem_log();
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        },
    );
    log.force_write(b"\xff\xffnot a log entry").unwrap();
    let report = lint(&mut log);
    assert_only(&report, Invariant::I1WellFormed);
}

// ---- I2: the backward chain must terminate --------------------------------

#[test]
fn truncated_outcome_chain_trips_i2() {
    // The chain head's prev points below the oldest surviving record — the
    // tail of the chain was truncated away.
    let mut log = mem_log();
    force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: Some(LogAddress(3)),
        },
    );
    let report = lint(&mut log);
    assert_eq!(detect_flavor(&LogImage::from_log(&mut log)), Flavor::Hybrid);
    assert_only(&report, Invariant::I2ChainTerminates);
}

#[test]
fn non_decreasing_chain_pointer_trips_i2() {
    // A prev pointer at or above its own entry would loop recovery forever.
    let mut log = mem_log();
    let d = force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    let p = force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![(Uid(1), d)],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(1),
            // Points at itself-or-later instead of back at the prepare.
            prev: Some(LogAddress(p.offset() + 10_000)),
        },
    );
    let report = lint(&mut log);
    assert!(report.has(Invariant::I2ChainTerminates), "{report}");
}

// ---- I3: the chain must hold exactly the outcome entries ------------------

#[test]
fn outcome_entry_off_the_chain_trips_i3() {
    // committed(T1) never links the older prepared(T1): recovery would walk
    // straight past the prepare and T1's versions would be lost.
    let mut log = mem_log();
    let d = force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![(Uid(1), d)],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(1),
            prev: None, // should be Some(prepared's address)
        },
    );
    let report = lint(&mut log);
    assert!(report.has(Invariant::I3ChainComplete), "{report}");
}

// ---- I4 / I5 / I6: outcome pairing ----------------------------------------

#[test]
fn verdict_without_prepare_trips_i4() {
    let mut log = mem_log();
    let p = force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        },
    );
    // committed(T2) — but only T1 ever prepared here.
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(2),
            prev: Some(p),
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I4OutcomeMatched);
}

#[test]
fn both_verdicts_trip_i5() {
    let mut log = mem_log();
    let p = force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        },
    );
    let c = force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(1),
            prev: Some(p),
        },
    );
    force(
        &mut log,
        &LogEntry::Aborted {
            aid: aid(1),
            prev: Some(c),
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I5VerdictConsistent);
}

#[test]
fn done_without_committing_trips_i6() {
    let mut log = mem_log();
    force(
        &mut log,
        &LogEntry::Done {
            aid: aid(1),
            prev: None,
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I6CoordinatorPaired);
}

// ---- I7: the shadow map must resolve --------------------------------------

#[test]
fn dangling_shadow_pair_trips_i7() {
    // The prepared entry's pair points below itself, but no entry lives
    // there — the version it shadows is gone.
    let mut log = mem_log();
    force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![(Uid(1), LogAddress(5))],
            prev: None,
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I7ShadowResolves);
}

#[test]
fn forward_shadow_pair_trips_i7() {
    // A pair pointing at or above its own prepared entry can never have
    // been written by the real writer (data entries go out first, §4.2).
    let mut log = mem_log();
    let d = force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![(Uid(1), LogAddress(d.offset() + 10_000))],
            prev: None,
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I7ShadowResolves);
}

#[test]
fn shadow_pair_at_non_data_entry_trips_i7() {
    let mut log = mem_log();
    let p0 = force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    // The pair resolves to the older *prepared* entry, not a data entry.
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(2),
            pairs: vec![(Uid(1), p0)],
            prev: Some(p0),
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I7ShadowResolves);
}

#[test]
fn corrupted_redo_backlink_trips_i7() {
    // A redo record's backlink must point strictly below itself at an older
    // record of the same object; a forward link can never have been written
    // by the real sink (the chain head is stamped from the previous head).
    let mut log = mem_log();
    let d1 = force(
        &mut log,
        &LogEntry::DataR {
            uid: Uid(1),
            kind: ObjKind::Atomic,
            aid: aid(1),
            back: None,
            value: Value::Int(1),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(1),
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::DataR {
            uid: Uid(1),
            kind: ObjKind::Atomic,
            aid: aid(2),
            back: Some(LogAddress(d1.offset() + 10_000)),
            value: Value::Int(2),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(2),
            pairs: vec![],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(2),
            prev: None,
        },
    );
    let image = LogImage::from_log(&mut log);
    assert_eq!(detect_flavor(&image), Flavor::Redo);
    let report = lint_log(&image);
    assert_only(&report, Invariant::I7ShadowResolves);
}

#[test]
fn redo_backlink_to_wrong_object_trips_i7() {
    // The backlink resolves to a record, but for a different object: the
    // chain would replay another object's version on a chain hop.
    let mut log = mem_log();
    let other = force(
        &mut log,
        &LogEntry::DataR {
            uid: Uid(2),
            kind: ObjKind::Atomic,
            aid: aid(1),
            back: None,
            value: Value::Int(9),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(1),
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::DataR {
            uid: Uid(1),
            kind: ObjKind::Atomic,
            aid: aid(2),
            back: Some(other),
            value: Value::Int(2),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(2),
            pairs: vec![],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(2),
            prev: None,
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I7ShadowResolves);
}

// ---- I8: one version per object per pair list -----------------------------

#[test]
fn duplicate_uid_trips_i8() {
    let mut log = mem_log();
    let d1 = force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(1),
        },
    );
    let d2 = force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(2),
        },
    );
    force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![(Uid(1), d1), (Uid(1), d2)],
            prev: None,
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I8UidsUnique);
}

// ---- I9: accessibility closure --------------------------------------------

#[test]
fn unclosed_accessibility_set_trips_i9() {
    // O1's committed version references O2, but no entry in the log can
    // restore O2: the restorable set is not closed (§3.3.3.2).
    let mut log = mem_log();
    force(
        &mut log,
        &LogEntry::BaseCommitted {
            uid: Uid(1),
            value: Value::uid_ref(Uid(2)),
            prev: None,
        },
    );
    let report = lint(&mut log);
    assert_only(&report, Invariant::I9AccessClosed);
}

#[test]
fn closed_accessibility_set_is_clean() {
    // The same shape with the reference target present lint-cleanly.
    let mut log = mem_log();
    let bc2 = force(
        &mut log,
        &LogEntry::BaseCommitted {
            uid: Uid(2),
            value: Value::Int(2),
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::BaseCommitted {
            uid: Uid(1),
            value: Value::uid_ref(Uid(2)),
            prev: Some(bc2),
        },
    );
    lint(&mut log).assert_clean();
}

// ---- the argus-lint CLI on file-backed logs -------------------------------

/// Runs the real `argus-lint` binary on `path`, returning (exit code,
/// stdout).
fn run_cli(path: &std::path::Path) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_argus-lint"))
        .arg(path)
        .output()
        .expect("argus-lint runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn file_log(
    name: &str,
) -> (
    std::path::PathBuf,
    StableLog<argus::stable::DurableFileStore>,
) {
    let path = std::env::temp_dir().join(format!("argus-check-violations-{name}.log"));
    let _ = std::fs::remove_file(&path);
    let store =
        argus::stable::DurableFileStore::open(&path, SimClock::new(), CostModel::fast()).unwrap();
    (path.clone(), StableLog::create(store).unwrap())
}

#[test]
fn cli_detects_each_seeded_corruption() {
    // (name, expected invariant code, log builder)
    type Case = (
        &'static str,
        &'static str,
        fn(&mut StableLog<argus::stable::DurableFileStore>),
    );
    let cases: Vec<Case> = vec![
        ("truncated-chain", "I2", |log| {
            force(
                log,
                &LogEntry::DataH {
                    kind: ObjKind::Atomic,
                    value: Value::Int(1),
                },
            );
            force(
                log,
                &LogEntry::Prepared {
                    aid: aid(1),
                    pairs: vec![],
                    prev: Some(LogAddress(3)),
                },
            );
        }),
        ("dangling-shadow", "I7", |log| {
            force(
                log,
                &LogEntry::DataH {
                    kind: ObjKind::Atomic,
                    value: Value::Int(1),
                },
            );
            force(
                log,
                &LogEntry::Prepared {
                    aid: aid(1),
                    pairs: vec![(Uid(1), LogAddress(5))],
                    prev: None,
                },
            );
        }),
        ("duplicate-uid", "I8", |log| {
            let d = force(
                log,
                &LogEntry::DataH {
                    kind: ObjKind::Atomic,
                    value: Value::Int(1),
                },
            );
            force(
                log,
                &LogEntry::Prepared {
                    aid: aid(1),
                    pairs: vec![(Uid(1), d), (Uid(1), d)],
                    prev: None,
                },
            );
        }),
        ("corrupt-redo-backlink", "I7", |log| {
            let d1 = force(
                log,
                &LogEntry::DataR {
                    uid: Uid(1),
                    kind: ObjKind::Atomic,
                    aid: aid(1),
                    back: None,
                    value: Value::Int(1),
                },
            );
            force(
                log,
                &LogEntry::Prepared {
                    aid: aid(1),
                    pairs: vec![],
                    prev: None,
                },
            );
            force(
                log,
                &LogEntry::Committed {
                    aid: aid(1),
                    prev: None,
                },
            );
            force(
                log,
                &LogEntry::DataR {
                    uid: Uid(1),
                    kind: ObjKind::Atomic,
                    aid: aid(2),
                    back: Some(LogAddress(d1.offset() + 10_000)),
                    value: Value::Int(2),
                },
            );
            force(
                log,
                &LogEntry::Prepared {
                    aid: aid(2),
                    pairs: vec![],
                    prev: None,
                },
            );
            force(
                log,
                &LogEntry::Committed {
                    aid: aid(2),
                    prev: None,
                },
            );
        }),
        ("unclosed-as", "I9", |log| {
            force(
                log,
                &LogEntry::BaseCommitted {
                    uid: Uid(1),
                    value: Value::uid_ref(Uid(2)),
                    prev: None,
                },
            );
        }),
    ];
    for (name, code, build) in cases {
        let (path, mut log) = file_log(name);
        build(&mut log);
        drop(log);
        let (status, stdout) = run_cli(&path);
        assert_eq!(status, 1, "{name}: expected exit 1, stdout:\n{stdout}");
        assert!(
            stdout.contains(code),
            "{name}: expected {code} in the report, got:\n{stdout}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn cli_reports_a_clean_log_with_exit_zero() {
    let (path, mut log) = file_log("clean");
    let d = force(
        &mut log,
        &LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(7),
        },
    );
    let p = force(
        &mut log,
        &LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![(Uid(1), d)],
            prev: None,
        },
    );
    force(
        &mut log,
        &LogEntry::Committed {
            aid: aid(1),
            prev: Some(p),
        },
    );
    drop(log);
    let (status, stdout) = run_cli(&path);
    assert_eq!(status, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cli_exits_two_on_a_missing_file() {
    let path = std::env::temp_dir().join("argus-check-violations-no-such-file.log");
    let _ = std::fs::remove_file(&path);
    let (status, _) = run_cli(&path);
    assert_eq!(status, 2);
}

// ---- I11: no stale locks in a quiesced heap -------------------------------

#[test]
fn stale_locks_trip_i11() {
    use argus::check::lint_heap_quiesced;
    use argus::objects::Heap;
    use std::collections::BTreeSet;

    let mut heap = Heap::new();
    let a = heap.alloc_atomic(Value::Int(1), None);
    let b = heap.alloc_atomic(Value::Int(2), None);
    let m = heap.alloc_mutex(Value::Int(3));
    heap.acquire_write(a, aid(1)).unwrap();
    heap.write_value(a, aid(1), |v| *v = Value::Int(10))
        .unwrap();
    heap.acquire_read(b, aid(2)).unwrap();
    heap.seize(m, aid(3)).unwrap();

    // With every holder live the heap is quiescent-clean.
    let live: BTreeSet<ActionId> = [aid(1), aid(2), aid(3)].into();
    assert!(lint_heap_quiesced(&heap, &live).is_empty());

    // Forget the writer: its write lock and buffered current version leak.
    let live: BTreeSet<ActionId> = [aid(2), aid(3)].into();
    let violations = lint_heap_quiesced(&heap, &live);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations
        .iter()
        .all(|v| v.invariant == Invariant::I11NoStaleLocks));

    // Forget everyone: the read lock and the mutex seizure leak too.
    let violations = lint_heap_quiesced(&heap, &BTreeSet::new());
    assert_eq!(violations.len(), 3, "{violations:?}");
}
