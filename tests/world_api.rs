//! World API contract tests: error paths and misuse.

use argus::guardian::{Outcome, RsKind, World, WorldError};
use argus::objects::{GuardianId, Value};

#[test]
fn operations_on_a_down_guardian_are_refused() {
    let mut w = World::fast();
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let a = w.begin(g).unwrap();
    w.set_stable(g, a, "x", Value::Int(1)).unwrap();
    w.commit(a).unwrap();

    w.crash(g);
    assert!(matches!(w.begin(g), Err(WorldError::Down(_))));
    let stale = a;
    assert!(matches!(
        w.set_stable(g, stale, "x", Value::Int(2)),
        Err(WorldError::Down(_))
    ));
    assert!(matches!(
        w.create_mutex(g, Value::Unit),
        Err(WorldError::Down(_))
    ));
    // Committing at a down coordinator is Down too.
    assert!(matches!(w.commit(stale), Err(WorldError::Down(_))));

    w.restart(g).unwrap();
    assert_eq!(
        w.guardian(g).unwrap().stable_value("x"),
        Some(Value::Int(1))
    );
}

#[test]
fn unknown_guardians_are_reported() {
    let mut w = World::fast();
    let ghost = GuardianId(42);
    assert!(matches!(w.guardian(ghost), Err(WorldError::NoGuardian(_))));
    assert!(matches!(w.begin(ghost), Err(WorldError::NoGuardian(_))));
    assert!(matches!(
        w.crash_restart_roundtrip(ghost),
        Err(WorldError::NoGuardian(_))
    ));
}

// Helper used above, defined as an extension through a local trait to keep
// the test self-contained.
trait RoundTrip {
    fn crash_restart_roundtrip(&mut self, g: GuardianId) -> argus::guardian::WorldResult<()>;
}

impl RoundTrip for World {
    fn crash_restart_roundtrip(&mut self, g: GuardianId) -> argus::guardian::WorldResult<()> {
        self.guardian(g)?;
        self.crash(g);
        self.restart(g)?;
        Ok(())
    }
}

#[test]
fn lock_conflicts_surface_to_the_caller() {
    let mut w = World::fast();
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let a1 = w.begin(g).unwrap();
    let obj = w.create_atomic(g, a1, Value::Int(0)).unwrap();
    w.set_stable(g, a1, "o", Value::heap_ref(obj)).unwrap();
    w.commit(a1).unwrap();

    let obj = match w.guardian(g).unwrap().stable_value("o") {
        Some(Value::Ref(argus::objects::ObjRef::Heap(h))) => h,
        other => panic!("{other:?}"),
    };
    let a2 = w.begin(g).unwrap();
    let a3 = w.begin(g).unwrap();
    w.write_atomic(g, a2, obj, |v| *v = Value::Int(2)).unwrap();
    // a3 cannot write-lock the same object while a2 holds it.
    let denied = w.write_atomic(g, a3, obj, |v| *v = Value::Int(3));
    assert!(matches!(denied, Err(WorldError::Heap(_))));
    // a2 commits; a3 retries and wins.
    assert_eq!(w.commit(a2).unwrap(), Outcome::Committed);
    w.write_atomic(g, a3, obj, |v| *v = Value::Int(3)).unwrap();
    assert_eq!(w.commit(a3).unwrap(), Outcome::Committed);

    let guardian = w.guardian(g).unwrap();
    assert_eq!(guardian.heap.read_value(obj, None).unwrap(), &Value::Int(3));
}

#[test]
fn commit_of_an_empty_action_succeeds() {
    // An action that modified nothing still runs two-phase commit with the
    // coordinator as sole participant (empty MOS prepare).
    let mut w = World::fast();
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let a = w.begin(g).unwrap();
    assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
}

/// A verdict is booked when the coordinator finishes and taken once: a
/// look does not take it, `commit_settle` does and the world keeps nothing,
/// so asking again reports `Pending`. A local abort books none — its caller
/// knows the verdict.
#[test]
fn verdicts_are_recorded() {
    let mut w = World::fast();
    let g = w.add_guardian(RsKind::Simple).unwrap();
    let a = w.begin(g).unwrap();
    w.set_stable(g, a, "k", Value::Int(1)).unwrap();
    assert_eq!(w.verdict(a), None);
    w.commit_start(a).unwrap();
    w.run_until_quiet().unwrap();
    assert_eq!((w.verdict(a), w.verdict(a)), (Some(true), Some(true)));
    assert_eq!(w.commit_settle(a).unwrap(), Outcome::Committed);
    assert_eq!(w.verdict(a), None);
    assert_eq!(w.commit_settle(a).unwrap(), Outcome::Pending);

    let b = w.begin(g).unwrap();
    w.set_stable(g, b, "k", Value::Int(2)).unwrap();
    w.abort_local(b);
    assert_eq!(w.verdict(b), None);
    assert_eq!(w.retained_actions(), 0);
}

#[test]
fn stable_values_are_isolated_until_commit() {
    let mut w = World::fast();
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let a = w.begin(g).unwrap();
    w.set_stable(g, a, "k", Value::Int(1)).unwrap();
    w.commit(a).unwrap();

    let b = w.begin(g).unwrap();
    w.set_stable(g, b, "k", Value::Int(2)).unwrap();
    let guardian = w.guardian(g).unwrap();
    // The committed view still shows 1; b's view shows 2.
    assert_eq!(guardian.stable_value("k"), Some(Value::Int(1)));
    assert_eq!(guardian.stable_value_as("k", Some(b)), Some(Value::Int(2)));
    w.commit(b).unwrap();
    assert_eq!(
        w.guardian(g).unwrap().stable_value("k"),
        Some(Value::Int(2))
    );
}
