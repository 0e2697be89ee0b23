//! Read-only participants: a guardian where an action only *read* must join
//! two-phase commit so its read locks are released with the action's
//! outcome — otherwise the locks would leak forever (no commit or abort
//! would ever reach that guardian).

use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{ObjRef, Value};

/// Sets up two guardians: g0 holds "data", g1 holds "config". Returns
/// (world, g0, g1).
fn setup(
    kind: RsKind,
) -> (
    World,
    argus::objects::GuardianId,
    argus::objects::GuardianId,
) {
    let mut w = World::fast();
    let g0 = w.add_guardian(kind).unwrap();
    let g1 = w.add_guardian(kind).unwrap();
    let a = w.begin(g0).unwrap();
    let data = w.create_atomic(g0, a, Value::Int(0)).unwrap();
    w.set_stable(g0, a, "data", Value::heap_ref(data)).unwrap();
    assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
    let b = w.begin(g1).unwrap();
    let config = w.create_atomic(g1, b, Value::Int(10)).unwrap();
    w.set_stable(g1, b, "config", Value::heap_ref(config))
        .unwrap();
    assert_eq!(w.commit(b).unwrap(), Outcome::Committed);
    (w, g0, g1)
}

fn handle(w: &World, g: argus::objects::GuardianId, name: &str) -> argus::objects::HeapId {
    match w.guardian(g).unwrap().stable_value(name) {
        Some(Value::Ref(ObjRef::Heap(h))) => h,
        other => panic!("{name} unresolved: {other:?}"),
    }
}

#[test]
fn read_locks_are_released_on_commit() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        // The action reads config at g1 and writes data at g0.
        let a = w.begin(g0).unwrap();
        let config = handle(&w, g1, "config");
        let factor = match w.read(g1, a, config).unwrap() {
            Value::Int(n) => n,
            other => panic!("{other}"),
        };
        let data = handle(&w, g0, "data");
        w.write_atomic(g0, a, data, move |v| *v = Value::Int(factor * 2))
            .unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed, "{kind:?}");

        // The read lock at g1 is gone: a new action can write-lock config.
        let b = w.begin(g1).unwrap();
        w.write_atomic(g1, b, config, |v| *v = Value::Int(11))
            .unwrap();
        assert_eq!(w.commit(b).unwrap(), Outcome::Committed, "{kind:?}");
        assert_eq!(handle(&w, g0, "data"), data);
        assert_eq!(
            w.guardian(g0).unwrap().heap.read_value(data, None).unwrap(),
            &Value::Int(20),
            "{kind:?}"
        );
    }
}

/// What a read-only participant costs today, pinned before anyone skips it
/// (ROADMAP item 3 makes the read-only skip conditional on this showing a
/// forced record at a guardian that only read). The action reads at `g1`
/// and writes at `g0`, its coordinator. On every organization `g1` pays
///
/// * **2 device forces** — a `prepared` record with an empty MOS forced
///   before its vote, and a `committed` record forced before its
///   acknowledgement — for an action that changed nothing there, and
/// * **4 delivered messages** — prepare, vote, commit, acknowledgement —
///
/// next to the coordinator's 1 force. A read-only participant that released
/// its locks and dropped out at the vote would cost 0 forces and 2 messages.
/// This test changes no behaviour; it is the number that skip has to beat.
#[test]
fn a_read_only_participant_costs_two_forces_and_four_messages() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = w.begin(g0).unwrap();
        let config = handle(&w, g1, "config");
        w.read(g1, a, config).unwrap();
        let data = handle(&w, g0, "data");
        w.write_atomic(g0, a, data, |v| *v = Value::Int(1)).unwrap();

        let forces = |w: &World| [g0, g1].map(|g| w.fault_plan(g).unwrap().op_counts().forces);
        let (before, mail) = (forces(&w), w.network().delivered());
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed, "{kind:?}");
        let after = forces(&w);
        assert_eq!(
            after[1] - before[1],
            2,
            "{kind:?}: forces where it only read"
        );
        assert_eq!(
            after[0] - before[0],
            1,
            "{kind:?}: forces at the coordinator"
        );
        // Every message of this commit is to or from `g1`.
        assert_eq!(w.network().delivered() - mail, 4, "{kind:?}");
    }
}

#[test]
fn read_locks_are_released_on_local_abort() {
    let (mut w, g0, g1) = setup(RsKind::Hybrid);
    let a = w.begin(g0).unwrap();
    let config = handle(&w, g1, "config");
    w.read(g1, a, config).unwrap();
    w.abort_local(a);

    let b = w.begin(g1).unwrap();
    w.write_atomic(g1, b, config, |v| *v = Value::Int(12))
        .unwrap();
    assert_eq!(w.commit(b).unwrap(), Outcome::Committed);
}

#[test]
fn crashed_read_only_participant_aborts_the_action() {
    // If the read-only participant loses its locks in a crash before the
    // prepare, the action must abort — the read it performed is no longer
    // protected.
    let (mut w, g0, g1) = setup(RsKind::Hybrid);
    let a = w.begin(g0).unwrap();
    let config = handle(&w, g1, "config");
    w.read(g1, a, config).unwrap();
    let data = handle(&w, g0, "data");
    w.write_atomic(g0, a, data, |v| *v = Value::Int(99))
        .unwrap();

    w.crash(g1);
    w.restart(g1).unwrap();
    assert_eq!(w.commit(a).unwrap(), Outcome::Aborted);
    assert_eq!(
        w.guardian(g0)
            .unwrap()
            .heap
            .read_value(handle(&w, g0, "data"), None)
            .unwrap(),
        &Value::Int(0)
    );
}
