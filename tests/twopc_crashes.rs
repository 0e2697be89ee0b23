//! S8: the §2.2.3 crash matrix, driven exhaustively by fault injection.
//!
//! For every crash budget (the number of low-level page writes a node is
//! allowed before it dies) and for both the participant and the coordinator
//! side, run a distributed transfer, crash, restart, reconverge — and check
//! the all-or-nothing invariant: the two balances always sum to the same
//! total, and the two guardians agree on whether the transfer happened.

use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{ObjRef, Value};

/// Sets up two guardians each holding one account with 100 units.
/// Returns (world, g0, g1).
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
    for g in [g0, g1] {
        let a = w.begin(g).unwrap();
        let account = w.create_atomic(g, a, Value::Int(100)).unwrap();
        w.set_stable(g, a, "acct", Value::heap_ref(account))
            .unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
    }
    (w, g0, g1)
}

fn balance(w: &World, g: argus::objects::GuardianId) -> i64 {
    let guardian = w.guardian(g).unwrap();
    match guardian.stable_value("acct") {
        Some(Value::Ref(ObjRef::Heap(h))) => match guardian.heap.read_value(h, None) {
            Ok(Value::Int(b)) => *b,
            other => panic!("bad balance: {other:?}"),
        },
        other => panic!("unresolved account: {other:?}"),
    }
}

/// Runs a 30-unit transfer g0→g1 with a crash armed at `victim` after
/// `budget` writes, restarts everything, and checks consistency. Returns
/// whether the armed crash actually fired.
fn run_case(kind: RsKind, victim_is_coordinator: bool, budget: u64) -> bool {
    let (mut w, g0, g1) = setup(kind);
    let victim = if victim_is_coordinator { g0 } else { g1 };

    let a = w.begin(g0).unwrap();
    let from = {
        let guardian = w.guardian(g0).unwrap();
        match guardian.stable_value("acct") {
            Some(Value::Ref(ObjRef::Heap(h))) => h,
            _ => unreachable!(),
        }
    };
    let to = {
        let guardian = w.guardian(g1).unwrap();
        match guardian.stable_value("acct") {
            Some(Value::Ref(ObjRef::Heap(h))) => h,
            _ => unreachable!(),
        }
    };
    w.write_atomic(g0, a, from, |v| {
        if let Value::Int(b) = v {
            *b -= 30;
        }
    })
    .unwrap();
    w.write_atomic(g1, a, to, |v| {
        if let Value::Int(b) = v {
            *b += 30;
        }
    })
    .unwrap();

    w.arm_crash_after_writes(victim, budget).unwrap();
    let outcome = w.commit(a).unwrap();
    let crashed = !w.is_up(victim);
    if crashed {
        w.crash(victim); // ensure marked down before restart
        w.restart(victim).unwrap();
        w.run_until_quiet().unwrap();
        w.requery_in_doubt().unwrap();
    } else {
        // Disarm for the rest of the run.
        let _ = outcome;
    }

    // Invariant 1: money is conserved.
    let b0 = balance(&w, g0);
    let b1 = balance(&w, g1);
    assert_eq!(
        b0 + b1,
        200,
        "{kind:?} victim_coord={victim_is_coordinator} budget={budget}"
    );
    // Invariant 2: all-or-nothing — either both sides moved or neither did.
    assert!(
        (b0, b1) == (70, 130) || (b0, b1) == (100, 100),
        "{kind:?} victim_coord={victim_is_coordinator} budget={budget}: split ({b0},{b1})"
    );
    // Invariant 3: if the coordinator reported Committed, the transfer must
    // be visible after every restart.
    if outcome == Outcome::Committed {
        assert_eq!(
            (b0, b1),
            (70, 130),
            "{kind:?} budget={budget}: lost a committed action"
        );
    }
    crashed
}

#[test]
fn participant_crash_matrix() {
    for kind in RsKind::ALL {
        let mut fired = 0;
        for budget in 0..120 {
            if run_case(kind, false, budget) {
                fired += 1;
            }
        }
        // Every budget below the protocol's actual write count is a
        // distinct crash point; organizations differ in how many writes the
        // window contains (the simple log's is the smallest).
        assert!(
            fired >= 2,
            "{kind:?}: crash injection barely fired ({fired})"
        );
    }
}

#[test]
fn coordinator_crash_matrix() {
    for kind in RsKind::ALL {
        let mut fired = 0;
        for budget in 0..120 {
            if run_case(kind, true, budget) {
                fired += 1;
            }
        }
        assert!(
            fired >= 2,
            "{kind:?}: crash injection barely fired ({fired})"
        );
    }
}

#[test]
fn double_crash_and_recovery() {
    // Crash the participant mid-protocol AND the coordinator right after,
    // then restart both: the system must still converge consistently.
    for kind in RsKind::ALL {
        for budget in [5u64, 20, 50, 80] {
            let (mut w, g0, g1) = setup(kind);
            let a = w.begin(g0).unwrap();
            for (g, delta) in [(g0, -30i64), (g1, 30)] {
                let h = match w.guardian(g).unwrap().stable_value("acct") {
                    Some(Value::Ref(ObjRef::Heap(h))) => h,
                    _ => unreachable!(),
                };
                w.write_atomic(g, a, h, move |v| {
                    if let Value::Int(b) = v {
                        *b += delta;
                    }
                })
                .unwrap();
            }
            w.arm_crash_after_writes(g1, budget).unwrap();
            let _ = w.commit(a).unwrap();
            w.crash(g0);
            if !w.is_up(g1) {
                w.restart(g1).unwrap();
            }
            w.restart(g0).unwrap();
            w.run_until_quiet().unwrap();
            w.requery_in_doubt().unwrap();
            let (b0, b1) = (balance(&w, g0), balance(&w, g1));
            assert_eq!(b0 + b1, 200, "{kind:?} budget={budget}");
            assert!(
                (b0, b1) == (70, 130) || (b0, b1) == (100, 100),
                "{kind:?} budget={budget}: split ({b0},{b1})"
            );
        }
    }
}
