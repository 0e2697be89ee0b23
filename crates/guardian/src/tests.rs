//! World-level tests: the §2.2.3 crash matrix across every storage
//! organization.

use crate::{Outcome, RsKind, World};
use argus_objects::Value;

#[test]
fn single_guardian_commit_survives_crash() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g = w.add_guardian(kind).unwrap();
        let a = w.begin(g).unwrap();
        w.set_stable(g, a, "balance", Value::Int(100)).unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);

        w.crash(g);
        w.restart(g).unwrap();
        assert_eq!(
            w.guardian(g).unwrap().stable_value("balance"),
            Some(Value::Int(100)),
            "{kind:?}"
        );
    }
}

#[test]
fn distributed_commit_across_three_guardians() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let gs: Vec<_> = (0..3).map(|_| w.add_guardian(kind).unwrap()).collect();
        let a = w.begin(gs[0]).unwrap();
        for (i, &g) in gs.iter().enumerate() {
            w.set_stable(g, a, "x", Value::Int(i as i64)).unwrap();
        }
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
        for (i, &g) in gs.iter().enumerate() {
            w.crash(g);
            w.restart(g).unwrap();
            assert_eq!(
                w.guardian(g).unwrap().stable_value("x"),
                Some(Value::Int(i as i64)),
                "{kind:?}"
            );
        }
    }
}

#[test]
fn participant_crash_before_prepare_aborts_the_action() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g0 = w.add_guardian(kind).unwrap();
        let g1 = w.add_guardian(kind).unwrap();
        let a0 = w.begin(g0).unwrap();
        w.set_stable(g0, a0, "k", Value::Int(1)).unwrap();
        w.commit(a0).unwrap();

        let a = w.begin(g0).unwrap();
        w.set_stable(g0, a, "k", Value::Int(2)).unwrap();
        w.set_stable(g1, a, "k", Value::Int(2)).unwrap();
        // g1 loses its volatile state (and with it the action) pre-prepare.
        w.crash(g1);
        w.restart(g1).unwrap();
        // The prepare finds the action unknown at g1 → refused → abort.
        assert_eq!(w.commit(a).unwrap(), Outcome::Aborted);
        assert_eq!(
            w.guardian(g0).unwrap().stable_value("k"),
            Some(Value::Int(1)),
            "{kind:?}"
        );
    }
}

#[test]
fn in_doubt_participant_learns_commit_after_restart() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g0 = w.add_guardian(kind).unwrap();
        let g1 = w.add_guardian(kind).unwrap();
        let a = w.begin(g0).unwrap();
        w.set_stable(g0, a, "v", Value::Int(7)).unwrap();
        w.set_stable(g1, a, "v", Value::Int(7)).unwrap();

        // Crash g1 *after* its prepared record: arm the plan to fire during
        // the force of the committed record (prepare succeeded, commit
        // interrupted). We arm generously and drive commit.
        // Instead of counting raw writes, crash g1 right after the whole
        // protocol would deliver the commit: simulate by a mid-protocol
        // crash — prepare completes, then we crash before the verdict can
        // be processed by pausing at the message level.
        //
        // Deterministic route: run the commit, then crash g1 and verify its
        // recovered state is already committed; the in-doubt path proper is
        // exercised below with the armed fault plan.
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
        w.crash(g1);
        let out = w.restart(g1).unwrap();
        assert!(
            out.pt
                .iter()
                .any(|(_, s)| *s == argus_core::PState::Committed),
            "{kind:?}"
        );
        assert_eq!(
            w.guardian(g1).unwrap().stable_value("v"),
            Some(Value::Int(7))
        );
    }
}

#[test]
fn armed_crash_during_commit_leaves_participant_in_doubt_then_resolves() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g0 = w.add_guardian(kind).unwrap();
        let g1 = w.add_guardian(kind).unwrap();
        let a = w.begin(g0).unwrap();
        w.set_stable(g0, a, "v", Value::Int(7)).unwrap();
        w.set_stable(g1, a, "v", Value::Int(7)).unwrap();

        // g1's prepare writes several pages; let the prepare succeed but
        // tear the *commit* force: count the writes a prepare needs by
        // arming far enough to cover it. The exact budget depends on the
        // organization, so probe: find a budget where the outcome is
        // Committed at the coordinator but g1 is down.
        let mut resolved = false;
        for budget in 1..200 {
            let mut w = World::fast();
            let g0 = w.add_guardian(kind).unwrap();
            let g1 = w.add_guardian(kind).unwrap();
            let a = w.begin(g0).unwrap();
            w.set_stable(g0, a, "v", Value::Int(7)).unwrap();
            w.set_stable(g1, a, "v", Value::Int(7)).unwrap();
            w.arm_crash_after_writes(g1, budget).unwrap();
            let outcome = w.commit(a).unwrap();
            if outcome == Outcome::Committed && !w.is_up(g1) {
                // g1 crashed somewhere at-or-after its prepared record.
                let out = w.restart(g1).unwrap();
                let _ = out;
                w.run_until_quiet().unwrap();
                // After restart + query/redelivery, g1 must converge to the
                // committed value.
                assert_eq!(
                    w.guardian(g1).unwrap().stable_value("v"),
                    Some(Value::Int(7)),
                    "{kind:?} budget={budget}"
                );
                resolved = true;
                break;
            }
        }
        assert!(
            resolved,
            "no budget produced a committed-with-crash run for {kind:?}"
        );
        let _ = (g0, g1, a, &mut w);
    }
}

#[test]
fn coordinator_crash_before_committing_aborts() {
    for kind in RsKind::ALL {
        // Arm the coordinator to die inside its commit point — its only
        // write: the participant prepared, the coordinator forgot → its
        // query is answered "abort".
        let mut done = false;
        for budget in 0..200 {
            let mut w = World::fast();
            let g0 = w.add_guardian(kind).unwrap();
            let g1 = w.add_guardian(kind).unwrap();
            let a0 = w.begin(g0).unwrap();
            w.set_stable(g1, a0, "k", Value::Int(1)).unwrap();
            w.commit(a0).unwrap();

            let a = w.begin(g0).unwrap();
            w.set_stable(g1, a, "k", Value::Int(2)).unwrap();
            w.arm_crash_after_writes(g0, budget).unwrap();
            let outcome = w.commit(a).unwrap();
            if outcome == Outcome::Pending && !w.is_up(g0) && w.is_up(g1) {
                // Coordinator died; participant g1 may be in doubt.
                w.restart(g0).unwrap();
                // If the coordinator never logged `committing`, recovery
                // forgets the action; g1's query gets "aborted" — unless the
                // committing record made it, in which case phase two resumes
                // and g1 commits. Either way the system must converge.
                w.run_until_quiet().unwrap();
                let v = w.guardian(g1).unwrap().stable_value("k");
                assert!(
                    v == Some(Value::Int(1)) || v == Some(Value::Int(2)),
                    "{kind:?} budget={budget}: diverged to {v:?}"
                );
                // And g1 must not be left in doubt.
                let g1_ref = w.guardian(g1).unwrap();
                assert!(g1_ref.participants.is_empty(), "{kind:?} budget={budget}");
                done = true;
            }
        }
        assert!(done, "no budget produced a coordinator crash for {kind:?}");
    }
}

#[test]
fn aborted_action_rolls_back_everywhere() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g0 = w.add_guardian(kind).unwrap();
        let g1 = w.add_guardian(kind).unwrap();
        let a0 = w.begin(g0).unwrap();
        w.set_stable(g0, a0, "x", Value::Int(1)).unwrap();
        w.set_stable(g1, a0, "y", Value::Int(1)).unwrap();
        w.commit(a0).unwrap();

        let a = w.begin(g0).unwrap();
        w.set_stable(g0, a, "x", Value::Int(9)).unwrap();
        w.set_stable(g1, a, "y", Value::Int(9)).unwrap();
        w.abort_local(a);
        assert_eq!(
            w.guardian(g0).unwrap().stable_value("x"),
            Some(Value::Int(1))
        );
        assert_eq!(
            w.guardian(g1).unwrap().stable_value("y"),
            Some(Value::Int(1))
        );
        // And after crashes the aborted values stay gone.
        w.crash(g0);
        w.restart(g0).unwrap();
        assert_eq!(
            w.guardian(g0).unwrap().stable_value("x"),
            Some(Value::Int(1)),
            "{kind:?}"
        );
    }
}

#[test]
fn object_graphs_survive_crashes() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g = w.add_guardian(kind).unwrap();
        let a = w.begin(g).unwrap();
        let leaf = w.create_atomic(g, a, Value::Int(42)).unwrap();
        let node = w
            .create_atomic(g, a, Value::Seq(vec![Value::heap_ref(leaf)]))
            .unwrap();
        w.set_stable(g, a, "tree", Value::heap_ref(node)).unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);

        w.crash(g);
        w.restart(g).unwrap();
        let guardian = w.guardian(g).unwrap();
        let tree = guardian.stable_value("tree").unwrap();
        let node_h = match tree {
            Value::Ref(argus_objects::ObjRef::Heap(h)) => h,
            other => panic!("{kind:?}: expected a resolved pointer, got {other}"),
        };
        let node_v = guardian.heap.read_value(node_h, None).unwrap();
        let leaf_h = match node_v {
            Value::Seq(items) => match items.as_slice() {
                [Value::Ref(argus_objects::ObjRef::Heap(h))] => *h,
                other => panic!("{kind:?}: bad node {other:?}"),
            },
            other => panic!("{kind:?}: bad node {other}"),
        };
        assert_eq!(
            guardian.heap.read_value(leaf_h, None).unwrap(),
            &Value::Int(42)
        );
    }
}

#[test]
fn mutex_objects_work_end_to_end() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g = w.add_guardian(kind).unwrap();
        let a = w.begin(g).unwrap();
        let m = w.create_mutex(g, Value::Int(0)).unwrap();
        w.set_stable(g, a, "counter", Value::heap_ref(m)).unwrap();
        w.mutate_mutex(g, a, m, |v| *v = Value::Int(5)).unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);

        w.crash(g);
        w.restart(g).unwrap();
        let guardian = w.guardian(g).unwrap();
        let m_h = match guardian.stable_value("counter").unwrap() {
            Value::Ref(argus_objects::ObjRef::Heap(h)) => h,
            other => panic!("{kind:?}: {other}"),
        };
        assert_eq!(
            guardian.heap.read_value(m_h, None).unwrap(),
            &Value::Int(5),
            "{kind:?}"
        );
    }
}

#[test]
fn early_prepare_speeds_up_the_hybrid_prepare() {
    let mut w = World::fast();
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let a = w.begin(g).unwrap();
    w.set_stable(g, a, "a", Value::Int(1)).unwrap();
    w.early_prepare(g, a).unwrap();
    // Nothing left in the MOS: the prepare only forces the outcome entry.
    assert!(w
        .guardian(g)
        .unwrap()
        .mos
        .get(&a)
        .map(|m| m.is_empty())
        .unwrap_or(true));
    assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
    w.crash(g);
    w.restart(g).unwrap();
    assert_eq!(
        w.guardian(g).unwrap().stable_value("a"),
        Some(Value::Int(1))
    );
}

#[test]
fn housekeeping_under_live_traffic() {
    use argus_core::HousekeepingMode;
    for mode in [HousekeepingMode::Compaction, HousekeepingMode::Snapshot] {
        let mut w = World::fast();
        let g = w.add_guardian(RsKind::Hybrid).unwrap();
        for i in 0..20 {
            let a = w.begin(g).unwrap();
            w.set_stable(g, a, "n", Value::Int(i)).unwrap();
            w.commit(a).unwrap();
        }
        w.housekeep(g, mode).unwrap();
        let a = w.begin(g).unwrap();
        w.set_stable(g, a, "n", Value::Int(99)).unwrap();
        w.commit(a).unwrap();
        w.crash(g);
        w.restart(g).unwrap();
        assert_eq!(
            w.guardian(g).unwrap().stable_value("n"),
            Some(Value::Int(99)),
            "{mode:?}"
        );
    }
}

/// A local commit leaves nothing per action behind at its guardian: no
/// participant machine, no resolved verdict, no coordinator entry, and its
/// `known` entry goes when it finishes — no other guardian took part, so
/// none can ever ask about it. 10⁴ of them leave every one of those
/// collections the size one leaves them (the same holds for the action's
/// MOS and coordinator machine, which every commit path drops).
#[test]
fn ten_thousand_local_commits_leave_no_per_action_residue() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g = w.add_guardian(kind).unwrap();
        let residue = |w: &World| {
            let gu = w.guardian(g).unwrap();
            [
                gu.known.len(),
                gu.resolved.len(),
                gu.coord_done.len(),
                gu.participants.len(),
                gu.coordinators.len(),
                gu.mos.len(),
            ]
        };
        for i in 0..10_000 {
            let a = w.begin(g).unwrap();
            w.set_stable(g, a, "n", Value::Int(i)).unwrap();
            assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
            assert_eq!(residue(&w), [0; 6], "{kind:?} after commit {i}");
        }
        // One that cannot commit (its guardian forgot it in a crash) aborts
        // just as cleanly: nothing is added to what recovery rebuilt.
        let a = w.begin(g).unwrap();
        w.set_stable(g, a, "n", Value::Int(-1)).unwrap();
        w.crash(g);
        w.restart(g).unwrap();
        let recovered = residue(&w);
        assert_eq!(w.commit(a).unwrap(), Outcome::Aborted);
        assert_eq!(residue(&w), recovered, "{kind:?} after an abort");
        assert_eq!(
            w.guardian(g).unwrap().stable_value("n"),
            Some(Value::Int(9_999)),
            "{kind:?}"
        );
    }
}
