//! World-level tests: the §2.2.3 crash matrix across every storage
//! organization — and, below them, a guardian stepped alone: no `World`, no
//! network, its effects read straight out of the buffer.

use crate::guardian::{Effects, Input, StagedOp, Touch};
use crate::{Guardian, Outcome, RsKind, World, WorldConfig};
use argus_cc::LockMode;
use argus_core::providers::MemProvider;
use argus_core::{
    HousekeepingMode, HybridLogRs, LogStats, RecoveryOutcome, RecoverySystem, RsError, RsResult,
};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, Value};
use argus_twopc::{Envelope, Msg};

#[test]
fn each_organization_parses_from_its_one_name() {
    for kind in RsKind::ALL {
        assert_eq!(kind.name(), format!("{kind:?}").to_lowercase());
        assert_eq!(kind.name().parse(), Ok(kind));
    }
    let unknown = "lsm".parse::<RsKind>();
    assert_eq!(unknown, Err("unknown organization \"lsm\"".to_string()));
}

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
                assert!(g1_ref.actions.is_empty(), "{kind:?} budget={budget}");
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
    let row = w.guardian(g).unwrap().actions.get(&a);
    assert!(row.is_none_or(|row| row.mos.is_empty()));
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

/// A local commit leaves nothing per action behind, at its guardian or in
/// the world: its guardian's row goes when it finishes and the world's once
/// `commit` took its verdict. After 10⁴ of them a restart rebuilds nothing
/// for any, and one that cannot commit (its guardian forgot it in the
/// crash) aborts as cleanly.
#[test]
fn ten_thousand_local_commits_leave_no_per_action_residue() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g = w.add_guardian(kind).unwrap();
        for i in 0..10_000 {
            let a = w.begin(g).unwrap();
            w.set_stable(g, a, "n", Value::Int(i)).unwrap();
            assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
            assert_eq!(w.retained_actions(), 0, "{kind:?} after commit {i}");
        }
        let a = w.begin(g).unwrap();
        w.set_stable(g, a, "n", Value::Int(-1)).unwrap();
        w.crash(g);
        w.restart(g).unwrap();
        assert_eq!(w.retained_actions(), 1, "{kind:?}: all but a's record");
        assert_eq!(w.commit(a).unwrap(), Outcome::Aborted);
        assert_eq!(w.retained_actions(), 0, "{kind:?} after an abort");
        assert_eq!(
            w.guardian(g).unwrap().stable_value("n"),
            Some(Value::Int(9_999)),
            "{kind:?}"
        );
    }
}

// ---- the one record per live action ------------------------------------------

/// An action is live from `begin` until it resolves, and the one record
/// lists every guardian it touched, once, in id order. A verdict is taken
/// once: `commit` hands it out and keeps nothing, and a local abort books
/// none — its caller knows it.
#[test]
fn a_live_action_is_one_record_from_begin_to_verdict() {
    let mut w = World::fast();
    let gs: Vec<_> = (0..3)
        .map(|_| w.add_guardian(RsKind::Hybrid).unwrap())
        .collect();
    let shared = w.create_mutex(gs[2], Value::Int(0)).unwrap();
    let (a, b) = (w.begin(gs[0]).unwrap(), w.begin(gs[1]).unwrap());
    assert_eq!(w.live_actions(), [a, b].into());

    w.read(gs[2], a, shared).unwrap();
    assert_eq!(w.live[&a].touched.as_slice(), [gs[0], gs[2]]);
    // Writing where it also reads lists the guardian once.
    w.set_stable(gs[1], a, "x", Value::Int(1)).unwrap();
    let root = w.guardian(gs[1]).unwrap().heap.stable_root().unwrap();
    w.read(gs[1], a, root).unwrap();
    assert_eq!(w.live[&a].touched.as_slice(), gs);

    assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
    assert!(!w.live.contains_key(&a));
    // While `b` runs, `a`'s verdicts at the participants wait for a force
    // there, and its coordinator for their acknowledgements.
    assert_eq!(w.live_actions(), [a, b].into());
    assert_eq!(w.verdict(a), None);
    assert_eq!(w.commit_settle(a).unwrap(), Outcome::Pending);
    w.abort_local(b);
    w.run_until_quiet().unwrap();
    assert!(w.live_actions().is_empty() && w.live.is_empty());
    assert_eq!(w.verdict(b), None);
    assert_eq!(w.retained_actions(), 0);
}

/// `abort_local` gives back every lock the record names — read locks at a
/// guardian the action only read at included — and an action that touches
/// an object after its verdict is live again, with no second trace span,
/// until it is aborted again.
#[test]
fn abort_local_releases_where_the_record_says_and_a_late_touch_is_tracked() {
    let tracer = argus_trace::Tracer::new();
    let _scope = tracer.enter();
    let mut w = World::fast();
    let (g0, g1) = (
        w.add_guardian(RsKind::Simple).unwrap(),
        w.add_guardian(RsKind::Simple).unwrap(),
    );
    let a = w.begin(g0).unwrap();
    let obj = w.create_atomic(g1, a, Value::Int(7)).unwrap();
    w.set_stable(g1, a, "x", Value::Int(1)).unwrap();
    w.abort_local(a);
    let locks_at = |w: &World, g| w.guardian(g).unwrap().heap.locks_held_by(a);
    assert!(locks_at(&w, g0).is_empty() && locks_at(&w, g1).is_empty());
    assert!(w.live_actions().is_empty());

    // The driver has not noticed the abort and reads on.
    w.read(g1, a, obj).unwrap();
    assert_eq!(locks_at(&w, g1).len(), 1);
    assert_eq!(w.live_actions(), [a].into());
    assert_eq!(w.live[&a].began_at, None);
    w.abort_local(a);
    assert!(locks_at(&w, g1).is_empty() && w.live.is_empty());
    let spans = tracer.events();
    assert_eq!(spans.iter().filter(|e| e.name() == "action").count(), 1);
}

/// A crash drains the waiters parked on the dead heap: each is aborted
/// through its record, so the locks it held at the *surviving* guardians
/// go too and nothing of it stays live.
#[test]
fn a_crash_drains_parked_actions_through_their_records() {
    let mut w = World::with_config(
        argus_sim::CostModel::fast(),
        WorldConfig::with_cc(argus_cc::CcPolicy::Blocking),
    );
    let (g0, g1) = (
        w.add_guardian(RsKind::Redo).unwrap(),
        w.add_guardian(RsKind::Redo).unwrap(),
    );
    let root1 = w.guardian(g1).unwrap().heap.stable_root().unwrap();
    let holder = w.begin(g1).unwrap();
    w.set_stable(g1, holder, "x", Value::Int(1)).unwrap();
    // The waiter writes at home, then parks behind `holder` at `g1`.
    let waiter = w.begin(g0).unwrap();
    w.set_stable(g0, waiter, "y", Value::Int(2)).unwrap();
    let parked = w.submit_write_atomic(g1, waiter, root1, |_| {}).unwrap();
    assert_eq!(parked, argus_cc::CcOutcome::Parked);
    assert_eq!(w.live_actions(), [holder, waiter].into());

    w.crash(g1);
    let fate = Some(argus_cc::CcFate::CrashDrained);
    assert_eq!(
        (w.take_cc_fate(waiter), w.take_cc_fate(waiter)),
        (fate, None)
    );
    assert_eq!(w.verdict(waiter), None);
    assert!(w
        .guardian(g0)
        .unwrap()
        .heap
        .locks_held_by(waiter)
        .is_empty());
    // `holder` never parked: it stays live until its driver gives up on it.
    assert_eq!(w.live_actions(), [holder].into());
    assert_eq!(w.live.len(), 1);
}

// ---- a guardian alone ---------------------------------------------------------

/// The organizations whose commit point is buffered for the next force
/// (shadowing's is durable as it stands: nothing waits, no deadline).
const STAGING: [RsKind; 3] = [RsKind::Simple, RsKind::Hybrid, RsKind::Redo];

fn lone(id: u32, kind: RsKind) -> Guardian {
    Guardian::new(
        GuardianId(id),
        kind,
        argus_sim::SimClock::new(),
        argus_sim::CostModel::fast(),
        &WorldConfig::default(),
        argus_trace::Tracer::new(),
        &argus_obs::Registry::new(),
    )
    .unwrap()
}

/// Has `aid` bind the stable variable `x` at `g`, as `World::set_stable` would.
fn wrote_x(g: &mut Guardian, aid: ActionId) {
    let root = g.heap.stable_root().unwrap();
    g.lock(aid, root, LockMode::Exclusive).unwrap();
    let bind = Guardian::bind_stable("x", Value::Int(1));
    assert!(g.apply(aid, root, Touch::Write(bind)).unwrap());
}

fn mail(from: u32, to: u32, msg: Msg) -> Envelope {
    let (from, to) = (GuardianId(from), GuardianId(to));
    Envelope { from, to, msg }
}

/// One step, its effects returned instead of applied.
fn step(g: &mut Guardian, input: Input) -> Effects {
    let mut fx = Effects::default();
    g.step(input, &mut fx).unwrap();
    fx
}

#[test]
fn a_prepare_for_an_unknown_action_is_refused_without_touching_the_device() {
    for kind in RsKind::ALL {
        let mut g = lone(1, kind);
        let aid = ActionId::new(GuardianId(0), 7);
        let ops = g.plan.op_counts();
        let fx = step(&mut g, Input::Message(mail(0, 1, Msg::Prepare { aid })));
        let refusal = mail(1, 0, Msg::PrepareRefused { aid });
        let only_mail = Effects {
            send: vec![refusal],
            ..Effects::default()
        };
        assert_eq!(fx, only_mail, "{kind:?}");
        assert!(g.staged.is_empty() && g.actions.is_empty(), "{kind:?}");
        assert_eq!(g.plan.op_counts(), ops, "{kind:?}: no device operation");
    }
}

#[test]
fn a_duplicate_prepare_does_nothing() {
    for kind in RsKind::ALL {
        let mut g = lone(1, kind);
        let aid = ActionId::new(GuardianId(0), 7);
        wrote_x(&mut g, aid);
        let prepare = || Input::Message(mail(0, 1, Msg::Prepare { aid }));
        let first = step(&mut g, prepare());
        assert_eq!(first.due.len() + first.send.len(), 1, "{kind:?}: {first:?}");
        assert!(g.participant(aid).is_some(), "{kind:?}");
        assert_eq!(step(&mut g, prepare()), Effects::default(), "{kind:?}");
    }
}

#[test]
fn a_local_commit_is_one_deadline_then_one_verdict() {
    for kind in STAGING {
        let mut g = lone(0, kind);
        let aid = g.begin();
        wrote_x(&mut g, aid);
        let fx = step(&mut g, Input::Commit(aid, vec![GuardianId(0)]));
        assert_eq!(fx.due.len(), 1, "{kind:?}: one staged entry, one deadline");
        assert!(fx.send.is_empty() && fx.resolved.is_none() && !fx.crashed);
        assert_eq!(g.stable_value("x"), None, "{kind:?}: not installed yet");

        let mut fx = Effects::default();
        let forced = g.force(&mut fx).unwrap();
        assert_eq!(fx, Effects::default(), "{kind:?}: a force asks for nothing");
        let ops: Vec<StagedOp> = forced.into_iter().map(|(op, _)| op).collect();
        assert_eq!(ops, [StagedOp::CommitPoint(aid)], "{kind:?}");
        let fx = step(&mut g, Input::Forced(ops[0]));
        let only_verdict = Effects {
            resolved: Some((aid, true)),
            ..Effects::default()
        };
        assert_eq!(fx, only_verdict, "{kind:?}");
        assert!(!g.knows(aid), "{kind:?}: a local action is forgotten");
        assert_eq!(g.stable_value("x"), Some(Value::Int(1)), "{kind:?}");
    }
}

#[test]
fn a_crash_in_the_force_runs_no_continuation_and_sends_nothing() {
    for kind in STAGING {
        let mut g = lone(0, kind);
        let aid = g.begin();
        wrote_x(&mut g, aid);
        step(
            &mut g,
            Input::Commit(aid, vec![GuardianId(0), GuardianId(1)]),
        );
        let fx = step(&mut g, Input::Message(mail(1, 0, Msg::PrepareOk { aid })));
        assert_eq!(fx.due.len(), 1, "{kind:?}: the commit point is staged");

        g.plan.arm_after_writes(0);
        let mut fx = Effects::default();
        let forced = g.force(&mut fx).unwrap();
        assert!(
            forced.is_empty(),
            "{kind:?}: the batch died with the buffer"
        );
        let only_crash = Effects {
            crashed: true,
            ..Effects::default()
        };
        assert_eq!(fx, only_crash, "{kind:?}");
        assert!(!g.is_up() && g.staged.is_empty(), "{kind:?}");
        // Down, it answers nothing — not even the continuation it lost.
        let lost = step(&mut g, Input::Forced(StagedOp::CommitPoint(aid)));
        assert_eq!(lost, Effects::default(), "{kind:?}");
    }
}

/// A participant's verdict takes effect at once; its record waits for the
/// next force, and only that sends the acknowledgement. A duplicate
/// `Commit` in between is ignored; a crash in between loses the record, and
/// the participant restarts in doubt and asks.
#[test]
fn a_participants_verdict_rides_the_next_force() {
    for kind in RsKind::ALL {
        for crash in [false, true] {
            let mut g = lone(1, kind);
            let aid = ActionId::new(GuardianId(0), 7);
            wrote_x(&mut g, aid);
            let to_part = |msg| Input::Message(mail(0, 1, msg));
            step_to_durable(&mut g, to_part(Msg::Prepare { aid }));
            let fx = step(&mut g, to_part(Msg::Commit { aid }));
            assert_eq!((fx.due.len(), fx.send.len()), (1, 0), "{kind:?}");
            assert_eq!(g.stable_value("x"), Some(Value::Int(1)), "{kind:?}");
            let again = step(&mut g, to_part(Msg::Commit { aid }));
            assert_eq!(again, Effects::default(), "{kind:?}");
            let mut fx = Effects::default();
            if crash {
                g.crashed();
                g.restart(&mut fx).unwrap();
                let query = mail(1, 0, Msg::QueryOutcome { aid });
                assert_eq!(fx.send, [query], "{kind:?}: in doubt");
                continue;
            }
            let forced = g.force(&mut fx).unwrap();
            assert_eq!(forced.len(), 1, "{kind:?}");
            let ack = step(&mut g, Input::Forced(forced[0].0)).send;
            assert_eq!(ack, [mail(1, 0, Msg::CommitAck { aid })], "{kind:?}");
            assert_eq!(g.retained_actions(), 0, "{kind:?}");
        }
    }
}

/// A crash takes the volatile heap along: a down guardian answers nothing
/// from it, and its restart rebuilds what the log holds.
#[test]
fn a_down_guardian_holds_no_heap() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let g = w.add_guardian(kind).unwrap();
        let a = w.begin(g).unwrap();
        w.set_stable(g, a, "x", Value::Int(42)).unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
        w.crash(g);
        let down = w.guardian(g).unwrap();
        assert_eq!((down.stable_value("x"), down.heap.len()), (None, 0));
        w.restart(g).unwrap();
        let x = w.guardian(g).unwrap().stable_value("x");
        assert_eq!(x, Some(Value::Int(42)), "{kind:?}");
    }
}

/// A coordinator's whole two-guardian commit, fed as a fixed input list;
/// the effects of every step in order.
fn coordinate_a_commit(kind: RsKind) -> Vec<Effects> {
    let mut g = lone(0, kind);
    let aid = g.begin();
    wrote_x(&mut g, aid);
    let from_remote = |msg| Input::Message(mail(1, 0, msg));
    let mut seen = vec![
        step(
            &mut g,
            Input::Commit(aid, vec![GuardianId(0), GuardianId(1)]),
        ),
        step(&mut g, from_remote(Msg::PrepareOk { aid })),
    ];
    let mut fx = Effects::default();
    let forced = g.force(&mut fx).unwrap();
    seen.push(fx);
    for (op, _) in forced {
        seen.push(step(&mut g, Input::Forced(op)));
    }
    seen.push(step(&mut g, from_remote(Msg::CommitAck { aid })));
    seen.push(step(&mut g, Input::Requery));
    seen
}

#[test]
fn the_same_inputs_give_the_same_effects_step_by_step() {
    for kind in RsKind::ALL {
        let (a, b) = (coordinate_a_commit(kind), coordinate_a_commit(kind));
        assert_eq!(a, b, "{kind:?}");
        let aid = ActionId::new(GuardianId(0), 0);
        let sent: Vec<&Envelope> = a.iter().flat_map(|fx| &fx.send).collect();
        let (prepare, commit) = (Msg::Prepare { aid }, Msg::Commit { aid });
        assert_eq!(
            sent,
            [&mail(0, 1, prepare), &mail(0, 1, commit)],
            "{kind:?}"
        );
        let verdicts: Vec<_> = a.iter().filter_map(|fx| fx.resolved).collect();
        assert_eq!(verdicts, [(aid, true)], "{kind:?}");
        assert!(a.iter().all(|fx| !fx.crashed), "{kind:?}");
    }
}

/// A hybrid log that cannot write a prepare: `stage_prepare` fails without
/// a crash, as a prepare the device refuses does.
struct Refusing(HybridLogRs<MemProvider>);

impl RecoverySystem for Refusing {
    fn stage_prepare(&mut self, aid: ActionId, _: &[HeapId], _: &Heap) -> RsResult<bool> {
        Err(RsError::BadState(format!(
            "{aid}'s prepare cannot be written"
        )))
    }
    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool> {
        self.0.stage_commit(aid)
    }
    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        self.0.stage_abort(aid)
    }
    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        self.0.stage_committing(aid, gids)
    }
    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        self.0.stage_done(aid)
    }
    fn force_staged(&mut self) -> RsResult<()> {
        self.0.force_staged()
    }
    fn write_entry(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<Vec<HeapId>> {
        self.0.write_entry(aid, mos, heap)
    }
    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome> {
        self.0.recover(heap)
    }
    fn begin_housekeeping(&mut self, heap: &Heap, mode: HousekeepingMode) -> RsResult<()> {
        self.0.begin_housekeeping(heap, mode)
    }
    fn finish_housekeeping(&mut self) -> RsResult<()> {
        self.0.finish_housekeeping()
    }
    fn simulate_crash(&mut self) -> RsResult<()> {
        self.0.simulate_crash()
    }
    fn discard(&mut self, aid: ActionId) {
        self.0.discard(aid)
    }
    fn trim_access_set(&mut self, heap: &Heap) {
        self.0.trim_access_set(heap)
    }
    fn is_prepared(&self, aid: ActionId) -> bool {
        self.0.is_prepared(aid)
    }
    fn log_stats(&self) -> LogStats {
        self.0.log_stats()
    }
}

/// A participant whose prepare cannot be written refuses its vote and
/// aborts the action on the spot: it keeps no row, no lock and no version,
/// and the coordinator aborts at home and tells it, which finds the action
/// unknown.
#[test]
fn a_prepare_that_cannot_be_written_is_refused_and_aborts_at_both_ends() {
    let mut coord = lone(0, RsKind::Hybrid);
    let rs = Refusing(HybridLogRs::create(MemProvider::fast()).unwrap());
    let mut part: Guardian = Guardian::over(GuardianId(1), Box::new(rs));
    let aid = coord.begin();
    wrote_x(&mut coord, aid);
    wrote_x(&mut part, aid);
    let gids = vec![GuardianId(0), GuardianId(1)];
    let prepare = step(&mut coord, Input::Commit(aid, gids)).send;
    assert_eq!(prepare, [mail(0, 1, Msg::Prepare { aid })]);

    let fx = step(&mut part, Input::Message(prepare[0].clone()));
    let refusal = Effects {
        send: vec![mail(1, 0, Msg::PrepareRefused { aid })],
        ..Effects::default()
    };
    assert_eq!(fx, refusal);
    assert_eq!(
        part.retained_actions(),
        0,
        "the refusing participant keeps no row"
    );
    assert!(part.heap.locks_held_by(aid).is_empty());
    assert_eq!(part.stable_value_as("x", Some(aid)), None);

    let fx = step(&mut coord, Input::Message(refusal.send[0].clone()));
    assert_eq!(fx.resolved, Some((aid, false)));
    assert_eq!(fx.send, [mail(0, 1, Msg::Abort { aid })]);
    assert_eq!(coord.retained_actions(), 0);
    assert!(coord.heap.locks_held_by(aid).is_empty());
    assert_eq!(coord.stable_value_as("x", Some(aid)), None);

    assert_eq!(
        step(&mut part, Input::Message(fx.send[0].clone())),
        Effects::default()
    );
    assert_eq!(part.retained_actions() + coord.retained_actions(), 0);
}

/// Steps `input`, then forces whatever it staged and feeds the
/// continuations back, until nothing is staged; the mail of every step.
fn step_to_durable(g: &mut Guardian, input: Input) -> Vec<Envelope> {
    let mut sent = step(g, input).send;
    while !g.staged.is_empty() {
        let mut fx = Effects::default();
        for (op, _) in g.force(&mut fx).unwrap() {
            sent.extend(step(g, Input::Forced(op)).send);
        }
    }
    sent
}

/// A finished action is forgotten at both ends of two-phase commit: the
/// participant keeps nothing once it acknowledged the verdict, the
/// coordinator nothing once the last acknowledgement is in, and late mail
/// gets what an unknown action gets — a refused prepare, a re-acknowledged
/// commit, "aborted" to a query — without a device operation.
#[test]
fn a_finished_action_is_forgotten_at_both_ends() {
    for kind in RsKind::ALL {
        let (mut part, mut coord) = (lone(1, kind), lone(0, kind));
        let aid = coord.begin();
        wrote_x(&mut coord, aid);
        wrote_x(&mut part, aid);
        let to_part = |msg| Input::Message(mail(0, 1, msg));
        let to_coord = |msg| Input::Message(mail(1, 0, msg));
        let gids = vec![GuardianId(0), GuardianId(1)];
        assert_eq!(step(&mut coord, Input::Commit(aid, gids)).send.len(), 1);
        let vote = step_to_durable(&mut part, to_part(Msg::Prepare { aid }));
        assert_eq!(vote, [mail(1, 0, Msg::PrepareOk { aid })], "{kind:?}");
        step_to_durable(&mut coord, to_coord(Msg::PrepareOk { aid }));
        let ack = step_to_durable(&mut part, to_part(Msg::Commit { aid }));
        assert_eq!(ack, [mail(1, 0, Msg::CommitAck { aid })], "{kind:?}");
        // The client had its verdict at the commit point.
        let fx = step(&mut coord, to_coord(Msg::CommitAck { aid }));
        assert_eq!(fx, Effects::default(), "{kind:?}");
        for g in [&part, &coord] {
            assert_eq!(g.retained_actions(), 0, "{kind:?} at {}", g.id);
        }

        let ops = (part.plan.op_counts(), coord.plan.op_counts());
        let late = step(&mut part, to_part(Msg::Prepare { aid })).send;
        assert_eq!(late, [mail(1, 0, Msg::PrepareRefused { aid })], "{kind:?}");
        let late = step(&mut part, to_part(Msg::Commit { aid })).send;
        assert_eq!(late, [mail(1, 0, Msg::CommitAck { aid })], "{kind:?}");
        let late = step(&mut coord, to_coord(Msg::QueryOutcome { aid })).send;
        let aborted = Msg::Outcome {
            aid,
            committed: false,
        };
        assert_eq!(late, [mail(0, 1, aborted)], "{kind:?}");
        assert_eq!((part.plan.op_counts(), coord.plan.op_counts()), ops);
        assert_eq!(part.retained_actions() + coord.retained_actions(), 0);
    }
}

/// Waves of cross-guardian transfers whose commits overlap (what
/// `argus_workload::Banking::run_overlapped` drives; that crate depends on
/// this one, so the waves are spelled out here), under a network that
/// duplicates and reorders: every envelope the network carried was handed
/// to it by `World::apply`, once.
#[test]
fn the_network_carries_exactly_what_apply_sent() {
    for kind in RsKind::ALL {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let mut w = World::fast();
        let gs: Vec<_> = (0..3).map(|_| w.add_guardian(kind).unwrap()).collect();
        // Four lanes of one account a guardian: the four transfers of a
        // wave never meet on a lock.
        let mut lanes = vec![Vec::new(); 4];
        for &g in &gs {
            let a = w.begin(g).unwrap();
            let mut refs = Vec::new();
            for lane in &mut lanes {
                let h = w.create_atomic(g, a, Value::Int(100)).unwrap();
                lane.push(h);
                refs.push(Value::heap_ref(h));
            }
            w.set_stable(g, a, "accounts", Value::Seq(refs)).unwrap();
            assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
        }
        w.set_network_faults(Some(crate::NetFaults::new(7, 0.2, 0.3)));
        for wave in 0..8 {
            let mut launched = Vec::new();
            for (i, lane) in lanes.iter().enumerate() {
                let (from, to) = ((wave + i) % 3, (wave + i + 1) % 3);
                let a = w.begin(gs[from]).unwrap();
                for (at, delta) in [(from, -1), (to, 1)] {
                    let add = move |v: &mut Value| *v = Value::Int(delta);
                    w.write_atomic(gs[at], a, lane[at], add).unwrap();
                }
                w.commit_start(a).unwrap();
                launched.push(a);
            }
            for a in launched {
                assert_eq!(w.commit_settle(a).unwrap(), Outcome::Committed);
            }
        }
        w.crash(gs[1]);
        w.restart(gs[1]).unwrap();
        let sent = reg.counter("net.sent").get();
        assert!(sent > 0, "{kind:?}");
        assert_eq!(sent, w.mail_applied, "{kind:?}");
    }
}

// ---- a guardian's locks, probed ------------------------------------------------

/// The grant pump asks `grantable` where it used to try the lock. Over
/// random lock states of an atomic object, a mutex and a missing object —
/// every mode, holders and strangers alike — it answers exactly whether
/// `lock` would take the lock.
#[test]
fn grantable_answers_what_lock_would_do() {
    let a = |n| ActionId::new(GuardianId(0), n);
    let modes = [LockMode::Shared, LockMode::Exclusive];
    let mut rng = argus_sim::DetRng::new(25);
    let mut g = lone(0, RsKind::Simple);
    let mut answers = [0; 2];
    for _ in 0..300 {
        let ops: Vec<(u64, usize, LockMode)> = (0..rng.gen_range(5))
            .map(|_| {
                let mode = modes[rng.gen_range(2) as usize];
                (rng.gen_range(3), rng.gen_range(2) as usize, mode)
            })
            .collect();
        for (n, obj, mode) in
            (0..4).flat_map(|n| (0..3).flat_map(move |o| modes.map(|m| (n, o, m))))
        {
            g.reset_heap(argus_objects::Heap::new());
            let objects = [
                g.heap.alloc_atomic(Value::Int(0), None),
                g.heap.alloc_mutex(Value::Int(0)),
                argus_objects::HeapId(7),
            ];
            for &(holder, at, m) in &ops {
                let _ = g.lock(a(holder), objects[at], m);
            }
            let grantable = g.grantable(a(n), objects[obj], mode);
            let took = g.lock(a(n), objects[obj], mode).is_ok();
            assert_eq!(grantable, took, "{ops:?}: {mode:?} on {obj} for {n}");
            answers[usize::from(took)] += 1;
        }
    }
    assert!(answers.iter().all(|&n| n > 1_000), "{answers:?}");
}

/// A refused request is tried again only once the stamp moves: a release
/// or a new object moves it, an acquisition does not, and a restart's new
/// heap — whose own count starts again from zero — never shows an earlier
/// stamp again.
#[test]
fn a_lock_stamp_moves_on_release_and_never_repeats() {
    let (a1, a2) = (
        ActionId::new(GuardianId(0), 1),
        ActionId::new(GuardianId(0), 2),
    );
    let mut g = lone(0, RsKind::Simple);
    let h = g.heap.alloc_atomic(Value::Int(0), None);
    let s0 = g.lock_stamp();
    g.lock(a1, h, LockMode::Exclusive).unwrap();
    g.lock(a2, h, LockMode::Shared).unwrap_err();
    assert_eq!(g.lock_stamp(), s0, "an acquisition or a refusal moved it");
    g.heap.abort_action(a1);
    let s1 = g.lock_stamp();
    assert!(s1 > s0, "a release did not move it");
    g.heap.abort_action(a1);
    assert_eq!(g.lock_stamp(), s1, "releasing nothing moved it");
    let m = g.heap.alloc_mutex(Value::Int(0));
    let s2 = g.lock_stamp();
    assert!(s2 > s1, "a new object did not move it");
    g.lock(a2, m, LockMode::Exclusive).unwrap();
    g.heap.release(m, a2).unwrap();
    let s3 = g.lock_stamp();
    assert!(s3 > s2, "a mutex release did not move it");
    g.reset_heap(argus_objects::Heap::new());
    assert!(g.lock_stamp() > s3, "a restart brought back a stamp");
}

/// A world on real files with no directory given puts each guardian's log
/// in a fresh directory under the OS temp dir. Nothing can reopen it once
/// the world is gone, so the guardian removes it — after surviving a crash
/// and a restart inside it.
#[test]
fn a_file_world_without_a_directory_leaves_none_behind() {
    let prefix = format!("argus-world-{}-", std::process::id());
    let ours = || -> Vec<std::path::PathBuf> {
        let entries = std::fs::read_dir(std::env::temp_dir()).unwrap();
        let names = entries.map(|e| e.unwrap().path());
        names
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .collect()
    };
    let before = ours();
    let cfg = WorldConfig {
        media: crate::MediaKind::File { dir: None },
        ..WorldConfig::default()
    };
    let mut w = World::with_config(argus_sim::CostModel::fast(), cfg);
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let a = w.begin(g).unwrap();
    w.set_stable(g, a, "x", Value::Int(1)).unwrap();
    assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
    w.crash(g);
    w.restart(g).unwrap();
    let made: Vec<_> = ours().into_iter().filter(|p| !before.contains(p)).collect();
    assert_eq!(
        made.len(),
        1,
        "one directory for the one guardian: {made:?}"
    );
    drop(w);
    assert!(
        !made[0].exists(),
        "{} outlived its world",
        made[0].display()
    );
}
