//! Crashes *during* housekeeping and *during* recovery: until the atomic
//! switch, the old log is the truth; a crash at any point of a housekeeping
//! pass must recover the same state as if the pass had never started, and a
//! crash at any device operation of recovery itself must leave a state from
//! which the next recovery converges to the very same tables and heap.

use argus::core::providers::MemProvider;
use argus::core::{HybridLogRs, RecoverySystem, RedoRs, SimpleLogRs};
use argus::guardian::RsKind;
use argus::objects::{ActionId, GuardianId, Heap, Value};
use argus::shadow::ShadowRs;
use argus::sim::{CostModel, SimClock};
use argus::stable::FaultPlan;

mod common;

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

/// Builds a recovery system of the given organization whose whole storage
/// stack shares `plan`.
fn rs_with_plan(kind: RsKind, plan: FaultPlan) -> Box<dyn RecoverySystem> {
    let provider = MemProvider {
        clock: SimClock::new(),
        model: CostModel::fast(),
        plan: Some(plan),
    };
    match kind {
        RsKind::Simple => Box::new(SimpleLogRs::create(provider).unwrap()),
        RsKind::Hybrid => Box::new(HybridLogRs::create(provider).unwrap()),
        RsKind::Shadow => Box::new(ShadowRs::create(provider).unwrap()),
        RsKind::Redo => Box::new(RedoRs::create(provider).unwrap()),
    }
}

/// Commits `n` root updates through any recovery system.
fn build_history(
    rs: &mut dyn RecoverySystem,
    heap: &mut Heap,
    n: u64,
) -> Result<(), argus::core::RsError> {
    for i in 0..n {
        let a = aid(i + 1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a)?;
        heap.write_value(root, a, |v| *v = Value::Int(i as i64))?;
        rs.prepare(a, &[root], heap)?;
        rs.commit(a)?;
        heap.commit_action(a);
    }
    Ok(())
}

/// Recovers and lints, returning the committed root value.
fn recover_and_lint(rs: &mut dyn RecoverySystem) -> Value {
    rs.simulate_crash().unwrap();
    let mut heap = Heap::new();
    let out = rs.recover(&mut heap).unwrap();
    if let Some(entries) = rs.dump_log().unwrap() {
        common::lint_entries_against(entries, &out);
    }
    let root = heap.stable_root().unwrap();
    heap.read_value(root, None).unwrap().clone()
}

#[test]
fn crash_mid_housekeeping_recovers_from_the_old_log() {
    // Sweep the crash point through the whole housekeeping pass, for every
    // organization and every mode it supports.
    for kind in RsKind::ALL {
        for &mode in kind.housekeeping_modes() {
            let mut fired = 0;
            for budget in 0..400u64 {
                let plan = FaultPlan::new();
                let mut rs = rs_with_plan(kind, plan.clone());
                let mut heap = Heap::with_stable_root();
                build_history(rs.as_mut(), &mut heap, 40).unwrap();

                plan.arm_after_ops(budget);
                let result = rs.housekeeping(&heap, mode);
                plan.heal();
                plan.disarm();
                if result.is_ok() {
                    // Crash fired after the pass (or not at all): covered by
                    // the success-path tests.
                    continue;
                }
                fired += 1;
                assert_eq!(
                    recover_and_lint(rs.as_mut()),
                    Value::Int(39),
                    "{kind:?}/{mode:?} budget={budget}"
                );
            }
            // The new log is written buffered and forced once, and the whole
            // history folds into a couple of pages, so the distinct crash
            // points are few — but each device operation (the new log's
            // superblock and its barrier, the data pages, the force's one
            // barrier) is exercised.
            assert!(
                fired >= 3,
                "{kind:?}/{mode:?}: housekeeping crash injection fired only {fired} times"
            );
        }
    }
}

#[test]
fn crash_between_stages_recovers_from_the_old_log() {
    for kind in RsKind::ALL {
        for &mode in kind.housekeeping_modes() {
            let mut rs = rs_with_plan(kind, FaultPlan::new());
            let mut heap = Heap::with_stable_root();
            build_history(rs.as_mut(), &mut heap, 10).unwrap();

            rs.begin_housekeeping(&heap, mode).unwrap();
            // Activity during the window…
            let a = aid(100);
            let root = heap.stable_root().unwrap();
            heap.acquire_write(root, a).unwrap();
            heap.write_value(root, a, |v| *v = Value::Int(777)).unwrap();
            rs.prepare(a, &[root], &heap).unwrap();
            rs.commit(a).unwrap();
            heap.commit_action(a);

            // …then the node dies before finish_housekeeping: the old log
            // (which has the 777 commit) is still the active one.
            assert_eq!(
                recover_and_lint(rs.as_mut()),
                Value::Int(777),
                "{kind:?}/{mode:?}"
            );

            // And a later housekeeping pass over the recovered system works.
            rs.simulate_crash().unwrap();
            let mut heap2 = Heap::new();
            rs.recover(&mut heap2).unwrap();
            rs.housekeeping(&heap2, mode).unwrap();
            assert_eq!(
                recover_and_lint(rs.as_mut()),
                Value::Int(777),
                "{kind:?}/{mode:?} after post-recovery housekeeping"
            );
        }
    }
}

#[test]
fn recovery_is_idempotent() {
    // Recover, then crash immediately (no new work) and recover again: the
    // second recovery must produce the identical stable state and tables —
    // for every organization.
    for kind in RsKind::ALL {
        let mut rs = rs_with_plan(kind, FaultPlan::new());
        let mut heap = Heap::with_stable_root();
        build_history(rs.as_mut(), &mut heap, 12).unwrap();
        // Leave one action in doubt, too.
        let a = aid(50);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(-1)).unwrap();
        rs.prepare(a, &[root], &heap).unwrap();

        rs.simulate_crash().unwrap();
        let mut heap1 = Heap::new();
        let out1 = rs.recover(&mut heap1).unwrap();

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out2 = rs.recover(&mut heap2).unwrap();

        assert_eq!(out1.entries_examined, out2.entries_examined, "{kind:?}");
        assert_eq!(out1.data_entries_read, out2.data_entries_read, "{kind:?}");
        assert_eq!(
            out1.pt.prepared_actions(),
            out2.pt.prepared_actions(),
            "{kind:?}"
        );
        assert_eq!(out1.ot.len(), out2.ot.len(), "{kind:?}");
        let r1 = heap1.stable_root().unwrap();
        let r2 = heap2.stable_root().unwrap();
        assert_eq!(
            heap1.read_value(r1, None).unwrap(),
            heap2.read_value(r2, None).unwrap(),
            "{kind:?}"
        );
        assert_eq!(
            heap1.read_value(r1, Some(a)).unwrap(),
            heap2.read_value(r2, Some(a)).unwrap(),
            "{kind:?}"
        );

        if let Some(entries) = rs.dump_log().unwrap() {
            common::lint_entries_against(entries, &out2);
        }
    }
}

#[test]
fn recovery_survives_a_crash_at_every_device_op() {
    // Crash *inside* recovery — at every device operation it performs, reads
    // included — then recover again: the re-run must converge to the same
    // state a never-interrupted recovery produces. Recovery reads through
    // the fault plan, so `arm_after_ops` can land the crash in the middle of
    // the backward scan.
    for kind in RsKind::ALL {
        let plan = FaultPlan::new();
        let mut rs = rs_with_plan(kind, plan.clone());
        let mut heap = Heap::with_stable_root();
        build_history(rs.as_mut(), &mut heap, 12).unwrap();
        // An in-doubt prepare keeps the PT non-trivial across recoveries.
        let a = aid(50);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(-1)).unwrap();
        rs.prepare(a, &[root], &heap).unwrap();

        // Reference: an untroubled recovery, and its device-op budget.
        let before = plan.op_counts();
        let reference = recover_and_lint(rs.as_mut());
        let ops = plan.op_counts().since(&before).total();
        assert!(ops > 0, "{kind:?}: recovery must touch the device");

        let mut fired = 0;
        for j in 0..ops {
            plan.arm_after_ops(j);
            let result = rs.simulate_crash().and_then(|()| {
                let mut h = Heap::new();
                rs.recover(&mut h).map(|_| ())
            });
            plan.heal();
            plan.disarm();
            if result.is_err() {
                fired += 1;
            }
            // Whether or not the armed crash fired, the next recovery must
            // reach the reference state.
            assert_eq!(
                recover_and_lint(rs.as_mut()),
                reference,
                "{kind:?}: recovery diverged after a crash at device op {j}"
            );
        }
        assert!(
            fired > 0,
            "{kind:?}: no mid-recovery crash fired in {ops} ops"
        );
    }
}
