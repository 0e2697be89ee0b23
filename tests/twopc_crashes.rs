//! S8: the §2.2.3 crash matrix, driven exhaustively by fault injection.
//!
//! For every crash budget (the number of low-level page writes a node is
//! allowed before it dies) and for both the participant and the coordinator
//! side, run a distributed transfer, crash, restart, reconverge — and check
//! the all-or-nothing invariant: the two balances always sum to the same
//! total, and the two guardians agree on whether the transfer happened.
//!
//! Re-pinned once, downward, when the coordinator stopped running the
//! protocol with itself (DESIGN.md deviation 12). Its guardian has one force
//! in a two-guardian commit — the commit point — where it had three, so
//! `coordinator_crash_matrix`'s write countdown finds one crash point on the
//! simple log (one page, budget 0) and its floor reads "fired ≥ 1", not 2;
//! and a coordinator that resumes phase two re-sends `Commit` to the remote
//! participant alone, so `a_coordinator_crash_that_loses_done…` counts 2
//! deliveries (`Commit`, `CommitAck`), not 4.
//! `a_two_guardian_commit_is_all_or_nothing_at_every_device_operation` is
//! the sweep the new commit point needs.
//!
//! Re-pinned once more, downward, for presumed abort (§2.2.3): an aborting
//! coordinator forgets the action as it sends the aborts and nobody
//! acknowledges one, so `an_aborted_distributed_action_leaves_no_record…`
//! counts 3 deliveries (`Prepare`, `PrepareRefused`, `Abort`), not 4.
//!
//! A restart answers only a client still waiting, so `a_coordinator_crash…`
//! finds no verdict booked for the action its client already settled.

mod common;

use argus::check::{ExploreConfig, Explorer};
use argus::core::{LogEntry, PState};
use argus::guardian::{NetFaults, Outcome, RsKind, World, WorldConfig};
use argus::objects::{ActionId, GuardianId, ObjRef, Value};
use argus::sim::CostModel;

/// Sets up two guardians each holding one account with 100 units.
/// Returns (world, g0, g1).
fn setup(kind: RsKind) -> (World, GuardianId, GuardianId) {
    setup_with(kind, WorldConfig::default())
}

fn setup_with(kind: RsKind, cfg: WorldConfig) -> (World, GuardianId, GuardianId) {
    let mut w = World::with_config(CostModel::fast(), cfg);
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

/// Moves `delta` into the account at `g` under `a`.
fn deposit(w: &mut World, g: GuardianId, a: ActionId, delta: i64) {
    let h = match w.guardian(g).unwrap().stable_value("acct") {
        Some(Value::Ref(ObjRef::Heap(h))) => h,
        other => panic!("unresolved account: {other:?}"),
    };
    w.write_atomic(g, a, h, move |v| {
        if let Value::Int(b) = v {
            *b += delta;
        }
    })
    .unwrap();
}

/// A committed 30-unit transfer g0→g1, coordinated at g0.
fn committed_transfer(w: &mut World, g0: GuardianId, g1: GuardianId) -> ActionId {
    let a = w.begin(g0).unwrap();
    deposit(w, g0, a, -30);
    deposit(w, g1, a, 30);
    assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
    a
}

/// Whether `g`'s forced log holds a `done` for `a` (`None`: it keeps no log).
fn done_on_log(w: &mut World, g: GuardianId, a: ActionId) -> Option<bool> {
    let entries = w.dump_log(g).unwrap()?;
    let mut entries = entries.iter();
    Some(entries.any(|(_, e)| matches!(e, LogEntry::Done { aid, .. } if *aid == a)))
}

fn balance(w: &World, g: GuardianId) -> i64 {
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
    deposit(&mut w, g0, a, -30);
    deposit(&mut w, g1, a, 30);

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
        // The coordinator's guardian writes once, at the commit point: on
        // the simple log that is a single page, so a single budget.
        assert!(fired >= 1, "{kind:?}: crash injection never fired");
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
            deposit(&mut w, g0, a, -30);
            deposit(&mut w, g1, a, 30);
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

/// The crash-schedule sweep of a local commit: a crash at every device
/// operation of it — each page of the flush and the one barrier — under both
/// force schedules. The action is all or nothing, an acknowledged commit is
/// durable, and recovery never finds it in doubt.
#[test]
fn a_local_commit_is_all_or_nothing_at_every_device_operation() {
    for kind in RsKind::ALL {
        for cfg in [WorldConfig::default(), WorldConfig::unbatched()] {
            // The oracle run counts the commit's device operations.
            let (mut w, g0, _) = setup_with(kind, cfg);
            let a = w.begin(g0).unwrap();
            deposit(&mut w, g0, a, -30);
            let before = w.fault_plan(g0).unwrap().op_counts();
            let mail = w.network().delivered();
            assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
            let ops = w.fault_plan(g0).unwrap().op_counts().since(&before);
            assert_eq!(ops.forces, 1, "{kind:?}: one force is one device barrier");
            assert_eq!(
                w.network().delivered(),
                mail,
                "{kind:?}: a local commit sends nothing"
            );

            for k in 0..ops.total() {
                let (mut w, g0, _) = setup_with(kind, cfg);
                let a = w.begin(g0).unwrap();
                deposit(&mut w, g0, a, -30);
                w.arm_crash_after_ops(g0, k).unwrap();
                let outcome = w.commit(a).unwrap();
                assert!(!w.is_up(g0), "{kind:?} op {k}: the armed crash never fired");
                assert_ne!(outcome, Outcome::Aborted, "{kind:?} op {k}");
                w.crash(g0);
                let recovered = w.restart(g0).unwrap();
                assert!(
                    recovered.pt.prepared_actions().is_empty(),
                    "{kind:?} op {k}: a local action recovered in doubt"
                );
                let b = balance(&w, g0);
                assert!(b == 100 || b == 70, "{kind:?} op {k}: balance {b}");
                if outcome == Outcome::Committed {
                    assert_eq!(b, 70, "{kind:?} op {k}: lost an acknowledged commit");
                }
                common::lint_world(&mut w);
            }
        }
    }
}

/// The crash-schedule sweep of a two-guardian commit: a crash at every
/// device operation of it, at the coordinator (its one force, the commit
/// point) and at the participant (its two: `prepared`, `committed`), under
/// both force schedules. Both guardians moved or neither did, an
/// acknowledged commit is durable after every restart, and the coordinator
/// never recovers in doubt about its own action — its `prepared` is never
/// durable without `committing` and its own `committed`.
#[test]
fn a_two_guardian_commit_is_all_or_nothing_at_every_device_operation() {
    let configs = [WorldConfig::default(), WorldConfig::unbatched()];
    for (kind, cfg) in RsKind::ALL
        .into_iter()
        .flat_map(|k| configs.map(|c| (k, c)))
    {
        // The oracle run counts each guardian's device operations.
        let (mut w, g0, g1) = setup_with(kind, cfg);
        let a = w.begin(g0).unwrap();
        deposit(&mut w, g0, a, -30);
        deposit(&mut w, g1, a, 30);
        let before = [g0, g1].map(|g| w.fault_plan(g).unwrap().op_counts());
        let mail = w.network().delivered();
        assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
        let ops = [(g0, before[0]), (g1, before[1])]
            .map(|(g, before)| w.fault_plan(g).unwrap().op_counts().since(&before));
        assert_eq!(
            (ops[0].forces, ops[1].forces),
            (1, 2),
            "{kind:?}: one force at the coordinator, two at the participant"
        );
        assert_eq!(
            w.network().delivered() - mail,
            4,
            "{kind:?}: prepare, vote, commit, acknowledgement"
        );

        for (victim_is_coordinator, ops) in [(true, ops[0].total()), (false, ops[1].total())] {
            for k in 0..ops {
                let case = format!("{kind:?} coordinator={victim_is_coordinator} op {k}");
                let (mut w, g0, g1) = setup_with(kind, cfg);
                let victim = if victim_is_coordinator { g0 } else { g1 };
                let a = w.begin(g0).unwrap();
                deposit(&mut w, g0, a, -30);
                deposit(&mut w, g1, a, 30);
                w.arm_crash_after_ops(victim, k).unwrap();
                let outcome = w.commit(a).unwrap();
                assert!(!w.is_up(victim), "{case}: the armed crash never fired");
                w.crash(victim);
                // Reconverge, then take both guardians down once more: what
                // was acknowledged must be what every later restart finds.
                for g in [victim, g0, g1] {
                    w.crash(g);
                    let recovered = w.restart(g).unwrap();
                    w.requery_in_doubt().unwrap();
                    if g == g0 {
                        assert_ne!(
                            recovered.pt.get(a),
                            Some(PState::Prepared),
                            "{case}: the coordinator recovered in doubt about its own action"
                        );
                    }
                }
                let moved = (balance(&w, g0), balance(&w, g1));
                assert!(
                    moved == (70, 130) || moved == (100, 100),
                    "{case}: split {moved:?}"
                );
                if outcome == Outcome::Committed {
                    assert_eq!(moved, (70, 130), "{case}: lost an acknowledged commit");
                }
                if outcome == Outcome::Aborted {
                    assert_eq!(moved, (100, 100), "{case}: an aborted action moved money");
                }
                common::lint_world(&mut w);
            }
        }
    }
}

/// The coordinator's guardian never prepared on its own, so an action that
/// aborts leaves nothing of itself there: no record reaches the log (no
/// device operation at all), its tentative versions and locks go when the
/// abort is decided, and only the remote participant is told.
#[test]
fn an_aborted_distributed_action_leaves_no_record_at_its_coordinator() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = w.begin(g0).unwrap();
        deposit(&mut w, g0, a, -30);
        deposit(&mut w, g1, a, 30);
        // The participant forgets the action: it will refuse the prepare.
        w.crash(g1);
        w.restart(g1).unwrap();

        let before = w.fault_plan(g0).unwrap().op_counts();
        let mail = w.network().delivered();
        assert_eq!(w.commit(a).unwrap(), Outcome::Aborted, "{kind:?}");
        let ops = w.fault_plan(g0).unwrap().op_counts().since(&before);
        assert_eq!(
            ops.total(),
            0,
            "{kind:?}: the coordinator touched its device"
        );
        // Prepare and its refusal, and the abort: nobody acknowledges it.
        assert_eq!(w.network().delivered() - mail, 3, "{kind:?}");
        assert_eq!((balance(&w, g0), balance(&w, g1)), (100, 100), "{kind:?}");

        // Its locks at home are free, and the next force there carries no
        // trace of it.
        committed_transfer(&mut w, g0, g1);
        if let Some(entries) = w.dump_log(g0).unwrap() {
            let of_a = |e: &LogEntry| {
                matches!(e, LogEntry::Prepared { aid, .. } | LogEntry::Committing { aid, .. }
                    | LogEntry::Committed { aid, .. } | LogEntry::Aborted { aid, .. }
                    | LogEntry::Done { aid, .. } if *aid == a)
            };
            assert!(!entries.iter().any(|(_, e)| of_a(e)), "{kind:?}");
        }
        w.crash(g0);
        let recovered = w.restart(g0).unwrap();
        assert_eq!(recovered.pt.get(a), None, "{kind:?}");
        common::lint_world(&mut w);
    }
}

/// `done` is written behind the last acknowledgement and never forced. A
/// coordinator crash before any later force loses it: recovery finds the
/// action `committing`, phase two runs again, the participants re-acknowledge
/// from their durable verdicts and the coordinator finishes a second time.
#[test]
fn a_coordinator_crash_that_loses_done_resumes_committing_and_finishes() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = committed_transfer(&mut w, g0, g1);
        assert_ne!(
            done_on_log(&mut w, g0, a),
            Some(true),
            "{kind:?}: done was forced"
        );

        w.crash(g0);
        let acks = w.network().delivered();
        let recovered = w.restart(g0).unwrap();
        assert_eq!(
            recovered.ct.committing_actions(),
            vec![(a, vec![g0, g1])],
            "{kind:?}: the coordinator must resume phase two"
        );
        // Commit to the remote participant and its acknowledgement: the
        // coordinator's own guardian recovered `committed` with `committing`.
        assert_eq!(w.network().delivered() - acks, 2, "{kind:?}");
        assert_eq!(recovered.pt.get(a), Some(PState::Committed), "{kind:?}");
        // Its client took the verdict before the crash: none is booked again.
        assert_eq!(w.verdict(a), None, "{kind:?}");
        assert_eq!((balance(&w, g0), balance(&w, g1)), (70, 130), "{kind:?}");

        // The rewritten `done` rides the coordinator's next force: after it
        // a restart has nothing left to resume.
        let next = w.begin(g0).unwrap();
        deposit(&mut w, g0, next, 1);
        assert_eq!(w.commit(next).unwrap(), Outcome::Committed);
        assert_ne!(done_on_log(&mut w, g0, a), Some(false), "{kind:?}");
        w.crash(g0);
        let recovered = w.restart(g0).unwrap();
        assert!(recovered.ct.committing_actions().is_empty(), "{kind:?}");
        common::lint_world(&mut w);
    }
}

/// A participant's `committed` rides the next force (DESIGN.md deviation
/// 10): `A` commits across both guardians while `B` runs at the
/// participant, so `A`'s record waits there for `B`'s commit point, and
/// only that force sends `A`'s acknowledgement. A crash of the participant
/// at every device operation up to and including that force loses the
/// record at worst: the participant restarts in doubt and asks, and the
/// coordinator — which forgets `A` only on the acknowledgement — still
/// knows the verdict. `A` ends committed at both guardians, and no verdict
/// is left for a client to take. A housekeeping pass's prologue force
/// publishes the record too.
#[test]
fn a_crash_in_the_lazy_window_leaves_the_participant_in_doubt_not_aborted() {
    // `A` committed, `B` running at the participant with a write of its
    // own there; `A`'s coordinator still awaits its acknowledgement.
    let lazy_window = |kind| {
        let (mut w, g0, g1) = setup(kind);
        let b = w.begin(g1).unwrap();
        w.set_stable(g1, b, "note", Value::Int(1)).unwrap();
        let a = committed_transfer(&mut w, g0, g1);
        let awaiting = w.guardian(g0).unwrap().coordinator(a).map(|c| c.awaiting());
        assert_eq!(awaiting, Some(vec![g1]), "{kind:?}: acknowledged early");
        (w, g0, g1, a, b)
    };
    for kind in RsKind::ALL {
        // The oracle run: `B`'s one force sends `A`'s acknowledgement.
        let (mut w, g0, g1, a, b) = lazy_window(kind);
        let before = w.fault_plan(g1).unwrap().op_counts();
        assert_eq!(w.commit(b).unwrap(), Outcome::Committed, "{kind:?}");
        let ops = w.fault_plan(g1).unwrap().op_counts().since(&before);
        assert_eq!(ops.forces, 1, "{kind:?}: B's commit point alone");
        assert!(w.guardian(g0).unwrap().coordinator(a).is_none(), "{kind:?}");
        common::lint_world(&mut w);
        // Housekeeping's prologue force publishes the record just the same.
        let (mut w, g0, g1, a, _) = lazy_window(kind);
        w.housekeep(g1, kind.housekeeping_modes()[0]).unwrap();
        w.run_until_quiet().unwrap();
        assert!(w.guardian(g0).unwrap().coordinator(a).is_none(), "{kind:?}");

        let mut in_doubt = 0;
        for k in 0..ops.total() {
            let case = format!("{kind:?} op {k}");
            let (mut w, g0, g1, a, b) = lazy_window(kind);
            w.arm_crash_after_ops(g1, k).unwrap();
            assert_eq!(w.commit(b).unwrap(), Outcome::Pending, "{case}");
            assert!(!w.is_up(g1), "{case}: the armed crash never fired");
            let coordinator = w.guardian(g0).unwrap().coordinator(a);
            assert!(coordinator.is_some(), "{case}: forgotten unacknowledged");
            w.crash(g1);
            let recovered = w.restart(g1).unwrap();
            in_doubt += u32::from(recovered.pt.get(a) == Some(PState::Prepared));
            w.requery_in_doubt().unwrap();
            assert!(w.guardian(g0).unwrap().coordinator(a).is_none(), "{case}");
            assert_eq!((balance(&w, g0), balance(&w, g1)), (70, 130), "{case}");
            // `B`'s client, answered `Pending`, stops asking.
            w.abort_local(b);
            assert_eq!((w.verdict(a), w.verdict(b)), (None, None), "{case}");
            assert_eq!(w.retained_actions(), 0, "{case}");
            common::lint_world(&mut w);
        }
        assert!(in_doubt > 0, "{kind:?}: no crash lost A's record");
    }
}

/// Housekeeping while a `done` is still in the log buffer: the pass's
/// prologue forces it, so the new log never holds a `done` without its
/// `committing` (I6) and the finished action is not resumed afterwards.
#[test]
fn housekeeping_with_a_buffered_done_keeps_the_coordinator_records_paired() {
    for kind in RsKind::ALL {
        for &mode in kind.housekeeping_modes() {
            let (mut w, g0, g1) = setup(kind);
            let a = committed_transfer(&mut w, g0, g1);
            w.housekeep(g0, mode).unwrap();
            common::lint_world(&mut w);
            w.crash(g0);
            let recovered = w.restart(g0).unwrap();
            assert!(
                recovered.ct.committing_actions().is_empty(),
                "{kind:?} {mode:?}: {a} resumed after housekeeping"
            );
            assert_eq!((balance(&w, g0), balance(&w, g1)), (70, 130));
            common::lint_world(&mut w);
        }
    }
}

/// The explorer, over the guardians the world runs: a local action (no
/// participants) under two crashes, and the distributed protocol under two
/// crashes and a drop — whose schedules include every crash between a
/// guardian's staging and its force, and a coordinator crash with its
/// unforced `done` still staged — satisfy A1–A4 and termination; no
/// guardian is ever in doubt about an action it coordinates and no message
/// is addressed to its sender.
#[test]
fn the_explorer_accepts_the_local_path_and_a_lost_done() {
    let local = Explorer::new(ExploreConfig {
        participants: 0,
        max_crashes: 2,
        max_drops: 0,
        max_states: 10_000,
        allow_refusal: false,
        eager_restarts: true,
    })
    .run();
    local.assert_ok();
    assert_eq!(local.stats.depth_limited, 0, "the local space is small");
    assert!(local.stats.crash_points > 0 && local.stats.deliveries == 0);

    for (participants, eager_restarts) in [(1, true), (2, false)] {
        let distributed = Explorer::new(ExploreConfig {
            participants,
            max_crashes: 2,
            max_drops: 1,
            max_states: 100_000,
            allow_refusal: true,
            eager_restarts,
        })
        .run();
        distributed.assert_ok();
        assert_eq!(distributed.stats.depth_limited, 0, "{participants}");
        assert!(distributed.stats.crash_points > 0 && distributed.stats.terminal_states > 0);
    }
}

/// A query that arrives while the commit point is staged and not yet forced
/// is not answered: "aborted" can no longer be promised, "committed" is not
/// durable yet. The participant votes while the coordinator sleeps, crashes,
/// restarts in doubt and queries; the coordinator wakes to the vote — the
/// last one, so it stages its commit point — and then the query, before the
/// force. Answering "aborted" there would abort the participant and drop
/// the coordinator's versions while its `committed` record goes to the log.
#[test]
fn a_query_inside_the_commit_point_window_is_not_answered() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = w.begin(g0).unwrap();
        deposit(&mut w, g0, a, -30);
        deposit(&mut w, g1, a, 30);
        w.pause_guardian(g0);
        w.commit_start(a).unwrap();
        w.run_until_quiet().unwrap();
        w.crash(g1);
        w.restart(g1).unwrap();
        w.resume_guardian(g0);
        assert_eq!(w.commit_settle(a).unwrap(), Outcome::Committed, "{kind:?}");
        // What was acknowledged is what both guardians hold, now and after
        // a restart of each.
        for restart in [None, Some(g0), Some(g1)] {
            if let Some(g) = restart {
                w.crash(g);
                w.restart(g).unwrap();
            }
            let moved = (balance(&w, g0), balance(&w, g1));
            assert_eq!(moved, (70, 130), "{kind:?} after restarting {restart:?}");
        }
        common::lint_world(&mut w);
    }
}

/// After faults lift and the timer runs, no guardian holds a machine for
/// `a`, and the two balances are all-or-nothing: `moved` or untouched.
#[track_caller]
fn forgotten_everywhere(w: &mut World, kind: RsKind, a: ActionId, moved: (i64, i64)) {
    w.run_until_quiet().unwrap();
    w.requery_in_doubt().unwrap();
    for g in w.guardian_ids() {
        let gu = w.guardian(g).unwrap();
        let coordinator = gu.coordinator(a).map(|c| (c.phase(), c.awaiting()));
        assert_eq!(coordinator, None, "{kind:?}: {g:?} still coordinates {a}");
        let participant = gu.participant(a).map(|p| p.phase());
        assert_eq!(participant, None, "{kind:?}: {g:?} still takes part in {a}");
    }
    let [g0, g1] = [0, 1].map(GuardianId);
    assert_eq!((balance(w, g0), balance(w, g1)), moved, "{kind:?}");
    common::lint_world(w);
}

/// Presumed abort (§2.2.3). The participant loses the action in a crash and
/// is still down when the coordinator times out, so the `Abort` meets a
/// down guardian and is lost. Nobody re-sends an abort: the coordinator
/// forgets the action as it decides, rather than waiting for an
/// acknowledgement that no one will send.
#[test]
fn a_lost_abort_leaves_no_coordinator_waiting() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = w.begin(g0).unwrap();
        deposit(&mut w, g0, a, -30);
        deposit(&mut w, g1, a, 30);
        w.crash(g1);
        let dropped = w.network().dropped();
        assert_eq!(w.commit(a).unwrap(), Outcome::Aborted, "{kind:?}");
        // The prepare and the abort both met the down participant.
        assert_eq!(w.network().dropped() - dropped, 2, "{kind:?}");
        w.restart(g1).unwrap();
        forgotten_everywhere(&mut w, kind, a, (100, 100));
    }
}

/// An `Abort` after a lost `Prepare` (presumed abort, R*): every message of
/// the commit is lost, so the participant never prepared and holds the
/// action's write lock on its stable root. The coordinator times out and
/// aborts; its `Abort` finds the action known and unprepared there and
/// aborts it on the spot — versions and locks gone, no record written — so
/// the next action there writes the root and nothing is left behind.
#[test]
fn an_abort_after_a_lost_prepare_frees_the_participants_locks() {
    for kind in RsKind::ALL {
        let mut w = World::fast();
        let (g0, g1) = (w.add_guardian(kind).unwrap(), w.add_guardian(kind).unwrap());
        let a = w.begin(g0).unwrap();
        for g in [g0, g1] {
            w.set_stable(g, a, "x", Value::Int(1)).unwrap();
        }
        w.set_network_faults(Some(NetFaults::new(1, 0.0, 0.0).with_drop(1.0)));
        w.commit_start(a).unwrap();
        w.run_until_quiet().unwrap();
        w.set_network_faults(None);
        assert!(
            w.network().fault_dropped() > 0,
            "{kind:?}: the prepare is lost"
        );
        assert_eq!(w.commit_settle(a).unwrap(), Outcome::Aborted, "{kind:?}");

        let later = w.begin(g1).unwrap();
        w.set_stable(g1, later, "x", Value::Int(2)).unwrap();
        assert_eq!(w.commit(later).unwrap(), Outcome::Committed, "{kind:?}");
        let x = w.guardian(g1).unwrap().stable_value("x");
        assert_eq!(x, Some(Value::Int(2)), "{kind:?}");
        assert_eq!(w.retained_actions(), 0, "{kind:?}");
        common::lint_world(&mut w);
    }
}

/// A client told `Pending` is answered once the coordinator is back. The
/// crash takes the coordinator at its first page write — its commit point —
/// so recovery finds nothing of the action: the world answers `Aborted`
/// (presumed abort), neither write shows, and nothing of it is left.
#[test]
fn a_client_told_pending_is_answered_after_the_coordinators_restart() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = w.begin(g0).unwrap();
        deposit(&mut w, g0, a, -30);
        deposit(&mut w, g1, a, 30);
        w.arm_crash_after_writes(g0, 0).unwrap();
        assert_eq!(w.commit(a).unwrap(), Outcome::Pending, "{kind:?}");
        w.crash(g0);
        w.restart(g0).unwrap();
        w.requery_in_doubt().unwrap();
        assert_eq!(w.commit_settle(a).unwrap(), Outcome::Aborted, "{kind:?}");
        assert_eq!((balance(&w, g0), balance(&w, g1)), (100, 100), "{kind:?}");
        assert_eq!(w.retained_actions(), 0, "{kind:?}");
        common::lint_world(&mut w);
    }
}

/// The answer recovery gives a client told `Pending` is the truth: a crash
/// at every device operation of the coordinator's commit point, for a local
/// action and a two-guardian one, and after the restart the client is
/// answered `Committed` exactly where the transfer shows.
#[test]
fn a_pending_client_is_answered_as_recovery_found_the_commit_point() {
    let transfer = |w: &mut World, g0, g1, remote: bool| {
        let a = w.begin(g0).unwrap();
        deposit(w, g0, a, -30);
        if remote {
            deposit(w, g1, a, 30);
        }
        a
    };
    for kind in RsKind::ALL {
        for remote in [false, true] {
            // The oracle run counts the coordinator's device operations.
            let (mut w, g0, g1) = setup(kind);
            let a = transfer(&mut w, g0, g1, remote);
            let before = w.fault_plan(g0).unwrap().op_counts();
            assert_eq!(w.commit(a).unwrap(), Outcome::Committed);
            let ops = w.fault_plan(g0).unwrap().op_counts().since(&before);

            for k in 0..ops.total() {
                let case = format!("{kind:?} remote={remote} op {k}");
                let (mut w, g0, g1) = setup(kind);
                let a = transfer(&mut w, g0, g1, remote);
                w.arm_crash_after_ops(g0, k).unwrap();
                let told = w.commit(a).unwrap();
                assert!(!w.is_up(g0), "{case}: the armed crash never fired");
                w.crash(g0);
                w.restart(g0).unwrap();
                w.requery_in_doubt().unwrap();
                let answer = match told {
                    Outcome::Pending => w.commit_settle(a).unwrap(),
                    told => told,
                };
                let shows = balance(&w, g0) == 70;
                assert_ne!(answer, Outcome::Pending, "{case}");
                assert_eq!(answer == Outcome::Committed, shows, "{case}: {answer:?}");
                assert_eq!(w.retained_actions(), 0, "{case}");
                common::lint_world(&mut w);
            }
        }
    }
}

/// The coordinator's re-send (§2.2.3). The participant commits and forgets
/// the action, and its `CommitAck` is lost: the coordinator is past its
/// commit point and nobody will ask it anything. The timer has it re-send
/// `Commit`, which the forgetful participant re-acknowledges.
#[test]
fn a_lost_commit_ack_is_recovered_by_the_coordinators_resend() {
    for kind in RsKind::ALL {
        let (mut w, g0, g1) = setup(kind);
        let a = w.begin(g0).unwrap();
        deposit(&mut w, g0, a, -30);
        deposit(&mut w, g1, a, 30);
        // Hold the vote, then the commit, then the acknowledgement, so the
        // loss falls on the acknowledgement alone.
        w.pause_guardian(g0);
        w.commit_start(a).unwrap();
        w.run_until_quiet().unwrap();
        w.pause_guardian(g1);
        w.resume_guardian(g0);
        w.run_until_quiet().unwrap();
        w.pause_guardian(g0);
        w.resume_guardian(g1);
        w.run_until_quiet().unwrap();
        assert!(w.guardian(g1).unwrap().participant(a).is_none());
        w.set_network_faults(Some(NetFaults::new(1, 0.0, 0.0).with_drop(1.0)));
        w.resume_guardian(g0);
        w.run_until_quiet().unwrap();
        w.set_network_faults(None);
        assert_eq!(w.network().fault_dropped(), 1, "{kind:?}: the ack is lost");
        forgotten_everywhere(&mut w, kind, a, (70, 130));
        assert_eq!(w.commit_settle(a).unwrap(), Outcome::Committed, "{kind:?}");
    }
}
