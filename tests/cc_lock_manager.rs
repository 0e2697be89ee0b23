//! S10: the lock manager under the `World` — FIFO blocking and wake-up,
//! shared grants, upgrade bypass, deadlock victim selection, lock-wait
//! timeout, crash draining, in-doubt lock re-grant after recovery, requests
//! of the wrong kind, same-seed determinism of the contended mix, and a
//! grant pump that skips fronts it already refused doing exactly what one
//! that tries every front does. Every scenario ends with the I1–I11 lint
//! hook.

mod common;

use argus::guardian::{
    CcFate, CcOutcome, CcPolicy, Outcome, RsKind, World, WorldConfig, WorldError,
};
use argus::objects::{GuardianId, HeapError, HeapId, ObjRef, Value};
use argus::sim::{CostModel, DetRng};
use argus::workload::{Contended, ContendedConfig};

fn world(policy: CcPolicy) -> World {
    World::with_config(CostModel::fast(), WorldConfig::with_cc(policy))
}

/// One guardian with one committed `Seq([])` object every test can write.
fn seq_setup(policy: CcPolicy) -> (World, GuardianId, HeapId) {
    let mut w = world(policy);
    let g = w.add_guardian(RsKind::Hybrid).unwrap();
    let setup = w.begin(g).unwrap();
    let h = w.create_atomic(g, setup, Value::Seq(vec![])).unwrap();
    w.set_stable(g, setup, "obj", Value::heap_ref(h)).unwrap();
    assert_eq!(w.commit(setup).unwrap(), Outcome::Committed);
    (w, g, h)
}

/// Every deadlock `tracer` recorded, as `(victim_seq, cycle_len)`: the
/// world keeps no report of its own, and a `deadlock_victim` instant names
/// the victim in its key and the cycle's length in its argument.
fn deadlock_victims(tracer: &argus::trace::Tracer) -> Vec<(u64, u64)> {
    let events = tracer.events().into_iter();
    let victims = events.filter(|e| e.kind == argus::trace::Kind::DeadlockVictim);
    victims.map(|e| (e.key.unwrap().seq, e.args[0])).collect()
}

fn push(k: i64) -> impl FnOnce(&mut Value) + 'static {
    move |v| {
        if let Value::Seq(items) = v {
            items.push(Value::Int(k));
        }
    }
}

fn seq_of(w: &World, g: GuardianId, h: HeapId) -> Vec<i64> {
    match w.guardian(g).unwrap().heap.read_value(h, None).unwrap() {
        Value::Seq(items) => items
            .iter()
            .map(|v| match v {
                Value::Int(n) => *n,
                other => panic!("non-int item {other:?}"),
            })
            .collect(),
        other => panic!("not a seq: {other:?}"),
    }
}

#[test]
fn blocked_writers_wake_in_fifo_order() {
    let (mut w, g, h) = seq_setup(CcPolicy::Blocking);
    let a1 = w.begin(g).unwrap();
    let a2 = w.begin(g).unwrap();
    let a3 = w.begin(g).unwrap();
    assert_eq!(
        w.submit_write_atomic(g, a1, h, push(1)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(
        w.submit_write_atomic(g, a2, h, push(2)).unwrap(),
        CcOutcome::Parked
    );
    assert_eq!(
        w.submit_write_atomic(g, a3, h, push(3)).unwrap(),
        CcOutcome::Parked
    );
    assert_eq!(w.cc_waiter_count(), 2);

    // a1's commit releases the write lock; exactly the queue head wakes.
    assert_eq!(w.commit(a1).unwrap(), Outcome::Committed);
    assert!(!w.cc_blocked(a2), "queue head not granted on release");
    assert!(w.cc_blocked(a3), "second waiter overtook the FIFO queue");
    assert_eq!(w.commit(a2).unwrap(), Outcome::Committed);
    assert!(!w.cc_blocked(a3));
    assert_eq!(w.commit(a3).unwrap(), Outcome::Committed);

    // The buffered writes ran in grant order.
    assert_eq!(seq_of(&w, g, h), vec![1, 2, 3]);
    common::lint_world(&mut w);
}

#[test]
fn compatible_readers_wake_together() {
    let (mut w, g, h) = seq_setup(CcPolicy::Blocking);
    let writer = w.begin(g).unwrap();
    let r1 = w.begin(g).unwrap();
    let r2 = w.begin(g).unwrap();
    assert_eq!(
        w.submit_write_atomic(g, writer, h, push(1)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(w.submit_read(g, r1, h).unwrap(), CcOutcome::Parked);
    assert_eq!(w.submit_read(g, r2, h).unwrap(), CcOutcome::Parked);

    // Both shared requests are compatible: one release wakes them both.
    assert_eq!(w.commit(writer).unwrap(), Outcome::Committed);
    assert!(!w.cc_blocked(r1) && !w.cc_blocked(r2));
    // The grant is the read lock; the re-issued read sees the committed
    // value (read-only participants still commit to release their locks).
    assert_eq!(w.read(g, r1, h).unwrap(), Value::Seq(vec![Value::Int(1)]));
    assert_eq!(w.commit(r1).unwrap(), Outcome::Committed);
    assert_eq!(w.commit(r2).unwrap(), Outcome::Committed);
    common::lint_world(&mut w);
}

#[test]
fn upgrade_bypasses_the_queue() {
    let (mut w, g, h) = seq_setup(CcPolicy::Blocking);
    let reader = w.begin(g).unwrap();
    let other = w.begin(g).unwrap();
    assert_eq!(w.submit_read(g, reader, h).unwrap(), CcOutcome::Done);
    assert_eq!(
        w.submit_write_atomic(g, other, h, push(9)).unwrap(),
        CcOutcome::Parked
    );
    // The sole reader upgrades in place rather than queueing behind the
    // parked writer — queueing would deadlock against its own read lock.
    assert_eq!(
        w.submit_write_atomic(g, reader, h, push(1)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(w.commit(reader).unwrap(), Outcome::Committed);
    assert!(!w.cc_blocked(other));
    assert_eq!(w.commit(other).unwrap(), Outcome::Committed);
    assert_eq!(seq_of(&w, g, h), vec![1, 9]);
    common::lint_world(&mut w);
}

#[test]
fn deadlock_breaks_with_the_youngest_as_victim() {
    let tracer = argus::trace::Tracer::new();
    let _scope = tracer.enter();
    let (mut w, g, x) = seq_setup(CcPolicy::Blocking);
    let setup = w.begin(g).unwrap();
    let y = w.create_atomic(g, setup, Value::Seq(vec![])).unwrap();
    w.set_stable(g, setup, "obj2", Value::heap_ref(y)).unwrap();
    assert_eq!(w.commit(setup).unwrap(), Outcome::Committed);

    let a1 = w.begin(g).unwrap();
    let a2 = w.begin(g).unwrap();
    assert_eq!(
        w.submit_write_atomic(g, a1, x, push(1)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(
        w.submit_write_atomic(g, a2, y, push(2)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(
        w.submit_write_atomic(g, a1, y, push(1)).unwrap(),
        CcOutcome::Parked
    );
    // a2 → x closes the cycle; the youngest action (a2) is the victim and
    // its abort unblocks a1 immediately.
    assert_eq!(
        w.submit_write_atomic(g, a2, x, push(2)).unwrap(),
        CcOutcome::Parked
    );
    assert_eq!(w.take_cc_fate(a2), Some(CcFate::Victim));
    assert!(w.take_cc_fate(a2).is_none(), "a fate is taken once");
    assert!(w.take_cc_fate(a1).is_none());
    assert!(
        !w.cc_blocked(a1),
        "survivor still parked after victim abort"
    );
    assert_eq!(deadlock_victims(&tracer), [(a2.seq, 2)]);

    assert_eq!(w.commit(a1).unwrap(), Outcome::Committed);
    assert_eq!(seq_of(&w, g, x), vec![1]);
    assert_eq!(seq_of(&w, g, y), vec![1]);
    common::lint_world(&mut w);
}

#[test]
fn lock_wait_expires_at_the_deadline() {
    let (mut w, g, h) = seq_setup(CcPolicy::Timeout);
    let holder = w.begin(g).unwrap();
    let waiter = w.begin(g).unwrap();
    assert_eq!(
        w.submit_write_atomic(g, holder, h, push(1)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(
        w.submit_write_atomic(g, waiter, h, push(2)).unwrap(),
        CcOutcome::Parked
    );
    let deadline = w.cc_next_deadline().expect("parked wait has a deadline");
    assert!(deadline > w.clock.now());

    // Nothing expires before the deadline…
    assert!(!w.cc_tick());
    assert!(w.cc_blocked(waiter));
    // …and exactly the due waiter expires at it.
    w.clock.advance_to(deadline);
    assert!(w.cc_tick());
    assert_eq!(w.take_cc_fate(waiter), Some(CcFate::TimedOut));
    assert!(!w.cc_blocked(waiter));

    assert_eq!(w.commit(holder).unwrap(), Outcome::Committed);
    assert_eq!(seq_of(&w, g, h), vec![1]);
    common::lint_world(&mut w);
}

fn wrong_kind<T: std::fmt::Debug>(result: Result<T, WorldError>) {
    assert!(
        matches!(result, Err(WorldError::Heap(HeapError::WrongKind { .. }))),
        "expected a wrong-kind refusal, got {result:?}"
    );
}

/// A mutex mutation on an atomic object used to take the object's write
/// lock and then fail, leaving the lock behind — and, parked behind a
/// writer, to panic that writer's commit when the grant ran it. Now it is
/// refused before it locks or parks anything.
#[test]
fn a_mutex_request_on_an_atomic_object_takes_no_lock() {
    let (mut w, g, h) = seq_setup(CcPolicy::Blocking);
    let a1 = w.begin(g).unwrap();
    let a2 = w.begin(g).unwrap();
    assert_eq!(
        w.submit_write_atomic(g, a1, h, push(1)).unwrap(),
        CcOutcome::Done
    );
    // Where it would have parked behind a1's write lock…
    wrong_kind(w.submit_mutate_mutex(g, a2, h, push(2)));
    assert!(!w.cc_blocked(a2));
    assert_eq!(w.cc_waiter_count(), 0);
    assert_eq!(w.commit(a1).unwrap(), Outcome::Committed);
    // …and where it would have taken the free lock, blocking or not.
    wrong_kind(w.submit_mutate_mutex(g, a2, h, push(2)));
    wrong_kind(w.mutate_mutex(g, a2, h, push(2)));
    assert!(w.guardian(g).unwrap().heap.locks_held_by(a2).is_empty());
    w.abort_local(a2);
    let a3 = w.begin(g).unwrap();
    assert_eq!(
        w.submit_write_atomic(g, a3, h, push(3)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(w.commit(a3).unwrap(), Outcome::Committed);
    assert_eq!(seq_of(&w, g, h), vec![1, 3]);
    common::lint_world(&mut w);
}

/// The converse: an atomic write on a mutex used to seize it and then fail,
/// leaving the possession behind for every later mutation to wait on.
#[test]
fn an_atomic_write_on_a_mutex_seizes_nothing() {
    let (mut w, g, _) = seq_setup(CcPolicy::Blocking);
    let m = w.create_mutex(g, Value::Seq(vec![])).unwrap();
    let a1 = w.begin(g).unwrap();
    wrong_kind(w.submit_write_atomic(g, a1, m, push(1)));
    wrong_kind(w.write_atomic(g, a1, m, push(1)));
    assert!(w.guardian(g).unwrap().heap.locks_held_by(a1).is_empty());
    let a2 = w.begin(g).unwrap();
    assert_eq!(
        w.submit_mutate_mutex(g, a2, m, push(2)).unwrap(),
        CcOutcome::Done
    );
    w.abort_local(a1);
    assert_eq!(w.commit(a2).unwrap(), Outcome::Committed);
    assert_eq!(seq_of(&w, g, m), vec![2]);
    common::lint_world(&mut w);
}

/// The grant pump tries a front again only when the front changed or its
/// guardian's heap released something, and returns at once when nothing
/// moved at all. It must grant exactly what a pump that tries every front
/// on every pass grants, in the same order and passes: the two leave the
/// same Chrome trace — every lock wait and deadlock victim in it — byte for
/// byte, over the contended mix (blocking and timeout) and a 16-shard
/// sharded world, three seeds each.
#[test]
fn the_remembering_pump_grants_what_trying_every_front_grants() {
    use argus::workload::{Sharded, ShardedConfig};
    let run = |exhaustive: bool, mix: &str, policy: CcPolicy, seed: u64| {
        let reg = argus::obs::Registry::new();
        let tracer = argus::trace::Tracer::new();
        let (_r, _t) = (reg.enter(), tracer.enter());
        let mut w = world(policy);
        if exhaustive {
            w.probe_every_front();
        }
        let stats = if mix == "contended" {
            let cfg = ContendedConfig {
                concurrency: 8,
                transfers_per_slot: 12,
            };
            let mix = Contended::setup(&mut w, RsKind::Hybrid, cfg).unwrap();
            format!("{:?}", mix.run(&mut w, &mut DetRng::new(seed)).unwrap())
        } else {
            let cfg = ShardedConfig {
                shards: 16,
                users: 256,
                concurrency: 32,
                actions: 256,
                ..Default::default()
            };
            let mix = Sharded::setup(&mut w, RsKind::Redo, cfg).unwrap();
            format!("{:?}", mix.run(&mut w, &mut DetRng::new(seed)).unwrap())
        };
        w.run_until_quiet().unwrap();
        (
            stats,
            argus::trace::to_chrome_json(&tracer.events()),
            reg.counter("cc.waits").get(),
        )
    };
    let mut waits = 0;
    for (mix, policy) in [
        ("contended", CcPolicy::Blocking),
        ("contended", CcPolicy::Timeout),
        ("sharded", CcPolicy::Blocking),
    ] {
        for seed in [3, 11, 25] {
            let remembering = run(false, mix, policy, seed);
            let exhaustive = run(true, mix, policy, seed);
            let what = format!("{mix} {policy:?} seed {seed}");
            assert_eq!(remembering.0, exhaustive.0, "{what}: stats");
            assert!(
                remembering.1 == exhaustive.1,
                "{what}: Chrome trace diverged"
            );
            waits += remembering.2;
        }
    }
    assert!(
        waits > 100,
        "only {waits} lock waits: the pump was hardly exercised"
    );
}

#[test]
fn crash_drains_waiters_parked_on_the_dead_heap() {
    let mut w = world(CcPolicy::Blocking);
    let g0 = w.add_guardian(RsKind::Hybrid).unwrap();
    let g1 = w.add_guardian(RsKind::Hybrid).unwrap();
    let setup = w.begin(g1).unwrap();
    let h = w.create_atomic(g1, setup, Value::Seq(vec![])).unwrap();
    w.set_stable(g1, setup, "obj", Value::heap_ref(h)).unwrap();
    assert_eq!(w.commit(setup).unwrap(), Outcome::Committed);

    let holder = w.begin(g0).unwrap();
    let waiter = w.begin(g0).unwrap();
    assert_eq!(
        w.submit_write_atomic(g1, holder, h, push(1)).unwrap(),
        CcOutcome::Done
    );
    assert_eq!(
        w.submit_write_atomic(g1, waiter, h, push(2)).unwrap(),
        CcOutcome::Parked
    );

    // The guardian holding the contested object dies: the lock (and the
    // whole volatile heap) is gone, so the parked request must not hang.
    w.crash(g1);
    assert!(!w.cc_blocked(waiter), "waiter still parked on a dead heap");
    assert_eq!(w.take_cc_fate(waiter), Some(CcFate::CrashDrained));
    assert_eq!(w.cc_waiter_count(), 0);

    // The holder's in-flight action cannot commit its g1 write any more;
    // abort it and bring the guardian back.
    w.abort_local(holder);
    w.restart(g1).unwrap();
    assert_eq!(seq_of(&w, g1, h), Vec::<i64>::new());
    common::lint_world(&mut w);
}

/// Crash both sides of a distributed transfer after the participant logged
/// `prepared` but before it learned the verdict; restart only the
/// participant. Recovery must re-grant the in-doubt action's write lock, a
/// new writer must queue behind it, and the coordinator's return must
/// resolve the action, release the lock, and wake the waiter.
fn in_doubt_regrant(kind: RsKind) {
    let mut witnessed = false;
    for budget in 0..150u64 {
        let mut w = world(CcPolicy::Blocking);
        let g0 = w.add_guardian(kind).unwrap();
        let g1 = w.add_guardian(kind).unwrap();
        for (g, name) in [(g0, "a0"), (g1, "a1")] {
            let setup = w.begin(g).unwrap();
            let h = w.create_atomic(g, setup, Value::Int(100)).unwrap();
            w.set_stable(g, setup, name, Value::heap_ref(h)).unwrap();
            assert_eq!(w.commit(setup).unwrap(), Outcome::Committed);
        }
        let resolve = |w: &World, g: GuardianId, name: &str| -> HeapId {
            match w.guardian(g).unwrap().stable_value(name) {
                Some(Value::Ref(ObjRef::Heap(h))) => h,
                other => panic!("unresolved {name}: {other:?}"),
            }
        };

        let a = w.begin(g0).unwrap();
        let h0 = resolve(&w, g0, "a0");
        let h1 = resolve(&w, g1, "a1");
        w.write_atomic(g0, a, h0, |v| {
            if let Value::Int(n) = v {
                *n -= 30;
            }
        })
        .unwrap();
        w.write_atomic(g1, a, h1, |v| {
            if let Value::Int(n) = v {
                *n += 30;
            }
        })
        .unwrap();
        w.arm_crash_after_writes(g1, budget).unwrap();
        let _ = w.commit(a).unwrap();
        if w.is_up(g1) {
            continue; // the budget outlived the whole commit
        }
        w.crash(g1);
        w.crash(g0); // verdict source gone: the participant stays in doubt
        w.restart(g1).unwrap();
        w.run_until_quiet().unwrap();

        let h1 = resolve(&w, g1, "a1");
        if !w.guardian(g1).unwrap().heap.holds_lock(h1, a) {
            continue; // crashed outside the prepared-but-unresolved window
        }
        witnessed = true;

        // The in-doubt action holds the re-granted write lock; a new writer
        // queues behind it instead of seizing the object.
        let b = w.begin(g1).unwrap();
        assert_eq!(
            w.submit_write_atomic(g1, b, h1, |v| {
                if let Value::Int(n) = v {
                    *n += 1;
                }
            })
            .unwrap(),
            CcOutcome::Parked,
            "{kind:?} budget {budget}: new writer did not queue behind the in-doubt holder"
        );

        // The coordinator returns; two-phase commit resolves the in-doubt
        // action either way, releasing its locks and waking the waiter.
        w.restart(g0).unwrap();
        w.run_until_quiet().unwrap();
        w.requery_in_doubt().unwrap();
        assert!(
            !w.cc_blocked(b),
            "{kind:?} budget {budget}: waiter still parked after resolution"
        );
        assert!(w.take_cc_fate(b).is_none());
        assert_eq!(w.commit(b).unwrap(), Outcome::Committed);
        let balance = match w.guardian(g1).unwrap().heap.read_value(h1, None).unwrap() {
            Value::Int(n) => *n,
            other => panic!("bad balance {other:?}"),
        };
        assert!(
            balance == 131 || balance == 101,
            "{kind:?} budget {budget}: split balance {balance}"
        );
        common::lint_world(&mut w);
    }
    assert!(
        witnessed,
        "{kind:?}: no crash budget produced an in-doubt participant"
    );
}

#[test]
fn in_doubt_holder_keeps_its_lock_after_recovery_simple() {
    in_doubt_regrant(RsKind::Simple);
}

#[test]
fn in_doubt_holder_keeps_its_lock_after_recovery_hybrid() {
    in_doubt_regrant(RsKind::Hybrid);
}

#[test]
fn contended_mix_is_deterministic_across_runs() {
    for policy in [
        CcPolicy::ConflictAbort,
        CcPolicy::Blocking,
        CcPolicy::Timeout,
    ] {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut w = world(policy);
            let mix = Contended::setup(&mut w, RsKind::Hybrid, ContendedConfig::default()).unwrap();
            let mut rng = DetRng::new(99);
            let stats = mix.run(&mut w, &mut rng).unwrap();
            assert_eq!(mix.total_balance(&w).unwrap(), mix.expected_total());
            let balances: Vec<Value> = (0..8)
                .map(|i| {
                    let h = match w
                        .guardian(mix.guardian())
                        .unwrap()
                        .stable_value(&format!("hot{i}"))
                    {
                        Some(Value::Ref(ObjRef::Heap(h))) => h,
                        other => panic!("unresolved hot{i}: {other:?}"),
                    };
                    w.guardian(mix.guardian())
                        .unwrap()
                        .heap
                        .read_value(h, None)
                        .unwrap()
                        .clone()
                })
                .collect();
            common::lint_world(&mut w);
            runs.push((stats, balances));
        }
        // Same seed ⇒ identical schedule (commit order), abort set, and
        // final tables (per-account balances).
        assert_eq!(runs[0], runs[1], "{policy:?}");
    }
}

/// Victim choice is pinned: the world keeps begin order only for live
/// actions (an entry goes when its action resolves), and since only live
/// actions sit on wait-for cycles that must pick exactly the victims a
/// begin-order table that never forgets picked. The digests are of the
/// same-seed deadlock victims — `(victim_seq, cycle_len)` of every broken
/// cycle, in detection order — of E14's smoke cell and of a 16-shard
/// sharded mix.
///
/// Re-pinned once, when the world stopped keeping a report of every
/// deadlock it broke: what is left of one is its `deadlock_victim` trace
/// instant, which names the victim and the cycle's length, not its
/// members. The literals were taken from the old reports, reduced to those
/// two fields, before the reports went — the same victims, in the same
/// order.
#[test]
fn deadlock_victims_are_the_ones_an_unbounded_begin_order_picked() {
    use argus::workload::{Sharded, ShardedConfig};
    let digest = |reg: &argus::obs::Registry, tracer: &argus::trace::Tracer| {
        assert_eq!(tracer.dropped(), 0, "the trace lost events");
        let victims = deadlock_victims(tracer);
        assert_eq!(victims.len() as u64, reg.counter("cc.victims").get());
        let text = format!("{victims:?}");
        (victims.len(), argus::slog::crc32(text.as_bytes()))
    };

    let (reg, tracer) = (argus::obs::Registry::new(), argus::trace::Tracer::new());
    let scope = (reg.enter(), tracer.enter());
    let mut w = World::with_config(
        CostModel::default(),
        WorldConfig::with_cc(CcPolicy::Blocking),
    );
    let cfg = ContendedConfig {
        concurrency: 8,
        transfers_per_slot: 8,
    };
    let mix = Contended::setup(&mut w, RsKind::Hybrid, cfg).unwrap();
    mix.run(&mut w, &mut DetRng::new(14)).unwrap();
    assert_eq!(digest(&reg, &tracer), (11, 4_238_972_404), "E14 smoke cell");
    drop(scope);

    let (reg, tracer) = (argus::obs::Registry::new(), argus::trace::Tracer::new());
    let _scope = (reg.enter(), tracer.enter());
    let mut w = World::with_config(
        CostModel::default(),
        WorldConfig::with_cc(CcPolicy::Blocking),
    );
    let cfg = ShardedConfig {
        shards: 16,
        users: 2_560,
        concurrency: 32,
        actions: 512,
        ..Default::default()
    };
    let mix = Sharded::setup(&mut w, RsKind::Redo, cfg).unwrap();
    mix.run(&mut w, &mut DetRng::new(21)).unwrap();
    assert_eq!(
        digest(&reg, &tracer),
        (26, 3_729_963_400),
        "16-shard sharded mix"
    );
}
