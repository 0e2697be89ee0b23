//! Randomized tests of the volatile heap: two-phase-locking invariants hold
//! under arbitrary interleavings of lock / write / commit / abort.
//!
//! Driven by the in-tree deterministic RNG (`argus::sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible. Gated behind the
//! off-by-default `proptest` feature: `cargo test --features proptest`.

use argus::objects::{ActionId, GuardianId, Heap, HeapId, ObjectBody, Value};
use argus::sim::DetRng;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum HeapOp {
    AcquireRead { actor: u8, obj: u8 },
    AcquireWrite { actor: u8, obj: u8 },
    Write { actor: u8, obj: u8, v: i64 },
    Commit { actor: u8 },
    Abort { actor: u8 },
}

fn gen_op(rng: &mut DetRng) -> HeapOp {
    let actor = rng.gen_range(4) as u8;
    let obj = rng.gen_range(4) as u8;
    match rng.gen_range(5) {
        0 => HeapOp::AcquireRead { actor, obj },
        1 => HeapOp::AcquireWrite { actor, obj },
        2 => HeapOp::Write {
            actor,
            obj,
            v: rng.next_u64() as i64,
        },
        3 => HeapOp::Commit { actor },
        _ => HeapOp::Abort { actor },
    }
}

fn aid(n: u8) -> ActionId {
    ActionId::new(GuardianId(0), n as u64)
}

/// The serializability core: a committed value is only ever replaced by the
/// committing writer's own version; aborts always restore the last committed
/// value; lock invariants (≤1 writer, writer excludes other readers) hold
/// throughout.
#[test]
fn locking_model_invariants() {
    let mut rng = DetRng::new(0x4EA9);
    for case in 0..128 {
        let ops: Vec<HeapOp> = (0..rng.gen_between(1, 60))
            .map(|_| gen_op(&mut rng))
            .collect();
        let mut heap = Heap::new();
        let objs: Vec<HeapId> = (0..4)
            .map(|i| heap.alloc_atomic(Value::Int(i), None))
            .collect();
        // Model: committed value + the pending write per (actor, obj).
        let mut committed: HashMap<u8, i64> = (0..4u8).map(|i| (i, i as i64)).collect();
        let mut pending: HashMap<(u8, u8), i64> = HashMap::new();
        let mut holds_write: HashMap<u8, u8> = HashMap::new(); // obj -> actor

        for op in &ops {
            match *op {
                HeapOp::AcquireRead { actor, obj } => {
                    let allowed = holds_write.get(&obj).map(|w| *w == actor).unwrap_or(true);
                    let result = heap.acquire_read(objs[obj as usize], aid(actor));
                    assert_eq!(result.is_ok(), allowed, "case {case}: read lock {op:?}");
                }
                HeapOp::AcquireWrite { actor, obj } => {
                    let result = heap.acquire_write(objs[obj as usize], aid(actor));
                    if result.is_ok() {
                        // The heap granted it; record in the model. (Reader
                        // sets make exact grant prediction tedious — we
                        // check the *invariant* instead: no second writer.)
                        if let Some(existing) = holds_write.get(&obj) {
                            assert_eq!(*existing, actor, "case {case}: two writers on {obj}");
                        }
                        holds_write.insert(obj, actor);
                    } else if holds_write.get(&obj) == Some(&actor) {
                        panic!("case {case}: re-acquisition by the holder failed");
                    }
                }
                HeapOp::Write { actor, obj, v } => {
                    let result = heap
                        .write_value(objs[obj as usize], aid(actor), |val| *val = Value::Int(v));
                    let holds = holds_write.get(&obj) == Some(&actor);
                    assert_eq!(result.is_ok(), holds, "case {case}: write without lock");
                    if holds {
                        pending.insert((actor, obj), v);
                    }
                }
                HeapOp::Commit { actor } => {
                    heap.commit_action(aid(actor));
                    for obj in 0..4u8 {
                        if holds_write.get(&obj) == Some(&actor) {
                            if let Some(v) = pending.remove(&(actor, obj)) {
                                committed.insert(obj, v);
                            }
                            holds_write.remove(&obj);
                        }
                    }
                    pending.retain(|(a, _), _| *a != actor);
                }
                HeapOp::Abort { actor } => {
                    heap.abort_action(aid(actor));
                    holds_write.retain(|_, a| *a != actor);
                    pending.retain(|(a, _), _| *a != actor);
                }
            }
            // Global invariant: every object's committed (base) version
            // matches the model at every step.
            for obj in 0..4u8 {
                let base = match &heap.get(objs[obj as usize]).unwrap().body {
                    ObjectBody::Atomic(o) => o.base.clone(),
                    _ => unreachable!(),
                };
                assert_eq!(
                    base,
                    Value::Int(committed[&obj]),
                    "case {case}: committed value diverged after {op:?}"
                );
            }
        }
    }
}

/// Uids are never reused, even across interleaved allocation and
/// recovery-style insertion.
#[test]
fn uids_are_never_reused() {
    let mut rng = DetRng::new(0x01D5);
    for case in 0..64 {
        let allocs = rng.gen_between(1, 40) as usize;
        let preset = rng.gen_between(1, 200);
        let mut heap = Heap::new();
        heap.insert_with_uid(
            argus::objects::Uid(preset),
            ObjectBody::Atomic(argus::objects::AtomicObject::new(Value::Unit)),
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        seen.insert(preset);
        for _ in 0..allocs {
            let h = heap.alloc_atomic(Value::Unit, None);
            let uid = heap.uid_of(h).unwrap();
            assert!(seen.insert(uid.0), "case {case}: uid {uid} reused");
        }
    }
}

// ---- indexed release against a reference full scan -------------------------

use argus::core::providers::MemProvider;
use argus::core::{HybridLogRs, RecoveryMode, RecoverySystem, RedoRs, SimpleLogRs};
use argus::objects::ObjectSlot;
use argus::shadow::ShadowRs;

/// What `commit_action` / `abort_action` did before the heap kept a lock
/// index: visit every object and release whatever `aid` holds on it.
fn reference_release(slots: &mut [(HeapId, ObjectSlot)], aid: ActionId, commit: bool) {
    for (_, slot) in slots {
        match &mut slot.body {
            ObjectBody::Atomic(obj) => {
                if obj.writer == Some(aid) {
                    let current = obj.current.take();
                    if commit {
                        obj.base = current.expect("writer implies current");
                    }
                    obj.writer = None;
                }
                obj.readers.remove(&aid);
            }
            ObjectBody::Mutex(obj) => {
                if obj.seized_by == Some(aid) {
                    obj.seized_by = None;
                }
            }
        }
    }
}

fn snapshot(heap: &Heap) -> Vec<(HeapId, ObjectSlot)> {
    heap.iter().map(|(h, slot)| (h, slot.clone())).collect()
}

/// Resolves `aid` on `heap` and checks the result against the reference
/// scan of the same starting state.
#[track_caller]
fn release_and_check(heap: &mut Heap, aid: ActionId, commit: bool, what: &str) {
    let mut expected = snapshot(heap);
    reference_release(&mut expected, aid, commit);
    if commit {
        heap.commit_action(aid);
    } else {
        heap.abort_action(aid);
    }
    assert_eq!(snapshot(heap), expected, "{what}: indexed release diverged");
    assert!(
        heap.locks_held_by(aid).is_empty(),
        "{what}: {aid} still holds {:?}",
        heap.locks_held_by(aid)
    );
}

/// Random interleavings of every operation that takes or drops a lock: the
/// indexed commit and abort leave exactly the state the full scan leaves.
#[test]
fn indexed_release_matches_a_full_scan() {
    let mut rng = DetRng::new(0x1DE5);
    for case in 0..256 {
        let mut heap = Heap::new();
        let mut atomics: Vec<HeapId> = (0..3)
            .map(|i| heap.alloc_atomic(Value::Int(i), None))
            .collect();
        let mutexes: Vec<HeapId> = (0..2).map(|i| heap.alloc_mutex(Value::Int(i))).collect();
        for step in 0..rng.gen_between(1, 80) {
            let actor = aid(rng.gen_range(4) as u8);
            let atomic = atomics[rng.gen_range(atomics.len() as u64) as usize];
            let mutex = mutexes[rng.gen_range(mutexes.len() as u64) as usize];
            let what = format!("case {case} step {step}");
            // Refusals (conflicts, not seized) are part of the interleaving.
            match rng.gen_range(9) {
                0 => atomics.push(heap.alloc_atomic(Value::Unit, Some(actor))),
                1 | 2 => drop(heap.acquire_read(atomic, actor)),
                3 | 4 => {
                    if heap.acquire_write(atomic, actor).is_ok() {
                        heap.write_value(atomic, actor, |v| *v = Value::Int(step as i64))
                            .unwrap();
                    }
                }
                5 => drop(heap.seize(mutex, actor)),
                6 => drop(heap.release(mutex, actor)),
                7 => release_and_check(&mut heap, actor, true, &what),
                _ => release_and_check(&mut heap, actor, false, &what),
            }
        }
        for actor in 0..4 {
            release_and_check(
                &mut heap,
                aid(actor),
                actor % 2 == 0,
                &format!("case {case} end"),
            );
        }
        for (_, slot) in heap.iter() {
            match &slot.body {
                ObjectBody::Atomic(o) => {
                    assert!(o.writer.is_none() && o.current.is_none() && o.readers.is_empty())
                }
                ObjectBody::Mutex(o) => assert!(o.seized_by.is_none()),
            }
        }
    }
}

/// A history that leaves `in_doubt` prepared (write locks on two objects,
/// one of them created by the action) over a committed base, written to
/// `rs`; returns the uids of the objects involved.
fn prepared_history(rs: &mut dyn RecoverySystem, in_doubt: ActionId) -> Vec<argus::objects::Uid> {
    let mut heap = Heap::with_stable_root();
    let root = heap.stable_root().unwrap();
    let setup = aid(1);
    let a = heap.alloc_atomic(Value::Int(10), Some(setup));
    let m = heap.alloc_mutex(Value::Int(20));
    heap.acquire_write(root, setup).unwrap();
    heap.write_value(root, setup, |v| {
        *v = Value::Seq(vec![Value::heap_ref(a), Value::heap_ref(m)])
    })
    .unwrap();
    rs.prepare(setup, &[root], &heap).unwrap();
    rs.commit(setup).unwrap();
    heap.commit_action(setup);

    let b = heap.alloc_atomic(Value::Int(30), Some(in_doubt));
    heap.acquire_write(a, in_doubt).unwrap();
    heap.write_value(a, in_doubt, |v| *v = Value::heap_ref(b))
        .unwrap();
    heap.seize(m, in_doubt).unwrap();
    heap.mutate_mutex(m, in_doubt, |v| *v = Value::Int(21))
        .unwrap();
    heap.release(m, in_doubt).unwrap();
    rs.prepare(in_doubt, &[a, m], &heap).unwrap();
    [a, b, m].iter().map(|h| heap.uid_of(*h).unwrap()).collect()
}

/// Heaps rebuilt by recovery carry the write locks of in-doubt actions,
/// granted by recovery rather than by `acquire_write`: resolving such an
/// action must release them all, either way, in every organization.
#[test]
fn indexed_release_on_recovered_heaps_with_in_doubt_actions() {
    let in_doubt = aid(2);
    let organizations: Vec<(&str, Box<dyn RecoverySystem>)> = vec![
        (
            "simple",
            Box::new(SimpleLogRs::create(MemProvider::fast()).unwrap()),
        ),
        (
            "hybrid",
            Box::new(HybridLogRs::create(MemProvider::fast()).unwrap()),
        ),
        (
            "shadow",
            Box::new(ShadowRs::create(MemProvider::fast()).unwrap()),
        ),
        (
            "redo",
            Box::new(RedoRs::create(MemProvider::fast()).unwrap()),
        ),
    ];
    for (name, mut rs) in organizations {
        let uids = prepared_history(rs.as_mut(), in_doubt);
        for commit in [true, false] {
            rs.simulate_crash().unwrap();
            let mut heap = Heap::new();
            let outcome = rs.recover(&mut heap).unwrap();
            assert_eq!(outcome.pt.prepared_actions(), vec![in_doubt], "{name}");
            let a = heap.lookup(uids[0]).expect("written object restored");
            assert_eq!(
                heap.lock_holders(a).unwrap().0,
                Some(in_doubt),
                "{name}: recovery re-grants the in-doubt write lock"
            );
            assert!(!heap.locks_held_by(in_doubt).is_empty(), "{name}");
            release_and_check(
                &mut heap,
                in_doubt,
                commit,
                &format!("{name} commit={commit}"),
            );
        }
    }
}

/// An object materialized by on-demand restore joins the index like any
/// other: locks taken on it afterwards are released by the indexed path.
#[test]
fn indexed_release_after_on_demand_restore() {
    let in_doubt = aid(2);
    let mut rs = RedoRs::create(MemProvider::fast()).unwrap();
    let uids = prepared_history(&mut rs, in_doubt);
    rs.commit(in_doubt).unwrap();
    assert!(rs.set_recovery_mode(RecoveryMode::OnDemand));
    rs.simulate_crash().unwrap();
    let mut heap = Heap::new();
    rs.recover(&mut heap).unwrap();
    assert!(rs.lazy_pending() > 0, "on-demand recovery defers objects");
    let mut restored = Vec::new();
    for uid in uids {
        if heap.lookup(uid).is_none() {
            assert!(
                rs.demand_restore(uid, &mut heap).unwrap(),
                "{uid} is pending"
            );
        }
        restored.push(heap.lookup(uid).unwrap());
    }
    let (reader, writer) = (aid(5), aid(6));
    heap.acquire_read(restored[1], reader).unwrap();
    heap.acquire_write(restored[0], writer).unwrap();
    heap.seize(restored[2], writer).unwrap();
    release_and_check(&mut heap, writer, true, "on-demand writer");
    release_and_check(&mut heap, reader, false, "on-demand reader");
}
