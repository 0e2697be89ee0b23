//! Randomized tests of the core invariant: for any history of committed and
//! aborted actions, crash recovery reproduces exactly the state a crash-free
//! in-memory model would hold.
//!
//! Driven by the in-tree deterministic RNG (`argus::sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible. Gated behind the
//! off-by-default `proptest` feature: `cargo test --features proptest`.

use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{ObjRef, Value};
use argus::sim::DetRng;

/// One scripted operation against a small key space.
#[derive(Debug, Clone)]
enum Op {
    /// Set key `k` to `v` and commit.
    Commit { k: u8, v: i64 },
    /// Set key `k` to `v`, then abort locally.
    Abort { k: u8, v: i64 },
    /// Crash and restart the guardian.
    CrashRestart,
    /// Run housekeeping in the organization's first supported mode
    /// (`true`) or its last ([`RsKind::housekeeping_modes`]).
    Housekeep(bool),
}

/// Weighted draw: commits 5, aborts 2, crash-restarts 1, housekeeping 1.
fn gen_op(rng: &mut DetRng) -> Op {
    match rng.gen_range(9) {
        0..=4 => Op::Commit {
            k: rng.gen_range(6) as u8,
            v: rng.next_u64() as i64,
        },
        5 | 6 => Op::Abort {
            k: rng.gen_range(6) as u8,
            v: rng.next_u64() as i64,
        },
        7 => Op::CrashRestart,
        _ => Op::Housekeep(rng.gen_bool(0.5)),
    }
}

fn run_history(kind: RsKind, ops: &[Op]) {
    let mut world = World::fast();
    let g = world.add_guardian(kind).unwrap();
    let mut model: std::collections::HashMap<u8, i64> = std::collections::HashMap::new();

    for op in ops {
        match op {
            Op::Commit { k, v } => {
                let a = world.begin(g).unwrap();
                world
                    .set_stable(g, a, &format!("k{k}"), Value::Int(*v))
                    .unwrap();
                assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
                model.insert(*k, *v);
            }
            Op::Abort { k, v } => {
                let a = world.begin(g).unwrap();
                world
                    .set_stable(g, a, &format!("k{k}"), Value::Int(*v))
                    .unwrap();
                world.abort_local(a);
            }
            Op::CrashRestart => {
                world.crash(g);
                world.restart(g).unwrap();
            }
            Op::Housekeep(first) => {
                let modes = kind.housekeeping_modes();
                let mode = if *first {
                    modes[0]
                } else {
                    modes[modes.len() - 1]
                };
                world.housekeep(g, mode).unwrap();
            }
        }
        // The committed view always matches the model, mid-history included.
        for (k, v) in &model {
            assert_eq!(
                world.guardian(g).unwrap().stable_value(&format!("k{k}")),
                Some(Value::Int(*v)),
                "{kind:?}: key {k} diverged after {op:?}"
            );
        }
    }

    // Final crash + recovery must reproduce the model exactly.
    world.crash(g);
    world.restart(g).unwrap();
    for (k, v) in &model {
        assert_eq!(
            world.guardian(g).unwrap().stable_value(&format!("k{k}")),
            Some(Value::Int(*v)),
            "{kind:?}: key {k} lost at final recovery"
        );
    }
}

fn check_kind(kind: RsKind, seed: u64) {
    let mut rng = DetRng::new(seed);
    for _ in 0..48 {
        let ops: Vec<Op> = (0..rng.gen_between(1, 24))
            .map(|_| gen_op(&mut rng))
            .collect();
        run_history(kind, &ops);
    }
}

#[test]
fn hybrid_log_matches_the_model() {
    check_kind(RsKind::Hybrid, 0x4B1D);
}

#[test]
fn simple_log_matches_the_model() {
    check_kind(RsKind::Simple, 0x5109);
}

#[test]
fn shadowing_matches_the_model() {
    check_kind(RsKind::Shadow, 0x54AD);
}

#[test]
fn redo_log_matches_the_model() {
    check_kind(RsKind::Redo, 0x4ED0);
}

/// Object-graph property: a committed linked list of arbitrary length is
/// fully reconstructed (every link resolved back to a pointer).
#[test]
fn linked_lists_recover_completely() {
    let mut rng = DetRng::new(0x115);
    for case in 0..32 {
        let len = rng.gen_between(1, 20) as usize;
        let payloads: Vec<i64> = (0..20).map(|_| rng.next_u64() as i64).collect();

        let mut world = World::fast();
        let g = world.add_guardian(RsKind::Hybrid).unwrap();
        let a = world.begin(g).unwrap();
        let mut next = Value::Unit;
        for payload in payloads.iter().take(len) {
            let node = world
                .create_atomic(g, a, Value::Seq(vec![Value::Int(*payload), next.clone()]))
                .unwrap();
            next = Value::heap_ref(node);
        }
        world.set_stable(g, a, "list", next).unwrap();
        assert_eq!(world.commit(a).unwrap(), Outcome::Committed);

        world.crash(g);
        world.restart(g).unwrap();
        let guardian = world.guardian(g).unwrap();
        let mut cursor = guardian.stable_value("list").unwrap();
        let mut seen = Vec::new();
        while let Value::Ref(ObjRef::Heap(h)) = cursor {
            match guardian.heap.read_value(h, None).unwrap() {
                Value::Seq(fields) => match fields.as_slice() {
                    [Value::Int(p), rest] => {
                        seen.push(*p);
                        cursor = rest.clone();
                    }
                    other => panic!("case {case}: bad node {other:?}"),
                },
                other => panic!("case {case}: bad node {other}"),
            }
        }
        assert_eq!(seen.len(), len, "case {case}");
        let expected: Vec<i64> = (0..len).rev().map(|i| payloads[i]).collect();
        assert_eq!(seen, expected, "case {case}");
    }
}
