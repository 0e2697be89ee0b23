//! Group-commit equivalence properties: a world whose guardians batch log
//! forces behaves — observably and on stable storage — exactly like one
//! that forces every entry immediately.
//!
//! Driven by the in-tree deterministic RNG (`argus_sim::DetRng`) with fixed
//! seeds; the identical op sequence is replayed against a batched and an
//! unbatched world, so any divergence is a real semantic difference
//! introduced by the force scheduler, not workload noise.

mod common;

use argus::core::{CState, PState};
use argus::guardian::{Outcome, RsKind, World, WorldConfig};
use argus::objects::{ActionId, GuardianId, HeapId, ObjRef, Value};
use argus::sim::{CostModel, DetRng};
use std::collections::BTreeMap;

const OBJECTS: usize = 16;

fn obj_name(i: usize) -> String {
    format!("obj{i}")
}

/// One guardian with `OBJECTS` committed atomic objects bound to stable
/// names.
fn setup(kind: RsKind, cfg: WorldConfig) -> (World, GuardianId, Vec<HeapId>) {
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g = world.add_guardian(kind).expect("guardian");
    let aid = world.begin(g).expect("begin");
    let mut objs = Vec::new();
    for i in 0..OBJECTS {
        let h = world.create_atomic(g, aid, Value::Int(0)).expect("create");
        world
            .set_stable(g, aid, &obj_name(i), Value::heap_ref(h))
            .expect("bind");
        objs.push(h);
    }
    assert_eq!(world.commit(aid).expect("setup"), Outcome::Committed);
    (world, g, objs)
}

/// Replays a deterministic workload of rounds of concurrent actions
/// (disjoint object sets, launched together so batched worlds coalesce
/// their forces) plus occasional local aborts. Returns the committed
/// action ids.
fn run_workload(
    world: &mut World,
    g: GuardianId,
    objs: &[HeapId],
    seed: u64,
    rounds: usize,
) -> Vec<ActionId> {
    let mut rng = DetRng::new(seed);
    let mut committed = Vec::new();
    for _ in 0..rounds {
        let group = rng.gen_between(1, 4) as usize;
        // Partition the object space so concurrent actions never contend.
        let per = OBJECTS / 4;
        let aids: Vec<ActionId> = (0..group).map(|_| world.begin(g).expect("begin")).collect();
        for (i, &aid) in aids.iter().enumerate() {
            for j in 0..rng.gen_between(1, per as u64) as usize {
                let h = objs[i * per + j];
                let v = rng.next_u64() as i64;
                world
                    .write_atomic(g, aid, h, move |slot| *slot = Value::Int(v))
                    .expect("write");
            }
        }
        // Occasionally abandon the last action before two-phase commit.
        let abort_last = group > 1 && rng.gen_bool(0.2);
        let committing = if abort_last {
            let (last, rest) = aids.split_last().expect("group nonempty");
            world.abort_local(*last);
            rest
        } else {
            &aids[..]
        };
        for &aid in committing {
            world.commit_start(aid).expect("start");
        }
        for &aid in committing {
            assert_eq!(
                world.commit_settle(aid).expect("settle"),
                Outcome::Committed
            );
            committed.push(aid);
        }
    }
    committed
}

/// The observable stable state: every stable name's resolved integer value.
fn stable_image(world: &World, g: GuardianId) -> BTreeMap<String, i64> {
    let guardian = world.guardian(g).expect("guardian");
    (0..OBJECTS)
        .map(|i| {
            let name = obj_name(i);
            let h = match guardian.stable_value(&name) {
                Some(Value::Ref(ObjRef::Heap(h))) => h,
                other => panic!("{name} unresolved: {other:?}"),
            };
            let v = match guardian.heap.read_value(h, None) {
                Ok(Value::Int(v)) => *v,
                other => panic!("{name} bad value: {other:?}"),
            };
            (name, v)
        })
        .collect()
}

/// Batched and unbatched worlds running the identical workload commit the
/// same actions, keep lint-clean logs (I1–I9), and — after a crash — recover
/// byte-identical participant/coordinator tables and stable values, with
/// the recovered tables agreeing with the log (I10).
#[test]
fn batched_world_recovers_identically_to_unbatched() {
    for kind in RsKind::ALL {
        for seed in 0..8u64 {
            let mut images = Vec::new();
            for cfg in [WorldConfig::unbatched(), WorldConfig::default()] {
                let (mut world, g, objs) = setup(kind, cfg);
                let committed = run_workload(&mut world, g, &objs, seed, 12);
                common::lint_world(&mut world);

                world.crash(g);
                let outcome = world.restart(g).expect("recover");
                // Shadowing keeps no log to lint, and its map forgets the
                // resolutions older than its newest map record: what it
                // still remembers must say committed.
                let log = world.dump_log(g).expect("dump");
                let logged = log.is_some();
                if let Some(entries) = log {
                    common::lint_entries_against(entries, &outcome);
                }

                let pt: BTreeMap<ActionId, PState> =
                    outcome.pt.iter().map(|(a, s)| (*a, *s)).collect();
                let ct: BTreeMap<ActionId, CState> =
                    outcome.ct.iter().map(|(a, s)| (*a, s.clone())).collect();
                for aid in &committed {
                    let state = pt.get(aid);
                    assert!(
                        state == Some(&PState::Committed) || (!logged && state.is_none()),
                        "{kind:?} seed {seed}: {aid:?} is {state:?} after recovery"
                    );
                }
                images.push((committed.clone(), pt, ct, stable_image(&world, g)));
            }
            let (unbatched, batched) = (&images[0], &images[1]);
            assert_eq!(
                unbatched.0, batched.0,
                "{kind:?} seed {seed}: commit sets differ"
            );
            assert_eq!(unbatched.1, batched.1, "{kind:?} seed {seed}: PT differs");
            assert_eq!(unbatched.2, batched.2, "{kind:?} seed {seed}: CT differs");
            assert_eq!(
                unbatched.3, batched.3,
                "{kind:?} seed {seed}: stable values differ"
            );
        }
    }
}

/// Batching strictly reduces (never increases) device forces for the same
/// workload, while committing the same actions.
#[test]
fn batching_never_adds_forces() {
    for kind in RsKind::ALL {
        let mut forces = Vec::new();
        for cfg in [WorldConfig::unbatched(), WorldConfig::default()] {
            let (mut world, g, objs) = setup(kind, cfg);
            let before = world.guardian(g).expect("guardian").log_stats().device;
            run_workload(&mut world, g, &objs, 99, 10);
            let delta = world
                .guardian(g)
                .expect("guardian")
                .log_stats()
                .device
                .since(&before);
            forces.push(delta.forces);
        }
        assert!(
            forces[1] <= forces[0],
            "{kind:?}: batching increased forces ({} > {})",
            forces[1],
            forces[0]
        );
    }
}
