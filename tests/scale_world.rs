//! The sharded many-guardian world at scale: a 64-shard zipfian
//! cross-shard mix that must quiesce clean under the full I1–I12 lint, plus
//! the two regression tests for the O(G) world-step bugs this world
//! surfaced — scheduler work must track *active* guardians, not the world's
//! size, and a participant that both reads and writes at one guardian must
//! get exactly one prepare.
//!
//! Re-pinned once, downward: a coordinator is no party to its own protocol
//! (DESIGN.md deviation 12), so `read_and_write_at_one_guardian_prepares_it_once`
//! counts one participant prepare (the remote's; was 2) and the remote's
//! four-message conversation (was 8 deliveries, four of them self-addressed),
//! and over the 64-shard mix `net.self_sent` is 0.
//!
//! `the_benchmark_mix_forces_at_most_1_45_times_a_commit` pins the force
//! count of the benchmark's `sharded_2pc` shape: a participant's verdict
//! rides the next force there (DESIGN.md deviation 10), so a cross-shard
//! commit costs two forces, not three — 0.6 × 1 + 0.4 × 2 = 1.40 a commit,
//! plus one force per shard when the run drains (it read 1.80 before).
//! `a_restart_after_the_benchmark_mix_books_no_verdict_again` restarts every
//! shard of that world and finds no row left.

mod common;

use argus::cc::CcPolicy;
use argus::guardian::{Outcome, RsKind, World, WorldConfig};
use argus::objects::Value;
use argus::obs::Registry;
use argus::sim::{CostModel, DetRng};
use argus::workload::{Sharded, ShardedConfig};

/// The `--scale` tier's smoke, in test form: 64 shard guardians, 10k+
/// zipfian users, the cross-shard transfer/reservation mix, then quiesce
/// and hold the whole world to the invariant catalogue — I1–I10 on every
/// shard's log, I11 heap quiescence on every shard, I12 trace consistency —
/// plus the mix's legal-outcomes oracle (conserved balance; seats account
/// exactly for the committed reservations).
#[test]
fn sixty_four_shard_mix_quiesces_clean_under_full_lint() {
    let reg = Registry::new();
    let _scope = reg.enter();
    let mut world = World::with_config(CostModel::fast(), WorldConfig::with_cc(CcPolicy::Blocking));
    let cfg = ShardedConfig {
        shards: 64,
        users: 10_240,
        concurrency: 64,
        actions: 384,
        ..Default::default()
    };
    let mix = Sharded::setup(&mut world, RsKind::Hybrid, cfg).unwrap();
    let mut rng = DetRng::new(64);
    let stats = mix.run(&mut world, &mut rng).unwrap();
    assert_eq!(stats.committed, cfg.actions);
    assert!(stats.cross_shard > 0, "no distributed 2PC ran");
    assert!(
        stats.coordinating_shards() >= cfg.shards / 2,
        "coordination piled up: {:?}",
        stats.per_shard_commits
    );
    assert_eq!(mix.total_balance(&world).unwrap(), mix.expected_total());
    assert_eq!(mix.total_seats(&world).unwrap(), mix.expected_seats(&stats));
    world.run_until_quiet().unwrap();
    assert!(reg.counter("net.sent").get() > 0);
    assert_eq!(
        reg.counter("net.self_sent").get(),
        0,
        "a guardian mailed itself"
    );
    common::lint_world(&mut world);
}

/// The same 16-shard blocking mix — deadlock victims, retries, cross-shard
/// two-phase commit — under two hasher salts (debug builds: two iteration
/// orders of every integer-keyed table) leaves the same Chrome trace and
/// logs, byte for byte.
#[test]
fn sharded_mix_does_not_depend_on_table_order() {
    let run = |salt: u64| {
        argus::sim::hash::with_salt(salt, || {
            let reg = Registry::new();
            let tracer = argus::trace::Tracer::new();
            let (_r, _t) = (reg.enter(), tracer.enter());
            let cc = WorldConfig::with_cc(CcPolicy::Blocking);
            let mut world = World::with_config(CostModel::fast(), cc);
            let cfg = ShardedConfig {
                shards: 16,
                users: 64,
                concurrency: 16,
                actions: 192,
                ..Default::default()
            };
            let mix = Sharded::setup(&mut world, RsKind::Redo, cfg).unwrap();
            let stats = mix.run(&mut world, &mut DetRng::new(16)).unwrap();
            assert!(stats.cross_shard > 0 && stats.retries > 0, "{stats:?}");
            world.run_until_quiet().unwrap();

            // Then what makes a table's order visible: several actions in
            // doubt at one guardian at once. Four coordinators stop taking
            // mail after sending their prepares; shard 0 votes in all four,
            // crashes, and recovers four in-doubt participants, which query
            // — at recovery, and again in the re-query sweep — in an order
            // that must not be the table's.
            let gids = world.guardian_ids();
            let (hub, origins) = (gids[0], &gids[1..5]);
            let mut launched = Vec::new();
            for &origin in origins {
                world.pause_guardian(origin);
                let aid = world.begin(origin).unwrap();
                world
                    .set_stable(origin, aid, "salted", Value::Int(1))
                    .unwrap();
                world.create_atomic(hub, aid, Value::Int(1)).unwrap();
                world.commit_start(aid).unwrap();
                launched.push(aid);
            }
            world.run_until_quiet().unwrap();
            world.crash(hub);
            let recovered = world.restart(hub).unwrap();
            assert_eq!(recovered.pt.prepared_actions().len(), origins.len());
            for &origin in origins {
                world.resume_guardian(origin);
            }
            for aid in launched {
                assert_eq!(world.commit_settle(aid).unwrap(), Outcome::Committed);
            }
            let logs: Vec<_> = world
                .guardian_ids()
                .into_iter()
                .map(|g| world.dump_log(g).unwrap())
                .collect();
            (logs, argus::trace::to_chrome_json(&tracer.events()))
        })
    };
    let (a, b) = (run(0), run(0xD1B5_4A32_D192_ED03));
    assert_eq!(a.0, b.0, "final logs diverged");
    assert!(a.1 == b.1, "Chrome trace diverged");
}

/// The benchmark's `sharded_2pc` shape — sixteen shards, 40 % of actions
/// across two of them, 32 slots, 1 250 actions — set up on `kind` in a world
/// running the blocking policy.
fn benchmark_mix(kind: RsKind) -> (World, Sharded) {
    let cc = WorldConfig::with_cc(CcPolicy::Blocking);
    let mut world = World::with_config(CostModel::default(), cc);
    let cfg = ShardedConfig {
        shards: 16,
        users: 2_560,
        concurrency: 32,
        actions: 1_250,
        ..Default::default()
    };
    let mix = Sharded::setup(&mut world, kind, cfg).unwrap();
    (world, mix)
}

/// The benchmark's mix on every organization: device forces per committed
/// action stay at or below 1.45.
#[test]
fn the_benchmark_mix_forces_at_most_1_45_times_a_commit() {
    for kind in RsKind::ALL {
        let (mut world, mix) = benchmark_mix(kind);
        let forces = |world: &World| -> u64 {
            let shards = mix.shards().iter();
            shards
                .map(|g| world.guardian(*g).unwrap().log_stats().device.forces)
                .sum()
        };
        let before = forces(&world);
        let stats = mix.run(&mut world, &mut DetRng::new(1)).unwrap();
        let per_commit = (forces(&world) - before) as f64 / stats.committed as f64;
        assert!(stats.cross_shard * 10 > stats.committed * 3, "{stats:?}");
        assert!(
            (1.0..=1.45).contains(&per_commit),
            "{kind:?}: {per_commit:.3}"
        );
    }
}

/// The benchmark's mix four times over (seeds 1–4), then a crash and a
/// restart of every shard: once the world is quiet it holds no row. Every
/// client took its verdict before the crash, so recovery books none again;
/// a coordinator it resumes only finishes phase two.
#[test]
fn a_restart_after_the_benchmark_mix_books_no_verdict_again() {
    for kind in RsKind::ALL {
        let (mut world, mix) = benchmark_mix(kind);
        for seed in 1..=4 {
            mix.run(&mut world, &mut DetRng::new(seed)).unwrap();
        }
        for &g in mix.shards() {
            world.crash(g);
            world.restart(g).unwrap();
        }
        world.run_until_quiet().unwrap();
        assert_eq!(world.retained_actions(), 0, "{kind:?}");
    }
}

/// Runs the same 8-shard mix in a world padded with `idle` extra guardians
/// that never see an action, and reports the world scheduler's poll count.
fn sched_polls_with_idle_guardians(idle: usize) -> u64 {
    let reg = Registry::new();
    {
        let _scope = reg.enter();
        let mut world =
            World::with_config(CostModel::fast(), WorldConfig::with_cc(CcPolicy::Blocking));
        let cfg = ShardedConfig {
            shards: 8,
            actions: 128,
            ..Default::default()
        };
        let mix = Sharded::setup(&mut world, RsKind::Hybrid, cfg).unwrap();
        for _ in 0..idle {
            world.add_guardian(RsKind::Hybrid).unwrap();
        }
        let mut rng = DetRng::new(5);
        let stats = mix.run(&mut world, &mut rng).unwrap();
        assert_eq!(stats.committed, cfg.actions);
        world.run_until_quiet().unwrap();
        reg.counter("world.sched.polls").get()
    }
}

/// Regression for the O(G) world-step scans: `run_until_quiet` used to
/// rebuild its staged/force view by walking every guardian on every step,
/// so an identical workload did G× more work in a bigger world. The
/// scheduler now keeps a ready set and a force-deadline heap, so padding
/// the world from 8 to 256 guardians must not change its poll count at all.
#[test]
fn world_step_work_tracks_active_not_total_guardians() {
    let small = sched_polls_with_idle_guardians(0);
    let big = sched_polls_with_idle_guardians(248);
    assert!(small > 0, "the mix never staged a group-commit batch");
    assert_eq!(
        small, big,
        "scheduler polls grew with idle guardians: {small} at 8 guardians, {big} at 256"
    );
}

/// Regression for duplicate participant entries: an action that both reads
/// and writes at the same remote guardian must engage it as *one*
/// participant — exactly one prepare per guardian, and a pinned 2PC message
/// count (prepare + vote for the remote, nothing duplicated).
#[test]
fn read_and_write_at_one_guardian_prepares_it_once() {
    let reg = Registry::new();
    let _scope = reg.enter();
    let mut world = World::fast();
    let coord = world.add_guardian(RsKind::Hybrid).unwrap();
    let remote = world.add_guardian(RsKind::Hybrid).unwrap();

    let setup = world.begin(remote).unwrap();
    let h = world.create_atomic(remote, setup, Value::Int(1)).unwrap();
    assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);

    let delivered_before = world.network().delivered();
    let prepares_before = reg.counter("twopc.part.prepares").get();
    let aid = world.begin(coord).unwrap();
    // Read then write the same remote object: the guardian lands in both
    // the touched-read and touched sets.
    assert_eq!(world.read(remote, aid, h).unwrap(), Value::Int(1));
    world
        .write_atomic(remote, aid, h, |v| {
            if let Value::Int(n) = v {
                *n += 1;
            }
        })
        .unwrap();
    assert_eq!(world.commit(aid).unwrap(), Outcome::Committed);

    // One participant prepare, the remote's: the coordinator's own guardian
    // prepares inside its commit point, not as a participant machine.
    assert_eq!(
        reg.counter("twopc.part.prepares").get() - prepares_before,
        1,
        "a read+write participant was prepared more than once"
    );
    // The remote's conversation is exactly prepare → vote → commit → ack
    // and the coordinator has none with itself, so four deliveries; a
    // duplicated participant entry would add four more.
    assert_eq!(world.network().delivered() - delivered_before, 4);
    assert_eq!(reg.counter("net.self_sent").get(), 0);
}
