//! End-to-end tests of the causal tracing stack (`argus-trace`):
//!
//! * **Determinism** — the same seed yields byte-identical Chrome trace
//!   exports, for both the distributed banking mix and E16's contended
//!   3-guardian 2PC mix. Determinism is what makes a trace diffable: a perf
//!   or scheduling regression shows up as a trace diff, not a shrug.
//! * **I12** — the structural trace lint is green over real workloads
//!   (`common::lint_world` runs it, like I1–I11).
//! * **Milestones** — a log opened, a crash fired, a mirror repair and a
//!   housekeeping pass are each one trace event, as often as what causes
//!   them.
//! * **Flight recorder** — a dump round-trips the export byte for byte and
//!   lands where the violation text says it does.

mod common;

use argus::core::HousekeepingMode;
use argus::guardian::{CcPolicy, MediaKind, Outcome, RsKind, World, WorldConfig};
use argus::objects::{GuardianId, Value};
use argus::sim::{CostModel, DetRng};
use argus::trace::{Kind, Tracer};
use argus::workload::{Banking, BankingConfig, Contended, ContendedConfig};

/// Runs the distributed banking mix under a fresh registry + tracer scope;
/// returns the Chrome trace bytes.
fn traced_banking(seed: u64) -> String {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let tracer = argus::trace::current();
    tracer.set_detail(argus::trace::Detail::Device);
    let mut world = World::new(CostModel::default());
    let bank = Banking::setup(
        &mut world,
        RsKind::Hybrid,
        BankingConfig {
            guardians: 3,
            cross_prob: 1.0,
            abort_prob: 0.1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = DetRng::new(seed);
    bank.run(&mut world, &mut rng, 30).unwrap();
    assert_eq!(bank.total_balance(&world).unwrap(), bank.expected_total());
    common::lint_world(&mut world);
    argus::trace::to_chrome_json(&tracer.events())
}

/// Runs the lock-contended single-guardian mix under the blocking policy;
/// its trace carries real `cc` lock-wait spans naming the holder.
fn traced_contended(seed: u64) -> String {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let tracer = argus::trace::current();
    let mut world = World::with_config(
        CostModel::default(),
        WorldConfig::with_cc(CcPolicy::Blocking),
    );
    let mix = Contended::setup(
        &mut world,
        RsKind::Hybrid,
        ContendedConfig {
            concurrency: 6,
            transfers_per_slot: 5,
        },
    )
    .unwrap();
    let mut rng = DetRng::new(seed);
    let stats = mix.run(&mut world, &mut rng).unwrap();
    assert!(stats.committed > 0);
    common::lint_world(&mut world);
    argus::trace::to_chrome_json(&tracer.events())
}

#[test]
fn same_seed_banking_runs_are_byte_identical() {
    let (t1, t2) = (traced_banking(42), traced_banking(42));
    assert_eq!(t1, t2, "trace bytes must be identical");
    assert!(t1.contains("\"traceEvents\""));
}

#[test]
fn same_seed_contended_runs_are_byte_identical() {
    let (t1, t2) = (traced_contended(9), traced_contended(9));
    assert_eq!(t1, t2, "trace bytes must be identical");
    // Real contention reached the trace: some action waited on a lock.
    assert!(t1.contains("\"lock_wait\""), "no lock_wait span recorded");
}

#[test]
fn different_seeds_produce_different_traces() {
    let (t1, t2) = (traced_banking(1), traced_banking(2));
    assert_ne!(t1, t2, "seed must steer the schedule");
}

#[test]
fn e16_mix_trace_is_deterministic_and_fully_attributed() {
    let run = || {
        let reg = argus::obs::Registry::new();
        let _scope = reg.enter();
        let (lats, start) = argus_bench::e16_run(RsKind::Hybrid, 3);
        // e16_run asserts segment_sum == total per action; re-check the
        // committed measured set is non-trivial here.
        assert!(lats.iter().any(|a| a.committed && a.start >= start));
        argus::trace::to_chrome_json(&argus::trace::current().events())
    };
    assert_eq!(run(), run(), "trace bytes must be identical");
}

#[test]
fn flight_dump_round_trips_the_export() {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let tracer = argus::trace::current();
    let mut world = World::new(CostModel::default());
    let bank = Banking::setup(&mut world, RsKind::Hybrid, BankingConfig::default()).unwrap();
    let mut rng = DetRng::new(3);
    bank.run(&mut world, &mut rng, 10).unwrap();
    let events = tracer.events();
    assert!(!events.is_empty());
    let json = argus::trace::to_chrome_json(&events);

    let path = argus::trace::flight::dump("trace-observability-roundtrip", &tracer).unwrap();
    assert!(path.exists());
    let round = std::fs::read_to_string(&path).unwrap();
    assert_eq!(round, json, "flight dump must be the exact export");
    assert_eq!(
        round.matches('{').count(),
        round.matches('}').count(),
        "dump must be balanced JSON"
    );
    std::fs::remove_file(path).unwrap();
}

/// Commits `stable["v"] = v` at `g`.
fn commit_value(world: &mut World, g: GuardianId, v: i64) -> Outcome {
    let aid = world.begin(g).unwrap();
    world.set_stable(g, aid, "v", Value::Int(v)).unwrap();
    world.commit(aid).unwrap()
}

/// The milestones off the commit path are trace events, each recorded
/// exactly as often as the count or action that causes it: on mirrored
/// disks, every organization goes through a fault-plan crash and a restart,
/// one housekeeping pass of each mode it supports, and a decayed superblock
/// copy that the next restart repairs — and the trace stays I12-clean.
#[test]
fn milestones_are_traced_as_often_as_they_happen() {
    for kind in RsKind::ALL {
        let reg = argus::obs::Registry::new();
        let tracer = Tracer::new();
        let _scope = (reg.enter(), tracer.enter());
        let cfg = WorldConfig {
            media: MediaKind::Mirrored,
            ..WorldConfig::default()
        };
        let mut world = World::with_config(CostModel::fast(), cfg);
        let g = world.add_guardian(kind).unwrap();
        for v in 0..4 {
            assert_eq!(commit_value(&mut world, g, v), Outcome::Committed);
        }

        world.arm_crash_after_writes(g, 1).unwrap();
        commit_value(&mut world, g, 4);
        assert!(!world.is_up(g), "{kind:?}: the armed crash did not fire");
        world.crash(g);
        world.restart(g).unwrap();

        let modes = kind.housekeeping_modes();
        for (v, &mode) in (5..).zip(modes) {
            assert_eq!(commit_value(&mut world, g, v), Outcome::Committed);
            world.housekeep(g, mode).unwrap();
        }

        assert!(world.decay_page(g, 0).unwrap(), "{kind:?}: nothing decayed");
        world.crash(g);
        world.restart(g).unwrap();

        let events = tracer.events();
        let seen = |k: Kind| events.iter().filter(|e| e.kind == k).count() as u64;
        let count = |name: &str| reg.counter(name).get();
        let passes = |mode| u64::from(modes.contains(&mode));
        assert_eq!(seen(Kind::CrashFired), count("stable.crashes_fired"));
        assert_eq!(seen(Kind::CrashFired), 1, "{kind:?}");
        assert_eq!(seen(Kind::LogOpened), count("world.restarts"));
        assert_eq!(seen(Kind::LogOpened), 2, "{kind:?}");
        assert_eq!(seen(Kind::MirrorRepair), count("stable.mirror.repairs"));
        assert!(seen(Kind::MirrorRepair) >= 1, "{kind:?}: no repair");
        let (compactions, snapshots) = (seen(Kind::Compaction), seen(Kind::Snapshot));
        assert_eq!(compactions, passes(HousekeepingMode::Compaction));
        assert_eq!(snapshots, passes(HousekeepingMode::Snapshot));
        if kind != RsKind::Shadow {
            // Shadowing keeps no `core.*` counters of its own.
            assert_eq!(compactions + snapshots, count("core.hk.passes"));
        }
        let truncated = tracer.dropped() > 0;
        let violations = argus::trace::lint_events(&events, truncated);
        assert!(violations.is_empty(), "{kind:?}: I12 {violations:?}");
    }
}
