//! End-to-end tests of the causal tracing stack (`argus-trace`):
//!
//! * **Determinism** — the same seed yields byte-identical Chrome trace
//!   exports and identical obs-journal snapshots, for both the distributed
//!   banking mix and E16's contended 3-guardian 2PC mix. Determinism is
//!   what makes a trace diffable: a perf or scheduling regression shows up
//!   as a trace diff, not a shrug.
//! * **I12** — the structural trace lint is green over real workloads
//!   (`common::lint_world` runs it, like I1–I11).
//! * **Flight recorder** — a dump round-trips the export byte for byte and
//!   lands where the violation text says it does.

mod common;

use argus::guardian::{CcPolicy, RsKind, World, WorldConfig};
use argus::sim::{CostModel, DetRng};
use argus::workload::{Banking, BankingConfig, Contended, ContendedConfig};

/// Runs the distributed banking mix under a fresh registry + tracer scope;
/// returns the Chrome trace bytes and the journal snapshot (as text).
fn traced_banking(seed: u64) -> (String, String) {
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
    (
        argus::trace::to_chrome_json(&tracer.events()),
        format!("{:?}", reg.journal().snapshot()),
    )
}

/// Runs the lock-contended single-guardian mix under the blocking policy;
/// its trace carries real `cc` lock-wait spans naming the holder.
fn traced_contended(seed: u64) -> (String, String) {
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
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = DetRng::new(seed);
    let stats = mix.run(&mut world, &mut rng).unwrap();
    assert!(stats.committed > 0);
    common::lint_world(&mut world);
    (
        argus::trace::to_chrome_json(&tracer.events()),
        format!("{:?}", reg.journal().snapshot()),
    )
}

#[test]
fn same_seed_banking_runs_are_byte_identical() {
    let (t1, j1) = traced_banking(42);
    let (t2, j2) = traced_banking(42);
    assert_eq!(j1, j2, "journal snapshots must be identical");
    assert_eq!(t1, t2, "trace bytes must be identical");
    assert!(t1.contains("\"traceEvents\""));
}

#[test]
fn same_seed_contended_runs_are_byte_identical() {
    let (t1, j1) = traced_contended(9);
    let (t2, j2) = traced_contended(9);
    assert_eq!(j1, j2, "journal snapshots must be identical");
    assert_eq!(t1, t2, "trace bytes must be identical");
    // Real contention reached the trace: some action waited on a lock.
    assert!(t1.contains("\"lock_wait\""), "no lock_wait span recorded");
}

#[test]
fn different_seeds_produce_different_traces() {
    let (t1, _) = traced_banking(1);
    let (t2, _) = traced_banking(2);
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
        (
            argus::trace::to_chrome_json(&argus::trace::current().events()),
            format!("{:?}", reg.journal().snapshot()),
        )
    };
    let (t1, j1) = run();
    let (t2, j2) = run();
    assert_eq!(j1, j2, "journal snapshots must be identical");
    assert_eq!(t1, t2, "trace bytes must be identical");
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
