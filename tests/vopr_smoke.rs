//! The VOPR smoke batch: seeded randomized fault composition over every
//! recovery organization must come back clean, the batch must actually
//! compose every fault kind (proved by the per-kind tallies and the
//! `vopr.fault.*` counters), and a seed must replay byte for byte — also
//! when every integer-keyed table iterates in another order.

use argus::check::{vopr, FaultTally, VoprConfig};
use argus::guardian::RsKind;

/// 32 seeds across the four organizations: no violations anywhere, and
/// every fault kind — drop, duplicate, defer, partition, heal, pause,
/// skew, decay, crash, restart — fired somewhere in the batch.
#[test]
fn smoke_batch_is_clean_and_composes_every_fault() {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();

    let mut tally = FaultTally::default();
    for seed in 1..=32u64 {
        let mut cfg = VoprConfig::new(seed, 48);
        cfg.kind = match seed % 4 {
            0 => RsKind::Simple,
            1 => RsKind::Hybrid,
            2 => RsKind::Shadow,
            _ => RsKind::Redo,
        };
        let summary = vopr(&cfg);
        summary.assert_clean();
        tally.absorb(&summary.faults);
    }
    assert!(
        tally.all_kinds_fired(),
        "some fault kind never fired across the batch: {tally}"
    );

    // The ambient obs registry saw the same composition: every per-kind
    // counter is the external proof the batch exercised that fault.
    for key in [
        "vopr.fault.drop",
        "vopr.fault.duplicate",
        "vopr.fault.defer",
        "vopr.fault.partition",
        "vopr.fault.heal",
        "vopr.fault.pause",
        "vopr.fault.skew",
        "vopr.fault.decay",
        "vopr.fault.crash",
        "vopr.fault.restart",
    ] {
        assert!(reg.counter(key).get() > 0, "{key} never fired in the batch");
    }
    assert!(reg.counter("vopr.checks").get() > 0);
    assert_eq!(reg.counter("vopr.violations").get(), 0);
}

/// The explorer at sharded-world scale: 8- and 16-guardian worlds under
/// the full fault composition, across the organizations. The 3-guardian
/// default had left multi-guardian code paths (coordinator fan-out,
/// partition healing, many-participant 2PC) underexplored — this is the
/// world size that exposed the multi-cycle deadlock-detection bug the
/// sharded workload found.
#[test]
fn many_guardian_worlds_stay_clean() {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let mut tally = FaultTally::default();
    for (guardians, seeds) in [(8u32, 1..=8u64), (16, 9..=12)] {
        for seed in seeds {
            let mut cfg = VoprConfig::new(seed, 48);
            cfg.guardians = guardians;
            cfg.kind = match seed % 4 {
                0 => RsKind::Simple,
                1 => RsKind::Hybrid,
                2 => RsKind::Shadow,
                _ => RsKind::Redo,
            };
            let summary = vopr(&cfg);
            summary.assert_clean();
            tally.absorb(&summary.faults);
        }
    }
    assert!(
        tally.all_kinds_fired(),
        "some fault kind never fired across the many-guardian batch: {tally}"
    );
}

/// The replay contract: the same seed reproduces the same summary line,
/// byte for byte, for each organization.
#[test]
fn same_seed_replays_byte_for_byte() {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    // 47 and 90 once diverged between two runs of one process: the
    // re-query sweep sent its messages in hash-map order, and the seeded
    // network faults fell on different ones.
    for kind in RsKind::ALL {
        for seed in [77, 47, 90] {
            let mut cfg = VoprConfig::new(seed, 48);
            cfg.kind = kind;
            let a = vopr(&cfg);
            let b = vopr(&cfg);
            assert_eq!(a.line(), b.line(), "{kind:?} diverged");
            assert_eq!(a.violations, b.violations, "{kind:?} violations diverged");
        }
    }
}

/// Nothing may depend on table order: the action tables hash integers with
/// a fixed hasher, which would freeze an order dependence that SipHash's
/// per-process key used to expose (the re-query sweep above). Debug builds
/// salt the hasher per thread, so the same seed under two salts walks every
/// `IntMap`/`IntSet` in two orders — and must leave the same summary, Chrome
/// trace and logs. (In a release build the salt is compiled out and
/// the two runs are plain replays. The VOPR drives one action at a time, so
/// it never holds two in doubt at one guardian — the case where a table's
/// order would show in the mail; `tests/scale_world.rs` builds that one.)
#[test]
fn same_seed_replays_byte_for_byte_under_another_table_order() {
    let run = |kind: RsKind, seed: u64, salt: u64| {
        argus::sim::hash::with_salt(salt, || {
            let reg = argus::obs::Registry::new();
            let tracer = argus::trace::Tracer::new();
            let (_r, _t) = (reg.enter(), tracer.enter());
            let mut cfg = VoprConfig::new(seed, 48);
            cfg.kind = kind;
            let summary = vopr(&cfg);
            (
                summary.line(),
                summary.violations,
                summary.final_logs,
                argus::trace::to_chrome_json(&tracer.events()),
            )
        })
    };
    for kind in RsKind::ALL {
        for seed in [47, 90] {
            let (a, b) = (run(kind, seed, 0), run(kind, seed, 0x9E37_79B9_7F4A_7C15));
            assert_eq!(a.0, b.0, "{kind:?} seed {seed}: summary");
            assert_eq!(a.1, b.1, "{kind:?} seed {seed}: violations");
            assert_eq!(a.2, b.2, "{kind:?} seed {seed}: final logs");
            assert!(a.3 == b.3, "{kind:?} seed {seed}: Chrome trace diverged");
        }
    }
}

/// The detection path end to end: a planted impossible oracle expectation
/// must be caught, must replay identically, and must dump the schedule
/// through the flight recorder.
#[test]
fn planted_violation_is_caught_and_dumped() {
    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let dir = std::env::temp_dir().join("argus-vopr-smoke-selftest");
    std::env::set_var("ARGUS_FLIGHT_DIR", &dir);
    let mut cfg = VoprConfig::new(9, 24);
    cfg.break_oracle = true;
    let a = vopr(&cfg);
    let b = vopr(&cfg);
    std::env::remove_var("ARGUS_FLIGHT_DIR");

    assert!(!a.is_clean(), "the planted violation went undetected");
    assert_eq!(a.line(), b.line(), "the violating run must replay");
    assert_eq!(a.violations, b.violations);
    assert!(!a.flight.is_empty(), "no flight dump for a violating run");
    for p in &a.flight {
        assert!(std::path::Path::new(p).exists(), "missing flight dump {p}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
