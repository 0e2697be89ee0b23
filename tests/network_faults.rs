//! Two-phase commit under a hostile network: messages dropped, duplicated,
//! and reordered, and guardians partitioned (§2.2 assumes only that
//! "eventually any two nodes can communicate"). The protocol's idempotent
//! acknowledgments and query path must keep every guardian consistent.
//!
//! The duplication/reordering runs commit in overlapping waves
//! (`Banking::run_overlapped`): a coordinator no longer mails itself, so a
//! sequential two-guardian commit has one message in flight at a time and
//! the reorder injector — which defers a message behind the rest of the
//! queue — would have nothing to defer. The "deferrals were injected"
//! guards are what they were.

use argus::core::LogEntry;
use argus::guardian::{NetFaults, RsKind, World};
use argus::sim::DetRng;
use argus::workload::{Banking, BankingConfig};

fn run(kind: RsKind, seed: u64) {
    let cfg = BankingConfig {
        guardians: 3,
        accounts_per_guardian: 6,
        initial: 100,
        zipf_theta: 0.5,
        cross_prob: 0.7,
        abort_prob: 0.05,
    };
    let mut world = World::fast();
    let bank = Banking::setup(&mut world, kind, cfg).unwrap();
    // Heavy fault injection from here on.
    world.set_network_faults(Some(NetFaults::new(seed, 0.3, 0.3)));

    let mut rng = DetRng::new(seed ^ 0xABCD);
    let stats = bank.run_overlapped(&mut world, &mut rng, 60, 4).unwrap();
    assert!(
        stats.committed > 0,
        "{kind:?} seed {seed}: nothing committed"
    );

    // The injector must actually have fired.
    assert!(
        world.network().duplicated() > 0,
        "{kind:?} seed {seed}: no duplicates injected"
    );
    assert!(
        world.network().deferred() > 0,
        "{kind:?} seed {seed}: no deferrals injected"
    );

    // Settle any stragglers and audit.
    world.run_until_quiet().unwrap();
    world.requery_in_doubt().unwrap();
    assert_eq!(
        bank.total_balance(&world).unwrap(),
        bank.expected_total(),
        "{kind:?} seed {seed}: money not conserved under duplication/reordering"
    );

    // Crash-recovery still behaves under the faulty network.
    for &g in bank.guardians().to_vec().iter() {
        world.crash(g);
        world.restart(g).unwrap();
    }
    world.requery_in_doubt().unwrap();
    assert_eq!(bank.total_balance(&world).unwrap(), bank.expected_total());
}

#[test]
fn duplication_and_reordering_hybrid() {
    for seed in [3u64, 17, 99] {
        run(RsKind::Hybrid, seed);
    }
}

#[test]
fn duplication_and_reordering_simple() {
    run(RsKind::Simple, 5);
}

#[test]
fn duplication_and_reordering_shadow() {
    run(RsKind::Shadow, 7);
}

/// Lossy network on top of duplication and reordering: dropped mail is
/// recovered by the protocol's retry/query path, and the books still
/// balance.
fn run_with_drop(kind: RsKind, seed: u64) {
    let cfg = BankingConfig {
        guardians: 3,
        accounts_per_guardian: 6,
        initial: 100,
        zipf_theta: 0.5,
        cross_prob: 0.7,
        abort_prob: 0.05,
    };
    let mut world = World::fast();
    let bank = Banking::setup(&mut world, kind, cfg).unwrap();
    world.set_network_faults(Some(NetFaults::new(seed, 0.2, 0.2).with_drop(0.15)));

    let mut rng = DetRng::new(seed ^ 0x5EED);
    let stats = bank.run(&mut world, &mut rng, 60).unwrap();
    assert!(
        stats.committed > 0,
        "{kind:?} seed {seed}: nothing committed"
    );
    assert!(
        world.network().fault_dropped() > 0,
        "{kind:?} seed {seed}: no drops injected"
    );

    // Lift the faults (the §2.2 liveness assumption), settle, audit.
    world.set_network_faults(None);
    world.run_until_quiet().unwrap();
    world.requery_in_doubt().unwrap();
    assert_eq!(
        bank.total_balance(&world).unwrap(),
        bank.expected_total(),
        "{kind:?} seed {seed}: money not conserved under message loss"
    );
}

#[test]
fn message_loss_hybrid() {
    for seed in [2u64, 23] {
        run_with_drop(RsKind::Hybrid, seed);
    }
}

#[test]
fn message_loss_simple() {
    run_with_drop(RsKind::Simple, 11);
}

#[test]
fn message_loss_shadow() {
    run_with_drop(RsKind::Shadow, 13);
}

/// Partitions hold mail rather than dropping it: transfers run across a
/// partition, the cut heals, and every held message arrives — money is
/// conserved with no retry needed for the held leg.
fn run_with_partition(kind: RsKind, seed: u64) {
    let cfg = BankingConfig {
        guardians: 3,
        accounts_per_guardian: 6,
        initial: 100,
        zipf_theta: 0.5,
        cross_prob: 1.0,
        abort_prob: 0.0,
    };
    let mut world = World::fast();
    let bank = Banking::setup(&mut world, kind, cfg).unwrap();
    let gids = bank.guardians().to_vec();

    let mut rng = DetRng::new(seed);
    for round in 0..4 {
        let a = gids[round % gids.len()];
        let b = gids[(round + 1) % gids.len()];
        world.partition(a, b);
        bank.run(&mut world, &mut rng, 8).unwrap();
        world.heal_partition(a, b);
        bank.run(&mut world, &mut rng, 4).unwrap();
    }
    assert!(
        world.network().partitioned() > 0,
        "{kind:?} seed {seed}: no mail was ever held by a partition"
    );

    world.heal_all_partitions();
    world.run_until_quiet().unwrap();
    world.requery_in_doubt().unwrap();
    assert_eq!(
        bank.total_balance(&world).unwrap(),
        bank.expected_total(),
        "{kind:?} seed {seed}: money not conserved across partition/heal"
    );
}

#[test]
fn partition_and_heal_hybrid() {
    for seed in [4u64, 31] {
        run_with_partition(RsKind::Hybrid, seed);
    }
}

#[test]
fn partition_and_heal_simple() {
    run_with_partition(RsKind::Simple, 19);
}

#[test]
fn partition_and_heal_shadow() {
    run_with_partition(RsKind::Shadow, 29);
}

/// Regression: a message deferred by the reorder injector while its
/// recipient crashes must survive the outage (it is "still in the
/// network") and arrive after restart — it used to be silently dropped by
/// `mark_down`, which only the retry path papered over.
#[test]
fn deferred_mail_survives_recipient_crash() {
    let cfg = BankingConfig {
        guardians: 3,
        accounts_per_guardian: 6,
        initial: 100,
        zipf_theta: 0.5,
        cross_prob: 1.0,
        abort_prob: 0.0,
    };
    let mut world = World::fast();
    let bank = Banking::setup(&mut world, RsKind::Hybrid, cfg).unwrap();
    let gids = bank.guardians().to_vec();
    // Heavy deferral keeps mail parked in the network at all times.
    world.set_network_faults(Some(NetFaults::new(0xDEF, 0.0, 0.9)));

    let mut rng = DetRng::new(0xDEF ^ 1);
    for &victim in &gids {
        bank.run_overlapped(&mut world, &mut rng, 12, 4).unwrap();
        // Crash while deferred mail for the victim may be in flight.
        world.crash(victim);
        world.restart(victim).unwrap();
    }
    assert!(
        world.network().deferred() > 0,
        "no deferrals injected — the regression is not being exercised"
    );

    world.set_network_faults(None);
    world.run_until_quiet().unwrap();
    world.requery_in_doubt().unwrap();
    assert_eq!(
        bank.total_balance(&world).unwrap(),
        bank.expected_total(),
        "money not conserved when deferred mail spans a crash"
    );
}

/// The commit point is requested once. A duplicate of the last `PrepareOk`
/// that arrives while the commit point is staged and not yet forced used to
/// make the coordinator ask for it again: 2–8 `committing` records for one
/// two-guardian commit on most seeds, each followed by re-sent `Commit`s.
/// Every organization that can dump its log is audited; shadowing forces
/// inside the operation, has no such window, and runs for the conservation
/// check alone.
#[test]
fn a_committed_distributed_action_has_exactly_one_committing_record() {
    let cfg = || BankingConfig {
        guardians: 2,
        accounts_per_guardian: 6,
        initial: 100,
        zipf_theta: 0.5,
        cross_prob: 1.0,
        abort_prob: 0.0,
    };
    for kind in RsKind::ALL {
        let (mut audited, mut duplicated) = (0, 0);
        for seed in 0..40u64 {
            let mut world = World::fast();
            let bank = Banking::setup(&mut world, kind, cfg()).unwrap();
            world.set_network_faults(Some(NetFaults::new(seed, 0.5, 0.0)));
            let stats = bank.run(&mut world, &mut DetRng::new(seed), 2).unwrap();
            world.run_until_quiet().unwrap();
            duplicated += world.network().duplicated();
            assert_eq!(stats.committed, 2, "{kind:?} seed {seed}");
            assert_eq!(bank.total_balance(&world).unwrap(), bank.expected_total());
            for &g in bank.guardians() {
                let Some(entries) = world.dump_log(g).unwrap() else {
                    continue;
                };
                let mut committing = std::collections::BTreeMap::new();
                for (_, entry) in &entries {
                    if let LogEntry::Committing { aid, .. } = entry {
                        *committing.entry(*aid).or_insert(0u32) += 1;
                    }
                }
                for (aid, n) in committing {
                    assert_eq!(
                        n, 1,
                        "{kind:?} seed {seed}: {n} committing records for {aid}"
                    );
                    assert_eq!(aid.coordinator, g, "{kind:?} seed {seed}");
                    audited += 1;
                }
            }
        }
        assert!(duplicated > 0, "{kind:?}: no duplicates injected");
        if kind != RsKind::Shadow {
            assert_eq!(audited, 80, "{kind:?}: every commit crossed guardians");
        }
    }
}
