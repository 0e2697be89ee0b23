//! Soak test: a three-branch bank under sustained traffic with randomly
//! interleaved crashes, restarts, and housekeeping — the "realistic
//! application" run the thesis's ch. 6 calls for, with the global money
//! invariant audited continuously, and the world held to the standing check
//! at the end.

mod common;

use argus::core::HousekeepingMode;
use argus::guardian::{RsKind, World};
use argus::sim::DetRng;
use argus::workload::{Banking, BankingConfig};

fn soak(kind: RsKind, seed: u64) {
    let cfg = BankingConfig {
        guardians: 3,
        accounts_per_guardian: 10,
        initial: 1_000,
        zipf_theta: 0.8,
        cross_prob: 0.5,
        abort_prob: 0.1,
    };
    let mut world = World::fast();
    let bank = Banking::setup(&mut world, kind, cfg).unwrap();
    let expected = bank.expected_total();
    let mut rng = DetRng::new(seed);

    for round in 0..25u64 {
        bank.run(&mut world, &mut rng, 8).unwrap();

        // Random disturbance.
        match rng.gen_range(5) {
            0 => {
                let victim = bank.guardians()[rng.gen_range(3) as usize];
                world.crash(victim);
                world.restart(victim).unwrap();
            }
            1 if kind == RsKind::Hybrid => {
                let g = bank.guardians()[rng.gen_range(3) as usize];
                let mode = if rng.gen_bool(0.5) {
                    HousekeepingMode::Compaction
                } else {
                    HousekeepingMode::Snapshot
                };
                world.housekeep(g, mode).unwrap();
            }
            _ => {}
        }

        // Continuous audit: committed balances always conserve the total.
        assert_eq!(
            bank.total_balance(&world).unwrap(),
            expected,
            "{kind:?} seed {seed} round {round}: money not conserved"
        );
    }

    // Final full-cluster outage and audit.
    for &g in bank.guardians().to_vec().iter() {
        world.crash(g);
    }
    for &g in bank.guardians().to_vec().iter() {
        world.restart(g).unwrap();
    }
    world.run_until_quiet().unwrap();
    world.requery_in_doubt().unwrap();
    assert_eq!(
        bank.total_balance(&world).unwrap(),
        expected,
        "{kind:?} seed {seed}: final audit"
    );
    common::lint_world(&mut world);
}

#[test]
fn soak_every_organization() {
    for kind in RsKind::ALL {
        // Only the hybrid log takes the housekeeping disturbance; it gets
        // one more seed for it.
        let seeds: &[u64] = if kind == RsKind::Hybrid {
            &[1, 42, 1983]
        } else {
            &[1, 42]
        };
        for &seed in seeds {
            soak(kind, seed);
        }
    }
}
