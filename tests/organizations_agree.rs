//! Cross-organization equivalence: the simple log, the hybrid log, the
//! shadowing baseline, and the redo log must recover identical stable
//! states from identical histories — the organizations differ in cost,
//! never in meaning.

use argus::guardian::{RsKind, World};
use argus::objects::{ObjRef, Value};
use argus::sim::DetRng;
use argus::workload::{Banking, BankingConfig, Reservations, ReservationsConfig};

fn bank_balances(seed: u64, kind: RsKind) -> Vec<i64> {
    let mut world = World::fast();
    let cfg = BankingConfig {
        guardians: 2,
        accounts_per_guardian: 8,
        initial: 500,
        zipf_theta: 0.4,
        cross_prob: 0.5,
        abort_prob: 0.1,
    };
    let bank = Banking::setup(&mut world, kind, cfg).unwrap();
    let mut rng = DetRng::new(seed);
    bank.run(&mut world, &mut rng, 60).unwrap();
    for &g in bank.guardians().to_vec().iter() {
        world.crash(g);
        world.restart(g).unwrap();
    }
    let mut balances = Vec::new();
    for &g in bank.guardians() {
        let guardian = world.guardian(g).unwrap();
        for i in 0..8 {
            match guardian.stable_value(&format!("acct{i}")) {
                Some(Value::Ref(ObjRef::Heap(h))) => {
                    match guardian.heap.read_value(h, None).unwrap() {
                        Value::Int(b) => balances.push(*b),
                        other => panic!("{other:?}"),
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }
    balances
}

#[test]
fn banking_histories_recover_identically() {
    for seed in [1u64, 2, 3] {
        let simple = bank_balances(seed, RsKind::Simple);
        let hybrid = bank_balances(seed, RsKind::Hybrid);
        let shadow = bank_balances(seed, RsKind::Shadow);
        let redo = bank_balances(seed, RsKind::Redo);
        assert_eq!(simple, hybrid, "seed {seed}: simple vs hybrid");
        assert_eq!(hybrid, shadow, "seed {seed}: hybrid vs shadow");
        assert_eq!(shadow, redo, "seed {seed}: shadow vs redo");
        // And the invariant holds.
        assert_eq!(simple.iter().sum::<i64>(), 2 * 8 * 500, "seed {seed}");
    }
}

#[test]
fn reservations_recover_identically() {
    let mut results = Vec::new();
    for kind in RsKind::ALL {
        let mut world = World::fast();
        let resv = Reservations::setup(
            &mut world,
            kind,
            ReservationsConfig {
                flights: 3,
                seats: 10,
            },
        )
        .unwrap();
        let mut rng = DetRng::new(77);
        let stats = resv.run(&mut world, &mut rng, 25).unwrap();
        world.crash(resv.guardian());
        world.restart(resv.guardian()).unwrap();
        results.push((
            stats,
            resv.booked_seats(&world).unwrap(),
            resv.audit_len(&world).unwrap(),
        ));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert_eq!(results[2], results[3]);
    // Seats and audit trail agree with each other.
    let (stats, seats, audit) = results[0];
    assert_eq!(stats.booked, seats);
    assert_eq!(seats, audit);
}
