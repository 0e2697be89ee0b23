//! Crash torture: exhaustive fault injection against all four storage
//! organizations (the data behind experiment E8).
//!
//! Every run executes a two-guardian transfer with a crash armed at a
//! specific low-level page write; the victim alternates between the
//! participant and the coordinator. After restart and reconvergence, the
//! run checks that money was conserved and the transfer was all-or-nothing.
//!
//! ```sh
//! cargo run --example crash_torture
//! ```

use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{GuardianId, ObjRef, Value};

fn balance(w: &World, g: GuardianId) -> i64 {
    let guardian = w.guardian(g).expect("guardian");
    match guardian.stable_value("acct") {
        Some(Value::Ref(ObjRef::Heap(h))) => match guardian.heap.read_value(h, None) {
            Ok(Value::Int(b)) => *b,
            other => panic!("bad balance: {other:?}"),
        },
        other => panic!("unresolved account: {other:?}"),
    }
}

/// Returns (crashed, consistent, committed_and_durable).
fn run_case(kind: RsKind, victim_is_coordinator: bool, budget: u64) -> (bool, bool, bool) {
    let mut w = World::fast();
    let g0 = w.add_guardian(kind).expect("g0");
    let g1 = w.add_guardian(kind).expect("g1");
    for g in [g0, g1] {
        let a = w.begin(g).expect("begin");
        let account = w.create_atomic(g, a, Value::Int(100)).expect("create");
        w.set_stable(g, a, "acct", Value::heap_ref(account))
            .expect("bind");
        assert_eq!(w.commit(a).expect("commit"), Outcome::Committed);
    }

    let a = w.begin(g0).expect("begin");
    for (g, delta) in [(g0, -30i64), (g1, 30)] {
        let h = match w.guardian(g).expect("guardian").stable_value("acct") {
            Some(Value::Ref(ObjRef::Heap(h))) => h,
            _ => unreachable!(),
        };
        w.write_atomic(g, a, h, move |v| {
            if let Value::Int(b) = v {
                *b += delta;
            }
        })
        .expect("write");
    }

    let victim = if victim_is_coordinator { g0 } else { g1 };
    w.arm_crash_after_writes(victim, budget).expect("arm");
    let outcome = w.commit(a).expect("drive 2pc");
    let crashed = !w.is_up(victim);
    if crashed {
        w.crash(victim);
        w.restart(victim).expect("restart");
        w.run_until_quiet().expect("quiesce");
        w.requery_in_doubt().expect("requery");
    }

    let (b0, b1) = (balance(&w, g0), balance(&w, g1));
    let conserved = b0 + b1 == 200;
    let all_or_nothing = (b0, b1) == (70, 130) || (b0, b1) == (100, 100);
    let durable = outcome != Outcome::Committed || (b0, b1) == (70, 130);
    (crashed, conserved && all_or_nothing, durable)
}

fn main() {
    println!("organization | side        | crash points | consistent | durable commits");
    for kind in RsKind::ALL {
        for coordinator in [false, true] {
            let mut fired = 0u64;
            let mut consistent = 0u64;
            let mut durable = 0u64;
            for budget in 0..150 {
                let (crashed, ok, dur) = run_case(kind, coordinator, budget);
                if crashed {
                    fired += 1;
                    if ok {
                        consistent += 1;
                    }
                    if dur {
                        durable += 1;
                    }
                }
            }
            println!(
                "{:<12} | {:<11} | {fired:>12} | {consistent:>6}/{fired:<3} | {durable:>6}/{fired}",
                format!("{kind:?}"),
                if coordinator {
                    "coordinator"
                } else {
                    "participant"
                },
            );
            assert_eq!(consistent, fired, "inconsistent recovery detected!");
            assert_eq!(durable, fired, "a committed action was lost!");
        }
    }
    println!("\nevery injected crash recovered to a consistent, all-or-nothing state.");
}
