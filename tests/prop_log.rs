//! Randomized tests of the stable-log substrate: arbitrary write / force /
//! crash sequences against a reference model.
//!
//! Driven by the in-tree deterministic RNG (`argus::sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible. Gated behind the
//! off-by-default `proptest` feature: `cargo test --features proptest`.

use argus::check::lint_log;
use argus::check::LogImage;
use argus::core::{encode_entry, LogEntry};
use argus::guardian::{RsKind, World};
use argus::objects::{ActionId, GuardianId, ObjKind, Uid, Value};
use argus::sim::{CostModel, DetRng, SimClock};
use argus::slog::{LogAddress, StableLog};
use argus::stable::{FaultPlan, MemStore};
use argus::workload::{Synth, SynthConfig};
use std::collections::HashMap;

mod common;

#[derive(Debug, Clone)]
enum LogOp {
    /// Buffer an entry of the given content length.
    Write(u16),
    /// Write the buffer to the device without forcing it (early prepare).
    Flush,
    /// Force the buffer.
    Force,
    /// Crash (drop buffered entries) and reopen.
    Crash,
}

/// Weighted draw: writes 6, flushes 1, forces 2, crashes 1 (of 10).
fn gen_op(rng: &mut DetRng) -> LogOp {
    match rng.gen_range(10) {
        0..=5 => LogOp::Write(rng.gen_range(2000) as u16),
        6 => LogOp::Flush,
        7 | 8 => LogOp::Force,
        _ => LogOp::Crash,
    }
}

fn payload(i: usize, len: u16) -> Vec<u8> {
    let mut bytes = vec![0u8; len as usize];
    for (j, b) in bytes.iter_mut().enumerate() {
        *b = (i.wrapping_mul(31).wrapping_add(j)) as u8;
    }
    bytes
}

/// After any sequence of writes, flushes, forces, and crashes, the log
/// contains exactly the forced prefix, in order, readable both forwards (by
/// address) and backwards (by iteration): what a flush put on the device is
/// no more durable than what stayed in the buffer.
#[test]
fn log_equals_forced_prefix() {
    let mut rng = DetRng::new(0x5106);
    for case in 0..64 {
        let ops: Vec<LogOp> = (0..rng.gen_between(1, 40))
            .map(|_| gen_op(&mut rng))
            .collect();
        let mut log = StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap();
        let mut durable: Vec<(argus::slog::LogAddress, Vec<u8>)> = Vec::new();
        let mut buffered: Vec<(argus::slog::LogAddress, Vec<u8>)> = Vec::new();
        let mut counter = 0usize;

        for op in &ops {
            match op {
                LogOp::Write(len) => {
                    let bytes = payload(counter, *len);
                    counter += 1;
                    let addr = log.write(&bytes);
                    buffered.push((addr, bytes));
                }
                LogOp::Flush => log.flush().unwrap(),
                LogOp::Force => {
                    log.force().unwrap();
                    durable.append(&mut buffered);
                }
                LogOp::Crash => {
                    log.reopen().unwrap();
                    buffered.clear();
                }
            }
        }
        log.force().unwrap();
        durable.append(&mut buffered);

        assert_eq!(log.stable_count(), durable.len() as u64, "case {case}");
        // Forward reads by address.
        for (addr, bytes) in &durable {
            let (_seq, got) = log.read(*addr).unwrap();
            assert_eq!(&got, bytes, "case {case}");
        }
        // Backward iteration covers exactly the durable entries, newest
        // first.
        let walked: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        let expected: Vec<Vec<u8>> = durable.iter().rev().map(|(_, b)| b.clone()).collect();
        assert_eq!(walked, expected, "case {case}");
    }
}

/// A crash at ANY device operation inside a force — a read, a page write or
/// the barrier; after an early flush of some of the entries or not — leaves
/// the log equal to either the pre-force or the post-force state, never
/// something in between, and so does a second crash at any device operation
/// of the reopen that follows (its superblock read, its forward scan, the
/// write and the barrier that open the next epoch).
#[test]
fn force_is_atomic_under_crashes() {
    let mut rng = DetRng::new(0xA70F);
    for case in 0..96 {
        let entries: Vec<u16> = (0..rng.gen_between(1, 6))
            .map(|_| rng.gen_range(600) as u16)
            .collect();
        // How many of the entries an early flush writes before the force.
        let flushed = rng.gen_range(entries.len() as u64 + 1) as usize;
        let crash_after = rng.gen_range(12);
        let second_crash_after = (rng.gen_range(3) == 0).then(|| rng.gen_range(12));

        let plan = FaultPlan::new();
        let store = MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast());
        let mut log = StableLog::create(store).unwrap();
        // A durable sentinel first.
        log.force_write(b"sentinel").unwrap();

        for (i, len) in entries.iter().enumerate() {
            log.write(&payload(i, *len));
            if i + 1 == flushed {
                log.flush().unwrap();
            }
        }
        plan.arm_after_ops(crash_after);
        let result = log.force();
        plan.heal();
        plan.disarm();
        if let Some(n) = second_crash_after {
            plan.arm_after_ops(n);
            if let Err(e) = log.reopen() {
                assert!(e.is_crash(), "case {case}: {e}");
            }
            plan.heal();
            plan.disarm();
        }
        log.reopen().unwrap();

        let count = log.stable_count();
        match result {
            Ok(()) => assert_eq!(count, 1 + entries.len() as u64, "case {case}"),
            Err(_) => assert!(
                count == 1 || count == 1 + entries.len() as u64,
                "case {case}: partial force became visible: {count} entries"
            ),
        }
        // Whatever survived is internally consistent, and what it holds is
        // what was written.
        let mut walked: Vec<Vec<u8>> = log.read_backward(None).map(|r| r.unwrap().2).collect();
        walked.reverse();
        assert_eq!(walked[0], b"sentinel", "case {case}");
        for (i, got) in walked[1..].iter().enumerate() {
            assert_eq!(got, &payload(i, entries[i]), "case {case}");
        }
    }
}

/// Generates a random hybrid log that follows the writer's discipline —
/// data entries below their prepared entry, chained outcomes, verdicts only
/// for prepared actions, references only to base-committed objects — and
/// asserts the argus-check linter accepts every one of them (I1–I9).
#[test]
fn random_well_formed_logs_lint_clean() {
    let mut rng = DetRng::new(0xC4EC);
    for case in 0..48u32 {
        let mut log = StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap();
        let mut force = |entry: &LogEntry| -> LogAddress {
            log.force_write(&encode_entry(entry).unwrap()).unwrap()
        };

        let mut prev: Option<LogAddress> = None;
        // Objects with a base_committed entry: safe targets for references.
        let mut based: Vec<Uid> = Vec::new();
        let mut kinds: HashMap<Uid, ObjKind> = HashMap::new();
        let mut next_uid = 1u64;

        for seq in 0..rng.gen_between(1, 10) {
            let aid = ActionId::new(GuardianId(0), seq);

            // Sometimes introduce a fresh base-committed object first.
            if rng.gen_range(3) == 0 {
                let uid = Uid(next_uid);
                next_uid += 1;
                kinds.insert(uid, ObjKind::Atomic);
                let a = force(&LogEntry::BaseCommitted {
                    uid,
                    value: Value::Int(seq as i64),
                    prev,
                });
                prev = Some(a);
                based.push(uid);
            }

            // The action's data entries, then its prepared entry.
            let mut pairs: Vec<(Uid, LogAddress)> = Vec::new();
            for _ in 0..rng.gen_range(3) {
                let uid = if !based.is_empty() && rng.gen_range(2) == 0 {
                    based[rng.gen_range(based.len() as u64) as usize]
                } else {
                    let uid = Uid(next_uid);
                    next_uid += 1;
                    uid
                };
                if pairs.iter().any(|(u, _)| *u == uid) {
                    continue;
                }
                let kind = *kinds.entry(uid).or_insert(if rng.gen_range(2) == 0 {
                    ObjKind::Atomic
                } else {
                    ObjKind::Mutex
                });
                // Reference only base-committed objects so the restorable
                // set stays closed whatever verdict this action draws.
                let value = if !based.is_empty() && rng.gen_range(3) == 0 {
                    Value::uid_ref(based[rng.gen_range(based.len() as u64) as usize])
                } else {
                    Value::Int(rng.gen_range(1000) as i64)
                };
                let d = force(&LogEntry::DataH { kind, value });
                pairs.push((uid, d));
            }
            let p = force(&LogEntry::Prepared { aid, pairs, prev });
            prev = Some(p);

            // Verdict: commit, abort, or stay in doubt.
            match rng.gen_range(4) {
                0 | 1 => {
                    let c = force(&LogEntry::Committed { aid, prev });
                    prev = Some(c);
                    // Coordinated actions log committing (+ sometimes done).
                    if rng.gen_range(3) == 0 {
                        let cg = force(&LogEntry::Committing {
                            aid,
                            gids: vec![GuardianId(1)],
                            prev,
                        });
                        prev = Some(cg);
                        if rng.gen_range(2) == 0 {
                            let d = force(&LogEntry::Done { aid, prev });
                            prev = Some(d);
                        }
                    }
                }
                2 => {
                    let a = force(&LogEntry::Aborted { aid, prev });
                    prev = Some(a);
                }
                _ => {}
            }
        }

        let report = lint_log(&LogImage::from_log(&mut log));
        assert!(
            report.is_clean(),
            "case {case}: generated log failed lint:\n{report}"
        );
    }
}

/// Any log the real system produces — randomized workload with periodic
/// housekeeping, then a crash/restart — lints clean.
#[test]
fn real_workload_logs_lint_clean() {
    for seed in [1u64, 7, 42] {
        let mut world = World::fast();
        let mut synth = Synth::setup(
            &mut world,
            RsKind::Hybrid,
            SynthConfig {
                objects: 12,
                writes_per_action: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let g = synth.guardian();
        let mut rng = DetRng::new(seed);
        for i in 0..40u64 {
            synth.action(&mut world, &mut rng, false).unwrap();
            if i % 17 == 16 {
                world
                    .housekeep(g, argus::core::HousekeepingMode::Compaction)
                    .unwrap();
            }
        }
        world.crash(g);
        world.restart(g).unwrap();
        common::lint_world(&mut world);
    }
}
