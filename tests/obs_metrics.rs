//! Integration tests of the observability layer: the metrics the
//! instrumented recovery path records must agree with what recovery itself
//! reports (`RecoveryOutcome`) and with the device-level `DeviceStats`.

use argus::core::providers::MemProvider;
use argus::core::{HybridLogRs, LogEntry, RecoverySystem};
use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{ActionId, GuardianId, Heap, ObjKind, Uid, Value};
use argus::obs::Registry;

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

/// The Figure 4-2/§4.3.2 scenario (see tests/scenario_hybrid.rs): the
/// registry's recovery counters must match the `RecoveryOutcome` field for
/// field.
#[test]
fn figure_4_2_metrics_agree_with_recovery_outcome() {
    let reg = Registry::new();
    let _scope = reg.enter();

    let (t1, t2) = (aid(1), aid(2));
    let (o1, o2) = (Uid(1), Uid(2));
    let mut rs = HybridLogRs::create(MemProvider::fast()).unwrap();

    let bc = rs
        .append_raw(
            &LogEntry::BaseCommitted {
                uid: o1,
                value: Value::Int(10),
                prev: None,
            },
            false,
        )
        .unwrap();
    let l1 = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Atomic,
                value: Value::Int(11),
            },
            false,
        )
        .unwrap();
    let l2 = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Mutex,
                value: Value::Int(21),
            },
            false,
        )
        .unwrap();
    let p1 = rs
        .append_raw(
            &LogEntry::Prepared {
                aid: t1,
                pairs: vec![(o1, l1), (o2, l2)],
                prev: Some(bc),
            },
            true,
        )
        .unwrap();
    let c1 = rs
        .append_raw(
            &LogEntry::Committed {
                aid: t1,
                prev: Some(p1),
            },
            true,
        )
        .unwrap();
    let l1p = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Atomic,
                value: Value::Int(12),
            },
            false,
        )
        .unwrap();
    let l2p = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Mutex,
                value: Value::Int(22),
            },
            false,
        )
        .unwrap();
    rs.append_raw(
        &LogEntry::Prepared {
            aid: t2,
            pairs: vec![(o1, l1p), (o2, l2p)],
            prev: Some(c1),
        },
        true,
    )
    .unwrap();

    rs.simulate_crash().unwrap();
    let mut heap = Heap::new();
    let out = rs.recover(&mut heap).unwrap();

    // The thesis's exact figures: 3 data entries read; the backward chain is
    // prepared(T2) → committed(T1) → prepared(T1) → bc, i.e. 4 hops.
    assert_eq!(out.data_entries_read, 3);
    assert_eq!(out.chain_hops, 4);

    // Counters mirror the outcome exactly.
    assert_eq!(reg.counter("core.recoveries").get(), 1);
    assert_eq!(
        reg.counter("core.recover.entries_examined").get(),
        out.entries_examined
    );
    assert_eq!(
        reg.counter("core.recover.data_entries_read").get(),
        out.data_entries_read
    );
    assert_eq!(reg.counter("core.recover.chain_hops").get(), out.chain_hops);

    // There is no event per hop or per data entry read: the counters above
    // carry the totals, and a restart takes no lock per hop.
}

/// A whole-world crash/restart: recovery counters must agree with the
/// `RecoveryOutcome`, with the stable-log's own read counter, and with the
/// device-level `DeviceStats` page tallies.
#[test]
fn world_recovery_metrics_agree_with_device_stats() {
    let (reg, tracer) = (Registry::new(), argus::trace::Tracer::new());
    let _scope = (reg.enter(), tracer.enter());

    let mut world = World::fast();
    let g = world.add_guardian(RsKind::Hybrid).unwrap();
    for i in 0..20i64 {
        let a = world.begin(g).unwrap();
        world
            .set_stable(g, a, &format!("k{}", i % 5), Value::Int(i))
            .unwrap();
        assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
    }
    let a = world.begin(g).unwrap();
    world.set_stable(g, a, "doomed", Value::Int(-1)).unwrap();
    world.abort_local(a);

    // Snapshot counters and device stats just before the crash so only the
    // recovery pass is measured.
    let entry_reads_before = reg.counter("slog.entry_reads").get();
    let device_before = world.guardian(g).unwrap().log_stats().device;

    world.crash(g);
    let outcome = world.restart(g).unwrap();
    let device = world
        .guardian(g)
        .unwrap()
        .log_stats()
        .device
        .since(&device_before);

    // The hybrid log walked a real backward chain.
    assert!(outcome.chain_hops > 0);
    assert!(outcome.entries_examined >= outcome.chain_hops);

    // Registry counters mirror the outcome.
    assert_eq!(reg.counter("core.recoveries").get(), 1);
    assert_eq!(
        reg.counter("core.recover.entries_examined").get(),
        outcome.entries_examined
    );
    assert_eq!(
        reg.counter("core.recover.chain_hops").get(),
        outcome.chain_hops
    );
    assert_eq!(
        reg.counter("core.recover.data_entries_read").get(),
        outcome.data_entries_read
    );

    // Every examined entry is one stable-log read: the slog layer's
    // independent counter must agree with the recovery layer's.
    let entry_reads = reg.counter("slog.entry_reads").get() - entry_reads_before;
    assert_eq!(entry_reads, outcome.entries_examined);

    // And the device really ran: recovery cost page reads, but never more
    // than one per examined entry (several small entries share a page).
    let page_reads = device.seq_reads + device.rand_reads;
    assert!(page_reads > 0, "recovery read no pages");
    assert!(
        page_reads <= outcome.entries_examined,
        "{page_reads} page reads > {} entries examined",
        outcome.entries_examined
    );
    assert!(device.busy_us > 0);

    // The phase timers measured the restart on the simulated clock. On a
    // log this short the device time is all in the log's open — its forward
    // scan from the superblock read every page — and the recovery pass that
    // follows finds them cached.
    assert_eq!(reg.histogram("core.recover_us").snapshot().count, 1);
    let restart_us = reg.histogram("world.restart_us").snapshot();
    assert_eq!(restart_us.count, 1);
    assert_eq!(restart_us.sum, device.busy_us);

    // World-level counters saw the crash and the restart, and the trace
    // holds one `recovery_pass` span for it.
    assert_eq!(reg.counter("world.crashes").get(), 1);
    assert_eq!(reg.counter("world.restarts").get(), 1);
    let passes = tracer.events().into_iter();
    let passes = passes.filter(|e| e.kind == argus::trace::Kind::RecoveryPass);
    assert_eq!(passes.count(), 1);
}

/// One world with its own registry and tracer, stepped one scripted round
/// at a time — each step entered under its own scopes, as the benchmark
/// steps its lanes.
struct Lane {
    reg: Registry,
    tracer: argus::trace::Tracer,
    world: World,
    gids: [GuardianId; 2],
    cells: [argus::objects::HeapId; 2],
}

impl Lane {
    fn new() -> Self {
        use argus::cc::CcPolicy;
        use argus::guardian::WorldConfig;
        let reg = Registry::new();
        let tracer = argus::trace::Tracer::new();
        let (_r, _t) = (reg.enter(), tracer.enter());
        let mut world = World::with_config(
            argus::sim::CostModel::fast(),
            WorldConfig::with_cc(CcPolicy::Blocking),
        );
        let gids = [
            world.add_guardian(RsKind::Hybrid).unwrap(),
            world.add_guardian(RsKind::Redo).unwrap(),
        ];
        let setup = world.begin(gids[0]).unwrap();
        let cells = gids.map(|g| {
            let h = world.create_atomic(g, setup, Value::Int(0)).unwrap();
            world
                .set_stable(g, setup, "cell", Value::heap_ref(h))
                .unwrap();
            h
        });
        assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);
        Self {
            reg,
            tracer,
            world,
            gids,
            cells,
        }
    }

    /// One round: a distributed action holding both cells, a second one
    /// that parks behind it (a lock wait), both committed by two-phase
    /// commit.
    fn step(&mut self) {
        use argus::cc::CcOutcome;
        let (_r, _t) = (self.reg.enter(), self.tracer.enter());
        let [g0, g1] = self.gids;
        let bump = |v: &mut Value| {
            if let Value::Int(n) = v {
                *n += 1;
            }
        };
        let first = self.world.begin(g0).unwrap();
        for (g, h) in self.gids.into_iter().zip(self.cells) {
            self.world.write_atomic(g, first, h, bump).unwrap();
        }
        let second = self.world.begin(g1).unwrap();
        assert_eq!(
            self.world
                .submit_write_atomic(g1, second, self.cells[1], bump)
                .unwrap(),
            CcOutcome::Parked
        );
        assert_eq!(self.world.commit(first).unwrap(), Outcome::Committed);
        assert!(!self.world.cc_blocked(second), "the commit grants the wait");
        assert_eq!(self.world.commit(second).unwrap(), Outcome::Committed);
    }
}

/// Several registries and tracers are live on one thread, and per-action
/// state machines find theirs through the thread's current scope: two
/// worlds stepped alternately must each record exactly what they record
/// when run alone — `twopc.*`, `cc.*`, `world.*`, `slog.*`, the trace,
/// everything.
#[test]
fn interleaved_worlds_keep_their_metrics_apart() {
    let solo = |steps: usize| {
        let mut lane = Lane::new();
        for _ in 0..steps {
            lane.step();
        }
        lane
    };
    let (steps_a, steps_b) = (7, 3);
    let (mut a, mut b) = (Lane::new(), Lane::new());
    for i in 0..steps_a.max(steps_b) {
        if i < steps_a {
            a.step();
        }
        if i < steps_b {
            b.step();
        }
    }
    for (lane, steps) in [(&a, steps_a), (&b, steps_b)] {
        let alone = solo(steps);
        let (got, want) = (lane.reg.report(), alone.reg.report());
        assert_eq!(got.counters, want.counters, "{steps} steps: counters");
        assert_eq!(got.hists, want.hists, "{steps} steps: histograms");
        assert_eq!(
            lane.tracer.events(),
            alone.tracer.events(),
            "{steps} steps: trace"
        );

        let n = steps as u64;
        let count = |name: &str| lane.reg.counter(name).get();
        // The setup action plus two per step; the first of each step spans
        // both guardians, the second is local to its origin and commits
        // without a participant machine. Re-pinned downward from 2 + 2n
        // (16 at seven steps) to 1 + n (8): a coordinator is no party to
        // its own protocol (DESIGN.md deviation 12), so a two-guardian
        // action runs one participant machine, the remote's, where it ran
        // two; and no envelope is addressed to its sender.
        assert_eq!(count("world.commits"), 1 + 2 * n);
        assert_eq!(count("twopc.coord.started"), 1 + 2 * n);
        assert_eq!(count("twopc.part.prepares"), 1 + n);
        assert_eq!(count("net.sent"), 4 * (1 + n));
        assert_eq!(count("net.self_sent"), 0);
        assert_eq!(count("cc.waits"), n);
        assert_eq!(lane.reg.histogram("cc.wait_us").snapshot().count, n);
        assert!(count("slog.forces") > 0 && count("world.sched.polls") > 0);
    }
    assert_ne!(
        a.reg.counter("slog.appends").get(),
        b.reg.counter("slog.appends").get(),
        "different step counts leave different logs"
    );
}
