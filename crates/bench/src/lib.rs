//! The experiment harness: regenerates the thesis's comparative claims as
//! tables (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded results).
//!
//! The thesis has no quantitative evaluation of its own — its "results" are
//! the cost claims of §1.2.2, §4.1, §4.4, and §5.3. Each `eN_*` function
//! here measures one claim across the three storage organizations on the
//! deterministic device model, so the *shape* (who wins, by what factor,
//! where the crossovers are) can be checked against the thesis's argument.
//! Simulated device time is the primary metric: it is exactly reproducible.

mod table;

pub use table::Table;

use argus_core::{HousekeepingMode, RecoveryMode, RecoverySystem};
use argus_guardian::{CcPolicy, Outcome, RsKind, World, WorldConfig};
use argus_objects::Value;
use argus_sim::{CostModel, StatsSnapshot};
use argus_workload::{Contended, ContendedConfig, Sharded, ShardedConfig, Synth, SynthConfig};

fn kind_name(kind: RsKind) -> &'static str {
    match kind {
        RsKind::Simple => "simple log",
        RsKind::Hybrid => "hybrid log",
        RsKind::Shadow => "shadowing",
        RsKind::Redo => "redo log",
    }
}

fn device(world: &World, g: argus_objects::GuardianId) -> StatsSnapshot {
    world.guardian(g).expect("guardian").log_stats().device
}

/// E1 — §1.2.2/§4.1: writing cost per committed action.
///
/// Claim: "Log ⇒ fast writing… Shadowing ⇒ slow writing"; the hybrid log
/// writes almost exactly like the pure log because the map fragment rides
/// inside the forced `prepared` entry.
pub fn e1_write_cost(commits: u64) -> Table {
    let mut table = Table::new(
        "E1",
        "Write cost per committed action (simulated device µs)",
        "thesis: simple ≈ hybrid < shadowing; the shadowing penalty is the per-commit map rewrite (see E7 for its scaling)",
    );
    table.header(vec![
        "objects/action".into(),
        "simple log".into(),
        "hybrid log".into(),
        "shadowing".into(),
        "redo log".into(),
        "shadow/hybrid".into(),
    ]);
    for writes in [1usize, 4, 16, 64] {
        let mut row = vec![writes.to_string()];
        let mut per_commit = Vec::new();
        for kind in RsKind::ALL {
            let mut world = World::new(CostModel::default());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects: 2_048,
                    writes_per_action: writes,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(1);
            let before = device(&world, g);
            synth.run(&mut world, &mut rng, commits).expect("run");
            let delta = device(&world, g).since(&before);
            let us = delta.busy_us / commits;
            per_commit.push(us);
            row.push(format!("{us}"));
        }
        row.push(format!(
            "{:.1}x",
            per_commit[2] as f64 / per_commit[1].max(1) as f64
        ));
        table.row(row);
    }
    table
}

/// E2 — §1.2.2/§4.1: recovery cost versus history length.
///
/// Claim: "Log ⇒ … slow recovery. Shadowing ⇒ … fast recovery"; the hybrid
/// log sits in between, much closer to shadowing because it walks only the
/// outcome chain.
pub fn e2_recovery_cost(lengths: &[u64]) -> (Table, Table) {
    let mut time = Table::new(
        "E2",
        "Recovery cost after a crash vs. history length (simulated device µs)",
        "thesis: shadow < hybrid ≪ simple; the simple log's cost grows with the whole history",
    );
    time.header(vec![
        "committed actions".into(),
        "simple log".into(),
        "hybrid log".into(),
        "shadowing".into(),
        "redo log".into(),
        "simple/hybrid".into(),
    ]);
    let mut examined = Table::new(
        "E3",
        "Log entries examined during recovery (entries / data entries read)",
        "thesis §4.1: the hybrid log reads only the outcome chain plus needed data entries",
    );
    examined.header(vec![
        "committed actions".into(),
        "simple log".into(),
        "hybrid log".into(),
        "shadowing".into(),
        "redo log".into(),
    ]);

    for &n in lengths {
        let mut time_row = vec![n.to_string()];
        let mut ex_row = vec![n.to_string()];
        let mut us = Vec::new();
        for kind in RsKind::ALL {
            let mut world = World::new(CostModel::default());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects: 128,
                    writes_per_action: 4,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(2);
            synth.run(&mut world, &mut rng, n).expect("run");
            world.crash(g);
            let before = device(&world, g);
            let outcome = world.restart(g).expect("recover");
            let delta = device(&world, g).since(&before);
            us.push(delta.busy_us);
            time_row.push(delta.busy_us.to_string());
            ex_row.push(format!(
                "{} / {}",
                outcome.entries_examined, outcome.data_entries_read
            ));
        }
        time_row.push(format!("{:.1}x", us[0] as f64 / us[1].max(1) as f64));
        time.row(time_row);
        examined.row(ex_row);
    }
    (time, examined)
}

/// E4 — §5.3: housekeeping cost, compaction vs snapshot.
///
/// Claim: "the snapshot… takes an amount of time roughly proportional to
/// the number of accessible recoverable objects; the compaction method
/// would take much longer since it must process all outcome entries as well
/// as all accessible objects."
pub fn e4_housekeeping_cost() -> Table {
    let mut table = Table::new(
        "E4",
        "Housekeeping cost (simulated device µs)",
        "thesis §5.3: compaction grows with history length; snapshot with live-set size",
    );
    table.header(vec![
        "live objects".into(),
        "history (commits)".into(),
        "compaction".into(),
        "snapshot".into(),
        "compaction/snapshot".into(),
    ]);
    for (objects, history) in [
        (64usize, 500u64),
        (64, 2_000),
        (64, 8_000),
        (256, 2_000),
        (1_024, 2_000),
    ] {
        let mut costs = Vec::new();
        for mode in [HousekeepingMode::Compaction, HousekeepingMode::Snapshot] {
            let mut world = World::new(CostModel::default());
            let mut synth = Synth::setup(
                &mut world,
                RsKind::Hybrid,
                SynthConfig {
                    objects,
                    writes_per_action: 4,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(3);
            synth.run(&mut world, &mut rng, history).expect("run");
            // Housekeeping swaps the log to a fresh store, so measure via
            // the shared clock (old-log reads + new-log writes included).
            let before = world.clock.now();
            world.housekeep(g, mode).expect("housekeeping");
            costs.push(world.clock.now() - before);
        }
        table.row(vec![
            objects.to_string(),
            history.to_string(),
            costs[0].to_string(),
            costs[1].to_string(),
            format!("{:.1}x", costs[0] as f64 / costs[1].max(1) as f64),
        ]);
    }
    table
}

/// E5 — ch. 5: a checkpoint bounds recovery.
pub fn e5_checkpoint_bounds_recovery() -> Table {
    let mut table = Table::new(
        "E5",
        "Recovery after a crash, with and without housekeeping first",
        "thesis ch. 5: the checkpoint bounds how much log recovery must examine",
    );
    table.header(vec![
        "history (commits)".into(),
        "no housekeeping (entries / µs)".into(),
        "after snapshot (entries / µs)".into(),
    ]);
    for history in [1_000u64, 4_000, 16_000] {
        let mut cells = Vec::new();
        for housekeep in [false, true] {
            let mut world = World::new(CostModel::default());
            let mut synth = Synth::setup(
                &mut world,
                RsKind::Hybrid,
                SynthConfig {
                    objects: 128,
                    writes_per_action: 4,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(4);
            synth.run(&mut world, &mut rng, history).expect("run");
            if housekeep {
                world
                    .housekeep(g, HousekeepingMode::Snapshot)
                    .expect("housekeeping");
            }
            world.crash(g);
            let before = device(&world, g);
            let outcome = world.restart(g).expect("recover");
            let us = device(&world, g).since(&before).busy_us;
            cells.push(format!("{} / {}", outcome.entries_examined, us));
        }
        table.row(vec![
            history.to_string(),
            cells[0].clone(),
            cells[1].clone(),
        ]);
    }
    table
}

/// E6 — §4.4: early prepare shortens the prepare critical path.
///
/// Claim: "Rather than waiting for a top-level action to prepare and then
/// writing out the data entries to the log all at once, it might be better
/// to write out changes early… if the action eventually commits just the
/// prepared and committed outcome entries are written."
pub fn e6_early_prepare() -> Table {
    use argus_core::providers::MemProvider;
    use argus_core::HybridLogRs;
    use argus_objects::Heap;

    let mut table = Table::new(
        "E6",
        "Prepare-phase critical path (simulated device µs per prepare)",
        "thesis §4.4: with early prepare only the prepared outcome entry remains on the critical path",
    );
    table.header(vec![
        "objects/action".into(),
        "prepare (no early prepare)".into(),
        "prepare (after early prepare)".into(),
        "speedup".into(),
    ]);
    for writes in [1usize, 4, 16, 64] {
        let mut costs = Vec::new();
        for early in [false, true] {
            let clock = argus_sim::SimClock::new();
            let provider = MemProvider {
                clock: clock.clone(),
                model: CostModel::default(),
                plan: None,
            };
            let mut rs = HybridLogRs::create(provider).expect("rs");
            let mut heap = Heap::with_stable_root();
            // Create the objects (committed).
            let t0 = argus_objects::ActionId::new(argus_objects::GuardianId(0), 0);
            let root = heap.stable_root().expect("root");
            heap.acquire_write(root, t0).expect("lock");
            let mut objs = Vec::new();
            for _ in 0..writes {
                let h = heap.alloc_atomic(Value::Bytes(vec![0; 48]), Some(t0));
                objs.push(h);
            }
            let refs: Vec<Value> = objs.iter().map(|h| Value::heap_ref(*h)).collect();
            heap.write_value(root, t0, |v| *v = Value::Seq(refs))
                .expect("write");
            rs.prepare(t0, &[root], &heap).expect("prepare");
            rs.commit(t0).expect("commit");
            heap.commit_action(t0);

            // Measure 50 prepares.
            let rounds = 50u64;
            let mut total = 0u64;
            for i in 0..rounds {
                let aid = argus_objects::ActionId::new(argus_objects::GuardianId(0), i + 1);
                for &h in &objs {
                    heap.acquire_write(h, aid).expect("lock");
                    heap.write_value(h, aid, |v| *v = Value::Bytes(vec![i as u8; 48]))
                        .expect("write");
                }
                let mos: Vec<_> = objs.clone();
                let mos = if early {
                    // Background (free-time) writing, off the critical path.
                    rs.write_entry(aid, &mos, &heap).expect("early prepare")
                } else {
                    mos
                };
                let start = clock.now();
                rs.prepare(aid, &mos, &heap).expect("prepare");
                total += clock.now() - start;
                rs.commit(aid).expect("commit");
                heap.commit_action(aid);
            }
            costs.push(total / rounds);
        }
        table.row(vec![
            writes.to_string(),
            costs[0].to_string(),
            costs[1].to_string(),
            format!("{:.1}x", costs[0] as f64 / costs[1].max(1) as f64),
        ]);
    }
    table
}

/// E7 — §1.2.1: the shadowing map rewrite grows with the number of objects;
/// the hybrid log's distributed map does not.
pub fn e7_map_scaling() -> Table {
    let mut table = Table::new(
        "E7",
        "Commit cost vs. total live objects, fixed 4 writes/action (device µs per commit)",
        "thesis §1.2.1: rewriting the map at every commit \"could be expensive, especially if the map is large\"",
    );
    table.header(vec![
        "live objects".into(),
        "hybrid log".into(),
        "shadowing".into(),
        "shadow/hybrid".into(),
    ]);
    for objects in [1_000usize, 4_000, 16_000, 32_000] {
        let commits = 50u64;
        let mut costs = Vec::new();
        for kind in [RsKind::Hybrid, RsKind::Shadow] {
            let mut world = World::new(CostModel::default());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects,
                    writes_per_action: 4,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(5);
            let before = device(&world, g);
            synth.run(&mut world, &mut rng, commits).expect("run");
            costs.push(device(&world, g).since(&before).busy_us / commits);
        }
        table.row(vec![
            objects.to_string(),
            costs[0].to_string(),
            costs[1].to_string(),
            format!("{:.1}x", costs[1] as f64 / costs[0].max(1) as f64),
        ]);
    }
    table
}

/// E8 — correctness under fault injection: the crash matrix of §2.2.3.
pub fn e8_crash_matrix() -> Table {
    use argus_objects::{GuardianId, ObjRef};

    fn balance(w: &World, g: GuardianId) -> i64 {
        let guardian = w.guardian(g).expect("guardian");
        match guardian.stable_value("acct") {
            Some(Value::Ref(ObjRef::Heap(h))) => match guardian.heap.read_value(h, None) {
                Ok(Value::Int(b)) => *b,
                _ => panic!("bad balance"),
            },
            _ => panic!("unresolved account"),
        }
    }

    let mut table = Table::new(
        "E8",
        "Fault-injection torture: distributed transfer with a crash at every write step",
        "required: 100% of recoveries consistent (conserved + all-or-nothing) and no committed action lost",
    );
    table.header(vec![
        "organization".into(),
        "victim".into(),
        "crashes fired".into(),
        "consistent".into(),
        "durable commits".into(),
    ]);
    for kind in RsKind::ALL {
        for coordinator in [false, true] {
            let mut fired = 0u64;
            let mut consistent = 0u64;
            let mut durable = 0u64;
            for budget in 0..150u64 {
                let mut w = World::fast();
                let g0 = w.add_guardian(kind).expect("g0");
                let g1 = w.add_guardian(kind).expect("g1");
                for g in [g0, g1] {
                    let a = w.begin(g).expect("begin");
                    let account = w.create_atomic(g, a, Value::Int(100)).expect("create");
                    w.set_stable(g, a, "acct", Value::heap_ref(account))
                        .expect("bind");
                    w.commit(a).expect("commit");
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
                let victim = if coordinator { g0 } else { g1 };
                w.arm_crash_after_writes(victim, budget).expect("arm");
                let outcome = w.commit(a).expect("2pc");
                if w.is_up(victim) {
                    continue;
                }
                fired += 1;
                w.crash(victim);
                w.restart(victim).expect("restart");
                w.run_until_quiet().expect("quiesce");
                w.requery_in_doubt().expect("requery");
                let (b0, b1) = (balance(&w, g0), balance(&w, g1));
                let ok = b0 + b1 == 200 && ((b0, b1) == (70, 130) || (b0, b1) == (100, 100));
                if ok {
                    consistent += 1;
                }
                if outcome != argus_guardian::Outcome::Committed || (b0, b1) == (70, 130) {
                    durable += 1;
                }
            }
            table.row(vec![
                kind_name(kind).into(),
                if coordinator {
                    "coordinator"
                } else {
                    "participant"
                }
                .into(),
                fired.to_string(),
                format!("{consistent}/{fired}"),
                format!("{durable}/{fired}"),
            ]);
        }
    }
    table
}

/// E9 — robustness of the orderings to the device profile.
///
/// The thesis's argument is about I/O *structure* (appends vs seeks vs map
/// rewrites), not one device's constants. Re-run the E1/E2 comparisons on a
/// device 1000× faster than the early-80s default: every ordering must hold
/// on both.
pub fn e9_device_sensitivity() -> Table {
    let mut table = Table::new(
        "E9",
        "Ordering robustness across device profiles (device µs)",
        "ablation: the who-wins orderings of E1/E2 must not depend on the cost constants",
    );
    table.header(vec![
        "profile".into(),
        "metric".into(),
        "simple log".into(),
        "hybrid log".into(),
        "shadowing".into(),
        "redo log".into(),
        "ordering holds".into(),
    ]);
    for (name, model) in [
        ("1983 disk", CostModel::default()),
        ("fast device", CostModel::fast()),
    ] {
        // Write cost per commit (16 writes/action, 2048 live objects).
        let mut write_us = Vec::new();
        for kind in RsKind::ALL {
            let mut world = World::new(model.clone());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects: 2_048,
                    writes_per_action: 16,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(6);
            let before = device(&world, g);
            synth.run(&mut world, &mut rng, 100).expect("run");
            write_us.push(device(&world, g).since(&before).busy_us / 100);
        }
        let write_ok =
            write_us[0] < write_us[2] && write_us[1] < write_us[2] && write_us[3] < write_us[2];
        table.row(vec![
            name.into(),
            "write/commit".into(),
            write_us[0].to_string(),
            write_us[1].to_string(),
            write_us[2].to_string(),
            write_us[3].to_string(),
            if write_ok { "yes".into() } else { "NO".into() },
        ]);

        // Recovery cost after 2000 commits.
        let mut rec_us = Vec::new();
        for kind in RsKind::ALL {
            let mut world = World::new(model.clone());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects: 128,
                    writes_per_action: 4,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = argus_sim::DetRng::new(7);
            synth.run(&mut world, &mut rng, 2_000).expect("run");
            world.crash(g);
            let before = device(&world, g);
            world.restart(g).expect("recover");
            rec_us.push(device(&world, g).since(&before).busy_us);
        }
        // The redo log's full-scan recovery reads the whole history like the
        // simple log's (E20 is where its fast restart modes are priced), so
        // the ordering constraint is only that both full scans lose to the
        // chain/map organizations.
        let rec_ok = rec_us[2] < rec_us[1] && rec_us[1] < rec_us[0] && rec_us[1] < rec_us[3];
        table.row(vec![
            name.into(),
            "recovery".into(),
            rec_us[0].to_string(),
            rec_us[1].to_string(),
            rec_us[2].to_string(),
            rec_us[3].to_string(),
            if rec_ok { "yes".into() } else { "NO".into() },
        ]);
    }
    table
}

/// Per-commit device costs measured by [`commit_perf`].
#[derive(Debug, Clone, Copy)]
pub struct CommitPerf {
    /// Device force barriers per committed action.
    pub forces_per_commit: f64,
    /// Simulated device-busy µs per committed action.
    pub us_per_commit: u64,
}

/// Runs `rounds` batches of `concurrency` concurrent actions (disjoint
/// object sets, all committed via two-phase commit launched together so
/// their log forces can coalesce) at a single guardian, and reports the
/// per-commit device cost.
pub fn commit_perf(kind: RsKind, concurrency: usize, rounds: u64, cfg: WorldConfig) -> CommitPerf {
    let mut world = World::with_config(CostModel::default(), cfg);
    let g = world.add_guardian(kind).expect("guardian");
    let setup = world.begin(g).expect("begin");
    let mut objs = Vec::new();
    for i in 0..concurrency {
        let h = world
            .create_atomic(g, setup, Value::Bytes(vec![0; 48]))
            .expect("create");
        world
            .set_stable(g, setup, &format!("o{i}"), Value::heap_ref(h))
            .expect("bind");
        objs.push(h);
    }
    assert_eq!(
        world.commit(setup).expect("setup commit"),
        Outcome::Committed
    );

    let before = device(&world, g);
    let mut commits = 0u64;
    for round in 0..rounds {
        let aids: Vec<_> = (0..concurrency)
            .map(|_| world.begin(g).expect("begin"))
            .collect();
        for (i, &aid) in aids.iter().enumerate() {
            let fill = (round & 0xFF) as u8;
            world
                .write_atomic(g, aid, objs[i], move |v| *v = Value::Bytes(vec![fill; 48]))
                .expect("write");
        }
        // Launch every commit before settling any: the prepares (and then
        // the commit-phase records) of the whole batch are in flight
        // together and share group-commit forces.
        for &aid in &aids {
            world.commit_start(aid).expect("start");
        }
        for &aid in &aids {
            assert_eq!(
                world.commit_settle(aid).expect("settle"),
                Outcome::Committed
            );
            commits += 1;
        }
    }
    let delta = device(&world, g).since(&before);
    CommitPerf {
        forces_per_commit: delta.forces as f64 / commits as f64,
        us_per_commit: delta.busy_us / commits,
    }
}

/// What one two-guardian commit costs, alone in a fresh world, measured by
/// [`two_guardian_commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoGuardianCommit {
    /// Device force barriers at the coordinator's guardian.
    pub coordinator_forces: u64,
    /// Device force barriers at the other participant.
    pub participant_forces: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Real `fsync`/`fdatasync` calls, both guardians together (from the
    /// `stable.file.fsyncs` counter; 0 on simulated media).
    pub fsyncs: u64,
}

impl TwoGuardianCommit {
    /// What it must cost (DESIGN.md deviation 12): the commit point at the
    /// coordinator's guardian, `prepared` and `committed` at the participant,
    /// and prepare, vote, commit, acknowledgement between them.
    pub const EXPECTED: Self = Self {
        coordinator_forces: 1,
        participant_forces: 2,
        messages: 4,
        fsyncs: 0,
    };
}

/// Commits one action that writes an object at each of two guardians,
/// coordinated at the first, with nothing else in flight.
pub fn two_guardian_commit(kind: RsKind, cfg: WorldConfig) -> TwoGuardianCommit {
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut world = World::with_config(CostModel::fast(), cfg);
    let gids = [(); 2].map(|()| world.add_guardian(kind).expect("guardian"));
    let objs = gids.map(|g| {
        let setup = world.begin(g).expect("begin");
        let h = world
            .create_atomic(g, setup, Value::Int(0))
            .expect("create");
        world
            .set_stable(g, setup, "o", Value::heap_ref(h))
            .expect("bind");
        assert_eq!(world.commit(setup).expect("setup"), Outcome::Committed);
        h
    });

    let forces = |world: &World| gids.map(|g| device(world, g).forces);
    let (before, mail) = (forces(&world), world.network().delivered());
    let fsyncs = reg.counter("stable.file.fsyncs");
    let fsyncs0 = fsyncs.get();
    let aid = world.begin(gids[0]).expect("begin");
    for (g, h) in gids.into_iter().zip(objs) {
        world
            .write_atomic(g, aid, h, |v| *v = Value::Int(1))
            .expect("write");
    }
    assert_eq!(world.commit(aid).expect("commit"), Outcome::Committed);
    let after = forces(&world);
    TwoGuardianCommit {
        coordinator_forces: after[0] - before[0],
        participant_forces: after[1] - before[1],
        messages: world.network().delivered() - mail,
        fsyncs: fsyncs.get() - fsyncs0,
    }
}

/// E12 — group commit: forces and device time per commit vs. concurrency.
///
/// The thesis's log argument (§3.2) prices a commit at a forced append; the
/// group-commit scheduler makes one *device* force cover every action whose
/// records are staged when it runs. Shadowing has no force to share, so it
/// stays flat.
pub fn e12_group_commit(rounds: u64) -> Table {
    let mut table = Table::new(
        "E12",
        "Group commit: device forces and µs per commit vs. concurrent actions",
        "claim: concurrent actions share forces on the log organizations — forces/commit falls with concurrency; shadowing cannot batch",
    );
    table.header(vec![
        "concurrent actions".into(),
        "simple (forces/commit)".into(),
        "hybrid (forces/commit)".into(),
        "shadow (forces/commit)".into(),
        "redo (forces/commit)".into(),
        "simple (µs/commit)".into(),
        "hybrid (µs/commit)".into(),
        "shadow (µs/commit)".into(),
        "redo (µs/commit)".into(),
    ]);
    for n in [1usize, 2, 4, 8] {
        let perf: Vec<CommitPerf> = RsKind::ALL
            .iter()
            .map(|&kind| commit_perf(kind, n, rounds, WorldConfig::default()))
            .collect();
        table.row(vec![
            n.to_string(),
            format!("{:.2}", perf[0].forces_per_commit),
            format!("{:.2}", perf[1].forces_per_commit),
            format!("{:.2}", perf[2].forces_per_commit),
            format!("{:.2}", perf[3].forces_per_commit),
            perf[0].us_per_commit.to_string(),
            perf[1].us_per_commit.to_string(),
            perf[2].us_per_commit.to_string(),
            perf[3].us_per_commit.to_string(),
        ]);
    }
    table
}

/// Recovery device cost and cache effectiveness measured by
/// [`recovery_perf`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPerf {
    /// Simulated device-busy µs spent by the restart (recovery included).
    pub device_us: u64,
    /// Page-cache hits during the restart.
    pub hits: u64,
    /// Page-cache misses during the restart.
    pub misses: u64,
    /// Pages prefetched by read-ahead during the restart.
    pub readahead: u64,
}

/// Builds `history` committed actions on one guardian, crashes it, and
/// measures the restart's device time plus the page cache's counters.
pub fn recovery_perf(kind: RsKind, history: u64, cfg: WorldConfig) -> RecoveryPerf {
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut world = World::with_config(CostModel::default(), cfg);
    let mut synth = Synth::setup(
        &mut world,
        kind,
        SynthConfig {
            objects: 128,
            writes_per_action: 4,
            value_size: 48,
            ..Default::default()
        },
    )
    .expect("setup");
    let g = synth.guardian();
    let mut rng = argus_sim::DetRng::new(8);
    synth.run(&mut world, &mut rng, history).expect("run");
    world.crash(g);
    let hits0 = reg.counter("stable.cache.hit").get();
    let misses0 = reg.counter("stable.cache.miss").get();
    let ra0 = reg.counter("stable.cache.readahead").get();
    let before = device(&world, g);
    world.restart(g).expect("recover");
    RecoveryPerf {
        device_us: device(&world, g).since(&before).busy_us,
        hits: reg.counter("stable.cache.hit").get() - hits0,
        misses: reg.counter("stable.cache.miss").get() - misses0,
        readahead: reg.counter("stable.cache.readahead").get() - ra0,
    }
}

/// E13 — the page cache + read-ahead under recovery.
///
/// The hybrid log's backward chain walk re-reads pages it just touched
/// (header and payload of adjacent records share pages), and the prefetch
/// window turns its backward page sequence into sequential-rate device
/// reads; the simple log's full forward scan benefits the same way.
pub fn e13_recovery_cache(history: u64) -> Table {
    let mut table = Table::new(
        "E13",
        "Recovery device time with and without the page cache + read-ahead",
        "claim: caching + read-ahead cuts recovery device time ≥30% for the log organizations; the cache is volatile so crash semantics are unchanged",
    );
    table.header(vec![
        "organization".into(),
        "uncached µs".into(),
        "cached µs".into(),
        "reduction".into(),
        "hits".into(),
        "misses".into(),
        "readahead".into(),
    ]);
    for kind in [RsKind::Simple, RsKind::Hybrid, RsKind::Redo] {
        let uncached = recovery_perf(
            kind,
            history,
            WorldConfig {
                cache: argus_stable::CacheConfig::disabled(),
                ..Default::default()
            },
        );
        let cached = recovery_perf(kind, history, WorldConfig::default());
        table.row(vec![
            kind_name(kind).into(),
            uncached.device_us.to_string(),
            cached.device_us.to_string(),
            format!(
                "{:.0}%",
                (1.0 - cached.device_us as f64 / uncached.device_us.max(1) as f64) * 100.0
            ),
            cached.hits.to_string(),
            cached.misses.to_string(),
            cached.readahead.to_string(),
        ]);
    }
    table
}

/// E11 — bounded model check of two-phase commit (DESIGN.md § Checking).
///
/// Runs the `argus-check` interleaving explorer over the real `twopc` state
/// machines across a sweep of crash/drop budgets — with the coordinator as a
/// separate node and as a participant of its own action — and reports its
/// coverage:
/// distinct states visited, crash points injected, messages dropped, and
/// per-state log lints — all of which must find **zero** atomicity
/// violations. The same counters are exported through `argus-obs`
/// (`check.explore.*`), so the harness's per-run metrics report shows them
/// alongside every other layer's.
pub fn e11_explore_coverage() -> Table {
    use argus_check::{ExploreConfig, Explorer};

    let mut table = Table::new(
        "E11",
        "Bounded 2PC interleaving exploration: coverage vs. fault budget",
        "required: zero atomicity violations (A1-A4 + termination) in every configuration; eager restarts re-check the stale-vote race class",
    );
    table.header(vec![
        "participants".into(),
        "coordinator".into(),
        "crashes".into(),
        "drops".into(),
        "eager restarts".into(),
        "states".into(),
        "crash points".into(),
        "dropped msgs".into(),
        "lints".into(),
        "terminal".into(),
        "violations".into(),
    ]);
    for (participants, coordinator_participates, max_crashes, max_drops, eager_restarts) in [
        // No participants: a local action, committed in one forced step.
        (0usize, true, 2u32, 0u32, true),
        // The coordinator's node is a participant too, as in `World`: its
        // commit point is one forced step and it is no party to the protocol.
        (1, true, 2, 1, true),
        (2, true, 2, 1, false),
        // The coordinator is a separate node that only coordinates.
        (2, false, 0, 0, false),
        (2, false, 1, 0, false),
        (2, false, 1, 1, false),
        (2, false, 2, 1, false),
        (3, false, 1, 0, false),
        (8, false, 1, 0, false),
        (2, false, 1, 0, true),
    ] {
        let report = Explorer::new(ExploreConfig {
            participants,
            coordinator_participates,
            max_crashes,
            max_drops,
            max_states: 200_000,
            allow_refusal: true,
            eager_restarts,
        })
        .run();
        report.assert_ok();
        let s = report.stats;
        table.row(vec![
            participants.to_string(),
            if coordinator_participates {
                "participant"
            } else {
                "separate"
            }
            .into(),
            max_crashes.to_string(),
            max_drops.to_string(),
            if eager_restarts { "yes" } else { "no" }.into(),
            s.states_visited.to_string(),
            s.crash_points.to_string(),
            s.drops.to_string(),
            s.lint_runs.to_string(),
            s.terminal_states.to_string(),
            report.violations.len().to_string(),
        ]);
    }
    table
}

/// One cell of E14 measured by [`cc_perf`]: the contended zipfian mix under
/// one concurrency-control policy, log organization, and slot count.
#[derive(Debug, Clone, Copy)]
pub struct CcPerf {
    /// Transfers committed (`concurrency × transfers_per_slot`).
    pub committed: u64,
    /// Aborted-and-retried attempts.
    pub retries: u64,
    /// Deadlock cycles broken by a victim abort.
    pub deadlocks: u64,
    /// Lock waits expired by the timeout policy.
    pub timeouts: u64,
    /// Retried attempts over all attempts.
    pub abort_rate: f64,
    /// p99 transfer latency in simulated µs (first begin → commit).
    pub p99_us: u64,
    /// Committed transfers per simulated second.
    pub commits_per_s: f64,
}

/// Runs the contended transfer mix ([`Contended`]) under `policy` and
/// reports the cell's metrics. Conserved balances are asserted, so every
/// E14 run doubles as a correctness check of the lock scheduler.
pub fn cc_perf(kind: RsKind, policy: CcPolicy, concurrency: usize, transfers: u64) -> CcPerf {
    // Record into the caller's registry scope (so the experiment's metrics
    // report shows the cc.* counters); per-run deadlocks are a delta.
    let reg = argus_obs::current();
    let deadlocks_before = reg.counter("cc.deadlocks").get();
    let mut world = World::with_config(CostModel::default(), WorldConfig::with_cc(policy));
    let mix = Contended::setup(
        &mut world,
        kind,
        ContendedConfig {
            concurrency,
            transfers_per_slot: transfers,
            ..Default::default()
        },
    )
    .expect("setup");
    let mut rng = argus_sim::DetRng::new(14);
    let start = world.clock.now();
    let stats = mix.run(&mut world, &mut rng).expect("contended run");
    let elapsed_us = world.clock.now() - start;
    assert_eq!(
        mix.total_balance(&world).expect("balance"),
        mix.expected_total(),
        "{kind:?}/{policy:?}: transfers did not conserve the total balance"
    );
    CcPerf {
        committed: stats.committed,
        retries: stats.retries,
        deadlocks: reg.counter("cc.deadlocks").get() - deadlocks_before,
        timeouts: stats.timeouts,
        abort_rate: stats.abort_rate(),
        p99_us: stats.p99_latency_us(),
        commits_per_s: stats.committed as f64 * 1e6 / elapsed_us.max(1) as f64,
    }
}

/// E14 — concurrency-control policies under contention (§2.4.1).
///
/// The thesis prescribes two-phase locking but leaves the conflict policy
/// open. Three policies run the same deadlock-prone zipfian transfer mix on
/// every log organization: refuse-and-retry (conflict-abort), FIFO blocking
/// with wait-for-graph deadlock detection, and lock-wait timeout.
pub fn e14_cc_policies(concurrencies: &[usize], transfers: u64) -> Table {
    let mut table = Table::new(
        "E14",
        "Concurrency-control policies on the contended zipfian mix (throughput, abort rate, p99 latency)",
        "claim: blocking beats conflict-abort at high contention (fewer wasted attempts); deadlock detection bounds p99 below the timeout policy's",
    );
    table.header(vec![
        "organization".into(),
        "concurrent actions".into(),
        "policy".into(),
        "commits/s".into(),
        "abort rate".into(),
        "p99 µs".into(),
        "deadlocks".into(),
        "timeouts".into(),
    ]);
    for kind in RsKind::ALL {
        for &n in concurrencies {
            for policy in [
                CcPolicy::ConflictAbort,
                CcPolicy::Blocking,
                CcPolicy::Timeout,
            ] {
                let perf = cc_perf(kind, policy, n, transfers);
                table.row(vec![
                    kind_name(kind).into(),
                    n.to_string(),
                    policy.name().into(),
                    format!("{:.1}", perf.commits_per_s),
                    format!("{:.1}%", perf.abort_rate * 100.0),
                    perf.p99_us.to_string(),
                    perf.deadlocks.to_string(),
                    perf.timeouts.to_string(),
                ]);
            }
        }
    }
    table
}

/// One cell of E21 measured by [`sharded_perf`]: the sharded many-guardian
/// mix on one log organization at one world scale.
#[derive(Debug, Clone, Copy)]
pub struct ShardPerf {
    /// Actions committed.
    pub committed: u64,
    /// Committed actions that ran distributed two-phase commit.
    pub cross_shard: u64,
    /// Retried attempts over all attempts.
    pub abort_rate: f64,
    /// Committed actions per simulated second.
    pub commits_per_s: f64,
    /// Shards that coordinated at least one commit.
    pub coordinating_shards: usize,
    /// Peak-to-mean coordinator load (1.0 = perfectly even).
    pub coordinator_skew: f64,
    /// World-scheduler guardian polls per committed action — the tentpole
    /// metric: stays flat as the guardian count grows because the scheduler
    /// visits only guardians with staged or due batches, never all `G`.
    pub polls_per_commit: f64,
    /// p99 action latency in simulated µs (first begin → commit).
    pub p99_us: u64,
}

/// Runs the sharded mix ([`Sharded`]) at one scale under FIFO blocking with
/// deadlock detection and reports the cell's metrics. Both conservation
/// oracles (total balance, seats vs. committed reservations) are asserted,
/// so every E21 cell doubles as a correctness check of the sharded world.
pub fn sharded_perf(kind: RsKind, cfg: ShardedConfig) -> ShardPerf {
    let reg = argus_obs::current();
    let polls_before = reg.counter("world.sched.polls").get();
    let mut world = World::with_config(
        CostModel::default(),
        WorldConfig::with_cc(CcPolicy::Blocking),
    );
    let mix = Sharded::setup(&mut world, kind, cfg).expect("setup");
    let mut rng = argus_sim::DetRng::new(21);
    let start = world.clock.now();
    let stats = mix.run(&mut world, &mut rng).expect("sharded run");
    let elapsed_us = world.clock.now() - start;
    assert_eq!(
        mix.total_balance(&world).expect("balance"),
        mix.expected_total(),
        "{kind:?}/{} shards: the mix did not conserve the total balance",
        cfg.shards
    );
    assert_eq!(
        mix.total_seats(&world).expect("seats"),
        mix.expected_seats(&stats),
        "{kind:?}/{} shards: seats do not match committed reservations",
        cfg.shards
    );
    let polls = reg.counter("world.sched.polls").get() - polls_before;
    ShardPerf {
        committed: stats.committed,
        cross_shard: stats.cross_shard,
        abort_rate: stats.abort_rate(),
        commits_per_s: stats.committed as f64 * 1e6 / elapsed_us.max(1) as f64,
        coordinating_shards: stats.coordinating_shards(),
        coordinator_skew: stats.coordinator_skew(),
        polls_per_commit: polls as f64 / stats.committed.max(1) as f64,
        p99_us: stats.p99_latency_us(),
    }
}

/// The [`ShardedConfig`] E21 uses at a given scale: `actions_per_shard`
/// actions spread over `shards` guardians and a user population that grows
/// with the world (at 256 shards: 40 960 users).
pub fn e21_config(shards: usize, actions_per_shard: u64) -> ShardedConfig {
    ShardedConfig {
        shards,
        users: shards * 160,
        concurrency: (shards * 2).clamp(16, 128),
        actions: actions_per_shard * shards as u64,
        ..Default::default()
    }
}

/// E21 — the sharded many-guardian world at scale (§2.1's "many guardians",
/// stressed the way §5.3 sizes real systems).
///
/// The partitioned banking/airline mix runs on worlds of 4 → 64 → 256 shard
/// guardians with zipfian user populations into the tens of thousands, on
/// every log organization. The simulator has one global clock, so elapsed
/// simulated time is the *total* device work — commits/s of simulated time
/// therefore measures per-commit cost, and the claim is that it carries no
/// O(G) term: it stays flat as the guardian count grows 64×, as does the
/// world scheduler's work per committed action (`polls/commit` — the
/// O(active), not O(G), step), while 2PC coordination spreads across every
/// shard (`coord shards` ≈ all of them).
pub fn e21_sharded_scaling(shards: &[usize], actions_per_shard: u64) -> Table {
    let mut table = Table::new(
        "E21",
        "Sharded many-guardian scaling: committed actions/s of simulated time (zipfian users, 2PC blocking mix)",
        "claim: per-commit cost is independent of world size — commits/s and scheduler polls/commit stay flat as guardians grow 4 -> 256 — while 2PC coordination spreads across every shard",
    );
    table.header(vec![
        "organization".into(),
        "shards".into(),
        "users".into(),
        "commits/s".into(),
        "cross-shard".into(),
        "abort rate".into(),
        "p99 µs".into(),
        "coord shards".into(),
        "coord skew".into(),
        "polls/commit".into(),
    ]);
    for kind in RsKind::ALL {
        for &shards in shards {
            let cfg = e21_config(shards, actions_per_shard);
            let perf = sharded_perf(kind, cfg);
            table.row(vec![
                kind_name(kind).into(),
                shards.to_string(),
                cfg.users.to_string(),
                format!("{:.1}", perf.commits_per_s),
                perf.cross_shard.to_string(),
                format!("{:.1}%", perf.abort_rate * 100.0),
                perf.p99_us.to_string(),
                format!("{}/{}", perf.coordinating_shards, shards),
                format!("{:.2}", perf.coordinator_skew),
                format!("{:.2}", perf.polls_per_commit),
            ]);
        }
    }
    table
}

/// E10 — the early-prepare assumption: "if it aborts then extra work has
/// been done, but that is not a problem because we assume that aborts are
/// not as frequent as commits" (§4.4).
///
/// Measures total device time (not just the critical path) per 100 actions
/// with and without early prepare, as the abort rate rises: the wasted
/// writes grow with the abort rate, quantifying where the assumption pays.
pub fn e10_abort_rate() -> Table {
    use argus_core::providers::MemProvider;
    use argus_core::HybridLogRs;
    use argus_objects::Heap;

    let mut table = Table::new(
        "E10",
        "Early prepare under aborts: total device µs per 100 actions (16 objects each)",
        "thesis §4.4: early prepare trades wasted writes on aborts for a shorter prepare path — worthwhile while aborts are rare",
    );
    table.header(vec![
        "abort rate".into(),
        "lazy (total)".into(),
        "early prepare (total)".into(),
        "early overhead".into(),
        "prepare path (lazy → early)".into(),
    ]);
    for abort_pct in [0u64, 10, 25, 50] {
        let mut totals = Vec::new();
        let mut paths = Vec::new();
        for early in [false, true] {
            let clock = argus_sim::SimClock::new();
            let provider = MemProvider {
                clock: clock.clone(),
                model: CostModel::default(),
                plan: None,
            };
            let mut rs = HybridLogRs::create(provider).expect("rs");
            let mut heap = Heap::with_stable_root();
            let t0 = argus_objects::ActionId::new(argus_objects::GuardianId(0), 0);
            let root = heap.stable_root().expect("root");
            heap.acquire_write(root, t0).expect("lock");
            let objs: Vec<_> = (0..16)
                .map(|_| heap.alloc_atomic(Value::Bytes(vec![0; 48]), Some(t0)))
                .collect();
            let refs: Vec<Value> = objs.iter().map(|h| Value::heap_ref(*h)).collect();
            heap.write_value(root, t0, |v| *v = Value::Seq(refs))
                .expect("write");
            rs.prepare(t0, &[root], &heap).expect("prepare");
            rs.commit(t0).expect("commit");
            heap.commit_action(t0);

            let mut rng = argus_sim::DetRng::new(42);
            let start_total = clock.now();
            let mut path_total = 0u64;
            let mut commits = 0u64;
            for i in 0..100u64 {
                let aid = argus_objects::ActionId::new(argus_objects::GuardianId(0), i + 1);
                for &h in &objs {
                    heap.acquire_write(h, aid).expect("lock");
                    heap.write_value(h, aid, |v| *v = Value::Bytes(vec![i as u8; 48]))
                        .expect("write");
                }
                let mos: Vec<_> = objs.clone();
                let mos = if early {
                    rs.write_entry(aid, &mos, &heap).expect("early prepare")
                } else {
                    mos
                };
                if rng.gen_bool(abort_pct as f64 / 100.0) {
                    // Local abort before the prepare message: nothing more
                    // reaches the log; early-prepared work is wasted.
                    heap.abort_action(aid);
                    rs.discard(aid);
                    continue;
                }
                let t = clock.now();
                rs.prepare(aid, &mos, &heap).expect("prepare");
                path_total += clock.now() - t;
                rs.commit(aid).expect("commit");
                heap.commit_action(aid);
                commits += 1;
            }
            totals.push(clock.now() - start_total);
            paths.push(path_total / commits.max(1));
        }
        table.row(vec![
            format!("{abort_pct}%"),
            totals[0].to_string(),
            totals[1].to_string(),
            format!(
                "{:+.1}%",
                (totals[1] as f64 / totals[0] as f64 - 1.0) * 100.0
            ),
            format!("{} → {}", paths[0], paths[1]),
        ]);
    }
    table
}

/// Drives the E16 mix and returns every attributed action plus the start
/// of the measurement window (setup actions start before it).
///
/// Three guardians host one hot account each; three concurrent transfer
/// streams work the pairs (0,1), (1,2), (0,2), so the streams contend on
/// every account and every commit is a cross-guardian two-phase commit.
/// Locks are always taken lower-guardian-first — a global order — so the
/// blocking policy never deadlocks and no stream ever retries. Device
/// detail is on, so the trace carries individual storage operations and
/// [`argus_trace::attribute`] can price the device segment exactly.
///
/// Every attributed action is asserted to satisfy `segment_sum == total`
/// — the partition property E16 exists to demonstrate. Fully
/// deterministic: same inputs, byte-identical trace.
pub fn e16_run(kind: RsKind, transfers_per_slot: u64) -> (Vec<argus_trace::ActionLatency>, u64) {
    use argus_guardian::{CcOutcome, CcPolicy};
    use argus_objects::ActionId;

    let mut world = World::with_config(
        CostModel::default(),
        WorldConfig::with_cc(CcPolicy::Blocking),
    );
    let tracer = world.tracer().clone();
    tracer.set_detail(argus_trace::Detail::Device);
    let gids: Vec<_> = (0..3)
        .map(|_| world.add_guardian(kind).expect("guardian"))
        .collect();
    let mut accounts = Vec::new();
    for (j, &g) in gids.iter().enumerate() {
        let aid = world.begin(g).expect("begin");
        let h = world
            .create_atomic(g, aid, Value::Int(1_000))
            .expect("create");
        world
            .set_stable(g, aid, &format!("hot{j}"), Value::heap_ref(h))
            .expect("bind");
        assert_eq!(world.commit(aid).expect("setup"), Outcome::Committed);
        accounts.push(h);
    }
    let measure_start = world.clock.now();

    struct Slot {
        pair: (usize, usize),
        aid: Option<ActionId>,
        next_op: usize,
        remaining: u64,
    }
    let mut slots: Vec<Slot> = [(0usize, 1usize), (1, 2), (0, 2)]
        .iter()
        .map(|&pair| Slot {
            pair,
            aid: None,
            next_op: 0,
            remaining: transfers_per_slot,
        })
        .collect();
    loop {
        let mut progress = false;
        let mut all_done = true;
        for slot in &mut slots {
            match slot.aid {
                None => {
                    if slot.remaining == 0 {
                        continue;
                    }
                    all_done = false;
                    slot.aid = Some(world.begin(gids[slot.pair.0]).expect("begin"));
                    slot.next_op = 0;
                    progress = true;
                }
                Some(aid) => {
                    all_done = false;
                    assert!(
                        world.cc_fate(aid).is_none(),
                        "E16 mix is deadlock-free by lock order"
                    );
                    if world.cc_blocked(aid) {
                        continue;
                    }
                    if slot.next_op < 2 {
                        let j = if slot.next_op == 0 {
                            slot.pair.0
                        } else {
                            slot.pair.1
                        };
                        let delta = if slot.next_op == 0 { -5i64 } else { 5 };
                        let outcome = world
                            .submit_write_atomic(gids[j], aid, accounts[j], move |v| {
                                if let Value::Int(balance) = v {
                                    *balance += delta;
                                }
                            })
                            .expect("submit");
                        // Parked counts as issued: the grant runs the write.
                        assert!(
                            !matches!(outcome, CcOutcome::Conflict),
                            "blocking policy never refuses"
                        );
                        slot.next_op += 1;
                    } else {
                        assert_eq!(world.commit(aid).expect("2pc"), Outcome::Committed);
                        slot.aid = None;
                        slot.remaining -= 1;
                    }
                    progress = true;
                }
            }
        }
        if all_done {
            break;
        }
        if !progress {
            let next = world
                .cc_next_deadline()
                .expect("E16 mix stalled with no pending event");
            world.clock.advance_to(next);
            world.cc_tick();
        }
    }

    let mut total = 0i64;
    for (j, &g) in gids.iter().enumerate() {
        let guardian = world.guardian(g).expect("guardian");
        if let Ok(Value::Int(b)) = guardian.heap.read_value(accounts[j], None) {
            total += *b;
        }
    }
    assert_eq!(total, 3_000, "transfers must conserve the total balance");

    let lats = argus_trace::attribute(&tracer.events());
    for a in &lats {
        assert_eq!(
            a.segment_sum(),
            a.total_us,
            "E16: the five segments must partition the action window"
        );
    }
    (lats, measure_start)
}

/// E16 — latency attribution from the causal trace (DESIGN.md § Tracing).
///
/// Where does a committed action's wall time go? The trace decomposes each
/// action's window into lock-wait / force-wait / network / device /
/// processing segments that partition it exactly ([`argus_trace::attribute`];
/// the partition is asserted per action inside [`e16_run`]). The thesis
/// prices only the device side (§4.1); the trace shows how much of an
/// action's latency the device actually is once lock queues, the group-
/// commit window, and 2PC round-trips are in the picture.
///
/// The log organizations read and write through the instrumented page
/// cache, so their device segment is exact. Shadowing keeps its direct
/// store (its page map is already its own cache), so its device time is
/// not separately instrumented and reports under processing.
pub fn e16_latency_attribution(transfers_per_slot: u64) -> Table {
    let mut table = Table::new(
        "E16",
        "Latency attribution on the contended 3-guardian 2PC mix (mean simulated µs per committed action)",
        "required: lock-wait + force-wait + network + device + processing == end-to-end latency, per action (asserted); the breakdown shows what the thesis's device-only costing leaves out",
    );
    table.header(vec![
        "organization".into(),
        "actions".into(),
        "total".into(),
        "lock-wait".into(),
        "force-wait".into(),
        "network".into(),
        "device".into(),
        "processing".into(),
    ]);
    for kind in RsKind::ALL {
        let (lats, measure_start) = e16_run(kind, transfers_per_slot);
        let committed: Vec<_> = lats
            .iter()
            .filter(|a| a.committed && a.start >= measure_start)
            .collect();
        let n = committed.len().max(1) as u64;
        let mean = |f: &dyn Fn(&argus_trace::ActionLatency) -> u64| {
            (committed.iter().map(|a| f(a)).sum::<u64>() / n).to_string()
        };
        table.row(vec![
            kind_name(kind).into(),
            committed.len().to_string(),
            mean(&|a| a.total_us),
            mean(&|a| a.lock_wait_us),
            mean(&|a| a.force_wait_us),
            mean(&|a| a.network_us),
            mean(&|a| a.device_us),
            mean(&|a| a.processing_us),
        ]);
    }
    table
}

/// E15 — exhaustive crash-schedule sweep coverage (DESIGN.md § Fault-sweep).
///
/// Runs the `argus-check` crash-schedule sweeper over its full configuration
/// matrix — every write index of the 3-guardian 2PC workload as a first
/// crash, plus a second crash swept through each recovery's device
/// operations — and reports per-organization coverage: schedule points
/// explored, counterexamples (which must be **zero**), and both simulated
/// and wall time. `max_points_per_victim` bounds the per-victim crash
/// indices for smoke use; `None` is the exhaustive sweep. The same counters
/// are exported through `argus-obs` (`check.sweep.*`).
pub fn e15_sweep_coverage(max_points_per_victim: Option<u64>, double_crash: bool) -> Table {
    use argus_check::sweep::{sweep, SweepConfig};
    use argus_guardian::RsKind;

    let mut table = Table::new(
        "E15",
        "Crash-schedule sweep: crash at every write index, and during recovery",
        "required: zero counterexamples — committed stays durable, aborted stays invisible, in-doubt resolves atomically, logs lint clean (I1-I11), on every explored schedule",
    );
    table.header(vec![
        "organization".into(),
        "cells".into(),
        "first-crash points".into(),
        "double-crash points".into(),
        "oracle writes".into(),
        "counterexamples".into(),
        "simulated ms".into(),
        "wall ms".into(),
    ]);
    for kind in RsKind::ALL {
        let started = std::time::Instant::now();
        let mut cells = 0u64;
        let mut first = 0u64;
        let mut second = 0u64;
        let mut oracle = 0u64;
        let mut cx = 0u64;
        let mut sim_us = 0u64;
        for mut cfg in SweepConfig::matrix(double_crash, 1) {
            if cfg.kind != kind {
                continue;
            }
            cfg.max_points_per_victim = max_points_per_victim;
            let report = sweep(&cfg);
            cells += 1;
            first += report.first_crash_points;
            second += report.double_crash_points;
            oracle += report.oracle_writes;
            cx += report.counterexamples.len() as u64;
            sim_us += report.sim_us;
        }
        table.row(vec![
            format!("{kind:?}").to_lowercase(),
            cells.to_string(),
            first.to_string(),
            second.to_string(),
            oracle.to_string(),
            cx.to_string(),
            (sim_us / 1_000).to_string(),
            started.elapsed().as_millis().to_string(),
        ]);
    }
    table
}

/// E17: randomized fault-composition (VOPR) coverage per organization.
///
/// Runs a batch of seeded `argus_check::vopr` explorations per recovery
/// organization — each seed composes message drop, duplication, reorder,
/// partitions with heals, guardian pauses (clock skew), media decay, and
/// crashes with recovery against the multi-guardian 2PC workload, checking
/// I1–I12 and the legal-outcomes oracle at every quiesce point — and
/// reports coverage: actions driven, quiesce-point checks ("states
/// explored"), per-kind fault counts, and violations (which must be
/// **zero**). The same counters are exported through `argus-obs`
/// (`vopr.*`). Any violating seed replays exactly with
/// `argus-lint vopr --seed N --iterations M`.
pub fn e17_vopr_coverage(seeds: u64, iterations: u64) -> Table {
    use argus_check::{vopr, FaultTally, VoprConfig};
    use argus_guardian::RsKind;

    let mut table = Table::new(
        "E17",
        "VOPR randomized fault composition: drop/dup/reorder + partition/heal + pause/skew + decay + crash/recovery",
        "required: zero violations across every seed, with every fault kind firing in each organization's batch",
    );
    table.header(vec![
        "organization".into(),
        "seeds".into(),
        "actions".into(),
        "committed".into(),
        "aborted".into(),
        "in-doubt".into(),
        "checks".into(),
        "net faults".into(),
        "partitions".into(),
        "pauses".into(),
        "skews".into(),
        "decays".into(),
        "crashes".into(),
        "violations".into(),
        "simulated ms".into(),
        "wall ms".into(),
    ]);
    for kind in RsKind::ALL {
        let started = std::time::Instant::now();
        let mut actions = 0u64;
        let (mut committed, mut aborted, mut in_doubt) = (0u64, 0u64, 0u64);
        let mut checks = 0u64;
        let mut tally = FaultTally::default();
        let mut violations = 0u64;
        let mut sim_us = 0u64;
        for seed in 1..=seeds {
            let mut cfg = VoprConfig::new(seed, iterations);
            cfg.kind = kind;
            let s = vopr(&cfg);
            actions += s.actions;
            committed += s.committed;
            aborted += s.aborted;
            in_doubt += s.in_doubt;
            checks += s.checks;
            tally.absorb(&s.faults);
            violations += s.violations.len() as u64;
            sim_us += s.sim_us;
        }
        table.row(vec![
            format!("{kind:?}").to_lowercase(),
            seeds.to_string(),
            actions.to_string(),
            committed.to_string(),
            aborted.to_string(),
            in_doubt.to_string(),
            checks.to_string(),
            (tally.drops + tally.duplicates + tally.defers).to_string(),
            tally.partitions.to_string(),
            tally.pauses.to_string(),
            tally.skews.to_string(),
            tally.decays.to_string(),
            tally.crashes.to_string(),
            violations.to_string(),
            (sim_us / 1_000).to_string(),
            started.elapsed().as_millis().to_string(),
        ]);
    }
    table
}

/// Per-commit wall-clock costs on a real file, measured by
/// [`wall_commit_perf`].
#[derive(Debug, Clone, Copy)]
pub struct WallCommitPerf {
    /// Wall-clock nanoseconds per committed action.
    pub ns_per_commit: u64,
    /// Real `fsync`/`fdatasync` calls per committed action (from the
    /// `stable.file.fsyncs` counter).
    pub fsyncs_per_commit: f64,
    /// Bytes handed to `write(2)` per committed action.
    pub bytes_per_commit: u64,
}

/// The wall-clock twin of [`commit_perf`]: `rounds` batches of
/// `concurrency` concurrent committed actions on a file-backed guardian,
/// timed with a monotonic clock and counted in real fsyncs.
///
/// `cfg.media` must be [`argus_guardian::MediaKind::File`]; the caller picks
/// the directory (tmpfs vs. a real disk) and the force schedule.
pub fn wall_commit_perf(
    kind: RsKind,
    concurrency: usize,
    rounds: u64,
    cfg: WorldConfig,
) -> WallCommitPerf {
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g = world.add_guardian(kind).expect("guardian");
    let setup = world.begin(g).expect("begin");
    let mut objs = Vec::new();
    for i in 0..concurrency {
        let h = world
            .create_atomic(g, setup, Value::Bytes(vec![0; 48]))
            .expect("create");
        world
            .set_stable(g, setup, &format!("o{i}"), Value::heap_ref(h))
            .expect("bind");
        objs.push(h);
    }
    assert_eq!(
        world.commit(setup).expect("setup commit"),
        Outcome::Committed
    );

    let batch = |world: &mut World, round: u64| {
        let aids: Vec<_> = (0..concurrency)
            .map(|_| world.begin(g).expect("begin"))
            .collect();
        for (i, &aid) in aids.iter().enumerate() {
            let fill = (round & 0xFF) as u8;
            world
                .write_atomic(g, aid, objs[i], move |v| *v = Value::Bytes(vec![fill; 48]))
                .expect("write");
        }
        for &aid in &aids {
            world.commit_start(aid).expect("start");
        }
        for &aid in &aids {
            assert_eq!(
                world.commit_settle(aid).expect("settle"),
                Outcome::Committed
            );
        }
    };

    // Warm up file growth and caches before the timed window.
    for round in 0..2 {
        batch(&mut world, round);
    }
    let fsyncs0 = reg.counter("stable.file.fsyncs").get();
    let bytes0 = reg.counter("stable.file.bytes_written").get();
    let start = std::time::Instant::now();
    for round in 0..rounds {
        batch(&mut world, 2 + round);
    }
    let elapsed = start.elapsed();
    let commits = rounds * concurrency as u64;
    WallCommitPerf {
        ns_per_commit: (elapsed.as_nanos() / u128::from(commits)) as u64,
        fsyncs_per_commit: (reg.counter("stable.file.fsyncs").get() - fsyncs0) as f64
            / commits as f64,
        bytes_per_commit: (reg.counter("stable.file.bytes_written").get() - bytes0) / commits,
    }
}

/// A `MediaKind::File` config over a fresh subdirectory of `base` (or a
/// temp dir when `base` is `None`) with the given force schedule —
/// `immediate` picks one-fsync-per-record, otherwise the group-commit
/// default (the `--wall-smoke` entry point of the experiments binary).
pub fn file_config_for(base: Option<&str>, tag: &str, immediate: bool) -> WorldConfig {
    let force = if immediate {
        argus_slog::ForceConfig::immediate()
    } else {
        argus_slog::ForceConfig::default()
    };
    file_config(base, tag, force)
}

/// A `MediaKind::File` config over a fresh subdirectory of `base` (or a
/// temp dir when `base` is `None`). The path is leaked: `WorldConfig` is
/// `Copy`, so the media variant holds a `&'static str`.
fn file_config(base: Option<&str>, tag: &str, force: argus_slog::ForceConfig) -> WorldConfig {
    let dir = match base {
        Some(b) => std::path::PathBuf::from(b).join(format!("argus-bench-{tag}")),
        None => std::env::temp_dir().join(format!("argus-bench-{}-{tag}", std::process::id())),
    };
    let dir: &'static str = Box::leak(dir.to_string_lossy().into_owned().into_boxed_str());
    WorldConfig {
        force,
        media: argus_guardian::MediaKind::File { dir: Some(dir) },
        ..Default::default()
    }
}

/// E18 — group commit on a real file: wall-clock ns and fsyncs per commit.
///
/// The wall-clock reproduction of E12's ordering outside the simulator: at
/// 8 concurrent actions the group-commit scheduler folds the batch's forced
/// records into a shared `fdatasync`, so fsyncs/commit falls well below the
/// one-force-per-action immediate schedule — except on shadowing, which
/// forces inside each operation.
///
/// `dir` picks the backing filesystem (`None` = the OS temp dir; point it
/// at tmpfs and a real disk to see the medium's sync cost).
pub fn e18_wall_group_commit(rounds: u64, dir: Option<&str>) -> Table {
    let mut table = Table::new(
        "E18",
        "Wall-clock group commit on a real file: ns and fsyncs per commit",
        "claim: E12's ordering survives contact with a real file — a local commit alone is one force (1 fsync); at 8 concurrent actions group commit needs 1/8th the fsyncs of the immediate schedule on the log organizations, and shadowing, which cannot batch, stays at 1",
    );
    table.header(vec![
        "organization".into(),
        "schedule".into(),
        "concurrent".into(),
        "ns/commit".into(),
        "fsyncs/commit".into(),
        "bytes/commit".into(),
    ]);
    for kind in RsKind::ALL {
        for (schedule, force, n) in [
            ("immediate", argus_slog::ForceConfig::immediate(), 1usize),
            ("immediate", argus_slog::ForceConfig::immediate(), 8),
            ("group", argus_slog::ForceConfig::default(), 1),
            ("group", argus_slog::ForceConfig::default(), 8),
        ] {
            let tag = format!("e18-{}-{schedule}-{n}", kind_name(kind).replace(' ', "-"));
            let perf = wall_commit_perf(kind, n, rounds, file_config(dir, &tag, force));
            table.row(vec![
                kind_name(kind).into(),
                schedule.into(),
                n.to_string(),
                perf.ns_per_commit.to_string(),
                format!("{:.2}", perf.fsyncs_per_commit),
                perf.bytes_per_commit.to_string(),
            ]);
        }
    }
    table
}

/// Wall-clock recovery throughput on a real file, measured by
/// [`wall_recovery_perf`].
#[derive(Debug, Clone, Copy)]
pub struct WallRecoveryPerf {
    /// Stable log bytes at the crash point.
    pub log_bytes: u64,
    /// Wall-clock microseconds the restart took (recovery included).
    pub restart_us: u64,
}

impl WallRecoveryPerf {
    /// Recovery throughput in MB/s of stable log processed.
    pub fn mb_per_s(&self) -> f64 {
        if self.restart_us == 0 {
            return f64::INFINITY;
        }
        self.log_bytes as f64 / self.restart_us as f64
    }
}

/// Builds `history` committed actions on a file-backed guardian, crashes
/// it, and times the restart with a monotonic clock.
pub fn wall_recovery_perf(kind: RsKind, history: u64, cfg: WorldConfig) -> WallRecoveryPerf {
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut world = World::with_config(CostModel::fast(), cfg);
    let mut synth = Synth::setup(
        &mut world,
        kind,
        SynthConfig {
            objects: 128,
            writes_per_action: 4,
            value_size: 48,
            ..Default::default()
        },
    )
    .expect("setup");
    let g = synth.guardian();
    let mut rng = argus_sim::DetRng::new(18);
    synth.run(&mut world, &mut rng, history).expect("run");
    let log_bytes = world.guardian(g).expect("guardian").log_stats().bytes;
    world.crash(g);
    let start = std::time::Instant::now();
    world.restart(g).expect("recover");
    WallRecoveryPerf {
        log_bytes,
        restart_us: start.elapsed().as_micros() as u64,
    }
}

/// E19 — wall-clock recovery throughput on a real file.
///
/// E2's shape in real time: the simple log re-reads its whole history, the
/// hybrid log walks only the outcome chain, shadowing reads the newest map.
/// Reported as MB/s of stable log bytes processed by the restart, so the
/// organizations' *selectivity* (not just the medium) sets the number.
pub fn e19_wall_recovery(history: u64, dir: Option<&str>) -> Table {
    let mut table = Table::new(
        "E19",
        "Wall-clock recovery on a real file: restart time vs. log size",
        "claim: hybrid restarts in near-constant time while the simple log's restart grows with the log; MB/s is log bytes at crash over restart wall time",
    );
    table.header(vec![
        "organization".into(),
        "committed actions".into(),
        "log KiB".into(),
        "restart µs".into(),
        "MB/s".into(),
    ]);
    for kind in RsKind::ALL {
        let tag = format!("e19-{}-{history}", kind_name(kind).replace(' ', "-"));
        let perf = wall_recovery_perf(
            kind,
            history,
            file_config(dir, &tag, argus_slog::ForceConfig::default()),
        );
        table.row(vec![
            kind_name(kind).into(),
            history.to_string(),
            (perf.log_bytes / 1024).to_string(),
            perf.restart_us.to_string(),
            format!("{:.1}", perf.mb_per_s()),
        ]);
    }
    table
}

/// Restart cost and time-to-first-commit measured by
/// [`instant_restart_perf`].
#[derive(Debug, Clone, Copy)]
pub struct InstantRestartPerf {
    /// Device µs the restart actually spent. Parallel replay runs its
    /// workers sequentially under the simulated clock, so this is the
    /// single-device total whatever the mode.
    pub restart_us: u64,
    /// The restart figure the scheme advertises: the parallel-replay
    /// makespan (tail scan + slowest worker) for `Parallel`, otherwise the
    /// measured restart time.
    pub modeled_restart_us: u64,
    /// Device µs of the first committed action after the restart, demand
    /// restores included.
    pub first_commit_us: u64,
    /// Objects still awaiting lazy restoration after that first commit.
    pub lazy_left: u64,
}

impl InstantRestartPerf {
    /// Crash to first commit: the E20 headline figure.
    pub fn time_to_first_commit_us(&self) -> u64 {
        self.modeled_restart_us + self.first_commit_us
    }
}

/// Builds `history` committed actions on one guardian, crashes it, restarts
/// it under `mode`, and measures restart plus the first post-restart commit
/// on the simulated device.
pub fn instant_restart_perf(kind: RsKind, mode: RecoveryMode, history: u64) -> InstantRestartPerf {
    let mut world = World::new(CostModel::default());
    let mut synth = Synth::setup(
        &mut world,
        kind,
        SynthConfig {
            objects: 128,
            writes_per_action: 4,
            value_size: 48,
            ..Default::default()
        },
    )
    .expect("setup");
    let g = synth.guardian();
    let mut rng = argus_sim::DetRng::new(20);
    synth.run(&mut world, &mut rng, history).expect("run");
    world.crash(g);
    assert!(
        world.set_recovery_mode(g, mode).expect("guardian"),
        "{kind:?} does not support {mode:?}"
    );
    let before = device(&world, g);
    world.restart(g).expect("recover");
    let restart_us = device(&world, g).since(&before).busy_us;
    let modeled_restart_us = match mode {
        RecoveryMode::Parallel(_) => world
            .recovery_makespan_us(g)
            .expect("guardian")
            .unwrap_or(restart_us),
        _ => restart_us,
    };
    let before = device(&world, g);
    synth.run(&mut world, &mut rng, 1).expect("first commit");
    InstantRestartPerf {
        restart_us,
        modeled_restart_us,
        first_commit_us: device(&world, g).since(&before).busy_us,
        lazy_left: world.lazy_pending(g).expect("guardian"),
    }
}

/// The wall-clock twin of [`instant_restart_perf`]: the same
/// crash-restart-commit sequence on a file-backed guardian, timed with a
/// monotonic clock. Returns `(restart_us, first_commit_us, lazy_left)`.
pub fn wall_instant_restart_perf(
    kind: RsKind,
    mode: RecoveryMode,
    history: u64,
    cfg: WorldConfig,
) -> (u64, u64, u64) {
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut world = World::with_config(CostModel::fast(), cfg);
    let mut synth = Synth::setup(
        &mut world,
        kind,
        SynthConfig {
            objects: 128,
            writes_per_action: 4,
            value_size: 48,
            ..Default::default()
        },
    )
    .expect("setup");
    let g = synth.guardian();
    let mut rng = argus_sim::DetRng::new(21);
    synth.run(&mut world, &mut rng, history).expect("run");
    world.crash(g);
    assert!(
        world.set_recovery_mode(g, mode).expect("guardian"),
        "{kind:?} does not support {mode:?}"
    );
    let start = std::time::Instant::now();
    world.restart(g).expect("recover");
    let restart_us = start.elapsed().as_micros() as u64;
    let start = std::time::Instant::now();
    synth.run(&mut world, &mut rng, 1).expect("first commit");
    let first_commit_us = start.elapsed().as_micros() as u64;
    (
        restart_us,
        first_commit_us,
        world.lazy_pending(g).expect("guardian"),
    )
}

/// E20 — the instant-restart tier: time-to-first-commit after a crash.
///
/// The thesis's three organizations must finish their whole recovery pass
/// before serving anything; the redo organization decouples *restart* (tail
/// scan for the tables) from *restore* (replaying object chains), so the
/// guardian can take its first commit while most objects are still on the
/// log. The sim half prices every scheme on the deterministic device —
/// parallel rows report the modeled makespan (tail scan + slowest worker;
/// the workers run sequentially under the simulated clock) — and the wall
/// half replays the comparison on a real file.
///
/// Asserted here, so every run is a gate: on-demand reaches its first
/// commit ≥10× sooner than the simple log's full-scan restart on the
/// simulated device (≥3× wall-clock — the loose bound keeps slow CI
/// filesystems from flaking), and the parallel makespan falls as workers
/// are added and undercuts the single-pass full replay.
pub fn e20_instant_restart(history: u64, dir: Option<&str>) -> Table {
    use RecoveryMode::{Full, OnDemand, Parallel};

    let mut table = Table::new(
        "E20",
        "Instant restart: time-to-first-commit after a crash (sim device µs; wall µs on a real file)",
        "claim: on-demand restart commits ≥10× sooner than the simple log's full scan; the parallel-replay makespan falls as workers are added",
    );
    table.header(vec![
        "clock".into(),
        "scheme".into(),
        "restart µs".into(),
        "first commit µs".into(),
        "time to first commit".into(),
        "vs simple".into(),
        "lazy left".into(),
    ]);

    let schemes: [(&str, RsKind, RecoveryMode); 8] = [
        ("simple full scan", RsKind::Simple, Full),
        ("hybrid chain walk", RsKind::Hybrid, Full),
        ("shadow map read", RsKind::Shadow, Full),
        ("redo full replay", RsKind::Redo, Full),
        ("redo parallel x2", RsKind::Redo, Parallel(2)),
        ("redo parallel x4", RsKind::Redo, Parallel(4)),
        ("redo parallel x8", RsKind::Redo, Parallel(8)),
        ("redo on-demand", RsKind::Redo, OnDemand),
    ];

    let mut sim_simple = None;
    let mut redo_full = None;
    let mut makespans = Vec::new();
    for (name, kind, mode) in schemes {
        let perf = instant_restart_perf(kind, mode, history);
        let ttfc = perf.time_to_first_commit_us();
        let base = *sim_simple.get_or_insert(ttfc);
        match mode {
            Full if kind == RsKind::Redo => redo_full = Some(ttfc),
            Parallel(_) => makespans.push(perf.modeled_restart_us),
            OnDemand => assert!(
                ttfc * 10 <= base,
                "on-demand time-to-first-commit not 10x below the simple \
                 log's ({ttfc} !<= {base}/10)"
            ),
            _ => {}
        }
        table.row(vec![
            "sim".into(),
            name.into(),
            perf.modeled_restart_us.to_string(),
            perf.first_commit_us.to_string(),
            ttfc.to_string(),
            format!("{:.1}x", base as f64 / ttfc.max(1) as f64),
            perf.lazy_left.to_string(),
        ]);
    }
    assert!(
        makespans.last() < makespans.first(),
        "parallel makespan did not fall with more workers: {makespans:?}"
    );
    assert!(
        makespans.last().copied().unwrap_or(u64::MAX) < redo_full.expect("redo full row"),
        "parallel replay did not undercut the single-pass full replay \
         ({makespans:?} !< {redo_full:?})"
    );

    let mut wall_simple = None;
    for (i, (name, kind, mode)) in schemes.iter().enumerate() {
        // Parallel workers are a simulated-device construct; the wall half
        // compares the schemes that run end to end on the real file.
        if matches!(mode, Parallel(_)) {
            continue;
        }
        let tag = format!("e20-{i}-{history}");
        let (restart_us, first_commit_us, lazy_left) = wall_instant_restart_perf(
            *kind,
            *mode,
            history,
            file_config(dir, &tag, argus_slog::ForceConfig::default()),
        );
        let ttfc = restart_us + first_commit_us;
        let base = *wall_simple.get_or_insert(ttfc);
        if *mode == OnDemand {
            assert!(
                ttfc * 3 <= base,
                "wall on-demand time-to-first-commit not 3x below the \
                 simple log's ({ttfc} !<= {base}/3)"
            );
        }
        table.row(vec![
            "wall".into(),
            (*name).into(),
            restart_us.to_string(),
            first_commit_us.to_string(),
            ttfc.to_string(),
            format!("{:.1}x", base as f64 / ttfc.max(1) as f64),
            lazy_left.to_string(),
        ]);
    }
    table
}
