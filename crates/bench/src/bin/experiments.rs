//! Regenerates every experiment table (E1–E21). See DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded results.
//!
//! Each experiment runs under its own `argus_obs::Registry` scope, so the
//! table is followed by that run's metrics report — counters and phase
//! timings recorded by the instrumented layers (slog, core, twopc, world).
//!
//! ```sh
//! cargo run --release -p argus-bench --bin experiments            # all
//! cargo run --release -p argus-bench --bin experiments -- E2 E3  # subset
//! cargo run --release -p argus-bench --bin experiments -- --json-dir out E1
//! cargo run --release -p argus-bench --bin experiments -- --smoke
//! ```
//!
//! `--json-dir DIR` additionally writes each table as `DIR/BENCH_<id>.json`.
//! `--check DIR` instead compares each regenerated table with the
//! checked-in `DIR/BENCH_<id>.json` — exact, except columns whose header
//! says "wall" — and exits 1 on any difference (`scripts/bench.sh --check`).
//! `--wall-smoke` runs a tiny E18 on real files (tmpfs when
//! `ARGUS_BENCH_DIR` points there) and asserts the group-commit fsync
//! reduction holds outside the simulator — the `scripts/verify.sh --wall`
//! tier. `--smoke` runs a tiny E12/E13/E14 and asserts the optimization and
//! scheduling invariants (batching never increases forces per commit; the
//! cache hits during recovery; the contended lock mix completes without a
//! hang and blocking mode actually detects deadlocks) instead of printing
//! tables — the CI-friendly mode used by `scripts/verify.sh`.
//! `--scale-smoke` runs the 64-shard sharded mix on every organization and
//! lints every shard's log — the `scripts/verify.sh --scale` tier.

use argus_bench::{
    cc_perf, commit_perf, e10_abort_rate, e11_explore_coverage, e12_group_commit,
    e13_recovery_cache, e14_cc_policies, e15_sweep_coverage, e16_latency_attribution,
    e17_vopr_coverage, e18_wall_group_commit, e19_wall_recovery, e1_write_cost,
    e20_instant_restart, e21_sharded_scaling, e2_recovery_cost, e4_housekeeping_cost,
    e5_checkpoint_bounds_recovery, e6_early_prepare, e7_map_scaling, e8_crash_matrix,
    e9_device_sensitivity, recovery_perf, two_guardian_commit, Table, TwoGuardianCommit,
};
use argus_guardian::{CcPolicy, RsKind, World, WorldConfig};
use argus_obs::Registry;
use std::path::PathBuf;

/// Runs `f` under a fresh registry scope and returns its result plus the
/// run's metrics report.
fn scoped<T>(f: impl FnOnce() -> T) -> (T, argus_obs::Report) {
    let reg = Registry::new();
    let out = {
        let _scope = reg.enter();
        f()
    };
    (out, reg.report())
}

fn print_metrics(id: &str, report: &argus_obs::Report) {
    println!("#### {id} run metrics\n");
    println!("{}", report.to_text_compact());
}

/// Where a regenerated table goes besides stdout.
#[derive(Default)]
struct Artefacts {
    /// `--json-dir`: write `BENCH_<id>.json` here.
    write_to: Option<PathBuf>,
    /// `--check`: compare with the `BENCH_<id>.json` here.
    check_against: Option<PathBuf>,
    /// Artefacts `--check` found stale or unreadable.
    stale: std::cell::Cell<u32>,
}

/// Writes `table` as `BENCH_<id>.json`, or checks it against the one
/// checked in, as the command line asked.
fn emit_json(artefacts: &Artefacts, table: &Table) {
    let name = format!("BENCH_{}.json", table.id);
    if let Some(dir) = &artefacts.write_to {
        let path = dir.join(&name);
        std::fs::write(&path, table.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    if let Some(dir) = &artefacts.check_against {
        let path = dir.join(&name);
        let diffs = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|artefact| table.diff_against(&artefact))
            .unwrap_or_else(|e| vec![format!("unreadable: {e}")]);
        if diffs.is_empty() {
            eprintln!("check: {} is current", path.display());
        } else {
            artefacts.stale.set(artefacts.stale.get() + 1);
            for diff in diffs {
                eprintln!("check: {}: {diff}", path.display());
            }
        }
    }
}

/// The `--smoke` mode: a tiny E12/E13/E14 asserting the optimization and
/// lock-scheduling invariants hold. Exits non-zero (panics) on violation.
fn smoke() {
    for kind in RsKind::ALL {
        // Shadowing forces inside each operation and reads its store
        // directly: it has no force to share and no page cache to hit.
        let shadowing = kind == RsKind::Shadow;
        let unbatched = commit_perf(kind, 1, 3, WorldConfig::unbatched());
        let batched1 = commit_perf(kind, 1, 3, WorldConfig::default());
        let batched8 = commit_perf(kind, 8, 3, WorldConfig::default());
        // These actions are local to their guardian: a commit is exactly one
        // log force, and a force exactly one device barrier, whatever the
        // force schedule.
        for (schedule, perf) in [("unbatched", unbatched), ("batched", batched1)] {
            assert_eq!(
                perf.forces_per_commit, 1.0,
                "{kind:?}, {schedule}: a local commit alone is not one force (one device barrier)"
            );
        }
        // A two-guardian commit alone is three forces — the commit point at
        // the coordinator, `prepared` and `committed` at the participant —
        // and four messages: the coordinator is no party to its own protocol.
        for (schedule, cfg) in [
            ("unbatched", WorldConfig::unbatched()),
            ("batched", WorldConfig::default()),
        ] {
            assert_eq!(
                two_guardian_commit(kind, cfg),
                TwoGuardianCommit::EXPECTED,
                "{kind:?}, {schedule}: a two-guardian commit alone"
            );
        }
        if !shadowing {
            assert!(
                batched8.forces_per_commit < batched1.forces_per_commit,
                "{kind:?}: concurrency did not reduce forces/commit \
                 ({} !< {})",
                batched8.forces_per_commit,
                batched1.forces_per_commit
            );
        } else {
            assert_eq!(
                batched8.forces_per_commit, batched1.forces_per_commit,
                "{kind:?}: forces/commit moved with concurrency"
            );
        }
        let recovery = recovery_perf(kind, 50, WorldConfig::default());
        assert!(
            recovery.hits > 0 || shadowing,
            "{kind:?}: page cache never hit during recovery"
        );
        println!(
            "smoke {kind:?}: forces/commit {:.2} (unbatched {:.2}) -> {:.2} at 8x; \
             recovery hit rate {:.0}%",
            batched1.forces_per_commit,
            unbatched.forces_per_commit,
            batched8.forces_per_commit,
            100.0 * recovery.hits as f64 / (recovery.hits + recovery.misses).max(1) as f64
        );
    }
    // E14: the contended lock mix must complete under every policy — a
    // stall returns an error and panics here, so "no hang" is asserted by
    // completion — and blocking mode must break at least one deadlock on a
    // mix that deadlocks by construction.
    for policy in [
        CcPolicy::ConflictAbort,
        CcPolicy::Blocking,
        CcPolicy::Timeout,
    ] {
        let perf = cc_perf(RsKind::Hybrid, policy, 8, 8);
        assert_eq!(
            perf.committed, 64,
            "{policy:?}: contended mix lost transfers"
        );
        if policy == CcPolicy::Blocking {
            assert!(
                perf.deadlocks > 0,
                "blocking: the deadlock-by-construction mix broke no deadlock"
            );
        }
        println!(
            "smoke cc {}: {} commits, {} retries, {} deadlocks, {} timeouts",
            policy.name(),
            perf.committed,
            perf.retries,
            perf.deadlocks,
            perf.timeouts
        );
    }
    println!("smoke: ok");
}

/// The `--scale-smoke` mode: the sharded many-guardian world at 64 shards
/// on every log organization — the `scripts/verify.sh --scale` tier.
/// Runs the zipfian cross-shard mix to completion, asserts the conservation
/// oracles (total balance; seats account exactly for the committed
/// reservations — the mix's legal-outcomes oracle), quiesces, then checks
/// the world structurally: I1–I10 on every shard's log, I11 heap quiescence
/// on every shard, I12 trace consistency. Exits non-zero (panics) on
/// violation.
fn scale_smoke() {
    use argus_check::{lint_heap_quiesced, lint_log, lint_trace, LogImage};
    use argus_workload::{Sharded, ShardedConfig};

    for kind in RsKind::ALL {
        let mut world = World::with_config(
            argus_sim::CostModel::fast(),
            WorldConfig::with_cc(CcPolicy::Blocking),
        );
        let cfg = ShardedConfig {
            shards: 64,
            users: 10_240,
            concurrency: 64,
            actions: 512,
            ..Default::default()
        };
        let mix = Sharded::setup(&mut world, kind, cfg).expect("setup");
        let mut rng = argus_sim::DetRng::new(64);
        let stats = mix.run(&mut world, &mut rng).expect("sharded run");
        assert_eq!(stats.committed, cfg.actions, "{kind:?}: lost actions");
        assert!(stats.cross_shard > 0, "{kind:?}: no cross-shard 2PC ran");
        assert_eq!(
            mix.total_balance(&world).expect("balance"),
            mix.expected_total(),
            "{kind:?}: total balance not conserved"
        );
        assert_eq!(
            mix.total_seats(&world).expect("seats"),
            mix.expected_seats(&stats),
            "{kind:?}: seats do not match committed reservations"
        );
        world.run_until_quiet().expect("quiesce");
        let live = world.live_actions();
        for g in world.guardian_ids() {
            if let Some(entries) = world.dump_log(g).expect("dump") {
                lint_log(&LogImage::from_entries(entries)).assert_clean();
            }
            let heap = &world.guardian(g).expect("guardian").heap;
            let heap_violations = lint_heap_quiesced(heap, &live);
            assert!(
                heap_violations.is_empty(),
                "{g:?} heap: {heap_violations:?}"
            );
        }
        let trace_violations = lint_trace(world.tracer());
        assert!(trace_violations.is_empty(), "trace: {trace_violations:?}");
        println!(
            "scale-smoke {kind:?}: {} commits ({} cross-shard, {} reservations) \
             across {}/{} coordinating shards, abort rate {:.1}%",
            stats.committed,
            stats.cross_shard,
            stats.reservations,
            stats.coordinating_shards(),
            cfg.shards,
            stats.abort_rate() * 100.0
        );
    }
    println!("scale-smoke: ok");
}

/// The `--wall-smoke` mode: E12's claims checked against a real file with
/// real fsyncs. One local commit alone costs exactly one (one log force,
/// whose last frame is its commit point) and one two-guardian commit alone
/// exactly three (one at the coordinator, two at the participant) on every
/// organization; at 8
/// concurrent actions the shared force schedule of the log organizations
/// must need at most half the fsyncs per commit of the immediate schedule
/// (in practice it is 8x fewer; the loose bound keeps slow CI filesystems
/// from flaking) while shadowing, which cannot batch, stays where it was.
/// Panics (exits non-zero) on violation.
fn wall_smoke() {
    use argus_bench::wall_commit_perf;
    let dir = std::env::var("ARGUS_BENCH_DIR").ok();
    for kind in RsKind::ALL {
        let run = |n: usize, schedule: &str, immediate: bool| {
            let tag = format!("wall-smoke-{schedule}{n}-{kind:?}");
            let cfg = argus_bench::file_config_for(dir.as_deref(), &tag, immediate);
            wall_commit_perf(kind, n, 5, cfg)
        };
        let alone = run(1, "grp", false);
        assert_eq!(
            alone.fsyncs_per_commit, 1.0,
            "{kind:?}: a local commit alone is not one force (one real fsync)"
        );
        // A two-guardian commit alone: three forces, each one real fsync.
        let tag = format!("wall-smoke-2pc-{kind:?}");
        let cfg = argus_bench::file_config_for(dir.as_deref(), &tag, false);
        assert_eq!(
            two_guardian_commit(kind, cfg),
            TwoGuardianCommit {
                fsyncs: 3,
                ..TwoGuardianCommit::EXPECTED
            },
            "{kind:?}: a two-guardian commit alone on real files"
        );
        let immediate = run(8, "imm", true);
        let group = run(8, "grp", false);
        if kind == RsKind::Shadow {
            assert_eq!(
                group.fsyncs_per_commit, immediate.fsyncs_per_commit,
                "{kind:?}: fsyncs/commit moved with the force schedule"
            );
        } else {
            assert!(
                group.fsyncs_per_commit <= immediate.fsyncs_per_commit / 2.0,
                "{kind:?}: group commit did not reduce real fsyncs/commit \
                 ({:.2} !<= {:.2}/2)",
                group.fsyncs_per_commit,
                immediate.fsyncs_per_commit
            );
        }
        println!(
            "wall-smoke {kind:?}: fsyncs/commit {:.2} alone, at 8x {:.2} immediate -> {:.2} group; \
             {} -> {} ns/commit",
            alone.fsyncs_per_commit,
            immediate.fsyncs_per_commit,
            group.fsyncs_per_commit,
            immediate.ns_per_commit,
            group.ns_per_commit
        );
    }
    println!("wall-smoke: ok");
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut artefacts = Artefacts::default();
    let mut run_smoke = false;
    let mut run_wall_smoke = false;
    let mut run_scale_smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json-dir" => {
                let dir = PathBuf::from(args.next().expect("--json-dir needs a directory"));
                std::fs::create_dir_all(&dir).expect("create json dir");
                artefacts.write_to = Some(dir);
            }
            "--check" => {
                let dir = args.next().expect("--check needs the artefact directory");
                artefacts.check_against = Some(PathBuf::from(dir));
            }
            "--smoke" => run_smoke = true,
            "--wall-smoke" => run_wall_smoke = true,
            "--scale-smoke" => run_scale_smoke = true,
            other => ids.push(other.to_uppercase()),
        }
    }
    if run_smoke {
        let (_, _) = scoped(smoke);
        return;
    }
    if run_wall_smoke {
        wall_smoke();
        return;
    }
    if run_scale_smoke {
        let (_, _) = scoped(scale_smoke);
        return;
    }
    let want = |id: &str| ids.is_empty() || ids.iter().any(|a| a == id);

    println!("# Experiments — Reliable Object Storage to Support Atomic Actions\n");

    if want("E1") {
        let (table, metrics) = scoped(|| e1_write_cost(200));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E1", &metrics);
    }
    if want("E2") || want("E3") {
        let ((e2, e3), metrics) = scoped(|| e2_recovery_cost(&[250, 1_000, 4_000, 16_000]));
        if want("E2") {
            println!("{e2}");
            emit_json(&artefacts, &e2);
        }
        if want("E3") {
            println!("{e3}");
            emit_json(&artefacts, &e3);
        }
        print_metrics("E2/E3", &metrics);
    }
    if want("E4") {
        let (table, metrics) = scoped(e4_housekeeping_cost);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E4", &metrics);
    }
    if want("E5") {
        let (table, metrics) = scoped(e5_checkpoint_bounds_recovery);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E5", &metrics);
    }
    if want("E6") {
        let (table, metrics) = scoped(e6_early_prepare);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E6", &metrics);
    }
    if want("E7") {
        let (table, metrics) = scoped(e7_map_scaling);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E7", &metrics);
    }
    if want("E8") {
        let (table, metrics) = scoped(e8_crash_matrix);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E8", &metrics);
    }
    if want("E9") {
        let (table, metrics) = scoped(e9_device_sensitivity);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E9", &metrics);
    }
    if want("E10") {
        let (table, metrics) = scoped(e10_abort_rate);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E10", &metrics);
    }
    if want("E11") {
        let (table, metrics) = scoped(e11_explore_coverage);
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E11", &metrics);
    }
    if want("E12") {
        let (table, metrics) = scoped(|| e12_group_commit(25));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E12", &metrics);
    }
    if want("E13") {
        let (table, metrics) = scoped(|| e13_recovery_cache(2_000));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E13", &metrics);
    }
    if want("E14") {
        let (table, metrics) = scoped(|| e14_cc_policies(&[2, 8, 32], 8));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E14", &metrics);
    }
    if want("E15") {
        let (table, metrics) = scoped(|| e15_sweep_coverage(None, true));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E15", &metrics);
    }
    if want("E16") {
        let (table, metrics) = scoped(|| e16_latency_attribution(8));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E16", &metrics);
    }
    if want("E17") {
        let (table, metrics) = scoped(|| e17_vopr_coverage(24, 64));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E17", &metrics);
    }
    // E18/E19 run on real files (the OS temp dir by default; set
    // ARGUS_BENCH_DIR to point them at tmpfs or a specific disk) and time
    // with a monotonic clock, so their numbers vary run to run — the
    // *ordering* (group commit ≪ immediate fsyncs; hybrid restart ≪ simple)
    // is the reproducible claim.
    let wall_dir = std::env::var("ARGUS_BENCH_DIR").ok();
    if want("E18") {
        let (table, metrics) = scoped(|| e18_wall_group_commit(25, wall_dir.as_deref()));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E18", &metrics);
    }
    if want("E19") {
        let (table, metrics) = scoped(|| e19_wall_recovery(2_000, wall_dir.as_deref()));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E19", &metrics);
    }
    // E20 combines a simulated half (deterministic) with a wall-clock half
    // on a real file, and asserts the instant-restart claims as it runs.
    if want("E20") {
        let (table, metrics) = scoped(|| e20_instant_restart(2_000, wall_dir.as_deref()));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E20", &metrics);
    }
    if want("E21") {
        let (table, metrics) = scoped(|| e21_sharded_scaling(&[4, 64, 256], 8));
        println!("{table}");
        emit_json(&artefacts, &table);
        print_metrics("E21", &metrics);
    }
    if artefacts.stale.get() > 0 {
        eprintln!(
            "check: {} artefact(s) differ from a fresh run; regenerate with scripts/bench.sh",
            artefacts.stale.get()
        );
        std::process::exit(1);
    }
}
