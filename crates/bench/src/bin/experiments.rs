//! Regenerates every experiment table (E1–E21, `argus_bench::EXPERIMENTS`).
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
//! results. Each experiment runs under its own `argus_obs::Registry` scope,
//! so its tables are followed by that run's metrics report.
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
//! Instead of tables, `--smoke` asserts the invariants of a tiny
//! E12/E13/E14 (`scripts/verify.sh`), `--wall-smoke` the fsyncs of a tiny
//! E18 on real files (`verify.sh --wall`), and `--scale-smoke` the
//! 64-shard mix and its logs' lints (`verify.sh --scale`).

use argus_bench::{
    cc_perf, commit_perf, file_media, recovery_perf, sharded_run, two_guardian_commit, RigSpec,
    Sample, Table, TwoGuardianCommit, EXPERIMENTS,
};
use argus_guardian::{CcPolicy, RsKind, WorldConfig};
use argus_obs::{Count, Registry};
use argus_slog::ForceConfig;
use std::path::{Path, PathBuf};

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

/// Writes `table` as `BENCH_<id>.json` under `write_to`, and checks it
/// against the one checked in under `check_against`, as the command line
/// asked; returns whether the checked-in one is stale or unreadable.
fn emit_json(table: &Table, write_to: Option<&Path>, check_against: Option<&Path>) -> bool {
    let name = format!("BENCH_{}.json", table.id);
    if let Some(dir) = write_to {
        let path = dir.join(&name);
        std::fs::write(&path, table.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    let Some(dir) = check_against else {
        return false;
    };
    let path = dir.join(&name);
    let diffs = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|artefact| table.diff_against(&artefact))
        .unwrap_or_else(|e| vec![format!("unreadable: {e}")]);
    if diffs.is_empty() {
        eprintln!("check: {} is current", path.display());
    }
    for diff in &diffs {
        eprintln!("check: {}: {diff}", path.display());
    }
    !diffs.is_empty()
}

/// The `--smoke` mode: a tiny E12/E13/E14 asserting the optimization and
/// lock-scheduling invariants hold. Exits non-zero (panics) on violation.
fn smoke() {
    // Forces per commit of three batches of `n` concurrent commits.
    let per_commit = |s: &Sample, n: usize| s.forces as f64 / (3 * n) as f64;
    for kind in RsKind::ALL {
        // Shadowing forces inside each commit and reads its store
        // directly: it has no force to share and no page cache to hit.
        let shadowing = kind == RsKind::Shadow;
        let unbatched = per_commit(&commit_perf(kind, 1, 3, WorldConfig::unbatched()), 1);
        let batched1 = per_commit(&commit_perf(kind, 1, 3, WorldConfig::default()), 1);
        let batched8 = per_commit(&commit_perf(kind, 8, 3, WorldConfig::default()), 8);
        // These actions are local to their guardian: a commit is exactly one
        // log force, and a force exactly one device barrier, whatever the
        // force schedule.
        for (schedule, forces) in [("unbatched", unbatched), ("batched", batched1)] {
            assert_eq!(
                forces, 1.0,
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
        assert!(
            if shadowing {
                batched8 == batched1
            } else {
                batched8 < batched1
            },
            "{kind:?}: forces/commit {batched8} at 8x against {batched1} alone"
        );
        let (_, recovery) = recovery_perf(&RigSpec::new(128, 4, 8), kind, 50);
        let hits = recovery.counter(Count::StableCacheHit);
        let misses = recovery.counter(Count::StableCacheMiss);
        assert!(
            hits > 0 || shadowing,
            "{kind:?}: page cache never hit during recovery"
        );
        println!(
            "smoke {kind:?}: forces/commit {batched1:.2} (unbatched {unbatched:.2}) -> \
             {batched8:.2} at 8x; recovery hit rate {:.0}%",
            100.0 * hits as f64 / (hits + misses).max(1) as f64
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
        let (stats, run) = cc_perf(RsKind::Hybrid, policy, 8, 8);
        let deadlocks = run.counter(Count::CcDeadlocks);
        assert_eq!(
            stats.committed, 64,
            "{policy:?}: contended mix lost transfers"
        );
        assert!(
            policy != CcPolicy::Blocking || deadlocks > 0,
            "blocking: the deadlock-by-construction mix broke no deadlock"
        );
        println!(
            "smoke cc {}: {} commits, {} retries, {deadlocks} deadlocks, {} timeouts",
            policy.name(),
            stats.committed,
            stats.retries,
            stats.timeouts
        );
    }
    println!("smoke: ok");
}

/// The `--scale-smoke` mode: the sharded many-guardian world at 64 shards
/// on every log organization — the `scripts/verify.sh --scale` tier.
/// Runs the zipfian cross-shard mix to completion, asserts the conservation
/// oracles (total balance; seats account exactly for the committed
/// reservations — the mix's legal-outcomes oracle), quiesces, then holds
/// the world to the standing check at `Phase::Terminal`: every shard up,
/// I1–I10 on its log, I11 on its heap, I12 on the trace. Exits non-zero
/// (panics) on violation.
fn scale_smoke() {
    use argus_check::{standing, Ledger, Phase};
    use argus_workload::ShardedConfig;

    for kind in RsKind::ALL {
        let cfg = ShardedConfig {
            shards: 64,
            users: 10_240,
            concurrency: 64,
            actions: 512,
            ..Default::default()
        };
        let (mut world, stats, _) = sharded_run(kind, cfg, argus_sim::CostModel::fast(), 64);
        assert_eq!(stats.committed, cfg.actions, "{kind:?}: lost actions");
        assert!(stats.cross_shard > 0, "{kind:?}: no cross-shard 2PC ran");
        world.run_until_quiet().expect("quiesce");
        let problems = standing(&mut world, &Ledger::default(), Phase::Terminal);
        assert!(problems.is_empty(), "{kind:?}: {problems:#?}");
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
    for kind in RsKind::ALL {
        // (fsyncs, ns) per commit of five batches of `n` concurrent commits.
        let run = |n: usize, schedule: &str, force: ForceConfig| {
            let tag = format!("wall-smoke-{schedule}{n}-{kind:?}");
            let perf = commit_perf(kind, n, 5, file_media(&tag, force).cfg);
            let commits = 5 * n as u64;
            let fsyncs = perf.counter(Count::StableFileFsyncs) as f64 / commits as f64;
            (fsyncs, perf.wall.as_nanos() / u128::from(commits))
        };
        let (alone, _) = run(1, "grp", ForceConfig::default());
        assert_eq!(
            alone, 1.0,
            "{kind:?}: a local commit alone is not one force (one real fsync)"
        );
        // A two-guardian commit alone: three forces, each one real fsync.
        let tag = format!("wall-smoke-2pc-{kind:?}");
        let files = file_media(&tag, ForceConfig::default());
        assert_eq!(
            two_guardian_commit(kind, files.cfg),
            TwoGuardianCommit {
                fsyncs: 3,
                ..TwoGuardianCommit::EXPECTED
            },
            "{kind:?}: a two-guardian commit alone on real files"
        );
        let (immediate, immediate_ns) = run(8, "imm", ForceConfig::immediate());
        let (group, group_ns) = run(8, "grp", ForceConfig::default());
        // Shadowing, which cannot batch, must not move; the others must halve.
        assert!(
            if kind == RsKind::Shadow {
                group == immediate
            } else {
                group <= immediate / 2.0
            },
            "{kind:?}: real fsyncs/commit {group:.2} grouped against {immediate:.2} immediate"
        );
        println!(
            "wall-smoke {kind:?}: fsyncs/commit {alone:.2} alone, at 8x {immediate:.2} \
             immediate -> {group:.2} group; {immediate_ns} -> {group_ns} ns/commit"
        );
    }
    println!("wall-smoke: ok");
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let (mut write_to, mut check_against) = (None, None);
    let mut smoke_mode: Option<fn()> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json-dir" => {
                let dir = PathBuf::from(args.next().expect("--json-dir needs a directory"));
                std::fs::create_dir_all(&dir).expect("create json dir");
                write_to = Some(dir);
            }
            "--check" => {
                let dir = args.next().expect("--check needs the artefact directory");
                check_against = Some(PathBuf::from(dir));
            }
            "--smoke" => smoke_mode = Some(smoke),
            "--wall-smoke" => smoke_mode = Some(wall_smoke),
            "--scale-smoke" => smoke_mode = Some(scale_smoke),
            other => ids.push(other.to_uppercase()),
        }
    }
    if let Some(mode) = smoke_mode {
        scoped(mode);
        return;
    }
    let want = |id: &str| ids.is_empty() || ids.iter().any(|a| a == id);

    let mut stale = 0;
    println!("# Experiments — Reliable Object Storage to Support Atomic Actions\n");
    for &(entry, run) in EXPERIMENTS {
        if !entry.split('/').any(&want) {
            continue;
        }
        let (tables, metrics) = scoped(run);
        for table in tables.iter().filter(|t| want(t.id)) {
            println!("{table}");
            stale += u32::from(emit_json(
                table,
                write_to.as_deref(),
                check_against.as_deref(),
            ));
        }
        println!("#### {entry} run metrics\n");
        println!("{metrics}");
    }
    if stale > 0 {
        eprintln!(
            "check: {stale} artefact(s) differ from a fresh run; regenerate with scripts/bench.sh"
        );
        std::process::exit(1);
    }
}
