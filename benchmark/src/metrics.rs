//! Turns what the lanes measured into the named metrics: the end-to-end
//! ones from the untraced run, the per-layer ones from the traced pass, the
//! stack replay and the leaf replays.

use crate::json::{obj, Json};
use crate::run::{run_lanes, tail_quantile, LaneOut, Mode, Plan, Workload, ORGS};
use crate::stats::{best_rate, best_time, geomean, mean};
use crate::target::Res;
use crate::{alloc, leaf, spans, stack, store};
use argus_objects::Value;
use std::path::Path;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// One run's result: what the last output line carries, plus the lines a
/// person reads above it.
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Configuration and sample counts, printed before the metrics.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// The result line of the driver protocol.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Geometric mean over the organizations of `f(lane)`.
fn over_orgs(lanes: &[&LaneOut], f: impl Fn(&LaneOut) -> f64) -> f64 {
    geomean(&lanes.iter().map(|l| f(l)).collect::<Vec<_>>())
}

fn of_mode(lanes: &[LaneOut], mode: Mode) -> Vec<&LaneOut> {
    lanes.iter().filter(|l| l.mode == mode).collect()
}

fn commits_per_s(lane: &LaneOut) -> f64 {
    best_rate(&lane.per_chunk(|c| c.commits as f64 / c.secs))
}

fn commit_p50_us(lane: &LaneOut) -> f64 {
    best_time(&lane.per_chunk(|c| c.p50_us))
}

/// Bytes that reached the guardian's medium over the timed chunks: what
/// `write(2)` took on file media, whole pages on memory media.
fn written_bytes(workload: Workload, lane: &LaneOut) -> f64 {
    if workload.on_files() {
        lane.commit.counter("stable.file.bytes_written") as f64
    } else {
        (lane.commit.dev.writes() * argus_stable::PAGE_SIZE as u64) as f64
    }
}

fn config_notes(plan: &Plan, seed: u64, medium: &str) -> Vec<String> {
    let samples = plan.rounds_per_chunk;
    vec![
        format!(
            "workload {} seed {seed} medium {medium} nproc {} rev {}",
            plan.workload.name(),
            std::thread::available_parallelism().map_or(0, usize::from),
            std::env::var("ARGUS_BENCH_REV").unwrap_or_else(|_| "unknown".into()),
        ),
        "config CostModel::default WorldConfig::default (force window 1000 us, batch 64; cache 128 pages, readahead 8; fsync durability); one thread, closed loop, four organizations interleaved".into(),
        format!(
            "sizes {} cycles of {} timed chunks x {} rounds x {} action(s) per organization, warm-up chunk discarded, {} set-up chunk(s), {} restarts, {} set-up repetition(s)",
            plan.cycles,
            plan.chunks_per_cycle,
            plan.rounds_per_chunk,
            if plan.workload == Workload::Sharded { plan.actions_per_round as usize } else { plan.in_flight },
            1 + plan.history_chunks,
            plan.restarts(),
            plan.setup_reps,
        ),
        format!(
            "estimator second-best chunk or repetition of per-chunk figures; {samples} latency sample(s) per chunk, tail = p{:.0}",
            tail_quantile(samples) * 100.0
        ),
    ]
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(plan: &Plan, seed: u64, run_dir: &Path, medium: &str) -> Res<RunResult> {
    alloc::reset_peak();
    let (lanes, disk_peak) = run_lanes(plan, seed, &[Mode::Plain], run_dir, false)?;
    let lanes: Vec<&LaneOut> = lanes.iter().collect();
    let w = plan.workload;
    let mut r = RunResult {
        workload: w,
        traced: false,
        attempted: lanes.iter().map(|l| l.attempted).sum(),
        failed: lanes.iter().map(|l| l.failed).sum(),
        metrics: Vec::new(),
        notes: config_notes(plan, seed, medium),
    };
    r.notes.push(format!(
        "footprint peak {:.1} MB under the run directory",
        disk_peak as f64 / 1e6
    ));
    if lanes.iter().all(|l| l.history_hk_ms.is_some()) {
        r.notes.push(format!(
            "compaction of the whole history {:.1} ms (geometric mean, one sample per organization)",
            over_orgs(&lanes, |l| l.history_hk_ms.unwrap_or(0.0))
        ));
    }
    r.put("commits_per_s", "1/s", over_orgs(&lanes, commits_per_s));
    r.put("commit_p50_us", "us", over_orgs(&lanes, commit_p50_us));
    r.put(
        "hk_pause_ms",
        "ms",
        over_orgs(&lanes, |l| best_time(&l.hk_ms)),
    );
    r.put(
        "restart_ms",
        "ms",
        over_orgs(&lanes, |l| best_time(&l.restart_ms)),
    );
    r.put(
        "device_us_per_commit",
        "sim_us",
        over_orgs(&lanes, |l| l.commit.dev.busy_us as f64 / l.commits as f64),
    );
    r.put(
        "fsyncs_per_commit",
        "count",
        over_orgs(&lanes, |l| l.commit.dev.forces as f64 / l.commits as f64),
    );
    r.put(
        "write_amp",
        "ratio",
        over_orgs(&lanes, |l| written_bytes(w, l) / l.user_bytes as f64),
    );
    r.put(
        "space_amp",
        "ratio",
        over_orgs(&lanes, |l| l.stored_bytes as f64 / l.live_user_bytes as f64),
    );
    r.put("peak_live_mb", "MB", alloc::peak_bytes() as f64 / 1e6);
    r.put("setup_s", "s", lanes.iter().map(|l| l.setup_s).sum());
    Ok(r)
}

fn stack_shape(plan: &Plan) -> stack::Shape {
    // Two chunks' worth of actions plus a quarter of the set-up history, so
    // `crash_restart` replays a log well beyond the 64 KiB cache.
    let actions = plan.actions_per_chunk() * (2 + plan.history_chunks / 4);
    match plan.workload {
        // One shard's view of the bank: four accounts and a seat counter,
        // two integer writes per action.
        Workload::Sharded => stack::Shape {
            objects: 5,
            value_size: None,
            writes: 2,
            in_flight: 1,
            actions,
            on_files: false,
        },
        _ => stack::Shape {
            objects: store::OBJECTS,
            value_size: Some(store::VALUE_SIZE),
            writes: store::WRITES,
            in_flight: plan.in_flight,
            actions,
            on_files: true,
        },
    }
}

/// The traced run: every per-layer metric, and the trace file.
pub fn per_layer(
    plan: &Plan,
    seed: u64,
    run_dir: &Path,
    out_dir: &Path,
    medium: &str,
) -> Res<RunResult> {
    spans::reset();
    let w = plan.workload;
    let quarter = plan.quarter();
    let modes = [Mode::Plain, Mode::Spans, Mode::DeviceDetail];
    let (all, disk_peak) = run_lanes(&quarter, seed, &modes, run_dir, true)?;
    let plain = of_mode(&all, Mode::Plain);
    let spanned = of_mode(&all, Mode::Spans);
    let detailed = of_mode(&all, Mode::DeviceDetail);

    let mut r = RunResult {
        workload: w,
        traced: true,
        attempted: all.iter().map(|l| l.attempted).sum(),
        failed: all.iter().map(|l| l.failed).sum(),
        metrics: Vec::new(),
        notes: config_notes(&quarter, seed, medium),
    };

    // ---- guardian: the world driver, from the lanes ----------------------
    for lane in &plain {
        let org = ORGS[lane.org].1;
        r.put(
            format!("guardian.commits_per_s.{org}"),
            "1/s",
            commits_per_s(lane),
        );
        r.put(
            format!("guardian.commit_p50_us.{org}"),
            "us",
            commit_p50_us(lane),
        );
        r.put(
            format!("guardian.restart_ms.{org}"),
            "ms",
            best_time(&lane.restart_ms),
        );
    }
    // The two timings that sit where the sandbox's slow minutes hurt most
    // (the tail, and the cold first action after a restart: 25–30 % slower
    // there) and so cannot carry a regression bound.
    r.put(
        "guardian.commit_p99_us",
        "us",
        over_orgs(&plain, |l| best_time(&l.per_chunk(|c| c.tail_us))),
    );
    r.put(
        "guardian.first_commit_us",
        "us",
        over_orgs(&plain, |l| best_time(&l.first_commit_us)),
    );
    r.put(
        "guardian.commits_per_s_mean",
        "1/s",
        over_orgs(&plain, |l| {
            l.commits as f64 / l.chunks.iter().map(|c| c.secs).sum::<f64>()
        }),
    );
    r.put(
        "guardian.drift_ratio",
        "ratio",
        over_orgs(&plain, |l| {
            let secs: Vec<f64> = l.chunks.iter().map(|c| c.secs).collect();
            let q = (secs.len() / 4).max(1);
            mean(&secs[secs.len() - q..]) / mean(&secs[..q])
        }),
    );
    let span_mean = |name| spans::total_all(name).mean_ns();
    r.put("guardian.begin_ns", "ns", span_mean("world.begin"));
    r.put(
        "guardian.write_atomic_ns",
        "ns",
        span_mean("world.write_atomic"),
    );
    r.put(
        "guardian.commit_start_us",
        "us",
        span_mean("world.commit_start") / 1e3,
    );
    r.put(
        "guardian.commit_settle_us",
        "us",
        span_mean("world.commit_settle") / 1e3,
    );
    let commits: u64 = plain.iter().map(|l| l.commits).sum();
    let pooled = |f: &dyn Fn(&LaneOut) -> u64| plain.iter().map(|l| f(l)).sum::<u64>() as f64;
    let per_commit = |f: &dyn Fn(&LaneOut) -> u64| pooled(f) / commits as f64;
    let counter = |name: &'static str| move |l: &LaneOut| l.commit.counter(name);
    r.put(
        "guardian.polls_per_commit",
        "count",
        per_commit(&counter("world.sched.polls")),
    );
    r.put(
        "guardian.net_msgs_per_commit",
        "count",
        per_commit(&counter("net.sent")),
    );
    r.put(
        "guardian.allocs_per_commit",
        "count",
        per_commit(&|l| l.commit.allocs),
    );

    // ---- core / shadow: the stack replay ---------------------------------
    let stacked = stack::replay(stack_shape(plan), seed, run_dir)?;
    let mut commit_store_ns = 0;
    let mut sync = spans::Total::default();
    let mut recover_read_ns = 0;
    let mut stack_actions = 0;
    for (org, (_, name)) in ORGS.iter().enumerate() {
        let s = &stacked.orgs[org];
        let commit_track = stack::track(org, 0);
        let per_action_us = |names: &[&'static str]| {
            names
                .iter()
                .map(|n| spans::total(commit_track, n).ns)
                .sum::<u64>() as f64
                / s.actions as f64
                / 1e3
        };
        r.put(
            format!("core.prepare_us.{name}"),
            "us",
            per_action_us(&["core.prepare"]),
        );
        r.put(
            format!("core.commit_us.{name}"),
            "us",
            per_action_us(&["core.committing", "core.commit", "core.done"]),
        );
        r.put(format!("core.recover_ms.{name}"), "ms", s.recover_ms);
        r.put(
            format!("core.recover_mb_per_s.{name}"),
            "MB/s",
            s.log_bytes as f64 / 1e6 / (s.recover_ms / 1e3),
        );
        r.put(format!("core.hk_ms.{name}"), "ms", s.hk_ms);
        let write = spans::total(commit_track, "stable.write_page");
        let syncs = spans::total(commit_track, "stable.sync");
        commit_store_ns += write.ns + syncs.ns;
        sync.count += syncs.count;
        sync.ns += syncs.ns;
        recover_read_ns += spans::total(stack::track(org, 1), "stable.read_page").ns;
        stack_actions += s.actions;
    }
    for lane in &plain {
        r.put(
            format!("core.log_bytes_per_commit.{}", ORGS[lane.org].1),
            "B",
            lane.commit.log_bytes as f64 / lane.commits as f64,
        );
    }
    r.put(
        "core.redo_ondemand_ttfc_ms",
        "ms",
        stacked.redo_ondemand_ttfc_ms,
    );
    r.put(
        "core.hybrid_snapshot_hk_ms",
        "ms",
        stacked.hybrid_snapshot_hk_ms,
    );

    // ---- slog, objects, twopc, cc, obs: leaf replays ---------------------
    let log: Vec<_> = plain.iter().flat_map(|l| l.log.iter().cloned()).collect();
    let appends = pooled(&counter("slog.appends"));
    let forces = pooled(&counter("slog.forces"));
    let batch = (appends / forces).round().max(1.0) as usize;
    let values: Vec<Value> = match w {
        Workload::Sharded => vec![Value::Int(1_000); 5],
        _ => vec![Value::Bytes(vec![7; store::VALUE_SIZE]); store::OBJECTS],
    };
    let leaves = leaf::replay(&log, batch, &values, w.on_files(), run_dir)?;
    r.notes.push(format!(
        "leaf replays over {} log entries ({} payload bytes), {batch} record(s) per force",
        leaves.entries, leaves.payload_bytes
    ));
    r.put("slog.crc32_mb_per_s", "MB/s", leaves.crc32_mb_per_s);
    r.put("slog.encode_ns_per_entry", "ns", leaves.encode_ns_per_entry);
    r.put("slog.decode_ns_per_entry", "ns", leaves.decode_ns_per_entry);
    r.put(
        "slog.append_ns_per_record",
        "ns",
        leaves.append_ns_per_record,
    );
    r.put("slog.force_us", "us", leaves.force_us);
    r.put(
        "slog.backward_scan_mb_per_s",
        "MB/s",
        leaves.backward_scan_mb_per_s,
    );
    r.put("slog.forces_per_commit", "count", forces / commits as f64);
    r.put("slog.force_batch_size", "count", appends / forces);
    r.put(
        "slog.append_bytes_per_commit",
        "B",
        per_commit(&counter("slog.append_bytes")),
    );

    // ---- stable: page-store spans of the replay, counts of the lanes -----
    let restarts: usize = plain.iter().map(|l| l.restart_ms.len()).sum();
    let per_restart = |f: &dyn Fn(&LaneOut) -> u64| {
        plain.iter().map(|l| f(l)).sum::<u64>() as f64 / restarts as f64
    };
    r.put(
        "stable.write_us_per_commit",
        "us",
        commit_store_ns as f64 / stack_actions as f64 / 1e3,
    );
    r.put(
        "stable.read_us_per_restart",
        "us",
        recover_read_ns as f64 / ORGS.len() as f64 / 1e3,
    );
    r.put(
        "stable.page_writes_per_commit",
        "count",
        per_commit(&|l| l.commit.dev.writes()),
    );
    r.put(
        "stable.page_reads_per_restart",
        "count",
        per_restart(&|l| l.restart.dev.reads()),
    );
    let hits = plain
        .iter()
        .map(|l| l.restart.counter("stable.cache.hit"))
        .sum::<u64>() as f64;
    let misses = plain
        .iter()
        .map(|l| l.restart.counter("stable.cache.miss"))
        .sum::<u64>() as f64;
    r.put(
        "stable.cache_hit_rate",
        "ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    r.put(
        "stable.readahead_pages_per_restart",
        "count",
        per_restart(&|l| l.restart.counter("stable.cache.readahead")),
    );
    r.put("stable.fsync_us", "us", sync.mean_ns() / 1e3);
    r.put(
        "stable.bytes_written_per_commit",
        "B",
        plain.iter().map(|l| written_bytes(w, l)).sum::<f64>() / commits as f64,
    );

    r.put("objects.write_copy_ns", "ns", leaves.write_copy_ns);
    r.put(
        "objects.flatten_ns_per_object",
        "ns",
        leaves.flatten_ns_per_object,
    );

    r.put("twopc.step_ns", "ns", leaves.twopc_step_ns);
    r.put("twopc.msgs_per_dist_commit", "count", leaves.twopc_msgs);
    r.put("twopc.forces_per_dist_commit", "count", leaves.twopc_forces);

    let retries = pooled(&counter("cc.retries"));
    r.put("cc.park_grant_ns", "ns", leaves.park_grant_ns);
    r.put(
        "cc.waits_per_commit",
        "count",
        per_commit(&counter("cc.waits")),
    );
    r.put(
        "cc.deadlocks_per_kcommit",
        "count",
        per_commit(&counter("cc.deadlocks")) * 1e3,
    );
    r.put(
        "cc.retry_share",
        "ratio",
        retries / (commits as f64 + retries),
    );

    // ---- the instrumentation and the harness themselves ------------------
    r.put("obs.counter_inc_ns", "ns", leaves.counter_inc_ns);
    let plain_rate = over_orgs(&plain, commits_per_s);
    let overhead =
        |lanes: &[&LaneOut]| (1.0 - over_orgs(lanes, commits_per_s) / plain_rate) * 100.0;
    r.put("trace.device_detail_overhead_pct", "%", overhead(&detailed));
    r.put("bench.trace_overhead_pct", "%", overhead(&spanned));
    let chunks = spans::total_all("bench.chunk");
    r.put(
        "workload.generator_share_pct",
        "%",
        (1.0 - chunks.child_ns as f64 / chunks.ns as f64) * 100.0,
    );
    r.put("bench.disk_mb_peak", "MB", disk_peak as f64 / 1e6);

    // ---- the trace file and its own check --------------------------------
    let (checked, broken) = spans::check_nesting();
    r.attempted += checked;
    r.failed += broken;
    r.put(
        "failed_share",
        "ratio",
        r.failed as f64 / r.attempted as f64,
    );
    let mut tracks: Vec<(u32, String)> = spanned
        .iter()
        .map(|l| (l.track, format!("world {}", ORGS[l.org].1)))
        .collect();
    tracks.extend(stack::track_names());
    tracks.push((leaf::TRACK, "leaf stable log".into()));
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace-{}.json", w.name()));
    let kept = spans::write_chrome(&path, &tracks)?;
    r.notes.push(format!(
        "trace {} ({kept} spans kept, {checked} checked for nesting, {broken} broken)",
        path.display()
    ));
    Ok(r)
}
