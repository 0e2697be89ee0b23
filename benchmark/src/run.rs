//! The run loop: every workload is set-up, a row of timed chunks, and a row
//! of crash → restart → check → first-commit repetitions, on all four
//! organizations interleaved step by step so a slow second on a shared
//! machine hits all four alike.

use crate::shards::Shards;
use crate::stats::{median, quantile};
use crate::store::Store;
use crate::target::{Res, Target};
use crate::{alloc, spans};
use argus_cc::CcPolicy;
use argus_core::LogEntry;
use argus_guardian::{MediaKind, RsKind, World, WorldConfig};
use argus_sim::{CostModel, StatsSnapshot};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const ORGS: [(RsKind, &str); 4] = [
    (RsKind::Simple, "simple"),
    (RsKind::Hybrid, "hybrid"),
    (RsKind::Shadow, "shadow"),
    (RsKind::Redo, "redo"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Batch,
    Sharded,
    Crash,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Solo,
        Workload::Batch,
        Workload::Sharded,
        Workload::Crash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo_commit",
            Workload::Batch => "batch_commit",
            Workload::Sharded => "sharded_2pc",
            Workload::Crash => "crash_restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn on_files(self) -> bool {
        self != Workload::Sharded
    }
}

/// Operation counts of one run. Counts, not durations, so they repeat
/// exactly; `--seconds` scales only the number of timed chunks.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    /// Client actions in flight per round (`Store`) — 1 or 8.
    pub in_flight: usize,
    /// Rounds per chunk; for `sharded_2pc` one round is one `Sharded::run`.
    pub rounds_per_chunk: usize,
    /// Actions per `Sharded::run`.
    pub actions_per_round: u64,
    /// The timed part is this many cycles of chunks, housekeeping and
    /// restarts, so every kind of sample is spread over the whole run.
    pub cycles: usize,
    /// Timed chunks per cycle and organization.
    pub chunks_per_cycle: usize,
    /// Untimed chunks run during set-up after the warm-up chunk: the
    /// history `crash_restart` recovers from.
    pub history_chunks: usize,
    /// Housekeep at the end of every cycle. `crash_restart` does not: its
    /// restarts recover an uncompacted history, and its housekeeping
    /// samples come after them.
    pub compacts: bool,
    /// Crash → restart repetitions per cycle, after the housekeeping.
    pub restarts_per_cycle: usize,
    /// Run all the restarts after the last cycle instead: `Sharded` keeps
    /// heap handles that a restart invalidates.
    pub restarts_at_end: bool,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Log entries per organization kept for the leaf replays.
    pub log_keep: usize,
}

/// The run length the counts below are sized for, `run_seconds` in
/// `BENCHMARK.json`.
pub const REFERENCE_SECONDS: u64 = 10;

impl Plan {
    pub fn new(workload: Workload, seconds: u64) -> Plan {
        let scaled = |chunks: u64| {
            ((chunks * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS).max(1) as usize
        };
        // A chunk of 1 000 rounds is the shortest whose p99 has ten samples
        // beyond it; short chunks, and many, give the estimator more
        // undisturbed ones to find.
        let base = Plan {
            workload,
            in_flight: 1,
            rounds_per_chunk: 1_000,
            actions_per_round: 0,
            cycles: 8,
            chunks_per_cycle: scaled(8),
            // Three more warm-up chunks: a fresh world's first commits fault
            // in its memory and file pages, which is what the sandbox's slow
            // minutes slow most; set-up should mostly be commits.
            history_chunks: 3,
            compacts: true,
            restarts_per_cycle: 5,
            restarts_at_end: false,
            setup_reps: 5,
            log_keep: 8_000,
        };
        match workload {
            Workload::Solo => base,
            // Chunks of 2 000 actions: two of them warm up as much as
            // `solo_commit`'s four, and keep the footprint under 1 GB.
            Workload::Batch => Plan {
                in_flight: 8,
                rounds_per_chunk: 250,
                history_chunks: 1,
                ..base
            },
            Workload::Sharded => Plan {
                rounds_per_chunk: 1,
                actions_per_round: 1_250,
                restarts_at_end: true,
                ..base
            },
            // 88 set-up chunks and 32 timed ones of 250 commits: 30 000
            // commits on the log at the last crash, none of them compacted.
            // A restart here costs tens of milliseconds, so there are fewer,
            // and the chunks run between them.
            Workload::Crash => Plan {
                rounds_per_chunk: 250,
                cycles: 16,
                chunks_per_cycle: scaled(2),
                history_chunks: 87,
                compacts: false,
                restarts_per_cycle: 1,
                setup_reps: 3,
                ..base
            },
        }
    }

    /// `--smoke`: every code path once, at a fraction of every count.
    pub fn smoke(self) -> Plan {
        Plan {
            rounds_per_chunk: (self.rounds_per_chunk / 4).max(1),
            actions_per_round: self.actions_per_round / 4,
            cycles: 2,
            chunks_per_cycle: 1,
            history_chunks: self.history_chunks.min(7),
            restarts_per_cycle: 1,
            setup_reps: 1,
            log_keep: self.log_keep / 4,
            ..self
        }
    }

    /// The traced pass: a quarter of the cycles, one set-up.
    pub fn quarter(self) -> Plan {
        Plan {
            cycles: (self.cycles / 4).max(2),
            setup_reps: 1,
            ..self
        }
    }

    pub fn restarts(&self) -> usize {
        self.cycles * self.restarts_per_cycle
    }

    pub fn actions_per_chunk(&self) -> usize {
        self.rounds_per_chunk * self.in_flight.max(self.actions_per_round as usize)
    }
}

/// What a lane records besides the timings every lane takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing extra — the untraced run end-to-end metrics come from.
    Plain,
    /// The benchmark's own spans around every `World` call.
    Spans,
    /// `argus_trace::Detail::Device` switched on inside the system.
    DeviceDetail,
}

/// Registry counters read at chunk boundaries, through the lane's scoped
/// `argus_obs::Registry`.
pub const COUNTERS: [&str; 12] = [
    "world.sched.polls",
    "net.sent",
    "slog.forces",
    "slog.appends",
    "slog.append_bytes",
    "stable.file.bytes_written",
    "stable.cache.hit",
    "stable.cache.miss",
    "stable.cache.readahead",
    "cc.waits",
    "cc.deadlocks",
    "cc.retries",
];

/// Counts accumulated over one phase (the timed chunks, or the restarts).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Device counters summed over the lane's guardians (simulated clock).
    pub dev: StatsSnapshot,
    /// Growth of forced log content.
    pub log_bytes: u64,
    pub counters: [u64; COUNTERS.len()],
    pub allocs: u64,
}

impl Counts {
    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a listed counter");
        self.counters[i]
    }

    fn add_since(&mut self, before: &Counts, after: &Counts) {
        add_device(&mut self.dev, &after.dev.since(&before.dev));
        self.log_bytes += after.log_bytes.saturating_sub(before.log_bytes);
        for (i, c) in self.counters.iter_mut().enumerate() {
            *c += after.counters[i] - before.counters[i];
        }
        self.allocs += after.allocs - before.allocs;
    }
}

fn add_device(sum: &mut StatsSnapshot, d: &StatsSnapshot) {
    sum.seq_reads += d.seq_reads;
    sum.rand_reads += d.rand_reads;
    sum.seq_writes += d.seq_writes;
    sum.rand_writes += d.rand_writes;
    sum.forces += d.forces;
    sum.busy_us += d.busy_us;
}

#[derive(Debug, Clone, Copy)]
pub struct ChunkSample {
    pub secs: f64,
    pub commits: u64,
    pub p50_us: f64,
    pub tail_us: f64,
}

/// Everything one lane measured.
pub struct LaneOut {
    pub org: usize,
    pub mode: Mode,
    pub track: u32,
    pub setup_s: f64,
    pub chunks: Vec<ChunkSample>,
    pub hk_ms: Vec<f64>,
    /// The one compaction of a whole uncompacted history (`crash_restart`).
    pub history_hk_ms: Option<f64>,
    pub restart_ms: Vec<f64>,
    pub first_commit_us: Vec<f64>,
    /// Counts over the timed chunks.
    pub commit: Counts,
    /// Counts over the restarts.
    pub restart: Counts,
    pub commits: u64,
    pub user_bytes: u64,
    /// Operations attempted: client actions, restarts, values checked.
    pub attempted: u64,
    /// Of those: actions not committed, restarts that erred, wrong values.
    pub failed: u64,
    /// Bytes the organization occupies at the end: on file media everything
    /// under the guardian's directory, on memory media the forced content
    /// of the active stores.
    pub stored_bytes: u64,
    pub live_user_bytes: u64,
    /// The log as `World::dump_log` decoded it after the last timed chunk
    /// (organizations that keep one), for the leaf replays.
    pub log: Vec<LogEntry>,
}

impl LaneOut {
    /// One figure per timed chunk.
    pub fn per_chunk(&self, f: impl Fn(&ChunkSample) -> f64) -> Vec<f64> {
        self.chunks.iter().map(f).collect()
    }
}

/// The percentile reported as the tail of `n` samples: the highest one, up
/// to p99, with at least ten samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

struct Lane {
    out: LaneOut,
    reg: argus_obs::Registry,
    tracer: argus_trace::Tracer,
    counters: Vec<argus_obs::Counter>,
    target: Box<dyn Target>,
    dir: Option<PathBuf>,
    setup_times: Vec<f64>,
    lat_ns: Vec<u64>,
}

impl Lane {
    /// Makes this lane's registry, tracer and span track the current ones.
    fn enter(&self) -> (argus_obs::ScopedRegistry, argus_trace::ScopedTracer) {
        spans::set(self.out.mode == Mode::Spans, self.out.track);
        (self.reg.enter(), self.tracer.enter())
    }

    fn snap(&self) -> Counts {
        let mut c = Counts {
            allocs: alloc::calls(),
            ..Counts::default()
        };
        let world = self.target.world();
        for &g in self.target.guardians() {
            let stats = world
                .guardian(g)
                .expect("the lane's own guardian")
                .log_stats();
            add_device(&mut c.dev, &stats.device);
            c.log_bytes += stats.bytes;
        }
        for (slot, counter) in c.counters.iter_mut().zip(&self.counters) {
            *slot = counter.get();
        }
        c
    }

    fn timed_chunk(&mut self) -> Res<()> {
        let _scope = self.enter();
        self.lat_ns.clear();
        let before = self.snap();
        let t = Instant::now();
        let chunk = {
            // The parent of the chunk's `World`-call spans: its self time
            // is what the generator and the harness cost.
            let _s = spans::enter("bench.chunk", self.out.chunks.len() as u64);
            self.target.chunk(&mut self.lat_ns)?
        };
        let secs = t.elapsed().as_secs_f64();
        let after = self.snap();
        self.out.commit.add_since(&before, &after);
        self.out.commits += chunk.commits;
        self.out.user_bytes += chunk.user_bytes;
        self.out.attempted += chunk.attempted;
        self.out.failed += chunk.attempted - chunk.commits;
        let us: Vec<f64> = self.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        self.out.chunks.push(ChunkSample {
            secs,
            commits: chunk.commits,
            p50_us: median(&us),
            tail_us: quantile(&us, tail_quantile(us.len())),
        });
        Ok(())
    }

    fn housekeep(&mut self) -> Res<()> {
        let _scope = self.enter();
        let t = Instant::now();
        self.target.housekeep()?;
        self.out.hk_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    /// A chunk whose timings and counts are not kept.
    fn untimed_chunk(&mut self) -> Res<()> {
        let _scope = self.enter();
        self.lat_ns.clear();
        let chunk = self.target.chunk(&mut self.lat_ns)?;
        self.out.attempted += chunk.attempted;
        self.out.failed += chunk.attempted - chunk.commits;
        Ok(())
    }

    /// Crash, timed restart, check of every value, timed first commit.
    fn crash_restart(&mut self, timed: bool) -> Res<()> {
        let _scope = self.enter();
        self.target.crash();
        let before = self.snap();
        let t = Instant::now();
        let restarted = self.target.restart();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.out.attempted += 1;
        if let Err(e) = restarted {
            self.out.failed += 1;
            return Err(e);
        }
        let after = self.snap();
        let (checked, wrong) = self.target.verify()?;
        self.out.attempted += checked;
        self.out.failed += wrong;
        if !timed {
            return Ok(());
        }
        self.out.restart_ms.push(ms);
        self.out.restart.add_since(&before, &after);
        let t = Instant::now();
        let first = self.target.first_commit()?;
        self.out
            .first_commit_us
            .push(t.elapsed().as_secs_f64() * 1e6);
        self.out.attempted += first.attempted;
        self.out.failed += first.attempted - first.commits;
        Ok(())
    }

    /// Keeps the oldest `keep` log entries of one guardian for the leaf
    /// replays (on `sharded_2pc` every shard's log looks alike).
    fn capture_log(&mut self, keep: usize) -> Res<()> {
        let _scope = self.enter();
        let g = self.target.guardians()[0];
        if let Some(entries) = self.target.dump_log(g)? {
            self.out.log = entries.into_iter().take(keep).map(|(_, e)| e).collect();
        }
        Ok(())
    }

    fn finish(&mut self) {
        self.out.live_user_bytes = self.target.live_user_bytes();
        self.out.stored_bytes = match &self.dir {
            Some(dir) => dir_bytes(dir),
            None => self.snap().log_bytes,
        };
    }
}

/// Spaces out repetitions of cheap operations. The sandbox's slow episodes
/// last a quarter of a second to a few seconds; repetitions of half a
/// millisecond back to back would all fall into one of them or none, so
/// they start at least `apart` from each other and sample seconds of
/// machine time instead. Expensive repetitions never wait.
#[derive(Default)]
struct Pace(Option<Instant>);

impl Pace {
    fn wait(&mut self, apart: Duration) {
        if let Some(previous) = self.0 {
            std::thread::sleep(apart.saturating_sub(previous.elapsed()));
        }
        self.0 = Some(Instant::now());
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The fixed configuration every world runs with: the defaults, except
/// media and concurrency control as the workload says.
fn world_config(workload: Workload, dir: Option<&Path>) -> WorldConfig {
    let mut cfg = WorldConfig::default();
    if workload == Workload::Sharded {
        cfg = WorldConfig::with_cc(CcPolicy::Blocking);
    }
    if let Some(dir) = dir {
        // `WorldConfig` is `Copy`, so the media variant wants a `&'static
        // str`; a few dozen leaked paths per process are harmless.
        let dir: &'static str = Box::leak(dir.to_string_lossy().into_owned().into_boxed_str());
        cfg.media = MediaKind::File { dir: Some(dir) };
    }
    cfg
}

/// One set-up: world, live set, warm-up chunk, history.
fn build(plan: &Plan, kind: RsKind, seed: u64, dir: Option<&Path>) -> Res<Box<dyn Target>> {
    let world = World::with_config(CostModel::default(), world_config(plan.workload, dir));
    let mut target: Box<dyn Target> = match plan.workload {
        Workload::Sharded => Box::new(Shards::new(
            world,
            kind,
            seed,
            plan.actions_per_round,
            plan.rounds_per_chunk,
        )?),
        _ => Box::new(Store::new(
            world,
            kind,
            seed,
            plan.in_flight,
            plan.rounds_per_chunk,
        )?),
    };
    let mut discard = Vec::new();
    for _ in 0..1 + plan.history_chunks {
        discard.clear();
        let chunk = target.chunk(&mut discard)?;
        if chunk.commits != chunk.attempted {
            return Err("an action of the set-up history did not commit".into());
        }
    }
    Ok(target)
}

fn lane_dir(plan: &Plan, run_dir: &Path, org: usize, track: u32, rep: usize) -> Option<PathBuf> {
    plan.workload
        .on_files()
        .then(|| run_dir.join(format!("{}-t{track}-r{rep}", ORGS[org].1)))
}

/// A lane with its first set-up done.
fn new_lane(
    plan: &Plan,
    org: usize,
    mode: Mode,
    track: u32,
    seed: u64,
    run_dir: &Path,
) -> Res<Lane> {
    let reg = argus_obs::Registry::new();
    let tracer = argus_trace::Tracer::new();
    if mode == Mode::DeviceDetail {
        tracer.set_detail(argus_trace::Detail::Device);
    }
    spans::set(false, track);
    let (_r, _t) = (reg.enter(), tracer.enter());
    let dir = lane_dir(plan, run_dir, org, track, 0);
    let t = Instant::now();
    let target = build(plan, ORGS[org].0, seed, dir.as_deref())?;
    let setup_times = vec![t.elapsed().as_secs_f64()];
    let counters = COUNTERS.iter().map(|name| reg.counter(name)).collect();
    Ok(Lane {
        out: LaneOut {
            org,
            mode,
            track,
            setup_s: 0.0,
            chunks: Vec::new(),
            hk_ms: Vec::new(),
            history_hk_ms: None,
            restart_ms: Vec::new(),
            first_commit_us: Vec::new(),
            commit: Counts::default(),
            restart: Counts::default(),
            commits: 0,
            user_bytes: 0,
            attempted: 0,
            failed: 0,
            stored_bytes: 0,
            live_user_bytes: 0,
            log: Vec::new(),
        },
        reg,
        tracer,
        counters,
        target,
        dir,
        setup_times,
        lat_ns: Vec::new(),
    })
}

impl Lane {
    /// One more timed set-up, replacing the previous one: its files are
    /// closed (the target dropped) and then removed.
    fn set_up_again(&mut self, plan: &Plan, seed: u64, run_dir: &Path, rep: usize) -> Res<()> {
        let _scope = self.enter();
        let dir = lane_dir(plan, run_dir, self.out.org, self.out.track, rep);
        let t = Instant::now();
        self.target = build(plan, ORGS[self.out.org].0, seed, dir.as_deref())?;
        self.setup_times.push(t.elapsed().as_secs_f64());
        if let Some(old) = std::mem::replace(&mut self.dir, dir) {
            std::fs::remove_dir_all(old)?;
        }
        Ok(())
    }
}

/// Runs `plan` on every organization, once per entry of `modes`, all lanes
/// interleaved. Returns the lanes and the peak bytes seen under `run_dir`.
pub fn run_lanes(
    plan: &Plan,
    seed: u64,
    modes: &[Mode],
    run_dir: &Path,
    capture_logs: bool,
) -> Res<(Vec<LaneOut>, u64)> {
    let mut lanes = Vec::new();
    for &mode in modes {
        for org in 0..ORGS.len() {
            let track = lanes.len() as u32;
            lanes.push(new_lane(plan, org, mode, track, seed, run_dir)?);
        }
    }
    // The repetitions of one lane's set-up are a round of all the others
    // apart, like every other kind of sample.
    for rep in 1..plan.setup_reps {
        for lane in &mut lanes {
            lane.set_up_again(plan, seed, run_dir, rep)?;
        }
    }
    for lane in &mut lanes {
        lane.out.setup_s = median(&lane.setup_times);
    }
    let mut disk_peak = dir_bytes(run_dir);
    let mut pace = Pace::default();
    for cycle in 1..=plan.cycles {
        let last = cycle == plan.cycles;
        for _ in 0..plan.chunks_per_cycle {
            for lane in &mut lanes {
                lane.timed_chunk()?;
            }
        }
        if last && capture_logs {
            for lane in lanes.iter_mut().filter(|l| l.out.mode == Mode::Plain) {
                lane.capture_log(plan.log_keep)?;
            }
        }
        disk_peak = disk_peak.max(dir_bytes(run_dir));
        if plan.compacts {
            for lane in &mut lanes {
                lane.housekeep()?;
            }
            disk_peak = disk_peak.max(dir_bytes(run_dir));
        }
        let restarts = match (plan.restarts_at_end, last) {
            (false, _) => plan.restarts_per_cycle,
            (true, true) => plan.restarts(),
            (true, false) => 0,
        };
        for _ in 0..restarts {
            pace.wait(Duration::from_millis(50));
            for lane in &mut lanes {
                lane.crash_restart(true)?;
            }
        }
    }
    if !plan.compacts {
        // First the compaction of the whole uncompacted history — one
        // sample per run, so it goes to the notes, not into `hk_pause_ms` —
        // then eight ordinary pauses, each after one more chunk and a quarter
        // of a second apart, and a last crash and check so a housekeeping
        // that lost data cannot pass.
        for lane in &mut lanes {
            lane.housekeep()?;
            lane.out.history_hk_ms = lane.out.hk_ms.pop();
        }
        disk_peak = disk_peak.max(dir_bytes(run_dir));
        for _ in 0..8 {
            pace.wait(Duration::from_millis(250));
            for lane in &mut lanes {
                lane.untimed_chunk()?;
            }
            for lane in &mut lanes {
                lane.housekeep()?;
            }
        }
        for lane in &mut lanes {
            lane.crash_restart(false)?;
        }
    }
    disk_peak = disk_peak.max(dir_bytes(run_dir));
    spans::set(false, 0);
    Ok((
        lanes
            .into_iter()
            .map(|mut lane| {
                lane.finish();
                lane.out
            })
            .collect(),
        disk_peak,
    ))
}
