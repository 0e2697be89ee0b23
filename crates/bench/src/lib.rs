//! The experiment harness: regenerates the thesis's comparative claims as
//! tables (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded results).
//!
//! The thesis has no quantitative evaluation of its own — its "results" are
//! the cost claims of §1.2.2, §4.1, §4.4, and §5.3. Each `eN_*` function
//! here measures one claim across the four storage organizations on the
//! deterministic device model, so the *shape* (who wins, by what factor,
//! where the crossovers are) can be checked against the thesis's argument,
//! and asserts that shape: a change that inverts a claim fails the run
//! instead of re-baselining its table. Simulated device time is the primary
//! metric: it is exactly reproducible.
//!
//! Every measurement is one [`Sample`] taken around a closure, most of them
//! on one guardian holding the synthetic store, built from a [`RigSpec`].
//! [`EXPERIMENTS`] lists every experiment in the order the `experiments`
//! binary runs them.

mod table;

pub use table::Table;

use argus_core::providers::MemProvider;
use argus_core::{HousekeepingMode, HybridLogRs, RecoveryMode, RecoveryOutcome, RecoverySystem};
use argus_guardian::{CcPolicy, MediaKind, Outcome, RsKind, World, WorldConfig};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, Value};
use argus_obs::Count;
use argus_sim::{CostModel, DetRng, SimClock};
use argus_slog::ForceConfig;
use argus_workload::{
    Contended, ContendedConfig, ContendedStats, Sharded, ShardedConfig, ShardedStats, Synth,
    SynthConfig,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A table row from cells of any `Display` type.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// The ids of the tables an experiment yields, and the function making them.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// Every experiment in the order the `experiments` binary runs them, at the
/// parameters its tables are recorded with (`E2/E3` is one run, two
/// tables). E18–E20 run on real files ([`file_media`]) and read the wall
/// clock, so their numbers vary run to run — their *orderings* are the
/// reproducible claims.
pub const EXPERIMENTS: &[Experiment] = &[
    ("E1", || vec![e1_write_cost(200)]),
    ("E2/E3", || e2_recovery_cost(&[250, 1_000, 4_000, 16_000])),
    ("E4", || vec![e4_housekeeping_cost()]),
    ("E5", || vec![e5_checkpoint_bounds_recovery()]),
    ("E6", || vec![e6_early_prepare()]),
    ("E7", || vec![e7_map_scaling()]),
    ("E8", || vec![e8_crash_matrix()]),
    ("E9", || vec![e9_device_sensitivity()]),
    ("E10", || vec![e10_abort_rate()]),
    ("E11", || vec![e11_explore_coverage()]),
    ("E12", || vec![e12_group_commit(25)]),
    ("E13", || vec![e13_recovery_cache(2_000)]),
    ("E14", || vec![e14_cc_policies(&[2, 8, 32], 8)]),
    ("E15", || vec![e15_sweep_coverage(None, true)]),
    ("E16", || vec![e16_latency_attribution(8)]),
    ("E17", || vec![e17_vopr_coverage(24, 64)]),
    ("E18", || vec![e18_wall_group_commit(25)]),
    ("E19", || vec![e19_wall_recovery(2_000)]),
    ("E20", || vec![e20_instant_restart(2_000)]),
    ("E21", || vec![e21_sharded_scaling(&[4, 64, 256], 8)]),
];

fn kind_name(kind: RsKind) -> &'static str {
    match kind {
        RsKind::Simple => "simple log",
        RsKind::Hybrid => "hybrid log",
        RsKind::Shadow => "shadowing",
        RsKind::Redo => "redo log",
    }
}

/// `a / b` as a table's `N.Nx` cell.
fn ratio(a: u64, b: u64) -> String {
    format!("{:.1}x", a as f64 / b.max(1) as f64)
}

fn pct(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

fn rising<T: PartialOrd>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// What one measured stretch of a world cost, on every clock at once.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Simulated device-busy µs, summed over the world's guardians.
    pub busy_us: u64,
    /// Device force barriers, summed over the world's guardians.
    pub forces: u64,
    /// How far the world's simulated clock moved. Unlike `busy_us` this
    /// includes the device a housekeeping pass switches away from.
    pub sim_us: u64,
    /// Wall-clock time.
    pub wall: Duration,
    /// How much each counter of the current registry scope grew, by row.
    counters: Vec<u64>,
}

impl Sample {
    /// How much the counter `row` grew during the sample.
    pub fn counter(&self, row: Count) -> u64 {
        self.counters[row as usize]
    }

    /// The wall-clock time in µs.
    pub fn wall_us(&self) -> u64 {
        self.wall.as_micros() as u64
    }

    /// The world's readings so far, the wall clock's excepted.
    fn now(world: &World) -> Self {
        let (busy_us, forces) = world.guardian_ids().into_iter().fold((0, 0), |(us, f), g| {
            let d = world.guardian(g).expect("guardian").log_stats().device;
            (us + d.busy_us, f + d.forces)
        });
        Self {
            busy_us,
            forces,
            sim_us: world.clock.now(),
            wall: Duration::ZERO,
            counters: argus_obs::current()
                .report()
                .counters
                .into_iter()
                .map(|(_, v)| v)
                .collect(),
        }
    }

    /// These readings less the earlier ones `before`.
    fn since(mut self, before: &Sample) -> Self {
        self.busy_us -= before.busy_us;
        self.forces -= before.forces;
        self.sim_us -= before.sim_us;
        for (value, earlier) in self.counters.iter_mut().zip(&before.counters) {
            *value -= earlier;
        }
        self
    }
}

/// Runs `f` on `world` and samples what it cost.
fn measure<T>(world: &mut World, f: impl FnOnce(&mut World) -> T) -> (T, Sample) {
    let before = Sample::now(world);
    let start = Instant::now();
    let out = f(world);
    let wall = start.elapsed();
    let sample = Sample::now(world).since(&before);
    (out, Sample { wall, ..sample })
}

/// The device profile a world on `cfg` is priced by: the 1983 disk on
/// simulated media — the thesis's metric — and the fast profile on a real
/// file, whose clock is the wall.
fn model_for(cfg: &WorldConfig) -> CostModel {
    if matches!(cfg.media, MediaKind::File { .. }) {
        CostModel::fast()
    } else {
        CostModel::default()
    }
}

/// The one-guardian world most experiments measure: a [`Synth`] store of
/// `objects` live 48-byte objects, each action writing `writes` of them,
/// driven by a [`DetRng`] seeded with `seed`.
#[derive(Debug, Clone)]
pub struct RigSpec {
    /// The device profile: the 1983 disk unless set.
    model: CostModel,
    /// The world's knobs: the defaults unless set.
    cfg: WorldConfig,
    /// Live objects.
    objects: usize,
    /// Objects written per action.
    writes: usize,
    /// The rng's seed.
    seed: u64,
}

impl RigSpec {
    /// The rig on the 1983 disk with the default knobs.
    pub fn new(objects: usize, writes: usize, seed: u64) -> Self {
        Self {
            model: CostModel::default(),
            cfg: WorldConfig::default(),
            objects,
            writes,
            seed,
        }
    }

    /// The same rig with knobs `cfg`, priced as their medium calls for (the
    /// fast profile on a real file).
    pub fn on(self, cfg: WorldConfig) -> Self {
        Self {
            model: model_for(&cfg),
            cfg,
            ..self
        }
    }

    /// Builds the world and its guardian of organization `kind`.
    fn build(&self, kind: RsKind) -> Rig {
        let mut world = World::with_config(self.model.clone(), self.cfg);
        let synth = Synth::setup(
            &mut world,
            kind,
            SynthConfig {
                objects: self.objects,
                writes_per_action: self.writes,
                value_size: 48,
                ..Default::default()
            },
        )
        .expect("setup");
        Rig {
            world,
            synth,
            rng: DetRng::new(self.seed),
        }
    }
}

/// A built [`RigSpec`]: the world, its guardian's store, and the rng that
/// drives it.
struct Rig {
    /// The world.
    world: World,
    /// The store on the world's one guardian.
    synth: Synth,
    /// The rng choosing what each action writes.
    rng: DetRng,
}

impl Rig {
    /// The guardian.
    fn guardian(&self) -> GuardianId {
        self.synth.guardian()
    }

    /// Commits `n` more actions.
    fn run(&mut self, n: u64) {
        self.synth
            .run(&mut self.world, &mut self.rng, n)
            .expect("run");
    }

    /// Crashes the guardian and samples its restart under `mode`.
    fn restart(&mut self, mode: RecoveryMode) -> (RecoveryOutcome, Sample) {
        let g = self.guardian();
        self.world.crash(g);
        assert!(
            self.world.set_recovery_mode(g, mode).expect("guardian"),
            "{g:?} does not support {mode:?}"
        );
        measure(&mut self.world, |w| w.restart(g).expect("recover"))
    }
}

/// Device µs per commit of `commits` actions on `spec`'s rig of `kind`.
fn write_us(spec: &RigSpec, kind: RsKind, commits: u64) -> u64 {
    let mut rig = spec.build(kind);
    let run = |w: &mut World| rig.synth.run(w, &mut rig.rng, commits).expect("run");
    measure(&mut rig.world, run).1.busy_us / commits
}

/// The `MediaKind::File` knobs of a wall-clock measurement, over a directory
/// the harness names — `argus-bench-<tag>` under `ARGUS_BENCH_DIR` (point it
/// at tmpfs or a real disk), or `argus-bench-<pid>-<tag>` under the OS temp
/// dir when that is unset — and removes when this is dropped, together with
/// whatever a killed earlier run left there. `ARGUS_BENCH_DIR` itself is
/// never touched.
pub struct FileMedia {
    /// The knobs; the path is leaked because `WorldConfig` is `Copy`.
    pub cfg: WorldConfig,
    dir: PathBuf,
}

impl Drop for FileMedia {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// [`FileMedia`] named by `tag`, with force schedule `force`.
pub fn file_media(tag: &str, force: ForceConfig) -> FileMedia {
    let dir = match std::env::var_os("ARGUS_BENCH_DIR") {
        Some(base) => PathBuf::from(base).join(format!("argus-bench-{tag}")),
        None => std::env::temp_dir().join(format!("argus-bench-{}-{tag}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let path: &'static str = Box::leak(dir.to_string_lossy().into_owned().into_boxed_str());
    let cfg = WorldConfig {
        force,
        media: MediaKind::File { dir: Some(path) },
        ..Default::default()
    };
    FileMedia { cfg, dir }
}

/// E1 — §1.2.2/§4.1: writing cost per committed action.
///
/// Claim: "Log ⇒ fast writing… Shadowing ⇒ slow writing"; the hybrid log
/// writes almost exactly like the pure log because the map fragment rides
/// inside the forced `prepared` entry.
fn e1_write_cost(commits: u64) -> Table {
    let mut table = Table::new(
        "E1",
        "Write cost per committed action (simulated device µs)",
        "thesis: simple ≈ hybrid < shadowing; the shadowing penalty is the per-commit map rewrite (see E7 for its scaling)",
        "objects/action | simple log | hybrid log | shadowing | redo log | shadow/hybrid",
    );
    for writes in [1usize, 4, 16, 64] {
        let us = RsKind::ALL.map(|kind| write_us(&RigSpec::new(2_048, writes, 1), kind, commits));
        let [simple, hybrid, shadow, redo] = us;
        assert!(
            shadow > simple.max(hybrid).max(redo),
            "E1: shadowing is not the dearest writer at {writes} objects/action: {us:?}"
        );
        table.row(row![
            writes,
            simple,
            hybrid,
            shadow,
            redo,
            ratio(shadow, hybrid)
        ]);
    }
    table
}

/// E2 — §1.2.2/§4.1: recovery cost versus history length, and (E3) the log
/// entries each recovery examines.
///
/// Claim: "Log ⇒ … slow recovery. Shadowing ⇒ … fast recovery". Under the
/// page cache both logs read each page about once, so the hybrid log's edge
/// (a constant number of data entries read) shows in E3, not in device µs.
fn e2_recovery_cost(lengths: &[u64]) -> Vec<Table> {
    let mut time = Table::new(
        "E2",
        "Recovery cost after a crash vs. history length (simulated device µs)",
        "thesis: log recovery grows with the history, shadowing's does not — hybrid < simple < redo full scan on every row; shadowing flat, below hybrid from 1 000 commits on",
        "committed actions | simple log | hybrid log | shadowing | redo log | simple/hybrid",
    );
    let mut examined = Table::new(
        "E3",
        "Log entries examined during recovery (entries / data entries read)",
        "thesis §4.1: the hybrid log reads only the outcome chain plus needed data entries",
        "committed actions | simple log | hybrid log | shadowing | redo log",
    );
    let (mut shadow_us, mut data_read) = (Vec::new(), Vec::new());
    for &n in lengths {
        let runs = RsKind::ALL.map(|kind| {
            let mut rig = RigSpec::new(128, 4, 2).build(kind);
            rig.run(n);
            rig.restart(RecoveryMode::Full)
        });
        let us = runs.each_ref().map(|(_, s)| s.busy_us);
        let [simple, hybrid, shadow, redo] = us;
        assert!(
            hybrid < simple && simple < redo,
            "E2: not hybrid < simple < redo full scan after {n} commits: {us:?}"
        );
        assert_eq!(
            shadow < hybrid,
            n >= 1_000,
            "E2: shadowing must beat the hybrid log from 1 000 commits on, not before: {us:?}"
        );
        shadow_us.push(shadow);
        data_read.push(runs.each_ref().map(|(o, _)| o.data_entries_read));
        time.row(row![n, simple, hybrid, shadow, redo, ratio(simple, hybrid)]);
        let mut cells = row![n];
        cells.extend(
            runs.iter()
                .map(|(o, _)| format!("{} / {}", o.entries_examined, o.data_entries_read)),
        );
        examined.row(cells);
    }
    let (least, most) = (shadow_us.iter().min(), shadow_us.iter().max());
    assert!(
        most.zip(least).is_some_and(|(m, l)| m * 10 <= l * 11),
        "E2: shadowing's recovery is not flat in the history: {shadow_us:?}"
    );
    let simple_read: Vec<u64> = data_read.iter().map(|r| r[0]).collect();
    assert!(
        data_read.iter().all(|r| r[1] == data_read[0][1]) && rising(&simple_read),
        "E3: the hybrid log must read a constant number of data entries while the simple \
         log's grows: {data_read:?}"
    );
    vec![time, examined]
}

/// E4 — §5.3: housekeeping cost, compaction vs snapshot.
///
/// Claim: "the snapshot… takes an amount of time roughly proportional to
/// the number of accessible recoverable objects; the compaction method
/// would take much longer since it must process all outcome entries as well
/// as all accessible objects."
fn e4_housekeeping_cost() -> Table {
    let mut table = Table::new(
        "E4",
        "Housekeeping cost (simulated device µs)",
        "thesis §5.3: compaction grows with history length; snapshot with live-set size",
        "live objects | history (commits) | compaction | snapshot | compaction/snapshot",
    );
    let mut compaction_64 = Vec::new();
    for (objects, history) in [
        (64usize, 500u64),
        (64, 2_000),
        (64, 8_000),
        (256, 2_000),
        (1_024, 2_000),
    ] {
        let [compaction, snapshot] = [HousekeepingMode::Compaction, HousekeepingMode::Snapshot]
            .map(|mode| {
                let mut rig = RigSpec::new(objects, 4, 3).build(RsKind::Hybrid);
                rig.run(history);
                let g = rig.guardian();
                // Housekeeping swaps the log to a fresh store, so read the
                // shared clock (old-log reads + new-log writes included).
                let pass = measure(&mut rig.world, |w| {
                    w.housekeep(g, mode).expect("housekeeping")
                });
                pass.1.sim_us
            });
        assert!(
            compaction > snapshot,
            "E4: compaction ({compaction}) is not slower than snapshot ({snapshot}) at \
             {objects} objects, {history} commits"
        );
        if objects == 64 {
            compaction_64.push(compaction);
        }
        table.row(row![
            objects,
            history,
            compaction,
            snapshot,
            ratio(compaction, snapshot)
        ]);
    }
    assert!(
        rising(&compaction_64),
        "E4: compaction does not grow with the history: {compaction_64:?}"
    );
    table
}

/// E5 — ch. 5: a checkpoint bounds recovery.
fn e5_checkpoint_bounds_recovery() -> Table {
    let mut table = Table::new(
        "E5",
        "Recovery after a crash, with and without housekeeping first",
        "thesis ch. 5: the checkpoint bounds how much log recovery must examine",
        "history (commits) | no housekeeping (entries / µs) | after snapshot (entries / µs)",
    );
    let mut bounded = Vec::new();
    for history in [1_000u64, 4_000, 16_000] {
        let [plain, snapshot] = [false, true].map(|housekeep| {
            let mut rig = RigSpec::new(128, 4, 4).build(RsKind::Hybrid);
            rig.run(history);
            if housekeep {
                let g = rig.guardian();
                rig.world
                    .housekeep(g, HousekeepingMode::Snapshot)
                    .expect("housekeeping");
            }
            let (outcome, restart) = rig.restart(RecoveryMode::Full);
            (outcome.entries_examined, restart.busy_us)
        });
        assert!(
            snapshot.0 < plain.0 && snapshot.1 < plain.1,
            "E5: a snapshot did not shorten recovery after {history} commits"
        );
        bounded.push(snapshot);
        let cell = |(entries, us): (u64, u64)| format!("{entries} / {us}");
        table.row(row![history, cell(plain), cell(snapshot)]);
    }
    assert!(
        bounded.iter().all(|&b| b == bounded[0]),
        "E5: recovery after a snapshot still grows with the history: {bounded:?}"
    );
    table
}

/// A hybrid log on simulated memory under a heap of committed 48-byte
/// objects: what E6 and E10 prepare against, below the world.
struct PrepareRig {
    clock: SimClock,
    rs: HybridLogRs<MemProvider>,
    heap: Heap,
    objs: Vec<HeapId>,
}

impl PrepareRig {
    fn new(objects: usize) -> Self {
        let clock = SimClock::new();
        let provider = MemProvider {
            clock: clock.clone(),
            model: CostModel::default(),
            plan: None,
        };
        let mut rs = HybridLogRs::create(provider).expect("rs");
        let mut heap = Heap::with_stable_root();
        let t0 = ActionId::new(GuardianId(0), 0);
        let root = heap.stable_root().expect("root");
        heap.acquire_write(root, t0).expect("lock");
        let objs: Vec<_> = (0..objects)
            .map(|_| heap.alloc_atomic(Value::Bytes(vec![0; 48]), Some(t0)))
            .collect();
        let refs = objs.iter().map(|h| Value::heap_ref(*h)).collect();
        heap.write_value(root, t0, |v| *v = Value::Seq(refs))
            .expect("write");
        rs.prepare(t0, &[root], &heap).expect("prepare");
        rs.commit(t0).expect("commit");
        heap.commit_action(t0);
        Self {
            clock,
            rs,
            heap,
            objs,
        }
    }

    /// Action `i + 1` overwrites every object; when `early`, its data
    /// entries are written now, off the critical path (free-time writing,
    /// §4.4). Returns the action and what its prepare has left to write.
    fn modify(&mut self, i: u64, early: bool) -> (ActionId, Vec<HeapId>) {
        let aid = ActionId::new(GuardianId(0), i + 1);
        for &h in &self.objs {
            self.heap.acquire_write(h, aid).expect("lock");
            self.heap
                .write_value(h, aid, |v| *v = Value::Bytes(vec![i as u8; 48]))
                .expect("write");
        }
        let mos = if early {
            let heap = &self.heap;
            self.rs
                .write_entry(aid, &self.objs, heap)
                .expect("early prepare")
        } else {
            self.objs.clone()
        };
        (aid, mos)
    }

    /// Prepares and commits `aid`; returns the prepare's simulated µs.
    fn commit(&mut self, aid: ActionId, mos: &[HeapId]) -> u64 {
        let start = self.clock.now();
        self.rs.prepare(aid, mos, &self.heap).expect("prepare");
        let us = self.clock.now() - start;
        self.rs.commit(aid).expect("commit");
        self.heap.commit_action(aid);
        us
    }
}

/// E6 — §4.4: early prepare shortens the prepare critical path.
///
/// Claim: "Rather than waiting for a top-level action to prepare and then
/// writing out the data entries to the log all at once, it might be better
/// to write out changes early… if the action eventually commits just the
/// prepared and committed outcome entries are written."
fn e6_early_prepare() -> Table {
    let mut table = Table::new(
        "E6",
        "Prepare-phase critical path (simulated device µs per prepare)",
        "thesis §4.4: with early prepare only the prepared outcome entry remains on the critical path",
        "objects/action | prepare (no early prepare) | prepare (after early prepare) | speedup",
    );
    for writes in [1usize, 4, 16, 64] {
        let rounds = 50u64;
        let [lazy, early] = [false, true].map(|early| {
            let mut rig = PrepareRig::new(writes);
            let total: u64 = (0..rounds)
                .map(|i| {
                    let (aid, mos) = rig.modify(i, early);
                    rig.commit(aid, &mos)
                })
                .sum();
            total / rounds
        });
        assert!(
            early < lazy,
            "E6: early prepare did not shorten the prepare at {writes} objects/action"
        );
        table.row(row![writes, lazy, early, ratio(lazy, early)]);
    }
    table
}

/// E7 — §1.2.1: the shadowing map rewrite grows with the number of objects;
/// the hybrid log's distributed map does not.
fn e7_map_scaling() -> Table {
    let mut table = Table::new(
        "E7",
        "Commit cost vs. total live objects, fixed 4 writes/action (device µs per commit)",
        "thesis §1.2.1: rewriting the map at every commit \"could be expensive, especially if the map is large\"",
        "live objects | hybrid log | shadowing | shadow/hybrid",
    );
    let mut penalty = Vec::new();
    for objects in [1_000usize, 4_000, 16_000, 32_000] {
        let [hybrid, shadow] = [RsKind::Hybrid, RsKind::Shadow]
            .map(|kind| write_us(&RigSpec::new(objects, 4, 5), kind, 50));
        penalty.push(shadow as f64 / hybrid.max(1) as f64);
        table.row(row![objects, hybrid, shadow, ratio(shadow, hybrid)]);
    }
    assert!(
        rising(&penalty),
        "E7: shadow/hybrid does not rise with the live set: {penalty:?}"
    );
    table
}

/// E8 — correctness under fault injection: the crash matrix of §2.2.3.
fn e8_crash_matrix() -> Table {
    use argus_objects::ObjRef;

    fn account(w: &World, g: GuardianId) -> HeapId {
        match w.guardian(g).expect("guardian").stable_value("acct") {
            Some(Value::Ref(ObjRef::Heap(h))) => h,
            _ => panic!("unresolved account"),
        }
    }
    fn balance(w: &World, g: GuardianId) -> i64 {
        let heap = &w.guardian(g).expect("guardian").heap;
        match heap.read_value(account(w, g), None) {
            Ok(Value::Int(b)) => *b,
            _ => panic!("bad balance"),
        }
    }

    let mut table = Table::new(
        "E8",
        "Fault-injection torture: distributed transfer with a crash at every write step",
        "required: 100% of recoveries consistent (conserved + all-or-nothing) and no committed action lost",
        "organization | victim | crashes fired | consistent | durable commits",
    );
    for kind in RsKind::ALL {
        for (victim, coordinator) in [("participant", false), ("coordinator", true)] {
            let (mut fired, mut consistent, mut durable) = (0u64, 0u64, 0u64);
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
                    w.write_atomic(g, a, account(&w, g), move |v| {
                        if let Value::Int(b) = v {
                            *b += delta;
                        }
                    })
                    .expect("write");
                }
                let g = if coordinator { g0 } else { g1 };
                w.arm_crash_after_writes(g, budget).expect("arm");
                let outcome = w.commit(a).expect("2pc");
                if w.is_up(g) {
                    continue;
                }
                fired += 1;
                w.crash(g);
                w.restart(g).expect("restart");
                w.run_until_quiet().expect("quiesce");
                w.requery_in_doubt().expect("requery");
                let (b0, b1) = (balance(&w, g0), balance(&w, g1));
                let all_or_nothing = (b0, b1) == (70, 130) || (b0, b1) == (100, 100);
                consistent += u64::from(b0 + b1 == 200 && all_or_nothing);
                durable += u64::from(outcome != Outcome::Committed || (b0, b1) == (70, 130));
            }
            assert!(
                consistent == fired && durable == fired,
                "E8: {kind:?} recovered inconsistently or lost a commit"
            );
            table.row(row![
                kind_name(kind),
                victim,
                fired,
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
fn e9_device_sensitivity() -> Table {
    let mut table = Table::new(
        "E9",
        "Ordering robustness across device profiles (device µs)",
        "ablation: the who-wins orderings of E1/E2 must not depend on the cost constants",
        "profile | metric | simple log | hybrid log | shadowing | redo log | ordering holds",
    );
    for (name, model) in [
        ("1983 disk", CostModel::default()),
        ("fast device", CostModel::fast()),
    ] {
        // Write cost per commit (16 writes/action, 2048 live objects).
        let spec = RigSpec {
            model: model.clone(),
            ..RigSpec::new(2_048, 16, 6)
        };
        let [simple, hybrid, shadow, redo] = RsKind::ALL.map(|kind| write_us(&spec, kind, 100));
        assert!(
            simple < shadow && hybrid < shadow && redo < shadow,
            "E9: on the {name} profile a log organization writes slower than shadowing"
        );
        table.row(row![
            name,
            "write/commit",
            simple,
            hybrid,
            shadow,
            redo,
            "yes"
        ]);

        // Recovery cost after 2000 commits.
        let spec = RigSpec {
            model,
            ..RigSpec::new(128, 4, 7)
        };
        let [simple, hybrid, shadow, redo] = RsKind::ALL.map(|kind| {
            let mut rig = spec.build(kind);
            rig.run(2_000);
            rig.restart(RecoveryMode::Full).1.busy_us
        });
        // The redo log's full-scan recovery reads the whole history like the
        // simple log's (E20 is where its fast restart modes are priced), so
        // the ordering constraint is only that both full scans lose to the
        // chain/map organizations.
        assert!(
            shadow < hybrid && hybrid < simple && hybrid < redo,
            "E9: on the {name} profile the recovery ordering does not hold"
        );
        table.row(row![name, "recovery", simple, hybrid, shadow, redo, "yes"]);
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
fn e10_abort_rate() -> Table {
    let mut table = Table::new(
        "E10",
        "Early prepare under aborts: total device µs per 100 actions (16 objects each)",
        "thesis §4.4: early prepare trades wasted writes on aborts for a shorter prepare path — worthwhile while aborts are rare",
        "abort rate | lazy (total) | early prepare (total) | early overhead | prepare path (lazy → early)",
    );
    let mut overheads = Vec::new();
    for abort_pct in [0u64, 10, 25, 50] {
        let [(lazy, lazy_path), (early, early_path)] = [false, true].map(|early| {
            let mut rig = PrepareRig::new(16);
            let mut rng = DetRng::new(42);
            let start = rig.clock.now();
            let (mut path, mut commits) = (0u64, 0u64);
            for i in 0..100u64 {
                let (aid, mos) = rig.modify(i, early);
                if rng.gen_bool(abort_pct as f64 / 100.0) {
                    // Local abort before the prepare message: nothing more
                    // reaches the log; early-prepared work is wasted.
                    rig.heap.abort_action(aid);
                    rig.rs.discard(aid);
                    continue;
                }
                path += rig.commit(aid, &mos);
                commits += 1;
            }
            (rig.clock.now() - start, path / commits.max(1))
        });
        let overhead = (early as f64 / lazy as f64 - 1.0) * 100.0;
        assert!(
            early_path < lazy_path,
            "E10: early prepare did not shorten the prepare path at {abort_pct}% aborts"
        );
        overheads.push(overhead);
        table.row(row![
            format!("{abort_pct}%"),
            lazy,
            early,
            format!("{overhead:+.1}%"),
            format!("{lazy_path} → {early_path}"),
        ]);
    }
    assert!(
        rising(&overheads),
        "E10: early prepare's overhead does not rise with the abort rate: {overheads:?}"
    );
    table
}

/// E11 — bounded model check of two-phase commit (DESIGN.md § Checking).
///
/// Runs the `argus-check` interleaving explorer — real guardians, stepped
/// as `World` steps them, over each organization's real recovery system —
/// across a sweep of crash/drop budgets and reports its coverage: distinct
/// states visited, crashes injected, messages dropped, and per-log lints —
/// all of which must find **zero** atomicity violations. The same counters
/// are exported through `argus-obs` (`check.explore.*`), so the harness's
/// per-run metrics report shows them alongside every other layer's.
fn e11_explore_coverage() -> Table {
    use argus_check::{ExploreConfig, Explorer};

    let mut table = Table::new(
        "E11",
        "Bounded 2PC interleaving exploration: coverage vs. fault budget",
        "required: zero atomicity violations (A1-A4 + termination) in every configuration; eager restarts re-check the stale-vote race class",
        "organization | participants | crashes | drops | eager restarts | states | crash points | dropped msgs | lints | terminal | violations",
    );
    for kind in RsKind::ALL {
        for (participants, max_crashes, max_drops, eager_restarts) in [
            // No participants: a local action, committed in one forced step.
            (0usize, 2u32, 0u32, true),
            (1, 2, 1, true),
            (2, 2, 1, false),
            (3, 1, 0, false),
            (8, 1, 0, false),
        ] {
            let report = Explorer::new(ExploreConfig {
                kind,
                participants,
                max_crashes,
                max_drops,
                max_states: 200_000,
                allow_refusal: true,
                eager_restarts,
            })
            .run();
            report.assert_ok();
            let s = report.stats;
            table.row(row![
                kind.name(),
                participants,
                max_crashes,
                max_drops,
                if eager_restarts { "yes" } else { "no" },
                s.states_visited,
                s.crash_points,
                s.drops,
                s.lint_runs,
                s.terminal_states,
                report.violations.len(),
            ]);
        }
    }
    table
}

/// Runs `rounds` batches of `concurrency` concurrent actions at one guardian
/// — disjoint objects, every commit launched before any settles, so their
/// log forces can coalesce — and samples the batches. On a real file the
/// world is priced by the fast profile, and two unsampled batches first
/// warm up file growth and caches.
pub fn commit_perf(kind: RsKind, concurrency: usize, rounds: u64, cfg: WorldConfig) -> Sample {
    let mut world = World::with_config(model_for(&cfg), cfg);
    let g = world.add_guardian(kind).expect("guardian");
    let setup = world.begin(g).expect("begin");
    let objs: Vec<_> = (0..concurrency)
        .map(|i| {
            let h = world
                .create_atomic(g, setup, Value::Bytes(vec![0; 48]))
                .expect("create");
            world
                .set_stable(g, setup, &format!("o{i}"), Value::heap_ref(h))
                .expect("bind");
            h
        })
        .collect();
    assert_eq!(
        world.commit(setup).expect("setup commit"),
        Outcome::Committed
    );

    let batch = |world: &mut World, round: u64| {
        let aids: Vec<_> = (0..concurrency)
            .map(|_| world.begin(g).expect("begin"))
            .collect();
        for (&aid, &h) in aids.iter().zip(&objs) {
            let fill = (round & 0xFF) as u8;
            world
                .write_atomic(g, aid, h, move |v| *v = Value::Bytes(vec![fill; 48]))
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
        }
    };
    let warmup = if matches!(cfg.media, MediaKind::File { .. }) {
        2
    } else {
        0
    };
    for round in 0..warmup {
        batch(&mut world, round);
    }
    measure(&mut world, |world| {
        for round in warmup..warmup + rounds {
            batch(world, round);
        }
    })
    .1
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

    let forces =
        |w: &World| gids.map(|g| w.guardian(g).expect("guardian").log_stats().device.forces);
    let before = forces(&world);
    let (_, commit) = measure(&mut world, |world| {
        let aid = world.begin(gids[0]).expect("begin");
        for (g, h) in gids.into_iter().zip(objs) {
            world
                .write_atomic(g, aid, h, |v| *v = Value::Int(1))
                .expect("write");
        }
        assert_eq!(world.commit(aid).expect("commit"), Outcome::Committed);
    });
    let after = forces(&world);
    TwoGuardianCommit {
        coordinator_forces: after[0] - before[0],
        participant_forces: after[1] - before[1],
        messages: commit.counter(Count::NetDelivered),
        fsyncs: commit.counter(Count::StableFileFsyncs),
    }
}

/// E12 — group commit: forces and device time per commit vs. concurrency.
///
/// The thesis's log argument (§3.2) prices a commit at a forced append; the
/// group-commit scheduler makes one *device* force cover every action whose
/// records are staged when it runs. Shadowing has no force to share, so it
/// stays flat.
fn e12_group_commit(rounds: u64) -> Table {
    let mut table = Table::new(
        "E12",
        "Group commit: device forces and µs per commit vs. concurrent actions",
        "claim: concurrent actions share forces on the log organizations — forces/commit falls with concurrency; shadowing cannot batch",
        "concurrent actions | simple (forces/commit) | hybrid (forces/commit) | shadow (forces/commit) | redo (forces/commit) | simple (µs/commit) | hybrid (µs/commit) | shadow (µs/commit) | redo (µs/commit)",
    );
    for n in [1usize, 2, 4, 8] {
        let perf = RsKind::ALL.map(|kind| commit_perf(kind, n, rounds, WorldConfig::default()));
        let commits = rounds * n as u64;
        let mut cells = row![n];
        cells.extend(
            perf.iter()
                .map(|s| format!("{:.2}", s.forces as f64 / commits as f64)),
        );
        cells.extend(perf.iter().map(|s| (s.busy_us / commits).to_string()));
        table.row(cells);
    }
    table
}

/// Commits `history` actions on `spec`'s rig of `kind`, crashes it, and
/// samples the restart, all in a registry scope of its own. Returns the
/// log's bytes at the crash too.
pub fn recovery_perf(spec: &RigSpec, kind: RsKind, history: u64) -> (u64, Sample) {
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut rig = spec.build(kind);
    rig.run(history);
    let g = rig.guardian();
    let log_bytes = rig.world.guardian(g).expect("guardian").log_stats().bytes;
    (log_bytes, rig.restart(RecoveryMode::Full).1)
}

/// E13 — the page cache + read-ahead under recovery.
///
/// The hybrid log's backward chain walk re-reads pages it just touched
/// (header and payload of adjacent records share pages), and the prefetch
/// window turns its backward page sequence into sequential-rate device
/// reads; the simple log's full forward scan benefits the same way.
fn e13_recovery_cache(history: u64) -> Table {
    let mut table = Table::new(
        "E13",
        "Recovery device time with and without the page cache + read-ahead",
        "claim: caching + read-ahead cuts recovery device time ≥30% for the log organizations; the cache is volatile so crash semantics are unchanged",
        "organization | uncached µs | cached µs | reduction | hits | misses | readahead",
    );
    for kind in [RsKind::Simple, RsKind::Hybrid, RsKind::Redo] {
        let [uncached, cached] =
            [argus_stable::CacheConfig::disabled(), Default::default()].map(|cache| {
                let cfg = WorldConfig {
                    cache,
                    ..Default::default()
                };
                recovery_perf(&RigSpec::new(128, 4, 8).on(cfg), kind, history).1
            });
        let reduction = 1.0 - cached.busy_us as f64 / uncached.busy_us.max(1) as f64;
        table.row(row![
            kind_name(kind),
            uncached.busy_us,
            cached.busy_us,
            format!("{:.0}%", reduction * 100.0),
            cached.counter(Count::StableCacheHit),
            cached.counter(Count::StableCacheMiss),
            cached.counter(Count::StableCacheReadahead),
        ]);
    }
    table
}

/// Runs the contended transfer mix ([`Contended`]) under `policy` in the
/// caller's registry scope and samples it. Conserved balances are asserted,
/// so every E14 run doubles as a correctness check of the lock scheduler.
pub fn cc_perf(
    kind: RsKind,
    policy: CcPolicy,
    concurrency: usize,
    transfers: u64,
) -> (ContendedStats, Sample) {
    let mut world = World::with_config(CostModel::default(), WorldConfig::with_cc(policy));
    let mix = Contended::setup(
        &mut world,
        kind,
        ContendedConfig {
            concurrency,
            transfers_per_slot: transfers,
        },
    )
    .expect("setup");
    let mut rng = DetRng::new(14);
    let run = measure(&mut world, |w| mix.run(w, &mut rng).expect("contended run"));
    assert_eq!(
        mix.total_balance(&world).expect("balance"),
        mix.expected_total(),
        "{kind:?}/{policy:?}: transfers did not conserve the total balance"
    );
    run
}

/// E14 — concurrency-control policies under contention (§2.4.1).
///
/// The thesis prescribes two-phase locking but leaves the conflict policy
/// open. Three policies run the same deadlock-prone zipfian transfer mix on
/// every log organization: refuse-and-retry (conflict-abort), FIFO blocking
/// with wait-for-graph deadlock detection, and lock-wait timeout. No column
/// is a time: every guardian shares one simulated clock, so commits/s or a
/// p99 would price the world's device work, not one action's wait.
///
/// Asserted here: at 8 or more concurrent actions, blocking's abort rate is
/// below conflict-abort's on every organization.
fn e14_cc_policies(concurrencies: &[usize], transfers: u64) -> Table {
    let mut table = Table::new(
        "E14",
        "Concurrency-control policies on the contended zipfian mix (abort rate, deadlocks, timeouts)",
        "claim: blocking beats conflict-abort at high contention (fewer wasted attempts: a lower abort rate at >= 8 concurrent actions)",
        "organization | concurrent actions | policy | abort rate | deadlocks | timeouts",
    );
    for kind in RsKind::ALL {
        for &n in concurrencies {
            let mut abort_rates = Vec::new();
            for policy in [
                CcPolicy::ConflictAbort,
                CcPolicy::Blocking,
                CcPolicy::Timeout,
            ] {
                let (stats, run) = cc_perf(kind, policy, n, transfers);
                abort_rates.push(stats.abort_rate());
                table.row(row![
                    kind_name(kind),
                    n,
                    policy.name(),
                    pct(stats.abort_rate()),
                    run.counter(Count::CcDeadlocks),
                    stats.timeouts,
                ]);
            }
            let (conflict, blocking) = (abort_rates[0], abort_rates[1]);
            assert!(
                n < 8 || blocking < conflict,
                "{kind:?}/{n}: blocking's abort rate {blocking:.3} is not below conflict-abort's {conflict:.3}"
            );
        }
    }
    table
}

/// Runs the sharded mix ([`Sharded`]) of `cfg` under FIFO blocking with
/// deadlock detection, on a world priced by `model` and an rng seeded with
/// `seed`, and samples the run. Both conservation oracles (total balance;
/// seats vs. committed reservations) are asserted, so every run doubles as
/// a correctness check of the sharded world.
pub fn sharded_run(
    kind: RsKind,
    cfg: ShardedConfig,
    model: CostModel,
    seed: u64,
) -> (World, ShardedStats, Sample) {
    let mut world = World::with_config(model, WorldConfig::with_cc(CcPolicy::Blocking));
    let mix = Sharded::setup(&mut world, kind, cfg).expect("setup");
    let mut rng = DetRng::new(seed);
    let (stats, run) = measure(&mut world, |w| mix.run(w, &mut rng).expect("sharded run"));
    let shards = cfg.shards;
    assert_eq!(
        mix.total_balance(&world).expect("balance"),
        mix.expected_total(),
        "{kind:?}/{shards} shards: the mix did not conserve the total balance"
    );
    assert_eq!(
        mix.total_seats(&world).expect("seats"),
        mix.expected_seats(&stats),
        "{kind:?}/{shards} shards: seats do not match committed reservations"
    );
    (world, stats, run)
}

/// E21 — the sharded many-guardian world at scale (§2.1's "many guardians",
/// stressed the way §5.3 sizes real systems).
///
/// The partitioned banking/airline mix runs on worlds of 4 → 64 → 256 shard
/// guardians with zipfian user populations into the tens of thousands
/// (`actions_per_shard` actions per shard, 160 users per shard: 40 960 at
/// 256), on every log organization, under FIFO blocking with deadlock
/// detection. Every guardian shares one simulated clock and messages are
/// free, so the table reports no throughput or latency. What it shows is
/// counted: the world scheduler's work per committed action (`polls/commit`
/// — the O(active), not O(G), step) and how 2PC coordination spreads
/// (`coord shards`).
///
/// Asserted here, per organization: the largest `polls/commit` is at most
/// 1.25× the smallest, and at least 90 % of the shards coordinate a commit.
fn e21_sharded_scaling(shards: &[usize], actions_per_shard: u64) -> Table {
    let mut table = Table::new(
        "E21",
        "Sharded many-guardian scaling: scheduler work and 2PC spread (zipfian users, 2PC blocking mix)",
        "claim: scheduler polls/commit stay flat (max <= 1.25x min) as guardians grow 4 -> 256, and 2PC coordination spreads across >= 90% of the shards",
        "organization | shards | users | cross-shard | abort rate | coord shards | coord skew | polls/commit",
    );
    for kind in RsKind::ALL {
        let mut flat = (f64::MAX, 0f64);
        for &shards in shards {
            let cfg = ShardedConfig {
                shards,
                users: shards * 160,
                concurrency: (shards * 2).clamp(16, 128),
                actions: actions_per_shard * shards as u64,
                ..Default::default()
            };
            // Setup's polls count too: read the counter around the world.
            let polls = argus_obs::current().counter(Count::WorldSchedPolls);
            let polls_before = polls.get();
            let (_, stats, _) = sharded_run(kind, cfg, CostModel::default(), 21);
            let polls = (polls.get() - polls_before) as f64 / stats.committed.max(1) as f64;
            flat = (flat.0.min(polls), flat.1.max(polls));
            let coordinating = stats.coordinating_shards();
            assert!(
                coordinating * 10 >= shards * 9,
                "{kind:?}/{shards}: only {coordinating} shards coordinated a commit"
            );
            table.row(row![
                kind_name(kind),
                shards,
                cfg.users,
                stats.cross_shard,
                pct(stats.abort_rate()),
                format!("{coordinating}/{shards}"),
                format!("{:.2}", stats.coordinator_skew()),
                format!("{polls:.2}"),
            ]);
        }
        assert!(
            flat.1 <= 1.25 * flat.0,
            "{kind:?}: scheduler polls/commit (min, max) {flat:?} not flat across world sizes"
        );
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
    use argus_guardian::CcOutcome;

    let mut world = World::with_config(
        CostModel::default(),
        WorldConfig::with_cc(CcPolicy::Blocking),
    );
    let tracer = world.tracer().clone();
    tracer.set_detail(argus_trace::Detail::Device);
    let gids: Vec<_> = (0..3)
        .map(|_| world.add_guardian(kind).expect("guardian"))
        .collect();
    let accounts: Vec<_> = gids
        .iter()
        .enumerate()
        .map(|(j, &g)| {
            let aid = world.begin(g).expect("begin");
            let h = world
                .create_atomic(g, aid, Value::Int(1_000))
                .expect("create");
            world
                .set_stable(g, aid, &format!("hot{j}"), Value::heap_ref(h))
                .expect("bind");
            assert_eq!(world.commit(aid).expect("setup"), Outcome::Committed);
            h
        })
        .collect();
    let measure_start = world.clock.now();

    // One transfer stream per pair of accounts: 5 from the first to the
    // second, the lower guardian's lock first.
    struct Slot {
        pair: [usize; 2],
        aid: Option<ActionId>,
        next_op: usize,
        remaining: u64,
    }
    let mut slots = [[0, 1], [1, 2], [0, 2]].map(|pair| Slot {
        pair,
        aid: None,
        next_op: 0,
        remaining: transfers_per_slot,
    });
    while slots.iter().any(|s| s.aid.is_some() || s.remaining > 0) {
        let mut progress = false;
        for slot in &mut slots {
            let Some(aid) = slot.aid else {
                if slot.remaining > 0 {
                    slot.aid = Some(world.begin(gids[slot.pair[0]]).expect("begin"));
                    slot.next_op = 0;
                    progress = true;
                }
                continue;
            };
            assert!(
                world.take_cc_fate(aid).is_none(),
                "E16 mix is deadlock-free by lock order"
            );
            if world.cc_blocked(aid) {
                continue;
            }
            if let Some(&j) = slot.pair.get(slot.next_op) {
                let delta = if slot.next_op == 0 { -5i64 } else { 5 };
                let write = move |v: &mut Value| {
                    if let Value::Int(balance) = v {
                        *balance += delta;
                    }
                };
                let outcome = world
                    .submit_write_atomic(gids[j], aid, accounts[j], write)
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
        if !progress {
            let next = world
                .cc_next_deadline()
                .expect("E16 mix stalled with no pending event");
            world.clock.advance_to(next);
            world.cc_tick();
        }
    }

    let total: i64 = gids
        .iter()
        .zip(&accounts)
        .map(|(&g, &h)| {
            match world
                .guardian(g)
                .expect("guardian")
                .heap
                .read_value(h, None)
            {
                Ok(Value::Int(b)) => *b,
                _ => 0,
            }
        })
        .sum();
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
/// commit window, and 2PC round-trips are in the picture. Messages cost no
/// simulated time, so the network segment is 0 and gets no column.
///
/// The log organizations read and write through the instrumented page
/// cache, so their device segment is exact. Shadowing keeps its direct
/// store (its page map is already its own cache), so its device time is
/// not separately instrumented and reports under processing.
fn e16_latency_attribution(transfers_per_slot: u64) -> Table {
    let mut table = Table::new(
        "E16",
        "Latency attribution on the contended 3-guardian 2PC mix (mean simulated µs per committed action)",
        "required: the trace's segments partition each action's end-to-end latency (asserted); the breakdown shows what the thesis's device-only costing leaves out",
        "organization | actions | total | lock-wait | force-wait | device | processing",
    );
    for kind in RsKind::ALL {
        let (lats, measure_start) = e16_run(kind, transfers_per_slot);
        let committed: Vec<_> = lats
            .iter()
            .filter(|a| a.committed && a.start >= measure_start)
            .collect();
        let n = committed.len().max(1) as u64;
        let mean = |f: fn(&argus_trace::ActionLatency) -> u64| {
            committed.iter().map(|a| f(a)).sum::<u64>() / n
        };
        table.row(row![
            kind_name(kind),
            committed.len(),
            mean(|a| a.total_us),
            mean(|a| a.lock_wait_us),
            mean(|a| a.force_wait_us),
            mean(|a| a.device_us),
            mean(|a| a.processing_us),
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
fn e15_sweep_coverage(max_points_per_victim: Option<u64>, double_crash: bool) -> Table {
    use argus_check::{sweep, SweepConfig, SweepReport};

    let mut table = Table::new(
        "E15",
        "Crash-schedule sweep: crash at every write index, and during recovery",
        "required: zero counterexamples — committed stays durable, aborted stays invisible, in-doubt resolves atomically, logs lint clean (I1-I11), on every explored schedule",
        "organization | cells | first-crash points | double-crash points | oracle writes | counterexamples | simulated ms | wall ms",
    );
    for kind in RsKind::ALL {
        let started = Instant::now();
        let reports: Vec<_> = SweepConfig::matrix(double_crash, 1)
            .into_iter()
            .filter(|cfg| cfg.kind == kind)
            .map(|mut cfg| {
                cfg.max_points_per_victim = max_points_per_victim;
                sweep(&cfg)
            })
            .collect();
        let sum = |f: fn(&SweepReport) -> u64| reports.iter().map(f).sum::<u64>();
        table.row(row![
            kind.name(),
            reports.len(),
            sum(|r| r.first_crash_points),
            sum(|r| r.double_crash_points),
            sum(|r| r.oracle_writes),
            sum(|r| r.counterexamples.len() as u64),
            sum(|r| r.sim_us) / 1_000,
            started.elapsed().as_millis(),
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
fn e17_vopr_coverage(seeds: u64, iterations: u64) -> Table {
    use argus_check::{vopr, VoprConfig, VoprSummary};

    let mut table = Table::new(
        "E17",
        "VOPR randomized fault composition: drop/dup/reorder + partition/heal + pause/skew + decay + crash/recovery",
        "required: zero violations across every seed, with every fault kind firing in each organization's batch",
        "organization | seeds | actions | committed | aborted | in-doubt | checks | net faults | partitions | pauses | skews | decays | crashes | violations | simulated ms | wall ms",
    );
    for kind in RsKind::ALL {
        let started = Instant::now();
        let runs: Vec<_> = (1..=seeds)
            .map(|seed| {
                let mut cfg = VoprConfig::new(seed, iterations);
                cfg.kind = kind;
                vopr(&cfg)
            })
            .collect();
        let sum = |f: fn(&VoprSummary) -> u64| runs.iter().map(f).sum::<u64>();
        table.row(row![
            kind.name(),
            seeds,
            sum(|s| s.actions),
            sum(|s| s.committed),
            sum(|s| s.aborted),
            sum(|s| s.in_doubt),
            sum(|s| s.checks),
            sum(|s| s.faults.drops + s.faults.duplicates + s.faults.defers),
            sum(|s| s.faults.partitions),
            sum(|s| s.faults.pauses),
            sum(|s| s.faults.skews),
            sum(|s| s.faults.decays),
            sum(|s| s.faults.crashes),
            sum(|s| s.violations.len() as u64),
            sum(|s| s.sim_us) / 1_000,
            started.elapsed().as_millis(),
        ]);
    }
    table
}

/// E18 — group commit on a real file: wall-clock ns and fsyncs per commit.
///
/// The wall-clock reproduction of E12's ordering outside the simulator: at
/// 8 concurrent actions the group-commit scheduler folds the batch's forced
/// records into a shared `fdatasync`, so fsyncs/commit falls well below the
/// one-force-per-action immediate schedule — except on shadowing, which
/// forces inside each commit.
///
/// [`file_media`] picks the backing filesystem: point `ARGUS_BENCH_DIR` at
/// tmpfs and at a real disk to see the medium's sync cost.
fn e18_wall_group_commit(rounds: u64) -> Table {
    let mut table = Table::new(
        "E18",
        "Wall-clock group commit on a real file: ns and fsyncs per commit",
        "claim: E12's ordering survives contact with a real file — a local commit alone is one force (1 fsync); at 8 concurrent actions group commit needs 1/8th the fsyncs of the immediate schedule on the log organizations, and shadowing, which cannot batch, stays at 1",
        "organization | schedule | concurrent | ns/commit | fsyncs/commit | bytes/commit",
    );
    for kind in RsKind::ALL {
        for (schedule, force, n) in [
            ("immediate", ForceConfig::immediate(), 1usize),
            ("immediate", ForceConfig::immediate(), 8),
            ("group", ForceConfig::default(), 1),
            ("group", ForceConfig::default(), 8),
        ] {
            let tag = format!("e18-{}-{schedule}-{n}", kind_name(kind).replace(' ', "-"));
            let perf = commit_perf(kind, n, rounds, file_media(&tag, force).cfg);
            let commits = rounds * n as u64;
            let fsyncs = perf.counter(Count::StableFileFsyncs) as f64 / commits as f64;
            table.row(row![
                kind_name(kind),
                schedule,
                n,
                perf.wall.as_nanos() / u128::from(commits),
                format!("{fsyncs:.2}"),
                perf.counter(Count::StableFileBytesWritten) / commits,
            ]);
        }
    }
    table
}

/// E19 — wall-clock recovery throughput on a real file.
///
/// E2's shape in real time: the simple log re-reads its whole history, the
/// hybrid log walks only the outcome chain, shadowing reads the newest map.
/// Reported as MB/s of stable log bytes processed by the restart, so the
/// organizations' *selectivity* (not just the medium) sets the number.
fn e19_wall_recovery(history: u64) -> Table {
    let mut table = Table::new(
        "E19",
        "Wall-clock recovery on a real file: restart time vs. log size",
        "claim: hybrid restarts in near-constant time while the simple log's restart grows with the log; MB/s is log bytes at crash over restart wall time",
        "organization | committed actions | log KiB | restart µs | MB/s",
    );
    for kind in RsKind::ALL {
        let tag = format!("e19-{}-{history}", kind_name(kind).replace(' ', "-"));
        let files = file_media(&tag, ForceConfig::default());
        let (log_bytes, restart) =
            recovery_perf(&RigSpec::new(128, 4, 18).on(files.cfg), kind, history);
        table.row(row![
            kind_name(kind),
            history,
            log_bytes / 1024,
            restart.wall_us(),
            format!("{:.1}", log_bytes as f64 / restart.wall_us() as f64),
        ]);
    }
    table
}

/// Commits `history` actions on `spec`'s rig of `kind`, crashes it, restarts
/// it under `mode`, and commits once more. Returns the restart and that
/// first commit as `clock` reads their samples, and the objects still
/// awaiting lazy restoration.
fn instant_restart_perf(
    spec: &RigSpec,
    kind: RsKind,
    mode: RecoveryMode,
    history: u64,
    clock: impl Fn(&Sample) -> u64,
) -> [u64; 3] {
    let mut rig = spec.build(kind);
    rig.run(history);
    let g = rig.guardian();
    let (_, restart) = rig.restart(mode);
    let run = |w: &mut World| rig.synth.run(w, &mut rig.rng, 1).expect("first commit");
    let (_, first_commit) = measure(&mut rig.world, run);
    let lazy_left = rig.world.lazy_pending(g).expect("guardian");
    [clock(&restart), clock(&first_commit), lazy_left]
}

/// E20 — the instant-restart tier: time-to-first-commit after a crash.
///
/// The thesis's three organizations must finish their whole recovery pass
/// before serving anything; the redo organization decouples *restart* (tail
/// scan for the tables) from *restore* (replaying object chains), so the
/// guardian can take its first commit while most objects are still on the
/// log. The sim half prices every scheme on the deterministic device, and
/// the wall half replays the comparison on a real file.
///
/// Asserted here, so every run is a gate: on-demand reaches its first
/// commit ≥10× sooner than the simple log's full-scan restart on the
/// simulated device (≥3× wall-clock — the loose bound keeps slow CI
/// filesystems from flaking).
fn e20_instant_restart(history: u64) -> Table {
    use RecoveryMode::{Full, OnDemand};

    let mut table = Table::new(
        "E20",
        "Instant restart: time-to-first-commit after a crash (sim device µs; wall µs on a real file)",
        "claim: on-demand restart commits ≥10× sooner than the simple log's full scan",
        "clock | scheme | restart µs | first commit µs | time to first commit | vs simple | lazy left",
    );
    let schemes: [(&str, RsKind, RecoveryMode); 5] = [
        ("simple full scan", RsKind::Simple, Full),
        ("hybrid chain walk", RsKind::Hybrid, Full),
        ("shadow map read", RsKind::Shadow, Full),
        ("redo full replay", RsKind::Redo, Full),
        ("redo on-demand", RsKind::Redo, OnDemand),
    ];
    for (clock, factor) in [("sim", 10), ("wall", 3)] {
        let wall = clock == "wall";
        let read = |s: &Sample| if wall { s.wall_us() } else { s.busy_us };
        let mut base = None;
        for (i, &(name, kind, mode)) in schemes.iter().enumerate() {
            let [restart, first_commit, lazy_left] = if !wall {
                instant_restart_perf(&RigSpec::new(128, 4, 20), kind, mode, history, read)
            } else {
                let files = file_media(&format!("e20-{i}-{history}"), ForceConfig::default());
                let spec = RigSpec::new(128, 4, 21).on(files.cfg);
                instant_restart_perf(&spec, kind, mode, history, read)
            };
            let ttfc = restart + first_commit;
            let base = *base.get_or_insert(ttfc);
            if mode == OnDemand {
                assert!(
                    ttfc * factor <= base,
                    "{clock} on-demand time-to-first-commit not {factor}x below the simple \
                     log's ({ttfc} !<= {base}/{factor})"
                );
            }
            table.row(row![
                clock,
                name,
                restart,
                first_commit,
                ttfc,
                ratio(base, ttfc),
                lazy_left
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artefact_names_one_experiment_and_the_gate_checks_it() {
        let ids: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(id, _)| id.split('/'))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{id} is listed twice");
        }
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut artefacts = Vec::new();
        for entry in std::fs::read_dir(&root).expect("repository root") {
            let name = entry.expect("entry").file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
            {
                assert!(ids.contains(&id), "{name} names no experiment");
                artefacts.push(id.to_owned());
            }
        }
        for id in &ids {
            assert!(artefacts.iter().any(|a| a == id), "{id} has no artefact");
        }
        // scripts/bench.sh: `--check` covers every table but the three on
        // the wall clock, and a plain run writes every table.
        let script = std::fs::read_to_string(root.join("scripts/bench.sh")).expect("bench.sh");
        let lists: Vec<Vec<&str>> = script
            .lines()
            .filter_map(|l| l.trim().strip_prefix("experiments=("))
            .filter_map(|l| l.strip_suffix(')'))
            .filter(|l| l.starts_with('E'))
            .map(|l| l.split_whitespace().collect())
            .collect();
        let wall = ["E18", "E19", "E20"];
        let checked: Vec<&str> = ids
            .iter()
            .copied()
            .filter(|id| !wall.contains(id))
            .collect();
        assert_eq!(lists, [checked, ids], "bench.sh's --check and write lists");
    }

    #[test]
    fn a_wall_measurement_removes_its_directory() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let files = file_media("unit", ForceConfig::default());
        let dir = files.dir.clone();
        let sample = commit_perf(RsKind::Simple, 1, 1, files.cfg);
        assert_eq!(sample.counter(Count::StableFileFsyncs), 1);
        assert!(dir.exists(), "the measurement ran in {}", dir.display());
        drop(files);
        assert!(!dir.exists(), "{} outlived its measurement", dir.display());
    }
}
