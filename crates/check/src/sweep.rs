//! The exhaustive crash-schedule sweeper.
//!
//! The explorer in [`crate::explore`] enumerates *protocol* interleavings
//! over abstract state machines; this module sweeps *device* schedules over
//! the real storage stack. One un-faulted oracle run of a fixed 3-guardian
//! two-phase-commit workload records how many low-level page writes each
//! guardian performs. Then, for every guardian `v` and every write index
//! `k < W_v`, the workload is re-run from scratch with the fault plan armed
//! to crash `v` at its `k`-th write — tearing the in-flight page exactly as
//! §3.1's crash model allows — after which the node is healed, restarted
//! (recovery runs), in-doubt actions are re-queried to quiescence, and the
//! surviving state is held to [`crate::standing`] at [`Phase::Terminal`]:
//! I12 on the trace, I1–I10 on every log, I11 on every heap, and the
//! legal-outcomes oracle over each workload action's client-observed fate.
//!
//! With [`SweepConfig::double_crash`], every first-crash point is extended
//! by a second sweep *through recovery itself*: the restart is re-run with
//! a crash armed after `j` further device operations (reads, writes, and
//! forces all count — snapshot recovery and mirror repair write during
//! recovery), the node is healed and restarted once more, and the same
//! checks apply — recovery must be idempotent under its own crashes.
//!
//! On mirrored media ([`MediaKind::Mirrored`]), [`SweepConfig::decay_frontier`]
//! additionally decays one mirror leg of the page that was in flight at the
//! crash (the *crash frontier*) before every restart, composing the
//! Lampson–Sturgis decay model with the crash model.

use crate::ledger::dump_flight;
use crate::{standing, Fate, Ledger, Phase};
use argus_core::HousekeepingMode;
use argus_guardian::{MediaKind, RsKind, World, WorldConfig};
use argus_objects::{GuardianId, Value};
use argus_obs::{Count, Registry};
use argus_sim::CostModel;
use argus_slog::ForceConfig;
use argus_stable::CacheConfig;

/// Log-entry threshold that arms automatic housekeeping in swept worlds:
/// low enough that the workload crosses it several times, so crash points
/// land *inside* housekeeping passes as well as the regular protocol.
const HK_THRESHOLD: u64 = 10;

/// One cell of the sweep matrix: a storage configuration to exhaust.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// The recovery organization under test.
    pub kind: RsKind,
    /// Group-commit force batching on (`true`) or immediate forces.
    pub batched: bool,
    /// Page cache + read-ahead on (`true`) or every read from the device.
    pub cached: bool,
    /// Media model under the page stores.
    pub media: MediaKind,
    /// Automatic housekeeping mode armed during the workload, if any.
    pub housekeeping: Option<HousekeepingMode>,
    /// Also sweep a second crash through each recovery.
    pub double_crash: bool,
    /// Stride over second-crash op indices (1 = every device operation).
    pub double_crash_stride: u64,
    /// Decay one mirror leg of the crash-frontier page before restarts
    /// (meaningful only on [`MediaKind::Mirrored`]).
    pub decay_frontier: bool,
    /// Cap on first-crash points per victim (`None` = every write index) —
    /// lets tests run a bounded slice of the same sweep.
    pub max_points_per_victim: Option<u64>,
}

impl SweepConfig {
    /// The default cell for an organization: both optimizations on, memory
    /// media, no housekeeping, single crashes only.
    pub fn new(kind: RsKind) -> Self {
        Self {
            kind,
            batched: true,
            cached: true,
            media: MediaKind::Mem,
            housekeeping: None,
            double_crash: false,
            double_crash_stride: 1,
            decay_frontier: false,
            max_points_per_victim: None,
        }
    }

    /// Enables the crash-during-recovery second sweep with the given
    /// stride over recovery device-op indices.
    pub fn with_double_crash(mut self, stride: u64) -> Self {
        self.double_crash = true;
        self.double_crash_stride = stride.max(1);
        self
    }

    /// Runs on mirrored media and decays the crash-frontier page before
    /// every restart.
    pub fn with_mirror_decay(mut self) -> Self {
        self.media = MediaKind::Mirrored;
        self.decay_frontier = true;
        self
    }

    /// The full sweep matrix from the experiment plan: every organization ×
    /// {no housekeeping, each supported mode} × the group-commit/cache
    /// on-off matrix × {memory media, mirrored media with frontier decay}.
    pub fn matrix(double_crash: bool, stride: u64) -> Vec<Self> {
        let mut cells = Vec::new();
        for kind in RsKind::ALL {
            let mut modes: Vec<Option<HousekeepingMode>> = vec![None];
            modes.extend(kind.housekeeping_modes().iter().copied().map(Some));
            for hk in modes {
                for (batched, cached) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    for mirrored in [false, true] {
                        let mut cell = Self::new(kind);
                        cell.batched = batched;
                        cell.cached = cached;
                        cell.housekeeping = hk;
                        if mirrored {
                            cell = cell.with_mirror_decay();
                        }
                        if double_crash {
                            cell = cell.with_double_crash(stride);
                        }
                        cells.push(cell);
                    }
                }
            }
        }
        cells
    }

    /// A short human-readable cell label for reports.
    pub fn label(&self) -> String {
        format!(
            "{:?}/{}{}/{}{}{}",
            self.kind,
            if self.batched { "batched" } else { "immediate" },
            if self.cached { "+cache" } else { "" },
            match self.media {
                MediaKind::Mem => "mem",
                MediaKind::Mirrored => "mirrored",
                MediaKind::File { .. } => "file",
            },
            match self.housekeeping {
                Some(HousekeepingMode::Snapshot) => "/snapshot",
                Some(HousekeepingMode::Compaction) => "/compaction",
                None => "",
            },
            if self.double_crash { "/double" } else { "" },
        )
    }

    fn world_config(&self) -> WorldConfig {
        WorldConfig {
            force: if self.batched {
                ForceConfig::default()
            } else {
                ForceConfig::immediate()
            },
            cache: if self.cached {
                CacheConfig::default()
            } else {
                CacheConfig::disabled()
            },
            media: self.media,
            ..WorldConfig::default()
        }
    }
}

/// One failing schedule point: the minimal description that reproduces it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The guardian whose plan was armed (`None`: the un-faulted run).
    pub victim: Option<GuardianId>,
    /// Crash at the victim's `first_write`-th page write.
    pub first_write: u64,
    /// Second crash at the `recovery_op`-th device operation of recovery,
    /// if this was a double-crash point.
    pub recovery_op: Option<u64>,
    /// What broke: the lint violation or oracle clause that failed.
    pub problem: String,
    /// Where the flight recorder dumped the failing point (schedule text,
    /// then Chrome trace), each dump that succeeded.
    pub flight: Vec<String>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.victim {
            Some(v) => write!(f, "crash@write[{}] of {v:?}", self.first_write)?,
            None => write!(f, "un-faulted run")?,
        }
        if let Some(j) = self.recovery_op {
            write!(f, " + crash@recovery-op[{j}]")?;
        }
        write!(f, ": {}", self.problem)?;
        if !self.flight.is_empty() {
            write!(f, " [flight: {}]", self.flight.join(", "))?;
        }
        Ok(())
    }
}

/// The result of sweeping one [`SweepConfig`] cell.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The cell swept ([`SweepConfig::label`]).
    pub label: String,
    /// First-crash schedule points explored (one workload re-run each).
    pub first_crash_points: u64,
    /// Second-crash (crash-during-recovery) points explored.
    pub double_crash_points: u64,
    /// Total page writes in the un-faulted oracle run, across guardians.
    pub oracle_writes: u64,
    /// Simulated time spent across every explored world, in microseconds
    /// (each schedule point runs its own world from time zero).
    pub sim_us: u64,
    /// Every schedule whose recovered state failed a check.
    pub counterexamples: Vec<Counterexample>,
}

impl SweepReport {
    /// Whether every explored schedule recovered to a legal, lint-clean
    /// state.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// All schedule points explored, first and second crashes combined.
    pub fn total_points(&self) -> u64 {
        self.first_crash_points + self.double_crash_points
    }

    /// Files one schedule point's problems as counterexamples, each counted
    /// once in `check.sweep.counterexamples`.
    fn file(
        &mut self,
        obs: &Registry,
        victim: Option<GuardianId>,
        first_write: u64,
        recovery_op: Option<u64>,
        (problems, flight): (Vec<String>, Vec<String>),
    ) {
        for problem in problems {
            obs.inc(Count::CheckSweepCounterexamples);
            self.counterexamples.push(Counterexample {
                victim,
                first_write,
                recovery_op,
                problem,
                flight: flight.clone(),
            });
        }
    }

    /// Panics with every counterexample when the sweep is not clean.
    #[track_caller]
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let mut msg = format!(
                "{}: {} counterexample(s) in {} points:\n",
                self.label,
                self.counterexamples.len(),
                self.total_points()
            );
            for cx in &self.counterexamples {
                msg.push_str(&format!("  {cx}\n"));
            }
            panic!("{msg}");
        }
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} first-crash + {} double-crash points over {} oracle writes: {}",
            self.label,
            self.first_crash_points,
            self.double_crash_points,
            self.oracle_writes,
            if self.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} COUNTEREXAMPLES", self.counterexamples.len())
            }
        )
    }
}

/// The fixed deterministic workload: six top-level actions spreading
/// two-phase commits over three guardians with rotating coordinators, one
/// deliberate client abort, and distinct variables per action so visibility
/// is unambiguous. Stops early once `victim` goes down (the client gives up
/// on the in-flight action, aborting it).
fn run_workload(w: &mut World, gids: &[GuardianId], victim: Option<GuardianId>) -> Ledger {
    let (g0, g1, g2) = (gids[0], gids[1], gids[2]);
    #[allow(clippy::type_complexity)]
    let script: Vec<(GuardianId, Vec<(GuardianId, &'static str, i64)>, bool)> = vec![
        (
            g0,
            vec![(g0, "w1", 11), (g1, "w1", 11), (g2, "w1", 11)],
            false,
        ),
        (g1, vec![(g1, "w2", 22), (g2, "w2", 22)], false),
        (g0, vec![(g0, "w3", 33), (g2, "w3", 33)], true), // client abort
        (
            g2,
            vec![(g0, "w4", 44), (g1, "w4", 44), (g2, "w4", 44)],
            false,
        ),
        (g0, vec![(g0, "w5", 55)], false),
        (g1, vec![(g0, "w6", 66), (g1, "w6", 66)], false),
    ];

    let down = |w: &World| victim.is_some_and(|v| !w.is_up(v));
    let mut ledger = Ledger::default();
    for (origin, writes, client_abort) in script {
        if down(w) {
            break;
        }
        let Ok(aid) = w.begin(origin) else { break };
        let mut all_written = true;
        for (g, var, val) in &writes {
            if w.set_stable(*g, aid, var, Value::Int(*val)).is_err() {
                all_written = false;
                break;
            }
        }
        let fate = if client_abort || !all_written || down(w) {
            // A deliberate abort, or the client giving up because a node
            // it needs went down mid-action: abort before two-phase commit.
            w.abort_local(aid);
            Fate::Aborted
        } else {
            Fate::of(w.commit(aid))
        };
        let writes = writes
            .iter()
            .map(|(g, var, val)| (*g, (*var).to_owned(), *val));
        ledger.record(writes.collect(), fate);
        if down(w) {
            break;
        }
    }
    ledger
}

/// Builds a fresh world for one schedule point.
fn build_world(cfg: &SweepConfig) -> (World, Vec<GuardianId>) {
    let mut w = World::with_config(CostModel::fast(), cfg.world_config());
    let gids: Vec<GuardianId> = (0..3)
        .map(|_| w.add_guardian(cfg.kind).expect("add guardian"))
        .collect();
    if let Some(mode) = cfg.housekeeping {
        for g in &gids {
            w.set_housekeeping_policy(*g, HK_THRESHOLD, mode)
                .expect("set policy");
        }
    }
    (w, gids)
}

/// Heals the victim, optionally decays the crash-frontier page, restarts,
/// and drives the world to quiescence. When `recovery_crash_op` is set the
/// restart itself is armed to crash after that many device operations; the
/// node is then healed and restarted once more (double-crash idempotence).
/// Returns `Err(problem)` when a restart fails outright.
fn restart_and_quiesce(
    w: &mut World,
    victim: GuardianId,
    cfg: &SweepConfig,
    recovery_crash_op: Option<u64>,
) -> Result<(), String> {
    let decay = |w: &mut World| {
        if cfg.decay_frontier {
            if let Some(pno) = w.fault_plan(victim).ok().and_then(|p| p.frontier_page()) {
                let _ = w.decay_page(victim, pno);
            }
        }
    };
    decay(w);
    match recovery_crash_op {
        None => {
            w.restart(victim)
                .map_err(|e| format!("restart failed: {e}"))?;
        }
        Some(j) => {
            match w
                .restart_with_crash_after_ops(victim, j)
                .map_err(|e| format!("armed restart failed: {e}"))?
            {
                Some(_) => {}
                None => {
                    // Recovery itself crashed at op j; the frontier may
                    // have torn again — decay composes here too.
                    decay(w);
                    w.restart(victim)
                        .map_err(|e| format!("restart after recovery crash failed: {e}"))?;
                }
            }
        }
    }
    w.requery_in_doubt()
        .map_err(|e| format!("requery failed: {e}"))?;
    // The second crash's countdown can outlive recovery proper and fire in
    // the resumption or re-query traffic instead: bring the node back once
    // more. A countdown that never expired at all is cancelled so it cannot
    // fire inside the checks below.
    if !w.is_up(victim) {
        decay(w);
        w.restart(victim)
            .map_err(|e| format!("re-restart failed: {e}"))?;
        w.requery_in_doubt()
            .map_err(|e| format!("requery failed: {e}"))?;
    }
    w.fault_plan(victim)
        .map_err(|e| format!("no fault plan: {e}"))?
        .disarm();
    Ok(())
}

/// The flight recorder for a failing point: its coordinates, the ledger,
/// each up guardian's log and the full trace. Returns the dump paths (none
/// when the point is clean).
fn flight(
    cfg: &SweepConfig,
    w: &mut World,
    ledger: &Ledger,
    point: &str,
    problems: &[String],
) -> Vec<String> {
    let label = format!("sweep-{}-{point}", cfg.label());
    dump_flight(&label, vec![label.clone()], problems, ledger, w)
}

/// Runs one schedule point end to end: workload with a crash armed at the
/// victim's `k`-th write (and optionally a second crash at recovery op `j`),
/// restart, quiesce, check. Returns the violations with the flight dump
/// paths, the number of device operations the victim performed from its
/// crash through the check (the second sweep's range), and the simulated
/// time spent.
fn run_point(
    cfg: &SweepConfig,
    victim_idx: usize,
    k: u64,
    recovery_crash_op: Option<u64>,
) -> ((Vec<String>, Vec<String>), u64, u64) {
    let (mut w, gids) = build_world(cfg);
    let victim = gids[victim_idx];
    w.arm_crash_after_writes(victim, k).expect("arm");
    let ledger = run_workload(&mut w, &gids, Some(victim));
    let point = match recovery_crash_op {
        Some(j) => format!("v{victim_idx}-w{k}-r{j}"),
        None => format!("v{victim_idx}-w{k}"),
    };

    if w.is_up(victim) {
        // The armed write never happened on this schedule (the workload
        // ended first); the state is the oracle state. Disarm and verify
        // anyway — it is a free consistency check.
        w.fault_plan(victim).expect("plan").heal();
        let problems = standing(&mut w, &ledger, Phase::Terminal);
        let flight = flight(cfg, &mut w, &ledger, &point, &problems);
        return ((problems, flight), 0, w.clock.now());
    }

    w.crash(victim);
    let before = w.fault_plan(victim).expect("plan").op_counts();
    let problems = match restart_and_quiesce(&mut w, victim, cfg, recovery_crash_op) {
        Ok(()) => standing(&mut w, &ledger, Phase::Terminal),
        Err(problem) => vec![problem],
    };
    let recovery_ops = w
        .fault_plan(victim)
        .expect("plan")
        .op_counts()
        .since(&before)
        .total();
    let flight = flight(cfg, &mut w, &ledger, &point, &problems);
    ((problems, flight), recovery_ops, w.clock.now())
}

/// Sweeps one configuration cell exhaustively. See the module docs for the
/// exploration structure.
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let obs = argus_obs::current();
    let mut report = SweepReport {
        label: cfg.label(),
        first_crash_points: 0,
        double_crash_points: 0,
        oracle_writes: 0,
        sim_us: 0,
        counterexamples: Vec::new(),
    };

    // Oracle run: no faults; records the per-guardian write budgets.
    let (mut w, gids) = build_world(cfg);
    let ledger = run_workload(&mut w, &gids, None);
    let budgets: Vec<u64> = gids
        .iter()
        .map(|g| w.fault_plan(*g).expect("plan").op_counts().writes)
        .collect();
    report.oracle_writes = budgets.iter().sum();
    let problems = standing(&mut w, &ledger, Phase::Terminal);
    let flight = flight(cfg, &mut w, &ledger, "unfaulted", &problems);
    report.sim_us += w.clock.now();
    report.file(&obs, None, 0, None, (problems, flight));

    for (vi, budget) in budgets.iter().enumerate() {
        let limit = cfg
            .max_points_per_victim
            .map_or(*budget, |m| m.min(*budget));
        for k in 0..limit {
            report.first_crash_points += 1;
            obs.inc(Count::CheckSweepPoints);
            let (found, recovery_ops, sim_us) = run_point(cfg, vi, k, None);
            report.sim_us += sim_us;
            report.file(&obs, Some(gids[vi]), k, None, found);
            if cfg.double_crash && recovery_ops > 0 {
                let mut j = 0;
                while j < recovery_ops {
                    report.double_crash_points += 1;
                    obs.inc(Count::CheckSweepDoubleCrashes);
                    let (found, _, sim_us) = run_point(cfg, vi, k, Some(j));
                    report.sim_us += sim_us;
                    report.file(&obs, Some(gids[vi]), k, Some(j), found);
                    j += cfg.double_crash_stride;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_run_is_clean_and_counts_writes() {
        let cfg = SweepConfig::new(RsKind::Hybrid);
        let (mut w, gids) = build_world(&cfg);
        let ledger = run_workload(&mut w, &gids, None);
        assert_eq!(ledger.actions.len(), 6);
        assert!(ledger.actions.iter().enumerate().all(|(i, r)| if i == 2 {
            r.fate == Fate::Aborted
        } else {
            r.fate == Fate::Committed
        }));
        assert!(standing(&mut w, &ledger, Phase::Terminal).is_empty());
        let writes: u64 = gids
            .iter()
            .map(|g| w.fault_plan(*g).unwrap().op_counts().writes)
            .sum();
        assert!(writes > 0, "the workload must hit the device");
    }

    /// Every filed problem bumps `check.sweep.counterexamples` once, the
    /// un-faulted run's included, and that run names no victim.
    #[test]
    fn every_counterexample_is_counted_once() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let obs = argus_obs::current();
        let mut report = SweepReport {
            label: "test".to_owned(),
            first_crash_points: 0,
            double_crash_points: 0,
            oracle_writes: 0,
            sim_us: 0,
            counterexamples: Vec::new(),
        };
        let lines = |v: &[&str]| v.iter().map(|p| (*p).to_owned()).collect::<Vec<_>>();
        report.file(&obs, None, 0, None, (lines(&["a", "b"]), Vec::new()));
        let found = (lines(&["c"]), lines(&["s.txt", "t.json"]));
        report.file(&obs, Some(GuardianId(1)), 3, Some(2), found);
        assert_eq!(reg.counter("check.sweep.counterexamples").get(), 3);
        let shown: Vec<String> = report
            .counterexamples
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(
            shown,
            [
                "un-faulted run: a",
                "un-faulted run: b",
                "crash@write[3] of GuardianId(1) + crash@recovery-op[2]: c \
                 [flight: s.txt, t.json]",
            ]
        );
    }

    #[test]
    fn bounded_sweep_of_each_organization_is_clean() {
        for kind in RsKind::ALL {
            let mut cfg = SweepConfig::new(kind);
            cfg.max_points_per_victim = Some(4);
            sweep(&cfg).assert_clean();
        }
    }

    #[test]
    fn double_crash_points_are_explored() {
        let mut cfg = SweepConfig::new(RsKind::Hybrid).with_double_crash(5);
        cfg.max_points_per_victim = Some(2);
        let report = sweep(&cfg);
        assert!(report.double_crash_points > 0, "{report}");
        report.assert_clean();
    }
}
