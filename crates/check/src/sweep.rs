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
//! surviving state is checked two ways:
//!
//! * **structurally**: every guardian's log must pass the invariant
//!   catalogue I1–I10 ([`crate::lint_log`]) and every heap the stale-lock
//!   check I11 ([`crate::lint_heap_quiesced`]);
//! * **semantically**: against the *legal-outcomes oracle*. Each workload
//!   action's fate as observed by the client bounds what recovery may
//!   produce — `Committed` ⇒ its writes are durable at every participant,
//!   `Aborted` ⇒ invisible everywhere, `Pending`/interrupted ⇒ either, but
//!   atomically (all participants agree).
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

use crate::obs::SweepObs;
use crate::{lint_heap_quiesced, lint_log, LogImage};
use argus_core::HousekeepingMode;
use argus_guardian::{MediaKind, Outcome, RsKind, World, WorldConfig};
use argus_objects::{GuardianId, Value};
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
    /// The guardian whose plan was armed.
    pub victim: GuardianId,
    /// Crash at the victim's `first_write`-th page write.
    pub first_write: u64,
    /// Second crash at the `recovery_op`-th device operation of recovery,
    /// if this was a double-crash point.
    pub recovery_op: Option<u64>,
    /// What broke: the lint violation or oracle clause that failed.
    pub problem: String,
    /// Where the flight recorder dumped the failing schedule's full trace
    /// (Chrome trace-event JSON), when the dump succeeded.
    pub trace: Option<String>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "crash@write[{}] of {:?}", self.first_write, self.victim)?;
        if let Some(j) = self.recovery_op {
            write!(f, " + crash@recovery-op[{j}]")?;
        }
        write!(f, ": {}", self.problem)?;
        if let Some(trace) = &self.trace {
            write!(f, " [trace: {trace}]")?;
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

/// The client-observed fate of one workload action — what the legal-outcomes
/// oracle holds recovery to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// `commit` returned `Committed`: the writes are promised durable.
    Committed,
    /// The client aborted (deliberately, or giving up on a crashed node):
    /// the writes must never become visible.
    Aborted,
    /// A crash interrupted two-phase commit: either fate is legal, but it
    /// must be atomic across participants.
    InDoubt,
}

/// One workload action's writes and observed fate.
#[derive(Debug, Clone)]
struct ActionRec {
    writes: Vec<(GuardianId, &'static str, i64)>,
    fate: Fate,
}

/// The fixed deterministic workload: six top-level actions spreading
/// two-phase commits over three guardians with rotating coordinators, one
/// deliberate client abort, and distinct variables per action so visibility
/// is unambiguous. Stops early once `victim` goes down (the client gives up
/// on the in-flight action, aborting it).
fn run_workload(w: &mut World, gids: &[GuardianId], victim: Option<GuardianId>) -> Vec<ActionRec> {
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
    let mut records = Vec::new();
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
            match w.commit(aid) {
                Ok(Outcome::Committed) => Fate::Committed,
                Ok(Outcome::Aborted) => Fate::Aborted,
                Ok(Outcome::Pending) | Err(_) => Fate::InDoubt,
            }
        };
        records.push(ActionRec { writes, fate });
        if down(w) {
            break;
        }
    }
    records
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

/// Checks the recovered, quiesced world structurally (I1–I12) and against
/// the legal-outcomes oracle. Returns every violation found.
fn check_world(w: &mut World, gids: &[GuardianId], records: &[ActionRec]) -> Vec<String> {
    let mut problems = Vec::new();

    // Structural: the recorded trace must be self-consistent (I12) — crash
    // schedules are exactly where dangling spans would slip in.
    for v in crate::lint_trace(w.tracer()) {
        problems.push(format!("trace: {v}"));
    }

    // Structural: I1–I10 per log, I11 per heap.
    let live = w.live_actions();
    for g in gids {
        match w.dump_log(*g) {
            Ok(Some(entries)) => {
                let report = lint_log(&LogImage::from_entries(entries));
                if !report.is_clean() {
                    problems.push(format!("{g:?} log lint: {report}"));
                }
            }
            Ok(None) => {} // shadowing keeps no log
            Err(e) => problems.push(format!("{g:?} log dump failed: {e}")),
        }
        if w.is_up(*g) {
            let heap = &w.guardian(*g).expect("guardian").heap;
            for v in lint_heap_quiesced(heap, &live) {
                problems.push(format!("{g:?} heap: {v}"));
            }
        } else {
            problems.push(format!("{g:?} still down after restart"));
        }
    }

    // Semantic: the legal-outcomes oracle.
    for rec in records {
        let observed: Vec<(GuardianId, &str, Option<Value>)> = rec
            .writes
            .iter()
            .map(|(g, var, _)| {
                let v = w.guardian(*g).expect("guardian").stable_value(var);
                (*g, *var, v)
            })
            .collect();
        match rec.fate {
            Fate::Committed => {
                for ((g, var, got), (_, _, want)) in observed.iter().zip(&rec.writes) {
                    if got.as_ref() != Some(&Value::Int(*want)) {
                        problems.push(format!(
                            "committed write {var}={want} lost at {g:?} (found {got:?})"
                        ));
                    }
                }
            }
            Fate::Aborted => {
                for (g, var, got) in &observed {
                    if got.is_some() {
                        problems.push(format!(
                            "aborted write {var} became visible at {g:?} ({got:?})"
                        ));
                    }
                }
            }
            Fate::InDoubt => {
                let visible = observed.iter().filter(|(_, _, v)| v.is_some()).count();
                if visible != 0 && visible != observed.len() {
                    problems.push(format!(
                        "in-doubt action resolved non-atomically: {observed:?}"
                    ));
                } else if visible == observed.len() {
                    for ((g, var, got), (_, _, want)) in observed.iter().zip(&rec.writes) {
                        if got.as_ref() != Some(&Value::Int(*want)) {
                            problems.push(format!(
                                "in-doubt write {var} committed a wrong value at {g:?}: \
                                 {got:?} != {want}"
                            ));
                        }
                    }
                }
            }
        }
    }
    problems
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

/// The flight recorder: dumps the failing schedule's full trace next to the
/// point's repro coordinates. Returns the dump path, or `None` when the
/// dump itself failed (the counterexample still stands on its own).
fn dump_flight(
    cfg: &SweepConfig,
    w: &World,
    victim_idx: usize,
    k: u64,
    recovery_crash_op: Option<u64>,
) -> Option<String> {
    let label = match recovery_crash_op {
        Some(j) => format!("sweep-{}-v{victim_idx}-w{k}-r{j}", cfg.label()),
        None => format!("sweep-{}-v{victim_idx}-w{k}", cfg.label()),
    };
    argus_trace::flight::dump(&label, w.tracer())
        .ok()
        .map(|p| p.display().to_string())
}

/// Runs one schedule point end to end: workload with a crash armed at the
/// victim's `k`-th write (and optionally a second crash at recovery op `j`),
/// restart, quiesce, check. Returns the violations (with the flight-recorder
/// dump path when there were any) and the number of device operations the
/// victim's recovery performed (for the second sweep).
fn run_point(
    cfg: &SweepConfig,
    victim_idx: usize,
    k: u64,
    recovery_crash_op: Option<u64>,
) -> (Vec<String>, Option<String>, u64, u64) {
    let (mut w, gids) = build_world(cfg);
    let victim = gids[victim_idx];
    w.arm_crash_after_writes(victim, k).expect("arm");
    let records = run_workload(&mut w, &gids, Some(victim));

    if w.is_up(victim) {
        // The armed write never happened on this schedule (the workload
        // ended first); the state is the oracle state. Disarm and verify
        // anyway — it is a free consistency check.
        w.fault_plan(victim).expect("plan").heal();
        let problems = check_world(&mut w, &gids, &records);
        let trace = (!problems.is_empty())
            .then(|| dump_flight(cfg, &w, victim_idx, k, recovery_crash_op))
            .flatten();
        let sim_us = w.clock.now();
        return (problems, trace, 0, sim_us);
    }

    w.crash(victim);
    let before = w.fault_plan(victim).expect("plan").op_counts();
    let mut problems = match restart_and_quiesce(&mut w, victim, cfg, recovery_crash_op) {
        Ok(()) => check_world(&mut w, &gids, &records),
        Err(problem) => vec![problem],
    };
    let recovery_ops = w
        .fault_plan(victim)
        .expect("plan")
        .op_counts()
        .since(&before)
        .total();
    problems.retain(|p| !p.is_empty());
    let trace = (!problems.is_empty())
        .then(|| dump_flight(cfg, &w, victim_idx, k, recovery_crash_op))
        .flatten();
    let sim_us = w.clock.now();
    (problems, trace, recovery_ops, sim_us)
}

/// Sweeps one configuration cell exhaustively. See the module docs for the
/// exploration structure.
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let obs = SweepObs::resolve();
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
    let records = run_workload(&mut w, &gids, None);
    let budgets: Vec<u64> = gids
        .iter()
        .map(|g| w.fault_plan(*g).expect("plan").op_counts().writes)
        .collect();
    report.oracle_writes = budgets.iter().sum();
    let oracle_problems = check_world(&mut w, &gids, &records);
    report.sim_us += w.clock.now();
    for problem in oracle_problems {
        report.counterexamples.push(Counterexample {
            victim: GuardianId(u32::MAX),
            first_write: 0,
            recovery_op: None,
            problem: format!("un-faulted oracle run: {problem}"),
            trace: None,
        });
    }

    for (vi, budget) in budgets.iter().enumerate() {
        let limit = cfg
            .max_points_per_victim
            .map_or(*budget, |m| m.min(*budget));
        for k in 0..limit {
            report.first_crash_points += 1;
            obs.points.inc();
            let (problems, trace, recovery_ops, sim_us) = run_point(cfg, vi, k, None);
            report.sim_us += sim_us;
            for problem in problems {
                obs.counterexamples.inc();
                report.counterexamples.push(Counterexample {
                    victim: gids[vi],
                    first_write: k,
                    recovery_op: None,
                    problem,
                    trace: trace.clone(),
                });
            }
            if cfg.double_crash && recovery_ops > 0 {
                let mut j = 0;
                while j < recovery_ops {
                    report.double_crash_points += 1;
                    obs.double_crashes.inc();
                    let (problems, trace, _, sim_us) = run_point(cfg, vi, k, Some(j));
                    report.sim_us += sim_us;
                    for problem in problems {
                        obs.counterexamples.inc();
                        report.counterexamples.push(Counterexample {
                            victim: gids[vi],
                            first_write: k,
                            recovery_op: Some(j),
                            problem,
                            trace: trace.clone(),
                        });
                    }
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
        let records = run_workload(&mut w, &gids, None);
        assert_eq!(records.len(), 6);
        assert!(records.iter().enumerate().all(|(i, r)| if i == 2 {
            r.fate == Fate::Aborted
        } else {
            r.fate == Fate::Committed
        }));
        assert!(check_world(&mut w, &gids, &records).is_empty());
        let writes: u64 = gids
            .iter()
            .map(|g| w.fault_plan(*g).unwrap().op_counts().writes)
            .sum();
        assert!(writes > 0, "the workload must hit the device");
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
