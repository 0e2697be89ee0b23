//! The VOPR: a seeded randomized fault-composition explorer.
//!
//! The sweeper in [`crate::sweep`] exhausts crash schedules over a perfect
//! FIFO network; this module attacks from the other side, in the style of
//! the TigerBeetle/kimberlite "viewstamped operation replicator" simulators:
//! one `u64` seed drives a weighted random walk that *composes* every fault
//! the simulated world knows — message drop, duplication, and reorder/delay
//! (the [`argus_guardian::NetFaults`] injector), network partitions with
//! scheduled heals, guardian pauses (the node sleeps while the shared clock
//! runs on — clock skew), media decay on mirrored stores, and crashes with
//! recovery, both explicit and armed to fire mid-protocol — against a
//! multi-guardian two-phase-commit workload.
//!
//! At every quiesce point (every [`VoprConfig::check_every`] steps, the
//! world is driven to quiescence) the world is held to [`crate::standing`]
//! at [`Phase::MidRun`]: I12 on the trace, I1–I10 and I11 on every up
//! guardian, and aborted invisibility — the one oracle clause that is sound
//! while a partition may still hold the very Commit message a participant
//! needs. The terminal phase lifts every fault — heals partitions, resumes
//! pauses, disarms plans, restarts the down — drains to quiescence,
//! re-queries in-doubt participants, and then holds the final state to
//! [`Phase::Terminal`]: every guardian up and the full oracle (committed ⇒
//! durable everywhere, in-doubt ⇒ either but atomic). That final settle is
//! exactly the §2.2 liveness assumption ("eventually any two nodes can
//! communicate"), so 2PC termination stays assertable under arbitrary
//! fault composition.
//!
//! **Replay contract**: everything is driven by one [`DetRng`] seeded from
//! [`VoprConfig::seed`]; the same seed reproduces the same fault schedule,
//! the same invariant results, and a byte-identical summary line. On any
//! violation the full schedule is dumped through the
//! [`argus_trace::flight`] recorder (schedule text + Chrome trace), and
//! `argus-lint vopr --seed N --iterations M` replays it exactly.

use crate::ledger::dump_flight;
use crate::{standing, Fate, Ledger, Phase};
use argus_core::LogEntry;
use argus_guardian::{MediaKind, NetFaults, RsKind, World, WorldConfig};
use argus_objects::{GuardianId, Value};
use argus_obs::{Count, Registry};
use argus_sim::{CostModel, DetRng};
use argus_slog::LogAddress;

/// One explorer run's shape: the seed pins everything else down.
#[derive(Debug, Clone, Copy)]
pub struct VoprConfig {
    /// The seed: same seed, same run, byte for byte.
    pub seed: u64,
    /// Explorer steps (the `--iterations` of the CLI).
    pub steps: u64,
    /// The recovery organization under test.
    pub kind: RsKind,
    /// Guardians in the world (at least 2).
    pub guardians: u32,
    /// Quiesce-and-check cadence in steps.
    pub check_every: u64,
    /// Self-test hook: inject one deliberately-false committed expectation
    /// into the oracle, so the run *must* find a violation — proving the
    /// detection, replay, and flight-dump path end to end.
    pub break_oracle: bool,
}

impl VoprConfig {
    /// The default shape: 3 hybrid guardians, checks every 8 steps.
    pub fn new(seed: u64, steps: u64) -> Self {
        Self {
            seed,
            steps,
            kind: RsKind::Hybrid,
            guardians: 3,
            check_every: 8,
            break_oracle: false,
        }
    }
}

/// Per-kind injected-fault counts for one run (or a batch, via
/// [`FaultTally::absorb`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Messages lost by the injector.
    pub drops: u64,
    /// Duplicate deliveries.
    pub duplicates: u64,
    /// Deferrals (reorderings).
    pub defers: u64,
    /// Partitions opened.
    pub partitions: u64,
    /// Partitions healed (scheduled or early).
    pub heals: u64,
    /// Guardian pauses.
    pub pauses: u64,
    /// Clock-skew advances.
    pub skews: u64,
    /// Mirror pages decayed.
    pub decays: u64,
    /// Crashes (explicit and armed-that-fired).
    pub crashes: u64,
    /// Restarts driven.
    pub restarts: u64,
}

impl FaultTally {
    /// Adds another tally into this one (batch aggregation).
    pub fn absorb(&mut self, o: &FaultTally) {
        self.drops += o.drops;
        self.duplicates += o.duplicates;
        self.defers += o.defers;
        self.partitions += o.partitions;
        self.heals += o.heals;
        self.pauses += o.pauses;
        self.skews += o.skews;
        self.decays += o.decays;
        self.crashes += o.crashes;
        self.restarts += o.restarts;
    }

    /// Total faults injected, all kinds.
    pub fn total(&self) -> u64 {
        self.drops
            + self.duplicates
            + self.defers
            + self.partitions
            + self.heals
            + self.pauses
            + self.skews
            + self.decays
            + self.crashes
            + self.restarts
    }

    /// Whether every fault kind fired at least once — the smoke batch's
    /// composition proof.
    pub fn all_kinds_fired(&self) -> bool {
        self.drops > 0
            && self.duplicates > 0
            && self.defers > 0
            && self.partitions > 0
            && self.heals > 0
            && self.pauses > 0
            && self.skews > 0
            && self.decays > 0
            && self.crashes > 0
            && self.restarts > 0
    }
}

impl std::fmt::Display for FaultTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drop={} dup={} defer={} part={} heal={} pause={} skew={} decay={} crash={} restart={}",
            self.drops,
            self.duplicates,
            self.defers,
            self.partitions,
            self.heals,
            self.pauses,
            self.skews,
            self.decays,
            self.crashes,
            self.restarts,
        )
    }
}

/// One run's deterministic result. [`VoprSummary::line`] is the replay
/// artifact: byte-identical across runs of the same seed.
#[derive(Debug, Clone)]
pub struct VoprSummary {
    /// The seed that reproduces this run.
    pub seed: u64,
    /// Steps executed.
    pub steps: u64,
    /// Workload actions driven to a fate.
    pub actions: u64,
    /// Actions whose commit was acknowledged.
    pub committed: u64,
    /// Actions aborted (client aborts, conflicts, give-ups).
    pub aborted: u64,
    /// Actions left in doubt by a fault mid-protocol.
    pub in_doubt: u64,
    /// Quiesce-point invariant checks run (mid-run + terminal) — the
    /// "states explored" of experiment E17.
    pub checks: u64,
    /// Faults injected, by kind.
    pub faults: FaultTally,
    /// Simulated time consumed, in microseconds.
    pub sim_us: u64,
    /// Every invariant or oracle violation found, in discovery order.
    pub violations: Vec<String>,
    /// Flight-recorder dump paths (schedule text, then Chrome trace) when
    /// the run found violations. Excluded from [`VoprSummary::line`]: the
    /// recorder never overwrites, so paths vary across replays.
    pub flight: Vec<String>,
    /// Every guardian's decoded log as the run left it (`None`: down, or an
    /// organization that keeps no log) — with the trace, what a replay
    /// must reproduce to the byte.
    pub final_logs: Vec<Option<Vec<(LogAddress, LogEntry)>>>,
}

impl VoprSummary {
    /// Whether the run found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line deterministic summary: the byte-for-byte replay
    /// artifact for a seed.
    pub fn line(&self) -> String {
        format!(
            "seed {}: {} steps, {} actions ({}c/{}a/{}d), {} checks, faults[{}], sim {}us: {}",
            self.seed,
            self.steps,
            self.actions,
            self.committed,
            self.aborted,
            self.in_doubt,
            self.checks,
            self.faults,
            self.sim_us,
            if self.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }

    /// Panics with every violation (and the flight dump paths) when the
    /// run is not clean.
    #[track_caller]
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let mut msg = format!("{}\n", self.line());
            for v in &self.violations {
                msg.push_str(&format!("  {v}\n"));
            }
            for p in &self.flight {
                msg.push_str(&format!("  flight: {p}\n"));
            }
            panic!("{msg}");
        }
    }
}

impl std::fmt::Display for VoprSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.line())?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Mutable book-keeping for one run, separate from the [`World`] so helper
/// methods can borrow both halves.
struct Run {
    rng: DetRng,
    gids: Vec<GuardianId>,
    ledger: Ledger,
    schedule: Vec<String>,
    violations: Vec<String>,
    tally: FaultTally,
    /// Active partitions: guardian indices and the step that heals them.
    partitions: Vec<(usize, usize, u64)>,
    /// Paused guardians: index and the step that resumes them.
    paused: Vec<(usize, u64)>,
    /// Down guardians: index and the step that restarts them.
    down: Vec<(usize, u64)>,
    checks: u64,
    obs: Registry,
}

impl Run {
    fn new(rng: DetRng, gids: Vec<GuardianId>, header: String, obs: Registry) -> Self {
        Run {
            rng,
            gids,
            ledger: Ledger::default(),
            schedule: vec![header],
            violations: Vec::new(),
            tally: FaultTally::default(),
            partitions: Vec::new(),
            paused: Vec::new(),
            down: Vec::new(),
            checks: 0,
            obs,
        }
    }

    fn up_indices(&self, w: &World) -> Vec<usize> {
        (0..self.gids.len())
            .filter(|i| w.is_up(self.gids[*i]))
            .collect()
    }

    fn is_scheduled_down(&self, i: usize) -> bool {
        self.down.iter().any(|(d, _)| *d == i)
    }

    fn is_paused(&self, i: usize) -> bool {
        self.paused.iter().any(|(p, _)| *p == i)
    }

    /// Applies every heal/resume/restart whose step has come, and converts
    /// armed crashes that fired since the last step into scheduled
    /// restarts.
    fn tick_timers(&mut self, w: &mut World, step: u64) {
        let mut i = 0;
        while i < self.partitions.len() {
            if self.partitions[i].2 <= step {
                let (a, b, _) = self.partitions.remove(i);
                w.heal_partition(self.gids[a], self.gids[b]);
                self.tally.heals += 1;
                self.obs.inc(Count::VoprFaultHeal);
                self.schedule.push(format!("step {step}: heal G{a}-G{b}"));
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.paused.len() {
            if self.paused[i].1 <= step {
                let (p, _) = self.paused.remove(i);
                w.resume_guardian(self.gids[p]);
                // The pause *is* the skew: the node slept while the shared
                // clock ran. Make the gap explicit on resume.
                let skew = 500 + self.rng.gen_range(5_000);
                w.clock.advance(skew);
                self.tally.skews += 1;
                self.obs.inc(Count::VoprFaultSkew);
                self.schedule
                    .push(format!("step {step}: resume G{p} (skew {skew}us)"));
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.down.len() {
            if self.down[i].1 <= step {
                let (d, _) = self.down.remove(i);
                self.restart(w, d, step);
            } else {
                i += 1;
            }
        }
        // An armed plan may have fired inside a workload op or housekeeping
        // pass: the node is discovered down without an explicit crash call.
        for i in 0..self.gids.len() {
            let g = self.gids[i];
            if !w.is_up(g) && !self.is_scheduled_down(i) {
                w.crash(g); // normalize: volatile state is gone, mail drops
                let at = step + 1 + self.rng.gen_range(6);
                self.down.push((i, at));
                self.tally.crashes += 1;
                self.obs.inc(Count::VoprFaultCrash);
                self.schedule.push(format!(
                    "step {step}: armed crash fired at G{i}, restart@{at}"
                ));
            }
        }
    }

    fn restart(&mut self, w: &mut World, i: usize, step: u64) {
        let g = self.gids[i];
        if w.is_up(g) {
            return;
        }
        self.tally.restarts += 1;
        self.obs.inc(Count::VoprFaultRestart);
        match w.restart(g) {
            Ok(_) => self.schedule.push(format!("step {step}: restart G{i}")),
            // A restart writes — the log opens its next epoch before it
            // takes an append — so a write countdown armed while the node
            // was up can fire here. The node is down again; the next step
            // finds it so and schedules another restart.
            Err(_) if w.fault_plan(g).is_ok_and(|plan| plan.is_crashed()) => self.schedule.push(
                format!("step {step}: restart G{i} crashed in the log's open"),
            ),
            Err(e) => {
                self.violations
                    .push(format!("step {step}: restart G{i} failed: {e}"));
            }
        }
    }

    /// One randomized workload action: a 1–3 guardian write set under a
    /// fresh variable, committed by 2PC (or aborted by the client / a
    /// failed write), with the observed fate recorded for the oracle.
    fn action(&mut self, w: &mut World, step: u64) {
        let ups = self.up_indices(w);
        if ups.is_empty() {
            self.schedule
                .push(format!("step {step}: action skipped (all down)"));
            return;
        }
        let origin = self.gids[ups[self.rng.gen_range(ups.len() as u64) as usize]];
        let span = self.gids.len().min(3) as u64;
        let n_targets = 1 + self.rng.gen_range(span) as usize;
        let mut idxs: Vec<usize> = (0..self.gids.len()).collect();
        self.rng.shuffle(&mut idxs);
        // Targets may include down guardians: the failed write exercises
        // the client's give-up-and-abort path.
        let targets: Vec<usize> = idxs.into_iter().take(n_targets).collect();
        let client_abort = self.rng.gen_bool(0.08);

        let idx = self.ledger.actions.len();
        let var = format!("v{idx}");
        let val = idx as i64 + 1;
        let Ok(aid) = w.begin(origin) else {
            self.schedule
                .push(format!("step {step}: begin failed (origin crashed)"));
            return;
        };
        let mut writes = Vec::new();
        let mut all_written = true;
        for &t in &targets {
            let g = self.gids[t];
            writes.push((g, var.clone(), val));
            if w.set_stable(g, aid, &var, Value::Int(val)).is_err() {
                all_written = false;
                break;
            }
        }
        let fate = if client_abort || !all_written {
            w.abort_local(aid);
            Fate::Aborted
        } else {
            Fate::of(w.commit(aid))
        };
        self.obs.inc(Count::VoprActions);
        self.schedule.push(format!(
            "step {step}: action {var} at {targets:?} -> {fate:?}"
        ));
        self.ledger.record(writes, fate);
    }

    /// One randomized fault op, weighted toward the cheap network shapes.
    fn fault(&mut self, w: &mut World, step: u64, roll: u64) {
        let n = self.gids.len();
        match roll {
            // Partition a random up pair, heal scheduled a few steps out.
            0..=19 => {
                if n < 2 {
                    return;
                }
                let a = self.rng.gen_range(n as u64) as usize;
                let mut b = self.rng.gen_range(n as u64 - 1) as usize;
                if b >= a {
                    b += 1;
                }
                let (a, b) = (a.min(b), a.max(b));
                if self.partitions.iter().any(|(x, y, _)| (*x, *y) == (a, b)) {
                    return;
                }
                let heal_at = step + 1 + self.rng.gen_range(12);
                w.partition(self.gids[a], self.gids[b]);
                self.partitions.push((a, b, heal_at));
                self.tally.partitions += 1;
                self.obs.inc(Count::VoprFaultPartition);
                self.schedule
                    .push(format!("step {step}: partition G{a}-G{b}, heal@{heal_at}"));
            }
            // Heal the oldest partition early.
            20..=29 => {
                if self.partitions.is_empty() {
                    return;
                }
                let (a, b, _) = self.partitions.remove(0);
                w.heal_partition(self.gids[a], self.gids[b]);
                self.tally.heals += 1;
                self.obs.inc(Count::VoprFaultHeal);
                self.schedule
                    .push(format!("step {step}: early heal G{a}-G{b}"));
            }
            // Pause an up, unpaused guardian for a few steps.
            30..=44 => {
                let ups: Vec<usize> = self
                    .up_indices(w)
                    .into_iter()
                    .filter(|i| !self.is_paused(*i))
                    .collect();
                if ups.is_empty() {
                    return;
                }
                let p = ups[self.rng.gen_range(ups.len() as u64) as usize];
                let resume_at = step + 1 + self.rng.gen_range(6);
                w.pause_guardian(self.gids[p]);
                self.paused.push((p, resume_at));
                self.tally.pauses += 1;
                self.obs.inc(Count::VoprFaultPause);
                self.schedule
                    .push(format!("step {step}: pause G{p}, resume@{resume_at}"));
            }
            // Pure clock skew: time passes with no matching work.
            45..=54 => {
                let skew = 1 + self.rng.gen_range(2_000);
                w.clock.advance(skew);
                self.tally.skews += 1;
                self.obs.inc(Count::VoprFaultSkew);
                self.schedule.push(format!("step {step}: skew {skew}us"));
            }
            // Decay one mirror leg of a random page on a random guardian.
            55..=69 => {
                let i = self.rng.gen_range(n as u64) as usize;
                let pno = self.rng.gen_range(48);
                let decayed = w.decay_page(self.gids[i], pno).unwrap_or(false);
                if decayed {
                    self.tally.decays += 1;
                    self.obs.inc(Count::VoprFaultDecay);
                    self.schedule
                        .push(format!("step {step}: decay G{i} page {pno}"));
                }
            }
            // Explicit crash (never the last guardian standing).
            70..=81 => {
                let ups = self.up_indices(w);
                if ups.len() < 2 {
                    return;
                }
                let c = ups[self.rng.gen_range(ups.len() as u64) as usize];
                w.crash(self.gids[c]);
                let at = step + 1 + self.rng.gen_range(8);
                self.down.push((c, at));
                self.tally.crashes += 1;
                self.obs.inc(Count::VoprFaultCrash);
                self.schedule
                    .push(format!("step {step}: crash G{c}, restart@{at}"));
            }
            // Arm a crash to fire mid-protocol, at a future device write.
            82..=89 => {
                let ups = self.up_indices(w);
                if ups.len() < 2 {
                    return;
                }
                let c = ups[self.rng.gen_range(ups.len() as u64) as usize];
                let after = self.rng.gen_range(24);
                if w.arm_crash_after_writes(self.gids[c], after).is_ok() {
                    self.schedule
                        .push(format!("step {step}: arm crash G{c} after {after} writes"));
                }
            }
            // Early restart of a scheduled-down guardian.
            _ => {
                if self.down.is_empty() {
                    return;
                }
                let (d, _) = self.down.remove(0);
                self.restart(w, d, step);
            }
        }
    }

    /// Drives the world to quiescence and holds it to [`standing`] at
    /// `phase`.
    fn quiesce_and_check(&mut self, w: &mut World, step: u64, phase: Phase) {
        if let Err(e) = w.run_until_quiet() {
            self.violations
                .push(format!("step {step}: quiesce failed: {e}"));
            return;
        }
        if let Err(e) = w.requery_in_doubt() {
            self.violations
                .push(format!("step {step}: requery failed: {e}"));
            return;
        }
        // A requery or drain can trip an armed plan; normalize before
        // linting so down guardians are skipped, not half-read.
        self.tick_timers(w, step);
        self.checks += 1;
        self.obs.inc(Count::VoprChecks);
        let found = standing(w, &self.ledger, phase);
        if !found.is_empty() {
            self.schedule.push(format!(
                "step {step}: CHECK FAILED ({} new violations)",
                found.len()
            ));
            let found = found.into_iter().map(|v| format!("step {step}: {v}"));
            self.violations.extend(found);
        }
    }
}

/// Runs one seeded explorer run end to end. See the module docs for the
/// schedule structure and the replay contract.
pub fn vopr(cfg: &VoprConfig) -> VoprSummary {
    let obs = argus_obs::current();
    let mut rng = DetRng::new(cfg.seed);
    let n = cfg.guardians.max(2) as usize;
    let mut w = World::with_config(
        CostModel::fast(),
        WorldConfig {
            media: MediaKind::Mirrored, // so decay has a leg to take
            ..WorldConfig::default()
        },
    );
    let gids: Vec<GuardianId> = (0..n)
        .map(|_| w.add_guardian(cfg.kind).expect("add guardian"))
        .collect();
    // Housekeeping armed low, so log truncation runs *during* the faults.
    // The mode goes by seed parity, not the RNG, so a one-mode
    // organization's stream is what it was and every mode faces some seeds.
    let modes = cfg.kind.housekeeping_modes();
    let hk_mode = modes[(cfg.seed % modes.len() as u64) as usize];
    for g in &gids {
        w.set_housekeeping_policy(*g, 24, hk_mode).expect("policy");
    }
    // The fault mix itself is seeded: different seeds explore different
    // drop/duplicate/defer densities, not just different event orders.
    let drop_p = rng.gen_f64() * 0.10;
    let dup_p = rng.gen_f64() * 0.20;
    let defer_p = rng.gen_f64() * 0.30;
    let net_seed = rng.next_u64();
    w.set_network_faults(Some(
        NetFaults::new(net_seed, dup_p, defer_p).with_drop(drop_p),
    ));

    let header = format!(
        "vopr seed={} steps={} kind={:?} guardians={n} drop={drop_p:.3} dup={dup_p:.3} \
         defer={defer_p:.3}",
        cfg.seed, cfg.steps, cfg.kind
    );
    let mut run = Run::new(rng, gids, header, obs);

    for step in 0..cfg.steps {
        run.obs.inc(Count::VoprSteps);
        run.tick_timers(&mut w, step);
        let roll = run.rng.gen_range(100);
        if roll < 55 {
            run.action(&mut w, step);
        } else {
            let fault_roll = run.rng.gen_range(100);
            run.fault(&mut w, step, fault_roll);
        }
        if cfg.check_every > 0 && (step + 1) % cfg.check_every == 0 {
            run.quiesce_and_check(&mut w, step, Phase::MidRun);
        }
    }

    // Terminal settle: lift every fault — the §2.2 "eventually any two
    // nodes can communicate" — and hold the survivors to the full oracle.
    run.schedule
        .push("terminal: lift faults, restart the down, drain".to_owned());
    w.set_network_faults(None);
    w.heal_all_partitions();
    run.partitions.clear();
    for (p, _) in std::mem::take(&mut run.paused) {
        w.resume_guardian(run.gids[p]);
    }
    for g in &run.gids {
        if let Ok(plan) = w.fault_plan(*g) {
            plan.disarm();
        }
    }
    let final_step = cfg.steps;
    for _ in 0..3 {
        let still: Vec<usize> = (0..run.gids.len())
            .filter(|i| !w.is_up(run.gids[*i]))
            .collect();
        if still.is_empty() {
            break;
        }
        for i in still {
            w.crash(run.gids[i]); // normalize armed-fired volatile state
            run.restart(&mut w, i, final_step);
        }
    }
    run.down.clear();
    if cfg.break_oracle {
        // The self-test: an expectation no run can satisfy. The explorer
        // must notice, replay identically, and dump the schedule.
        run.schedule
            .push("selftest: inject false committed expectation".to_owned());
        let never = vec![(run.gids[0], "vopr-selftest-never-written".to_owned(), 42)];
        run.ledger.record(never, Fate::Committed);
    }
    run.quiesce_and_check(&mut w, final_step, Phase::Terminal);
    // A second settle pass: the first requery can itself resolve fates
    // that release new mail.
    if run.violations.is_empty() {
        run.quiesce_and_check(&mut w, final_step, Phase::Terminal);
    }

    // The network's own fault tallies are authoritative for the injector
    // kinds; fold them into the per-kind counters.
    let net = w.network();
    run.tally.drops = net.fault_dropped();
    run.tally.duplicates = net.duplicated();
    run.tally.defers = net.deferred();
    run.obs.add(Count::VoprFaultDrop, run.tally.drops);
    run.obs.add(Count::VoprFaultDuplicate, run.tally.duplicates);
    run.obs.add(Count::VoprFaultDefer, run.tally.defers);

    run.obs
        .add(Count::VoprViolations, run.violations.len() as u64);
    let label = format!("vopr-seed{}", cfg.seed);
    let flight = dump_flight(&label, run.schedule, &run.violations, &run.ledger, &mut w);

    let sim_us = w.clock.now();
    let final_logs = run
        .gids
        .iter()
        .map(|g| w.dump_log(*g).ok().flatten())
        .collect();
    VoprSummary {
        seed: cfg.seed,
        steps: cfg.steps,
        actions: run.ledger.actions.len() as u64 - u64::from(cfg.break_oracle),
        committed: run.ledger.count(Fate::Committed),
        aborted: run.ledger.count(Fate::Aborted),
        in_doubt: run.ledger.count(Fate::InDoubt),
        checks: run.checks,
        faults: run.tally,
        sim_us,
        violations: run.violations,
        flight,
        final_logs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_run_is_clean_and_does_work() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let s = vopr(&VoprConfig::new(1, 64));
        s.assert_clean();
        assert!(s.actions > 0, "{}", s.line());
        assert!(s.checks > 0, "{}", s.line());
    }

    #[test]
    fn same_seed_same_summary() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let a = vopr(&VoprConfig::new(42, 48));
        let b = vopr(&VoprConfig::new(42, 48));
        assert_eq!(a.line(), b.line());
        assert_eq!(a.violations, b.violations);
    }

    /// An armed countdown that fires inside the checker's own log dump is
    /// the node going down, not a violation: the check stays clean, skips
    /// that guardian's lint, and the next step schedules its restart.
    #[test]
    fn a_crash_inside_the_inspection_is_a_crash_not_a_violation() {
        for kind in [RsKind::Simple, RsKind::Hybrid, RsKind::Redo] {
            let reg = argus_obs::Registry::new();
            let _scope = reg.enter();
            // Uncached, and a log longer than the tail the log keeps in
            // memory, so the dump reads the device.
            let mut w = World::with_config(CostModel::fast(), WorldConfig::unbatched());
            let gids: Vec<GuardianId> = (0..2).map(|_| w.add_guardian(kind).unwrap()).collect();
            let mut run = Run::new(DetRng::new(1), gids, String::new(), argus_obs::current());
            for step in 0..8 {
                run.action(&mut w, step);
            }
            // Nothing between here and the dump touches G0's device.
            w.arm_crash_after_ops(run.gids[0], 0).unwrap();
            run.quiesce_and_check(&mut w, 8, Phase::MidRun);
            assert_eq!(run.violations, Vec::<String>::new(), "{kind:?}");
            assert!(!w.is_up(run.gids[0]), "{kind:?}: the countdown fired");
            run.tick_timers(&mut w, 9);
            let (_, restart_at) = run.down[0];
            run.tick_timers(&mut w, restart_at);
            assert!(w.is_up(run.gids[0]), "{kind:?}: restarted on schedule");
            run.quiesce_and_check(&mut w, restart_at, Phase::Terminal);
            assert_eq!(run.violations, Vec::<String>::new(), "{kind:?}");
        }
    }

    #[test]
    fn broken_oracle_is_caught_and_replays() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let dir = std::env::temp_dir().join("argus-vopr-selftest-unit");
        std::env::set_var("ARGUS_FLIGHT_DIR", &dir);
        let mut cfg = VoprConfig::new(5, 24);
        cfg.break_oracle = true;
        let a = vopr(&cfg);
        let b = vopr(&cfg);
        std::env::remove_var("ARGUS_FLIGHT_DIR");
        assert!(!a.is_clean(), "the self-test must find the planted bug");
        assert_eq!(a.violations, b.violations, "violations must replay");
        assert!(!a.flight.is_empty(), "a violation must dump its schedule");
        for p in a.flight.iter().chain(&b.flight) {
            assert!(std::path::Path::new(p).exists(), "missing dump {p}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
