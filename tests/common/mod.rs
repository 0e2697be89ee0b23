//! Shared test support: every scenario and housekeeping test ends by
//! holding its world to the standing check — every guardian up, I1–I10 on
//! each log, I11 on each heap, I12 on the trace — so a regression that
//! leaves a structurally broken log, a leaked lock, or an inconsistent
//! trace fails loudly even when the test's own assertions still pass.

// Each integration-test binary uses a subset of these helpers.
#![allow(dead_code)]

use argus::check::sweep::{sweep, SweepConfig};
use argus::check::{lint_log, lint_log_against, standing, Ledger, LogImage, Phase};
use argus::core::{LogEntry, RecoveryOutcome};
use argus::guardian::{RsKind, World};
use argus::slog::LogAddress;

/// Lints dumped log entries; panics with the violation report if any
/// invariant is broken.
#[track_caller]
pub fn lint_entries(entries: Vec<(LogAddress, LogEntry)>) {
    lint_log(&LogImage::from_entries(entries)).assert_clean();
}

/// Lints dumped log entries against the tables an actual recovery produced
/// (adds the I10 agreement check).
#[track_caller]
pub fn lint_entries_against(entries: Vec<(LogAddress, LogEntry)>, out: &RecoveryOutcome) {
    lint_log_against(&LogImage::from_entries(entries), out).assert_clean();
}

/// Runs a bounded, deterministic slice of the crash-schedule sweeper for
/// one organization: the first few crash points of every victim, across all
/// of that organization's housekeeping/cache/media cells. Scenario figure
/// tests call this so the organization they exercise is also swept — with
/// crashes at arbitrary write indices, not just the figure's chosen one —
/// on every test run. The full matrix lives in `argus-lint sweep`.
#[track_caller]
pub fn bounded_sweep(kind: RsKind) {
    for mut cfg in SweepConfig::matrix(false, 1) {
        if cfg.kind != kind {
            continue;
        }
        cfg.max_points_per_victim = Some(3);
        sweep(&cfg).assert_clean();
    }
}

/// Holds `world` to the standing check with an empty ledger: a down
/// guardian, a log that breaks I1–I10, a lock or buffered current version
/// still owned by a finished action (I11), an inconsistent trace (I12), or
/// a two-phase-commit party left waiting is a failure the scenario's own
/// assertions would never notice.
#[track_caller]
pub fn lint_world(world: &mut World) {
    let problems = standing(world, &Ledger::default(), Phase::Terminal);
    assert!(
        problems.is_empty(),
        "standing check failed:\n  {}",
        problems.join("\n  ")
    );
}

/// The sharded blocking mix and a banking workload sharing one world, run
/// in rounds with a crash, a housekeeping pass or nothing between them —
/// the traffic the retention tests hold the world's memory to. Only the
/// bank's guardians crash: the sharded mix keeps its objects' heap handles,
/// which a restart renumbers.
pub struct MixedRounds {
    pub kind: RsKind,
    pub sharded: argus::workload::Sharded,
    pub bank: argus::workload::Banking,
    pub rng: argus::sim::DetRng,
    /// Sharded actions committed so far.
    pub committed: u64,
    /// Reservations among them: the seats the flights must be short of.
    pub reservations: u64,
    /// Banking transfers attempted so far.
    pub transfers: u64,
}

impl MixedRounds {
    /// Deploys `shards` shards running `actions` actions a round on
    /// `concurrency` slots, and a three-branch bank, on `kind`; every log
    /// is kept bounded by a housekeeping policy.
    pub fn setup(
        world: &mut World,
        kind: RsKind,
        seed: u64,
        (shards, concurrency, actions): (usize, usize, u64),
    ) -> Self {
        use argus::workload::{Banking, BankingConfig, Sharded, ShardedConfig};
        let cfg = ShardedConfig {
            shards,
            users: 64 * shards,
            concurrency,
            actions,
            ..Default::default()
        };
        let sharded = Sharded::setup(world, kind, cfg).unwrap();
        let bank = BankingConfig {
            guardians: 3,
            accounts_per_guardian: 8,
            cross_prob: 0.7,
            ..Default::default()
        };
        let bank = Banking::setup(world, kind, bank).unwrap();
        let mode = kind.housekeeping_modes()[0];
        for g in world.guardian_ids() {
            world.set_housekeeping_policy(g, 400, mode).unwrap();
        }
        Self {
            kind,
            sharded,
            bank,
            rng: argus::sim::DetRng::new(seed),
            committed: 0,
            reservations: 0,
            transfers: 0,
        }
    }

    /// One round: the sharded mix's actions, `transfers` banking transfers
    /// in overlapping waves of four, then a seeded disturbance.
    pub fn round(&mut self, world: &mut World, transfers: u64) {
        let stats = self.sharded.run(world, &mut self.rng).unwrap();
        self.committed += stats.committed;
        self.reservations += stats.reservations;
        let bank = &self.bank;
        bank.run_overlapped(world, &mut self.rng, transfers, 4)
            .unwrap();
        self.transfers += transfers;
        let pick = |rng: &mut argus::sim::DetRng, gids: &[argus::objects::GuardianId]| {
            gids[rng.gen_range(gids.len() as u64) as usize]
        };
        match self.rng.gen_range(4) {
            0 => {
                let g = pick(&mut self.rng, self.bank.guardians());
                world.crash(g);
                self.restart(world, g);
            }
            1 => {
                let g = pick(&mut self.rng, &world.guardian_ids());
                let modes = self.kind.housekeeping_modes();
                let mode = modes[self.rng.gen_range(modes.len() as u64) as usize];
                world.housekeep(g, mode).unwrap();
            }
            _ => {}
        }
    }

    /// Restarts `g`. Its clients took their verdicts before the crash, so
    /// the world books none again: a crash at a quiet moment leaves nothing
    /// but what recovery resumed, and that finishes on its own.
    pub fn restart(&mut self, world: &mut World, g: argus::objects::GuardianId) {
        let recovered = world.restart(g).unwrap();
        let resumed = recovered.ct.committing_actions();
        let in_doubt = resumed.len() + recovered.pt.prepared_actions().len();
        assert!(world.retained_actions() <= in_doubt, "{:?}", self.kind);
    }

    /// The money and seat oracles.
    #[track_caller]
    pub fn audit(&self, world: &World) {
        let (sharded, bank) = (&self.sharded, &self.bank);
        let kind = self.kind;
        assert_eq!(
            sharded.total_balance(world).unwrap(),
            sharded.expected_total(),
            "{kind:?}: sharded money"
        );
        let taken = argus::workload::ShardedStats {
            reservations: self.reservations,
            ..Default::default()
        };
        assert_eq!(
            sharded.total_seats(world).unwrap(),
            sharded.expected_seats(&taken),
            "{kind:?}: seats"
        );
        assert_eq!(
            bank.total_balance(world).unwrap(),
            bank.expected_total(),
            "{kind:?}: bank money"
        );
    }
}
