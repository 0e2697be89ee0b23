//! The sharded many-guardian mix: a partitioned object space across tens to
//! hundreds of guardians, driven by a zipfian population of simulated users.
//!
//! Each guardian is one *shard* holding a slice of the bank — a few hot
//! accounts plus one flight with a seat counter (account 0 doubles as the
//! airline's revenue account). Every simulated user has a *home shard*
//! computed by O(1) modular routing (`user % shards`); an action begins —
//! and is therefore coordinated — at its user's home guardian, so with a
//! zipfian user population the two-phase-commit coordinator load spreads
//! across every shard instead of piling onto one.
//!
//! Two action kinds, mixed by `RESERVATION_PROB`:
//!
//! * **transfer** — debit a zipf-chosen account at the home shard, credit an
//!   account at a target shard (`CROSS_SHARD_PROB` picks a *different*
//!   shard, driving distributed two-phase commit);
//! * **reservation** — debit the user's home account, credit the flight
//!   shard's revenue account, and take one seat from that flight — the
//!   three-write airline booking of the thesis's motivating domains.
//!
//! Both conserve the total balance, and committed reservations account
//! exactly for the seats taken — the run-wide oracles
//! ([`Sharded::total_balance`], [`Sharded::total_seats`]).
//!
//! The driver is the deterministic slot scheduler ([`crate::slots`]) over a
//! global action budget: `concurrency` slots each perform one transition
//! per round (begin, one lock-acquiring submit, or commit), retries keep
//! their user and plan, and everything draws from one [`DetRng`] — a seed
//! pins the whole run.

use crate::slots::{self, Write};
use argus_guardian::{Outcome, RsKind, World, WorldResult};
use argus_objects::{ActionId, GuardianId, HeapId, Value};
use argus_sim::{DetRng, Zipf};
use std::collections::BTreeSet;

/// Zipf skew over the user population.
const USER_THETA: f64 = 0.9;
/// Zipf skew over each shard's accounts.
const ACCOUNT_THETA: f64 = 0.6;
/// Probability an action's target shard differs from its home shard
/// (cross-shard two-phase commit).
const CROSS_SHARD_PROB: f64 = 0.4;
/// Probability an action is an airline reservation instead of a transfer.
const RESERVATION_PROB: f64 = 0.3;
/// Initial balance per account.
const INITIAL: i64 = 1_000;

/// Parameters for the sharded mix.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Shards — one guardian each.
    pub shards: usize,
    /// Hot accounts per shard (account 0 is also the shard's revenue
    /// account; must be at least 2).
    pub accounts_per_shard: usize,
    /// Simulated users; each routes to home shard `user % shards`.
    pub users: usize,
    /// Concurrent action slots.
    pub concurrency: usize,
    /// Total actions the run commits.
    pub actions: u64,
    /// Initial seats per shard's flight.
    pub seats_per_shard: i64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            accounts_per_shard: 4,
            users: 1_000,
            concurrency: 16,
            actions: 128,
            seats_per_shard: 1_000_000,
        }
    }
}

/// Counters and traces reported by a run. `PartialEq` so determinism tests
/// can compare whole runs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// Actions committed (= [`ShardedConfig::actions`]).
    pub committed: u64,
    /// Committed actions that touched more than one shard.
    pub cross_shard: u64,
    /// Committed reservations (each took one seat).
    pub reservations: u64,
    /// Aborted attempts that were retried, by any cause.
    pub retries: u64,
    /// Retries caused by a conflict-abort refusal.
    pub conflicts: u64,
    /// Retries caused by being picked as a deadlock victim.
    pub deadlock_victims: u64,
    /// Retries caused by a lock-wait timeout.
    pub timeouts: u64,
    /// Committed actions per coordinator shard — the evidence that 2PC
    /// coordination spreads instead of piling onto one guardian.
    pub per_shard_commits: Vec<u64>,
    /// Every action id that was aborted and retried.
    pub aborted: BTreeSet<ActionId>,
    /// Action ids in commit order — the observable schedule.
    pub commit_order: Vec<ActionId>,
}

impl ShardedStats {
    /// Abort rate: retried attempts over all attempts.
    pub fn abort_rate(&self) -> f64 {
        slots::abort_rate(self.committed, self.retries)
    }

    /// Shards that coordinated at least one commit.
    pub fn coordinating_shards(&self) -> usize {
        self.per_shard_commits.iter().filter(|&&n| n > 0).count()
    }

    /// Peak-to-mean ratio of per-shard coordinator load (1.0 = perfectly
    /// even; 0.0 when nothing committed).
    pub fn coordinator_skew(&self) -> f64 {
        let max = self.per_shard_commits.iter().copied().max().unwrap_or(0);
        if self.committed == 0 || self.per_shard_commits.is_empty() {
            return 0.0;
        }
        let mean = self.committed as f64 / self.per_shard_commits.len() as f64;
        max as f64 / mean
    }
}

/// The immutable plan of one logical action, kept across retries so the
/// same contended objects are re-fought.
struct Plan {
    /// The home shard, and its guardian.
    home: (usize, GuardianId),
    writes: Vec<Write>,
    cross: bool,
    reservation: bool,
}

impl slots::Plan for Plan {
    fn home(&self) -> GuardianId {
        self.home.1
    }

    fn writes(&self) -> &[Write] {
        &self.writes
    }
}

/// A deployed sharded mix.
#[derive(Debug)]
pub struct Sharded {
    cfg: ShardedConfig,
    gids: Vec<GuardianId>,
    /// `accounts[shard][i]` — the shard's hot accounts.
    accounts: Vec<Vec<HeapId>>,
    /// `seats[shard]` — the shard's flight seat counter.
    seats: Vec<HeapId>,
    user_zipf: Zipf,
    account_zipf: Zipf,
}

impl Sharded {
    /// Creates the shard guardians and their objects (one committed setup
    /// action per shard), returning the deployed workload.
    pub fn setup(world: &mut World, kind: RsKind, cfg: ShardedConfig) -> WorldResult<Sharded> {
        assert!(cfg.shards >= 1, "at least one shard");
        assert!(
            cfg.accounts_per_shard >= 2,
            "account 0 is the revenue account; need another to debit"
        );
        let mut gids = Vec::with_capacity(cfg.shards);
        let mut accounts = Vec::with_capacity(cfg.shards);
        let mut seats = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            let gid = world.add_guardian(kind)?;
            let aid = world.begin(gid)?;
            let mut shard_accounts = Vec::with_capacity(cfg.accounts_per_shard);
            for i in 0..cfg.accounts_per_shard {
                let h = world.create_atomic(gid, aid, Value::Int(INITIAL))?;
                world.set_stable(gid, aid, &format!("acct{i}"), Value::heap_ref(h))?;
                shard_accounts.push(h);
            }
            let h = world.create_atomic(gid, aid, Value::Int(cfg.seats_per_shard))?;
            world.set_stable(gid, aid, "seats", Value::heap_ref(h))?;
            let outcome = world.commit(aid)?;
            debug_assert_eq!(outcome, Outcome::Committed);
            gids.push(gid);
            accounts.push(shard_accounts);
            seats.push(h);
        }
        let user_zipf = Zipf::new(cfg.users.max(1), USER_THETA);
        let account_zipf = Zipf::new(cfg.accounts_per_shard, ACCOUNT_THETA);
        Ok(Sharded {
            cfg,
            gids,
            accounts,
            seats,
            user_zipf,
            account_zipf,
        })
    }

    /// The shard guardians, in shard order.
    pub fn shards(&self) -> &[GuardianId] {
        &self.gids
    }

    /// O(1) routing: the home shard of a user.
    pub fn home_shard(&self, user: usize) -> usize {
        user % self.cfg.shards
    }

    /// Draws the next action's plan: a zipf-chosen user routed home, then a
    /// transfer or a reservation with zipf-chosen accounts.
    fn draw_plan(&self, rng: &mut DetRng) -> Plan {
        let user = self.user_zipf.sample(rng);
        let home = self.home_shard(user);
        let cross = self.cfg.shards > 1 && rng.gen_bool(CROSS_SHARD_PROB);
        let target = if cross {
            let other = rng.gen_range(self.cfg.shards as u64 - 1) as usize;
            (home + 1 + other) % self.cfg.shards
        } else {
            home
        };
        let amount = 1 + rng.gen_range(100) as i64;
        let write = |shard: usize, h: HeapId, delta| Write {
            gid: self.gids[shard],
            h,
            delta,
        };
        let home_at = (home, self.gids[home]);
        if rng.gen_bool(RESERVATION_PROB) {
            // Reservation: pay from home, revenue + one seat at the flight
            // shard (account 0 is the revenue account).
            let mut payer = self.account_zipf.sample(rng);
            if target == home && payer == 0 {
                payer = 1;
            }
            Plan {
                home: home_at,
                writes: vec![
                    write(home, self.accounts[home][payer], -amount),
                    write(target, self.accounts[target][0], amount),
                    write(target, self.seats[target], -1),
                ],
                cross,
                reservation: true,
            }
        } else {
            let from = self.account_zipf.sample(rng);
            let mut to = self.account_zipf.sample(rng);
            if target == home && to == from {
                to = (to + 1) % self.cfg.accounts_per_shard;
            }
            Plan {
                home: home_at,
                writes: vec![
                    write(home, self.accounts[home][from], -amount),
                    write(target, self.accounts[target][to], amount),
                ],
                cross,
                reservation: false,
            }
        }
    }

    /// Runs the global action budget to completion and reports the stats,
    /// or an error if the scheduler ever stalls.
    pub fn run(&self, world: &mut World, rng: &mut DetRng) -> WorldResult<ShardedStats> {
        let cfg = &self.cfg;
        let mut remaining = cfg.actions;
        let next = |rng: &mut DetRng, _slot: usize| {
            remaining = remaining.checked_sub(1)?;
            Some(self.draw_plan(rng))
        };
        let mut per_shard_commits = vec![0; cfg.shards];
        let (mut cross_shard, mut reservations) = (0, 0);
        let done = |plan: Plan| {
            per_shard_commits[plan.home.0] += 1;
            cross_shard += u64::from(plan.cross);
            reservations += u64::from(plan.reservation);
        };
        let s = slots::run(world, rng, cfg.concurrency, next, done)?;
        Ok(ShardedStats {
            committed: s.committed,
            cross_shard,
            reservations,
            retries: s.retries,
            conflicts: s.conflicts,
            deadlock_victims: s.deadlock_victims,
            timeouts: s.timeouts,
            per_shard_commits,
            aborted: s.aborted,
            commit_order: s.commit_order,
        })
    }

    /// Sums every account's committed balance across every shard —
    /// transfers and reservation payments both conserve it.
    pub fn total_balance(&self, world: &World) -> WorldResult<i64> {
        let mut total = 0;
        for (shard, gid) in self.gids.iter().enumerate() {
            let guardian = world.guardian(*gid)?;
            for &h in &self.accounts[shard] {
                if let Ok(Value::Int(balance)) = guardian.heap.read_value(h, None) {
                    total += balance;
                }
            }
        }
        Ok(total)
    }

    /// The invariant value [`Sharded::total_balance`] must match.
    pub fn expected_total(&self) -> i64 {
        (self.cfg.shards * self.cfg.accounts_per_shard) as i64 * INITIAL
    }

    /// Sums every flight's committed seat count across every shard.
    pub fn total_seats(&self, world: &World) -> WorldResult<i64> {
        let mut total = 0;
        for (shard, gid) in self.gids.iter().enumerate() {
            let guardian = world.guardian(*gid)?;
            if let Ok(Value::Int(n)) = guardian.heap.read_value(self.seats[shard], None) {
                total += n;
            }
        }
        Ok(total)
    }

    /// The seat count [`Sharded::total_seats`] must show after `stats`:
    /// exactly the committed reservations are gone, no leaked decrement
    /// from any aborted attempt.
    pub fn expected_seats(&self, stats: &ShardedStats) -> i64 {
        self.cfg.shards as i64 * self.cfg.seats_per_shard - stats.reservations as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_cc::CcPolicy;
    use argus_guardian::WorldConfig;

    fn run_once(policy: CcPolicy, seed: u64, cfg: ShardedConfig) -> (Sharded, ShardedStats, World) {
        let mut world =
            World::with_config(argus_sim::CostModel::fast(), WorldConfig::with_cc(policy));
        let mix = Sharded::setup(&mut world, RsKind::Hybrid, cfg).unwrap();
        let mut rng = DetRng::new(seed);
        let stats = mix.run(&mut world, &mut rng).unwrap();
        (mix, stats, world)
    }

    #[test]
    fn every_policy_completes_and_conserves_invariants() {
        for policy in [
            CcPolicy::ConflictAbort,
            CcPolicy::Blocking,
            CcPolicy::Timeout,
        ] {
            let cfg = ShardedConfig::default();
            let (mix, stats, world) = run_once(policy, 42, cfg);
            assert_eq!(stats.committed, cfg.actions, "{policy:?}");
            assert_eq!(
                mix.total_balance(&world).unwrap(),
                mix.expected_total(),
                "{policy:?}"
            );
            assert_eq!(
                mix.total_seats(&world).unwrap(),
                mix.expected_seats(&stats),
                "{policy:?}"
            );
            assert!(stats.cross_shard > 0, "{policy:?}: no cross-shard commits");
            assert!(stats.reservations > 0, "{policy:?}: no reservations");
        }
    }

    #[test]
    fn coordinators_spread_across_shards() {
        let cfg = ShardedConfig {
            actions: 256,
            ..ShardedConfig::default()
        };
        let (_, stats, _) = run_once(CcPolicy::Blocking, 7, cfg);
        assert!(
            stats.coordinating_shards() >= cfg.shards / 2,
            "coordination piled up: {:?}",
            stats.per_shard_commits
        );
    }

    #[test]
    fn same_seed_same_run() {
        for policy in [CcPolicy::ConflictAbort, CcPolicy::Blocking] {
            let (_, a, _) = run_once(policy, 9, ShardedConfig::default());
            let (_, b, _) = run_once(policy, 9, ShardedConfig::default());
            assert_eq!(a, b, "{policy:?}");
        }
    }

    #[test]
    fn routing_is_modular() {
        let mut world = World::fast();
        let mix = Sharded::setup(&mut world, RsKind::Simple, ShardedConfig::default()).unwrap();
        assert_eq!(mix.home_shard(0), 0);
        assert_eq!(mix.home_shard(9), 1);
        assert_eq!(mix.home_shard(8), 0);
    }
}
