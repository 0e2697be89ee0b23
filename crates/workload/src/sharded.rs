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
//! Two action kinds, mixed by [`ShardedConfig::reservation_prob`]:
//!
//! * **transfer** — debit a zipf-chosen account at the home shard, credit an
//!   account at a target shard ([`ShardedConfig::cross_shard_prob`] picks a
//!   *different* shard, driving distributed two-phase commit);
//! * **reservation** — debit the user's home account, credit the flight
//!   shard's revenue account, and take one seat from that flight — the
//!   three-write airline booking of the thesis's motivating domains.
//!
//! Both conserve the total balance, and committed reservations account
//! exactly for the seats taken — the run-wide oracles
//! ([`Sharded::total_balance`], [`Sharded::total_seats`]).
//!
//! The driver is [`Contended`](crate::Contended)'s deterministic slot
//! scheduler generalized to a global action budget: `concurrency` slots
//! each perform one transition per round (begin, one lock-acquiring
//! submit, or commit), retries keep their user and plan, and everything
//! draws from one [`DetRng`] — a seed pins the whole run.

use argus_cc::{BackoffConfig, CcFate, CcOutcome};
use argus_guardian::{Outcome, RsKind, World, WorldError, WorldResult};
use argus_objects::{ActionId, GuardianId, HeapId, Value};
use argus_sim::{DetRng, Zipf};
use std::collections::BTreeSet;

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
    /// Zipf skew over the user population.
    pub user_theta: f64,
    /// Zipf skew over each shard's accounts.
    pub account_theta: f64,
    /// Probability an action's target shard differs from its home shard
    /// (cross-shard two-phase commit).
    pub cross_shard_prob: f64,
    /// Probability an action is an airline reservation instead of a
    /// transfer.
    pub reservation_prob: f64,
    /// Initial balance per account.
    pub initial: i64,
    /// Initial seats per shard's flight.
    pub seats_per_shard: i64,
    /// Retry backoff after an abort (conflict, victim, or timeout).
    pub backoff: BackoffConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            accounts_per_shard: 4,
            users: 1_000,
            concurrency: 16,
            actions: 128,
            user_theta: 0.9,
            account_theta: 0.6,
            cross_shard_prob: 0.4,
            reservation_prob: 0.3,
            initial: 1_000,
            seats_per_shard: 1_000_000,
            backoff: BackoffConfig::default(),
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
    /// Per-action latency in simulated µs, first begin to commit, spanning
    /// retries.
    pub latencies_us: Vec<u64>,
    /// Every action id that was aborted and retried.
    pub aborted: BTreeSet<ActionId>,
    /// Action ids in commit order — the observable schedule.
    pub commit_order: Vec<ActionId>,
}

impl ShardedStats {
    /// Abort rate: retried attempts over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.retries;
        if attempts == 0 {
            0.0
        } else {
            self.retries as f64 / attempts as f64
        }
    }

    /// Shards that coordinated at least one commit.
    pub fn coordinating_shards(&self) -> usize {
        self.per_shard_commits.iter().filter(|&&n| n > 0).count()
    }

    /// p99 action latency in simulated µs (first begin → commit, spanning
    /// retries); 0 when nothing committed.
    pub fn p99_latency_us(&self) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * 0.99).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
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

/// One write of an action's plan: `delta` applied to `h` at shard `shard`.
#[derive(Debug, Clone, Copy)]
struct PlannedWrite {
    shard: usize,
    h: HeapId,
    delta: i64,
}

/// The immutable plan of one logical action, kept across retries so the
/// same contended objects are re-fought.
#[derive(Debug, Clone)]
struct Plan {
    home: usize,
    writes: Vec<PlannedWrite>,
    cross: bool,
    reservation: bool,
}

/// What a slot does next round.
#[derive(Debug)]
enum SlotState {
    /// No action in flight; may begin once the clock reaches `retry_at`.
    Idle,
    /// Action begun; `next_op` planned writes issued so far.
    Running { aid: ActionId, next_op: usize },
    /// No actions left in the global budget.
    Finished,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    plan: Option<Plan>,
    started_at: Option<u64>,
    attempt: u32,
    retry_at: u64,
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
                let h = world.create_atomic(gid, aid, Value::Int(cfg.initial))?;
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
        let user_zipf = Zipf::new(cfg.users.max(1), cfg.user_theta);
        let account_zipf = Zipf::new(cfg.accounts_per_shard, cfg.account_theta);
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
        let cross = self.cfg.shards > 1 && rng.gen_bool(self.cfg.cross_shard_prob);
        let target = if cross {
            let other = rng.gen_range(self.cfg.shards as u64 - 1) as usize;
            (home + 1 + other) % self.cfg.shards
        } else {
            home
        };
        let amount = 1 + rng.gen_range(100) as i64;
        if rng.gen_bool(self.cfg.reservation_prob) {
            // Reservation: pay from home, revenue + one seat at the flight
            // shard (account 0 is the revenue account).
            let mut payer = self.account_zipf.sample(rng);
            if target == home && payer == 0 {
                payer = 1;
            }
            Plan {
                home,
                writes: vec![
                    PlannedWrite {
                        shard: home,
                        h: self.accounts[home][payer],
                        delta: -amount,
                    },
                    PlannedWrite {
                        shard: target,
                        h: self.accounts[target][0],
                        delta: amount,
                    },
                    PlannedWrite {
                        shard: target,
                        h: self.seats[target],
                        delta: -1,
                    },
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
                home,
                writes: vec![
                    PlannedWrite {
                        shard: home,
                        h: self.accounts[home][from],
                        delta: -amount,
                    },
                    PlannedWrite {
                        shard: target,
                        h: self.accounts[target][to],
                        delta: amount,
                    },
                ],
                cross,
                reservation: false,
            }
        }
    }

    /// Runs the global action budget to completion and reports the stats.
    /// Returns an error — rather than spinning — if the scheduler ever
    /// stalls with no pending event.
    pub fn run(&self, world: &mut World, rng: &mut DetRng) -> WorldResult<ShardedStats> {
        let mut stats = ShardedStats {
            per_shard_commits: vec![0; self.cfg.shards],
            ..ShardedStats::default()
        };
        let mut remaining = self.cfg.actions;
        let mut slots: Vec<Slot> = (0..self.cfg.concurrency)
            .map(|_| Slot {
                state: SlotState::Idle,
                plan: None,
                started_at: None,
                attempt: 0,
                retry_at: 0,
            })
            .collect();

        loop {
            let mut progress = false;
            let mut all_done = true;
            for slot in &mut slots {
                progress |= self.step_slot(world, rng, slot, &mut remaining, &mut stats)?;
                all_done &= matches!(slot.state, SlotState::Finished);
            }
            if all_done {
                return Ok(stats);
            }
            if progress {
                continue;
            }
            // Every slot is parked or backing off: advance the clock to the
            // nearest pending event and expire due lock waits.
            let mut next = world.cc_next_deadline();
            for slot in &slots {
                if matches!(slot.state, SlotState::Idle) {
                    next = Some(next.map_or(slot.retry_at, |n| n.min(slot.retry_at)));
                }
            }
            match next {
                Some(t) if t > world.clock.now() => {
                    world.clock.advance_to(t);
                    world.cc_tick();
                }
                _ => {
                    return Err(WorldError::Rs(argus_core::RsError::BadState(
                        "sharded mix stalled with no pending event (undetected deadlock?)".into(),
                    )))
                }
            }
        }
    }

    /// Performs at most one scheduler transition for `slot`; returns whether
    /// anything happened.
    fn step_slot(
        &self,
        world: &mut World,
        rng: &mut DetRng,
        slot: &mut Slot,
        remaining: &mut u64,
        stats: &mut ShardedStats,
    ) -> WorldResult<bool> {
        let now = world.clock.now();
        match slot.state {
            SlotState::Finished => Ok(false),
            SlotState::Idle => {
                if slot.plan.is_none() {
                    // Take the next action from the global budget.
                    if *remaining == 0 {
                        slot.state = SlotState::Finished;
                        return Ok(true);
                    }
                    *remaining -= 1;
                    slot.plan = Some(self.draw_plan(rng));
                    slot.started_at = Some(now);
                }
                if now < slot.retry_at {
                    return Ok(false);
                }
                let home = slot.plan.as_ref().expect("plan just drawn").home;
                let aid = world.begin(self.gids[home])?;
                slot.state = SlotState::Running { aid, next_op: 0 };
                Ok(true)
            }
            SlotState::Running { aid, next_op } => {
                if let Some(fate) = world.cc_fate(aid) {
                    match fate {
                        CcFate::Victim => stats.deadlock_victims += 1,
                        CcFate::TimedOut => stats.timeouts += 1,
                        CcFate::CrashDrained => {}
                    }
                    self.note_retry(world, slot, aid, stats, rng);
                    return Ok(true);
                }
                if world.cc_blocked(aid) {
                    return Ok(false);
                }
                let plan = slot.plan.as_ref().expect("running slot has a plan");
                if next_op < plan.writes.len() {
                    let PlannedWrite { shard, h, delta } = plan.writes[next_op];
                    match world.submit_write_atomic(self.gids[shard], aid, h, move |v| {
                        if let Value::Int(n) = v {
                            *n += delta;
                        }
                    })? {
                        // Parked counts as issued: the grant runs the write.
                        CcOutcome::Done | CcOutcome::Parked => {
                            slot.state = SlotState::Running {
                                aid,
                                next_op: next_op + 1,
                            };
                        }
                        CcOutcome::Conflict => {
                            stats.conflicts += 1;
                            world.abort_local(aid);
                            self.note_retry(world, slot, aid, stats, rng);
                        }
                    }
                    Ok(true)
                } else {
                    let outcome = world.commit(aid)?;
                    debug_assert_eq!(outcome, Outcome::Committed);
                    let plan = slot.plan.take().expect("running slot has a plan");
                    stats.committed += 1;
                    stats.per_shard_commits[plan.home] += 1;
                    stats.cross_shard += u64::from(plan.cross);
                    stats.reservations += u64::from(plan.reservation);
                    stats.commit_order.push(aid);
                    let started = slot.started_at.take().expect("action has a start time");
                    stats
                        .latencies_us
                        .push(world.clock.now().saturating_sub(started));
                    slot.attempt = 0;
                    slot.retry_at = world.clock.now();
                    slot.state = SlotState::Idle;
                    Ok(true)
                }
            }
        }
    }

    /// Books an aborted attempt and schedules the backoff.
    fn note_retry(
        &self,
        world: &mut World,
        slot: &mut Slot,
        aid: ActionId,
        stats: &mut ShardedStats,
        rng: &mut DetRng,
    ) {
        stats.retries += 1;
        stats.aborted.insert(aid);
        world.note_cc_retry();
        let delay = self.cfg.backoff.delay_us(slot.attempt, rng);
        slot.attempt += 1;
        slot.retry_at = world.clock.now() + delay;
        slot.state = SlotState::Idle;
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
        (self.cfg.shards * self.cfg.accounts_per_shard) as i64 * self.cfg.initial
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
