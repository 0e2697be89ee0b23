//! The contended transfer mix: a high-contention zipfian workload that
//! deadlocks by construction, driven by a deterministic slot scheduler.
//!
//! Each of `concurrency` slots runs transfers over a small hot set of
//! accounts at one guardian. A transfer write-locks its debit account, then
//! its credit account, in *request* order — no global lock ordering — so two
//! slots picking the same hot pair in opposite directions wait on each other
//! (§2.4.1: running actions delay one another by holding locks). What
//! happens next is the concurrency-control policy's call
//! ([`argus_guardian::WorldConfig::cc`]):
//!
//! * **conflict-abort** — the submit is refused; the slot aborts the action
//!   and retries after a seeded full-jitter backoff ([`BackoffConfig`]);
//! * **blocking** — the slot parks FIFO; the wait-for-graph check breaks any
//!   cycle by aborting the youngest member, which retries with backoff;
//! * **timeout** — the slot parks with a deadline; when every slot is stuck
//!   the driver advances the clock to the next deadline and lets
//!   [`World::cc_tick`] expire a waiter, which retries with backoff.
//!
//! One slot performs exactly one scheduler transition per round — begin,
//! one lock-acquiring submit, or commit — so locks are held across rounds
//! and slots genuinely interleave. The driver draws only from
//! [`DetRng`] and the simulated clock: a seed pins down the whole run —
//! schedule, abort set, commit order, and final balances.

use argus_cc::{BackoffConfig, CcFate, CcOutcome};
use argus_guardian::{Outcome, RsKind, World, WorldError, WorldResult};
use argus_objects::{ActionId, GuardianId, HeapId, Value};
use argus_sim::{DetRng, Zipf};
use std::collections::BTreeSet;

/// Parameters for the contended mix.
#[derive(Debug, Clone, Copy)]
pub struct ContendedConfig {
    /// Hot accounts at the single guardian — small on purpose.
    pub accounts: usize,
    /// Concurrent transfer slots.
    pub concurrency: usize,
    /// Transfers each slot must commit.
    pub transfers_per_slot: u64,
    /// Initial balance per account.
    pub initial: i64,
    /// Zipf skew over accounts — high on purpose.
    pub zipf_theta: f64,
    /// Retry backoff after an abort (conflict, victim, or timeout).
    pub backoff: BackoffConfig,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        Self {
            accounts: 8,
            concurrency: 8,
            transfers_per_slot: 12,
            initial: 1_000,
            zipf_theta: 0.9,
            backoff: BackoffConfig::default(),
        }
    }
}

/// Counters and traces reported by a run. `PartialEq` so determinism tests
/// can compare whole runs: same seed ⇒ equal stats, including the commit
/// order and the abort set.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ContendedStats {
    /// Transfers committed (= `concurrency × transfers_per_slot`).
    pub committed: u64,
    /// Aborted attempts that were retried, by any cause.
    pub retries: u64,
    /// Retries caused by a conflict-abort refusal.
    pub conflicts: u64,
    /// Retries caused by being picked as a deadlock victim.
    pub deadlock_victims: u64,
    /// Retries caused by a lock-wait timeout.
    pub timeouts: u64,
    /// Per-transfer latency in simulated µs, first `begin` to commit,
    /// spanning every retry of that transfer.
    pub latencies_us: Vec<u64>,
    /// Every action id that was aborted and retried.
    pub aborted: BTreeSet<ActionId>,
    /// Action ids in commit order — the observable schedule.
    pub commit_order: Vec<ActionId>,
}

impl ContendedStats {
    /// Abort rate: retried attempts over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.retries;
        if attempts == 0 {
            0.0
        } else {
            self.retries as f64 / attempts as f64
        }
    }

    /// The p99 transfer latency in simulated µs (0 when empty).
    pub fn p99_latency_us(&self) -> u64 {
        percentile(&self.latencies_us, 0.99)
    }
}

fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What a slot does next round.
#[derive(Debug)]
enum SlotState {
    /// No action in flight; may begin once the clock reaches `retry_at`.
    Idle,
    /// Action begun; `next_op` locks issued so far (0, 1, or 2).
    Running { aid: ActionId, next_op: usize },
    /// All transfers committed.
    Finished,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// Transfers still to commit.
    remaining: u64,
    /// Accounts of the in-progress transfer — kept across retries, so the
    /// same contended pair is re-attempted (that is the retry semantics the
    /// backoff exists for).
    pair: Option<(usize, usize)>,
    amount: i64,
    /// When the first attempt of the current transfer began.
    started_at: Option<u64>,
    /// Aborted attempts of the current transfer so far.
    attempt: u32,
    /// Clock time before which the slot stays idle (backoff).
    retry_at: u64,
}

/// A deployed contended mix.
#[derive(Debug)]
pub struct Contended {
    cfg: ContendedConfig,
    gid: GuardianId,
    accounts: Vec<HeapId>,
    zipf: Zipf,
}

impl Contended {
    /// Creates the guardian and its hot accounts (one committed setup
    /// action), returning the deployed workload.
    pub fn setup(world: &mut World, kind: RsKind, cfg: ContendedConfig) -> WorldResult<Contended> {
        let gid = world.add_guardian(kind)?;
        let aid = world.begin(gid)?;
        let mut accounts = Vec::with_capacity(cfg.accounts);
        for i in 0..cfg.accounts {
            let h = world.create_atomic(gid, aid, Value::Int(cfg.initial))?;
            world.set_stable(gid, aid, &format!("hot{i}"), Value::heap_ref(h))?;
            accounts.push(h);
        }
        let outcome = world.commit(aid)?;
        debug_assert_eq!(outcome, Outcome::Committed);
        let zipf = Zipf::new(cfg.accounts.max(1), cfg.zipf_theta);
        Ok(Contended {
            cfg,
            gid,
            accounts,
            zipf,
        })
    }

    /// The guardian hosting the hot accounts.
    pub fn guardian(&self) -> GuardianId {
        self.gid
    }

    /// Runs every slot to completion and reports the stats. Returns an
    /// error — rather than spinning — if the scheduler ever stalls with no
    /// pending event, so a would-be hang fails fast and loudly.
    pub fn run(&self, world: &mut World, rng: &mut DetRng) -> WorldResult<ContendedStats> {
        let mut stats = ContendedStats::default();
        let mut slots: Vec<Slot> = (0..self.cfg.concurrency)
            .map(|_| Slot {
                state: SlotState::Idle,
                remaining: self.cfg.transfers_per_slot,
                pair: None,
                amount: 0,
                started_at: None,
                attempt: 0,
                retry_at: 0,
            })
            .collect();

        loop {
            let mut progress = false;
            let mut all_done = true;
            for slot in &mut slots {
                progress |= self.step_slot(world, rng, slot, &mut stats)?;
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
                if matches!(slot.state, SlotState::Idle) && slot.remaining > 0 {
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
                        "contended mix stalled with no pending event (undetected deadlock?)".into(),
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
        stats: &mut ContendedStats,
    ) -> WorldResult<bool> {
        let now = world.clock.now();
        match slot.state {
            SlotState::Finished => Ok(false),
            SlotState::Idle => {
                if slot.remaining == 0 {
                    slot.state = SlotState::Finished;
                    return Ok(true);
                }
                if now < slot.retry_at {
                    return Ok(false);
                }
                // First attempt picks the pair and the amount; retries keep
                // them, so the same contended pair is re-fought.
                if slot.pair.is_none() {
                    let from = self.zipf.sample(rng);
                    let mut to = self.zipf.sample(rng);
                    if to == from {
                        to = (to + 1) % self.cfg.accounts;
                    }
                    slot.pair = Some((from, to));
                    slot.amount = 1 + rng.gen_range(100) as i64;
                    slot.started_at = Some(now);
                }
                let aid = world.begin(self.gid)?;
                slot.state = SlotState::Running { aid, next_op: 0 };
                Ok(true)
            }
            SlotState::Running { aid, next_op } => {
                if let Some(fate) = world.cc_fate(aid) {
                    // The scheduler gave up on this action (deadlock victim
                    // or expired lock wait) and already aborted it.
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
                if next_op < 2 {
                    let (from, to) = slot.pair.expect("running slot has a pair");
                    let (h, delta) = if next_op == 0 {
                        (self.accounts[from], -slot.amount)
                    } else {
                        (self.accounts[to], slot.amount)
                    };
                    match world.submit_write_atomic(self.gid, aid, h, move |v| {
                        if let Value::Int(balance) = v {
                            *balance += delta;
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
                    stats.committed += 1;
                    stats.commit_order.push(aid);
                    let started = slot.started_at.take().expect("transfer has a start time");
                    stats
                        .latencies_us
                        .push(world.clock.now().saturating_sub(started));
                    slot.remaining -= 1;
                    slot.pair = None;
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
        stats: &mut ContendedStats,
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

    /// Sums every hot account's committed balance — transfers conserve it.
    pub fn total_balance(&self, world: &World) -> WorldResult<i64> {
        let guardian = world.guardian(self.gid)?;
        let mut total = 0;
        for &h in &self.accounts {
            if let Ok(Value::Int(balance)) = guardian.heap.read_value(h, None) {
                total += balance;
            }
        }
        Ok(total)
    }

    /// The invariant value [`Contended::total_balance`] must match.
    pub fn expected_total(&self) -> i64 {
        self.cfg.accounts as i64 * self.cfg.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_cc::CcPolicy;
    use argus_guardian::WorldConfig;

    fn run_once(policy: CcPolicy, seed: u64) -> (ContendedStats, i64, i64) {
        let mut world =
            World::with_config(argus_sim::CostModel::fast(), WorldConfig::with_cc(policy));
        let mix = Contended::setup(&mut world, RsKind::Hybrid, ContendedConfig::default()).unwrap();
        let mut rng = DetRng::new(seed);
        let stats = mix.run(&mut world, &mut rng).unwrap();
        let total = mix.total_balance(&world).unwrap();
        (stats, total, mix.expected_total())
    }

    #[test]
    fn every_policy_completes_and_conserves_balance() {
        for policy in [
            CcPolicy::ConflictAbort,
            CcPolicy::Blocking,
            CcPolicy::Timeout,
        ] {
            let (stats, total, expected) = run_once(policy, 42);
            assert_eq!(stats.committed, 8 * 12, "{policy:?}");
            assert_eq!(total, expected, "{policy:?}");
            assert_eq!(stats.latencies_us.len() as u64, stats.committed);
        }
    }

    #[test]
    fn blocking_mode_deadlocks_by_construction() {
        let (stats, _, _) = run_once(CcPolicy::Blocking, 42);
        assert!(
            stats.deadlock_victims > 0,
            "expected deadlocks in the contended mix: {stats:?}"
        );
    }

    #[test]
    fn same_seed_same_run() {
        for policy in [
            CcPolicy::ConflictAbort,
            CcPolicy::Blocking,
            CcPolicy::Timeout,
        ] {
            let (a, total_a, _) = run_once(policy, 7);
            let (b, total_b, _) = run_once(policy, 7);
            assert_eq!(a, b, "{policy:?}");
            assert_eq!(total_a, total_b, "{policy:?}");
        }
    }
}
