//! The contended transfer mix: a high-contention zipfian workload that
//! deadlocks by construction, driven by the deterministic slot scheduler
//! ([`crate::slots`]).
//!
//! Each of `concurrency` slots runs transfers over a small hot set of
//! accounts at one guardian. A transfer write-locks its debit account, then
//! its credit account, in *request* order — no global lock ordering — so two
//! slots picking the same hot pair in opposite directions wait on each
//! other, and the concurrency-control policy decides what happens next. A
//! seed pins down the whole run — schedule, abort set, commit order, and
//! final balances.

use crate::slots::{self, Plan, Write};
use argus_guardian::{Outcome, RsKind, World, WorldResult};
use argus_objects::{ActionId, GuardianId, HeapId, Value};
use argus_sim::{DetRng, Zipf};
use std::collections::BTreeSet;

/// Hot accounts at the single guardian — small on purpose.
const ACCOUNTS: usize = 8;
/// Initial balance per account.
const INITIAL: i64 = 1_000;
/// Zipf skew over accounts — high on purpose.
const ZIPF_THETA: f64 = 0.9;

/// Parameters for the contended mix.
#[derive(Debug, Clone, Copy)]
pub struct ContendedConfig {
    /// Concurrent transfer slots.
    pub concurrency: usize,
    /// Transfers each slot must commit.
    pub transfers_per_slot: u64,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        Self {
            concurrency: 8,
            transfers_per_slot: 12,
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
    /// Every action id that was aborted and retried.
    pub aborted: BTreeSet<ActionId>,
    /// Action ids in commit order — the observable schedule.
    pub commit_order: Vec<ActionId>,
}

impl ContendedStats {
    /// Abort rate: retried attempts over all attempts.
    pub fn abort_rate(&self) -> f64 {
        slots::abort_rate(self.committed, self.retries)
    }
}

/// One transfer: debit, then credit, both at the mix's guardian.
struct Transfer([Write; 2]);

impl Plan for Transfer {
    fn home(&self) -> GuardianId {
        self.0[0].gid
    }

    fn writes(&self) -> &[Write] {
        &self.0
    }
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
        let mut accounts = Vec::with_capacity(ACCOUNTS);
        for i in 0..ACCOUNTS {
            let h = world.create_atomic(gid, aid, Value::Int(INITIAL))?;
            world.set_stable(gid, aid, &format!("hot{i}"), Value::heap_ref(h))?;
            accounts.push(h);
        }
        let outcome = world.commit(aid)?;
        debug_assert_eq!(outcome, Outcome::Committed);
        let zipf = Zipf::new(ACCOUNTS, ZIPF_THETA);
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

    /// Runs every slot to completion — `transfers_per_slot` commits each —
    /// and reports the stats, or an error if the scheduler ever stalls.
    pub fn run(&self, world: &mut World, rng: &mut DetRng) -> WorldResult<ContendedStats> {
        let cfg = &self.cfg;
        let mut remaining = vec![cfg.transfers_per_slot; cfg.concurrency];
        let next = |rng: &mut DetRng, slot: usize| {
            remaining[slot] = remaining[slot].checked_sub(1)?;
            let from = self.zipf.sample(rng);
            let mut to = self.zipf.sample(rng);
            if to == from {
                to = (to + 1) % ACCOUNTS;
            }
            let amount = 1 + rng.gen_range(100) as i64;
            let write = |account: usize, delta| Write {
                gid: self.gid,
                h: self.accounts[account],
                delta,
            };
            Some(Transfer([write(from, -amount), write(to, amount)]))
        };
        let s = slots::run(world, rng, cfg.concurrency, next, |_| {})?;
        Ok(ContendedStats {
            committed: s.committed,
            retries: s.retries,
            conflicts: s.conflicts,
            deadlock_victims: s.deadlock_victims,
            timeouts: s.timeouts,
            aborted: s.aborted,
            commit_order: s.commit_order,
        })
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
        ACCOUNTS as i64 * INITIAL
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
            assert_eq!(stats.commit_order.len() as u64, stats.committed);
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
