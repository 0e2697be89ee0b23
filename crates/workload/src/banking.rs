//! The banking workload: transfers between accounts.

use argus_guardian::{Outcome, RsKind, World, WorldError, WorldResult};
use argus_objects::HeapError;
use argus_objects::{ActionId, GuardianId, HeapId, ObjRef, Value};
use argus_sim::{DetRng, Zipf};

/// Parameters for the banking workload.
#[derive(Debug, Clone)]
pub struct BankingConfig {
    /// Number of guardians (bank branches).
    pub guardians: usize,
    /// Accounts per guardian.
    pub accounts_per_guardian: usize,
    /// Initial balance per account.
    pub initial: i64,
    /// Zipf skew over accounts (0 = uniform).
    pub zipf_theta: f64,
    /// Probability a transfer crosses guardians (drives two-phase commit).
    pub cross_prob: f64,
    /// Probability the client aborts the transfer before committing.
    pub abort_prob: f64,
}

impl Default for BankingConfig {
    fn default() -> Self {
        Self {
            guardians: 2,
            accounts_per_guardian: 16,
            initial: 1_000,
            zipf_theta: 0.6,
            cross_prob: 0.3,
            abort_prob: 0.05,
        }
    }
}

/// Counters reported by a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BankingStats {
    /// Transfers committed.
    pub committed: u64,
    /// Transfers aborted by the client, including lock-conflict give-ups:
    /// under a faulty network an in-doubt transfer holds its locks until
    /// the verdict arrives, and a colliding client gives up rather than
    /// wait.
    pub aborted: u64,
    /// Transfers left in doubt (commit driven to no verdict yet).
    pub in_doubt: u64,
}

impl BankingStats {
    fn note(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Committed => self.committed += 1,
            Outcome::Aborted => self.aborted += 1,
            Outcome::Pending => self.in_doubt += 1,
        }
    }
}

/// A deployed banking workload.
#[derive(Debug)]
pub struct Banking {
    cfg: BankingConfig,
    gids: Vec<GuardianId>,
    zipf: Zipf,
}

impl Banking {
    /// Creates the guardians and their accounts (one committed setup action
    /// per guardian), returning the deployed workload.
    pub fn setup(world: &mut World, kind: RsKind, cfg: BankingConfig) -> WorldResult<Banking> {
        let mut gids = Vec::with_capacity(cfg.guardians);
        for _ in 0..cfg.guardians {
            gids.push(world.add_guardian(kind)?);
        }
        for &g in &gids {
            let aid = world.begin(g)?;
            for i in 0..cfg.accounts_per_guardian {
                let account = world.create_atomic(g, aid, Value::Int(cfg.initial))?;
                world.set_stable(g, aid, &account_name(i), Value::heap_ref(account))?;
            }
            let outcome = world.commit(aid)?;
            debug_assert_eq!(outcome, Outcome::Committed);
        }
        let zipf = Zipf::new(cfg.accounts_per_guardian.max(1), cfg.zipf_theta);
        Ok(Banking { cfg, gids, zipf })
    }

    /// The guardians hosting accounts.
    pub fn guardians(&self) -> &[GuardianId] {
        &self.gids
    }

    /// Resolves the heap handle of account `i` at guardian `g` (handles are
    /// volatile; the durable name is the stable variable).
    pub fn account(&self, world: &mut World, g: GuardianId, i: usize) -> WorldResult<HeapId> {
        match world.guardian(g)?.stable_value(&account_name(i)) {
            Some(Value::Ref(ObjRef::Heap(h))) => Ok(h),
            // A uid reference after an on-demand recovery: the account is
            // still on the log; the heap-miss path materializes it.
            Some(Value::Ref(ObjRef::Uid(u))) => match world.demand(g, u)? {
                Some(h) => Ok(h),
                None => Err(argus_guardian::WorldError::Rs(
                    argus_core::RsError::BadState(format!("account {i} at {g} dangling: uid {u}")),
                )),
            },
            other => Err(argus_guardian::WorldError::Rs(
                argus_core::RsError::BadState(format!("account {i} at {g} unresolved: {other:?}")),
            )),
        }
    }

    /// Runs one transfer; returns the outcome.
    pub fn transfer(
        &self,
        world: &mut World,
        rng: &mut DetRng,
        amount: i64,
    ) -> WorldResult<Outcome> {
        match self.stage_transfer(world, rng, amount)? {
            Ok(aid) => world.commit(aid),
            Err(outcome) => Ok(outcome),
        }
    }

    /// One transfer up to, not including, its commit: the action to commit,
    /// or the outcome of a transfer that ended before it got that far.
    fn stage_transfer(
        &self,
        world: &mut World,
        rng: &mut DetRng,
        amount: i64,
    ) -> WorldResult<Result<ActionId, Outcome>> {
        let from_g = self.gids[rng.gen_range(self.gids.len() as u64) as usize];
        let to_g = if rng.gen_bool(self.cfg.cross_prob) && self.gids.len() > 1 {
            loop {
                let g = self.gids[rng.gen_range(self.gids.len() as u64) as usize];
                if g != from_g {
                    break g;
                }
            }
        } else {
            from_g
        };
        let from_i = self.zipf.sample(rng);
        let mut to_i = self.zipf.sample(rng);
        if from_g == to_g && to_i == from_i {
            to_i = (to_i + 1) % self.cfg.accounts_per_guardian;
        }

        let aid = world.begin(from_g)?;
        let from_h = self.account(world, from_g, from_i)?;
        let to_h = self.account(world, to_g, to_i)?;
        let written = world
            .write_atomic(from_g, aid, from_h, |v| {
                if let Value::Int(balance) = v {
                    *balance -= amount;
                }
            })
            .and_then(|()| {
                world.write_atomic(to_g, aid, to_h, |v| {
                    if let Value::Int(balance) = v {
                        *balance += amount;
                    }
                })
            });
        if let Err(e) = written {
            // The action must not dangle holding half its locks.
            world.abort_local(aid);
            return match e {
                // Under a faulty network the lock holder may be in doubt
                // for a while; a real client gives up and aborts rather
                // than error out.
                WorldError::Heap(HeapError::LockConflict { .. }) => Ok(Err(Outcome::Aborted)),
                other => Err(other),
            };
        }
        if rng.gen_bool(self.cfg.abort_prob) {
            world.abort_local(aid);
            return Ok(Err(Outcome::Aborted));
        }
        Ok(Ok(aid))
    }

    /// Runs `n` transfers and reports counters.
    pub fn run(&self, world: &mut World, rng: &mut DetRng, n: u64) -> WorldResult<BankingStats> {
        let mut stats = BankingStats::default();
        for _ in 0..n {
            let amount = 1 + rng.gen_range(100) as i64;
            stats.note(self.transfer(world, rng, amount)?);
        }
        Ok(stats)
    }

    /// Runs `n` transfers in waves of `width` whose commits overlap: every
    /// commit of a wave is launched before the first is settled, so several
    /// actions' protocol messages are in the network at once — a sequential
    /// two-guardian commit has one message in flight at a time, which gives
    /// a reordering network nothing to reorder. A transfer that finds an
    /// account locked by an earlier one of its wave aborts.
    pub fn run_overlapped(
        &self,
        world: &mut World,
        rng: &mut DetRng,
        n: u64,
        width: u64,
    ) -> WorldResult<BankingStats> {
        let mut stats = BankingStats::default();
        let mut left = n;
        while left > 0 {
            let mut wave = Vec::new();
            for _ in 0..width.min(left) {
                let amount = 1 + rng.gen_range(100) as i64;
                let staged = self.stage_transfer(world, rng, amount)?;
                if let Ok(aid) = staged {
                    world.commit_start(aid)?;
                }
                wave.push(staged);
            }
            left -= wave.len() as u64;
            for launched in wave {
                stats.note(match launched {
                    Ok(aid) => world.commit_settle(aid)?,
                    Err(outcome) => outcome,
                });
            }
        }
        Ok(stats)
    }

    /// Sums every account's committed balance — must equal
    /// `guardians × accounts × initial` at all times (the consistency
    /// invariant transfers preserve).
    pub fn total_balance(&self, world: &World) -> WorldResult<i64> {
        let mut total = 0;
        for &g in &self.gids {
            let guardian = world.guardian(g)?;
            for i in 0..self.cfg.accounts_per_guardian {
                if let Some(Value::Ref(ObjRef::Heap(h))) = guardian.stable_value(&account_name(i)) {
                    if let Ok(Value::Int(balance)) = guardian.heap.read_value(h, None) {
                        total += balance;
                    }
                }
            }
        }
        Ok(total)
    }

    /// The invariant value [`Banking::total_balance`] must match.
    pub fn expected_total(&self) -> i64 {
        self.cfg.guardians as i64 * self.cfg.accounts_per_guardian as i64 * self.cfg.initial
    }
}

fn account_name(i: usize) -> String {
    format!("acct{i}")
}

/// Suppress the unused warning for ActionId re-export coherence.
#[allow(unused)]
fn _types(_a: ActionId) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_conserve_total_balance() {
        for kind in RsKind::ALL {
            let mut world = World::fast();
            let bank = Banking::setup(&mut world, kind, BankingConfig::default()).unwrap();
            let mut rng = DetRng::new(7);
            let stats = bank.run(&mut world, &mut rng, 50).unwrap();
            assert!(stats.committed > 0);
            assert_eq!(
                bank.total_balance(&world).unwrap(),
                bank.expected_total(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn balance_survives_crashes_of_every_branch() {
        let mut world = World::fast();
        let bank = Banking::setup(&mut world, RsKind::Hybrid, BankingConfig::default()).unwrap();
        let mut rng = DetRng::new(11);
        bank.run(&mut world, &mut rng, 30).unwrap();
        for &g in bank.guardians().to_vec().iter() {
            world.crash(g);
            world.restart(g).unwrap();
        }
        assert_eq!(bank.total_balance(&world).unwrap(), bank.expected_total());
    }
}
