//! `sharded_2pc`: `workload::Sharded` on sixteen in-memory shard guardians.
//! A round is one `Sharded::run` over the 32 slots; the bank's conservation
//! oracles are the output check, read through the stable variables so they
//! also hold after a restart has rebuilt every heap.

use crate::spans;
use crate::target::{ChunkOut, Res, Target};
use argus_core::HousekeepingMode;
use argus_guardian::{Outcome, RsKind, World};
use argus_objects::{GuardianId, HeapId, ObjRef, Value};
use argus_sim::DetRng;
use argus_workload::{Sharded, ShardedConfig};
use std::time::Instant;

pub const SHARDS: usize = 16;
pub const SLOTS: usize = 32;
pub const USERS: usize = 2_560;

pub struct Shards {
    world: World,
    mix: Sharded,
    cfg: ShardedConfig,
    rounds_per_chunk: usize,
    rng: DetRng,
    /// Committed reservations so far: each took exactly one seat.
    reservations: u64,
    /// Actions issued so far: the id the next spans carry.
    next_action: u64,
}

impl Shards {
    pub fn new(
        mut world: World,
        kind: RsKind,
        seed: u64,
        actions_per_round: u64,
        rounds_per_chunk: usize,
    ) -> Res<Shards> {
        let cfg = ShardedConfig {
            shards: SHARDS,
            users: USERS,
            concurrency: SLOTS,
            actions: actions_per_round,
            ..ShardedConfig::default()
        };
        let mix = Sharded::setup(&mut world, kind, cfg)?;
        Ok(Shards {
            world,
            mix,
            cfg,
            rounds_per_chunk,
            rng: DetRng::new(seed),
            reservations: 0,
            next_action: 0,
        })
    }

    /// The committed integer behind stable variable `name` at `g`.
    fn stable_int(&self, g: GuardianId, name: &str) -> Res<(HeapId, i64)> {
        let guardian = self.world.guardian(g)?;
        let h = match guardian.stable_value(name) {
            Some(Value::Ref(ObjRef::Heap(h))) => h,
            Some(Value::Ref(ObjRef::Uid(u))) => guardian
                .heap
                .lookup(u)
                .ok_or_else(|| format!("{name} at {g} dangling"))?,
            other => return Err(format!("{name} at {g} unresolved: {other:?}").into()),
        };
        match guardian.heap.read_value(h, None)? {
            Value::Int(n) => Ok((h, *n)),
            other => Err(format!("{name} at {g} is not an integer: {other:?}").into()),
        }
    }
}

impl Target for Shards {
    fn world(&self) -> &World {
        &self.world
    }

    fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    fn guardians(&self) -> &[GuardianId] {
        self.mix.shards()
    }

    fn live_user_bytes(&self) -> u64 {
        // Accounts and one seat counter per shard, eight bytes each.
        (SHARDS * (self.cfg.accounts_per_shard + 1) * 8) as u64
    }

    fn chunk(&mut self, lat_ns: &mut Vec<u64>) -> Res<ChunkOut> {
        let mut out = ChunkOut::default();
        for _ in 0..self.rounds_per_chunk {
            let t = Instant::now();
            let stats = {
                let _s = spans::enter("world.sharded_run", self.next_action);
                self.mix.run(&mut self.world, &mut self.rng)?
            };
            lat_ns.push(t.elapsed().as_nanos() as u64);
            self.next_action += self.cfg.actions;
            self.reservations += stats.reservations;
            out.attempted += self.cfg.actions;
            out.commits += stats.committed;
            // A transfer writes two integers, a reservation three.
            out.user_bytes += (2 * stats.committed + stats.reservations) * 8;
        }
        Ok(out)
    }

    fn housekeep(&mut self) -> Res<()> {
        let _s = spans::enter("world.housekeep", self.next_action);
        for &g in self.mix.shards() {
            self.world.housekeep(g, HousekeepingMode::Compaction)?;
        }
        Ok(())
    }

    fn crash(&mut self) {
        let _s = spans::enter("world.crash", self.next_action);
        for &g in self.mix.shards() {
            self.world.crash(g);
        }
    }

    fn restart(&mut self) -> Res<()> {
        let _s = spans::enter("world.restart", self.next_action);
        for &g in self.mix.shards() {
            self.world.restart(g)?;
        }
        Ok(())
    }

    fn verify(&mut self) -> Res<(u64, u64)> {
        let mut balance = 0;
        let mut seats = 0;
        for &g in self.mix.shards() {
            for i in 0..self.cfg.accounts_per_shard {
                balance += self.stable_int(g, &format!("acct{i}"))?.1;
            }
            seats += self.stable_int(g, "seats")?.1;
        }
        let want_seats = SHARDS as i64 * self.cfg.seats_per_shard - self.reservations as i64;
        let wrong =
            u64::from(balance != self.mix.expected_total()) + u64::from(seats != want_seats);
        Ok((2, wrong))
    }

    fn first_commit(&mut self) -> Res<ChunkOut> {
        // A one-unit transfer inside shard 0: balance-neutral, so the
        // conservation oracle still holds afterwards.
        let g = self.mix.shards()[0];
        let from = self.stable_int(g, "acct1")?.0;
        let to = self.stable_int(g, "acct0")?.0;
        let aid = self.world.begin(g)?;
        for (h, delta) in [(from, -1), (to, 1)] {
            self.world.write_atomic(g, aid, h, move |v| {
                if let Value::Int(n) = v {
                    *n += delta;
                }
            })?;
        }
        let committed = self.world.commit(aid)? == Outcome::Committed;
        Ok(ChunkOut {
            attempted: 1,
            commits: u64::from(committed),
            user_bytes: 0,
        })
    }
}
