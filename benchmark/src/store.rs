//! The single-guardian object store behind `solo_commit`, `batch_commit`
//! and `crash_restart`: `workload::Synth`'s shape (256 atomic objects of
//! 64 bytes, 4 writes per action) with two additions the benchmark needs —
//! several actions in flight per round, and the generator's own copy of
//! every acknowledged value, which is what the output checks compare with.

use crate::spans;
use crate::target::{ChunkOut, Res, Target};
use argus_core::HousekeepingMode;
use argus_guardian::{Outcome, RsKind, World};
use argus_objects::{GuardianId, HeapId, ObjRef, Value};
use argus_sim::DetRng;
use std::time::Instant;

pub const OBJECTS: usize = 256;
pub const VALUE_SIZE: usize = 64;
pub const WRITES: usize = 4;
const MAX_IN_FLIGHT: usize = 8;

pub struct Store {
    world: World,
    g: [GuardianId; 1],
    /// Actions in flight per round, each on its own slice of the objects.
    in_flight: usize,
    rounds_per_chunk: usize,
    handles: Vec<HeapId>,
    /// The fill byte of the last acknowledged write to each object.
    model: Vec<u8>,
    rng: DetRng,
    next_action: u64,
}

impl Store {
    /// Builds the guardian and commits the live set in one action.
    pub fn new(
        mut world: World,
        kind: RsKind,
        seed: u64,
        in_flight: usize,
        rounds_per_chunk: usize,
    ) -> Res<Store> {
        assert!((1..=MAX_IN_FLIGHT).contains(&in_flight) && OBJECTS.is_multiple_of(in_flight));
        let g = world.add_guardian(kind)?;
        let aid = world.begin(g)?;
        let mut handles = Vec::with_capacity(OBJECTS);
        for i in 0..OBJECTS {
            let h = world.create_atomic(g, aid, Value::Bytes(vec![0; VALUE_SIZE]))?;
            world.set_stable(g, aid, &format!("obj{i:03}"), Value::heap_ref(h))?;
            handles.push(h);
        }
        if world.commit(aid)? != Outcome::Committed {
            return Err("live-set creation did not commit".into());
        }
        Ok(Store {
            world,
            g: [g],
            in_flight,
            rounds_per_chunk,
            handles,
            model: vec![0; OBJECTS],
            rng: DetRng::new(seed),
            next_action: 0,
        })
    }

    /// One round: `in_flight` actions begun, written, launched and settled
    /// together. Returns how many committed.
    fn round(&mut self) -> Res<u64> {
        let g = self.g[0];
        let k = self.in_flight;
        let slice = OBJECTS / k;
        let first = self.next_action;
        self.next_action += k as u64;
        // Per action in flight: its id and the (object, fill) pairs it wrote.
        let mut actions = [None; MAX_IN_FLIGHT];
        for (j, slot) in actions.iter_mut().take(k).enumerate() {
            let _s = spans::enter("world.begin", first + j as u64);
            *slot = Some((self.world.begin(g)?, [(0usize, 0u8); WRITES]));
        }
        for (j, (aid, writes)) in actions.iter_mut().flatten().enumerate() {
            for write in writes {
                // Uniform with replacement: now and then an action writes
                // one object twice and the second fill is the one that stays.
                let i = j * slice + self.rng.gen_range(slice as u64) as usize;
                let fill = self.rng.gen_range(256) as u8;
                *write = (i, fill);
                let _s = spans::enter("world.write_atomic", first + j as u64);
                self.world
                    .write_atomic(g, *aid, self.handles[i], move |v| {
                        if let Value::Bytes(b) = v {
                            b.fill(fill);
                        }
                    })?;
            }
        }
        for (j, (aid, _)) in actions.iter().flatten().enumerate() {
            let _s = spans::enter("world.commit_start", first + j as u64);
            self.world.commit_start(*aid)?;
        }
        let mut committed = 0;
        for (j, (aid, writes)) in actions.iter().flatten().enumerate() {
            let outcome = {
                let _s = spans::enter("world.commit_settle", first + j as u64);
                self.world.commit_settle(*aid)?
            };
            if outcome == Outcome::Committed {
                committed += 1;
                for &(i, fill) in writes {
                    self.model[i] = fill;
                }
            }
        }
        Ok(committed)
    }

    /// Re-reads the object handles from the stable root: a restart rebuilt
    /// the heap, so the old handles are gone.
    fn resolve_handles(&mut self) -> Res<()> {
        let g = self.g[0];
        let guardian = self.world.guardian(g)?;
        let root = guardian
            .heap
            .stable_root()
            .ok_or("no stable root after restart")?;
        let Value::Seq(pairs) = guardian.heap.read_value(root, None)? else {
            return Err("stable root is not a sequence".into());
        };
        let mut found = vec![None; OBJECTS];
        for pair in pairs {
            let Value::Seq(kv) = pair else { continue };
            let [Value::Str(name), Value::Ref(r)] = kv.as_slice() else {
                continue;
            };
            let Some(i) = name
                .strip_prefix("obj")
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            found[i] = match r {
                ObjRef::Heap(h) => Some(*h),
                ObjRef::Uid(u) => guardian.heap.lookup(*u),
            };
        }
        for (i, h) in found.into_iter().enumerate() {
            self.handles[i] = h.ok_or_else(|| format!("object {i} unresolved after restart"))?;
        }
        Ok(())
    }
}

impl Target for Store {
    fn world(&self) -> &World {
        &self.world
    }

    fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    fn guardians(&self) -> &[GuardianId] {
        &self.g
    }

    fn live_user_bytes(&self) -> u64 {
        (OBJECTS * VALUE_SIZE) as u64
    }

    fn chunk(&mut self, lat_ns: &mut Vec<u64>) -> Res<ChunkOut> {
        let mut out = ChunkOut::default();
        for _ in 0..self.rounds_per_chunk {
            let t = Instant::now();
            let committed = self.round()?;
            lat_ns.push(t.elapsed().as_nanos() as u64);
            out.attempted += self.in_flight as u64;
            out.commits += committed;
        }
        out.user_bytes = out.commits * (WRITES * VALUE_SIZE) as u64;
        Ok(out)
    }

    fn housekeep(&mut self) -> Res<()> {
        let _s = spans::enter("world.housekeep", self.next_action);
        Ok(self
            .world
            .housekeep(self.g[0], HousekeepingMode::Compaction)?)
    }

    fn crash(&mut self) {
        let _s = spans::enter("world.crash", self.next_action);
        self.world.crash(self.g[0]);
    }

    fn restart(&mut self) -> Res<()> {
        let _s = spans::enter("world.restart", self.next_action);
        self.world.restart(self.g[0])?;
        Ok(())
    }

    fn verify(&mut self) -> Res<(u64, u64)> {
        self.resolve_handles()?;
        let heap = &self.world.guardian(self.g[0])?.heap;
        let mut wrong = 0;
        for (i, &h) in self.handles.iter().enumerate() {
            let ok = matches!(
                heap.read_value(h, None),
                Ok(Value::Bytes(b)) if b.len() == VALUE_SIZE && b.iter().all(|&x| x == self.model[i])
            );
            wrong += u64::from(!ok);
        }
        Ok((OBJECTS as u64, wrong))
    }

    fn first_commit(&mut self) -> Res<ChunkOut> {
        let in_flight = std::mem::replace(&mut self.in_flight, 1);
        let committed = self.round();
        self.in_flight = in_flight;
        Ok(ChunkOut {
            attempted: 1,
            commits: committed?,
            user_bytes: 0,
        })
    }
}
