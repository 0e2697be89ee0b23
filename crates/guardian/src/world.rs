//! The simulated distributed system.

use crate::guardian::{tkey, Effects, Input, Parked, Touch};
use crate::live::LiveAction;
use crate::network::NetFaults;
use crate::{Guardian, RsKind, SimNetwork, WorldError, WorldResult};
use argus_cc::{
    CcConfig, CcFate, CcOutcome, CcPolicy, DeadlockSearch, Front, LockManager, LockMode, ObjKey,
    Waiter,
};
use argus_core::{HousekeepingMode, RecoveryOutcome};
use argus_objects::{ActionId, GuardianId, HeapError, HeapId, Uid, Value};
use argus_obs::{Count, Hist};
use argus_sim::{CostModel, IntMap, SimClock};
use argus_slog::ForceConfig;
use argus_stable::{CacheConfig, FaultPlan};
use argus_trace::Kind;
use argus_twopc::CoordPhase;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Storage-performance knobs shared by every guardian the world spawns.
///
/// The defaults enable both optimizations — group-commit batching of log
/// forces and a page cache with read-ahead under every log organization.
/// [`WorldConfig::unbatched`] restores the one-force-per-operation,
/// uncached behavior for baselines and A/B experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldConfig {
    /// Group-commit force scheduling for log-based recovery systems.
    pub force: ForceConfig,
    /// Page cache + read-ahead layered over each guardian's page store.
    pub cache: CacheConfig,
    /// Concurrency control: what happens when lock requests collide.
    pub cc: CcConfig,
    /// Media model under each guardian's page store.
    pub media: MediaKind,
}

/// Which media model guardians' page stores run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MediaKind {
    /// Always-good in-memory pages — the fast default for unit tests.
    #[default]
    Mem,
    /// Lampson–Sturgis mirrored disks (§1.1): crashes tear at most one
    /// in-flight leg, decayed pages are repaired from the twin on read.
    Mirrored,
    /// Real files via [`argus_stable::DurableFileStore`]: durable fsync
    /// forces, write combining, wall-clock costs. Each guardian gets its
    /// own subdirectory `g<N>` under `dir` (a fresh temp directory when
    /// `None`). The `&'static str` keeps [`WorldConfig`] `Copy`; benches
    /// leak their path strings, tests use string literals.
    File {
        /// Base directory for the guardians' log files.
        dir: Option<&'static str>,
    },
}

impl WorldConfig {
    /// Every force is immediate and every page read hits the device —
    /// the pre-optimization baseline.
    pub fn unbatched() -> Self {
        Self {
            force: ForceConfig::immediate(),
            cache: CacheConfig::disabled(),
            cc: CcConfig::default(),
            media: MediaKind::Mem,
        }
    }

    /// The default knobs with the given concurrency-control policy.
    pub fn with_cc(policy: CcPolicy) -> Self {
        Self {
            cc: CcConfig::with_policy(policy),
            ..Self::default()
        }
    }
}

/// The fate of a top-level action as observed by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The commit point is on stable storage — the `committing` record, or
    /// a local action's own `committed`: committed everywhere.
    Committed,
    /// The action aborted everywhere.
    Aborted,
    /// A crash interrupted the protocol; the outcome will settle after the
    /// crashed node restarts.
    Pending,
}

/// A deterministic world of guardians, the driver for every integration
/// test, example, and experiment.
///
/// # Examples
///
/// A distributed action across two guardians, committed by two-phase commit,
/// surviving a crash of each:
///
/// ```
/// use argus_guardian::{Outcome, RsKind, World};
/// use argus_objects::Value;
///
/// let mut world = World::fast();
/// let g0 = world.add_guardian(RsKind::Hybrid)?;
/// let g1 = world.add_guardian(RsKind::Shadow)?; // organizations can mix
///
/// let action = world.begin(g0)?;
/// world.set_stable(g0, action, "left", Value::Int(1))?;
/// world.set_stable(g1, action, "right", Value::Int(2))?;
/// assert_eq!(world.commit(action)?, Outcome::Committed);
///
/// for g in [g0, g1] {
///     world.crash(g);
///     world.restart(g)?;
/// }
/// assert_eq!(world.guardian(g0)?.stable_value("left"), Some(Value::Int(1)));
/// assert_eq!(world.guardian(g1)?.stable_value("right"), Some(Value::Int(2)));
/// # Ok::<(), argus_guardian::WorldError>(())
/// ```
pub struct World {
    /// The shared logical clock.
    pub clock: SimClock,
    model: CostModel,
    /// The ambient observability registry, bound to `clock` so phase timers
    /// measure simulated time; the world records by row.
    obs: argus_obs::Registry,
    /// The ambient tracer, bound to `clock` and reset when the world is
    /// built: one world is one trace.
    tracer: argus_trace::Tracer,
    guardians: BTreeMap<GuardianId, Guardian>,
    net: SimNetwork,
    /// Every action begun and not yet resolved (the coordinator finished,
    /// or it was aborted locally), with the guardians it touched — the only
    /// actions a deadlock cycle can contain, so the only ones whose begin
    /// order is worth keeping.
    pub(crate) live: IntMap<ActionId, LiveAction>,
    /// Verdicts of finished coordinators that no [`World::commit_settle`]
    /// has taken yet.
    outcomes: IntMap<ActionId, bool>,
    /// Commits launched at a guardian with a housekeeping policy, each with
    /// its policed participants, until they are settled. Empty in a world
    /// with no policy.
    policed: Vec<(ActionId, Vec<GuardianId>)>,
    next_gid: u32,
    /// Storage knobs applied to every guardian spawned in this world.
    cfg: WorldConfig,
    /// Parked lock requests awaiting a release, commit, abort, or crash.
    /// The parked half of a blocked operation runs once the lock is granted
    /// (the grant itself *is* the heap acquisition); a granted
    /// [`Touch::Read`] only books the lock — the caller re-issues
    /// [`World::read`], which now succeeds as a holder.
    cc: LockManager<Touch<Parked>>,
    /// The deadlock search's buffers, kept from park to park.
    cc_search: DeadlockSearch,
    /// Every guardian's [`Guardian::lock_stamp`], by id, as the grant pump
    /// last read them.
    cc_stamps: Vec<u64>,
    /// What [`World::cc_read_stamps`] returned after the last pump, which
    /// granted nothing more: while it reads the same, neither can the next.
    cc_quiet: Option<(u64, u64)>,
    /// Probe every front on every pass, as if no refusal were remembered —
    /// the reference the remembering pump is tested against.
    cc_exhaustive: bool,
    /// Why the scheduler gave up on parked actions (victim/timeout/crash),
    /// until [`World::take_cc_fate`] asks.
    cc_fates: IntMap<ActionId, CcFate>,
    next_begin: u64,
    /// Guardians holding a non-empty staged batch, maintained at every
    /// staging site so the message loop's idle flush visits only guardians
    /// with work — never the whole world.
    staged_ready: BTreeSet<GuardianId>,
    /// Min-heap of `(force deadline, guardian)` for open staged batches.
    /// Entries are lazily invalidated: a popped guardian whose batch
    /// already flushed (or whose current batch has a later deadline) is
    /// skipped after an O(1) check.
    force_due: BinaryHeap<Reverse<(u64, GuardianId)>>,
    /// What the guardian stepped last asked for, drained by
    /// [`World::apply`] after every step; kept for its buffers' capacity.
    fx: Effects,
    /// Envelopes [`World::apply`] has sent: the network must carry no other.
    #[cfg(test)]
    pub(crate) mail_applied: u64,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("guardians", &self.guardians.len())
            .finish()
    }
}

impl World {
    /// Creates an empty world with the given device cost profile and the
    /// default storage knobs (batching and caching on).
    pub fn new(model: CostModel) -> Self {
        Self::with_config(model, WorldConfig::default())
    }

    /// Creates an empty world with explicit storage knobs.
    pub fn with_config(model: CostModel, cfg: WorldConfig) -> Self {
        let clock = SimClock::new();
        let obs = argus_obs::current();
        obs.set_clock(clock.clone());
        let tracer = argus_trace::current();
        tracer.set_clock(clock.clone());
        tracer.reset();
        Self {
            clock,
            model,
            obs,
            tracer,
            guardians: BTreeMap::new(),
            net: SimNetwork::new(),
            live: IntMap::default(),
            outcomes: IntMap::default(),
            policed: Vec::new(),
            next_gid: 0,
            cfg,
            cc: LockManager::new(),
            cc_search: DeadlockSearch::new(),
            cc_stamps: Vec::new(),
            cc_quiet: None,
            cc_exhaustive: false,
            cc_fates: IntMap::default(),
            next_begin: 0,
            staged_ready: BTreeSet::new(),
            force_due: BinaryHeap::new(),
            fx: Effects::default(),
            #[cfg(test)]
            mail_applied: 0,
        }
    }

    /// A world with the fast cost profile (unit tests).
    pub fn fast() -> Self {
        Self::new(CostModel::fast())
    }

    /// The storage knobs guardians in this world run with.
    pub fn config(&self) -> WorldConfig {
        self.cfg
    }

    /// Spawns a guardian running the given storage organization.
    pub fn add_guardian(&mut self, kind: RsKind) -> WorldResult<GuardianId> {
        let id = GuardianId(self.next_gid);
        self.next_gid += 1;
        let guardian = Guardian::new(
            id,
            kind,
            self.clock.clone(),
            self.model.clone(),
            &self.cfg,
            self.tracer.clone(),
            &self.obs,
        )?;
        self.guardians.insert(id, guardian);
        Ok(id)
    }

    /// Borrows a guardian.
    pub fn guardian(&self, g: GuardianId) -> WorldResult<&Guardian> {
        self.guardians.get(&g).ok_or(WorldError::NoGuardian(g))
    }

    /// Every guardian in the world, in id order.
    pub fn guardian_ids(&self) -> Vec<GuardianId> {
        self.guardians.keys().copied().collect()
    }

    /// Dumps guardian `g`'s decoded log for external audits like the
    /// `argus-check` linter (`None` when its organization keeps no log).
    pub fn dump_log(
        &mut self,
        g: GuardianId,
    ) -> WorldResult<Option<Vec<(argus_slog::LogAddress, argus_core::LogEntry)>>> {
        Ok(self.guardian_mut(g)?.dump_log()?)
    }

    /// The registry this world's instrumentation records into.
    pub fn obs(&self) -> &argus_obs::Registry {
        &self.obs
    }

    /// The tracer this world's instrumentation records into.
    pub fn tracer(&self) -> &argus_trace::Tracer {
        &self.tracer
    }

    fn guardian_mut(&mut self, g: GuardianId) -> WorldResult<&mut Guardian> {
        self.guardians.get_mut(&g).ok_or(WorldError::NoGuardian(g))
    }

    fn up(&mut self, g: GuardianId) -> WorldResult<&mut Guardian> {
        let guardian = self.guardian_mut(g)?;
        if !guardian.up {
            return Err(WorldError::Down(g));
        }
        Ok(guardian)
    }

    // ---- action execution (the "handler call" surface) -------------------

    /// Begins a top-level action originating (and coordinated) at `origin`.
    pub fn begin(&mut self, origin: GuardianId) -> WorldResult<ActionId> {
        let aid = self.up(origin)?.begin();
        let mut live = LiveAction {
            order: self.next_begin,
            began_at: Some(self.clock.now()),
            ..LiveAction::default()
        };
        live.touched.insert(origin);
        self.live.insert(aid, live);
        self.next_begin += 1;
        Ok(aid)
    }

    /// The one lock-then-touch step behind the blocking action entry points:
    /// takes the lock `touch` needs at `g` — or fails with who is in the way,
    /// or because `h` is not of the kind `touch` needs — and runs it.
    fn lock_then_touch<F: FnOnce(&mut Value)>(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
        touch: Touch<F>,
    ) -> WorldResult<()> {
        self.up(g)?.touch(aid, h, touch)?;
        self.book(g, aid);
        Ok(())
    }

    /// Books `g` as a guardian `aid` touched an object at: it must run
    /// two-phase commit with the action, whether it wrote there or only
    /// holds read locks there.
    fn book(&mut self, g: GuardianId, aid: ActionId) {
        self.live.entry(aid).or_default().touched.insert(g);
    }

    /// Creates an atomic object at `g` on behalf of `aid` (read-locked by
    /// its creator, §2.4.1).
    pub fn create_atomic(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        value: Value,
    ) -> WorldResult<HeapId> {
        let guardian = self.up(g)?;
        let h = guardian.heap.alloc_atomic(value, Some(aid));
        // The creator holds a read lock (§2.4.1); record the guardian as a
        // read participant so that lock is released with the action.
        guardian.apply(aid, h, Touch::<Parked>::Read)?;
        self.book(g, aid);
        Ok(h)
    }

    /// Creates a mutex object at `g`.
    pub fn create_mutex(&mut self, g: GuardianId, value: Value) -> WorldResult<HeapId> {
        let guardian = self.up(g)?;
        Ok(guardian.heap.alloc_mutex(value))
    }

    /// Reads an object at `g` under `aid`, acquiring a read lock on atomic
    /// objects. The guardian becomes a *read-only participant* of the
    /// action: it joins two-phase commit so the lock is released with the
    /// action's outcome.
    pub fn read(&mut self, g: GuardianId, aid: ActionId, h: HeapId) -> WorldResult<Value> {
        self.lock_then_touch(g, aid, h, Touch::<Parked>::Read)?;
        Ok(self.guardian(g)?.heap.read_value(h, Some(aid))?.clone())
    }

    /// Write-locks and mutates an atomic object at `g` under `aid`.
    pub fn write_atomic(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
        f: impl FnOnce(&mut Value),
    ) -> WorldResult<()> {
        self.lock_then_touch(g, aid, h, Touch::Write(f))
    }

    /// Seizes, mutates, and releases a mutex object at `g` under `aid`.
    pub fn mutate_mutex(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
        f: impl FnOnce(&mut Value),
    ) -> WorldResult<()> {
        self.lock_then_touch(g, aid, h, Touch::Mutex(f))
    }

    // ---- lock-aware submissions (the blocked-action scheduler) -----------

    /// Lock-aware [`World::read`]: on conflict the request parks on the
    /// object's wait queue (blocking/timeout policies) or reports
    /// [`CcOutcome::Conflict`] (conflict-abort). When a parked read is later
    /// granted, the grant *is* the read-lock acquisition — re-issue
    /// [`World::read`] to observe the value.
    pub fn submit_read(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
    ) -> WorldResult<CcOutcome> {
        self.submit(g, aid, h, Touch::<Parked>::Read)
    }

    /// Lock-aware [`World::write_atomic`]: on conflict the mutation is
    /// buffered as a continuation and parks (blocking/timeout policies) or
    /// the call reports [`CcOutcome::Conflict`] (conflict-abort). An action
    /// upgrading its own read lock parks at the *front* of the queue.
    pub fn submit_write_atomic(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
        f: impl FnOnce(&mut Value) + 'static,
    ) -> WorldResult<CcOutcome> {
        self.submit(g, aid, h, Touch::Write(f))
    }

    /// Lock-aware [`World::mutate_mutex`]: a seized mutex parks the request
    /// (blocking/timeout policies) or reports [`CcOutcome::Conflict`]
    /// (conflict-abort). On grant the scheduler seizes, mutates, releases.
    pub fn submit_mutate_mutex(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
        f: impl FnOnce(&mut Value) + 'static,
    ) -> WorldResult<CcOutcome> {
        self.submit(g, aid, h, Touch::Mutex(f))
    }

    /// The lock-aware lock-then-touch step: a request that must queue, or
    /// whose lock is refused under a waiting policy, parks with its mutation
    /// boxed — the only time it is. One for an object of the wrong kind
    /// fails before it does either.
    fn submit<F: FnOnce(&mut Value) + 'static>(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        h: HeapId,
        touch: Touch<F>,
    ) -> WorldResult<CcOutcome> {
        self.up(g)?.fits(h, &touch)?;
        let key = ObjKey { gid: g, hid: h };
        let mode = touch.mode();
        if self.cc_should_queue(key, aid) {
            return self.cc_park(key, aid, mode, touch.boxed(), false);
        }
        let waits = !matches!(self.cfg.cc.policy, CcPolicy::ConflictAbort);
        let guardian = self.up(g)?;
        match guardian.lock(aid, h, mode) {
            Ok(()) => {
                guardian.apply(aid, h, touch)?;
                self.book(g, aid);
                Ok(CcOutcome::Done)
            }
            Err(HeapError::LockConflict { .. } | HeapError::MutexSeized { .. }) if waits => {
                let upgrade = guardian.heap.holds_lock(h, aid);
                self.cc_park(key, aid, mode, touch.boxed(), upgrade)
            }
            Err(HeapError::LockConflict { .. } | HeapError::MutexSeized { .. }) => {
                Ok(CcOutcome::Conflict)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Whether a new request must queue behind earlier waiters even if it is
    /// compatible with the current holders — FIFO fairness keeps a stream of
    /// readers from starving a queued writer. Re-entrant requests (the
    /// action already holds a lock on the object) bypass the queue.
    fn cc_should_queue(&self, key: ObjKey, aid: ActionId) -> bool {
        if matches!(self.cfg.cc.policy, CcPolicy::ConflictAbort) {
            return false;
        }
        if !self.cc.has_queue(key) {
            return false;
        }
        self.guardians
            .get(&key.gid)
            .map(|gu| gu.up && !gu.heap.holds_lock(key.hid, aid))
            .unwrap_or(false)
    }

    fn cc_park(
        &mut self,
        key: ObjKey,
        aid: ActionId,
        mode: LockMode,
        cont: Touch<Parked>,
        upgrade: bool,
    ) -> WorldResult<CcOutcome> {
        let now = self.clock.now();
        let deadline = matches!(self.cfg.cc.policy, CcPolicy::Timeout)
            .then(|| now + self.cfg.cc.wait_timeout_us);
        // The holder the waiter is queuing behind right now (writer first,
        // else the first foreign reader): the grant-time trace span names it
        // so lock-wait time is attributable to a specific action.
        let holder = self.guardians.get(&key.gid).and_then(|gu| {
            let (writer, mut readers) = gu.heap.lock_holders(key.hid).ok()?;
            writer.or_else(|| readers.find(|h| *h != aid))
        });
        self.cc.park(
            key,
            Waiter {
                aid,
                mode,
                parked_at: now,
                deadline,
                holder,
                cont,
            },
            upgrade,
        );
        self.obs.inc(Count::CcWaits);
        if matches!(self.cfg.cc.policy, CcPolicy::Blocking) {
            self.cc_detect_deadlock(aid);
        }
        Ok(CcOutcome::Parked)
    }

    /// While the just-parked request closes a wait-for cycle, aborts the
    /// youngest member of each. Searching only from the new waiter is sound:
    /// grants never add edges, so every cycle passes through the most
    /// recent parker — and the search computes edges only for the actions
    /// it reaches from there. One park can close *several* cycles at once
    /// (the parker's new edges fan out to different queues), and aborting
    /// one victim only breaks the cycles it was on — hence the loop, which
    /// re-checks until no cycle through the parker remains. Breaking only
    /// the first was a real livelock at scale: in 8-shard worlds a park
    /// that closed two cycles left the second one undetected forever,
    /// stalling every slot.
    fn cc_detect_deadlock(&mut self, start: ActionId) {
        loop {
            let guardians = &self.guardians;
            let holders = |key: ObjKey, mode, out: &mut Vec<ActionId>| {
                let guardian = guardians.get(&key.gid).filter(|gu| gu.up);
                if let Some(Ok((writer, readers))) =
                    guardian.map(|gu| gu.heap.lock_holders(key.hid))
                {
                    out.extend(writer);
                    if mode == LockMode::Exclusive {
                        out.extend(readers);
                    }
                }
            };
            let Some(cycle) = self.cc_search.cycle_through(&self.cc, start, holders) else {
                return;
            };
            self.obs.inc(Count::CcDeadlocks);
            let victim = cycle
                .iter()
                .copied()
                .filter(|a| !self.in_two_phase_commit(*a))
                .max_by_key(|a| self.live.get(a).map_or(0, |l| l.order))
                .unwrap_or(start);
            self.obs.inc(Count::CcVictims);
            self.tracer.instant(
                Kind::DeadlockVictim,
                victim.coordinator.0,
                Some(tkey(victim)),
                &[cycle.len() as u64],
            );
            self.cc_fates.insert(victim, CcFate::Victim);
            self.abort_local(victim);
            // The parker itself was the victim: its request is gone, and
            // with it every remaining cycle through it.
            if victim == start || !self.cc.is_blocked(start) {
                return;
            }
        }
    }

    /// Whether `aid` has entered two-phase commit anywhere. A coordinator
    /// can only live at the action's origin and participants only at
    /// guardians the action touched, so checking that set — not every
    /// guardian in the world — is exhaustive.
    fn in_two_phase_commit(&self, aid: ActionId) -> bool {
        let engaged = |g: &GuardianId| {
            let guardian = self.guardians.get(g);
            guardian.is_some_and(|gu| gu.in_two_phase_commit(aid))
        };
        let live = self.live.get(&aid);
        engaged(&aid.coordinator) || live.is_some_and(|l| l.touched.as_slice().iter().any(engaged))
    }

    /// Grants every front waiter whose heap lock is now acquirable, runs the
    /// parked continuations, and repeats until no queue makes progress.
    /// Returns whether anything was granted.
    ///
    /// A pass tries a front only if it is new there or its guardian's heap
    /// released something since the front was last refused
    /// ([`Guardian::lock_stamp`]), and a pump returns at once when neither
    /// the queues nor any stamp moved since the last one ended. Grants
    /// happen in the same order and passes as if every front were tried.
    fn cc_pump(&mut self) -> bool {
        if self.cc.is_empty() {
            return false;
        }
        let mark = self.cc_read_stamps();
        if self.cc_quiet == Some(mark) && !self.cc_exhaustive {
            return false;
        }
        let mut any = false;
        loop {
            let mut progressed = false;
            let mut after = None;
            loop {
                let (stamps, every) = (&self.cc_stamps, self.cc_exhaustive);
                let stamp = |key: ObjKey| stamps[key.gid.0 as usize];
                let untried = |f: &Front| every || f.refused_at != Some(stamp(f.key));
                let Some(front) = self.cc.fronts(after).find(untried) else {
                    break;
                };
                let key = front.key;
                after = Some(key);
                let stamp = stamp(key);
                let Some(guardian) = self.guardians.get_mut(&key.gid) else {
                    continue;
                };
                if !guardian.up || !guardian.grantable(front.aid, key.hid, front.mode) {
                    self.cc.note_refused(key, stamp);
                    continue;
                }
                let waiter = self.cc.take_front(key).expect("front just read");
                let locked = guardian.lock(waiter.aid, key.hid, waiter.mode);
                locked.expect("the lock is grantable");
                let waited = self.clock.now().saturating_sub(waiter.parked_at);
                self.obs.record(Hist::CcWaitUs, waited);
                self.tracer.complete(
                    Kind::LockWait,
                    key.gid.0,
                    Some(tkey(waiter.aid)),
                    waiter.parked_at,
                    &[u64::from(key.hid.0), waiter.holder.map_or(0, |h| h.seq)],
                );
                let applied = guardian.apply(waiter.aid, key.hid, waiter.cont);
                applied.expect("lock just granted");
                // A mutex touch releases what it seized.
                self.cc_stamps[key.gid.0 as usize] = guardian.lock_stamp();
                self.book(key.gid, waiter.aid);
                progressed = true;
                any = true;
            }
            if !progressed {
                break;
            }
        }
        self.cc_quiet = Some(if any { self.cc_read_stamps() } else { mark });
        any
    }

    /// Reads every guardian's lock stamp into `cc_stamps`, and returns the
    /// queues' version with the stamps' sum: all of them only grow, so while
    /// the pair reads the same nothing has parked, left a queue or been
    /// released anywhere.
    fn cc_read_stamps(&mut self) -> (u64, u64) {
        self.cc_stamps.resize(self.next_gid as usize, 0);
        for (g, guardian) in &self.guardians {
            self.cc_stamps[g.0 as usize] = guardian.lock_stamp();
        }
        (self.cc.version(), self.cc_stamps.iter().sum())
    }

    /// Makes the grant pump try every front on every pass and never return
    /// early, as it did before it remembered refusals — the reference the
    /// remembering pump is tested against.
    #[doc(hidden)]
    pub fn probe_every_front(&mut self) {
        self.cc_exhaustive = true;
    }

    /// Expires parked requests whose lock-wait deadline has passed on the
    /// simulated clock ([`CcPolicy::Timeout`]), aborting their actions.
    /// Returns whether anything expired. Drivers that advanced the clock
    /// themselves can call this directly; [`World::run_until_quiet`] calls
    /// it when otherwise idle.
    pub fn cc_tick(&mut self) -> bool {
        let expired = self.cc.expired(self.clock.now());
        let any = !expired.is_empty();
        for aid in expired {
            self.obs.inc(Count::CcTimeouts);
            self.cc_fates.insert(aid, CcFate::TimedOut);
            self.abort_local(aid);
        }
        any
    }

    /// Whether `aid` has a parked lock request.
    pub fn cc_blocked(&self, aid: ActionId) -> bool {
        self.cc.is_blocked(aid)
    }

    /// Every action with a parked lock request, in id order.
    pub fn cc_blocked_actions(&self) -> BTreeSet<ActionId> {
        self.cc.blocked_actions()
    }

    /// Total parked lock requests.
    pub fn cc_waiter_count(&self) -> usize {
        self.cc.waiter_count()
    }

    /// The earliest lock-wait deadline of any parked request, if the world
    /// runs the timeout policy — drivers advance the clock here when every
    /// in-flight action is parked.
    pub fn cc_next_deadline(&self) -> Option<u64> {
        self.cc.next_deadline()
    }

    /// Why the scheduler gave up on `aid`, if it did — once: the fate is
    /// the slot driver's to take, and a second call answers `None`. A
    /// deadlock leaves its `deadlock_victim` trace instant and the
    /// `cc.deadlocks`/`cc.victims` counts behind, nothing per action.
    pub fn take_cc_fate(&mut self, aid: ActionId) -> Option<CcFate> {
        self.cc_fates.remove(&aid)
    }

    /// Actions the world still considers live: begun and neither committed
    /// nor aborted — they may legitimately hold locks. The stale-lock lint
    /// (I11) checks quiesced heaps against this set.
    pub fn live_actions(&self) -> BTreeSet<ActionId> {
        let mut live: BTreeSet<ActionId> = self.live.keys().copied().collect();
        live.extend(self.cc.blocked_actions());
        for guardian in self.guardians.values() {
            live.extend(guardian.live_actions());
        }
        live
    }

    /// Binds the stable variable `name` at `g` to `value` under `aid`
    /// (write-locks the stable root).
    pub fn set_stable(
        &mut self,
        g: GuardianId,
        aid: ActionId,
        name: &str,
        value: Value,
    ) -> WorldResult<()> {
        let root = self.up(g)?.heap.stable_root();
        let root = root.expect("live guardians always have a stable root");
        self.write_atomic(g, aid, root, Guardian::bind_stable(name, value))
    }

    /// Early-prepares `aid`'s current MOS at `g` (§4.4); objects that were
    /// inaccessible stay in the MOS.
    pub fn early_prepare(&mut self, g: GuardianId, aid: ActionId) -> WorldResult<()> {
        let guardian = self.up(g)?;
        let mos = guardian.mos.remove(&aid).unwrap_or_default();
        match guardian.rs.write_entry(aid, &mos, &guardian.heap) {
            Ok(leftover) => {
                guardian.mos.insert(aid, leftover);
                Ok(())
            }
            Err(e) if e.is_crash() => {
                self.mark_crashed(g);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Locally aborts an action that has not entered two-phase commit.
    /// Parked lock requests of the action are cancelled, and any locks it
    /// released may wake other waiters. No verdict is booked: the caller
    /// knows it.
    pub fn abort_local(&mut self, aid: ActionId) {
        self.cc.cancel(aid);
        let live = self.live.remove(&aid).unwrap_or_default();
        for g in live.touched.as_slice() {
            if let Some(guardian) = self.guardians.get_mut(g) {
                guardian.heap.abort_action(aid);
                guardian.mos.remove(&aid);
                guardian.known.remove(&aid);
                guardian.rs.discard(aid);
            }
        }
        if cfg!(debug_assertions) {
            // Locks are only ever taken at touched guardians, so the
            // leak check need not visit the rest of the world.
            for g in live.touched.as_slice() {
                let Some(guardian) = self.guardians.get(g) else {
                    continue;
                };
                let held = guardian.heap.locks_held_by(aid);
                debug_assert!(
                    held.is_empty(),
                    "aborted action {aid} still holds locks on {held:?} at {g}"
                );
            }
        }
        self.close_action(aid, &live, false);
        self.cc_pump();
    }

    /// Closes `aid`, which just stopped being live: its end-to-end trace
    /// span and its commit round end.
    fn close_action(&mut self, aid: ActionId, live: &LiveAction, committed: bool) {
        if let Some(began_at) = live.began_at {
            self.tracer.complete(
                Kind::Action,
                aid.coordinator.0,
                Some(tkey(aid)),
                began_at,
                &[u64::from(committed)],
            );
        }
        if let Some(launched_at) = live.launched_at {
            self.obs
                .record_since(Hist::TwopcCommitRoundUs, &self.clock, launched_at);
        }
    }

    /// Counts one aborted-and-retried attempt (`cc.retries`): the workload
    /// drivers decide what a retry is, the world owns the `cc.*` handles.
    pub fn note_cc_retry(&self) {
        self.obs.inc(Count::CcRetries);
    }

    /// Runs housekeeping at `g`.
    pub fn housekeep(&mut self, g: GuardianId, mode: HousekeepingMode) -> WorldResult<()> {
        self.housekeeping_pass(g, mode).map(drop)
    }

    /// One housekeeping pass at `g`; `Ok(false)` when the fault plan fired
    /// mid-pass — the node goes down with the old log still authoritative
    /// (the switch is the last step). A finished pass is one `compaction`
    /// or `snapshot` span: the forced entries the new log holds, and how
    /// many fewer than the old one held when the pass was asked for.
    fn housekeeping_pass(&mut self, g: GuardianId, mode: HousekeepingMode) -> WorldResult<bool> {
        // Housekeeping snapshots and truncates the log; staged entries must
        // reach it first.
        self.flush_staged(g)?;
        let start = self.clock.now();
        // Split borrow: the recovery system reads the heap during snapshot.
        let Guardian { rs, heap, .. } = self.up(g)?;
        let before = rs.log_stats().entries;
        match rs.housekeeping(heap, mode) {
            Ok(()) => {
                let after = rs.log_stats().entries;
                let kind = match mode {
                    HousekeepingMode::Compaction => Kind::Compaction,
                    HousekeepingMode::Snapshot => Kind::Snapshot,
                };
                let args = [after, before.saturating_sub(after)];
                self.tracer.complete(kind, g.0, None, start, &args);
                Ok(true)
            }
            Err(e) if e.is_crash() => {
                self.mark_crashed(g);
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    // ---- two-phase commit -------------------------------------------------

    /// Commits a top-level action, driven to quiescence: the full two-phase
    /// commit of §2.2 — or, when the action touched only its own origin, one
    /// forced step at that guardian and no message. Exactly
    /// [`World::commit_start`] then [`World::commit_settle`].
    pub fn commit(&mut self, aid: ActionId) -> WorldResult<Outcome> {
        self.commit_start(aid)?;
        self.commit_settle(aid)
    }

    /// Launches two-phase commit for `aid` without driving it to
    /// quiescence. Several actions started this way proceed concurrently:
    /// their prepare/commit records share group-commit forces. Settle each
    /// with [`World::commit_settle`].
    pub fn commit_start(&mut self, aid: ActionId) -> WorldResult<()> {
        self.up(aid.coordinator)?;
        // Every guardian `aid` must run two-phase commit with, in id order:
        // its origin and wherever it touched an object. Captured up front:
        // the record goes when the action resolves.
        let gids: Vec<GuardianId> = match self.live.get_mut(&aid) {
            Some(live) => {
                live.launched_at = Some(self.clock.now());
                live.touched.insert(aid.coordinator);
                live.touched.as_slice().to_vec()
            }
            None => vec![aid.coordinator],
        };
        // Only this action's participants append records, so theirs are the
        // housekeeping policies its settling must apply.
        let hk = |g: &GuardianId| self.guardians.get(g).is_some_and(|u| u.hk_policy.is_some());
        if gids.iter().any(hk) {
            let policed = gids.iter().copied().filter(hk).collect();
            self.policed.push((aid, policed));
        }
        self.step(aid.coordinator, Input::Commit(aid, gids))?;
        // A local commit stages here, with no delivery after it to poll the
        // force scheduler: a batch that is already due forces now.
        self.flush_due_forces()
    }

    /// Drives the network to quiescence and reports the fate of a commit
    /// launched with [`World::commit_start`], taking its verdict: the world
    /// keeps none it has handed out, so asking again reports
    /// [`Outcome::Pending`]. A caller answered `Pending` asks again once the
    /// crashed guardian is back, and takes the verdict recovery booked.
    pub fn commit_settle(&mut self, aid: ActionId) -> WorldResult<Outcome> {
        let policed = self.policed.iter().position(|(a, _)| *a == aid);
        let policed = policed.map(|at| self.policed.swap_remove(at).1);
        let outcome = self.settle(aid)?;
        match outcome {
            Outcome::Committed => self.obs.inc(Count::WorldCommits),
            Outcome::Aborted => self.obs.inc(Count::WorldAborts),
            Outcome::Pending => self.obs.inc(Count::WorldPending),
        }
        // Apply any automatic housekeeping policies now that the log grew
        // ("as frequently as needed", ch. 5): every guardian's log growth
        // is checked at a commit it takes part in.
        for g in policed.into_iter().flatten() {
            self.maybe_housekeep(g)?;
        }
        Ok(outcome)
    }

    /// Quiesces and takes `aid`'s fate: its booked verdict, or — the
    /// protocol held up by a crash or a silence — what its coordinator's
    /// phase says.
    fn settle(&mut self, aid: ActionId) -> WorldResult<Outcome> {
        let origin = aid.coordinator;
        self.run_until_quiet()?;

        if let Some(committed) = self.outcomes.remove(&aid) {
            return Ok(if committed {
                Outcome::Committed
            } else {
                Outcome::Aborted
            });
        }
        let guardian = self.guardians.get(&origin).filter(|gu| gu.up);
        let coordinator = guardian.and_then(|gu| gu.coordinators.get(&aid));
        let outcome = match coordinator.map(|c| c.phase()) {
            Some(CoordPhase::Preparing) => {
                // Some participant is down or silent: unilateral abort
                // (§2.2.1, the Argus-system timeout).
                self.step(origin, Input::Timeout(aid))?;
                self.run_until_quiet()?;
                self.outcomes.remove(&aid);
                Outcome::Aborted
            }
            // Committed; the missing acknowledgements arrive once the timer
            // re-sends `Commit` or the crashed participant restarts.
            Some(CoordPhase::Committing) => Outcome::Committed,
            _ => Outcome::Pending,
        };
        // A round still open when its caller stops waiting ends here.
        if let Some(t0) = self.live.get_mut(&aid).and_then(|l| l.launched_at.take()) {
            self.obs
                .record_since(Hist::TwopcCommitRoundUs, &self.clock, t0);
        }
        Ok(outcome)
    }

    // ---- crashes and restarts ----------------------------------------------

    /// Crashes a guardian: volatile state is lost; the stable media survive.
    pub fn crash(&mut self, g: GuardianId) {
        self.mark_crashed(g);
    }

    fn mark_crashed(&mut self, g: GuardianId) {
        // A guardian that found its device gone inside a step is down
        // already, and `apply` has counted it.
        if self.guardians.get_mut(&g).is_some_and(Guardian::crashed) {
            self.obs.inc(Count::WorldCrashes);
        }
        self.staged_ready.remove(&g);
        self.net.mark_down(g);
        // Requests parked on objects in the crashed heap are moot: the
        // volatile heap (locks included) is gone. Abort the waiting actions
        // so their drivers see a fate and can retry.
        let drained = self.cc.drain_guardian(g);
        for (_key, waiter) in drained {
            self.cc_fates.insert(waiter.aid, CcFate::CrashDrained);
            self.abort_local(waiter.aid);
        }
    }

    /// Arms the guardian's fault plan: the node will crash when the
    /// `n + 1`-th subsequent low-level page write begins.
    pub fn arm_crash_after_writes(&mut self, g: GuardianId, n: u64) -> WorldResult<()> {
        let guardian = self.guardian_mut(g)?;
        guardian.plan.arm_after_writes(n);
        Ok(())
    }

    /// Arms the guardian's fault plan on *any* device operation — reads,
    /// writes, and forces all count — so a crash can land inside the
    /// read-mostly scan of recovery itself.
    pub fn arm_crash_after_ops(&mut self, g: GuardianId, n: u64) -> WorldResult<()> {
        let guardian = self.guardian_mut(g)?;
        guardian.plan.arm_after_ops(n);
        Ok(())
    }

    /// A handle on the guardian's fault plan. Clones share countdown,
    /// trace, and op-count state, so crash-schedule sweepers can count
    /// device operations and read the crash frontier from outside.
    pub fn fault_plan(&self, g: GuardianId) -> WorldResult<FaultPlan> {
        Ok(self.guardian(g)?.plan.clone())
    }

    /// Decays one media copy of page `pno` on the guardian's store (media
    /// failure injection, §3.1). Returns `false` when the organization's
    /// media keep no redundant copy to decay (plain memory store).
    pub fn decay_page(&mut self, g: GuardianId, pno: argus_stable::PageNo) -> WorldResult<bool> {
        Ok(self.guardian_mut(g)?.rs.decay_page(pno))
    }

    /// Whether the node is up. A node downed by an armed fault plan is only
    /// discovered at its next storage operation, so check after operations.
    pub fn is_up(&self, g: GuardianId) -> bool {
        self.guardians
            .get(&g)
            .map(|gu| gu.up && !gu.plan.is_crashed())
            .unwrap_or(false)
    }

    /// Selects how `g`'s next recovery pass rebuilds state. Returns whether
    /// the guardian's organization supports the mode (only the redo
    /// organization supports `Parallel` and `OnDemand`).
    pub fn set_recovery_mode(
        &mut self,
        g: GuardianId,
        mode: argus_core::RecoveryMode,
    ) -> WorldResult<bool> {
        Ok(self.guardian_mut(g)?.rs.set_recovery_mode(mode))
    }

    /// Log entries an on-demand recovery has left unrestored on `g`.
    pub fn lazy_pending(&self, g: GuardianId) -> WorldResult<u64> {
        Ok(self.guardian(g)?.rs.lazy_pending())
    }

    /// The modeled restart makespan of `g`'s last recovery pass (`None`
    /// unless the organization tracks one — the redo organization's
    /// scan-plus-slowest-worker figure for parallel replay).
    pub fn recovery_makespan_us(&self, g: GuardianId) -> WorldResult<Option<u64>> {
        Ok(self.guardian(g)?.rs.recovery_makespan_us())
    }

    /// The heap-miss path: materializes `uid` on guardian `g` if it is
    /// lazily pending from an on-demand recovery, returning its heap handle.
    /// `Ok(None)` means the object is simply unknown — a true dangling
    /// reference, not a deferred one.
    pub fn demand(&mut self, g: GuardianId, uid: Uid) -> WorldResult<Option<HeapId>> {
        let guardian = self.guardian_mut(g)?;
        if let Some(h) = guardian.heap.lookup(uid) {
            return Ok(Some(h));
        }
        if guardian.rs.demand_restore(uid, &mut guardian.heap)? {
            self.obs.inc(Count::WorldDemandRestores);
            return Ok(self.guardian(g)?.heap.lookup(uid));
        }
        Ok(None)
    }

    /// Restarts a crashed guardian: runs recovery, resumes in-doubt
    /// participants (they query their coordinators) and committing
    /// coordinators (they re-send commits), then drives the network to
    /// quiescence. Returns the recovery outcome for inspection.
    ///
    /// A restart writes — the log opens its next epoch before it takes an
    /// append — so a write countdown armed while the node was up
    /// ([`World::arm_crash_after_writes`]) can fire inside it. That is an
    /// error here and leaves the node down, its plan crashed;
    /// [`World::restart_with_crash_after_ops`] reports it as `Ok(None)`.
    pub fn restart(&mut self, g: GuardianId) -> WorldResult<RecoveryOutcome> {
        self.restart_inner(g, None)?.ok_or_else(|| {
            WorldError::Rs(argus_core::RsError::BadState(
                "restart crashed on a countdown armed before it".into(),
            ))
        })
    }

    /// Restarts a crashed guardian with a *second* crash armed to fire once
    /// `ops` further device operations (reads, writes, and forces all
    /// count) have begun — so the fault lands inside recovery itself, or in
    /// the protocol resumption right after it. Returns `Ok(None)` when the
    /// second crash interrupted recovery: the guardian is left down and can
    /// be restarted again with a plain [`World::restart`].
    pub fn restart_with_crash_after_ops(
        &mut self,
        g: GuardianId,
        ops: u64,
    ) -> WorldResult<Option<RecoveryOutcome>> {
        self.restart_inner(g, Some(ops))
    }

    fn restart_inner(
        &mut self,
        g: GuardianId,
        arm_ops: Option<u64>,
    ) -> WorldResult<Option<RecoveryOutcome>> {
        let timer = self.obs.phase(Hist::WorldRestartUs, &self.clock);
        // The crash already cleared the staged batch; drop any stale ready
        // marker before recovery repopulates the world's view of `g`.
        self.staged_ready.remove(&g);
        let tracer = self.tracer.clone();
        // Begin/End (not retroactive Complete) is safe here: every exit
        // path drops the guard, including the crash-in-recovery returns.
        let _restart_span = tracer.begin(Kind::Restart, g.0, None);
        let guardian = self
            .guardians
            .get_mut(&g)
            .ok_or(WorldError::NoGuardian(g))?;
        guardian.plan.heal();
        if let Some(n) = arm_ops {
            guardian.plan.arm_after_ops(n);
        }
        let restarted = guardian.restart(&mut self.fx);
        if guardian.up {
            // Mail deferred past the crash flows ahead of what resumes.
            self.net.mark_up(g);
        }
        self.apply(g);
        let Some(outcome) = restarted? else {
            // The armed second crash fired as the log reopened or inside
            // recovery; a plain restart picks up from what the device holds.
            timer.stop();
            self.obs.inc(Count::WorldRecoveryCrashes);
            return Ok(None);
        };
        self.run_until_quiet()?;
        // A node coming back may be the coordinator some other guardian's
        // in-doubt participant is waiting on; model the periodic query of
        // §2.2.2 by a world-wide re-query sweep.
        self.requery_in_doubt()?;
        timer.stop();
        self.obs.inc(Count::WorldRestarts);
        Ok(Some(outcome))
    }

    /// Every in-doubt participant on an up guardian re-queries its
    /// coordinator — the thesis's "if a participant has not heard from its
    /// coordinator it can query the coordinator" (§2.2.2) — and every
    /// committing coordinator re-sends `Commit` to the participants whose
    /// acknowledgement it lacks (§2.2.3): the timer a real system runs.
    pub fn requery_in_doubt(&mut self) -> WorldResult<()> {
        // In guardian order, and by action within each: the order of
        // sending decides which message a seeded network fault falls on.
        for n in 0..self.next_gid {
            self.step(GuardianId(n), Input::Requery)?;
        }
        self.run_until_quiet()
    }

    // ---- message loop -------------------------------------------------------

    /// Delivers messages until the network is quiet *and* no guardian holds
    /// staged log entries.
    ///
    /// Between deliveries the group-commit scheduler is polled: a guardian
    /// whose batch filled up or whose window expired forces immediately.
    /// When the network drains, every remaining staged batch is forced (the
    /// idle flush — with no more work arriving there is nothing to gain by
    /// waiting), which typically releases replies back into the network, so
    /// the loop repeats until both are empty.
    pub fn run_until_quiet(&mut self) -> WorldResult<()> {
        let mut budget = 1_000_000u64;
        loop {
            while let Some(envelope) = self.net.deliver_next() {
                self.step(envelope.to, Input::Message(envelope))?;
                self.flush_due_forces()?;
                budget -= 1;
                if budget == 0 {
                    return Err(WorldError::Rs(argus_core::RsError::BadState(
                        "message loop did not quiesce".into(),
                    )));
                }
            }
            let flushed = self.flush_all_staged()?;
            // Forces just installed commits/aborts, releasing heap locks:
            // grant what the releases unblocked, then expire overdue waits.
            let pumped = self.cc_pump();
            let ticked = self.cc_tick();
            if !flushed && !pumped && !ticked {
                return Ok(());
            }
        }
    }

    /// The one seam between the world and a guardian's protocol: `g` takes
    /// one step, and what it asks for is applied before anything else runs —
    /// also when the step fails, as the mail it gathered before failing
    /// was on its way already.
    fn step(&mut self, g: GuardianId, input: Input) -> WorldResult<()> {
        let Some(guardian) = self.guardians.get_mut(&g) else {
            return Ok(());
        };
        let stepped = guardian.step(input, &mut self.fx);
        self.apply(g);
        stepped
    }

    /// Drains what `g`'s last step asked for, in an order that is part of
    /// the contract (the trace and a seeded network fault both see it): mail
    /// goes out; each staged entry puts `g` in the ready set and its force
    /// deadline in the min-deadline heap, so the message loop polls in
    /// O(log n) of the *staged* guardians, never the whole world; a verdict
    /// is booked; a crash the guardian decided inside is finished outside.
    fn apply(&mut self, g: GuardianId) {
        #[cfg(test)]
        {
            self.mail_applied += self.fx.send.len() as u64;
        }
        for envelope in self.fx.send.drain(..) {
            self.net.send(envelope);
        }
        for due_at in self.fx.due.drain(..) {
            self.staged_ready.insert(g);
            self.force_due.push(Reverse((due_at, g)));
        }
        if let Some((aid, committed)) = self.fx.resolved.take() {
            let live = self.live.remove(&aid).unwrap_or_default();
            self.close_action(aid, &live, committed);
            self.outcomes.insert(aid, committed);
        }
        if std::mem::take(&mut self.fx.crashed) {
            self.obs.inc(Count::WorldCrashes);
            self.mark_crashed(g);
        }
    }

    /// Forces the staged batch of every up guardian whose scheduler says
    /// the batch is due (full, or window expired on the simulated clock).
    ///
    /// Pops only heap entries whose deadline has passed; each pop is one
    /// `world.sched.polls` tick, so per-delivery work is proportional to
    /// guardians with due batches — not to the size of the world.
    fn flush_due_forces(&mut self) -> WorldResult<()> {
        let now = self.clock.now();
        while let Some(&Reverse((at, g))) = self.force_due.peek() {
            if at > now {
                break;
            }
            self.force_due.pop();
            self.obs.inc(Count::WorldSchedPolls);
            let guardian = self.guardians.get(&g);
            if guardian.is_some_and(|gu| gu.up && gu.force_sched.due(now)) {
                self.flush_staged(g)?;
            }
        }
        Ok(())
    }

    /// Forces every non-empty staged batch; returns whether any force ran
    /// (and hence new messages may be in flight). Visits the ready set, not
    /// every guardian.
    fn flush_all_staged(&mut self) -> WorldResult<bool> {
        let staged = |g: &GuardianId| {
            let guardian = self.guardians.get(g);
            guardian.is_some_and(|gu| gu.up && !gu.staged.is_empty())
        };
        let ready = self.staged_ready.iter().copied();
        let pending: Vec<GuardianId> = ready.filter(staged).collect();
        self.obs
            .add(Count::WorldSchedPolls, self.staged_ready.len() as u64);
        let any = !pending.is_empty();
        for g in pending {
            self.flush_staged(g)?;
        }
        Ok(any)
    }

    /// Has `g` force its staged batch, then feeds the continuations back one
    /// step each, in staging order: every step's effects are applied before
    /// the next runs, so a local commit's `action` span precedes the mail of
    /// the distributed one staged behind it.
    fn flush_staged(&mut self, g: GuardianId) -> WorldResult<()> {
        let Some(guardian) = self.guardians.get_mut(&g) else {
            return Ok(());
        };
        let forced = guardian.force(&mut self.fx);
        self.staged_ready.remove(&g);
        self.apply(g);
        for (op, _staged_at) in forced? {
            self.step(g, Input::Forced(op))?;
        }
        Ok(())
    }

    /// The verdict of `aid`'s finished coordinator, if no
    /// [`World::commit_settle`] has taken it yet — one recovery booked after
    /// the client was answered `Pending`, say. Looking does not take it.
    pub fn verdict(&self, aid: ActionId) -> Option<bool> {
        self.outcomes.get(&aid).copied()
    }

    /// The per-action rows the world and its guardians hold: live actions,
    /// untaken verdicts and fates, parked requests and policed commits, and
    /// every guardian's MOS, known actions, machines and staged steps. They
    /// are bounded by the actions in flight and in doubt, not by history.
    pub fn retained_actions(&self) -> usize {
        let world = self.live.len() + self.outcomes.len() + self.cc_fates.len();
        let guardians = self.guardians.values().map(Guardian::retained_actions);
        world + self.cc.waiter_count() + self.policed.len() + guardians.sum::<usize>()
    }

    /// Network statistics.
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }

    /// Enables deterministic network fault injection (message duplication
    /// and reordering) for everything delivered from now on.
    pub fn enable_network_faults(&mut self, seed: u64, duplicate_prob: f64, defer_prob: f64) {
        self.net
            .set_faults(Some(NetFaults::new(seed, duplicate_prob, defer_prob)));
    }

    /// Installs (or removes) a fully-specified network fault injector —
    /// the general form of [`World::enable_network_faults`], used by fault
    /// explorers that also want message loss ([`NetFaults::with_drop`]).
    pub fn set_network_faults(&mut self, faults: Option<NetFaults>) {
        self.net.set_faults(faults);
    }

    /// Partitions the network between `a` and `b`: mail between them (both
    /// directions) is held — not lost — until the pair is healed.
    pub fn partition(&mut self, a: GuardianId, b: GuardianId) {
        self.net.partition(a, b);
    }

    /// Heals the partition between `a` and `b`; held mail flows again.
    pub fn heal_partition(&mut self, a: GuardianId, b: GuardianId) {
        self.net.heal(a, b);
    }

    /// Heals every active partition.
    pub fn heal_all_partitions(&mut self) {
        self.net.heal_all();
    }

    /// Pauses a guardian: it stops receiving mail (held, not lost) while
    /// the rest of the world — including the shared clock — runs on. The
    /// cheap model of a stalled node whose clock has skewed behind.
    pub fn pause_guardian(&mut self, g: GuardianId) {
        self.net.pause(g);
    }

    /// Resumes a paused guardian; its held mail flows again.
    pub fn resume_guardian(&mut self, g: GuardianId) {
        self.net.resume(g);
    }

    /// Installs an automatic housekeeping policy at `g`: after each commit
    /// or abort record, if the guardian's log has grown past `max_entries`,
    /// the world runs a housekeeping pass — "Whenever the Argus system has
    /// determined that enough old information has accumulated on stable
    /// storage at a guardian, it calls the housekeeping operation" (§2.3).
    pub fn set_housekeeping_policy(
        &mut self,
        g: GuardianId,
        max_entries: u64,
        mode: HousekeepingMode,
    ) -> WorldResult<()> {
        let guardian = self.guardian_mut(g)?;
        guardian.hk_policy = Some((max_entries, mode));
        Ok(())
    }

    /// Applies the housekeeping policy at `g` if its threshold is exceeded.
    /// Returns whether a pass ran.
    pub fn maybe_housekeep(&mut self, g: GuardianId) -> WorldResult<bool> {
        let guardian = self.guardian_mut(g)?;
        let Some((max_entries, mode)) = guardian.hk_policy else {
            return Ok(false);
        };
        if !guardian.up || guardian.rs.log_stats().entries <= max_entries {
            return Ok(false);
        }
        match self.housekeeping_pass(g, mode) {
            // Flushing the staged batch took the node down.
            Err(WorldError::Down(_)) => Ok(false),
            ran => ran,
        }
    }
}
