//! One guardian: heap + recovery system + protocol state.

use crate::live::LocalAction;
use crate::world::{MediaKind, WorldConfig};
use crate::WorldResult;
use argus_cc::LockMode;
use argus_core::providers::{CachedProvider, FileProvider, MemProvider, MirrorProvider};
use argus_core::{
    HousekeepingMode, HybridLogRs, LogEntry, LogStats, RecoveryOutcome, RecoverySystem, RedoRs,
    RsError, RsResult, SimpleLogRs, StoreProvider,
};
use argus_objects::{
    ActionId, GuardianId, Heap, HeapError, HeapId, HeapResult, ObjKind, ObjectBody, Value,
};
use argus_obs::Hist;
use argus_shadow::ShadowRs;
use argus_sim::{CostModel, IntMap, SimClock};
use argus_slog::{ForceConfig, ForceScheduler, LogAddress};
use argus_stable::FaultPlan;
use argus_trace::Kind;
use argus_twopc::{
    CoordEffect, CoordPhase, Coordinator, Envelope, Msg, PartEffect, PartPhase, Participant,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which stable-storage organization a guardian runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsKind {
    /// The simple log (ch. 3).
    Simple,
    /// The hybrid log (ch. 4/5) — the thesis's contribution.
    Hybrid,
    /// The shadowing baseline (§1.2.1).
    Shadow,
    /// The REDO-only log with backlink chains and on-demand recovery.
    Redo,
}

impl RsKind {
    /// Every organization. Cross-organization suites iterate this instead
    /// of naming kinds, so a new organization cannot dodge one.
    pub const ALL: [RsKind; 4] = [RsKind::Simple, RsKind::Hybrid, RsKind::Shadow, RsKind::Redo];

    /// The organization's one name: flags, the repl and the tables spell it.
    pub fn name(self) -> &'static str {
        ["simple", "hybrid", "shadow", "redo"][self as usize]
    }

    /// The housekeeping modes the organization supports, the snapshot first
    /// where it has one (§5.2's snapshot copies mutex state through the
    /// hybrid log's map; the simple and redo logs have none). Suites, the
    /// sweeper and the VOPR read this one table.
    pub fn housekeeping_modes(self) -> &'static [HousekeepingMode] {
        match self {
            RsKind::Simple | RsKind::Redo => &[HousekeepingMode::Compaction],
            RsKind::Hybrid | RsKind::Shadow => {
                &[HousekeepingMode::Snapshot, HousekeepingMode::Compaction]
            }
        }
    }
}

impl std::str::FromStr for RsKind {
    type Err = String;

    /// The organization [`RsKind::name`] calls `name`.
    fn from_str(name: &str) -> Result<Self, String> {
        let kind = Self::ALL.into_iter().find(|k| k.name() == name);
        kind.ok_or_else(|| format!("unknown organization {name:?}"))
    }
}

/// A durability-dependent step whose protocol continuation is waiting on a
/// group-commit force (§3.2's "force_write makes every earlier buffered
/// entry durable" turned into a scheduler).
///
/// Each variant names the entry a recovery system has *staged* via its
/// `stage_*` operation; once [`Guardian::force`] has run the shared force,
/// the driver feeds each back as [`Input::Forced`] and the matching
/// two-phase-commit continuation fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagedOp {
    /// A staged prepared record; on force, `prepare_succeeded`.
    Prepare(ActionId),
    /// A participant's `committed`, its versions already installed; on
    /// force, acknowledge.
    Commit(ActionId),
    /// A participant's `aborted`, its versions already discarded; on
    /// force, forget the action.
    Abort(ActionId),
    /// The coordinator's whole commit point at its own guardian — data
    /// entries, `prepared`, `committing` (unless the action is local) and
    /// `committed` staged as one step; on force, install versions and enter
    /// phase two, or finish a local action. (`done` has no variant: nothing
    /// waits on it.)
    CommitPoint(ActionId),
}

impl StagedOp {
    /// The action whose durability this staged entry carries.
    pub(crate) fn aid(&self) -> ActionId {
        match self {
            Self::Prepare(aid) | Self::Commit(aid) | Self::Abort(aid) | Self::CommitPoint(aid) => {
                *aid
            }
        }
    }
}

/// Everything that can happen to a guardian's halves of two-phase commit
/// while it is up; a restart is [`Guardian::restart`].
#[derive(Debug)]
pub enum Input {
    /// A protocol message arrived.
    Message(Envelope),
    /// The client asked to commit `aid`, which ran at these guardians.
    Commit(ActionId, Vec<GuardianId>),
    /// The record `op` waited on is durable (one per step, in staging
    /// order: each continuation's effects are applied before the next runs).
    Forced(StagedOp),
    /// The Argus-system timeout (§2.2.1): give up on `aid`'s silent voters.
    Timeout(ActionId),
    /// The periodic timer of §2.2.2–§2.2.3: every in-doubt participant asks
    /// its coordinator again, and every committing coordinator re-sends
    /// `Commit` to the participants it still awaits.
    Requery,
}

/// What a step asks of the guardian's driver, which applies it in field
/// order after every step. Owned by the driver and reused, so a steady-state
/// step allocates nothing here.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// Mail to send, in order.
    pub send: Vec<Envelope>,
    /// One force deadline per entry the step staged.
    pub due: Vec<u64>,
    /// The final verdict of an action this guardian coordinated.
    pub resolved: Option<(ActionId, bool)>,
    /// The device crashed under the step: the guardian is down, its staged
    /// batch is gone, and the driver finishes the crash outside.
    pub crashed: bool,
}

/// What an action does to an object once it holds the lock.
pub enum Touch<F> {
    /// Nothing more: the read lock is the point.
    Read,
    /// Mutate the current version of a write-locked atomic object.
    Write(F),
    /// Mutate a seized mutex object, then release it.
    Mutex(F),
}

/// A mutation that outlives its call because its lock request parked.
pub(crate) type Parked = Box<dyn FnOnce(&mut Value)>;

impl<F> Touch<F> {
    /// The lock the touch needs.
    pub(crate) fn mode(&self) -> LockMode {
        match self {
            Self::Read => LockMode::Shared,
            Self::Write(_) | Self::Mutex(_) => LockMode::Exclusive,
        }
    }
}

impl<F: FnOnce(&mut Value) + 'static> Touch<F> {
    /// Boxes the mutation — only a request that parks pays for this.
    pub(crate) fn boxed(self) -> Touch<Parked> {
        match self {
            Self::Read => Touch::Read,
            Self::Write(f) => Touch::Write(Box::new(f)),
            Self::Mutex(f) => Touch::Mutex(Box::new(f)),
        }
    }
}

/// The trace key for an action: the id, decomposed so every crate stamps
/// events the same way.
pub(crate) fn tkey(aid: ActionId) -> argus_trace::Key {
    argus_trace::Key::new(aid.coordinator.0, aid.seq)
}

/// A guardian: a logical node with stable and volatile state (§2.1).
///
/// "When a guardian's node crashes, all processes within the guardian
/// disappear, but a subset of the guardian's state survives" — here, the
/// recovery system's stable log survives; everything else in this struct is
/// volatile and is rebuilt by [`Guardian::restart`]. A guardian over a
/// recovery system that is a value clones into an independent copy that
/// shares the clock, tracer and fault plan handles.
#[derive(Clone)]
pub struct Guardian<R: ?Sized = dyn RecoverySystem> {
    /// This guardian's identity.
    pub id: GuardianId,
    /// Volatile object memory.
    pub heap: Heap,
    /// What the heaps this guardian had before the current one released,
    /// each counted one more: see [`Guardian::lock_stamp`].
    released_before: u64,
    /// The recovery system over this guardian's stable log.
    pub(crate) rs: Box<R>,
    /// The fault plan shared with the guardian's storage stack.
    pub(crate) plan: FaultPlan,
    /// Whether the node is up.
    pub(crate) up: bool,
    /// One row per action known here: begun or touched since the last
    /// crash, or in two-phase commit here. A row goes when its machine here
    /// finishes or the action aborts here.
    pub(crate) actions: IntMap<ActionId, LocalAction>,
    /// Action-id sequence for top-level actions originating here.
    pub(crate) next_seq: u64,
    /// Automatic housekeeping policy: (max log entries, mode).
    pub(crate) hk_policy: Option<(u64, HousekeepingMode)>,
    /// Group-commit scheduler deciding when staged entries are forced.
    pub(crate) force_sched: ForceScheduler,
    /// Continuations awaiting the next force, in staging order, each with
    /// the simulated time it was staged (the start of its `force_wait`
    /// trace span).
    pub(crate) staged: Vec<(StagedOp, u64)>,
    /// Emptied coordinator effect lists, reused by the next transitions (a
    /// transition whose effects run another needs a second one).
    spare_fx: Vec<Vec<CoordEffect>>,
    /// The world's clock, tracer and registry; the `twopc.*_us` phase
    /// timings read the clock.
    clock: SimClock,
    tracer: argus_trace::Tracer,
    obs: argus_obs::Registry,
    /// The directory this guardian chose for its files, if it chose one;
    /// removed when the guardian is dropped, after the log inside it.
    _owned_dir: Option<Arc<OwnedDir>>,
}

/// A directory under the OS temp dir that nothing can reopen once its
/// guardian is gone, so the guardian takes it along.
struct OwnedDir(std::path::PathBuf);

impl Drop for OwnedDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl<R: ?Sized> std::fmt::Debug for Guardian<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guardian")
            .field("id", &self.id)
            .field("up", &self.up)
            .field("objects", &self.heap.len())
            .finish()
    }
}

impl Guardian {
    /// Creates a fresh guardian with an empty stable state.
    pub(crate) fn new(
        id: GuardianId,
        kind: RsKind,
        clock: SimClock,
        model: CostModel,
        cfg: &WorldConfig,
        tracer: argus_trace::Tracer,
        obs: &argus_obs::Registry,
    ) -> RsResult<Self> {
        let plan = FaultPlan::new();
        let device_clock = clock.clone();
        let mut owned_dir = None;
        let rs = match cfg.media {
            MediaKind::Mem => {
                let provider = MemProvider {
                    clock: device_clock,
                    model,
                    plan: Some(plan.clone()),
                };
                Self::build(kind, provider, cfg)?
            }
            MediaKind::Mirrored => {
                let provider = MirrorProvider {
                    clock: device_clock,
                    model,
                    plan: plan.clone(),
                };
                Self::build(kind, provider, cfg)?
            }
            // A real file: one subdirectory per guardian so several
            // guardians (and several worlds) never share a log file. The
            // FaultPlan does not apply here — a real file has real crash
            // semantics (unsynced writes are lost, synced ones survive).
            MediaKind::File { dir } => {
                let base = match dir {
                    Some(d) => std::path::PathBuf::from(d),
                    None => {
                        static UNIQ: std::sync::atomic::AtomicU64 =
                            std::sync::atomic::AtomicU64::new(0);
                        let n = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let name = format!("argus-world-{}-{n}", std::process::id());
                        let dir = std::env::temp_dir().join(name);
                        owned_dir = Some(OwnedDir(dir.clone()));
                        dir
                    }
                };
                let provider = FileProvider::new(base.join(format!("g{}", id.0)))
                    .map(|p| p.with_device(device_clock, model))
                    .map_err(|e| argus_core::RsError::BadState(format!("file provider: {e}")))?;
                Self::build(kind, provider, cfg)?
            }
        };
        let mut guardian = Self::assemble(id, rs, plan, clock, cfg.force, tracer, obs);
        guardian._owned_dir = owned_dir.map(Arc::new);
        Ok(guardian)
    }

    /// Builds organization `kind` over `provider`. Log organizations read
    /// through a volatile page cache; shadowing keeps its direct store (its
    /// page map is already its own cache).
    fn build<P: StoreProvider + 'static>(
        kind: RsKind,
        provider: P,
        cfg: &WorldConfig,
    ) -> RsResult<Box<dyn RecoverySystem>> {
        let cached = |provider| CachedProvider::new(provider, cfg.cache);
        Ok(match kind {
            RsKind::Simple => Box::new(SimpleLogRs::create(cached(provider))?),
            RsKind::Hybrid => Box::new(HybridLogRs::create(cached(provider))?),
            RsKind::Shadow => Box::new(ShadowRs::create(provider)?),
            RsKind::Redo => Box::new(RedoRs::create(cached(provider))?),
        })
    }

    /// The mutation of the stable root that binds `name` to `value`.
    pub(crate) fn bind_stable(name: &str, value: Value) -> impl FnOnce(&mut Value) {
        let name = name.to_owned();
        move |v| {
            let pairs = match v {
                Value::Seq(pairs) => pairs,
                other => {
                    *other = Value::Seq(Vec::new());
                    match other {
                        Value::Seq(pairs) => pairs,
                        _ => unreachable!(),
                    }
                }
            };
            for pair in pairs.iter_mut() {
                if let Value::Seq(kv) = pair {
                    if let [Value::Str(n), slot] = kv.as_mut_slice() {
                        if *n == name {
                            *slot = value;
                            return;
                        }
                    }
                }
            }
            pairs.push(Value::Seq(vec![Value::Str(name), value]));
        }
    }
}

impl<R: RecoverySystem + ?Sized> Guardian<R> {
    /// A fresh guardian over `rs` outside any [`crate::World`] — its own
    /// clock, default group commit, the thread's registry and tracer — for
    /// a driver that steps it and applies the effects itself.
    pub fn over(id: GuardianId, rs: Box<R>) -> Self {
        let (tracer, obs) = (argus_trace::current(), argus_obs::current());
        let (plan, clock, force) = (FaultPlan::new(), SimClock::new(), ForceConfig::default());
        Self::assemble(id, rs, plan, clock, force, tracer, &obs)
    }

    fn assemble(
        id: GuardianId,
        rs: Box<R>,
        plan: FaultPlan,
        clock: SimClock,
        force: ForceConfig,
        tracer: argus_trace::Tracer,
        obs: &argus_obs::Registry,
    ) -> Self {
        Self {
            id,
            heap: Heap::with_stable_root(),
            released_before: 0,
            rs,
            plan,
            up: true,
            actions: IntMap::default(),
            next_seq: 0,
            hk_policy: None,
            force_sched: ForceScheduler::new(force),
            staged: Vec::new(),
            spare_fx: Vec::new(),
            clock,
            tracer,
            obs: obs.clone(),
            _owned_dir: None,
        }
    }

    /// Whether the node is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The committed value of the stable variable `name`, if set.
    pub fn stable_value(&self, name: &str) -> Option<Value> {
        self.stable_value_as(name, None)
    }

    /// The value of the stable variable `name` as seen by `aid` (its own
    /// uncommitted version while it holds the write lock on the root).
    pub fn stable_value_as(&self, name: &str, aid: Option<ActionId>) -> Option<Value> {
        let root = self.heap.stable_root()?;
        let value = self.heap.read_value(root, aid).ok()?;
        if let Value::Seq(pairs) = value {
            for pair in pairs {
                if let Value::Seq(kv) = pair {
                    if let [Value::Str(n), v] = kv.as_slice() {
                        if n == name {
                            return Some(v.clone());
                        }
                    }
                }
            }
        }
        None
    }

    /// Log and device statistics for this guardian's recovery system.
    pub fn log_stats(&self) -> LogStats {
        self.rs.log_stats()
    }

    /// The recovery system.
    pub fn recovery_system(&self) -> &R {
        &self.rs
    }

    /// Every decoded entry of this guardian's log, oldest first, for
    /// external audits like the `argus-check` linter (`None` when the
    /// organization keeps no log, e.g. the shadowing baseline).
    pub fn dump_log(&mut self) -> RsResult<Option<Vec<(LogAddress, LogEntry)>>> {
        self.rs.dump_log()
    }
}

// ---- actions: lock, then touch ---------------------------------------------

impl<R: RecoverySystem + ?Sized> Guardian<R> {
    /// Begins a top-level action originating (and coordinated) here.
    pub(crate) fn begin(&mut self) -> ActionId {
        let aid = ActionId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.actions.entry(aid).or_default().known = true;
        aid
    }

    /// Takes the lock `mode` asks for on `h`, or reports who is in the way:
    /// a read or write lock on an atomic object (§2.4.1), possession of a
    /// mutex (§2.4.2) — except that reading a mutex takes no lock.
    pub(crate) fn lock(&mut self, aid: ActionId, h: HeapId, mode: LockMode) -> HeapResult<()> {
        match (self.heap.get(h)?.body.kind(), mode) {
            (ObjKind::Atomic, LockMode::Shared) => self.heap.acquire_read(h, aid),
            (ObjKind::Atomic, LockMode::Exclusive) => self.heap.acquire_write(h, aid),
            (ObjKind::Mutex, LockMode::Shared) => Ok(()),
            (ObjKind::Mutex, LockMode::Exclusive) => self.heap.seize(h, aid),
        }
    }

    /// Whether [`Guardian::lock`] would take `mode` on `h` for `aid` now —
    /// asked without building the refusal, as the grant pump asks it of
    /// every front it probes.
    pub(crate) fn grantable(&self, aid: ActionId, h: HeapId, mode: LockMode) -> bool {
        let Ok(slot) = self.heap.get(h) else {
            return false;
        };
        let own = |holder: ActionId| holder == aid;
        match (&slot.body, mode) {
            (ObjectBody::Atomic(obj), LockMode::Shared) => obj.writer.is_none_or(own),
            (ObjectBody::Atomic(obj), LockMode::Exclusive) => !obj.locked_by_other(aid),
            (ObjectBody::Mutex(_), LockMode::Shared) => true,
            (ObjectBody::Mutex(obj), LockMode::Exclusive) => obj.seized_by.is_none_or(own),
        }
    }

    /// Refuses `touch` on an object of the wrong kind — a write needs an
    /// atomic object, a mutation a mutex — before it locks or parks
    /// anything.
    pub(crate) fn fits<F>(&self, h: HeapId, touch: &Touch<F>) -> HeapResult<()> {
        let slot = self.heap.get(h)?;
        match (slot.body.kind(), touch) {
            (_, Touch::Read)
            | (ObjKind::Atomic, Touch::Write(_))
            | (ObjKind::Mutex, Touch::Mutex(_)) => Ok(()),
            _ => Err(HeapError::WrongKind { obj: slot.uid }),
        }
    }

    /// A number that moves whenever a lock request refused here may have
    /// become grantable ([`Heap::releases`]) and never repeats, not even
    /// across a restart, which replaces the heap.
    pub(crate) fn lock_stamp(&self) -> u64 {
        self.released_before + self.heap.releases()
    }

    /// Replaces the heap, carrying its release count past the old one's.
    pub(crate) fn reset_heap(&mut self, heap: Heap) {
        self.released_before += self.heap.releases() + 1;
        self.heap = heap;
    }

    /// Takes the lock `touch` needs on `h` for `aid` — or fails with who is
    /// in the way, or because `h` is not of the kind `touch` needs — and
    /// runs it. Returns whether it wrote.
    pub fn touch<F: FnOnce(&mut Value)>(
        &mut self,
        aid: ActionId,
        h: HeapId,
        touch: Touch<F>,
    ) -> HeapResult<bool> {
        self.fits(h, &touch)?;
        self.lock(aid, h, touch.mode())?;
        self.apply(aid, h, touch)
    }

    /// Runs `touch` on `h` under the lock [`Guardian::lock`] just granted
    /// and books the action's row here: it is known, and what it wrote joins
    /// its MOS. Returns whether it wrote.
    pub(crate) fn apply<F: FnOnce(&mut Value)>(
        &mut self,
        aid: ActionId,
        h: HeapId,
        touch: Touch<F>,
    ) -> HeapResult<bool> {
        let wrote = match touch {
            Touch::Read => false,
            Touch::Write(f) => {
                self.heap.write_value(h, aid, f)?;
                true
            }
            Touch::Mutex(f) => {
                self.heap.mutate_mutex(h, aid, f)?;
                self.heap.release(h, aid)?;
                true
            }
        };
        let row = self.actions.entry(aid).or_default();
        row.known = true;
        if wrote && !row.mos.contains(&h) {
            row.mos.push(h);
        }
        Ok(wrote)
    }

    /// Aborts `aid` here before it prepared — a local abort, a refused
    /// prepare, a coordinator deciding before its commit point, or an
    /// `Abort` after a lost `Prepare`: its tentative versions and locks go
    /// and the recovery system drops what it noted. Nothing on the log names
    /// it as prepared, so no record is written. The row goes, but for a
    /// machine that still runs, which keeps it without the action's work.
    pub fn abort_unprepared(&mut self, aid: ActionId) {
        self.heap.abort_action(aid);
        debug_assert!(self.heap.locks_held_by(aid).is_empty(), "{aid} kept locks");
        self.rs.discard(aid);
        if !self.in_two_phase_commit(aid) {
            self.actions.remove(&aid);
        } else if let Some(row) = self.actions.get_mut(&aid) {
            (row.mos, row.known) = (Vec::new(), false);
        }
    }

    /// Whether `aid` has a two-phase-commit machine here.
    pub(crate) fn in_two_phase_commit(&self, aid: ActionId) -> bool {
        let row = self.actions.get(&aid);
        row.is_some_and(|row| row.coordinator.is_some() || row.participant.is_some())
    }

    /// The per-action rows held here: one per known action, and one per
    /// continuation awaiting a force.
    pub(crate) fn retained_actions(&self) -> usize {
        self.actions.len() + self.staged.len()
    }
}

// ---- two-phase commit: one step at a time ----------------------------------

impl<R: RecoverySystem + ?Sized> Guardian<R> {
    /// Runs one transition of this guardian's halves of two-phase commit and
    /// gathers what it asks of the outside world into `fx`. A down guardian
    /// does nothing. On `Err` the effects gathered so far still stand.
    pub fn step(&mut self, input: Input, fx: &mut Effects) -> WorldResult<()> {
        if !self.up {
            return Ok(());
        }
        match input {
            Input::Message(envelope) => self.deliver(envelope, fx),
            Input::Commit(aid, gids) => {
                let coordinator = Coordinator::new(aid, gids);
                self.actions.entry(aid).or_default().coordinator = Some(coordinator);
                self.coord_step(aid, |c, out| c.start_into(out), fx)
            }
            Input::Forced(op) => self.forced(op, fx),
            Input::Timeout(aid) => self.coord_step(aid, Coordinator::abort_unilaterally_into, fx),
            Input::Requery => {
                // The rows sit in a hash map, and the order of sending
                // decides which message a seeded network fault falls on.
                let (first, from) = (fx.send.len(), self.id);
                for (&aid, row) in &self.actions {
                    let in_doubt = row.participant.iter();
                    for p in in_doubt.filter(|p| p.phase() == PartPhase::Prepared) {
                        let (to, msg) = (p.coordinator, Msg::QueryOutcome { aid });
                        fx.send.push(Envelope { from, to, msg });
                    }
                    let committing = row.coordinator.iter();
                    for c in committing.filter(|c| c.phase() == CoordPhase::Committing) {
                        for to in c.awaiting() {
                            let msg = Msg::Commit { aid };
                            fx.send.push(Envelope { from, to, msg });
                        }
                    }
                }
                fx.send[first..].sort_by_key(|q| q.msg.aid());
                Ok(())
            }
        }
    }

    /// Forces the staged batch — participants' verdicts that rode along
    /// included — and returns its continuations, in staging order, for the
    /// driver to feed back as [`Input::Forced`]. One device
    /// force makes every staged entry durable atomically (its last frame is
    /// its commit point, DESIGN.md deviation 11), so a crash during the force
    /// loses the whole batch, exactly as an unbatched force that crashed.
    pub fn force(&mut self, fx: &mut Effects) -> WorldResult<Vec<(StagedOp, u64)>> {
        if !self.up || self.staged.is_empty() {
            return Ok(Vec::new());
        }
        let staged = std::mem::take(&mut self.staged);
        let batch = self.force_sched.batch_id();
        self.force_sched.flushed();
        let force_t0 = self.clock.now();
        match self.rs.force_staged() {
            Ok(()) => {}
            Err(e) if e.is_crash() => {
                // The batch died with the volatile buffer: no spans — the
                // staged actions resolve through recovery, not this force.
                fx.crashed = self.crashed();
                return Ok(Vec::new());
            }
            Err(e) => return Err(e.into()),
        }
        let (g, tracer, ops) = (self.id.0, &self.tracer, staged.len() as u64);
        tracer.complete(Kind::Force, g, None, force_t0, &[batch, ops]);
        for &(op, staged_at) in &staged {
            let key = Some(tkey(op.aid()));
            tracer.complete(Kind::ForceWait, g, key, staged_at, &[batch]);
        }
        Ok(staged)
    }

    /// The node goes down: staged-but-unforced entries died with the
    /// volatile buffer, so their continuations must never run (the
    /// participants never replied; two-phase commit resolves them after
    /// restart), and the heap is gone with them. Returns whether it was up.
    pub fn crashed(&mut self) -> bool {
        self.staged.clear();
        self.force_sched.flushed();
        self.reset_heap(Heap::new());
        std::mem::replace(&mut self.up, false)
    }

    /// Brings the node back (§2.1): the log reopens, losing what was never
    /// forced; the volatile rest starts empty and recovery rebuilds the
    /// heap; in-doubt participants query their coordinators (§2.2.2) and
    /// committing coordinators restart phase two (§2.2.3). `Ok(None)`: the
    /// device crashed under the restart, and the node stays down.
    pub fn restart(&mut self, fx: &mut Effects) -> WorldResult<Option<RecoveryOutcome>> {
        match self.rs.simulate_crash() {
            Err(e) if e.is_crash() => return Ok(None),
            reopened => reopened?,
        }
        self.crashed();
        self.actions.clear();
        let rec_t0 = self.tracer.now();
        let outcome = match self.rs.recover(&mut self.heap) {
            Err(e) if e.is_crash() => return Ok(None),
            recovered => recovered?,
        };
        self.tracer
            .complete(Kind::RecoveryPass, self.id.0, None, rec_t0, &[]);
        // A fresh log holds no stable root: re-create it.
        if self.heap.stable_root().is_none() {
            self.reset_heap(Heap::with_stable_root());
        }
        self.up = true;
        self.recovered(&outcome, fx)?;
        Ok(Some(outcome))
    }

    /// `aid`'s coordinator here, if it has one.
    pub fn coordinator(&self, aid: ActionId) -> Option<&Coordinator> {
        self.actions.get(&aid)?.coordinator.as_ref()
    }

    /// `aid`'s participant here, if it has one.
    pub fn participant(&self, aid: ActionId) -> Option<&Participant> {
        self.actions.get(&aid)?.participant.as_ref()
    }

    /// Whether `aid` is known here (a prepare for it is not refused).
    pub fn knows(&self, aid: ActionId) -> bool {
        self.actions.get(&aid).is_some_and(|row| row.known)
    }

    /// Whether a step waits on the next [`Guardian::force`].
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Whether a staged step needs a force to go on: not only participants'
    /// verdicts, which can ride whatever force comes next, wait for one.
    pub(crate) fn awaits_force(&self) -> bool {
        let rides = |op: &StagedOp| matches!(op, StagedOp::Commit(_) | StagedOp::Abort(_));
        self.staged.iter().any(|(op, _)| !rides(op))
    }

    /// What happens when `op`'s record is durable: the action's
    /// two-phase-commit machine moves on, and the commit point installs the
    /// coordinator's versions and gives the client its verdict. Runs once
    /// per forced step — fed back after [`Guardian::force`] for a batched
    /// entry, from `staged` for one that is durable as it stands.
    fn forced(&mut self, op: StagedOp, fx: &mut Effects) -> WorldResult<()> {
        let aid = op.aid();
        let step: fn(&mut Participant) -> Vec<PartEffect> = match op {
            StagedOp::Prepare(_) => Participant::prepare_succeeded,
            StagedOp::Commit(_) => Participant::commit_forced,
            StagedOp::Abort(_) => Participant::abort_forced,
            StagedOp::CommitPoint(_) => {
                self.heap.commit_action(aid);
                fx.resolved = Some((aid, true));
                return self.coord_step(aid, Coordinator::committing_forced_into, fx);
            }
        };
        let row = self.actions.get_mut(&aid);
        let more = row.and_then(|row| row.participant.as_mut()).map(step);
        self.exec_part(aid, more.unwrap_or_default(), fx)
    }

    /// Resumes what recovery found unfinished: in-doubt participants, which
    /// query their coordinators (§2.2.2), and committing coordinators, which
    /// restart phase two (§2.2.3). A resolved action is rebuilt nowhere: a
    /// late message about it meets it unknown, as it would have before the
    /// crash once its machine here had finished.
    fn recovered(&mut self, outcome: &RecoveryOutcome, fx: &mut Effects) -> WorldResult<()> {
        for aid in outcome.pt.prepared_actions() {
            let (participant, effects) = Participant::resume_in_doubt(aid, aid.coordinator);
            let row = self.actions.entry(aid).or_default();
            (row.participant, row.known) = (Some(participant), true);
            self.exec_part(aid, effects, fx)?;
        }
        for (aid, gids) in outcome.ct.committing_actions() {
            let (coordinator, mut effects) = Coordinator::resume_committing(aid, gids);
            self.actions.entry(aid).or_default().coordinator = Some(coordinator);
            self.exec_coord(aid, &mut effects, fx)?;
        }
        Ok(())
    }

    fn deliver(&mut self, envelope: Envelope, fx: &mut Effects) -> WorldResult<()> {
        let aid = envelope.msg.aid();
        let (from, peer) = (self.id, envelope.from);
        let to = peer;
        let mut reply = |msg| fx.send.push(Envelope { from, to, msg });
        match &envelope.msg {
            Msg::Prepare { .. } => {
                // "If the action is unknown at the participant (because it
                // never ran there, was aborted locally, or was wiped out by a
                // crash), then it replies aborted" (§2.2.2) — and so does a
                // late duplicate for one finished and forgotten here, which a
                // coordinator past preparing ignores.
                match self.actions.get_mut(&aid) {
                    Some(row) if row.participant.is_some() => {} // duplicate prepare
                    Some(row) if row.known => {
                        let (participant, effects) = Participant::on_prepare(aid, peer);
                        row.participant = Some(participant);
                        return self.exec_part(aid, effects, fx);
                    }
                    _ => reply(Msg::PrepareRefused { aid }),
                }
                Ok(())
            }
            Msg::Commit { .. } | Msg::Abort { .. } | Msg::Outcome { .. } => {
                let row = self.actions.get_mut(&aid);
                if let Some(participant) = row.and_then(|row| row.participant.as_mut()) {
                    let effects = participant.on_msg(&envelope.msg);
                    return self.exec_part(aid, effects, fx);
                }
                match envelope.msg {
                    // Participant already resolved and forgotten: re-ack a
                    // commit so the coordinator can finish.
                    Msg::Commit { .. } => reply(Msg::CommitAck { aid }),
                    // The action ran here but its `Prepare` was lost: abort
                    // it here (presumed abort). Nobody awaits an abort's
                    // acknowledgement, and for an unknown action there is
                    // nothing to abort.
                    Msg::Abort { .. } if self.knows(aid) && !self.in_two_phase_commit(aid) => {
                        self.abort_unprepared(aid);
                    }
                    _ => {}
                }
                Ok(())
            }
            Msg::QueryOutcome { .. } if self.coordinator(aid).is_none() => {
                // Forgotten ⇒ aborted (§2.2.3). A commit is forgotten only
                // after its last acknowledgement, so no participant still in
                // doubt can be asking about one.
                let committed = false;
                reply(Msg::Outcome { aid, committed });
                Ok(())
            }
            Msg::PrepareOk { .. }
            | Msg::PrepareRefused { .. }
            | Msg::CommitAck { .. }
            | Msg::QueryOutcome { .. } => {
                self.coord_step(aid, |c, out| c.on_msg_into(peer, &envelope.msg, out), fx)
            }
        }
    }

    /// Runs one transition of `aid`'s coordinator, then its effects. A
    /// transition that decides to abort aborts the action at home there and
    /// then: home never prepared — its `prepared` rides the commit point
    /// that now will not come — so its tentative versions, locks and MOS go,
    /// and no `aborted` record is written for an action the log never saw.
    fn coord_step(
        &mut self,
        aid: ActionId,
        step: impl FnOnce(&mut Coordinator, &mut Vec<CoordEffect>),
        fx: &mut Effects,
    ) -> WorldResult<()> {
        let row = self.actions.get_mut(&aid);
        let Some(coordinator) = row.and_then(|row| row.coordinator.as_mut()) else {
            return Ok(());
        };
        let undecided = coordinator.phase() == CoordPhase::Preparing;
        let mut effects = self.spare_fx.pop().unwrap_or_default();
        step(coordinator, &mut effects);
        if undecided && coordinator.phase() == CoordPhase::Aborted {
            self.abort_unprepared(aid);
        }
        let ran = self.exec_coord(aid, &mut effects, fx);
        effects.clear();
        self.spare_fx.push(effects);
        ran
    }

    fn exec_coord(
        &mut self,
        aid: ActionId,
        effects: &mut Vec<CoordEffect>,
        fx: &mut Effects,
    ) -> WorldResult<()> {
        let from = self.id;
        for effect in effects.drain(..) {
            match effect {
                CoordEffect::Send { to, msg } => fx.send.push(Envelope { from, to, msg }),
                CoordEffect::ForceCommitting => {
                    // The whole commit point at home, one staged step under
                    // one force (DESIGN.md deviation 12): data entries,
                    // `prepared`, `committing` unless the action is local,
                    // and home's own `committed`. An action a crash wiped
                    // out since it began is unknown here and aborts, as it
                    // would by refusing a prepare (§2.2.2).
                    let now = self.clock.now();
                    let Some(row) = self.actions.get_mut(&aid) else {
                        continue;
                    };
                    let mos = std::mem::take(&mut row.mos);
                    let (timer, span, gids) = match &row.coordinator {
                        Some(c) if !c.is_local() => (
                            Hist::TwopcCommittingUs,
                            Kind::CommitPoint,
                            &c.participants[..],
                        ),
                        _ => (Hist::TwopcCommitUs, Kind::CommitLocally, &[][..]),
                    };
                    let staged = if row.known {
                        self.rs.stage_commit_point(aid, &mos, &self.heap, gids)
                    } else {
                        Err(RsError::BadState(format!("{aid} is unknown at {from}")))
                    };
                    self.obs.record_since(timer, &self.clock, now);
                    if matches!(&staged, Err(e) if !e.is_crash()) {
                        // Unknown, or the entries could not be written.
                        self.coord_step(aid, Coordinator::abort_unilaterally_into, fx)?;
                    } else if !self.staged(StagedOp::CommitPoint(aid), span, now, staged, fx)? {
                        return Ok(());
                    }
                }
                CoordEffect::ForceDone => {
                    // Written, never forced and never waited for: `done`
                    // joins no batch and rides the guardian's next force (or
                    // its housekeeping prologue).
                    let now = self.clock.now();
                    self.rs.stage_done(aid)?;
                    self.twopc_span(Kind::Done, aid, now);
                }
                CoordEffect::Finished { committed } => {
                    // Every participant holds its verdict (the thesis's
                    // `done`): the action leaves nothing behind. A commit's
                    // verdict went to the client at the commit point.
                    self.actions.remove(&aid);
                    if !committed {
                        debug_assert!(fx.resolved.is_none(), "one verdict per step");
                        fx.resolved = Some((aid, false));
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_part(
        &mut self,
        aid: ActionId,
        effects: Vec<PartEffect>,
        fx: &mut Effects,
    ) -> WorldResult<()> {
        let from = self.id;
        let mut queue: VecDeque<PartEffect> = effects.into();
        while let Some(effect) = queue.pop_front() {
            let now = self.clock.now();
            let (op, span, timer, staged) = match effect {
                PartEffect::Send { to, msg } => {
                    fx.send.push(Envelope { from, to, msg });
                    continue;
                }
                PartEffect::Finished { .. } => {
                    // Forgotten: a late `Prepare` is refused as unknown, a
                    // late `Commit` re-acknowledged, a late `Abort` ignored.
                    self.actions.remove(&aid);
                    continue;
                }
                PartEffect::PrepareLocally => {
                    let row = self.actions.get_mut(&aid);
                    let mos = row.map_or(Vec::new(), |row| std::mem::take(&mut row.mos));
                    let staged = self.rs.stage_prepare(aid, &mos, &self.heap);
                    (
                        StagedOp::Prepare(aid),
                        Kind::Prepare,
                        Hist::TwopcPrepareUs,
                        staged,
                    )
                }
                // A verdict takes effect at once, its locks released; its
                // record rides the next force (DESIGN.md deviation 10).
                PartEffect::ForceCommit => {
                    let staged = self.rs.stage_commit(aid);
                    let staged = staged.inspect(|_| self.heap.commit_action(aid));
                    (
                        StagedOp::Commit(aid),
                        Kind::Commit,
                        Hist::TwopcCommitUs,
                        staged,
                    )
                }
                PartEffect::ForceAbort => {
                    let staged = self.rs.stage_abort(aid);
                    let staged = staged.inspect(|_| self.heap.abort_action(aid));
                    (
                        StagedOp::Abort(aid),
                        Kind::Abort,
                        Hist::TwopcAbortUs,
                        staged,
                    )
                }
            };
            self.obs.record_since(timer, &self.clock, now);
            if matches!((op, &staged), (StagedOp::Prepare(_), Err(e)) if !e.is_crash()) {
                // The prepare could not be written: refuse, and abort here.
                let row = self.actions.get_mut(&aid);
                let part = row.and_then(|row| row.participant.take());
                queue.extend(part.map(|mut p| p.prepare_failed()).unwrap_or_default());
                self.abort_unprepared(aid);
                self.twopc_span(span, aid, now);
            } else if !self.staged(op, span, now, staged, fx)? {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Closes the `twopc` trace span of a protocol step begun at `since`.
    fn twopc_span(&self, kind: Kind, aid: ActionId, since: u64) {
        let key = Some(tkey(aid));
        self.tracer.complete(kind, self.id.0, key, since, &[]);
    }

    /// Books the result of a `stage_*` call made at simulated time `now`
    /// and closes the step's `twopc` span: a staged entry joins the batch
    /// with `op` as its continuation and its force deadline goes out in
    /// `fx.due` (staging time, if the batch is already due — e.g. it just
    /// filled up), an operation that is durable as it stands runs the
    /// continuation now, a device crash takes the guardian down. Returns
    /// whether the guardian is still up.
    fn staged(
        &mut self,
        op: StagedOp,
        span: Kind,
        now: u64,
        staged: RsResult<bool>,
        fx: &mut Effects,
    ) -> WorldResult<bool> {
        let durable = match staged {
            Ok(true) => {
                self.staged.push((op, now));
                self.force_sched.note_staged(now);
                let at = self.clock.now();
                let (due, deadline) = (self.force_sched.due(at), self.force_sched.deadline());
                fx.due.push(if due { at } else { deadline.unwrap_or(at) });
                false
            }
            Ok(false) => true,
            Err(e) if e.is_crash() => {
                fx.crashed = self.crashed();
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        };
        self.twopc_span(span, op.aid(), now);
        if durable {
            self.forced(op, fx)?;
        }
        Ok(true)
    }
}
