//! One guardian: heap + recovery system + protocol state.

use crate::world::{MediaKind, WorldConfig};
use crate::{WorldError, WorldResult};
use argus_core::providers::{CachedProvider, FileProvider, MemProvider, MirrorProvider};
use argus_core::{
    HybridLogRs, LogEntry, LogStats, RecoverySystem, RedoRs, RsResult, SimpleLogRs, StoreProvider,
};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, Uid, Value};
use argus_shadow::ShadowRs;
use argus_sim::{CostModel, SimClock};
use argus_slog::{ForceScheduler, LogAddress};
use argus_stable::FaultPlan;
use argus_twopc::{Coordinator, Participant};
use std::collections::{HashMap, HashSet};

/// Which stable-storage organization a guardian runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsKind {
    /// The simple log (ch. 3).
    Simple,
    /// The hybrid log (ch. 4/5) — the thesis's contribution.
    Hybrid,
    /// The shadowing baseline (§1.2.1).
    Shadow,
    /// The REDO-only log with backlink chains and parallel / on-demand
    /// recovery (ROADMAP item 3 — the post-thesis evolution).
    Redo,
}

impl RsKind {
    /// Every organization. Cross-organization suites iterate this instead
    /// of naming kinds, so a new organization cannot dodge one.
    pub const ALL: [RsKind; 4] = [RsKind::Simple, RsKind::Hybrid, RsKind::Shadow, RsKind::Redo];
}

/// A durability-dependent step whose protocol continuation is waiting on a
/// group-commit force (§3.2's "force_write makes every earlier buffered
/// entry durable" turned into a scheduler).
///
/// Each variant names the entry a recovery system has *staged* via its
/// `stage_*` operation; once [`crate::World`] runs the shared force, the
/// matching two-phase-commit continuation fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StagedOp {
    /// A staged prepared record; on force, `prepare_succeeded`.
    Prepare(ActionId),
    /// A staged commit record; on force, install versions and ack.
    Commit(ActionId),
    /// A staged abort record; on force, discard versions and ack.
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

/// A guardian: a logical node with stable and volatile state (§2.1).
///
/// "When a guardian's node crashes, all processes within the guardian
/// disappear, but a subset of the guardian's state survives" — here, the
/// recovery system's stable log survives; everything else in this struct is
/// volatile and is rebuilt by [`crate::World::restart`].
pub struct Guardian {
    /// This guardian's identity.
    pub id: GuardianId,
    /// Volatile object memory.
    pub heap: Heap,
    /// The recovery system over this guardian's stable log.
    pub(crate) rs: Box<dyn RecoverySystem>,
    /// The fault plan shared with the guardian's storage stack.
    pub(crate) plan: FaultPlan,
    /// Whether the node is up.
    pub(crate) up: bool,
    /// Modified Objects Set per active action (§2.3).
    pub(crate) mos: HashMap<ActionId, Vec<HeapId>>,
    /// Actions this guardian has participated in since its last crash. A
    /// local action leaves when it finishes: no other guardian can ask.
    pub(crate) known: HashSet<ActionId>,
    /// Locally resolved participant verdicts (for idempotent re-acks).
    pub(crate) resolved: HashMap<ActionId, bool>,
    /// Distributed actions this guardian coordinated to completion — all it
    /// answers an outcome query from once the coordinator machine is gone.
    pub(crate) coord_done: HashSet<ActionId>,
    /// Live coordinator state machines.
    pub(crate) coordinators: HashMap<ActionId, Coordinator>,
    /// Live participant state machines.
    pub(crate) participants: HashMap<ActionId, Participant>,
    /// Action-id sequence for top-level actions originating here.
    pub(crate) next_seq: u64,
    /// Automatic housekeeping policy: (max log entries, mode).
    pub(crate) hk_policy: Option<(u64, argus_core::HousekeepingMode)>,
    /// Group-commit scheduler deciding when staged entries are forced.
    pub(crate) force_sched: ForceScheduler,
    /// Continuations awaiting the next force, in staging order, each with
    /// the simulated time it was staged (the start of its `force_wait`
    /// trace span).
    pub(crate) staged: Vec<(StagedOp, u64)>,
}

impl std::fmt::Debug for Guardian {
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
    ) -> RsResult<Self> {
        let plan = FaultPlan::new();
        let rs = match cfg.media {
            MediaKind::Mem => {
                let provider = MemProvider {
                    clock,
                    model,
                    plan: Some(plan.clone()),
                };
                Self::build(kind, provider, cfg)?
            }
            MediaKind::Mirrored => {
                let provider = MirrorProvider {
                    clock,
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
                        std::env::temp_dir().join(format!("argus-world-{}-{n}", std::process::id()))
                    }
                };
                let provider = FileProvider::new(base.join(format!("g{}", id.0)))
                    .map(|p| p.with_device(clock, model))
                    .map_err(|e| argus_core::RsError::BadState(format!("file provider: {e}")))?;
                Self::build(kind, provider, cfg)?
            }
        };
        Ok(Self {
            id,
            heap: Heap::with_stable_root(),
            rs,
            plan,
            up: true,
            mos: HashMap::new(),
            known: HashSet::new(),
            resolved: HashMap::new(),
            coord_done: HashSet::new(),
            coordinators: HashMap::new(),
            participants: HashMap::new(),
            next_seq: 0,
            hk_policy: None,
            force_sched: ForceScheduler::new(cfg.force),
            staged: Vec::new(),
        })
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

    /// Records a stable-variable binding in the root's current version. The
    /// caller must already hold the root write lock for `aid`.
    pub(crate) fn bind_stable(
        &mut self,
        aid: ActionId,
        name: &str,
        value: Value,
    ) -> WorldResult<()> {
        let root = self.heap.stable_root().ok_or(WorldError::Heap(
            argus_objects::HeapError::NoSuchUid(Uid::STABLE_ROOT),
        ))?;
        let name = name.to_owned();
        self.heap.write_value(root, aid, move |v| {
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
        })?;
        Ok(())
    }

    /// Log and device statistics for this guardian's recovery system.
    pub fn log_stats(&self) -> LogStats {
        self.rs.log_stats()
    }

    /// Read-only access to the recovery system (for tests).
    pub fn recovery_system(&self) -> &dyn RecoverySystem {
        self.rs.as_ref()
    }

    /// Every decoded entry of this guardian's log, oldest first, for
    /// external audits like the `argus-check` linter (`None` when the
    /// organization keeps no log, e.g. the shadowing baseline).
    pub fn dump_log(&mut self) -> RsResult<Option<Vec<(LogAddress, LogEntry)>>> {
        self.rs.dump_log()
    }
}
