//! The REDO-only recovery system (the fourth organization).
//!
//! Sauer & Härder's design space, forty years after the thesis: every data
//! entry is a *redo* record carrying the full flattened version plus a
//! per-object **backlink** — the log address of the object's previous
//! committed version — so one object's history is a chain that can be walked
//! without scanning the whole log. There is no undo data: uncommitted
//! versions never supplant committed chain heads, so recovery only ever
//! replays forward state.
//!
//! Three recovery modes ([`RecoveryMode`]):
//!
//! * **Full** — the §3.4.4-style single backward pass, for head-to-head
//!   comparison with the thesis's organizations.
//! * **Parallel(n)** — a bounded *tail scan* rebuilds the OT/PT/CT tables
//!   (stopping at the newest `committed_ss` checkpoint's low-water mark),
//!   then the surviving chain heads are partitioned across `n` deterministic
//!   simulated workers that replay the object chains independently. Device
//!   time is attributed per worker ([`RedoRecoveryProfile`]) so experiments
//!   can report the parallel makespan.
//! * **OnDemand** — the tail scan only. `recover` returns with the tables,
//!   the stable root, and every in-doubt object restored; everything else
//!   stays on the log and is materialized lazily by
//!   [`RecoverySystem::demand_restore`] on first touch.
//!
//! The volatile bookkeeping beyond the thesis's AS/PAT:
//!
//! * `heads` — newest *committed* version address per object. Backlinks are
//!   stamped from it at write time, so a chain hop always lands on committed
//!   (or §2.4.2-restorable mutex) state.
//! * `pending` — addresses written by still-in-doubt actions, promoted into
//!   `heads` when the action commits.
//! * `active_floor` — the first log address each in-doubt action wrote. The
//!   minimum over floors (and unfinished coordinators) is the checkpoint's
//!   low-water mark: a tail scan that reads down to it has seen every record
//!   that is not summarized by the checkpoint's chain-head map.
//!
//! Housekeeping is **chain truncation**: the compaction analogue rebuilds
//! the log with exactly one committed record per live object (each chain
//! truncated to its head), rewrites the backlinks of copied tail records to
//! their new-log addresses, and seals the new log with a fresh checkpoint.

use crate::api::{HousekeepingMode, LogStats, RecoveryMode, RecoverySystem, StoreProvider};
use crate::entry::{
    decode_entry, decode_entry_view, encode_entry, encode_entry_into, EntryRef, EntryView, LogEntry,
};
use crate::metrics::CoreObs;
use crate::restore::RecoverCtx;
use crate::tables::{ObjState, PState, RecoveryOutcome};
use crate::writer::{process_mos, EntrySink};
use crate::{RsError, RsResult};
use argus_objects::{
    ActionId, AtomicObject, GuardianId, Heap, HeapId, MutexObject, ObjKind, ObjectBody, Uid, Value,
};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::{HashMap, HashSet};

/// Checkpoint cadence: a `committed_ss` chain-head map is appended after
/// this many commits, bounding the tail a non-full recovery must scan.
const DEFAULT_MAP_INTERVAL: u64 = 64;

/// How the last [`RecoverySystem::recover`] call spent device time, split
/// into the scan phase and the (parallel) replay phase — the raw material of
/// the E20 "instant restart" experiment.
#[derive(Debug, Clone)]
pub struct RedoRecoveryProfile {
    /// The mode the pass ran in.
    pub mode: RecoveryMode,
    /// Device busy time of the (full or tail) scan, µs.
    pub scan_device_us: u64,
    /// Device busy time attributed to each replay worker, µs. Workers run
    /// sequentially under the simulated clock for determinism; the parallel
    /// makespan is `scan + max(worker)`.
    pub worker_device_us: Vec<u64>,
}

impl RedoRecoveryProfile {
    /// The modeled restart time had the workers truly run in parallel:
    /// scan plus the slowest worker.
    pub fn parallel_makespan_us(&self) -> u64 {
        self.scan_device_us + self.worker_device_us.iter().copied().max().unwrap_or(0)
    }
}

/// Emits redo-log entries: data entries carry the per-object backlink and
/// the chain bookkeeping is threaded through the sink.
struct RedoSink<'a, S: PageStore> {
    log: &'a mut StableLog<S>,
    obs: &'a CoreObs,
    aid: ActionId,
    heads: &'a mut HashMap<Uid, LogAddress>,
    pending: &'a mut HashMap<ActionId, Vec<(Uid, LogAddress)>>,
    floor: &'a mut HashMap<ActionId, LogAddress>,
}

impl<S: PageStore> RedoSink<'_, S> {
    fn append(&mut self, entry: EntryRef<'_>) -> RsResult<(LogAddress, u64)> {
        let mut len = 0;
        let addr = self.log.write_with(|enc| {
            let start = enc.len();
            encode_entry_into(enc, &entry)?;
            len = (enc.len() - start) as u64;
            Ok::<_, RsError>(())
        })?;
        Ok((addr, len))
    }
}

impl<S: PageStore> EntrySink for RedoSink<'_, S> {
    fn data(&mut self, uid: Uid, kind: ObjKind, value: Value, aid: ActionId) -> RsResult<()> {
        let back = self.heads.get(&uid).copied();
        let (addr, len) = self.append(EntryRef::DataR {
            uid,
            kind,
            value: &value,
            aid,
            back,
        })?;
        self.floor.entry(self.aid).or_insert(addr);
        match kind {
            // A mutex version is restorable state the moment it is logged
            // (§2.4.2): it becomes the chain head immediately.
            ObjKind::Mutex => {
                self.heads.insert(uid, addr);
            }
            // An atomic version is only committed state once its action
            // commits: park it until the verdict.
            ObjKind::Atomic => self.pending.entry(aid).or_default().push((uid, addr)),
        }
        self.obs.data_entry(len);
        Ok(())
    }

    fn base_committed(&mut self, uid: Uid, value: Value) -> RsResult<()> {
        let (addr, len) = self.append(EntryRef::BaseCommitted {
            uid,
            value: &value,
            prev: None,
        })?;
        self.floor.entry(self.aid).or_insert(addr);
        // A base is committed no matter how the preparing action ends.
        self.heads.insert(uid, addr);
        self.obs.entry_written("base_committed", len);
        Ok(())
    }

    fn prepared_data(&mut self, uid: Uid, value: Value, aid: ActionId) -> RsResult<()> {
        let (addr, len) = self.append(EntryRef::PreparedData {
            uid,
            value: &value,
            aid,
            prev: None,
        })?;
        self.floor.entry(self.aid).or_insert(addr);
        // The *other* prepared action's version: becomes the chain head if
        // that action commits.
        self.pending.entry(aid).or_default().push((uid, addr));
        self.obs.entry_written("prepared_data", len);
        Ok(())
    }
}

/// Scan-time bookkeeping beyond what [`RecoverCtx`] tracks: chain heads,
/// pending promotions, floors, and the tail-scan stop mark.
#[derive(Debug, Default)]
struct ScanState {
    /// Newest valid committed (or mutex-restorable) version address per
    /// object — the rebuilt `heads` map. First insertion wins: the backward
    /// scan meets the newest version first.
    heads: HashMap<Uid, LogAddress>,
    /// In-doubt atomic objects restored with a prepared current version but
    /// no base yet, plus the backlink their prepared record carried.
    needs_base: Vec<(Uid, Option<LogAddress>)>,
    /// Rebuilt `pending` map (in-doubt actions' version addresses).
    pending: HashMap<ActionId, Vec<(Uid, LogAddress)>>,
    /// Oldest record address seen per action (overwritten as the scan walks
    /// down, so the last write is the oldest record).
    floor: HashMap<ActionId, LogAddress>,
    /// Newest `committing` entry address per coordinator action.
    committing: HashMap<ActionId, LogAddress>,
    /// Checkpoint pairs deferred to the end of a *full* scan, simple-style.
    deferred_cssl: Vec<(Uid, LogAddress)>,
    /// Tail-scan stop mark: entries below it are summarized by the newest
    /// checkpoint and are not read.
    stop: Option<LogAddress>,
}

/// In-progress chain-truncation state (between `begin_housekeeping` and
/// `finish_housekeeping`). The new-log bookkeeping mirrors the live maps so
/// they can be installed wholesale at the switch.
#[derive(Debug)]
struct RedoHk<S: PageStore> {
    new_log: StableLog<S>,
    /// Forced-entry count of the old log at begin: entries with `seq >=
    /// marker` are copied (with rewritten backlinks) by stage two.
    marker: u64,
    old_entries_at_begin: u64,
    heads: HashMap<Uid, LogAddress>,
    pending: HashMap<ActionId, Vec<(Uid, LogAddress)>>,
    floor: HashMap<ActionId, LogAddress>,
    committing: HashMap<ActionId, LogAddress>,
}

/// The REDO-only recovery system: backlinked redo records, checkpointed
/// chain-head maps, and full / parallel / on-demand recovery.
#[derive(Debug)]
pub struct RedoRs<P: StoreProvider> {
    provider: P,
    log: StableLog<P::Store>,
    /// The accessibility set (AS, §3.3.3.2), plus lazily pending objects.
    access: HashSet<Uid>,
    /// The prepared-actions table (PAT, §3.3.3.2).
    pat: HashSet<ActionId>,
    /// Newest committed version address per object (chain heads).
    heads: HashMap<Uid, LogAddress>,
    /// Version addresses written by in-doubt actions, promoted into `heads`
    /// at commit, dropped at abort.
    pending: HashMap<ActionId, Vec<(Uid, LogAddress)>>,
    /// First record address of each in-doubt action (low-water inputs).
    active_floor: HashMap<ActionId, LogAddress>,
    /// `committing` entry address of each unfinished coordinator.
    committing_at: HashMap<ActionId, LogAddress>,
    /// Commits since the last checkpoint.
    commits_since_ckpt: u64,
    /// Checkpoint cadence (commits per `committed_ss`).
    map_interval: u64,
    /// How the next `recover` rebuilds state.
    mode: RecoveryMode,
    /// Objects awaiting lazy restoration: uid → chain-head address.
    lazy: HashMap<Uid, LogAddress>,
    /// Device-time attribution of the last recovery pass.
    profile: Option<RedoRecoveryProfile>,
    /// In-progress housekeeping state.
    hk: Option<RedoHk<P::Store>>,
    /// Cached metric handles.
    obs: CoreObs,
}

impl<P: StoreProvider> RedoRs<P> {
    /// Creates a recovery system over a freshly formatted log. The stable
    /// root is accessible by definition.
    pub fn create(mut provider: P) -> RsResult<Self> {
        let log = StableLog::create(provider.new_store())?;
        Ok(Self {
            provider,
            log,
            access: [Uid::STABLE_ROOT].into_iter().collect(),
            pat: HashSet::new(),
            heads: HashMap::new(),
            pending: HashMap::new(),
            active_floor: HashMap::new(),
            committing_at: HashMap::new(),
            commits_since_ckpt: 0,
            map_interval: DEFAULT_MAP_INTERVAL,
            mode: RecoveryMode::Full,
            lazy: HashMap::new(),
            profile: None,
            hk: None,
            obs: CoreObs::resolve(),
        })
    }

    /// Opens a recovery system over an existing log (post-crash). Call
    /// [`RecoverySystem::recover`] before anything else.
    pub fn open(provider: P, store: P::Store) -> RsResult<Self> {
        Ok(Self {
            provider,
            log: StableLog::open(store)?,
            access: HashSet::new(),
            pat: HashSet::new(),
            heads: HashMap::new(),
            pending: HashMap::new(),
            active_floor: HashMap::new(),
            committing_at: HashMap::new(),
            commits_since_ckpt: 0,
            map_interval: DEFAULT_MAP_INTERVAL,
            mode: RecoveryMode::Full,
            lazy: HashMap::new(),
            profile: None,
            hk: None,
            obs: CoreObs::resolve(),
        })
    }

    /// Appends a raw entry — tests use this to fabricate exact logs.
    pub fn append_raw(&mut self, entry: &LogEntry, force: bool) -> RsResult<LogAddress> {
        let bytes = encode_entry(entry)?;
        let addr = self.log.write(&bytes);
        if force {
            self.log.force()?;
        }
        Ok(addr)
    }

    /// The accessibility set (read-only, for tests and experiments).
    pub fn access_set(&self) -> &HashSet<Uid> {
        &self.access
    }

    /// Overrides the checkpoint cadence (commits per `committed_ss`).
    pub fn set_map_interval(&mut self, commits: u64) {
        self.map_interval = commits.max(1);
    }

    /// Device-time attribution of the last recovery pass (E20).
    pub fn last_recovery_profile(&self) -> Option<&RedoRecoveryProfile> {
        self.profile.as_ref()
    }

    /// Decodes every forced entry, oldest first.
    pub fn dump_entries(&mut self) -> RsResult<Vec<(LogAddress, LogEntry)>> {
        let mut entries = Vec::new();
        for item in self.log.read_backward(None) {
            let (addr, _seq, payload) = item.map_err(RsError::Log)?;
            entries.push((addr, payload));
        }
        let mut decoded = Vec::with_capacity(entries.len());
        for (addr, payload) in entries.into_iter().rev() {
            decoded.push((addr, decode_entry(&payload)?));
        }
        Ok(decoded)
    }

    /// Direct access to the underlying log (experiments).
    pub fn log(&self) -> &StableLog<P::Store> {
        &self.log
    }

    /// The low-water mark: the oldest record any in-doubt action or
    /// unfinished coordinator still depends on. A checkpoint whose `prev` is
    /// this address summarizes everything below it.
    fn low_water(&self) -> Option<LogAddress> {
        self.active_floor
            .values()
            .chain(self.committing_at.values())
            .min()
            .copied()
    }

    /// Appends the `committed_ss` chain-head map with the low-water `prev`.
    fn write_checkpoint(&mut self) -> RsResult<()> {
        let mut cssl: Vec<(Uid, LogAddress)> = self.heads.iter().map(|(u, a)| (*u, *a)).collect();
        cssl.sort();
        let prev = self.low_water();
        let mut len = 0;
        self.log.write_with(|enc| {
            let start = enc.len();
            encode_entry_into(enc, &EntryRef::CommittedSs { cssl: &cssl, prev })?;
            len = (enc.len() - start) as u64;
            Ok::<_, RsError>(())
        })?;
        self.obs.entry_written("committed_ss", len);
        Ok(())
    }

    /// The backward scan shared by all recovery modes and housekeeping
    /// stage one. `eager` materializes every surviving version through `ctx`
    /// (full recovery); otherwise only in-doubt versions are materialized
    /// and the scan stops at the newest checkpoint's low-water mark.
    fn scan(
        log: &mut StableLog<P::Store>,
        ctx: &mut RecoverCtx<'_>,
        st: &mut ScanState,
        eager: bool,
    ) -> RsResult<()> {
        let mut walk = log.walk_backward(None);
        while let Some(item) = walk.next_entry() {
            let (addr, _seq, payload) = item?;
            if let Some(stop) = st.stop {
                if addr < stop {
                    break;
                }
            }
            let entry = decode_entry_view(payload)?;
            ctx.entries_examined += 1;
            match entry {
                EntryView::Prepared { aid, .. } => {
                    ctx.on_prepared(aid);
                    st.floor.insert(aid, addr);
                }
                EntryView::Committed { aid, .. } => ctx.on_committed(aid),
                EntryView::Aborted { aid, .. } => ctx.on_aborted(aid),
                EntryView::Committing { aid, gids, .. } => {
                    ctx.on_committing(aid, gids.to_vec());
                    st.committing.entry(aid).or_insert(addr);
                }
                EntryView::Done { aid, .. } => ctx.on_done(aid),
                EntryView::BaseCommitted { uid, value, .. } => {
                    st.heads.entry(uid).or_insert(addr);
                    if eager {
                        ctx.on_base_committed(uid, value.into())?;
                    }
                }
                EntryView::PreparedData {
                    uid, aid, value, ..
                } => {
                    st.floor.insert(aid, addr);
                    let state = ctx.pt.get(aid);
                    if eager {
                        ctx.on_prepared_data(uid, value.into(), aid)?;
                    } else {
                        match state {
                            Some(PState::Prepared) | None => {
                                ctx.on_prepared_data(uid, value.into(), aid)?;
                                st.needs_base.push((uid, None));
                            }
                            Some(PState::Committed) | Some(PState::Aborted) => {}
                        }
                    }
                    // The version is the chain head if its writer committed;
                    // its address is promotable if the writer is in doubt.
                    match ctx.pt.get(aid) {
                        Some(PState::Committed) => {
                            st.heads.entry(uid).or_insert(addr);
                        }
                        Some(PState::Prepared) => {
                            st.pending.entry(aid).or_default().push((uid, addr))
                        }
                        _ => {}
                    }
                }
                e @ (EntryView::DataR { .. } | EntryView::Data { .. }) => {
                    // A plain simple-log data entry is a redo record with no
                    // backlink; tolerated for mixed-provenance logs.
                    let (uid, kind, aid, back, value) = match e {
                        EntryView::DataR {
                            uid,
                            kind,
                            aid,
                            back,
                            value,
                        } => (uid, kind, aid, back, value),
                        EntryView::Data {
                            uid,
                            kind,
                            aid,
                            value,
                        } => (uid, kind, aid, None, value),
                        _ => unreachable!(),
                    };
                    st.floor.insert(aid, addr);
                    let state = ctx.pt.get(aid);
                    let head_ok = matches!(state, Some(PState::Committed))
                        || (kind == ObjKind::Mutex && state.is_some());
                    if head_ok {
                        st.heads.entry(uid).or_insert(addr);
                    }
                    if state == Some(PState::Prepared) {
                        st.pending.entry(aid).or_default().push((uid, addr));
                    }
                    if eager {
                        ctx.data_entries_read += 1;
                        ctx.on_data(addr, uid, kind, value.into(), aid)?;
                    } else if state == Some(PState::Prepared) {
                        // In-doubt versions are restored eagerly: the action
                        // resumes holding its locks the moment recovery
                        // returns, whatever the mode.
                        ctx.data_entries_read += 1;
                        ctx.restore_prepared(uid, kind, value.into(), aid, Some(addr))?;
                        if kind == ObjKind::Atomic {
                            st.needs_base.push((uid, back));
                        }
                    }
                }
                EntryView::DataH { .. } => {}
                EntryView::CommittedSs { cssl, prev } => {
                    // Chain heads for objects untouched above this point.
                    // Within one log generation the newest map is a superset
                    // of older ones, so `or_insert` keeps newest-first
                    // priority even across multiple checkpoints.
                    for (uid, pair_addr) in cssl.iter() {
                        st.heads.entry(uid).or_insert(pair_addr);
                    }
                    if eager {
                        st.deferred_cssl.extend(cssl.iter());
                    } else if st.stop.is_none() {
                        // The newest checkpoint bounds the tail: nothing
                        // below its low-water mark is needed.
                        st.stop = Some(prev.unwrap_or(addr));
                    }
                }
            }
        }

        if eager {
            // Checkpoint pairs are the oldest committed state; restoring
            // them after the scan preserves newest-first priority.
            let deferred = std::mem::take(&mut st.deferred_cssl);
            let mut scratch = Vec::new();
            for (uid, addr) in deferred {
                if ctx.ot.get(uid).map(|e| e.state) == Some(ObjState::Restored) {
                    continue;
                }
                log.read_into(addr, &mut scratch)?;
                ctx.entries_examined += 1;
                ctx.data_entries_read += 1;
                Self::restore_record(ctx, uid, addr, &scratch, true)?;
            }
        }
        Ok(())
    }

    /// Restores the committed version held in the record at `addr` (already
    /// read into `payload`). With `trusted`, the address came from a chain
    /// head or checkpoint pair and is restored unconditionally; otherwise
    /// the participant table gates it. Returns whether the record was
    /// restorable.
    fn restore_record(
        ctx: &mut RecoverCtx<'_>,
        uid: Uid,
        addr: LogAddress,
        payload: &[u8],
        trusted: bool,
    ) -> RsResult<bool> {
        match decode_entry_view(payload)? {
            EntryView::DataR {
                uid: u,
                kind,
                aid,
                value,
                ..
            }
            | EntryView::Data {
                uid: u,
                kind,
                aid,
                value,
            } => {
                if u != uid {
                    return Err(RsError::BadState(format!(
                        "redo chain for {uid} reached a record for {u}"
                    )));
                }
                // Defensive even when trusted: an atomic version written by
                // an action the tail knows aborted (or still in doubt) must
                // not become the committed base.
                let skip = kind == ObjKind::Atomic
                    && matches!(
                        ctx.pt.get(aid),
                        Some(PState::Aborted) | Some(PState::Prepared)
                    );
                let skip = skip || (!trusted && ctx.pt.get(aid).is_none());
                if skip {
                    return Ok(false);
                }
                ctx.restore_committed(uid, kind, value.into(), Some(addr))?;
                Ok(true)
            }
            EntryView::BaseCommitted { uid: u, value, .. } => {
                if u != uid {
                    return Err(RsError::BadState(format!(
                        "redo chain for {uid} reached a record for {u}"
                    )));
                }
                ctx.restore_committed(uid, ObjKind::Atomic, value.into(), Some(addr))?;
                Ok(true)
            }
            EntryView::PreparedData {
                uid: u, aid, value, ..
            } => {
                if u != uid {
                    return Err(RsError::BadState(format!(
                        "redo chain for {uid} reached a record for {u}"
                    )));
                }
                if !trusted && ctx.pt.get(aid) != Some(PState::Committed) {
                    return Ok(false);
                }
                ctx.restore_committed(uid, ObjKind::Atomic, value.into(), Some(addr))?;
                Ok(true)
            }
            other => Err(RsError::BadState(format!(
                "redo chain for {uid} hit a {} entry",
                other.name()
            ))),
        }
    }

    /// Walks `uid`'s chain from `start` until a restorable committed version
    /// is found and materializes it. Returns the address restored from.
    fn restore_chain(
        log: &mut StableLog<P::Store>,
        ctx: &mut RecoverCtx<'_>,
        uid: Uid,
        start: Option<LogAddress>,
    ) -> RsResult<Option<LogAddress>> {
        let mut cur = start;
        let mut scratch = Vec::new();
        let mut first = true;
        while let Some(addr) = cur {
            log.read_into(addr, &mut scratch)?;
            ctx.entries_examined += 1;
            ctx.data_entries_read += 1;
            // The first hop is a trusted chain head or write-time backlink;
            // both always point at restorable state. Deeper hops only arise
            // from degraded chains and stay PT-gated.
            if Self::restore_record(ctx, uid, addr, &scratch, first)? {
                return Ok(Some(addr));
            }
            first = false;
            ctx.chain_hops += 1;
            cur = match decode_entry_view(&scratch)? {
                EntryView::DataR { back, .. } => back,
                _ => None,
            };
        }
        Ok(None)
    }

    /// Writes `entry` to the housekeeping new log, rewriting a redo record's
    /// backlink to its new-log chain head and replaying the live-map
    /// bookkeeping so the maps can be installed at the switch.
    fn append_tracked(hk: &mut RedoHk<P::Store>, mut entry: LogEntry) -> RsResult<LogAddress> {
        if let LogEntry::DataR { uid, back, .. } = &mut entry {
            *back = hk.heads.get(uid).copied();
        }
        let bytes = encode_entry(&entry)?;
        let addr = hk.new_log.write(&bytes);
        match &entry {
            LogEntry::DataR { uid, kind, aid, .. } => {
                hk.floor.entry(*aid).or_insert(addr);
                match kind {
                    ObjKind::Mutex => {
                        hk.heads.insert(*uid, addr);
                    }
                    ObjKind::Atomic => hk.pending.entry(*aid).or_default().push((*uid, addr)),
                }
            }
            LogEntry::BaseCommitted { uid, .. } => {
                hk.heads.insert(*uid, addr);
            }
            LogEntry::PreparedData { uid, aid, .. } => {
                hk.floor.entry(*aid).or_insert(addr);
                hk.pending.entry(*aid).or_default().push((*uid, addr));
            }
            LogEntry::Prepared { aid, .. } => {
                hk.floor.entry(*aid).or_insert(addr);
            }
            LogEntry::Committed { aid, .. } => {
                if let Some(pairs) = hk.pending.remove(aid) {
                    for (uid, a) in pairs {
                        let e = hk.heads.entry(uid).or_insert(a);
                        if *e < a {
                            *e = a;
                        }
                    }
                }
                hk.floor.remove(aid);
            }
            LogEntry::Aborted { aid, .. } => {
                hk.pending.remove(aid);
                hk.floor.remove(aid);
            }
            LogEntry::Committing { aid, .. } => {
                hk.committing.insert(*aid, addr);
            }
            LogEntry::Done { aid, .. } => {
                hk.committing.remove(aid);
            }
            LogEntry::Data { .. } | LogEntry::DataH { .. } | LogEntry::CommittedSs { .. } => {}
        }
        Ok(addr)
    }
}

impl<P: StoreProvider> RecoverySystem for RedoRs<P> {
    fn prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<()> {
        self.stage_prepare(aid, mos, heap)?;
        self.force_staged()
    }

    fn write_entry(
        &mut self,
        _aid: ActionId,
        mos: &[HeapId],
        _heap: &Heap,
    ) -> RsResult<Vec<HeapId>> {
        // Early prepare is a hybrid-log refinement (§4.4); the redo log
        // writes the whole MOS at prepare time like the simple log.
        Ok(mos.to_vec())
    }

    fn commit(&mut self, aid: ActionId) -> RsResult<()> {
        self.stage_commit(aid)?;
        self.force_staged()
    }

    fn abort(&mut self, aid: ActionId) -> RsResult<()> {
        self.stage_abort(aid)?;
        self.force_staged()
    }

    fn committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<()> {
        self.stage_committing(aid, gids)?;
        self.force_staged()
    }

    fn done(&mut self, aid: ActionId) -> RsResult<()> {
        self.stage_done(aid)?;
        self.force_staged()
    }

    fn set_recovery_mode(&mut self, mode: RecoveryMode) -> bool {
        self.mode = mode;
        true
    }

    fn demand_restore(&mut self, uid: Uid, heap: &mut Heap) -> RsResult<bool> {
        let Some(&addr) = self.lazy.get(&uid) else {
            return Ok(false);
        };
        if heap.lookup(uid).is_some() {
            self.lazy.remove(&uid);
            return Ok(false);
        }
        // The lazy map only holds validated chain heads, so one read
        // materializes the newest committed version.
        let (_seq, payload) = self.log.read(addr)?;
        let body = match decode_entry_view(&payload)? {
            EntryView::DataR { kind, value, .. } | EntryView::Data { kind, value, .. } => {
                match kind {
                    ObjKind::Atomic => ObjectBody::Atomic(AtomicObject::new(value.decode()?)),
                    ObjKind::Mutex => ObjectBody::Mutex(MutexObject::new(value.decode()?)),
                }
            }
            EntryView::BaseCommitted { value, .. } | EntryView::PreparedData { value, .. } => {
                ObjectBody::Atomic(AtomicObject::new(value.decode()?))
            }
            other => {
                return Err(RsError::BadState(format!(
                    "lazy chain head for {uid} is a {} entry",
                    other.name()
                )))
            }
        };
        heap.insert_with_uid(uid, body)?;
        heap.resolve_uid_refs();
        self.lazy.remove(&uid);
        self.obs.lazy_restores.inc();
        Ok(true)
    }

    fn lazy_pending(&self) -> u64 {
        self.lazy.len() as u64
    }

    fn recovery_makespan_us(&self) -> Option<u64> {
        self.profile.as_ref().map(|p| p.parallel_makespan_us())
    }

    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool> {
        let _timer = self.obs.prepare_us.start();
        {
            let mut sink = RedoSink {
                log: &mut self.log,
                obs: &self.obs,
                aid,
                heads: &mut self.heads,
                pending: &mut self.pending,
                floor: &mut self.active_floor,
            };
            process_mos(aid, mos, heap, &mut self.access, &self.pat, &mut sink)?;
        }
        let addr = self.log.write_with(|enc| {
            encode_entry_into(
                enc,
                &EntryRef::Prepared {
                    aid,
                    pairs: &[],
                    prev: None,
                },
            )
        })?;
        // An action with an empty MOS still needs a floor: its prepared
        // entry is the oldest record the tail scan must reach.
        self.active_floor.entry(aid).or_insert(addr);
        self.obs.outcome("prepared", None);
        self.pat.insert(aid);
        self.obs.prepares.inc();
        Ok(true)
    }

    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool> {
        self.log
            .write_with(|enc| encode_entry_into(enc, &EntryRef::Committed { aid, prev: None }))?;
        self.obs.outcome("committed", None);
        self.pat.remove(&aid);
        // Promote the action's versions to chain heads.
        if let Some(pairs) = self.pending.remove(&aid) {
            for (uid, addr) in pairs {
                let e = self.heads.entry(uid).or_insert(addr);
                if *e < addr {
                    *e = addr;
                }
            }
        }
        self.active_floor.remove(&aid);
        self.obs.commits.inc();
        self.commits_since_ckpt += 1;
        if self.commits_since_ckpt >= self.map_interval && !self.heads.is_empty() {
            self.write_checkpoint()?;
            self.commits_since_ckpt = 0;
        }
        Ok(true)
    }

    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        self.log
            .write_with(|enc| encode_entry_into(enc, &EntryRef::Aborted { aid, prev: None }))?;
        self.obs.outcome("aborted", None);
        self.pat.remove(&aid);
        self.pending.remove(&aid);
        self.active_floor.remove(&aid);
        self.obs.aborts.inc();
        Ok(true)
    }

    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        let addr = self.log.write_with(|enc| {
            encode_entry_into(
                enc,
                &EntryRef::Committing {
                    aid,
                    gids,
                    prev: None,
                },
            )
        })?;
        self.committing_at.insert(aid, addr);
        self.obs.outcome("committing", None);
        self.obs.committings.inc();
        Ok(true)
    }

    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        self.log
            .write_with(|enc| encode_entry_into(enc, &EntryRef::Done { aid, prev: None }))?;
        self.committing_at.remove(&aid);
        self.obs.outcome("done", None);
        self.obs.dones.inc();
        Ok(true)
    }

    fn force_staged(&mut self) -> RsResult<()> {
        self.log.force()?;
        Ok(())
    }

    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome> {
        let timer = self.obs.recover_us.start();
        let mode = self.mode;
        self.lazy.clear();
        let eager = mode == RecoveryMode::Full;

        let scan_before = self.log.store().stats().snapshot();
        let mut ctx = RecoverCtx::new(heap);
        let mut st = ScanState::default();
        Self::scan(&mut self.log, &mut ctx, &mut st, eager)?;

        if !eager {
            // In-doubt atomic objects need their committed base *now*: the
            // resumed action's lock holders (and a possible abort) depend on
            // it. The chain head (or the prepared record's backlink) is one
            // hop away.
            let needs = std::mem::take(&mut st.needs_base);
            for (uid, back) in needs {
                if ctx.ot.get(uid).map(|e| e.state) != Some(ObjState::Prepared) {
                    continue;
                }
                let start = st.heads.get(&uid).copied().or(back);
                if let Some(addr) = Self::restore_chain(&mut self.log, &mut ctx, uid, start)? {
                    st.heads.entry(uid).or_insert(addr);
                }
            }
        }
        let scan_us = self
            .log
            .store()
            .stats()
            .snapshot()
            .since(&scan_before)
            .busy_us;

        let mut worker_us = Vec::new();
        match mode {
            RecoveryMode::Full => {}
            RecoveryMode::Parallel(n) => {
                let n = n.max(1) as usize;
                let mut remaining: Vec<(Uid, LogAddress)> = st
                    .heads
                    .iter()
                    .filter(|(uid, _)| ctx.ot.get(**uid).is_none())
                    .map(|(u, a)| (*u, *a))
                    .collect();
                remaining.sort();
                let mut buckets: Vec<Vec<(Uid, LogAddress)>> = vec![Vec::new(); n];
                for (i, item) in remaining.into_iter().enumerate() {
                    buckets[i % n].push(item);
                }
                for bucket in buckets {
                    let before = self.log.store().stats().snapshot();
                    for (uid, addr) in bucket {
                        Self::restore_chain(&mut self.log, &mut ctx, uid, Some(addr))?;
                    }
                    let after = self.log.store().stats().snapshot();
                    worker_us.push(after.since(&before).busy_us);
                }
            }
            RecoveryMode::OnDemand => {
                // The stable root is the entry point of everything: restore
                // it eagerly so the guardian can serve immediately.
                if let Some(&addr) = st.heads.get(&Uid::STABLE_ROOT) {
                    if ctx.ot.get(Uid::STABLE_ROOT).is_none() {
                        Self::restore_chain(&mut self.log, &mut ctx, Uid::STABLE_ROOT, Some(addr))?;
                    }
                }
                self.lazy = st
                    .heads
                    .iter()
                    .filter(|(uid, _)| ctx.ot.get(**uid).is_none())
                    .map(|(u, a)| (*u, *a))
                    .collect();
            }
        }

        ctx.heap.resolve_uid_refs();
        // Objects still on the log occupy uid space: the allocator must not
        // reuse their uids for new objects, or their chains would corrupt.
        if let Some(max_lazy) = self.lazy.keys().max() {
            let next = ctx.heap.next_uid().max(max_lazy.0 + 1);
            ctx.heap.set_next_uid(next);
        }

        let outcome = RecoveryOutcome {
            entries_examined: ctx.entries_examined,
            data_entries_read: ctx.data_entries_read,
            chain_hops: ctx.chain_hops,
            ot: ctx.ot,
            pt: ctx.pt,
            ct: ctx.ct,
        };
        self.obs.recovery_pass(&outcome);
        timer.stop();

        self.access = heap.accessible_uids();
        for uid in self.lazy.keys() {
            self.access.insert(*uid);
        }
        if heap.stable_root().is_none() {
            self.access.insert(Uid::STABLE_ROOT);
        }
        self.pat = outcome.pt.prepared_actions().into_iter().collect();

        // Install the rebuilt chain bookkeeping.
        self.heads = st.heads;
        self.pending = st.pending;
        self.active_floor = st
            .floor
            .into_iter()
            .filter(|(aid, _)| outcome.pt.get(*aid) == Some(PState::Prepared))
            .collect();
        let committing: HashSet<ActionId> = outcome
            .ct
            .committing_actions()
            .iter()
            .map(|(a, _)| *a)
            .collect();
        self.committing_at = st
            .committing
            .into_iter()
            .filter(|(aid, _)| committing.contains(aid))
            .collect();
        self.commits_since_ckpt = 0;
        self.profile = Some(RedoRecoveryProfile {
            mode,
            scan_device_us: scan_us,
            worker_device_us: worker_us,
        });
        Ok(outcome)
    }

    fn begin_housekeeping(&mut self, _heap: &Heap, mode: HousekeepingMode) -> RsResult<()> {
        if mode != HousekeepingMode::Compaction {
            return Err(RsError::Unsupported(
                "snapshot housekeeping on the redo log (chain truncation is its compaction)",
            ));
        }
        if self.hk.is_some() {
            return Err(RsError::BadState("housekeeping already in progress".into()));
        }
        let _timer = self.obs.hk_begin_us.start();
        // Flush buffered entries so the marker covers a readable prefix.
        self.log.force()?;
        let marker = self.log.stable_count();

        // Stage one: digest everything exactly like a full recovery, into a
        // scratch heap. resolve_uid_refs is deliberately skipped so the
        // restored values keep their uid-reference encoding and can be
        // re-logged verbatim.
        let mut scratch = Heap::new();
        let mut ctx = RecoverCtx::new(&mut scratch);
        let mut st = ScanState::default();
        Self::scan(&mut self.log, &mut ctx, &mut st, true)?;

        let mut hk = RedoHk {
            new_log: StableLog::create(self.provider.new_store())?,
            marker,
            old_entries_at_begin: marker,
            heads: HashMap::new(),
            pending: HashMap::new(),
            floor: HashMap::new(),
            committing: HashMap::new(),
        };

        // Chain truncation: one committed record per live object, emitted
        // deterministically (tables are hash maps, so sort everything).
        let mut uids: Vec<Uid> = ctx.ot.iter().map(|(u, _)| *u).collect();
        uids.sort();

        let mut prepared_versions: Vec<(ActionId, Uid, Value)> = Vec::new();
        let mut mutex_values: Vec<(Uid, Value)> = Vec::new();
        for uid in &uids {
            let entry = ctx.ot.get(*uid).expect("uid came from the OT");
            match &ctx.heap.get(entry.heap)?.body {
                ObjectBody::Atomic(obj) => {
                    if entry.state == ObjState::Restored {
                        Self::append_tracked(
                            &mut hk,
                            LogEntry::BaseCommitted {
                                uid: *uid,
                                value: obj.base.clone(),
                                prev: None,
                            },
                        )?;
                    }
                    if let (Some(writer), Some(cur)) = (obj.writer, &obj.current) {
                        prepared_versions.push((writer, *uid, cur.clone()));
                    }
                }
                ObjectBody::Mutex(obj) => mutex_values.push((*uid, obj.value.clone())),
            }
        }

        // Mutex values truncate as the data entries of a synthetic committed
        // action (§5.1.1) — their chains restart at length one.
        if !mutex_values.is_empty() {
            let hk_aid = ActionId::new(GuardianId(u32::MAX), marker);
            Self::append_tracked(
                &mut hk,
                LogEntry::Prepared {
                    aid: hk_aid,
                    pairs: Vec::new(),
                    prev: None,
                },
            )?;
            for (uid, value) in mutex_values {
                Self::append_tracked(
                    &mut hk,
                    LogEntry::DataR {
                        uid,
                        kind: ObjKind::Mutex,
                        value,
                        aid: hk_aid,
                        back: None,
                    },
                )?;
            }
            Self::append_tracked(
                &mut hk,
                LogEntry::Committed {
                    aid: hk_aid,
                    prev: None,
                },
            )?;
        }

        // In-doubt actions survive truncation: prepared versions plus a bare
        // `prepared` entry each, then unfinished coordinators.
        prepared_versions.sort_by_key(|v| (v.0, v.1));
        for (aid, uid, value) in prepared_versions {
            if ctx.pt.get(aid) != Some(PState::Prepared) {
                continue;
            }
            Self::append_tracked(
                &mut hk,
                LogEntry::PreparedData {
                    uid,
                    value,
                    aid,
                    prev: None,
                },
            )?;
        }
        for aid in ctx.pt.prepared_actions() {
            Self::append_tracked(
                &mut hk,
                LogEntry::Prepared {
                    aid,
                    pairs: Vec::new(),
                    prev: None,
                },
            )?;
        }
        for (aid, gids) in ctx.ct.committing_actions() {
            Self::append_tracked(
                &mut hk,
                LogEntry::Committing {
                    aid,
                    gids,
                    prev: None,
                },
            )?;
        }

        self.hk = Some(hk);
        Ok(())
    }

    fn finish_housekeeping(&mut self) -> RsResult<()> {
        let _timer = self.obs.hk_finish_us.start();
        let mut hk = self
            .hk
            .take()
            .ok_or_else(|| RsError::BadState("no housekeeping in progress".into()))?;

        // Publish post-marker buffered entries so stage two can read them.
        self.log.force()?;

        // Stage two: copy everything written since the marker, rewriting
        // each redo record's backlink to its new-log chain head. Old
        // checkpoints are dropped — their maps point into the old log.
        let mut tail = Vec::new();
        for item in self.log.read_backward(None) {
            let (_addr, seq, payload) = item?;
            if seq < hk.marker {
                break;
            }
            tail.push(payload);
        }
        for payload in tail.into_iter().rev() {
            let entry = decode_entry(&payload)?;
            if matches!(entry, LogEntry::CommittedSs { .. }) {
                continue;
            }
            Self::append_tracked(&mut hk, entry)?;
        }

        // Seal the new log with a fresh checkpoint over the new addresses.
        let mut cssl: Vec<(Uid, LogAddress)> = hk.heads.iter().map(|(u, a)| (*u, *a)).collect();
        cssl.sort();
        let prev = hk
            .floor
            .values()
            .chain(hk.committing.values())
            .min()
            .copied();
        let bytes = encode_entry(&LogEntry::CommittedSs { cssl, prev })?;
        hk.new_log.write(&bytes);
        hk.new_log.force()?;

        let new_entries = hk.new_log.stable_count();
        let reclaimed = self.log.stable_count().saturating_sub(new_entries);
        self.obs.reg.event(argus_obs::Event::CompactionPass {
            entries_in: hk.old_entries_at_begin,
            entries_out: new_entries,
        });
        self.obs.hk_passes.inc();
        self.obs.hk_reclaimed.add(reclaimed);
        self.obs.reg.event(argus_obs::Event::HousekeepingDone {
            mode: "compaction",
            entries_reclaimed: reclaimed,
        });

        // "In one atomic step, the new log supplants the old log" — and the
        // chain bookkeeping switches to the new addresses with it.
        self.log = hk.new_log;
        self.provider.store_switched();
        self.heads = hk.heads;
        self.pending = hk.pending;
        self.active_floor = hk.floor;
        self.committing_at = hk.committing;
        self.commits_since_ckpt = 0;
        // Lazily pending objects re-home to their truncated chain heads.
        let old_lazy = std::mem::take(&mut self.lazy);
        for (uid, _) in old_lazy {
            if let Some(&addr) = self.heads.get(&uid) {
                self.lazy.insert(uid, addr);
            }
        }
        Ok(())
    }

    fn simulate_crash(&mut self) -> RsResult<()> {
        self.log.reopen()?;
        self.access.clear();
        self.pat.clear();
        self.heads.clear();
        self.pending.clear();
        self.active_floor.clear();
        self.committing_at.clear();
        self.lazy.clear();
        self.commits_since_ckpt = 0;
        self.profile = None;
        // An in-progress housekeeping pass dies with the node: the old log
        // is still the active one (the switch is the last step of finish).
        self.hk = None;
        Ok(())
    }

    fn discard(&mut self, aid: ActionId) {
        self.pending.remove(&aid);
        self.active_floor.remove(&aid);
    }

    fn trim_access_set(&mut self, heap: &Heap) {
        let reachable = heap.accessible_uids();
        self.access = self.access.intersection(&reachable).copied().collect();
        // Lazily pending objects are reachable state that simply is not
        // resident yet; they must not be forgotten.
        for uid in self.lazy.keys() {
            self.access.insert(*uid);
        }
        self.access.insert(Uid::STABLE_ROOT);
    }

    fn dump_log(&mut self) -> RsResult<Option<Vec<(LogAddress, LogEntry)>>> {
        self.dump_entries().map(Some)
    }

    fn is_prepared(&self, aid: ActionId) -> bool {
        self.pat.contains(&aid)
    }

    fn log_stats(&self) -> LogStats {
        LogStats {
            entries: self.log.stable_count(),
            bytes: self.log.stable_bytes(),
            device: self.log.store().stats().snapshot(),
        }
    }

    fn decay_page(&mut self, pno: argus_stable::PageNo) -> bool {
        self.log.store_mut().decay_page(pno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::providers::MemProvider;

    fn rs() -> RedoRs<MemProvider> {
        RedoRs::create(MemProvider::fast()).unwrap()
    }

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    fn commit_root_update(
        rs: &mut RedoRs<MemProvider>,
        heap: &mut Heap,
        a: ActionId,
        value: Value,
    ) {
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = value).unwrap();
        rs.prepare(a, &[root], heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);
    }

    /// Commits `n` child objects hung off the root, one action each.
    fn commit_children(rs: &mut RedoRs<MemProvider>, heap: &mut Heap, n: u64) -> Vec<Uid> {
        let mut uids = Vec::new();
        let mut refs = Vec::new();
        for i in 0..n {
            let a = aid(100 + i);
            let obj = heap.alloc_atomic(Value::Int(1000 + i as i64), Some(a));
            uids.push(heap.uid_of(obj).unwrap());
            refs.push(Value::heap_ref(obj));
            let root = heap.stable_root().unwrap();
            heap.acquire_write(root, a).unwrap();
            let snapshot = Value::Seq(refs.clone());
            heap.write_value(root, a, |v| *v = snapshot).unwrap();
            rs.prepare(a, &[root], heap).unwrap();
            rs.commit(a).unwrap();
            heap.commit_action(a);
        }
        uids
    }

    #[test]
    fn prepare_then_recover_restores_objects() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let obj = heap.alloc_atomic(Value::Int(41), Some(a));
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Seq(vec![Value::heap_ref(obj)]))
            .unwrap();
        let obj_uid = heap.uid_of(obj).unwrap();

        rs.prepare(a, &[root], &heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.pt.get(a), Some(PState::Committed));
        let h = heap2.lookup(obj_uid).unwrap();
        assert_eq!(heap2.read_value(h, None).unwrap(), &Value::Int(41));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(
            heap2.read_value(root2, None).unwrap(),
            &Value::Seq(vec![Value::heap_ref(h)])
        );
        assert!(rs.access_set().contains(&obj_uid));
    }

    #[test]
    fn unforced_prepare_is_invisible_after_crash() {
        let mut rs = rs();
        let a = aid(1);
        rs.append_raw(
            &LogEntry::DataR {
                uid: Uid::STABLE_ROOT,
                kind: ObjKind::Atomic,
                value: Value::Int(1),
                aid: a,
                back: None,
            },
            false,
        )
        .unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.entries_examined, 0);
        assert!(heap2.is_empty());
    }

    #[test]
    fn snapshot_housekeeping_is_unsupported() {
        let mut rs = rs();
        let heap = Heap::new();
        assert!(matches!(
            rs.housekeeping(&heap, HousekeepingMode::Snapshot),
            Err(RsError::Unsupported(_))
        ));
    }

    #[test]
    fn backlinks_chain_versions_of_one_object() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..3 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let entries = rs.dump_entries().unwrap();
        let data: Vec<(LogAddress, Option<LogAddress>)> = entries
            .iter()
            .filter_map(|(addr, e)| match e {
                LogEntry::DataR { uid, back, .. } if *uid == Uid::STABLE_ROOT => {
                    Some((*addr, *back))
                }
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 3);
        assert_eq!(data[0].1, None, "first version starts the chain");
        assert_eq!(data[1].1, Some(data[0].0));
        assert_eq!(data[2].1, Some(data[1].0));
    }

    #[test]
    fn checkpoint_bounds_the_tail_scan() {
        let mut rs = rs();
        rs.set_map_interval(8);
        let mut heap = Heap::with_stable_root();
        for i in 0..50 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let full_entries = rs.log().stable_count();
        rs.simulate_crash().unwrap();
        assert!(rs.set_recovery_mode(RecoveryMode::OnDemand));
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert!(
            out.entries_examined < full_entries / 4,
            "tail scan must be bounded: examined {} of {}",
            out.entries_examined,
            full_entries
        );
        // The root (the only object) was restored eagerly.
        assert_eq!(rs.lazy_pending(), 0);
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(49));
    }

    #[test]
    fn on_demand_defers_and_restores_on_touch() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let uids = commit_children(&mut rs, &mut heap, 5);

        rs.simulate_crash().unwrap();
        assert!(rs.set_recovery_mode(RecoveryMode::OnDemand));
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        assert_eq!(rs.lazy_pending(), 5, "children stay on the log");
        assert!(heap2.stable_root().is_some(), "root restored eagerly");
        for uid in &uids {
            assert!(heap2.lookup(*uid).is_none());
        }

        // First touch materializes; second is a no-op.
        for (i, uid) in uids.iter().enumerate() {
            assert!(rs.demand_restore(*uid, &mut heap2).unwrap());
            let h = heap2.lookup(*uid).unwrap();
            assert_eq!(
                heap2.read_value(h, None).unwrap(),
                &Value::Int(1000 + i as i64)
            );
            assert!(!rs.demand_restore(*uid, &mut heap2).unwrap());
        }
        assert_eq!(rs.lazy_pending(), 0);
        // All references resolved back to pointers.
        let root2 = heap2.stable_root().unwrap();
        let expect: Vec<Value> = uids
            .iter()
            .map(|u| Value::heap_ref(heap2.lookup(*u).unwrap()))
            .collect();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Seq(expect));
    }

    #[test]
    fn parallel_replay_matches_full_recovery() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let uids = commit_children(&mut rs, &mut heap, 8);

        rs.simulate_crash().unwrap();
        assert!(rs.set_recovery_mode(RecoveryMode::Parallel(4)));
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        assert_eq!(rs.lazy_pending(), 0);
        for (i, uid) in uids.iter().enumerate() {
            let h = heap2.lookup(*uid).unwrap();
            assert_eq!(
                heap2.read_value(h, None).unwrap(),
                &Value::Int(1000 + i as i64)
            );
        }
        let profile = rs.last_recovery_profile().unwrap();
        assert_eq!(profile.mode, RecoveryMode::Parallel(4));
        assert_eq!(profile.worker_device_us.len(), 4);
        assert!(profile.worker_device_us.iter().any(|&us| us > 0));
        assert!(profile.parallel_makespan_us() >= profile.scan_device_us);
    }

    #[test]
    fn on_demand_keeps_uid_counter_ahead_of_lazy_objects() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let uids = commit_children(&mut rs, &mut heap, 4);

        rs.simulate_crash().unwrap();
        rs.set_recovery_mode(RecoveryMode::OnDemand);
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let max_lazy = uids.iter().map(|u| u.0).max().unwrap();
        assert!(heap2.next_uid() > max_lazy, "fresh uids must not collide");
        let fresh = heap2.alloc_atomic(Value::Int(7), None);
        let fresh_uid = heap2.uid_of(fresh).unwrap();
        assert!(!uids.contains(&fresh_uid));
    }

    #[test]
    fn on_demand_restores_in_doubt_eagerly_with_committed_base() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..3 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let b = aid(1000);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, b).unwrap();
        heap.write_value(root, b, |v| *v = Value::from("in-doubt"))
            .unwrap();
        rs.prepare(b, &[root], &heap).unwrap();

        rs.simulate_crash().unwrap();
        rs.set_recovery_mode(RecoveryMode::OnDemand);
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        assert!(rs.is_prepared(b));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(
            heap2.read_value(root2, None).unwrap(),
            &Value::Int(2),
            "committed base restored via the backlink"
        );
        assert_eq!(
            heap2.read_value(root2, Some(b)).unwrap(),
            &Value::from("in-doubt"),
            "prepared version restored under its lock"
        );

        // The in-doubt action resolves: its version must become the chain
        // head, visible to a checkpointed tail-only recovery.
        rs.set_map_interval(1);
        rs.commit(b).unwrap();
        heap2.commit_action(b);
        rs.simulate_crash().unwrap();
        let mut heap3 = Heap::new();
        let out = rs.recover(&mut heap3).unwrap();
        assert!(out.entries_examined <= 2, "ckpt right at the top");
        let root3 = heap3.stable_root().unwrap();
        assert_eq!(
            heap3.read_value(root3, None).unwrap(),
            &Value::from("in-doubt")
        );
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_state() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..50 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let before = rs.log().stable_count();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let after = rs.log().stable_count();
        assert!(after < before / 5, "before={before} after={after}");

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(49));
    }

    #[test]
    fn in_doubt_actions_survive_compaction() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..3 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let b = aid(100);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, b).unwrap();
        heap.write_value(root, b, |v| *v = Value::Int(777)).unwrap();
        rs.prepare(b, &[root], &heap).unwrap();

        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.pt.get(b), Some(PState::Prepared));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(2));
        assert_eq!(heap2.read_value(root2, Some(b)).unwrap(), &Value::Int(777));
    }

    #[test]
    fn activity_between_stages_reaches_the_new_log() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..5 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        rs.begin_housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();

        let c = aid(200);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, c).unwrap();
        heap.write_value(root, c, |v| *v = Value::Int(1234))
            .unwrap();
        rs.prepare(c, &[root], &heap).unwrap();
        rs.commit(c).unwrap();
        heap.commit_action(c);

        rs.finish_housekeeping().unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(1234));
    }

    #[test]
    fn mutex_state_survives_compaction() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let m = heap.alloc_mutex(Value::Int(1));
        let m_uid = heap.uid_of(m).unwrap();
        commit_root_update(&mut rs, &mut heap, a, Value::heap_ref(m));

        // A prepared-then-aborted action's mutex version must survive
        // compaction as committed state (§2.4.2).
        let b = aid(2);
        heap.seize(m, b).unwrap();
        heap.mutate_mutex(m, b, |v| *v = Value::Int(42)).unwrap();
        heap.release(m, b).unwrap();
        rs.prepare(b, &[m], &heap).unwrap();
        rs.abort(b).unwrap();
        heap.abort_action(b);

        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let m2 = heap2.lookup(m_uid).unwrap();
        assert_eq!(heap2.read_value(m2, None).unwrap(), &Value::Int(42));
    }

    #[test]
    fn repeated_compaction_recompacts_its_own_digest() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..10 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(9));
    }

    #[test]
    fn crash_before_finish_keeps_the_old_log() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..4 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        rs.begin_housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(3));
        assert!(matches!(
            rs.finish_housekeeping(),
            Err(RsError::BadState(_))
        ));
    }

    #[test]
    fn compaction_rewrites_backlinks_into_the_new_log() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..6 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        rs.begin_housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        // Post-marker activity whose backlink pointed into the old log.
        let c = aid(50);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, c).unwrap();
        heap.write_value(root, c, |v| *v = Value::Int(99)).unwrap();
        rs.prepare(c, &[root], &heap).unwrap();
        rs.commit(c).unwrap();
        heap.commit_action(c);
        rs.finish_housekeeping().unwrap();

        // Every backlink in the compacted log must resolve, within the new
        // log, to an earlier record of the same object.
        let entries = rs.dump_entries().unwrap();
        let by_addr: HashMap<LogAddress, &LogEntry> =
            entries.iter().map(|(a, e)| (*a, e)).collect();
        let mut checked = 0;
        for (addr, entry) in &entries {
            if let LogEntry::DataR {
                uid, back: Some(b), ..
            } = entry
            {
                assert!(b < addr, "backlink must point strictly below");
                match by_addr.get(b) {
                    Some(LogEntry::DataR { uid: u2, .. }) => assert_eq!(u2, uid),
                    Some(LogEntry::BaseCommitted { uid: u2, .. }) => assert_eq!(u2, uid),
                    Some(LogEntry::PreparedData { uid: u2, .. }) => assert_eq!(u2, uid),
                    other => panic!("backlink hit {other:?}"),
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "the post-compaction commit chains on");
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(99));
    }

    #[test]
    fn compaction_remaps_lazy_chain_heads() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let uids = commit_children(&mut rs, &mut heap, 4);

        rs.simulate_crash().unwrap();
        rs.set_recovery_mode(RecoveryMode::OnDemand);
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        assert_eq!(rs.lazy_pending(), 4);

        // Housekeeping switches logs while objects are still lazy: their
        // chain heads must re-home to the new log.
        rs.housekeeping(&heap2, HousekeepingMode::Compaction)
            .unwrap();
        assert_eq!(rs.lazy_pending(), 4);
        for (i, uid) in uids.iter().enumerate() {
            assert!(rs.demand_restore(*uid, &mut heap2).unwrap());
            let h = heap2.lookup(*uid).unwrap();
            assert_eq!(
                heap2.read_value(h, None).unwrap(),
                &Value::Int(1000 + i as i64)
            );
        }
    }

    #[test]
    fn prepared_action_is_in_pat_until_resolution() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(7)).unwrap();
        rs.prepare(a, &[root], &heap).unwrap();
        assert!(rs.is_prepared(a));
        rs.commit(a).unwrap();
        assert!(!rs.is_prepared(a));
    }

    #[test]
    fn full_recovery_after_tail_recovery_round_trips() {
        // OnDemand recover, new commits on demanded objects, crash, full
        // recover: the rebuilt heads must have produced valid backlinks.
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let uids = commit_children(&mut rs, &mut heap, 3);

        rs.simulate_crash().unwrap();
        rs.set_recovery_mode(RecoveryMode::OnDemand);
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        assert!(rs.demand_restore(uids[1], &mut heap2).unwrap());
        let h = heap2.lookup(uids[1]).unwrap();
        let c = aid(500);
        heap2.acquire_write(h, c).unwrap();
        heap2.write_value(h, c, |v| *v = Value::Int(-5)).unwrap();
        rs.prepare(c, &[h], &heap2).unwrap();
        rs.commit(c).unwrap();
        heap2.commit_action(c);

        rs.set_recovery_mode(RecoveryMode::Full);
        rs.simulate_crash().unwrap();
        let mut heap3 = Heap::new();
        rs.recover(&mut heap3).unwrap();
        let h3 = heap3.lookup(uids[1]).unwrap();
        assert_eq!(heap3.read_value(h3, None).unwrap(), &Value::Int(-5));
        let h0 = heap3.lookup(uids[0]).unwrap();
        assert_eq!(heap3.read_value(h0, None).unwrap(), &Value::Int(1000));
    }
}
