//! The hybrid-log recovery system (ch. 4): the thesis's contribution.
//!
//! The shadowing map is distributed over the `prepared` outcome entries as
//! `(uid, log address)` pairs, and every outcome entry carries a pointer to
//! the previous outcome entry, forming a backward chain. Recovery walks the
//! chain and reads data entries *only when a version actually needs to be
//! copied* — that selectivity is why hybrid recovery examines far fewer
//! entries than the simple log (experiments E2/E3).

use crate::api::{HousekeepingMode, LogStats, RecoverySystem, StoreProvider};
use crate::entry::{
    decode_entry, decode_entry_view, encode_entry, encode_entry_into, EntryRef, EntryView, LogEntry,
};
use crate::housekeeping::HkState;
use crate::metrics::CoreObs;
use crate::restore::RecoverCtx;
use crate::tables::{MutexTable, ObjState, PState, RecoveryOutcome};
use crate::writer::{process_mos, EntrySink};
use crate::{RsError, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, ObjKind, Uid, Value};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::{HashMap, HashSet};

/// One `(uid, data-entry address)` pair plus the object kind, tracked per
/// action between its data-entry writes and its prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPair {
    pub uid: Uid,
    pub addr: LogAddress,
    pub kind: ObjKind,
}

/// Emits hybrid-log entries: anonymous data entries whose addresses are
/// collected into the preparing action's map fragment, and chained special
/// outcome entries (Figure 4-1).
struct HybridSink<'a, S: argus_stable::PageStore> {
    log: &'a mut StableLog<S>,
    pairs: &'a mut Vec<PendingPair>,
    last_outcome: &'a mut Option<LogAddress>,
    oel: &'a mut Option<Vec<LogAddress>>,
    obs: &'a CoreObs,
}

impl<S: argus_stable::PageStore> HybridSink<'_, S> {
    fn chain(&mut self, mut entry: EntryRef<'_>) -> RsResult<LogAddress> {
        let prev = self.last_outcome.map(|a| a.0);
        entry.set_prev(*self.last_outcome);
        let addr = self.log.write_with(|enc| encode_entry_into(enc, &entry))?;
        self.obs.outcome(entry.name(), prev);
        *self.last_outcome = Some(addr);
        if let Some(oel) = self.oel {
            oel.push(addr);
        }
        Ok(addr)
    }
}

impl<S: argus_stable::PageStore> EntrySink for HybridSink<'_, S> {
    fn data(&mut self, uid: Uid, kind: ObjKind, value: Value, _aid: ActionId) -> RsResult<()> {
        let mut len = 0;
        let addr = self.log.write_with(|enc| {
            let start = enc.len();
            encode_entry_into(
                enc,
                &EntryRef::DataH {
                    kind,
                    value: &value,
                },
            )?;
            len = (enc.len() - start) as u64;
            Ok::<_, RsError>(())
        })?;
        self.obs.data_entry(len);
        self.pairs.push(PendingPair { uid, addr, kind });
        Ok(())
    }

    fn base_committed(&mut self, uid: Uid, value: Value) -> RsResult<()> {
        self.chain(EntryRef::BaseCommitted {
            uid,
            value: &value,
            prev: None,
        })?;
        Ok(())
    }

    fn prepared_data(&mut self, uid: Uid, value: Value, aid: ActionId) -> RsResult<()> {
        self.chain(EntryRef::PreparedData {
            uid,
            value: &value,
            aid,
            prev: None,
        })?;
        Ok(())
    }
}

/// The recovery system over a hybrid log.
///
/// Owns the active [`StableLog`], the accessibility set, the PAT, the mutex
/// table (MT, §5.2), the per-action early-prepare bookkeeping, and — while a
/// housekeeping pass is open — the outcome entries list (OEL) and the new
/// log under construction.
///
/// # Examples
///
/// ```
/// use argus_core::{providers::MemProvider, HybridLogRs, RecoverySystem};
/// use argus_objects::{ActionId, GuardianId, Heap, Value};
///
/// let mut rs = HybridLogRs::create(MemProvider::fast())?;
/// let mut heap = Heap::with_stable_root();
///
/// // One committed action modifying the stable root.
/// let aid = ActionId::new(GuardianId(0), 1);
/// let root = heap.stable_root().unwrap();
/// heap.acquire_write(root, aid)?;
/// heap.write_value(root, aid, |v| *v = Value::Int(7))?;
/// rs.prepare(aid, &[root], &heap)?;
/// rs.commit(aid)?;
/// heap.commit_action(aid);
///
/// // Crash: volatile state vanishes; recovery rebuilds it from the log.
/// rs.simulate_crash()?;
/// let mut recovered = Heap::new();
/// rs.recover(&mut recovered)?;
/// let root = recovered.stable_root().unwrap();
/// assert_eq!(recovered.read_value(root, None)?, &Value::Int(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HybridLogRs<P: StoreProvider> {
    pub(crate) provider: P,
    pub(crate) log: StableLog<P::Store>,
    /// The accessibility set (AS).
    pub(crate) access: HashSet<Uid>,
    /// The prepared-actions table (PAT).
    pub(crate) pat: HashSet<ActionId>,
    /// The committing-actions table (CAT): coordinators past the commit
    /// point whose `done` is not yet logged. Volatile twin of the
    /// recovery CT, kept so a snapshot can re-emit `committing` entries —
    /// the snapshot reads no log, and phase-two state lives nowhere in
    /// the heap.
    pub(crate) cat: HashMap<ActionId, Vec<GuardianId>>,
    /// Address of the most recent outcome entry: the chain head.
    pub(crate) last_outcome: Option<LogAddress>,
    /// Early-prepared data entries per action, not yet covered by a
    /// `prepared` entry.
    pub(crate) pending: HashMap<ActionId, Vec<PendingPair>>,
    /// The mutex table: mutex uid → address of its latest prepared version.
    pub(crate) mt: MutexTable,
    /// The outcome entries list, recorded while housekeeping is open.
    pub(crate) oel: Option<Vec<LogAddress>>,
    /// In-progress housekeeping state.
    pub(crate) hk: Option<HkState<P::Store>>,
    /// Cached metric handles.
    pub(crate) obs: CoreObs,
}

impl<P: StoreProvider> HybridLogRs<P> {
    /// Creates a recovery system over a freshly formatted log.
    pub fn create(mut provider: P) -> RsResult<Self> {
        let log = StableLog::create(provider.new_store())?;
        Ok(Self {
            provider,
            log,
            access: [Uid::STABLE_ROOT].into_iter().collect(),
            pat: HashSet::new(),
            cat: HashMap::new(),
            last_outcome: None,
            pending: HashMap::new(),
            mt: MutexTable::new(),
            oel: None,
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
            cat: HashMap::new(),
            last_outcome: None,
            pending: HashMap::new(),
            mt: MutexTable::new(),
            oel: None,
            hk: None,
            obs: CoreObs::resolve(),
        })
    }

    /// Appends a raw entry, optionally forcing — scenario tests use this to
    /// fabricate the exact logs of the thesis's figures. The entry is *not*
    /// auto-chained; the caller controls `prev` fields completely.
    pub fn append_raw(&mut self, entry: &LogEntry, force: bool) -> RsResult<LogAddress> {
        let addr = self.log.write(&encode_entry(entry)?);
        if force {
            self.log.force()?;
        }
        if entry.is_outcome() {
            self.last_outcome = Some(addr);
        }
        Ok(addr)
    }

    /// The accessibility set (read-only, for tests and experiments).
    pub fn access_set(&self) -> &HashSet<Uid> {
        &self.access
    }

    /// Decodes every forced entry, oldest first — scenario tests use this to
    /// check the exact log contents against the thesis's figures.
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

    /// The mutex table (read-only, for tests).
    pub fn mutex_table(&self) -> &MutexTable {
        &self.mt
    }

    /// Direct access to the underlying log (experiments).
    pub fn log(&self) -> &StableLog<P::Store> {
        &self.log
    }

    /// Appends a chained outcome entry, updating the chain head and the OEL.
    pub(crate) fn append_outcome(
        &mut self,
        mut entry: EntryRef<'_>,
        force: bool,
    ) -> RsResult<LogAddress> {
        let prev = self.last_outcome.map(|a| a.0);
        entry.set_prev(self.last_outcome);
        let addr = self.log.write_with(|enc| encode_entry_into(enc, &entry))?;
        // Chain invariant I2: prev pointers strictly decrease, so the
        // recovery walk always terminates.
        debug_assert!(
            prev.is_none_or(|p| p < addr.0),
            "outcome chain must strictly decrease: prev {prev:?} vs new {}",
            addr.0
        );
        self.obs.outcome(entry.name(), prev);
        if force {
            self.log.force()?;
        }
        self.last_outcome = Some(addr);
        if let Some(oel) = &mut self.oel {
            oel.push(addr);
        }
        Ok(addr)
    }

    /// Merges freshly written pairs into an action's pending set, keeping
    /// only the newest data entry per object.
    fn merge_pairs(into: &mut Vec<PendingPair>, new: Vec<PendingPair>) {
        for pair in new {
            match into.iter_mut().find(|p| p.uid == pair.uid) {
                Some(existing) => *existing = pair,
                None => into.push(pair),
            }
        }
    }

    /// Reads a data entry (either format) at `addr`.
    pub(crate) fn read_data(&mut self, addr: LogAddress) -> RsResult<(ObjKind, Value)> {
        let (_seq, payload) = self.log.read(addr)?;
        match decode_entry(&payload)? {
            LogEntry::DataH { kind, value } => Ok((kind, value)),
            LogEntry::Data { kind, value, .. } => Ok((kind, value)),
            other => Err(RsError::BadState(format!(
                "expected a data entry at {addr}, found {}",
                other.name()
            ))),
        }
    }

    /// The kind of the already-restored object `uid`, if any.
    fn resident_kind(ctx: &RecoverCtx<'_>, uid: Uid) -> RsResult<Option<ObjKind>> {
        match ctx.ot.get(uid) {
            Some(e) => Ok(Some(ctx.heap.get(e.heap)?.body.kind())),
            None => Ok(None),
        }
    }

    /// Processes one `(uid, address)` pair of a `prepared` entry under the
    /// action's effective state, reading the data entry only when a copy is
    /// actually required (§4.3.3).
    fn process_pair(
        &mut self,
        ctx: &mut RecoverCtx<'_>,
        st: PState,
        aid: ActionId,
        uid: Uid,
        daddr: LogAddress,
    ) -> RsResult<()> {
        let resident = ctx.ot.get(uid).copied();
        match st {
            PState::Committed => match resident {
                Some(entry) => match Self::resident_kind(ctx, uid)?.expect("entry implies kind") {
                    ObjKind::Atomic => {
                        // A resident base restored from a checkpoint below
                        // this action's commit point is stale; this pair
                        // holds the real committed state (checkpoint
                        // ordering fix, see DESIGN.md).
                        if entry.state == ObjState::Prepared || ctx.stale_committed_base(uid, aid) {
                            let (kind, value) = self.read_data_counted(ctx, daddr)?;
                            ctx.restore_committed_by(aid, uid, kind, value.into(), Some(daddr))?;
                        }
                    }
                    ObjKind::Mutex => {
                        if entry.mutex_addr.is_some_and(|old| daddr > old) {
                            let (kind, value) = self.read_data_counted(ctx, daddr)?;
                            ctx.restore_committed(uid, kind, value.into(), Some(daddr))?;
                        }
                    }
                },
                None => {
                    let (kind, value) = self.read_data_counted(ctx, daddr)?;
                    ctx.restore_committed(uid, kind, value.into(), Some(daddr))?;
                }
            },
            PState::Prepared => match resident {
                Some(entry) => match Self::resident_kind(ctx, uid)?.expect("entry implies kind") {
                    ObjKind::Atomic => {
                        // Post-compaction ordering: attach the prepared
                        // current version if the restored object has none.
                        let needs_current = match &ctx.heap.get(entry.heap)?.body {
                            argus_objects::ObjectBody::Atomic(obj) => obj.writer.is_none(),
                            _ => false,
                        };
                        if needs_current {
                            let (kind, value) = self.read_data_counted(ctx, daddr)?;
                            ctx.restore_prepared(uid, kind, value.into(), aid, Some(daddr))?;
                        }
                    }
                    ObjKind::Mutex => {
                        if entry.mutex_addr.is_some_and(|old| daddr > old) {
                            let (kind, value) = self.read_data_counted(ctx, daddr)?;
                            ctx.restore_prepared(uid, kind, value.into(), aid, Some(daddr))?;
                        }
                    }
                },
                None => {
                    let (kind, value) = self.read_data_counted(ctx, daddr)?;
                    ctx.restore_prepared(uid, kind, value.into(), aid, Some(daddr))?;
                }
            },
            PState::Aborted => match resident {
                Some(entry) => {
                    if Self::resident_kind(ctx, uid)? == Some(ObjKind::Mutex)
                        && entry.mutex_addr.is_some_and(|old| daddr > old)
                    {
                        let (kind, value) = self.read_data_counted(ctx, daddr)?;
                        ctx.restore_committed(uid, kind, value.into(), Some(daddr))?;
                    }
                }
                None => {
                    // The kind is only in the data entry; mutex versions of
                    // an aborted-but-prepared action must still be restored.
                    let (kind, value) = self.read_data_counted(ctx, daddr)?;
                    if kind == ObjKind::Mutex {
                        ctx.restore_committed(uid, kind, value.into(), Some(daddr))?;
                    }
                }
            },
        }
        Ok(())
    }

    fn read_data_counted(
        &mut self,
        ctx: &mut RecoverCtx<'_>,
        addr: LogAddress,
    ) -> RsResult<(ObjKind, Value)> {
        ctx.entries_examined += 1;
        ctx.data_entries_read += 1;
        self.obs
            .reg
            .event(argus_obs::Event::RecoveryDataRead { addr: addr.0 });
        self.read_data(addr)
    }

    /// Finds the head of the outcome-entry chain: the newest forced record
    /// that is an outcome entry. Normally that is simply the top of the log;
    /// after an ill-timed crash the top may be a flushed data entry, in
    /// which case the scan steps back over data entries.
    fn find_chain_head(&mut self, ctx: &mut RecoverCtx<'_>) -> RsResult<Option<LogAddress>> {
        let mut cursor = self.log.get_top();
        let mut scratch = Vec::new();
        while let Some(addr) = cursor {
            self.log.read_into(addr, &mut scratch)?;
            ctx.entries_examined += 1;
            if decode_entry_view(&scratch)?.is_outcome() {
                return Ok(Some(addr));
            }
            // Step over the data entry.
            let mut walk = self.log.walk_backward(Some(addr));
            walk.next_entry(); // the data entry itself
            cursor = match walk.next_entry() {
                Some(item) => Some(item?.0),
                None => None,
            };
        }
        Ok(None)
    }
}

impl<P: StoreProvider> RecoverySystem for HybridLogRs<P> {
    fn prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<()> {
        self.stage_prepare(aid, mos, heap)?;
        self.force_staged()
    }

    fn write_entry(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<Vec<HeapId>> {
        let mut fresh = Vec::new();
        let leftover = {
            let mut sink = HybridSink {
                log: &mut self.log,
                pairs: &mut fresh,
                last_outcome: &mut self.last_outcome,
                oel: &mut self.oel,
                obs: &self.obs,
            };
            process_mos(aid, mos, heap, &mut self.access, &self.pat, &mut sink)?
        };
        Self::merge_pairs(self.pending.entry(aid).or_default(), fresh);
        // This is "free time in the guardian" (§4.4): push the buffered
        // entries to the device now so the eventual prepare only has to
        // force the prepared outcome entry.
        self.log.flush()?;
        self.obs.early_prepares.inc();
        Ok(leftover)
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

    // Staged variants for group commit: the outcome entry is chained and
    // buffered (its address is final) and all volatile bookkeeping happens
    // now, but the device force waits for `force_staged`. One force then
    // publishes every staged entry atomically, so the chain can never be
    // durable with a hole in it.

    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool> {
        let _timer = self.obs.prepare_us.start();
        let mut fresh = Vec::new();
        {
            let mut sink = HybridSink {
                log: &mut self.log,
                pairs: &mut fresh,
                last_outcome: &mut self.last_outcome,
                oel: &mut self.oel,
                obs: &self.obs,
            };
            process_mos(aid, mos, heap, &mut self.access, &self.pat, &mut sink)?;
        }
        let mut all = self.pending.remove(&aid).unwrap_or_default();
        Self::merge_pairs(&mut all, fresh);
        let pairs: Vec<(Uid, LogAddress)> = all.iter().map(|p| (p.uid, p.addr)).collect();
        self.append_outcome(
            EntryRef::Prepared {
                aid,
                pairs: &pairs,
                prev: None,
            },
            false,
        )?;
        // The action is prepared: record the latest prepared mutex versions
        // in the MT (§5.2).
        for pair in &all {
            if pair.kind == ObjKind::Mutex {
                self.mt.insert(pair.uid, pair.addr);
            }
        }
        self.pat.insert(aid);
        self.obs.prepares.inc();
        Ok(true)
    }

    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool> {
        self.append_outcome(EntryRef::Committed { aid, prev: None }, false)?;
        self.pat.remove(&aid);
        self.pending.remove(&aid);
        self.obs.commits.inc();
        Ok(true)
    }

    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        self.append_outcome(EntryRef::Aborted { aid, prev: None }, false)?;
        self.pat.remove(&aid);
        self.pending.remove(&aid);
        self.obs.aborts.inc();
        Ok(true)
    }

    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        self.append_outcome(
            EntryRef::Committing {
                aid,
                gids,
                prev: None,
            },
            false,
        )?;
        self.cat.insert(aid, gids.to_vec());
        self.obs.committings.inc();
        Ok(true)
    }

    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        self.append_outcome(EntryRef::Done { aid, prev: None }, false)?;
        self.cat.remove(&aid);
        self.obs.dones.inc();
        Ok(true)
    }

    fn force_staged(&mut self) -> RsResult<()> {
        self.log.force()?;
        Ok(())
    }

    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome> {
        let timer = self.obs.recover_us.start();
        let mut ctx = RecoverCtx::new(heap);
        let head = self.find_chain_head(&mut ctx)?;

        let mut cursor = head;
        let mut scratch = Vec::new();
        while let Some(addr) = cursor {
            self.log.read_into(addr, &mut scratch)?;
            ctx.entries_examined += 1;
            ctx.chain_hops += 1;
            self.obs
                .reg
                .event(argus_obs::Event::ChainHop { addr: addr.0 });
            let entry = decode_entry_view(&scratch)?;
            cursor = entry.prev();
            // A corrupt prev pointer that does not strictly decrease would
            // loop the walk forever (invariant I2); fail recovery instead.
            if let Some(p) = cursor {
                if p >= addr {
                    return Err(RsError::BadState(format!(
                        "outcome chain does not decrease: {addr} points back to {p}"
                    )));
                }
            }
            match entry {
                EntryView::Prepared { aid, pairs, .. } => {
                    let st = ctx.on_prepared(aid);
                    for (uid, daddr) in pairs.iter() {
                        self.process_pair(&mut ctx, st, aid, uid, daddr)?;
                    }
                }
                EntryView::Committed { aid, .. } => ctx.on_committed(aid),
                EntryView::Aborted { aid, .. } => ctx.on_aborted(aid),
                EntryView::Committing { aid, gids, .. } => ctx.on_committing(aid, gids.to_vec()),
                EntryView::Done { aid, .. } => ctx.on_done(aid),
                EntryView::BaseCommitted { uid, value, .. } => {
                    ctx.on_base_committed(uid, value.into())?
                }
                EntryView::PreparedData {
                    uid, value, aid, ..
                } => ctx.on_prepared_data(uid, value.into(), aid)?,
                EntryView::CommittedSs { cssl, .. } => {
                    for (uid, daddr) in cssl.iter() {
                        match ctx.ot.get(uid).copied() {
                            Some(entry) => {
                                if entry.state == ObjState::Prepared {
                                    let (kind, value) = self.read_data_counted(&mut ctx, daddr)?;
                                    ctx.restore_committed(uid, kind, value.into(), Some(daddr))?;
                                }
                            }
                            None => {
                                let (kind, value) = self.read_data_counted(&mut ctx, daddr)?;
                                ctx.restore_committed(uid, kind, value.into(), Some(daddr))?;
                            }
                        }
                    }
                }
                EntryView::Data { .. } | EntryView::DataH { .. } | EntryView::DataR { .. } => {
                    return Err(RsError::BadState("data entry on the outcome chain".into()))
                }
            }
        }

        ctx.heap.resolve_uid_refs();

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

        // Rebuild the volatile tables.
        self.access = heap.accessible_uids();
        if heap.stable_root().is_none() {
            self.access.insert(Uid::STABLE_ROOT);
        }
        self.pat = outcome.pt.prepared_actions().into_iter().collect();
        self.cat = outcome.ct.committing_actions().into_iter().collect();
        self.mt = outcome
            .ot
            .iter()
            .filter_map(|(uid, e)| e.mutex_addr.map(|a| (*uid, a)))
            .collect();
        self.last_outcome = head;
        self.pending.clear();
        Ok(outcome)
    }

    fn begin_housekeeping(&mut self, heap: &Heap, mode: HousekeepingMode) -> RsResult<()> {
        self.begin_housekeeping_impl(heap, mode)
    }

    fn finish_housekeeping(&mut self) -> RsResult<()> {
        self.finish_housekeeping_impl()
    }

    fn simulate_crash(&mut self) -> RsResult<()> {
        self.log.reopen()?;
        self.access.clear();
        self.pat.clear();
        self.cat.clear();
        self.mt.clear();
        self.last_outcome = None;
        self.pending.clear();
        self.oel = None;
        self.hk = None;
        Ok(())
    }

    fn discard(&mut self, aid: ActionId) {
        self.pending.remove(&aid);
    }

    fn trim_access_set(&mut self, heap: &Heap) {
        let reachable = heap.accessible_uids();
        self.access = self.access.intersection(&reachable).copied().collect();
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
    use crate::tables::PState;

    fn rs() -> HybridLogRs<MemProvider> {
        HybridLogRs::create(MemProvider::fast()).unwrap()
    }

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    fn commit_root_update(
        rs: &mut HybridLogRs<MemProvider>,
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

    #[test]
    fn committed_state_survives_crash() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let obj = heap.alloc_atomic(Value::Int(10), Some(a));
        let obj_uid = heap.uid_of(obj).unwrap();
        commit_root_update(
            &mut rs,
            &mut heap,
            a,
            Value::Seq(vec![Value::heap_ref(obj)]),
        );

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.pt.get(a), Some(PState::Committed));
        let h = heap2.lookup(obj_uid).unwrap();
        assert_eq!(heap2.read_value(h, None).unwrap(), &Value::Int(10));
        // The reference in the root was resolved back to a pointer.
        let root = heap2.stable_root().unwrap();
        assert_eq!(
            heap2.read_value(root, None).unwrap(),
            &Value::Seq(vec![Value::heap_ref(h)])
        );
    }

    #[test]
    fn prepared_in_doubt_action_is_restored_with_lock() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        commit_root_update(&mut rs, &mut heap, a, Value::Int(1));

        // A second action modifies the root and prepares, then the node
        // crashes before the verdict.
        let b = aid(2);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, b).unwrap();
        heap.write_value(root, b, |v| *v = Value::Int(2)).unwrap();
        rs.prepare(b, &[root], &heap).unwrap();

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.pt.get(b), Some(PState::Prepared));
        assert!(rs.is_prepared(b));
        let root2 = heap2.stable_root().unwrap();
        // Base = committed value; current = prepared value under b's lock.
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(1));
        assert_eq!(heap2.read_value(root2, Some(b)).unwrap(), &Value::Int(2));
    }

    #[test]
    fn aborted_actions_leave_no_atomic_trace() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        commit_root_update(&mut rs, &mut heap, a, Value::Int(1));
        let b = aid(2);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, b).unwrap();
        heap.write_value(root, b, |v| *v = Value::Int(99)).unwrap();
        rs.prepare(b, &[root], &heap).unwrap();
        rs.abort(b).unwrap();
        heap.abort_action(b);

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.pt.get(b), Some(PState::Aborted));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(1));
    }

    #[test]
    fn early_prepare_returns_inaccessible_leftovers() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        // An object not reachable from the root yet.
        let orphan = heap.alloc_atomic(Value::Int(5), Some(a));
        heap.acquire_write(orphan, a).unwrap();
        let leftover = rs.write_entry(a, &[orphan], &heap).unwrap();
        assert_eq!(leftover, vec![orphan]);

        // Now the root is modified to reach it; early-prepare the root.
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::heap_ref(orphan))
            .unwrap();
        let leftover = rs.write_entry(a, &[root, orphan], &heap).unwrap();
        assert!(leftover.is_empty());

        // Prepare with an empty MOS: everything was early-prepared.
        rs.prepare(a, &[], &heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        let orphan_h = heap2.lookup(heap.uid_of(orphan).unwrap()).unwrap();
        assert_eq!(
            heap2.read_value(root2, None).unwrap(),
            &Value::heap_ref(orphan_h)
        );
        assert_eq!(heap2.read_value(orphan_h, None).unwrap(), &Value::Int(5));
    }

    #[test]
    fn recovery_skips_data_entries_of_restored_objects() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        // Many committed updates to the same object: recovery must read the
        // newest data entry once, not one per update.
        for i in 0..20 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.data_entries_read, 1);
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(19));
    }

    #[test]
    fn mutex_of_prepared_then_aborted_action_is_restored() {
        // Scenario 2 semantics on the hybrid log.
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let m = heap.alloc_mutex(Value::Int(1));
        let m_uid = heap.uid_of(m).unwrap();
        commit_root_update(&mut rs, &mut heap, a, Value::heap_ref(m));

        let b = aid(2);
        heap.seize(m, b).unwrap();
        heap.mutate_mutex(m, b, |v| *v = Value::Int(42)).unwrap();
        heap.release(m, b).unwrap();
        rs.prepare(b, &[m], &heap).unwrap();
        rs.abort(b).unwrap();
        heap.abort_action(b);

        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let m2 = heap2.lookup(m_uid).unwrap();
        // The new mutex state survives even though b aborted (§2.4.2).
        assert_eq!(heap2.read_value(m2, None).unwrap(), &Value::Int(42));
    }

    #[test]
    fn mutex_table_tracks_latest_prepared_versions() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let m = heap.alloc_mutex(Value::Int(1));
        let m_uid = heap.uid_of(m).unwrap();
        commit_root_update(&mut rs, &mut heap, a, Value::heap_ref(m));
        let first = *rs.mutex_table().get(&m_uid).unwrap();

        let b = aid(2);
        heap.seize(m, b).unwrap();
        heap.mutate_mutex(m, b, |v| *v = Value::Int(2)).unwrap();
        heap.release(m, b).unwrap();
        rs.prepare(b, &[m], &heap).unwrap();
        let second = *rs.mutex_table().get(&m_uid).unwrap();
        assert!(second > first);
    }
}
