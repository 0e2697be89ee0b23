//! The shadowing recovery system.

use crate::record::{decode_record, encode_record, put_version, IntentBody, ShadowRecord};
use argus_core::writer_sink::MosScratch;
use argus_core::{
    CState, HeapValue, HousekeepingMode, LogStats, ObjState, ObjectTable, OtEntry, PState,
    RecoveryOutcome, RecoverySystem, RsError, RsResult, StoreProvider,
};
use argus_objects::{
    ActionId, AtomicObject, GuardianId, Heap, HeapId, MutexObject, ObjKind, ObjectBody, Uid, Value,
};
use argus_sim::{IntMap, IntSet};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::BTreeMap;

/// The shadowing organization behind the common [`RecoverySystem`] trait.
///
/// # Examples
///
/// ```
/// use argus_core::{providers::MemProvider, RecoverySystem};
/// use argus_objects::{ActionId, GuardianId, Heap, Value};
/// use argus_shadow::ShadowRs;
///
/// let mut rs = ShadowRs::create(MemProvider::fast())?;
/// let mut heap = Heap::with_stable_root();
/// let aid = ActionId::new(GuardianId(0), 1);
/// let root = heap.stable_root().unwrap();
/// heap.acquire_write(root, aid)?;
/// heap.write_value(root, aid, |v| *v = Value::from("shadowed"))?;
/// rs.prepare(aid, &[root], &heap)?;
/// rs.commit(aid)?; // writes a brand-new map
/// heap.commit_action(aid);
///
/// rs.simulate_crash()?;
/// let mut recovered = Heap::new();
/// let outcome = rs.recover(&mut recovered)?;
/// // Shadow recovery reads the newest map + live versions, nothing more.
/// assert!(outcome.entries_examined <= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Volatile state mirrors what the stable map encodes: the committed map,
/// the unresolved intents, and the unfinished coordinator actions. Every
/// commit serializes the *entire* map — the cost the thesis holds against
/// shadowing: "changing the entries in the map and rewriting the map at
/// every action commit... could be expensive, especially if the map is large"
/// (§1.2.1).
#[derive(Debug)]
pub struct ShadowRs<P: StoreProvider> {
    provider: P,
    log: StableLog<P::Store>,
    /// The committed map: uid → (kind, version address). Ordered by uid,
    /// the order the map record lists its entries in, so writing the map
    /// is one in-order pass — the thesis charges shadowing for the map's
    /// bytes at every commit, not for sorting it.
    map: BTreeMap<Uid, (ObjKind, LogAddress)>,
    /// Unresolved prepared intents.
    intents: IntMap<ActionId, IntentBody>,
    /// `prepared_data` pairs waiting on another action's commit.
    pd_index: IntMap<ActionId, Vec<(Uid, LogAddress)>>,
    /// Unfinished coordinator actions.
    coords: IntMap<ActionId, Vec<GuardianId>>,
    /// The accessibility set.
    access: IntSet<Uid>,
    /// The prepared-actions table.
    pat: IntSet<ActionId>,
    /// The writing algorithm's working sets, kept for their capacity.
    scratch: MosScratch,
    /// Whether a housekeeping pass is open.
    hk_open: bool,
}

impl<P: StoreProvider> ShadowRs<P> {
    /// Creates a shadowing store over a fresh log.
    pub fn create(mut provider: P) -> RsResult<Self> {
        let log = StableLog::create(provider.new_store())?;
        Ok(Self {
            provider,
            log,
            map: BTreeMap::new(),
            intents: IntMap::default(),
            pd_index: IntMap::default(),
            coords: IntMap::default(),
            access: [Uid::STABLE_ROOT].into_iter().collect(),
            pat: IntSet::default(),
            scratch: MosScratch::default(),
            hk_open: false,
        })
    }

    /// Opens a shadowing store over an existing log (post-crash). Call
    /// [`RecoverySystem::recover`] before anything else.
    pub fn open(provider: P, store: P::Store) -> RsResult<Self> {
        Ok(Self {
            provider,
            log: StableLog::open(store)?,
            map: BTreeMap::new(),
            intents: IntMap::default(),
            pd_index: IntMap::default(),
            coords: IntMap::default(),
            access: IntSet::default(),
            pat: IntSet::default(),
            scratch: MosScratch::default(),
            hk_open: false,
        })
    }

    /// Direct access to the underlying log (experiments).
    pub fn log(&self) -> &StableLog<P::Store> {
        &self.log
    }

    fn append(&mut self, record: &ShadowRecord) -> RsResult<LogAddress> {
        Ok(self.log.write(&encode_record(record)?))
    }

    /// Serializes and appends the full current map — the per-commit price of
    /// shadowing.
    fn append_map(&mut self) -> RsResult<()> {
        let entries: Vec<(Uid, ObjKind, LogAddress)> =
            self.map.iter().map(|(u, (k, a))| (*u, *k, *a)).collect();
        let mut intents: Vec<IntentBody> = self.intents.values().cloned().collect();
        intents.sort_by_key(|i| i.aid);
        let mut coords: Vec<(ActionId, Vec<GuardianId>)> =
            self.coords.iter().map(|(a, g)| (*a, g.clone())).collect();
        coords.sort_by_key(|(a, _)| *a);
        self.append(&ShadowRecord::Map {
            entries,
            intents,
            coords,
        })?;
        Ok(())
    }

    fn read_version(&mut self, addr: LogAddress) -> RsResult<(Uid, ObjKind, Value)> {
        let (_seq, payload) = self.log.read(addr)?;
        match decode_record(&payload)? {
            ShadowRecord::Version { uid, kind, value } => Ok((uid, kind, value)),
            other => Err(RsError::BadState(format!(
                "expected a version record at {addr}, found {other:?}"
            ))),
        }
    }

    /// Folds a resolved intent into the volatile map. Returns whether the
    /// map changed (deciding whether a new map must be written).
    fn fold(&mut self, intent: &IntentBody, committed: bool) -> bool {
        let mut changed = false;
        for (uid, kind, addr) in &intent.cur {
            // Mutex versions take effect once prepared, even on abort.
            if committed || *kind == ObjKind::Mutex {
                self.map.insert(*uid, (*kind, *addr));
                changed = true;
            }
        }
        for (uid, addr) in &intent.base {
            // Base versions of newly accessible objects are committed state
            // regardless of this action's verdict.
            self.map.entry(*uid).or_insert((ObjKind::Atomic, *addr));
            changed = true;
        }
        if committed {
            if let Some(pd) = self.pd_index.remove(&intent.aid) {
                for (uid, addr) in pd {
                    self.map.insert(uid, (ObjKind::Atomic, addr));
                    changed = true;
                }
            }
        }
        changed
    }
}

/// The write-path sink: versions into version storage, pointers into the
/// action's intent.
struct ShadowSink<'a, S: PageStore> {
    log: &'a mut StableLog<S>,
    intent: &'a mut IntentBody,
}

impl<S: PageStore> ShadowSink<'_, S> {
    fn version(&mut self, uid: Uid, kind: ObjKind, value: HeapValue<'_>) -> RsResult<LogAddress> {
        self.log
            .write_with(|enc| put_version(enc, uid, kind, value))
    }
}

impl<S: PageStore> argus_core::writer_sink::Sink for ShadowSink<'_, S> {
    fn data(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: HeapValue<'_>,
        _aid: ActionId,
    ) -> RsResult<()> {
        let addr = self.version(uid, kind, value)?;
        self.intent.cur.push((uid, kind, addr));
        Ok(())
    }

    fn base_committed(&mut self, uid: Uid, value: HeapValue<'_>) -> RsResult<()> {
        let addr = self.version(uid, ObjKind::Atomic, value)?;
        self.intent.base.push((uid, addr));
        Ok(())
    }

    fn prepared_data(&mut self, uid: Uid, value: HeapValue<'_>, aid: ActionId) -> RsResult<()> {
        let addr = self.version(uid, ObjKind::Atomic, value)?;
        self.intent.pd.push((uid, addr, aid));
        Ok(())
    }
}

impl<P: StoreProvider> ShadowRs<P> {
    /// Writes `aid`'s versions and its intent record, unforced.
    fn write_intent(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<()> {
        let mut intent = IntentBody::new(aid);
        {
            let mut sink = ShadowSink {
                log: &mut self.log,
                intent: &mut intent,
            };
            argus_core::writer_sink::process(
                aid,
                mos,
                heap,
                &mut self.access,
                &self.pat,
                &mut self.scratch,
                &mut sink,
            )?;
        }
        self.append(&ShadowRecord::Intent(intent.clone()))?;
        for (uid, addr, other) in &intent.pd {
            self.pd_index.entry(*other).or_default().push((*uid, *addr));
        }
        self.intents.insert(aid, intent);
        self.pat.insert(aid);
        Ok(())
    }

    /// Writes the coordinator's `committing` record, unforced.
    fn write_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<()> {
        self.append(&ShadowRecord::Committing {
            aid,
            gids: gids.to_vec(),
        })?;
        self.coords.insert(aid, gids.to_vec());
        Ok(())
    }

    /// Folds `aid`'s intent into the map and writes the new map and the
    /// resolution record, unforced.
    fn write_commit(&mut self, aid: ActionId) -> RsResult<()> {
        let intent = self
            .intents
            .remove(&aid)
            .unwrap_or_else(|| IntentBody::new(aid));
        self.fold(&intent, true);
        // The defining cost: a full map accompanies every commit. The
        // resolution record follows the map in the same force so the
        // backward scan to the newest map still observes it.
        self.append_map()?;
        self.append(&ShadowRecord::Resolved {
            aid,
            committed: true,
        })?;
        self.pat.remove(&aid);
        Ok(())
    }
}

impl<P: StoreProvider> RecoverySystem for ShadowRs<P> {
    // A coordinator's steps force inside themselves and report that they
    // are already durable: a local commit is one force, with nothing to
    // share it with. A participant's records are only appended, as a log's
    // are, so its verdict can ride whatever force comes next (DESIGN.md
    // deviation 10); so is `done`, which nothing waits for.

    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool> {
        self.write_intent(aid, mos, heap)?;
        Ok(true)
    }

    fn write_entry(
        &mut self,
        _aid: ActionId,
        mos: &[HeapId],
        _heap: &Heap,
    ) -> RsResult<Vec<HeapId>> {
        // Early prepare is not part of the shadowing organization.
        Ok(mos.to_vec())
    }

    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool> {
        self.write_commit(aid)?;
        Ok(true)
    }

    fn stage_commit_point(
        &mut self,
        aid: ActionId,
        mos: &[HeapId],
        heap: &Heap,
        gids: &[GuardianId],
    ) -> RsResult<bool> {
        // Versions, intent, `committing`, map and resolution under one
        // force. The map is written after the action joins `coords`, so the
        // map recovery stops at still lists it as unfinished.
        self.write_intent(aid, mos, heap)?;
        if !gids.is_empty() {
            self.write_committing(aid, gids)?;
        }
        self.write_commit(aid)?;
        self.log.force()?;
        Ok(false)
    }

    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        let intent = self.intents.remove(&aid);
        self.pd_index.remove(&aid);
        let changed = match &intent {
            Some(body) => self.fold(body, false),
            None => false,
        };
        if changed {
            self.append_map()?;
        }
        self.append(&ShadowRecord::Resolved {
            aid,
            committed: false,
        })?;
        self.pat.remove(&aid);
        Ok(true)
    }

    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        self.write_committing(aid, gids)?;
        self.log.force()?;
        Ok(false)
    }

    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        // Rides the next operation's force.
        self.append(&ShadowRecord::Done { aid })?;
        self.coords.remove(&aid);
        Ok(true)
    }

    fn force_staged(&mut self) -> RsResult<()> {
        self.log.force()?;
        Ok(())
    }

    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome> {
        let mut entries_examined = 0u64;
        let mut data_entries_read = 0u64;

        // Phase 1: scan backward to the newest map, collecting what came
        // after it.
        let mut resolved: IntMap<ActionId, bool> = IntMap::default();
        let mut post_intents: Vec<IntentBody> = Vec::new();
        let mut post_committing: Vec<(ActionId, Vec<GuardianId>)> = Vec::new();
        let mut done: IntSet<ActionId> = IntSet::default();
        let mut map_entries: Vec<(Uid, ObjKind, LogAddress)> = Vec::new();
        let mut map_intents: Vec<IntentBody> = Vec::new();
        let mut map_coords: Vec<(ActionId, Vec<GuardianId>)> = Vec::new();

        for item in self.log.read_backward(None) {
            let (_addr, _seq, payload) = item?;
            entries_examined += 1;
            match decode_record(&payload)? {
                ShadowRecord::Map {
                    entries,
                    intents,
                    coords,
                } => {
                    map_entries = entries;
                    map_intents = intents;
                    map_coords = coords;
                    break; // everything older is superseded
                }
                ShadowRecord::Resolved { aid, committed } => {
                    resolved.entry(aid).or_insert(committed);
                }
                ShadowRecord::Intent(body) => post_intents.push(body),
                ShadowRecord::Committing { aid, gids } => post_committing.push((aid, gids)),
                ShadowRecord::Done { aid } => {
                    done.insert(aid);
                }
                ShadowRecord::Version { .. } => {}
            }
        }

        // Effective in-doubt intents: newest first, minus resolved ones.
        let mut in_doubt: Vec<IntentBody> = Vec::new();
        let mut seen: IntSet<ActionId> = IntSet::default();
        for intent in post_intents.into_iter().chain(map_intents) {
            if !resolved.contains_key(&intent.aid) && seen.insert(intent.aid) {
                in_doubt.push(intent);
            }
        }

        // Phase 2: materialize the committed state from the map.
        let mut ot = ObjectTable::new();
        for (uid, kind, addr) in &map_entries {
            let (vuid, vkind, value) = self.read_version(*addr)?;
            entries_examined += 1;
            data_entries_read += 1;
            if vuid != *uid || vkind != *kind {
                return Err(RsError::BadState(format!(
                    "map entry for {uid} names {vuid}"
                )));
            }
            let body = match kind {
                ObjKind::Atomic => ObjectBody::Atomic(AtomicObject::new(value)),
                ObjKind::Mutex => ObjectBody::Mutex(MutexObject::new(value)),
            };
            let h = heap.insert_with_uid(*uid, body)?;
            ot.insert(
                *uid,
                OtEntry {
                    state: ObjState::Restored,
                    heap: h,
                    mutex_addr: (*kind == ObjKind::Mutex).then_some(*addr),
                },
            );
        }

        // Phase 3: overlay the in-doubt intents.
        let mut pt = argus_core::ParticipantTable::new();
        for (aid, committed) in &resolved {
            pt.enter(
                *aid,
                if *committed {
                    PState::Committed
                } else {
                    PState::Aborted
                },
            );
        }
        let doubt_set: IntSet<ActionId> = in_doubt.iter().map(|i| i.aid).collect();
        for intent in &in_doubt {
            pt.enter(intent.aid, PState::Prepared);
            for (uid, addr) in &intent.base {
                if heap.lookup(*uid).is_none() {
                    let (_u, _k, value) = self.read_version(*addr)?;
                    entries_examined += 1;
                    data_entries_read += 1;
                    let h =
                        heap.insert_with_uid(*uid, ObjectBody::Atomic(AtomicObject::new(value)))?;
                    ot.insert(
                        *uid,
                        OtEntry {
                            state: ObjState::Restored,
                            heap: h,
                            mutex_addr: None,
                        },
                    );
                }
            }
            let attach = |rs: &mut Self,
                          heap: &mut Heap,
                          ot: &mut ObjectTable,
                          uid: Uid,
                          kind: ObjKind,
                          addr: LogAddress,
                          owner: ActionId|
             -> RsResult<()> {
                let (_u, _k, value) = rs.read_version(addr)?;
                match heap.lookup(uid) {
                    Some(h) => match (heap.get(h)?.body.kind(), kind) {
                        (ObjKind::Atomic, ObjKind::Atomic) => {
                            if heap.restore_current(h, owner, value)? {
                                if let Some(e) = ot.get_mut(uid) {
                                    e.state = ObjState::Prepared;
                                }
                            }
                        }
                        (ObjKind::Mutex, ObjKind::Mutex) => heap.restore_mutex_value(h, value)?,
                        _ => {
                            return Err(RsError::BadState(format!("kind mismatch restoring {uid}")))
                        }
                    },
                    None => {
                        let body = match kind {
                            ObjKind::Atomic => ObjectBody::Atomic(AtomicObject {
                                base: Value::Unit,
                                current: Some(value),
                                writer: Some(owner),
                                readers: Default::default(),
                            }),
                            ObjKind::Mutex => ObjectBody::Mutex(MutexObject::new(value)),
                        };
                        let h = heap.insert_with_uid(uid, body)?;
                        ot.insert(
                            uid,
                            OtEntry {
                                state: match kind {
                                    ObjKind::Atomic => ObjState::Prepared,
                                    ObjKind::Mutex => ObjState::Restored,
                                },
                                heap: h,
                                mutex_addr: (kind == ObjKind::Mutex).then_some(addr),
                            },
                        );
                    }
                }
                Ok(())
            };
            for (uid, kind, addr) in &intent.cur {
                entries_examined += 1;
                data_entries_read += 1;
                attach(self, heap, &mut ot, *uid, *kind, *addr, intent.aid)?;
            }
            for (uid, addr, other) in &intent.pd {
                if doubt_set.contains(other) {
                    entries_examined += 1;
                    data_entries_read += 1;
                    attach(self, heap, &mut ot, *uid, ObjKind::Atomic, *addr, *other)?;
                }
            }
        }

        heap.resolve_uid_refs();

        // Coordinator table.
        let mut ct = argus_core::CoordinatorTable::new();
        for aid in &done {
            ct.enter(*aid, CState::Done);
        }
        for (aid, gids) in post_committing.into_iter().chain(map_coords) {
            if !done.contains(&aid) {
                ct.enter(aid, CState::Committing(gids));
            }
        }

        // Rebuild volatile state.
        self.map = map_entries
            .into_iter()
            .map(|(u, k, a)| (u, (k, a)))
            .collect();
        self.intents = in_doubt.iter().map(|i| (i.aid, i.clone())).collect();
        self.pd_index.clear();
        for intent in &in_doubt {
            for (uid, addr, other) in &intent.pd {
                self.pd_index.entry(*other).or_default().push((*uid, *addr));
            }
        }
        self.coords = ct.committing_actions().into_iter().collect();
        self.access = heap.accessible_uids();
        if heap.stable_root().is_none() {
            self.access.insert(Uid::STABLE_ROOT);
        }
        self.pat = doubt_set;

        Ok(RecoveryOutcome {
            ot,
            pt,
            ct,
            entries_examined,
            data_entries_read,
            // Shadowing recovers from the version map, not a backward chain.
            chain_hops: 0,
        })
    }

    fn begin_housekeeping(&mut self, heap: &Heap, _mode: HousekeepingMode) -> RsResult<()> {
        if self.hk_open {
            return Err(RsError::BadState("housekeeping already in progress".into()));
        }
        // Version-storage garbage collection: copy the live versions and the
        // in-doubt intents' versions to a fresh log, rewrite the map, switch.
        let mut new_log = StableLog::create(self.provider.new_store())?;
        let mut new_map: BTreeMap<Uid, (ObjKind, LogAddress)> = BTreeMap::new();
        let map_snapshot: Vec<(Uid, ObjKind, LogAddress)> =
            self.map.iter().map(|(u, (k, a))| (*u, *k, *a)).collect();
        for (uid, kind, addr) in map_snapshot {
            let (_u, _k, value) = self.read_version(addr)?;
            let na = new_log.write(&encode_record(&ShadowRecord::Version { uid, kind, value })?);
            new_map.insert(uid, (kind, na));
        }
        let intents_snapshot: Vec<IntentBody> = self.intents.values().cloned().collect();
        let mut new_intents: IntMap<ActionId, IntentBody> = IntMap::default();
        for old in intents_snapshot {
            let mut rewritten = IntentBody::new(old.aid);
            for (uid, kind, addr) in old.cur {
                let (_u, _k, value) = self.read_version(addr)?;
                let na =
                    new_log.write(&encode_record(&ShadowRecord::Version { uid, kind, value })?);
                rewritten.cur.push((uid, kind, na));
            }
            for (uid, addr) in old.base {
                let (_u, _k, value) = self.read_version(addr)?;
                let na = new_log.write(&encode_record(&ShadowRecord::Version {
                    uid,
                    kind: ObjKind::Atomic,
                    value,
                })?);
                rewritten.base.push((uid, na));
            }
            for (uid, addr, other) in old.pd {
                let (_u, _k, value) = self.read_version(addr)?;
                let na = new_log.write(&encode_record(&ShadowRecord::Version {
                    uid,
                    kind: ObjKind::Atomic,
                    value,
                })?);
                rewritten.pd.push((uid, na, other));
            }
            new_intents.insert(rewritten.aid, rewritten);
        }
        // Write the map on the new log and force the whole thing durable
        // while the old log is still the active one: a crash anywhere up to
        // here recovers from the untouched old log. Only a fully forced new
        // log may supplant it.
        let entries: Vec<(Uid, ObjKind, LogAddress)> =
            new_map.iter().map(|(u, (k, a))| (*u, *k, *a)).collect();
        let mut intents: Vec<IntentBody> = new_intents.values().cloned().collect();
        intents.sort_by_key(|i| i.aid);
        let mut coords: Vec<(ActionId, Vec<GuardianId>)> =
            self.coords.iter().map(|(a, g)| (*a, g.clone())).collect();
        coords.sort_by_key(|(a, _)| *a);
        new_log.write(&encode_record(&ShadowRecord::Map {
            entries,
            intents,
            coords,
        })?);
        new_log.force()?;

        // "In one atomic step, the new log supplants the old log."
        self.log = new_log;
        self.provider.store_switched();
        self.map = new_map;
        self.intents = new_intents;
        self.pd_index.clear();
        for intent in self.intents.values() {
            for (uid, addr, other) in &intent.pd {
                self.pd_index.entry(*other).or_default().push((*uid, *addr));
            }
        }
        let _ = heap;
        self.hk_open = true;
        Ok(())
    }

    fn finish_housekeeping(&mut self) -> RsResult<()> {
        if !self.hk_open {
            return Err(RsError::BadState("no housekeeping in progress".into()));
        }
        self.hk_open = false;
        Ok(())
    }

    fn simulate_crash(&mut self) -> RsResult<()> {
        self.log.reopen()?;
        self.map.clear();
        self.intents.clear();
        self.pd_index.clear();
        self.coords.clear();
        self.access.clear();
        self.pat.clear();
        self.hk_open = false;
        Ok(())
    }

    fn trim_access_set(&mut self, heap: &Heap) {
        let reachable = heap.accessible_uids();
        self.access = self.access.intersection(&reachable).copied().collect();
        self.access.insert(Uid::STABLE_ROOT);
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
    use argus_core::providers::MemProvider;

    fn rs() -> ShadowRs<MemProvider> {
        ShadowRs::create(MemProvider::fast()).unwrap()
    }

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    fn commit_root(rs: &mut ShadowRs<MemProvider>, heap: &mut Heap, a: ActionId, value: Value) {
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = value).unwrap();
        rs.prepare(a, &[root], heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);
    }

    fn recovered(rs: &mut ShadowRs<MemProvider>) -> (Heap, RecoveryOutcome) {
        rs.simulate_crash().unwrap();
        let mut heap = Heap::new();
        let out = rs.recover(&mut heap).unwrap();
        (heap, out)
    }

    #[test]
    fn committed_state_survives_crash() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let obj = heap.alloc_atomic(Value::Int(10), Some(a));
        let obj_uid = heap.uid_of(obj).unwrap();
        commit_root(&mut rs, &mut heap, a, Value::heap_ref(obj));

        let (heap2, out) = recovered(&mut rs);
        assert_eq!(out.pt.get(a), Some(PState::Committed));
        let h = heap2.lookup(obj_uid).unwrap();
        assert_eq!(heap2.read_value(h, None).unwrap(), &Value::Int(10));
        let root = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root, None).unwrap(), &Value::heap_ref(h));
    }

    #[test]
    fn recovery_is_flat_in_history_length() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..30 {
            commit_root(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let (heap2, out) = recovered(&mut rs);
        // One map record + one version per live object: far fewer than the
        // ~90 records on the log.
        assert!(
            out.entries_examined <= 3,
            "examined {}",
            out.entries_examined
        );
        let root = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root, None).unwrap(), &Value::Int(29));
    }

    #[test]
    fn aborted_actions_leave_no_trace() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        commit_root(&mut rs, &mut heap, aid(1), Value::Int(1));
        let b = aid(2);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, b).unwrap();
        heap.write_value(root, b, |v| *v = Value::Int(99)).unwrap();
        rs.prepare(b, &[root], &heap).unwrap();
        rs.abort(b).unwrap();
        heap.abort_action(b);

        let (heap2, out) = recovered(&mut rs);
        assert_eq!(out.pt.get(b), Some(PState::Aborted));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(1));
    }

    #[test]
    fn in_doubt_intent_is_restored_with_lock() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        commit_root(&mut rs, &mut heap, aid(1), Value::Int(1));
        let b = aid(2);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, b).unwrap();
        heap.write_value(root, b, |v| *v = Value::Int(2)).unwrap();
        rs.prepare(b, &[root], &heap).unwrap();

        let (heap2, out) = recovered(&mut rs);
        assert_eq!(out.pt.get(b), Some(PState::Prepared));
        assert!(rs.is_prepared(b));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(1));
        assert_eq!(heap2.read_value(root2, Some(b)).unwrap(), &Value::Int(2));
    }

    #[test]
    fn mutex_of_prepared_then_aborted_action_survives() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let m = heap.alloc_mutex(Value::Int(1));
        let m_uid = heap.uid_of(m).unwrap();
        commit_root(&mut rs, &mut heap, a, Value::heap_ref(m));

        let b = aid(2);
        heap.seize(m, b).unwrap();
        heap.mutate_mutex(m, b, |v| *v = Value::Int(42)).unwrap();
        heap.release(m, b).unwrap();
        rs.prepare(b, &[m], &heap).unwrap();
        rs.abort(b).unwrap();
        heap.abort_action(b);

        let (heap2, _) = recovered(&mut rs);
        let m2 = heap2.lookup(m_uid).unwrap();
        assert_eq!(heap2.read_value(m2, None).unwrap(), &Value::Int(42));
    }

    #[test]
    fn housekeeping_bounds_version_storage() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..40 {
            commit_root(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        let before = rs.log().stable_bytes();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        assert!(rs.log().stable_bytes() < before / 4);
        let (heap2, _) = recovered(&mut rs);
        let root = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root, None).unwrap(), &Value::Int(39));
    }

    #[test]
    fn crash_during_housekeeping_keeps_the_old_state() {
        // Regression: housekeeping used to switch to the new log before the
        // rewritten map was forced; a crash in that window recovered from an
        // empty log and lost the whole guardian state. The new log may only
        // supplant the old one after it is fully forced.
        let plan = argus_stable::FaultPlan::new();
        let mut rs = ShadowRs::create(MemProvider::fast().with_plan(plan.clone())).unwrap();
        let mut heap = Heap::with_stable_root();
        for i in 0..10 {
            commit_root(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        // Sweep the crash point across every device write of housekeeping.
        // The write budget comes from an un-faulted probe run: after the
        // switch its log's store has seen exactly the housekeeping writes.
        let total = {
            let mut probe = ShadowRs::create(MemProvider::fast()).unwrap();
            let mut h = Heap::with_stable_root();
            for i in 0..10 {
                commit_root(&mut probe, &mut h, aid(i + 1), Value::Int(i as i64));
            }
            probe
                .housekeeping(&h, HousekeepingMode::Compaction)
                .unwrap();
            probe.log().store().stats().snapshot().writes()
        };
        for k in 0..total {
            plan.heal();
            plan.arm_after_writes(k);
            let crashed = rs
                .housekeeping(&heap, HousekeepingMode::Compaction)
                .is_err();
            plan.heal();
            rs.simulate_crash().unwrap();
            let mut heap2 = Heap::new();
            rs.recover(&mut heap2).unwrap();
            let root = heap2.stable_root().unwrap();
            assert_eq!(
                heap2.read_value(root, None).unwrap(),
                &Value::Int(9),
                "crash at housekeeping write {k} (crashed={crashed}) lost state"
            );
            // Continue from the recovered state for the next crash point.
            heap = heap2;
        }
        // A final untroubled pass still works.
        plan.heal();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let (heap3, _) = recovered(&mut rs);
        let root = heap3.stable_root().unwrap();
        assert_eq!(heap3.read_value(root, None).unwrap(), &Value::Int(9));
    }

    #[test]
    fn coordinator_state_survives() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        commit_root(&mut rs, &mut heap, aid(1), Value::Int(1));
        rs.committing(aid(7), &[GuardianId(0), GuardianId(1)])
            .unwrap();
        let (_, out) = recovered(&mut rs);
        assert_eq!(
            out.ct.committing_actions(),
            vec![(aid(7), vec![GuardianId(0), GuardianId(1)])]
        );
    }

    #[test]
    fn finished_coordinator_needs_no_restart() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        commit_root(&mut rs, &mut heap, aid(1), Value::Int(1));
        rs.committing(aid(8), &[GuardianId(0)]).unwrap();
        rs.done(aid(8)).unwrap();
        let (_, out) = recovered(&mut rs);
        assert!(out.ct.committing_actions().is_empty());
    }

    /// The map record's bytes are pinned: the committed map is kept ordered
    /// by uid so each commit serializes it in one pass, and that must write
    /// exactly the records the collect-and-sort form wrote. A seeded history
    /// of 200 commits (and some aborts) over 24 atomic objects and a mutex,
    /// digested over every record's address and payload; the literals were
    /// taken from the collect-and-sort form.
    #[test]
    fn map_records_are_byte_identical_to_the_sorted_form() {
        let mut rng = argus_sim::DetRng::new(0x5AD0);
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let root = heap.stable_root().unwrap();
        let setup = aid(1);
        let objects: Vec<HeapId> = (0..24)
            .map(|i| heap.alloc_atomic(Value::Int(i), Some(setup)))
            .collect();
        let mutex = heap.alloc_mutex(Value::Int(0));
        let mut refs: Vec<Value> = objects.iter().map(|h| Value::heap_ref(*h)).collect();
        refs.push(Value::heap_ref(mutex));
        heap.acquire_write(root, setup).unwrap();
        heap.write_value(root, setup, |v| *v = Value::Seq(refs))
            .unwrap();
        rs.prepare(setup, &[root], &heap).unwrap();
        rs.commit(setup).unwrap();
        heap.commit_action(setup);

        let mut commits = 1;
        let mut next = 2;
        while commits < 200 {
            let a = aid(next);
            next += 1;
            let mut mos = Vec::new();
            for _ in 0..rng.gen_between(1, 5) {
                let h = objects[rng.gen_range(objects.len() as u64) as usize];
                heap.acquire_write(h, a).unwrap();
                let v = rng.next_u64() as i64;
                heap.write_value(h, a, |val| *val = Value::Int(v)).unwrap();
                if !mos.contains(&h) {
                    mos.push(h);
                }
            }
            if rng.gen_bool(0.2) {
                heap.seize(mutex, a).unwrap();
                heap.mutate_mutex(mutex, a, |val| *val = Value::Int(next as i64))
                    .unwrap();
                heap.release(mutex, a).unwrap();
                mos.push(mutex);
            }
            rs.prepare(a, &mos, &heap).unwrap();
            if rng.gen_bool(0.1) {
                rs.abort(a).unwrap();
                heap.abort_action(a);
            } else {
                rs.commit(a).unwrap();
                heap.commit_action(a);
                commits += 1;
            }
        }

        let mut bytes = Vec::new();
        let mut records = 0u64;
        for item in rs.log.read_backward(None) {
            let (addr, _seq, payload) = item.unwrap();
            bytes.extend_from_slice(&addr.0.to_le_bytes());
            bytes.extend_from_slice(&payload);
            records += 1;
        }
        assert_eq!(
            (records, bytes.len(), argus_slog::crc32(&bytes)),
            (1_245, 134_450, 3_328_444_191)
        );
    }
}
