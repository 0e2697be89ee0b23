//! Housekeeping (ch. 5): log compaction and the stable-state snapshot.
//!
//! Both techniques build a *new* log that reflects the guardian's current
//! stable state and then supplant the old log in one atomic step. They run
//! in two stages around the housekeeping marker:
//!
//! * **stage one** digests everything before the marker — compaction by
//!   re-reading the old log like a recovery (§5.1.1), snapshot by copying
//!   volatile memory (§5.2) — ending with the `committed_ss` checkpoint
//!   entry;
//! * **stage two** copies the outcome entries recorded in the OEL (guardian
//!   activity that continued during stage one) onto the new log, then
//!   switches.
//!
//! `begin_housekeeping` runs stage one; ordinary recovery-system operations
//! may then continue (they append to the old log and are recorded in the
//! OEL); `finish_housekeeping` runs stage two.

use crate::api::{HousekeepingMode, StoreProvider};
use crate::entry::{decode_entry, encode_entry, LogEntry};
use crate::hybrid::{HybridLogRs, PendingPair};
use crate::tables::{CState, CoordinatorTable, ObjState, PState, ParticipantTable};
use crate::{MutexTable, RsError, RsResult};
use argus_objects::{flatten_value, ActionId, GuardianId, Heap, ObjKind, ObjectBody, Uid, Value};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::{HashMap, HashSet, VecDeque};

/// Stage-one object bookkeeping: like the recovery OT but without volatile
/// addresses (§5.1.1), plus the object kind so already-digested atomic
/// objects can be skipped without re-reading their data entries.
#[derive(Debug, Clone, Copy)]
struct HkObj {
    state: ObjState,
    kind: ObjKind,
    /// For mutex objects: the *old-log* address of the version copied, used
    /// for the recency comparisons of §5.1.1/§5.2.
    mutex_old_addr: Option<LogAddress>,
}

/// The state of an open housekeeping pass.
#[derive(Debug)]
pub(crate) struct HkState<S: PageStore> {
    new_log: StableLog<S>,
    mode: HousekeepingMode,
    /// The committed stable state list: `(uid, new-log data address)`.
    cssl: Vec<(Uid, LogAddress)>,
    /// Chain head in the new log.
    new_last: Option<LogAddress>,
    /// The mutex table being rebuilt with new-log addresses.
    new_mt: MutexTable,
    /// Snapshot only: the accessibility set rebuilt by the traversal.
    new_access: Option<HashSet<Uid>>,
    ot: HashMap<Uid, HkObj>,
    /// Stable entries on the old log when the pass started (for the
    /// compaction metrics).
    old_entries_at_begin: u64,
}

impl<S: PageStore> HkState<S> {
    fn append_data(&mut self, kind: ObjKind, value: Value) -> RsResult<LogAddress> {
        Ok(self
            .new_log
            .write(&encode_entry(&LogEntry::DataH { kind, value })?))
    }

    fn append_outcome(&mut self, mut entry: LogEntry) -> RsResult<LogAddress> {
        entry.set_prev(self.new_last);
        let addr = self.new_log.write(&encode_entry(&entry)?);
        self.new_last = Some(addr);
        Ok(addr)
    }

    /// Copies one committed atomic version into the new log and the CSSL,
    /// respecting the OT state.
    fn copy_committed_atomic(&mut self, uid: Uid, value: Value) -> RsResult<()> {
        match self.ot.get(&uid).map(|o| o.state) {
            Some(ObjState::Restored) => Ok(()),
            state => {
                self.ot.insert(
                    uid,
                    HkObj {
                        state: ObjState::Restored,
                        kind: ObjKind::Atomic,
                        mutex_old_addr: None,
                    },
                );
                let addr = self.append_data(ObjKind::Atomic, value)?;
                self.cssl.push((uid, addr));
                let _ = state;
                Ok(())
            }
        }
    }

    /// Copies a mutex version if `old_addr` names the most recent version
    /// seen so far (old-log address comparison). Returns the new address if
    /// copied.
    fn copy_mutex_if_latest(
        &mut self,
        uid: Uid,
        value: Value,
        old_addr: LogAddress,
    ) -> RsResult<Option<LogAddress>> {
        if let Some(existing) = self.ot.get(&uid) {
            if existing.mutex_old_addr.is_some_and(|a| a >= old_addr) {
                return Ok(None);
            }
        }
        let addr = self.append_data(ObjKind::Mutex, value)?;
        self.ot.insert(
            uid,
            HkObj {
                state: ObjState::Restored,
                kind: ObjKind::Mutex,
                mutex_old_addr: Some(old_addr),
            },
        );
        self.new_mt.insert(uid, addr);
        // Replace any older CSSL pair for this mutex.
        self.cssl.retain(|(u, _)| *u != uid);
        self.cssl.push((uid, addr));
        Ok(Some(addr))
    }
}

impl<P: StoreProvider> HybridLogRs<P> {
    pub(crate) fn begin_housekeeping_impl(
        &mut self,
        heap: &Heap,
        mode: HousekeepingMode,
    ) -> RsResult<()> {
        if self.hk.is_some() {
            return Err(RsError::BadState("housekeeping already in progress".into()));
        }
        let _timer = self.obs.hk_begin_us.start();
        // Flush buffered entries so the marker covers a readable prefix.
        self.log.force()?;
        let marker = self.last_outcome;

        let mut hk = HkState {
            new_log: StableLog::create(self.provider.new_store())?,
            mode,
            cssl: Vec::new(),
            new_last: None,
            new_mt: MutexTable::new(),
            new_access: None,
            ot: HashMap::new(),
            old_entries_at_begin: self.log.stable_count(),
        };

        match mode {
            HousekeepingMode::Compaction => self.compact_stage_one(&mut hk, marker)?,
            HousekeepingMode::Snapshot => self.snapshot_stage_one(&mut hk, heap)?,
        }

        // The checkpoint entry: "like a combined prepare and commit for some
        // special action whose name does not matter" (§5.1.1).
        let cssl = hk.cssl.clone();
        hk.append_outcome(LogEntry::CommittedSs { cssl, prev: None })?;

        self.hk = Some(hk);
        self.oel = Some(Vec::new());
        Ok(())
    }

    /// Stage one of compaction (§5.1.1): read the old log backwards from the
    /// marker exactly like a recovery, but write surviving entries to the
    /// new log instead of building objects in volatile memory.
    fn compact_stage_one(
        &mut self,
        hk: &mut HkState<P::Store>,
        marker: Option<LogAddress>,
    ) -> RsResult<()> {
        let mut pt = ParticipantTable::new();
        let mut ct = CoordinatorTable::new();

        let mut cursor = marker;
        while let Some(addr) = cursor {
            let (_seq, payload) = self.log.read(addr)?;
            let entry = decode_entry(&payload)?;
            cursor = entry.prev();
            match entry {
                LogEntry::Committed { aid, .. } => {
                    pt.enter(aid, PState::Committed);
                }
                LogEntry::Aborted { aid, .. } => {
                    pt.enter(aid, PState::Aborted);
                }
                LogEntry::Done { aid, .. } => ct.enter(aid, CState::Done),
                LogEntry::Committing { aid, gids, .. } => {
                    if ct.get(aid) != Some(&CState::Done) {
                        ct.enter(aid, CState::Committing(gids.clone()));
                        hk.append_outcome(LogEntry::Committing {
                            aid,
                            gids,
                            prev: None,
                        })?;
                    }
                }
                LogEntry::BaseCommitted { uid, value, .. } => {
                    hk.copy_committed_atomic(uid, value)?;
                }
                LogEntry::PreparedData {
                    uid, value, aid, ..
                } => match pt.get(aid) {
                    Some(PState::Aborted) => {}
                    Some(PState::Committed) => hk.copy_committed_atomic(uid, value)?,
                    Some(PState::Prepared) | None => {
                        pt.enter(aid, PState::Prepared);
                        hk.ot.entry(uid).or_insert(HkObj {
                            state: ObjState::Prepared,
                            kind: ObjKind::Atomic,
                            mutex_old_addr: None,
                        });
                        hk.append_outcome(LogEntry::PreparedData {
                            uid,
                            value,
                            aid,
                            prev: None,
                        })?;
                    }
                },
                LogEntry::Prepared { aid, pairs, .. } => {
                    let st = pt.enter(aid, PState::Prepared);
                    match st {
                        PState::Aborted => {
                            for (uid, daddr) in pairs {
                                // Atomic versions die with the abort; mutex
                                // versions obey the recency rule.
                                if hk.ot.get(&uid).map(|o| o.kind) == Some(ObjKind::Atomic) {
                                    continue;
                                }
                                let (kind, value) = self.read_data(daddr)?;
                                if kind == ObjKind::Mutex {
                                    hk.copy_mutex_if_latest(uid, value, daddr)?;
                                }
                            }
                        }
                        PState::Committed => {
                            for (uid, daddr) in pairs {
                                if let Some(obj) = hk.ot.get(&uid) {
                                    if obj.kind == ObjKind::Atomic
                                        && obj.state == ObjState::Restored
                                    {
                                        continue;
                                    }
                                    if obj.kind == ObjKind::Mutex
                                        && obj.mutex_old_addr.is_some_and(|a| a >= daddr)
                                    {
                                        continue;
                                    }
                                }
                                let (kind, value) = self.read_data(daddr)?;
                                match kind {
                                    ObjKind::Atomic => hk.copy_committed_atomic(uid, value)?,
                                    ObjKind::Mutex => {
                                        hk.copy_mutex_if_latest(uid, value, daddr)?;
                                    }
                                }
                            }
                        }
                        PState::Prepared => {
                            // Outcome unknown: the action stays prepared on
                            // the new log.
                            let mut new_pairs = Vec::new();
                            for (uid, daddr) in pairs {
                                let (kind, value) = self.read_data(daddr)?;
                                match kind {
                                    ObjKind::Atomic => {
                                        hk.ot.entry(uid).or_insert(HkObj {
                                            state: ObjState::Prepared,
                                            kind: ObjKind::Atomic,
                                            mutex_old_addr: None,
                                        });
                                        let na = hk.append_data(ObjKind::Atomic, value)?;
                                        new_pairs.push((uid, na));
                                    }
                                    ObjKind::Mutex => {
                                        // Prepared mutex state is the state
                                        // regardless of outcome: CSSL (§5.1.1).
                                        hk.copy_mutex_if_latest(uid, value, daddr)?;
                                    }
                                }
                            }
                            // Deviation from §5.1.1, which drops the entry
                            // when the new prepare list is empty: an
                            // in-doubt action must survive compaction even
                            // if all of its writes were mutexes, or its
                            // participant would forget it prepared. See
                            // DESIGN.md.
                            hk.append_outcome(LogEntry::Prepared {
                                aid,
                                pairs: new_pairs,
                                prev: None,
                            })?;
                        }
                    }
                }
                LogEntry::CommittedSs { cssl, .. } => {
                    // An earlier checkpoint being re-compacted.
                    for (uid, daddr) in cssl {
                        if hk.ot.get(&uid).map(|o| o.state) == Some(ObjState::Restored) {
                            continue;
                        }
                        let (kind, value) = self.read_data(daddr)?;
                        match kind {
                            ObjKind::Atomic => hk.copy_committed_atomic(uid, value)?,
                            ObjKind::Mutex => {
                                hk.copy_mutex_if_latest(uid, value, daddr)?;
                            }
                        }
                    }
                }
                LogEntry::Data { .. } | LogEntry::DataH { .. } | LogEntry::DataR { .. } => {
                    return Err(RsError::BadState("data entry on the outcome chain".into()))
                }
            }
        }
        Ok(())
    }

    /// Stage one of the snapshot (§5.2): traverse the recoverable objects
    /// reachable from the stable variables and copy the stable state —
    /// atomic bases from volatile memory, mutex versions from the *old log*
    /// via the MT (volatile mutex state may be newer than the last prepared
    /// state, which is what must be recovered).
    fn snapshot_stage_one(&mut self, hk: &mut HkState<P::Store>, heap: &Heap) -> RsResult<()> {
        let mut new_access: HashSet<Uid> = HashSet::new();
        let Some(root) = heap.stable_root() else {
            hk.new_access = Some(new_access);
            return Ok(());
        };

        let mut queue = VecDeque::from([root]);
        new_access.insert(Uid::STABLE_ROOT);
        while let Some(h) = queue.pop_front() {
            let slot = heap.get(h)?;
            let uid = slot.uid;
            let enqueue = |value: &Value, queue: &mut VecDeque<_>, seen: &mut HashSet<Uid>| {
                value.for_each_ref(&mut |r| {
                    let target = match r {
                        argus_objects::ObjRef::Heap(hh) => Some(*hh),
                        argus_objects::ObjRef::Uid(u) => heap.lookup(*u),
                    };
                    if let Some(hh) = target {
                        if let Ok(s) = heap.get(hh) {
                            if seen.insert(s.uid) {
                                queue.push_back(hh);
                            }
                        }
                    }
                });
            };
            match &slot.body {
                ObjectBody::Atomic(obj) => {
                    let base = flatten_value(heap, &obj.base)?;
                    let addr = hk.append_data(ObjKind::Atomic, base.value)?;
                    hk.cssl.push((uid, addr));
                    hk.ot.insert(
                        uid,
                        HkObj {
                            state: ObjState::Restored,
                            kind: ObjKind::Atomic,
                            mutex_old_addr: None,
                        },
                    );
                    if let Some(writer) = obj.writer {
                        if self.pat.contains(&writer) {
                            let cur = obj
                                .current
                                .as_ref()
                                .ok_or(RsError::Internal("write lock without a current version"))?;
                            let cur = flatten_value(heap, cur)?;
                            hk.append_outcome(LogEntry::PreparedData {
                                uid,
                                value: cur.value,
                                aid: writer,
                                prev: None,
                            })?;
                        }
                    }
                    enqueue(&obj.base, &mut queue, &mut new_access);
                    if let Some(cur) = &obj.current {
                        enqueue(cur, &mut queue, &mut new_access);
                    }
                }
                ObjectBody::Mutex(obj) => {
                    if let Some(&old_addr) = self.mt.get(&uid) {
                        let (_kind, value) = self.read_data(old_addr)?;
                        hk.copy_mutex_if_latest(uid, value, old_addr)?;
                    }
                    // Not in the MT: newly accessible to a still-preparing
                    // action; its state reaches the new log via stage two or
                    // a post-switch prepare (§5.2).
                    enqueue(&obj.value, &mut queue, &mut new_access);
                }
            }
        }

        // Same deviation from the thesis as compaction (§5.1.1): every
        // in-doubt action must leave a prepared entry on the new log, even
        // if none of its writes were reachable atomic objects — otherwise a
        // participant that snapshots while prepared forgets its PrepareOk
        // vote across a crash, and a late outcome forces an aborted or
        // committed record with no prepared entry below it (lint I4). The
        // prepared *data* is already covered: atomic current versions were
        // copied above, mutex prepared versions travel via the MT.
        let mut in_doubt: Vec<ActionId> = self.pat.iter().copied().collect();
        in_doubt.sort_unstable();
        for aid in in_doubt {
            hk.append_outcome(LogEntry::Prepared {
                aid,
                pairs: Vec::new(),
                prev: None,
            })?;
        }

        // Likewise for this guardian's coordinator side: an action past the
        // commit point but not yet `done` must keep its committing record,
        // or a crash after the snapshot forgets phase two and in-doubt
        // participants are never told the verdict (and a late `done` lands
        // with no committing entry below it — lint I6).
        let mut committing: Vec<(ActionId, Vec<GuardianId>)> = self
            .cat
            .iter()
            .map(|(aid, gids)| (*aid, gids.clone()))
            .collect();
        committing.sort_by_key(|a| a.0);
        for (aid, gids) in committing {
            hk.append_outcome(LogEntry::Committing {
                aid,
                gids,
                prev: None,
            })?;
        }

        hk.new_access = Some(new_access);
        Ok(())
    }

    pub(crate) fn finish_housekeeping_impl(&mut self) -> RsResult<()> {
        let _timer = self.obs.hk_finish_us.start();
        let mut hk = self
            .hk
            .take()
            .ok_or_else(|| RsError::BadState("no housekeeping in progress".into()))?;
        let oel = self.oel.take().unwrap_or_default();

        // Make post-marker buffered entries (early-prepared data) readable.
        self.log.force()?;

        // Data entries written by actions that have not yet prepared are not
        // reachable from any outcome entry; restart their writing on the new
        // log (§5.1.1, last paragraph).
        let pending = std::mem::take(&mut self.pending);
        let mut new_pending: HashMap<_, Vec<PendingPair>> = HashMap::new();
        for (aid, pairs) in pending {
            let mut rewritten = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let (kind, value) = self.read_data(pair.addr)?;
                let addr = hk.append_data(kind, value)?;
                rewritten.push(PendingPair {
                    uid: pair.uid,
                    addr,
                    kind,
                });
            }
            new_pending.insert(aid, rewritten);
        }

        // Stage two: copy the outcome entries written since the marker.
        for addr in oel {
            let (_seq, payload) = self.log.read(addr)?;
            match decode_entry(&payload)? {
                LogEntry::Prepared { aid, pairs, .. } => {
                    let mut new_pairs = Vec::new();
                    for (uid, daddr) in pairs {
                        let (kind, value) = self.read_data(daddr)?;
                        match kind {
                            ObjKind::Atomic => {
                                let na = hk.append_data(ObjKind::Atomic, value)?;
                                new_pairs.push((uid, na));
                            }
                            ObjKind::Mutex => {
                                // Stage-two mutex copies go to the prepare
                                // list, not the CSSL (§5.1.1 stage two).
                                if let Some(obj) = hk.ot.get(&uid) {
                                    if obj.mutex_old_addr.is_some_and(|a| a >= daddr) {
                                        continue;
                                    }
                                }
                                let na = hk.append_data(ObjKind::Mutex, value)?;
                                new_pairs.push((uid, na));
                                hk.ot.insert(
                                    uid,
                                    HkObj {
                                        state: ObjState::Restored,
                                        kind: ObjKind::Mutex,
                                        mutex_old_addr: Some(daddr),
                                    },
                                );
                                hk.new_mt.insert(uid, na);
                            }
                        }
                    }
                    hk.append_outcome(LogEntry::Prepared {
                        aid,
                        pairs: new_pairs,
                        prev: None,
                    })?;
                }
                entry if entry.is_outcome() => {
                    hk.append_outcome(entry)?;
                }
                _ => return Err(RsError::BadState("data entry recorded in the OEL".into())),
            }
        }

        hk.new_log.force()?;

        let old_entries = self.log.stable_count();
        let new_entries = hk.new_log.stable_count();
        let new_bytes = hk.new_log.stable_bytes();
        match hk.mode {
            HousekeepingMode::Compaction => self.obs.reg.event(argus_obs::Event::CompactionPass {
                entries_in: hk.old_entries_at_begin,
                entries_out: new_entries,
            }),
            HousekeepingMode::Snapshot => self.obs.reg.event(argus_obs::Event::SnapshotTaken {
                entries: new_entries,
                bytes: new_bytes,
            }),
        }
        let reclaimed = old_entries.saturating_sub(new_entries);
        self.obs.hk_passes.inc();
        self.obs.hk_reclaimed.add(reclaimed);
        self.obs.reg.event(argus_obs::Event::HousekeepingDone {
            mode: match hk.mode {
                HousekeepingMode::Compaction => "compaction",
                HousekeepingMode::Snapshot => "snapshot",
            },
            entries_reclaimed: reclaimed,
        });

        // "In one atomic step, the new log supplants the old log."
        self.log = hk.new_log;
        self.provider.store_switched();
        self.last_outcome = hk.new_last;
        self.mt = hk.new_mt;
        self.pending = new_pending;
        if hk.mode == HousekeepingMode::Snapshot {
            if let Some(new_access) = hk.new_access {
                self.access = self.access.intersection(&new_access).copied().collect();
                self.access.insert(Uid::STABLE_ROOT);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::providers::MemProvider;
    use crate::api::RecoverySystem;
    use crate::tables::PState;
    use argus_objects::{ActionId, GuardianId};

    fn rs() -> HybridLogRs<MemProvider> {
        HybridLogRs::create(MemProvider::fast()).unwrap()
    }

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    /// Runs `n` committed root updates and returns the heap.
    fn history(rs: &mut HybridLogRs<MemProvider>, n: u64) -> Heap {
        let mut heap = Heap::with_stable_root();
        for i in 0..n {
            let a = aid(i + 1);
            let root = heap.stable_root().unwrap();
            heap.acquire_write(root, a).unwrap();
            heap.write_value(root, a, |v| *v = Value::Int(i as i64))
                .unwrap();
            rs.prepare(a, &[root], &heap).unwrap();
            rs.commit(a).unwrap();
            heap.commit_action(a);
        }
        heap
    }

    fn recovered_root(rs: &mut HybridLogRs<MemProvider>) -> (Heap, Value) {
        rs.simulate_crash().unwrap();
        let mut heap = Heap::new();
        rs.recover(&mut heap).unwrap();
        let root = heap.stable_root().unwrap();
        let value = heap.read_value(root, None).unwrap().clone();
        (heap, value)
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_state() {
        let mut rs = rs();
        let heap = history(&mut rs, 50);
        let before = rs.log().stable_count();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let after = rs.log().stable_count();
        assert!(after < before / 5, "before={before} after={after}");
        let (_, value) = recovered_root(&mut rs);
        assert_eq!(value, Value::Int(49));
    }

    #[test]
    fn snapshot_shrinks_the_log_and_preserves_state() {
        let mut rs = rs();
        let heap = history(&mut rs, 50);
        let before = rs.log().stable_count();
        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
        assert!(rs.log().stable_count() < before / 5);
        let (_, value) = recovered_root(&mut rs);
        assert_eq!(value, Value::Int(49));
    }

    #[test]
    fn in_doubt_actions_survive_compaction() {
        let mut rs = rs();
        let mut heap = history(&mut rs, 3);
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
        let mut heap = history(&mut rs, 5);
        rs.begin_housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();

        // Guardian keeps working while "the compaction process" runs.
        let c = aid(200);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, c).unwrap();
        heap.write_value(root, c, |v| *v = Value::Int(1234))
            .unwrap();
        rs.prepare(c, &[root], &heap).unwrap();
        rs.commit(c).unwrap();
        heap.commit_action(c);

        rs.finish_housekeeping().unwrap();
        let (_, value) = recovered_root(&mut rs);
        assert_eq!(value, Value::Int(1234));
    }

    #[test]
    fn double_begin_is_rejected() {
        let mut rs = rs();
        let heap = history(&mut rs, 1);
        rs.begin_housekeeping(&heap, HousekeepingMode::Snapshot)
            .unwrap();
        assert!(matches!(
            rs.begin_housekeeping(&heap, HousekeepingMode::Snapshot),
            Err(RsError::BadState(_))
        ));
        rs.finish_housekeeping().unwrap();
        assert!(matches!(
            rs.finish_housekeeping(),
            Err(RsError::BadState(_))
        ));
    }

    #[test]
    fn snapshot_copies_mutex_state_from_the_log_not_volatile_memory() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let m = heap.alloc_mutex(Value::Int(1));
        let m_uid = heap.uid_of(m).unwrap();
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::heap_ref(m))
            .unwrap();
        rs.prepare(a, &[root], &heap).unwrap();
        rs.commit(a).unwrap();
        heap.commit_action(a);

        // A still-unprepared action mutates the mutex in volatile memory.
        let b = aid(2);
        heap.seize(m, b).unwrap();
        heap.mutate_mutex(m, b, |v| *v = Value::Int(999)).unwrap();

        rs.housekeeping(&heap, HousekeepingMode::Snapshot).unwrap();
        let (heap2, _) = recovered_root(&mut rs);
        let m2 = heap2.lookup(m_uid).unwrap();
        // The snapshot must have copied the last *prepared* state (1), not
        // the volatile in-progress state (999).
        assert_eq!(heap2.read_value(m2, None).unwrap(), &Value::Int(1));
    }

    #[test]
    fn repeated_housekeeping_recompacts_its_own_checkpoint() {
        let mut rs = rs();
        let heap = history(&mut rs, 10);
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let (_, value) = recovered_root(&mut rs);
        assert_eq!(value, Value::Int(9));
    }

    #[test]
    fn early_prepared_pending_data_survives_the_switch() {
        let mut rs = rs();
        let mut heap = history(&mut rs, 3);
        // Early-prepare an update, then housekeep before the prepare.
        let d = aid(300);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, d).unwrap();
        heap.write_value(root, d, |v| *v = Value::Int(31)).unwrap();
        let leftover = rs.write_entry(d, &[root], &heap).unwrap();
        assert!(leftover.is_empty());

        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();

        // The prepare finds its early-prepared data already rewritten.
        rs.prepare(d, &[], &heap).unwrap();
        rs.commit(d).unwrap();
        heap.commit_action(d);
        let (_, value) = recovered_root(&mut rs);
        assert_eq!(value, Value::Int(31));
    }
}
