//! Hybrid-log housekeeping (ch. 5): log compaction and the stable-state
//! snapshot.
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
//! OEL); `finish_housekeeping` runs stage two. The prologue, the force of
//! the new log, the metrics and the switch itself are [`crate::LogRs`]'s.

use crate::entry::{decode_entry_view, Entry, EntryRef, EntryView, RawValue, WireField};
use crate::hybrid::{read_data, HybridFormat, PendingPair};
use crate::log::{append_entry, LogIo};
use crate::tables::{CState, CoordinatorTable, ObjState, PState, ParticipantTable};
use crate::{MutexTable, RsError, RsResult};
use argus_objects::{flatten_value, ActionId, GuardianId, Heap, ObjKind, ObjectBody, Uid, Value};
use argus_sim::{IntMap, IntSet};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::VecDeque;

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

impl HkObj {
    fn atomic(state: ObjState) -> Self {
        Self {
            state,
            kind: ObjKind::Atomic,
            mutex_old_addr: None,
        }
    }

    /// A mutex whose version at old-log address `old_addr` was copied.
    fn mutex(old_addr: LogAddress) -> Self {
        Self {
            state: ObjState::Restored,
            kind: ObjKind::Mutex,
            mutex_old_addr: Some(old_addr),
        }
    }
}

/// What an open hybrid housekeeping pass has built on the new log so far.
#[derive(Debug, Default)]
pub struct HkState {
    /// The committed stable state list: `(uid, new-log data address)`.
    cssl: Vec<(Uid, LogAddress)>,
    /// Chain head in the new log.
    pub(crate) new_last: Option<LogAddress>,
    /// The mutex table being rebuilt with new-log addresses.
    pub(crate) new_mt: MutexTable,
    /// Snapshot only: the accessibility set rebuilt by the traversal.
    pub(crate) new_access: Option<IntSet<Uid>>,
    ot: IntMap<Uid, HkObj>,
    /// Early-prepared data entries of still-unprepared actions, rewritten
    /// onto the new log by stage two.
    pub(crate) new_pending: IntMap<ActionId, Vec<PendingPair>>,
}

/// Writes a version onto the new log; one read off the old log is copied as
/// the bytes it already is.
fn write_data<S: PageStore, V: WireField>(
    new_log: &mut StableLog<S>,
    kind: ObjKind,
    value: V,
) -> RsResult<LogAddress> {
    let data = Entry::<V, &[(Uid, LogAddress)], &[GuardianId]>::DataH { kind, value };
    append_entry(new_log, &data)
}

impl HkState {
    fn append_outcome<S: PageStore, V: WireField, P: WireField, G: WireField>(
        &mut self,
        new_log: &mut StableLog<S>,
        mut entry: Entry<V, P, G>,
    ) -> RsResult<()> {
        entry.set_prev(self.new_last);
        self.new_last = Some(append_entry(new_log, &entry)?);
        Ok(())
    }

    /// Seals stage one with the checkpoint entry: "like a combined prepare
    /// and commit for some special action whose name does not matter"
    /// (§5.1.1).
    pub(crate) fn checkpoint<S: PageStore>(&mut self, new_log: &mut StableLog<S>) -> RsResult<()> {
        let cssl = self.cssl.clone();
        let seal = EntryRef::CommittedSs {
            cssl: &cssl,
            prev: None,
        };
        self.append_outcome(new_log, seal)
    }

    /// Copies one committed atomic version into the new log and the CSSL,
    /// respecting the OT state.
    fn copy_committed_atomic<S: PageStore>(
        &mut self,
        new_log: &mut StableLog<S>,
        uid: Uid,
        value: RawValue<'_>,
    ) -> RsResult<()> {
        if self.ot.get(&uid).map(|o| o.state) != Some(ObjState::Restored) {
            self.ot.insert(uid, HkObj::atomic(ObjState::Restored));
            let addr = write_data(new_log, ObjKind::Atomic, value)?;
            self.cssl.push((uid, addr));
        }
        Ok(())
    }

    /// Copies a mutex version if `old_addr` names the most recent version
    /// seen so far (old-log address comparison). Returns the new address if
    /// copied.
    fn copy_mutex_if_latest<S: PageStore>(
        &mut self,
        new_log: &mut StableLog<S>,
        uid: Uid,
        value: RawValue<'_>,
        old_addr: LogAddress,
    ) -> RsResult<Option<LogAddress>> {
        if let Some(existing) = self.ot.get(&uid) {
            if existing.mutex_old_addr.is_some_and(|a| a >= old_addr) {
                return Ok(None);
            }
        }
        let addr = write_data(new_log, ObjKind::Mutex, value)?;
        self.ot.insert(uid, HkObj::mutex(old_addr));
        self.new_mt.insert(uid, addr);
        // Replace any older CSSL pair for this mutex.
        self.cssl.retain(|(u, _)| *u != uid);
        self.cssl.push((uid, addr));
        Ok(Some(addr))
    }
}

impl HybridFormat {
    /// Stage one of compaction (§5.1.1): read the old log backwards from the
    /// marker exactly like a recovery, but write surviving entries to the
    /// new log instead of building objects in volatile memory.
    pub(crate) fn compact_stage_one<S: PageStore>(
        &self,
        io: &mut LogIo<S>,
        new_log: &mut StableLog<S>,
        hk: &mut HkState,
    ) -> RsResult<()> {
        let mut pt = ParticipantTable::new();
        let mut ct = CoordinatorTable::new();

        let mut cursor = self.last_outcome;
        // Outcome entries and the data entries they lead to are read as
        // views: a surviving version is copied as bytes, never materialized.
        let (mut payload, mut data) = (Vec::new(), Vec::new());
        while let Some(addr) = cursor {
            io.log.read_into(addr, &mut payload)?;
            let entry = decode_entry_view(&payload)?;
            cursor = entry.prev();
            match entry {
                EntryView::Committed { aid, .. } => {
                    pt.enter(aid, PState::Committed);
                }
                EntryView::Aborted { aid, .. } => {
                    pt.enter(aid, PState::Aborted);
                }
                EntryView::Done { aid, .. } => ct.enter(aid, CState::Done),
                EntryView::Committing { aid, gids, .. } => {
                    if ct.get(aid) != Some(&CState::Done) {
                        ct.enter(aid, CState::Committing(gids.to_vec()));
                        hk.append_outcome(new_log, entry)?;
                    }
                }
                EntryView::BaseCommitted { uid, value, .. } => {
                    hk.copy_committed_atomic(new_log, uid, value)?;
                }
                EntryView::PreparedData {
                    uid, value, aid, ..
                } => match pt.get(aid) {
                    Some(PState::Aborted) => {}
                    Some(PState::Committed) => hk.copy_committed_atomic(new_log, uid, value)?,
                    Some(PState::Prepared) | None => {
                        pt.enter(aid, PState::Prepared);
                        hk.ot
                            .entry(uid)
                            .or_insert(HkObj::atomic(ObjState::Prepared));
                        hk.append_outcome(new_log, entry)?;
                    }
                },
                EntryView::Prepared { aid, pairs, .. } => {
                    let st = pt.enter(aid, PState::Prepared);
                    match st {
                        PState::Aborted => {
                            for (uid, daddr) in pairs.iter() {
                                // Atomic versions die with the abort; mutex
                                // versions obey the recency rule.
                                if hk.ot.get(&uid).map(|o| o.kind) == Some(ObjKind::Atomic) {
                                    continue;
                                }
                                let (kind, value) = read_data(&mut io.log, daddr, &mut data)?;
                                if kind == ObjKind::Mutex {
                                    hk.copy_mutex_if_latest(new_log, uid, value, daddr)?;
                                }
                            }
                        }
                        PState::Committed => {
                            for (uid, daddr) in pairs.iter() {
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
                                let (kind, value) = read_data(&mut io.log, daddr, &mut data)?;
                                match kind {
                                    ObjKind::Atomic => {
                                        hk.copy_committed_atomic(new_log, uid, value)?
                                    }
                                    ObjKind::Mutex => {
                                        hk.copy_mutex_if_latest(new_log, uid, value, daddr)?;
                                    }
                                }
                            }
                        }
                        PState::Prepared => {
                            // Outcome unknown: the action stays prepared on
                            // the new log.
                            let mut new_pairs = Vec::new();
                            for (uid, daddr) in pairs.iter() {
                                let (kind, value) = read_data(&mut io.log, daddr, &mut data)?;
                                match kind {
                                    ObjKind::Atomic => {
                                        hk.ot
                                            .entry(uid)
                                            .or_insert(HkObj::atomic(ObjState::Prepared));
                                        let na = write_data(new_log, ObjKind::Atomic, value)?;
                                        new_pairs.push((uid, na));
                                    }
                                    ObjKind::Mutex => {
                                        // Prepared mutex state is the state
                                        // regardless of outcome: CSSL (§5.1.1).
                                        hk.copy_mutex_if_latest(new_log, uid, value, daddr)?;
                                    }
                                }
                            }
                            // Deviation from §5.1.1, which drops the entry
                            // when the new prepare list is empty: an
                            // in-doubt action must survive compaction even
                            // if all of its writes were mutexes, or its
                            // participant would forget it prepared. See
                            // DESIGN.md.
                            hk.append_outcome(
                                new_log,
                                EntryRef::Prepared {
                                    aid,
                                    pairs: &new_pairs,
                                    prev: None,
                                },
                            )?;
                        }
                    }
                }
                EntryView::CommittedSs { cssl, .. } => {
                    // An earlier checkpoint being re-compacted.
                    for (uid, daddr) in cssl.iter() {
                        if hk.ot.get(&uid).map(|o| o.state) == Some(ObjState::Restored) {
                            continue;
                        }
                        let (kind, value) = read_data(&mut io.log, daddr, &mut data)?;
                        match kind {
                            ObjKind::Atomic => hk.copy_committed_atomic(new_log, uid, value)?,
                            ObjKind::Mutex => {
                                hk.copy_mutex_if_latest(new_log, uid, value, daddr)?;
                            }
                        }
                    }
                }
                EntryView::Data { .. } | EntryView::DataH { .. } | EntryView::DataR { .. } => {
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
    pub(crate) fn snapshot_stage_one<S: PageStore>(
        &self,
        io: &mut LogIo<S>,
        new_log: &mut StableLog<S>,
        hk: &mut HkState,
        heap: &Heap,
        pat: &IntSet<ActionId>,
    ) -> RsResult<()> {
        let mut new_access: IntSet<Uid> = IntSet::default();
        let Some(root) = heap.stable_root() else {
            hk.new_access = Some(new_access);
            return Ok(());
        };

        let mut data = Vec::new();
        let mut queue = VecDeque::from([root]);
        new_access.insert(Uid::STABLE_ROOT);
        while let Some(h) = queue.pop_front() {
            let slot = heap.get(h)?;
            let uid = slot.uid;
            let enqueue = |value: &Value, queue: &mut VecDeque<_>, seen: &mut IntSet<Uid>| {
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
                    let addr = write_data(new_log, ObjKind::Atomic, &base.value)?;
                    hk.cssl.push((uid, addr));
                    hk.ot.insert(uid, HkObj::atomic(ObjState::Restored));
                    if let Some(writer) = obj.writer {
                        if pat.contains(&writer) {
                            let cur = obj
                                .current
                                .as_ref()
                                .ok_or(RsError::Internal("write lock without a current version"))?;
                            let cur = flatten_value(heap, cur)?;
                            hk.append_outcome(
                                new_log,
                                EntryRef::PreparedData {
                                    uid,
                                    value: &cur.value,
                                    aid: writer,
                                    prev: None,
                                },
                            )?;
                        }
                    }
                    enqueue(&obj.base, &mut queue, &mut new_access);
                    if let Some(cur) = &obj.current {
                        enqueue(cur, &mut queue, &mut new_access);
                    }
                }
                ObjectBody::Mutex(obj) => {
                    if let Some(&old_addr) = self.mt.get(&uid) {
                        let (_kind, value) = read_data(&mut io.log, old_addr, &mut data)?;
                        hk.copy_mutex_if_latest(new_log, uid, value, old_addr)?;
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
        let mut in_doubt: Vec<ActionId> = pat.iter().copied().collect();
        in_doubt.sort_unstable();
        for aid in in_doubt {
            hk.append_outcome(
                new_log,
                EntryRef::Prepared {
                    aid,
                    pairs: &[],
                    prev: None,
                },
            )?;
        }

        // Likewise for this guardian's coordinator side: an action past the
        // commit point but not yet `done` must keep its committing record,
        // or a crash after the snapshot forgets phase two and in-doubt
        // participants are never told the verdict (and a late `done` lands
        // with no committing entry below it — lint I6).
        let mut committing: Vec<(ActionId, &[GuardianId])> = self
            .cat
            .iter()
            .map(|(aid, gids)| (*aid, gids.as_slice()))
            .collect();
        committing.sort_by_key(|a| a.0);
        for (aid, gids) in committing {
            hk.append_outcome(
                new_log,
                EntryRef::Committing {
                    aid,
                    gids,
                    prev: None,
                },
            )?;
        }

        hk.new_access = Some(new_access);
        Ok(())
    }

    /// Stage two: restarts still-unprepared actions' early-prepared data on
    /// the new log, then copies the outcome entries recorded in the OEL.
    pub(crate) fn copy_stage_two<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        new_log: &mut StableLog<S>,
        hk: &mut HkState,
    ) -> RsResult<()> {
        let oel = self.oel.take().unwrap_or_default();
        let (mut payload, mut data) = (Vec::new(), Vec::new());

        // Data entries written by actions that have not yet prepared are not
        // reachable from any outcome entry; restart their writing on the new
        // log (§5.1.1, last paragraph).
        for (aid, pairs) in std::mem::take(&mut self.pending) {
            let mut rewritten = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let (kind, value) = read_data(&mut io.log, pair.addr, &mut data)?;
                let addr = write_data(new_log, kind, value)?;
                rewritten.push(PendingPair {
                    uid: pair.uid,
                    addr,
                    kind,
                });
            }
            hk.new_pending.insert(aid, rewritten);
        }

        // Stage two: copy the outcome entries written since the marker.
        for addr in oel {
            io.log.read_into(addr, &mut payload)?;
            match decode_entry_view(&payload)? {
                EntryView::Prepared { aid, pairs, .. } => {
                    let mut new_pairs = Vec::new();
                    for (uid, daddr) in pairs.iter() {
                        let (kind, value) = read_data(&mut io.log, daddr, &mut data)?;
                        match kind {
                            ObjKind::Atomic => {
                                let na = write_data(new_log, ObjKind::Atomic, value)?;
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
                                let na = write_data(new_log, ObjKind::Mutex, value)?;
                                new_pairs.push((uid, na));
                                hk.ot.insert(uid, HkObj::mutex(daddr));
                                hk.new_mt.insert(uid, na);
                            }
                        }
                    }
                    hk.append_outcome(
                        new_log,
                        EntryRef::Prepared {
                            aid,
                            pairs: &new_pairs,
                            prev: None,
                        },
                    )?;
                }
                entry if entry.is_outcome() => {
                    hk.append_outcome(new_log, entry)?;
                }
                _ => return Err(RsError::BadState("data entry recorded in the OEL".into())),
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::providers::MemProvider;
    use crate::api::{HousekeepingMode, RecoverySystem};
    use crate::HybridLogRs;
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
