//! Hybrid-log housekeeping (ch. 5): log compaction and the stable-state
//! snapshot.
//!
//! Both techniques build a *new* log that reflects the guardian's current
//! stable state and then supplant the old log in one atomic step. They run
//! in two stages around the housekeeping marker:
//!
//! * **stage one** digests everything before the marker — compaction by
//!   recovering the old log into a scratch heap through recovery's own walk
//!   and restore rules (§5.1.1), snapshot by copying volatile memory (§5.2)
//!   — and emits the digest through one set of [`HkState`] emitters, ending
//!   with the `committed_ss` checkpoint entry;
//! * **stage two** copies the outcome entries recorded in the OEL (guardian
//!   activity that continued during stage one) onto the new log, then
//!   switches.
//!
//! `begin_housekeeping` runs stage one; ordinary recovery-system operations
//! may then continue (they append to the old log and are recorded in the
//! OEL); `finish_housekeeping` runs stage two. The prologue, the force of
//! the new log, the metrics and the switch itself are [`crate::LogRs`]'s.

use crate::entry::{decode_entry_view, Entry, EntryOut, EntryRef, EntryView, HeapValue, WireField};
use crate::hybrid::{read_data, walk_chain, HybridFormat, PendingPair};
use crate::log::{append_entry, LogIo};
use crate::restore::RecoverCtx;
use crate::tables::ObjState;
use crate::{MutexTable, RsError, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, ObjKind, ObjectBody, Uid, Value};
use argus_sim::{IntMap, IntSet};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::VecDeque;

/// What an open hybrid housekeeping pass has built on the new log so far.
#[derive(Debug, Clone, Default)]
pub struct HkState {
    /// The committed stable state list: `(uid, new-log data address)`.
    cssl: Vec<(Uid, LogAddress)>,
    /// Chain head in the new log.
    pub(crate) new_last: Option<LogAddress>,
    /// The mutex table being rebuilt with new-log addresses.
    pub(crate) new_mt: MutexTable,
    /// Snapshot only: the accessibility set rebuilt by the traversal.
    pub(crate) new_access: Option<IntSet<Uid>>,
    /// The *old-log* address of each mutex version stage one copied, for
    /// stage two's recency comparison (§5.1.1).
    mutex_old: IntMap<Uid, LogAddress>,
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

// The stage-one emitters: what survives is decided by the caller (recovery's
// rules for compaction, the live heap and the PAT for the snapshot); how it
// lands on the new log is decided here, once.
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

    /// A committed atomic base: a data entry and its CSSL pair.
    fn base<S: PageStore, V: WireField>(
        &mut self,
        new_log: &mut StableLog<S>,
        uid: Uid,
        value: V,
    ) -> RsResult<()> {
        let addr = write_data(new_log, ObjKind::Atomic, value)?;
        self.cssl.push((uid, addr));
        Ok(())
    }

    /// The current version the in-doubt action `aid` holds the write lock
    /// on, as a `prepared_data` entry.
    fn in_doubt<S: PageStore, V: WireField>(
        &mut self,
        new_log: &mut StableLog<S>,
        uid: Uid,
        value: V,
        aid: ActionId,
    ) -> RsResult<()> {
        let version = EntryOut::PreparedData {
            uid,
            value,
            aid,
            prev: None,
        };
        self.append_outcome(new_log, version)
    }

    /// A mutex's value, committed state whatever its writers' outcomes
    /// (§2.4.2): a data entry, its CSSL pair and its new MT entry. `old` is
    /// the old-log address it was copied from.
    fn mutex<S: PageStore, V: WireField>(
        &mut self,
        new_log: &mut StableLog<S>,
        uid: Uid,
        value: V,
        old: Option<LogAddress>,
    ) -> RsResult<()> {
        let addr = write_data(new_log, ObjKind::Mutex, value)?;
        self.cssl.push((uid, addr));
        self.new_mt.insert(uid, addr);
        self.mutex_old.extend(old.map(|a| (uid, a)));
        Ok(())
    }

    /// Seals stage one. Deviation from §5.1.1, which drops a prepare list
    /// left empty: every in-doubt action keeps a bare `prepared` entry, or a
    /// participant whose writes were all mutexes (or unreachable) forgets
    /// its vote across a crash (lint I4); every coordinator still in phase
    /// two keeps its `committing` entry, or a crash forgets phase two (lint
    /// I6). See DESIGN.md. Then the checkpoint: "like a combined prepare and
    /// commit for some special action whose name does not matter".
    fn seal<S: PageStore>(
        &mut self,
        new_log: &mut StableLog<S>,
        in_doubt: &[ActionId],
        committing: &[(ActionId, Vec<GuardianId>)],
    ) -> RsResult<()> {
        for &aid in in_doubt {
            let bare = EntryRef::Prepared {
                aid,
                pairs: &[],
                prev: None,
            };
            self.append_outcome(new_log, bare)?;
        }
        for (aid, gids) in committing {
            let committing = EntryRef::Committing {
                aid: *aid,
                gids,
                prev: None,
            };
            self.append_outcome(new_log, committing)?;
        }
        let cssl = std::mem::take(&mut self.cssl);
        let checkpoint = EntryRef::CommittedSs {
            cssl: &cssl,
            prev: None,
        };
        self.append_outcome(new_log, checkpoint)
    }
}

impl HybridFormat {
    /// Stage one of compaction (§5.1.1): recovers the old log from the chain
    /// head into a scratch heap, exactly like a recovery, and emits what the
    /// restore rules restored, in uid order. `resolve_uid_refs` is skipped
    /// so the restored values keep their uid references and re-log as they
    /// were.
    pub(crate) fn compact_stage_one<S: PageStore>(
        &self,
        io: &mut LogIo<S>,
        new_log: &mut StableLog<S>,
        hk: &mut HkState,
    ) -> RsResult<()> {
        let mut scratch = Heap::new();
        let mut ctx = RecoverCtx::new(&mut scratch);
        walk_chain(&mut io.log, &mut ctx, self.last_outcome)?;

        let mut uids: Vec<Uid> = ctx.ot.iter().map(|(u, _)| *u).collect();
        uids.sort_unstable();
        for uid in uids {
            let entry = *ctx.ot.get(uid).expect("uid came from the OT");
            match &ctx.heap.get(entry.heap)?.body {
                ObjectBody::Atomic(obj) => {
                    if entry.state == ObjState::Restored {
                        hk.base(new_log, uid, &obj.base)?;
                    }
                    if let (Some(writer), Some(cur)) = (obj.writer, &obj.current) {
                        hk.in_doubt(new_log, uid, cur, writer)?;
                    }
                }
                ObjectBody::Mutex(obj) => hk.mutex(new_log, uid, &obj.value, entry.mutex_addr)?,
            }
        }
        hk.seal(
            new_log,
            &ctx.pt.prepared_actions(),
            &ctx.ct.committing_actions(),
        )
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
        let mut new_access = IntSet::from_iter([Uid::STABLE_ROOT]);
        let mut queue = VecDeque::from_iter(heap.stable_root());
        let mut data = Vec::new();
        let at = |value| HeapValue { heap, value };
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
                    hk.base(new_log, uid, at(&obj.base))?;
                    if let Some(writer) = obj.writer.filter(|w| pat.contains(w)) {
                        let value = obj
                            .current
                            .as_ref()
                            .ok_or(RsError::Internal("write lock without a current version"))?;
                        hk.in_doubt(new_log, uid, at(value), writer)?;
                    }
                    enqueue(&obj.base, &mut queue, &mut new_access);
                    if let Some(cur) = &obj.current {
                        enqueue(cur, &mut queue, &mut new_access);
                    }
                }
                ObjectBody::Mutex(obj) => {
                    if let Some(&old) = self.mt.get(&uid) {
                        let (_kind, value) = read_data(&mut io.log, old, &mut data)?;
                        hk.mutex(new_log, uid, value, Some(old))?;
                    }
                    // Not in the MT: newly accessible to a still-preparing
                    // action; its state reaches the new log via stage two or
                    // a post-switch prepare (§5.2).
                    enqueue(&obj.value, &mut queue, &mut new_access);
                }
            }
        }
        hk.new_access = Some(new_access);

        // The prepared *data* of in-doubt actions is already covered: atomic
        // current versions were copied above, mutex prepared versions travel
        // via the MT. The tail comes from the PAT and the CAT.
        let mut in_doubt: Vec<ActionId> = pat.iter().copied().collect();
        in_doubt.sort_unstable();
        let mut committing: Vec<_> = self.cat.iter().map(|(a, g)| (*a, g.clone())).collect();
        committing.sort_unstable_by_key(|c| c.0);
        hk.seal(new_log, &in_doubt, &committing)
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
                        // Stage-two mutex copies go to the prepare list, not
                        // the CSSL, and only if newer than the version stage
                        // one copied (§5.1.1 stage two).
                        let mutex = kind == ObjKind::Mutex;
                        if mutex && hk.mutex_old.get(&uid).is_some_and(|&a| a >= daddr) {
                            continue;
                        }
                        let na = write_data(new_log, kind, value)?;
                        new_pairs.push((uid, na));
                        if mutex {
                            hk.mutex_old.insert(uid, daddr);
                            hk.new_mt.insert(uid, na);
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
