//! Shared recovery machinery: applying log entries to volatile memory.
//!
//! Both recovery algorithms (§3.4.4 simple, §4.3.3 hybrid) funnel through
//! [`RecoverCtx`]: the backward scan feeds it every record, the hybrid walk
//! feeds it outcome entries and lazily-read data entries. The restore rules
//! and the OT/PT/CT bookkeeping are identical between the two, and versions
//! reach them undecoded ([`RawValue`]): a value is materialized exactly when
//! a rule copies it into volatile memory, never when the rule discards it.
//! The full backward scan itself ([`scan_backward`]) is here too, written
//! once for the simple and redo formats and for their compaction.

use crate::entry::{decode_entry_view, EntryView, RawValue};
use crate::tables::{
    CState, CoordinatorTable, ObjState, ObjectTable, OtEntry, PState, ParticipantTable,
    RecoveryOutcome,
};
use crate::{RsError, RsResult};
use argus_objects::{ActionId, AtomicObject, Heap, MutexObject, ObjKind, ObjectBody, Uid, Value};
use argus_sim::IntMap;
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;

/// Mutable recovery state threaded through one recovery pass.
#[derive(Debug)]
pub struct RecoverCtx<'h> {
    pub heap: &'h mut Heap,
    pub ot: ObjectTable,
    pub pt: ParticipantTable,
    pub ct: CoordinatorTable,
    pub entries_examined: u64,
    pub data_entries_read: u64,
    pub chain_hops: u64,
    /// The walk position (`entries_examined`) of each action's *oldest*
    /// `committed` entry seen so far — its true commit point. Entries at
    /// larger positions were logged before the commit.
    committed_seen: IntMap<ActionId, u64>,
    /// The walk position of the restore that produced each atomic uid's
    /// resident committed base. Compared against `committed_seen` to detect
    /// a base restored from a checkpoint older than a later commit (the
    /// checkpoint ordering fix; see DESIGN.md).
    committed_restore_seq: IntMap<Uid, u64>,
}

impl<'h> RecoverCtx<'h> {
    pub fn new(heap: &'h mut Heap) -> Self {
        Self {
            heap,
            ot: ObjectTable::new(),
            pt: ParticipantTable::new(),
            ct: CoordinatorTable::new(),
            entries_examined: 0,
            data_entries_read: 0,
            chain_hops: 0,
            committed_seen: IntMap::default(),
            committed_restore_seq: IntMap::default(),
        }
    }

    /// The pass is over: the tables and counters it produced.
    pub fn into_outcome(self) -> RecoveryOutcome {
        RecoveryOutcome {
            entries_examined: self.entries_examined,
            data_entries_read: self.data_entries_read,
            chain_hops: self.chain_hops,
            ot: self.ot,
            pt: self.pt,
            ct: self.ct,
        }
    }

    // ---- outcome-entry bookkeeping ---------------------------------------

    /// `prepared` outcome entry: "If aid ∈ PT then ignore the entry [else]
    /// insert <aid, prepared>" (§3.4.4 2.a). Returns the state in force.
    pub fn on_prepared(&mut self, aid: ActionId) -> PState {
        self.pt.enter(aid, PState::Prepared)
    }

    /// `committed` outcome entry (2.b).
    pub fn on_committed(&mut self, aid: ActionId) {
        self.pt.enter(aid, PState::Committed);
        // Keep updating past duplicates: the *oldest* committed record is
        // the commit point, and everything below it predates the commit.
        self.committed_seen.insert(aid, self.entries_examined);
    }

    /// `aborted` outcome entry (2.c).
    pub fn on_aborted(&mut self, aid: ActionId) {
        self.pt.enter(aid, PState::Aborted);
    }

    /// `committing` outcome entry (2.f).
    pub fn on_committing(&mut self, aid: ActionId, gids: Vec<argus_objects::GuardianId>) {
        self.ct.enter(aid, CState::Committing(gids));
    }

    /// `done` outcome entry (2.g).
    pub fn on_done(&mut self, aid: ActionId) {
        self.ct.enter(aid, CState::Done);
    }

    /// Applies one record of a backward scan, newest first, through the
    /// rules below. A checkpoint's pairs are the oldest committed state:
    /// they go to `checkpoints`, for the caller to restore once the scan is
    /// over.
    #[inline]
    pub fn on_entry(
        &mut self,
        addr: LogAddress,
        entry: &EntryView<'_>,
        checkpoints: &mut Vec<(Uid, LogAddress)>,
    ) -> RsResult<()> {
        self.entries_examined += 1;
        match *entry {
            EntryView::Prepared { aid, .. } => {
                self.on_prepared(aid);
            }
            EntryView::Committed { aid, .. } => self.on_committed(aid),
            EntryView::Aborted { aid, .. } => self.on_aborted(aid),
            EntryView::Committing { aid, gids, .. } => self.on_committing(aid, gids.to_vec()),
            EntryView::Done { aid, .. } => self.on_done(aid),
            EntryView::BaseCommitted { uid, value, .. } => self.on_base_committed(uid, value)?,
            EntryView::PreparedData {
                uid, value, aid, ..
            } => self.on_prepared_data(uid, value, aid)?,
            // A redo data entry is a simple data entry whose backlink a full
            // scan does not need, and a simple one a redo entry with none.
            EntryView::Data {
                uid,
                kind,
                value,
                aid,
            }
            | EntryView::DataR {
                uid,
                kind,
                value,
                aid,
                ..
            } => {
                self.data_entries_read += 1;
                self.on_data(addr, uid, kind, value, aid)?;
            }
            // Hybrid-log data entries carry no uid/aid; in a pure scan
            // they can only be interpreted through the prepared entries'
            // pairs, which the scan does not use.
            EntryView::DataH { .. } => {}
            EntryView::CommittedSs { cssl, .. } => checkpoints.extend(cssl.iter()),
        }
        Ok(())
    }

    // ---- version restoration ---------------------------------------------

    /// Restores a *committed* version of `uid` (from a data entry of a
    /// committed action, a `base_committed` entry, or the CSSL). For atomic
    /// objects this is the base version; for mutex objects the current
    /// version subject to the §4.4 recency rule. Returns whether a copy was
    /// made.
    pub fn restore_committed(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: RawValue<'_>,
        addr: Option<LogAddress>,
    ) -> RsResult<bool> {
        if let Some(entry) = self.ot.get(uid).copied() {
            match kind {
                ObjKind::Atomic => match entry.state {
                    ObjState::Prepared => {
                        // The object's current (prepared) version is already
                        // in place; this is "the latest committed version"
                        // that becomes its base (scenario 1, step 7).
                        self.heap.restore_base(entry.heap, value.decode()?)?;
                        if let Some(e) = self.ot.get_mut(uid) {
                            e.state = ObjState::Restored;
                        }
                        self.committed_restore_seq
                            .insert(uid, self.entries_examined);
                        Ok(true)
                    }
                    ObjState::Restored => Ok(false),
                },
                ObjKind::Mutex => self.maybe_replace_mutex(uid, entry, value, addr),
            }
        } else {
            let value = value.decode()?;
            let body = match kind {
                ObjKind::Atomic => ObjectBody::Atomic(AtomicObject::new(value)),
                ObjKind::Mutex => ObjectBody::Mutex(MutexObject::new(value)),
            };
            let heap_id = self.heap.insert_with_uid(uid, body)?;
            self.ot.insert(
                uid,
                OtEntry {
                    state: ObjState::Restored,
                    heap: heap_id,
                    mutex_addr: if kind == ObjKind::Mutex { addr } else { None },
                },
            );
            if kind == ObjKind::Atomic {
                self.committed_restore_seq
                    .insert(uid, self.entries_examined);
            }
            Ok(true)
        }
    }

    /// True when `uid`'s resident committed base was restored from an entry
    /// *below* (older than) `aid`'s commit point. A housekeeping checkpoint
    /// writes its base while `aid` is still in doubt; if `aid`'s `committed`
    /// entry lands above the checkpoint, the base on the chain head side is
    /// stale and `aid`'s prepared version is the real committed state. See
    /// DESIGN.md ("checkpoint ordering fix").
    pub fn stale_committed_base(&self, uid: Uid, aid: ActionId) -> bool {
        matches!(self.ot.get(uid), Some(e) if e.state == ObjState::Restored)
            && match (
                self.committed_restore_seq.get(&uid),
                self.committed_seen.get(&aid),
            ) {
                (Some(&restored), Some(&committed)) => restored > committed,
                _ => false,
            }
    }

    /// [`Self::restore_committed`] for a version attributed to the
    /// *committed* action `aid`: additionally overwrites a base restored
    /// from an entry older than `aid`'s commit point (the checkpoint
    /// ordering fix).
    pub fn restore_committed_by(
        &mut self,
        aid: ActionId,
        uid: Uid,
        kind: ObjKind,
        value: RawValue<'_>,
        addr: Option<LogAddress>,
    ) -> RsResult<bool> {
        if kind == ObjKind::Atomic && self.stale_committed_base(uid, aid) {
            let entry = self.ot.get(uid).copied().expect("stale base is resident");
            self.heap.restore_base(entry.heap, value.decode()?)?;
            // The overwriting version is the state as of the commit point,
            // so a second copy of it compares as not-stale and is skipped.
            let commit_point = self.committed_seen[&aid];
            self.committed_restore_seq.insert(uid, commit_point);
            return Ok(true);
        }
        self.restore_committed(uid, kind, value, addr)
    }

    /// Restores a *prepared* version of `uid` written by the in-doubt action
    /// `aid`: the current version, with `aid` granted the write lock
    /// (scenario 1, step 2). For mutex objects the version is simply the
    /// current version (recency-checked).
    pub fn restore_prepared(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: RawValue<'_>,
        aid: ActionId,
        addr: Option<LogAddress>,
    ) -> RsResult<bool> {
        if let Some(entry) = self.ot.get(uid).copied() {
            match kind {
                ObjKind::Atomic => {
                    // Ordinarily unreachable in an uncompacted log (the
                    // write lock excludes later writers), but after
                    // housekeeping the committed_ss entry sits at the chain
                    // head and restores the base *first*; attach the
                    // prepared current version to it. See DESIGN.md
                    // ("compaction ordering fix").
                    let needs_current = matches!(
                        &self.heap.get(entry.heap)?.body,
                        ObjectBody::Atomic(obj) if obj.writer.is_none()
                    );
                    if !needs_current {
                        return Ok(false);
                    }
                    Ok(self
                        .heap
                        .restore_current(entry.heap, aid, value.decode()?)?)
                }
                ObjKind::Mutex => self.maybe_replace_mutex(uid, entry, value, addr),
            }
        } else {
            match kind {
                ObjKind::Atomic => {
                    // Base unknown yet; an earlier committed entry will fill
                    // it (object state: prepared).
                    let obj = AtomicObject {
                        base: Value::Unit,
                        current: Some(value.decode()?),
                        writer: Some(aid),
                        readers: Default::default(),
                    };
                    let heap_id = self.heap.insert_with_uid(uid, ObjectBody::Atomic(obj))?;
                    self.ot.insert(
                        uid,
                        OtEntry {
                            state: ObjState::Prepared,
                            heap: heap_id,
                            mutex_addr: None,
                        },
                    );
                }
                ObjKind::Mutex => {
                    let heap_id = self.heap.insert_with_uid(
                        uid,
                        ObjectBody::Mutex(MutexObject::new(value.decode()?)),
                    )?;
                    self.ot.insert(
                        uid,
                        OtEntry {
                            state: ObjState::Restored,
                            heap: heap_id,
                            mutex_addr: addr,
                        },
                    );
                }
            }
            Ok(true)
        }
    }

    /// The §4.4 recency rule: replace the resident mutex version only if the
    /// incoming data entry sits at a *larger* log address.
    fn maybe_replace_mutex(
        &mut self,
        uid: Uid,
        entry: OtEntry,
        value: RawValue<'_>,
        addr: Option<LogAddress>,
    ) -> RsResult<bool> {
        let newer = match (addr, entry.mutex_addr) {
            (Some(new), Some(old)) => new > old,
            // Without addresses to compare, backward-scan order rules: the
            // version already copied is the later one.
            _ => false,
        };
        if !newer {
            return Ok(false);
        }
        self.heap.restore_mutex_value(entry.heap, value.decode()?)?;
        if let Some(e) = self.ot.get_mut(uid) {
            e.mutex_addr = addr;
        }
        Ok(true)
    }

    /// Applies a *data entry* under the participant state of its action
    /// (§3.4.4 2.h). `addr` is the data entry's own log address.
    pub fn on_data(
        &mut self,
        addr: LogAddress,
        uid: Uid,
        kind: ObjKind,
        value: RawValue<'_>,
        aid: ActionId,
    ) -> RsResult<()> {
        match self.pt.get(aid) {
            Some(PState::Committed) => {
                self.restore_committed_by(aid, uid, kind, value, Some(addr))?;
            }
            Some(PState::Prepared) => {
                self.restore_prepared(uid, kind, value, aid, Some(addr))?;
            }
            // Atomic versions of aborted actions are discarded; mutex
            // versions written by an action that *prepared* must still be
            // restored (§2.4.2, scenario 2).
            Some(PState::Aborted) if kind == ObjKind::Mutex => {
                self.restore_committed(uid, kind, value, Some(addr))?;
            }
            Some(PState::Aborted) => {}
            None => {
                // No outcome entry at all: the action was wiped out by the
                // crash before preparing; all its modifications are
                // discarded (§1.2.1).
            }
        }
        Ok(())
    }

    /// Applies a `base_committed` outcome entry (§3.4.4 2.d).
    pub fn on_base_committed(&mut self, uid: Uid, value: RawValue<'_>) -> RsResult<()> {
        self.restore_committed(uid, ObjKind::Atomic, value, None)?;
        Ok(())
    }

    /// Applies a `prepared_data` outcome entry (§3.4.4 2.e).
    pub fn on_prepared_data(
        &mut self,
        uid: Uid,
        value: RawValue<'_>,
        aid: ActionId,
    ) -> RsResult<()> {
        match self.pt.get(aid) {
            Some(PState::Aborted) => {}
            Some(PState::Committed) => {
                self.restore_committed_by(aid, uid, ObjKind::Atomic, value, None)?;
            }
            Some(PState::Prepared) => {
                self.restore_prepared(uid, ObjKind::Atomic, value, aid, None)?;
            }
            None => {
                // "The action must have prepared (the real prepared outcome
                // entry appears earlier in the log)" — enter it as prepared.
                self.pt.enter(aid, PState::Prepared);
                self.restore_prepared(uid, ObjKind::Atomic, value, aid, None)?;
            }
        }
        Ok(())
    }

    /// Restores the committed version held in the record at `addr` (already
    /// read into `payload`), whichever version-bearing kind it is. With
    /// `trusted`, the address came from a chain head or checkpoint pair and
    /// is restored unconditionally; otherwise the participant table gates
    /// it. Returns whether the record was restorable.
    pub fn restore_record(
        &mut self,
        uid: Uid,
        addr: LogAddress,
        payload: &[u8],
        trusted: bool,
    ) -> RsResult<bool> {
        let (owner, kind, value, restorable) = match decode_entry_view(payload)? {
            // A hybrid data entry names neither its object nor its writer:
            // the pair that led here is all there is to go on.
            EntryView::DataH { kind, value } => (uid, kind, value, trusted),
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
                let state = self.pt.get(aid);
                // Defensive even when trusted: an atomic version written by
                // an action the tail knows aborted (or still in doubt) must
                // not become the committed base.
                let dead = kind == ObjKind::Atomic
                    && matches!(state, Some(PState::Aborted) | Some(PState::Prepared));
                (u, kind, value, !dead && (trusted || state.is_some()))
            }
            EntryView::BaseCommitted { uid: u, value, .. } => (u, ObjKind::Atomic, value, true),
            EntryView::PreparedData {
                uid: u, aid, value, ..
            } => {
                let committed = self.pt.get(aid) == Some(PState::Committed);
                (u, ObjKind::Atomic, value, trusted || committed)
            }
            other => {
                return Err(RsError::BadState(format!(
                    "version chain for {uid} hit a {} entry",
                    other.name()
                )))
            }
        };
        if owner != uid {
            return Err(RsError::BadState(format!(
                "version chain for {uid} reached a record for {owner}"
            )));
        }
        if restorable {
            self.restore_committed(uid, kind, value, Some(addr))?;
        }
        Ok(restorable)
    }
}

/// The §3.4.4 backward scan: feeds every forced entry (newest first) through
/// the restore rules, then restores what the checkpoint pairs it met still
/// owe. Shared by simple-log recovery, full redo-log recovery and compaction
/// stage one, which is "like a recovery" (§5.1.1) but digests into a scratch
/// heap. `note` sees each entry after the rules applied it, with the
/// participant table they left — where the redo format rebuilds its chain
/// maps; the simple log records nothing.
pub(crate) fn scan_backward<S: PageStore>(
    log: &mut StableLog<S>,
    ctx: &mut RecoverCtx<'_>,
    mut note: impl FnMut(LogAddress, &EntryView<'_>, &ParticipantTable),
) -> RsResult<()> {
    let mut deferred_cssl: Vec<(Uid, LogAddress)> = Vec::new();

    // Records are decoded as zero-copy views: versions of superseded or
    // wiped-out writes are validated but never materialized.
    let mut walk = log.walk_backward(None);
    while let Some(item) = walk.next_entry() {
        let (addr, _seq, payload) = item?;
        let entry = decode_entry_view(payload)?;
        ctx.on_entry(addr, &entry, &mut deferred_cssl)?;
        note(addr, &entry, &ctx.pt);
    }
    drop(walk);

    // Checkpoint pairs are the oldest committed state; restoring them
    // after the scan preserves newest-first priority.
    let mut scratch = Vec::new();
    for (uid, addr) in deferred_cssl {
        if ctx.ot.get(uid).map(|e| e.state) == Some(ObjState::Restored) {
            continue;
        }
        log.read_into(addr, &mut scratch)?;
        ctx.entries_examined += 1;
        ctx.data_entries_read += 1;
        ctx.restore_record(uid, addr, &scratch, true)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{encode_entry, LogEntry};
    use argus_objects::GuardianId;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    /// `value` as the restore rules receive it: still encoded in a record.
    fn raw(value: Value) -> RawValue<'static> {
        let kind = ObjKind::Atomic;
        let payload = encode_entry(&LogEntry::DataH { kind, value }).unwrap();
        match decode_entry_view(payload.leak()).unwrap() {
            EntryView::DataH { value, .. } => value,
            other => panic!("expected a data entry, got {}", other.name()),
        }
    }

    #[test]
    fn committed_then_earlier_base_is_ignored() {
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.on_committed(aid(1));
        // Newest version first.
        assert!(ctx
            .restore_committed(
                Uid(1),
                ObjKind::Atomic,
                raw(Value::Int(2)),
                Some(LogAddress(900))
            )
            .unwrap());
        // Older committed version: ignored.
        assert!(!ctx
            .restore_committed(
                Uid(1),
                ObjKind::Atomic,
                raw(Value::Int(1)),
                Some(LogAddress(600))
            )
            .unwrap());
        let h = ctx.ot.get(Uid(1)).unwrap().heap;
        assert_eq!(ctx.heap.read_value(h, None).unwrap(), &Value::Int(2));
    }

    #[test]
    fn prepared_version_gets_write_lock_then_base_fills() {
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.on_prepared(aid(2));
        ctx.restore_prepared(Uid(1), ObjKind::Atomic, raw(Value::Int(9)), aid(2), None)
            .unwrap();
        assert_eq!(ctx.ot.get(Uid(1)).unwrap().state, ObjState::Prepared);
        // Earlier committed version becomes the base.
        ctx.restore_committed(Uid(1), ObjKind::Atomic, raw(Value::Int(5)), None)
            .unwrap();
        assert_eq!(ctx.ot.get(Uid(1)).unwrap().state, ObjState::Restored);
        let h = ctx.ot.get(Uid(1)).unwrap().heap;
        let slot = ctx.heap.get(h).unwrap();
        match &slot.body {
            ObjectBody::Atomic(obj) => {
                assert_eq!(obj.base, Value::Int(5));
                assert_eq!(obj.current, Some(Value::Int(9)));
                assert_eq!(obj.writer, Some(aid(2)));
            }
            _ => panic!("expected atomic"),
        }
    }

    #[test]
    fn mutex_recency_rule_uses_addresses() {
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.on_committed(aid(1));
        // A mid-log version arrives first (e.g. via a hybrid pair)...
        ctx.restore_committed(
            Uid(7),
            ObjKind::Mutex,
            raw(Value::Int(1)),
            Some(LogAddress(700)),
        )
        .unwrap();
        // ...then a later one: replaced.
        assert!(ctx
            .restore_committed(
                Uid(7),
                ObjKind::Mutex,
                raw(Value::Int(2)),
                Some(LogAddress(800))
            )
            .unwrap());
        // An earlier one: ignored.
        assert!(!ctx
            .restore_committed(
                Uid(7),
                ObjKind::Mutex,
                raw(Value::Int(0)),
                Some(LogAddress(600))
            )
            .unwrap());
        let h = ctx.ot.get(Uid(7)).unwrap().heap;
        assert_eq!(ctx.heap.read_value(h, None).unwrap(), &Value::Int(2));
    }

    #[test]
    fn data_entries_of_unknown_actions_are_discarded() {
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.on_data(
            LogAddress(512),
            Uid(1),
            ObjKind::Atomic,
            raw(Value::Int(1)),
            aid(9),
        )
        .unwrap();
        ctx.on_data(
            LogAddress(600),
            Uid(2),
            ObjKind::Mutex,
            raw(Value::Int(1)),
            aid(9),
        )
        .unwrap();
        assert!(ctx.ot.is_empty());
        assert!(ctx.heap.is_empty());
    }

    #[test]
    fn aborted_action_keeps_mutex_but_not_atomic_versions() {
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.on_aborted(aid(3));
        ctx.on_data(
            LogAddress(512),
            Uid(1),
            ObjKind::Atomic,
            raw(Value::Int(8)),
            aid(3),
        )
        .unwrap();
        ctx.on_data(
            LogAddress(600),
            Uid(2),
            ObjKind::Mutex,
            raw(Value::Int(8)),
            aid(3),
        )
        .unwrap();
        assert!(ctx.ot.get(Uid(1)).is_none());
        assert!(ctx.ot.get(Uid(2)).is_some());
    }

    #[test]
    fn prepared_data_for_unknown_action_enters_pt() {
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.on_prepared_data(Uid(4), raw(Value::Int(1)), aid(5))
            .unwrap();
        assert_eq!(ctx.pt.get(aid(5)), Some(PState::Prepared));
        assert_eq!(ctx.ot.get(Uid(4)).unwrap().state, ObjState::Prepared);
    }

    #[test]
    fn checkpoint_ordering_fix_overwrites_stale_base_of_committed_action() {
        // Backward walk of a log whose housekeeping ran while aid(4) was in
        // doubt and whose commit landed above the checkpoint: `committed`
        // first, then the checkpoint's (pre-commit) base, then the
        // prepared_data below it. The prepared version is aid(4)'s
        // committed state and must win over the stale base.
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.entries_examined = 1;
        ctx.on_committed(aid(4));
        ctx.entries_examined = 2;
        ctx.restore_committed(
            Uid(1),
            ObjKind::Atomic,
            raw(Value::Int(5)),
            Some(LogAddress(512)),
        )
        .unwrap();
        ctx.entries_examined = 3;
        ctx.on_prepared_data(Uid(1), raw(Value::Int(9)), aid(4))
            .unwrap();
        let h = ctx.ot.get(Uid(1)).unwrap().heap;
        assert_eq!(ctx.heap.read_value(h, None).unwrap(), &Value::Int(9));
        // Idempotent: a duplicate copy of the same version is not "newer".
        assert!(!ctx.stale_committed_base(Uid(1), aid(4)));
    }

    #[test]
    fn committed_version_above_the_commit_point_still_wins() {
        // A later action's version restored *above* aid(4)'s `committed`
        // entry already includes (or supersedes) aid(4)'s write; the
        // prepared_data below must not clobber it.
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.entries_examined = 1;
        ctx.on_committed(aid(8));
        ctx.restore_committed_by(aid(8), Uid(1), ObjKind::Atomic, raw(Value::Int(7)), None)
            .unwrap();
        ctx.entries_examined = 2;
        ctx.on_committed(aid(4));
        ctx.entries_examined = 3;
        ctx.on_prepared_data(Uid(1), raw(Value::Int(9)), aid(4))
            .unwrap();
        let h = ctx.ot.get(Uid(1)).unwrap().heap;
        assert_eq!(ctx.heap.read_value(h, None).unwrap(), &Value::Int(7));
    }

    #[test]
    fn compaction_ordering_fix_attaches_current_to_restored_base() {
        // committed_ss restored the base first; the in-doubt prepared
        // version must still attach with its write lock.
        let mut heap = Heap::new();
        let mut ctx = RecoverCtx::new(&mut heap);
        ctx.restore_committed(Uid(1), ObjKind::Atomic, raw(Value::Int(5)), None)
            .unwrap();
        ctx.on_prepared(aid(2));
        assert!(ctx
            .restore_prepared(Uid(1), ObjKind::Atomic, raw(Value::Int(9)), aid(2), None)
            .unwrap());
        let h = ctx.ot.get(Uid(1)).unwrap().heap;
        match &ctx.heap.get(h).unwrap().body {
            ObjectBody::Atomic(obj) => {
                assert_eq!(obj.base, Value::Int(5));
                assert_eq!(obj.current, Some(Value::Int(9)));
                assert_eq!(obj.writer, Some(aid(2)));
            }
            _ => panic!("expected atomic"),
        }
    }
}
