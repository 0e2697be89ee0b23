//! The hybrid-log recovery system (ch. 4): the thesis's contribution.
//!
//! The shadowing map is distributed over the `prepared` outcome entries as
//! `(uid, log address)` pairs, and every outcome entry carries a pointer to
//! the previous outcome entry, forming a backward chain. Recovery walks the
//! chain and reads data entries *only when a version actually needs to be
//! copied* — that selectivity is why hybrid recovery examines far fewer
//! entries than the simple log (experiments E2/E3).

use crate::api::HousekeepingMode;
use crate::entry::{decode_entry_view, EntryOut, EntryView, RawValue, WireField};
use crate::housekeeping::HkState;
use crate::log::{append_outcome, LogFormat, LogIo, LogRs, OpenPass};
use crate::restore::RecoverCtx;
use crate::tables::{MutexTable, ObjState, PState, RecoveryOutcome};
use crate::{RsError, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, ObjKind, ObjectBody, Uid};
use argus_sim::{IntMap, IntSet};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;

/// The recovery system over a hybrid log.
pub type HybridLogRs<P> = LogRs<P, HybridFormat>;

/// One `(uid, data-entry address)` pair plus the object kind, tracked per
/// action between its data-entry writes and its prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPair {
    pub uid: Uid,
    pub addr: LogAddress,
    pub kind: ObjKind,
}

/// The hybrid-log format: anonymous data entries whose addresses are
/// collected into the preparing action's map fragment, and chained outcome
/// entries (Figure 4-1). Its volatile tables are the chain head, the mutex
/// table (MT, §5.2), the per-action early-prepare bookkeeping, and — while
/// a housekeeping pass is open — the outcome entries list (OEL).
#[derive(Debug, Default)]
pub struct HybridFormat {
    /// The committing-actions table (CAT): coordinators past the commit
    /// point whose `done` is not yet logged. Volatile twin of the
    /// recovery CT, kept so a snapshot can re-emit `committing` entries —
    /// the snapshot reads no log, and phase-two state lives nowhere in
    /// the heap.
    pub(crate) cat: IntMap<ActionId, Vec<GuardianId>>,
    /// Address of the most recent outcome entry: the chain head.
    pub(crate) last_outcome: Option<LogAddress>,
    /// Data entries per action not yet covered by a `prepared` entry, the
    /// newest per object.
    pub(crate) pending: IntMap<ActionId, Vec<PendingPair>>,
    /// The mutex table: mutex uid → address of its latest prepared version.
    pub(crate) mt: MutexTable,
    /// The outcome entries list, recorded while housekeeping is open.
    pub(crate) oel: Option<Vec<LogAddress>>,
}

impl<P: crate::StoreProvider> LogRs<P, HybridFormat> {
    /// The mutex table (read-only, for tests).
    pub fn mutex_table(&self) -> &MutexTable {
        &self.fmt.mt
    }
}

impl LogFormat for HybridFormat {
    type Pass = HkState;

    const NO_SNAPSHOT: Option<&'static str> = None;
    const EARLY_PREPARE: bool = true;

    fn data<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        uid: Uid,
        kind: ObjKind,
        value: V,
        aid: ActionId,
    ) -> RsResult<()> {
        let addr = io.append_data(&EntryOut::DataH { kind, value })?;
        let pair = PendingPair { uid, addr, kind };
        let pending = self.pending.entry(aid).or_default();
        match pending.iter_mut().find(|p| p.uid == uid) {
            Some(existing) => *existing = pair,
            None => pending.push(pair),
        }
        Ok(())
    }

    fn special<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        _writer: ActionId,
        entry: EntryOut<'_, V>,
    ) -> RsResult<()> {
        append_outcome(self, io, entry)
    }

    fn pairs(&self, aid: ActionId) -> Vec<(Uid, LogAddress)> {
        let pending = self
            .pending
            .get(&aid)
            .map(Vec::as_slice)
            .unwrap_or_default();
        pending.iter().map(|p| (p.uid, p.addr)).collect()
    }

    fn chain_head(&mut self) -> Option<&mut Option<LogAddress>> {
        Some(&mut self.last_outcome)
    }

    fn note_outcome<S: PageStore, V>(
        &mut self,
        _io: &mut LogIo<S>,
        entry: &EntryOut<'_, V>,
        addr: LogAddress,
    ) -> RsResult<()> {
        if let Some(oel) = &mut self.oel {
            oel.push(addr);
        }
        match *entry {
            // The action is prepared: record the latest prepared mutex
            // versions in the MT (§5.2).
            EntryOut::Prepared { aid, .. } => {
                for pair in self.pending.remove(&aid).unwrap_or_default() {
                    if pair.kind == ObjKind::Mutex {
                        self.mt.insert(pair.uid, pair.addr);
                    }
                }
            }
            EntryOut::Committed { aid, .. } | EntryOut::Aborted { aid, .. } => {
                self.pending.remove(&aid);
            }
            EntryOut::Committing { aid, gids, .. } => {
                self.cat.insert(aid, gids.to_vec());
            }
            EntryOut::Done { aid, .. } => {
                self.cat.remove(&aid);
            }
            _ => {}
        }
        Ok(())
    }

    fn discard(&mut self, aid: ActionId) {
        self.pending.remove(&aid);
    }

    fn walk<S: PageStore>(&mut self, io: &mut LogIo<S>, ctx: &mut RecoverCtx<'_>) -> RsResult<()> {
        let head = find_chain_head(&mut io.log, ctx)?;
        walk_chain(&mut io.log, ctx, head)?;
        self.last_outcome = head;
        Ok(())
    }

    fn install(&mut self, outcome: &RecoveryOutcome) {
        self.cat = outcome.ct.committing_actions().into_iter().collect();
        self.mt = outcome
            .ot
            .iter()
            .filter_map(|(uid, e)| e.mutex_addr.map(|a| (*uid, a)))
            .collect();
        self.pending.clear();
    }

    fn stage_one<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        store: S,
        _marker: u64,
        heap: &Heap,
        mode: HousekeepingMode,
        pat: &IntSet<ActionId>,
    ) -> RsResult<(StableLog<S>, HkState)> {
        let mut new_log = StableLog::create(store)?;
        let mut hk = HkState::default();
        match mode {
            HousekeepingMode::Compaction => self.compact_stage_one(io, &mut new_log, &mut hk)?,
            HousekeepingMode::Snapshot => {
                self.snapshot_stage_one(io, &mut new_log, &mut hk, heap, pat)?
            }
        }
        self.oel = Some(Vec::new());
        Ok((new_log, hk))
    }

    fn stage_two<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        pass: &mut OpenPass<S, HkState>,
    ) -> RsResult<()> {
        self.copy_stage_two(io, &mut pass.new_log, &mut pass.state)
    }

    fn switched(&mut self, hk: HkState, mode: HousekeepingMode, access: &mut IntSet<Uid>) {
        self.last_outcome = hk.new_last;
        self.mt = hk.new_mt;
        self.pending = hk.new_pending;
        if let (HousekeepingMode::Snapshot, Some(new_access)) = (mode, hk.new_access) {
            *access = access.intersection(&new_access).copied().collect();
            access.insert(Uid::STABLE_ROOT);
        }
    }
}

/// Reads the data entry (either format) at `addr` into `buf`, returning its
/// kind and its version, still encoded in `buf`.
pub(crate) fn read_data<'b, S: PageStore>(
    log: &mut StableLog<S>,
    addr: LogAddress,
    buf: &'b mut Vec<u8>,
) -> RsResult<(ObjKind, RawValue<'b>)> {
    log.read_into(addr, buf)?;
    match decode_entry_view(buf)? {
        EntryView::DataH { kind, value } | EntryView::Data { kind, value, .. } => Ok((kind, value)),
        other => Err(RsError::BadState(format!(
            "expected a data entry at {addr}, found {}",
            other.name()
        ))),
    }
}

/// The §4.3.3 walk: feeds the outcome chain from `head` down, and the data
/// entries its rules ask for, through the restore rules. Shared by recovery
/// and compaction stage one, which digests the old log "exactly like a
/// recovery" (§5.1.1) into a scratch heap.
pub(crate) fn walk_chain<S: PageStore>(
    log: &mut StableLog<S>,
    ctx: &mut RecoverCtx<'_>,
    head: Option<LogAddress>,
) -> RsResult<()> {
    let mut cursor = head;
    let (mut scratch, mut data) = (Vec::new(), Vec::new());
    while let Some(addr) = cursor {
        log.read_into(addr, &mut scratch)?;
        ctx.entries_examined += 1;
        ctx.chain_hops += 1;
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
                    process_pair(log, ctx, st, aid, uid, daddr, &mut data)?;
                }
            }
            EntryView::Committed { aid, .. } => ctx.on_committed(aid),
            EntryView::Aborted { aid, .. } => ctx.on_aborted(aid),
            EntryView::Committing { aid, gids, .. } => ctx.on_committing(aid, gids.to_vec()),
            EntryView::Done { aid, .. } => ctx.on_done(aid),
            EntryView::BaseCommitted { uid, value, .. } => ctx.on_base_committed(uid, value)?,
            EntryView::PreparedData {
                uid, value, aid, ..
            } => ctx.on_prepared_data(uid, value, aid)?,
            EntryView::CommittedSs { cssl, .. } => {
                for (uid, daddr) in cssl.iter() {
                    let state = ctx.ot.get(uid).map(|e| e.state);
                    if state != Some(ObjState::Restored) {
                        let (kind, value) = read_data_counted(log, ctx, daddr, &mut data)?;
                        ctx.restore_committed(uid, kind, value, Some(daddr))?;
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

/// Processes one `(uid, address)` pair of a `prepared` entry under the
/// action's effective state, reading the data entry only when a copy is
/// actually required (§4.3.3).
fn process_pair<S: PageStore>(
    log: &mut StableLog<S>,
    ctx: &mut RecoverCtx<'_>,
    st: PState,
    aid: ActionId,
    uid: Uid,
    daddr: LogAddress,
    buf: &mut Vec<u8>,
) -> RsResult<()> {
    // For an object already restored, the OT and the heap decide whether
    // this version is needed without reading it.
    let needed = match ctx.ot.get(uid).copied() {
        None => true,
        Some(entry) => match (&ctx.heap.get(entry.heap)?.body, st) {
            (ObjectBody::Mutex(_), _) => entry.mutex_addr.is_some_and(|old| daddr > old),
            // A resident base restored from a checkpoint below this action's
            // commit point is stale; this pair holds the real committed
            // state (checkpoint ordering fix, see DESIGN.md).
            (ObjectBody::Atomic(_), PState::Committed) => {
                entry.state == ObjState::Prepared || ctx.stale_committed_base(uid, aid)
            }
            // Post-compaction ordering: attach the prepared current version
            // if the restored object has none.
            (ObjectBody::Atomic(obj), PState::Prepared) => obj.writer.is_none(),
            (ObjectBody::Atomic(_), PState::Aborted) => false,
        },
    };
    if !needed {
        return Ok(());
    }
    let (kind, value) = read_data_counted(log, ctx, daddr, buf)?;
    match st {
        PState::Committed => ctx.restore_committed_by(aid, uid, kind, value, Some(daddr))?,
        PState::Prepared => ctx.restore_prepared(uid, kind, value, aid, Some(daddr))?,
        // The kind is only in the data entry; mutex versions of an
        // aborted-but-prepared action must still be restored.
        PState::Aborted if kind == ObjKind::Mutex => {
            ctx.restore_committed(uid, kind, value, Some(daddr))?
        }
        PState::Aborted => false,
    };
    Ok(())
}

fn read_data_counted<'b, S: PageStore>(
    log: &mut StableLog<S>,
    ctx: &mut RecoverCtx<'_>,
    addr: LogAddress,
    buf: &'b mut Vec<u8>,
) -> RsResult<(ObjKind, RawValue<'b>)> {
    ctx.entries_examined += 1;
    ctx.data_entries_read += 1;
    read_data(log, addr, buf)
}

/// Finds the head of the outcome-entry chain: the newest forced record
/// that is an outcome entry. Normally that is simply the top of the log;
/// after an ill-timed crash the top may be a flushed data entry, in
/// which case the scan steps back over data entries.
fn find_chain_head<S: PageStore>(
    log: &mut StableLog<S>,
    ctx: &mut RecoverCtx<'_>,
) -> RsResult<Option<LogAddress>> {
    let mut cursor = log.get_top();
    let mut scratch = Vec::new();
    while let Some(addr) = cursor {
        log.read_into(addr, &mut scratch)?;
        ctx.entries_examined += 1;
        if decode_entry_view(&scratch)?.is_outcome() {
            return Ok(Some(addr));
        }
        // Step over the data entry.
        let mut walk = log.walk_backward(Some(addr));
        walk.next_entry(); // the data entry itself
        cursor = match walk.next_entry() {
            Some(item) => Some(item?.0),
            None => None,
        };
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::providers::MemProvider;
    use crate::api::RecoverySystem;
    use argus_objects::Value;

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
