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
//! Two recovery modes ([`RecoveryMode`]):
//!
//! * **Full** — the §3.4.4-style single backward pass, for head-to-head
//!   comparison with the thesis's organizations.
//! * **OnDemand** — a bounded *tail scan* rebuilds the OT/PT/CT tables
//!   (stopping at the newest `committed_ss` checkpoint's low-water mark).
//!   `recover` returns with the tables, the stable root, and every in-doubt
//!   object restored; everything else stays on the log and is materialized
//!   lazily by [`RecoverySystem::demand_restore`] on first touch.
//!
//! The volatile bookkeeping beyond the thesis's AS/PAT:
//!
//! * `heads` — newest *committed* version address per object. Backlinks are
//!   stamped from it at write time, so a chain hop always lands on committed
//!   (or §2.4.2-restorable mutex) state.
//! * `pending` — addresses written by still-in-doubt actions, promoted into
//!   `heads` when the action commits.
//! * `floor` — the first log address each in-doubt action wrote. The
//!   minimum over floors (and unfinished coordinators) is the checkpoint's
//!   low-water mark: a tail scan that reads down to it has seen every record
//!   that is not summarized by the checkpoint's chain-head map.
//!
//! Housekeeping is **chain truncation**: the compaction analogue rebuilds
//! the log with exactly one committed record per live object (each chain
//! truncated to its head), rewrites the backlinks of copied tail records to
//! their new-log addresses, and seals the new log with a fresh checkpoint.

use crate::api::{HousekeepingMode, RecoveryMode};
use crate::compact;
use crate::entry::{decode_entry_view, Entry, EntryOut, EntryRef, EntryView, WireField};
use crate::log::{append_entry, LogFormat, LogIo, LogRs, OpenPass};
use crate::restore::{scan_backward, RecoverCtx};
use crate::tables::{CState, ObjState, PState, ParticipantTable, RecoveryOutcome};
use crate::{RsError, RsResult};
use argus_objects::{ActionId, AtomicObject, Heap, MutexObject, ObjKind, ObjectBody, Uid};
use argus_sim::{IntMap, IntSet};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;

/// The REDO-only recovery system: backlinked redo records, checkpointed
/// chain-head maps, and full / on-demand recovery.
pub type RedoRs<P> = LogRs<P, RedoFormat>;

/// Checkpoint cadence: a `committed_ss` chain-head map is appended after
/// this many commits, bounding the tail a non-full recovery must scan.
const MAP_INTERVAL: u64 = 64;

/// The chain bookkeeping of one log: the live log's on the write path, the
/// new log's during housekeeping.
#[derive(Debug, Clone, Default)]
pub struct RedoMaps {
    /// Newest committed version address per object (chain heads).
    heads: IntMap<Uid, LogAddress>,
    /// Version addresses written by in-doubt actions, promoted into `heads`
    /// at commit, dropped at abort.
    pending: IntMap<ActionId, Vec<(Uid, LogAddress)>>,
    /// First record address of each in-doubt action (low-water inputs).
    floor: IntMap<ActionId, LogAddress>,
    /// `committing` entry address of each unfinished coordinator.
    committing: IntMap<ActionId, LogAddress>,
}

impl RedoMaps {
    /// What a record appended at `addr` does to the maps.
    fn note<V, P, G>(&mut self, entry: &Entry<V, P, G>, addr: LogAddress) {
        match *entry {
            Entry::DataR { uid, kind, aid, .. } => {
                self.floor.entry(aid).or_insert(addr);
                match kind {
                    // A mutex version is restorable state the moment it is
                    // logged (§2.4.2): it becomes the chain head immediately.
                    ObjKind::Mutex => {
                        self.heads.insert(uid, addr);
                    }
                    // An atomic version is only committed state once its
                    // action commits: park it until the verdict.
                    ObjKind::Atomic => self.pending.entry(aid).or_default().push((uid, addr)),
                }
            }
            // A base is committed no matter how the preparing action ends.
            Entry::BaseCommitted { uid, .. } => {
                self.heads.insert(uid, addr);
            }
            // Another prepared action's version: becomes the chain head if
            // that action commits.
            Entry::PreparedData { uid, aid, .. } => {
                self.floor.entry(aid).or_insert(addr);
                self.pending.entry(aid).or_default().push((uid, addr));
            }
            // An action with an empty MOS still needs a floor: its prepared
            // entry is the oldest record the tail scan must reach.
            Entry::Prepared { aid, .. } => {
                self.floor.entry(aid).or_insert(addr);
            }
            // Promote the action's versions to chain heads.
            Entry::Committed { aid, .. } => {
                for (uid, a) in self.pending.remove(&aid).unwrap_or_default() {
                    let head = self.heads.entry(uid).or_insert(a);
                    *head = a.max(*head);
                }
                self.floor.remove(&aid);
            }
            Entry::Aborted { aid, .. } => {
                self.pending.remove(&aid);
                self.floor.remove(&aid);
            }
            Entry::Committing { aid, .. } => {
                self.committing.insert(aid, addr);
            }
            Entry::Done { aid, .. } => {
                self.committing.remove(&aid);
            }
            Entry::Data { .. } | Entry::DataH { .. } | Entry::CommittedSs { .. } => {}
        }
    }

    /// The `committed_ss` chain-head map and its `prev`: the low-water mark,
    /// the oldest record any in-doubt action or unfinished coordinator still
    /// depends on. A checkpoint whose `prev` is this address summarizes
    /// everything below it.
    fn checkpoint(&self) -> (Vec<(Uid, LogAddress)>, Option<LogAddress>) {
        let mut cssl: Vec<(Uid, LogAddress)> = self.heads.iter().map(|(u, a)| (*u, *a)).collect();
        cssl.sort();
        let low_water = self.floor.values().chain(self.committing.values()).min();
        (cssl, low_water.copied())
    }

    /// What the backward scan passing `entry` at `addr` does to the maps it
    /// is rebuilding, given the participant table the restore rules left.
    /// `heads` is first-insertion-wins (the scan meets the newest version
    /// first); `floor` is overwritten on the way down, so the last write is
    /// the oldest record; `committing` keeps the newest entry per action.
    /// Only an in-doubt action has a floor, and the table already says
    /// which: it is first-insertion-wins, and the scan meets an action's
    /// outcome before its `prepared` and data entries.
    fn note_scanned(&mut self, addr: LogAddress, entry: &EntryView<'_>, pt: &ParticipantTable) {
        let mut floor = |aid| {
            if pt.get(aid) == Some(PState::Prepared) {
                self.floor.insert(aid, addr);
            }
        };
        match *entry {
            EntryView::Prepared { aid, .. } => floor(aid),
            EntryView::Committing { aid, .. } => {
                self.committing.entry(aid).or_insert(addr);
            }
            EntryView::BaseCommitted { uid, .. } => {
                self.heads.entry(uid).or_insert(addr);
            }
            // The version is the chain head if its writer committed; its
            // address is promotable if the writer is in doubt.
            EntryView::PreparedData { uid, aid, .. } => {
                floor(aid);
                match pt.get(aid) {
                    Some(PState::Committed) => {
                        self.heads.entry(uid).or_insert(addr);
                    }
                    Some(PState::Prepared) => {
                        self.pending.entry(aid).or_default().push((uid, addr))
                    }
                    _ => {}
                }
            }
            // A plain simple-log data entry is a redo record with no
            // backlink; tolerated for mixed-provenance logs. A logged mutex
            // version is a chain head whatever its writer's verdict (§2.4.2).
            EntryView::DataR { uid, kind, aid, .. } | EntryView::Data { uid, kind, aid, .. } => {
                floor(aid);
                let state = pt.get(aid);
                if state == Some(PState::Committed) || (kind == ObjKind::Mutex && state.is_some()) {
                    self.heads.entry(uid).or_insert(addr);
                }
                if state == Some(PState::Prepared) {
                    self.pending.entry(aid).or_default().push((uid, addr));
                }
            }
            // Chain heads for objects untouched above this point. Within
            // one log generation the newest map is a superset of older
            // ones, so `or_insert` keeps newest-first priority even across
            // multiple checkpoints.
            EntryView::CommittedSs { cssl, .. } => {
                for (uid, pair_addr) in cssl.iter() {
                    self.heads.entry(uid).or_insert(pair_addr);
                }
            }
            EntryView::Committed { .. }
            | EntryView::Aborted { .. }
            | EntryView::Done { .. }
            | EntryView::DataH { .. } => {}
        }
    }
}

/// Lands a compacted entry on the new log: a data record's backlink is
/// rewritten to its new-log chain head, old checkpoints are dropped (their
/// maps point into the old log), and the maps follow, so they can be
/// installed wholesale at the switch.
impl compact::Emit for RedoMaps {
    fn emit<S: PageStore, V: WireField, P: WireField, G: WireField>(
        &mut self,
        new_log: &mut StableLog<S>,
        entry: Entry<V, P, G>,
    ) -> RsResult<()> {
        let entry = match entry {
            Entry::DataR {
                uid,
                kind,
                value,
                aid,
                ..
            }
            | Entry::Data {
                uid,
                kind,
                value,
                aid,
            } => Entry::DataR {
                uid,
                kind,
                value,
                aid,
                back: self.heads.get(&uid).copied(),
            },
            Entry::CommittedSs { .. } => return Ok(()),
            other => other,
        };
        let addr = append_entry(new_log, &entry)?;
        self.note(&entry, addr);
        Ok(())
    }
}

/// The redo-log format: data entries carry the per-object backlink, stamped
/// from the volatile chain maps; a `committed_ss` chain-head map follows
/// every `MAP_INTERVAL` commits.
#[derive(Debug, Clone)]
pub struct RedoFormat {
    maps: RedoMaps,
    /// Commits since the last checkpoint.
    commits_since_ckpt: u64,
    /// How the next `recover` rebuilds state.
    mode: RecoveryMode,
    /// Objects awaiting lazy restoration: uid → chain-head address.
    lazy: IntMap<Uid, LogAddress>,
}

impl Default for RedoFormat {
    fn default() -> Self {
        Self {
            maps: RedoMaps::default(),
            commits_since_ckpt: 0,
            mode: RecoveryMode::Full,
            lazy: IntMap::default(),
        }
    }
}

impl LogFormat for RedoFormat {
    type Pass = RedoMaps;

    const NO_SNAPSHOT: Option<&'static str> =
        Some("snapshot housekeeping on the redo log (chain truncation is its compaction)");

    fn data<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        uid: Uid,
        kind: ObjKind,
        value: V,
        aid: ActionId,
    ) -> RsResult<()> {
        let entry = EntryOut::DataR {
            uid,
            kind,
            value,
            aid,
            back: self.maps.heads.get(&uid).copied(),
        };
        let addr = io.append_data(&entry)?;
        self.maps.note(&entry, addr);
        Ok(())
    }

    fn special<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        writer: ActionId,
        entry: EntryOut<'_, V>,
    ) -> RsResult<()> {
        let addr = io.append_special(&entry)?;
        // Every record of a prepare counts towards its writer's floor.
        self.maps.floor.entry(writer).or_insert(addr);
        self.maps.note(&entry, addr);
        Ok(())
    }

    fn note_outcome<S: PageStore, V>(
        &mut self,
        io: &mut LogIo<S>,
        entry: &EntryOut<'_, V>,
        addr: LogAddress,
    ) -> RsResult<()> {
        self.maps.note(entry, addr);
        if let EntryOut::Committed { .. } = entry {
            self.commits_since_ckpt += 1;
            if self.commits_since_ckpt >= MAP_INTERVAL && !self.maps.heads.is_empty() {
                let (cssl, prev) = self.maps.checkpoint();
                io.append_special(&EntryRef::CommittedSs { cssl: &cssl, prev })?;
                self.commits_since_ckpt = 0;
            }
        }
        Ok(())
    }

    fn discard(&mut self, aid: ActionId) {
        self.maps.pending.remove(&aid);
        self.maps.floor.remove(&aid);
    }

    fn reset(&mut self) {
        *self = Self {
            mode: self.mode,
            ..Self::default()
        };
    }

    fn walk<S: PageStore>(&mut self, io: &mut LogIo<S>, ctx: &mut RecoverCtx<'_>) -> RsResult<()> {
        self.lazy.clear();

        let mut maps = RedoMaps::default();
        if self.mode == RecoveryMode::Full {
            scan_backward(&mut io.log, ctx, |addr, entry, pt| {
                maps.note_scanned(addr, entry, pt)
            })?;
        } else {
            // In-doubt atomic objects need their committed base *now*: the
            // resumed action's lock holders (and a possible abort) depend on
            // it. The chain head (or the prepared record's backlink) is one
            // hop away.
            for (uid, back) in tail_scan(&mut io.log, ctx, &mut maps)? {
                if ctx.ot.get(uid).map(|e| e.state) != Some(ObjState::Prepared) {
                    continue;
                }
                let start = maps.heads.get(&uid).copied().or(back);
                if let Some(addr) = restore_chain(&mut io.log, ctx, uid, start)? {
                    maps.heads.entry(uid).or_insert(addr);
                }
            }
            // The stable root is the entry point of everything: restore it
            // eagerly so the guardian can serve immediately.
            if let Some(&addr) = maps.heads.get(&Uid::STABLE_ROOT) {
                if ctx.ot.get(Uid::STABLE_ROOT).is_none() {
                    restore_chain(&mut io.log, ctx, Uid::STABLE_ROOT, Some(addr))?;
                }
            }
            // Chain heads of the objects the scan left on the log.
            let heads = maps.heads.iter();
            let left = heads.filter(|(uid, _)| ctx.ot.get(**uid).is_none());
            self.lazy = left.map(|(u, a)| (*u, *a)).collect();
        }

        // Objects still on the log occupy uid space: the allocator must not
        // reuse their uids for new objects, or their chains would corrupt.
        if let Some(max_lazy) = self.lazy.keys().max() {
            let next = ctx.heap.next_uid().max(max_lazy.0 + 1);
            ctx.heap.set_next_uid(next);
        }
        self.maps = maps;
        self.commits_since_ckpt = 0;
        Ok(())
    }

    fn install(&mut self, outcome: &RecoveryOutcome) {
        // The scan kept a committing address for every coordinator it met;
        // only the unfinished ones are still low-water inputs. The map is
        // rebuilt, not filtered in place: the survivors are few.
        let committing =
            |aid: &ActionId| matches!(outcome.ct.get(*aid), Some(CState::Committing(_)));
        let at = std::mem::take(&mut self.maps.committing).into_iter();
        self.maps.committing = at.filter(|(aid, _)| committing(aid)).collect();
    }

    fn pin_access(&self, access: &mut IntSet<Uid>) {
        // Lazily pending objects are reachable state that simply is not
        // resident yet; they must not be forgotten.
        access.extend(self.lazy.keys());
    }

    fn set_recovery_mode(&mut self, mode: RecoveryMode) -> bool {
        self.mode = mode;
        true
    }

    fn demand_restore<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        uid: Uid,
        heap: &mut Heap,
    ) -> RsResult<bool> {
        let Some(&addr) = self.lazy.get(&uid) else {
            return Ok(false);
        };
        if heap.lookup(uid).is_some() {
            self.lazy.remove(&uid);
            return Ok(false);
        }
        // The lazy map only holds validated chain heads, so one read
        // materializes the newest committed version.
        let (_seq, payload) = io.log.read(addr)?;
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
        io.obs.inc(argus_obs::Count::CoreRecoverLazyRestores);
        Ok(true)
    }

    fn lazy_pending(&self) -> u64 {
        self.lazy.len() as u64
    }

    /// Chain truncation: one committed record per live object, each chain
    /// restarting at length one.
    fn stage_one<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        store: S,
        marker: u64,
        _heap: &Heap,
        _mode: HousekeepingMode,
        _pat: &IntSet<ActionId>,
    ) -> RsResult<(StableLog<S>, RedoMaps)> {
        let mut maps = RedoMaps::default();
        let new_log = compact::stage_one(&mut io.log, store, marker, &mut maps)?;
        Ok((new_log, maps))
    }

    fn stage_two<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        pass: &mut OpenPass<S, RedoMaps>,
    ) -> RsResult<()> {
        let maps = &mut pass.state;
        compact::stage_two(&mut io.log, &mut pass.new_log, pass.marker, maps)?;
        // Seal the new log with a fresh checkpoint over the new addresses.
        let (cssl, prev) = maps.checkpoint();
        let seal = EntryRef::CommittedSs { cssl: &cssl, prev };
        append_entry(&mut pass.new_log, &seal).map(drop)
    }

    /// The chain bookkeeping switches to the new addresses with the log.
    fn switched(&mut self, maps: RedoMaps, _mode: HousekeepingMode, _access: &mut IntSet<Uid>) {
        self.maps = maps;
        self.commits_since_ckpt = 0;
        // Lazily pending objects re-home to their truncated chain heads.
        let heads = &self.maps.heads;
        self.lazy = std::mem::take(&mut self.lazy)
            .into_keys()
            .filter_map(|uid| heads.get(&uid).map(|addr| (uid, *addr)))
            .collect();
    }
}

/// The bounded tail scan of on-demand recovery: walks back from the top to
/// the newest checkpoint's low-water mark, rebuilding the tables and `maps`
/// but materializing only what an in-doubt action wrote — such an action
/// resumes holding its locks the moment recovery returns.
/// Returns the in-doubt atomic objects restored with a prepared current
/// version but no base yet, each with the backlink its record carried.
fn tail_scan<S: PageStore>(
    log: &mut StableLog<S>,
    ctx: &mut RecoverCtx<'_>,
    maps: &mut RedoMaps,
) -> RsResult<Vec<(Uid, Option<LogAddress>)>> {
    let mut needs_base = Vec::new();
    // Entries below the stop mark are summarized by the newest checkpoint
    // and are not read.
    let mut stop: Option<LogAddress> = None;
    let mut walk = log.walk_backward(None);
    while let Some(item) = walk.next_entry() {
        let (addr, _seq, payload) = item?;
        if stop.is_some_and(|stop| addr < stop) {
            break;
        }
        let entry = decode_entry_view(payload)?;
        ctx.entries_examined += 1;
        match entry {
            EntryView::Prepared { aid, .. } => {
                ctx.on_prepared(aid);
            }
            EntryView::Committed { aid, .. } => ctx.on_committed(aid),
            EntryView::Aborted { aid, .. } => ctx.on_aborted(aid),
            EntryView::Committing { aid, gids, .. } => ctx.on_committing(aid, gids.to_vec()),
            EntryView::Done { aid, .. } => ctx.on_done(aid),
            EntryView::PreparedData {
                uid, aid, value, ..
            } => {
                if matches!(ctx.pt.get(aid), Some(PState::Prepared) | None) {
                    ctx.on_prepared_data(uid, value, aid)?;
                    needs_base.push((uid, None));
                }
            }
            EntryView::DataR {
                uid,
                kind,
                aid,
                value,
                ..
            }
            | EntryView::Data {
                uid,
                kind,
                aid,
                value,
            } => {
                if ctx.pt.get(aid) == Some(PState::Prepared) {
                    ctx.data_entries_read += 1;
                    ctx.restore_prepared(uid, kind, value, aid, Some(addr))?;
                    if kind == ObjKind::Atomic {
                        needs_base.push((uid, entry.backlink()));
                    }
                }
            }
            // The newest checkpoint bounds the tail: nothing below its
            // low-water mark is needed.
            EntryView::CommittedSs { prev, .. } => {
                stop = stop.or(Some(prev.unwrap_or(addr)));
            }
            EntryView::BaseCommitted { .. } | EntryView::DataH { .. } => {}
        }
        maps.note_scanned(addr, &entry, &ctx.pt);
    }
    Ok(needs_base)
}

/// Walks `uid`'s chain from `start` until a restorable committed version
/// is found and materializes it. Returns the address restored from.
fn restore_chain<S: PageStore>(
    log: &mut StableLog<S>,
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
        if ctx.restore_record(uid, addr, &scratch, first)? {
            return Ok(Some(addr));
        }
        first = false;
        ctx.chain_hops += 1;
        cur = decode_entry_view(&scratch)?.backlink();
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::providers::MemProvider;
    use crate::api::RecoverySystem;
    use crate::LogEntry;
    use argus_objects::{GuardianId, HeapId, Value};

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

    /// 200 commits, the last of them valued 49: past three checkpoints, the
    /// tail after the newest holds eight.
    #[test]
    fn checkpoint_bounds_the_tail_scan() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        for i in 0..3 * MAP_INTERVAL + 8 {
            commit_root_update(&mut rs, &mut heap, aid(i + 1), Value::Int(i as i64 % 50));
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

    /// Five children, and 64: with that much history the chain heads the
    /// on-demand reads follow are not all in the few pages the tail scan's
    /// last reads left in the log's extent.
    #[test]
    fn on_demand_defers_and_restores_on_touch() {
        for n in [5, 64] {
            let mut rs = rs();
            let mut heap = Heap::with_stable_root();
            let uids = commit_children(&mut rs, &mut heap, n);

            rs.simulate_crash().unwrap();
            assert!(rs.set_recovery_mode(RecoveryMode::OnDemand));
            let mut heap2 = Heap::new();
            rs.recover(&mut heap2).unwrap();
            assert_eq!(rs.lazy_pending(), n, "children stay on the log");
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
        // head, visible to a checkpointed tail-only recovery. Empty commits
        // before it bring its commit to the checkpoint cadence.
        for i in 1..MAP_INTERVAL {
            rs.prepare(aid(2000 + i), &[], &heap2).unwrap();
            rs.commit(aid(2000 + i)).unwrap();
        }
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
        let by_addr: std::collections::HashMap<LogAddress, &LogEntry> =
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

    /// A full scan keeps a floor only for an in-doubt action and a committing
    /// address only for an unfinished coordinator. What it installs — and so
    /// the next checkpoint's low-water mark — is exactly what keeping a floor
    /// for every prepared and data entry and then filtering by the recovered
    /// tables gave (the oracle below restates that rule over the dumped log),
    /// on an uncompacted log and on a compacted one.
    #[test]
    fn the_scan_keeps_floors_only_for_in_doubt_actions() {
        for compact in [false, true] {
            let mut rs = rs();
            let mut heap = Heap::with_stable_root();
            let uids = commit_children(&mut rs, &mut heap, 5);
            let kids: Vec<HeapId> = uids.iter().map(|u| heap.lookup(*u).unwrap()).collect();
            let write = |heap: &mut Heap, a: ActionId, h: HeapId| {
                heap.acquire_write(h, a).unwrap();
                heap.write_value(h, a, |v| *v = Value::Int(-1)).unwrap();
            };
            let (lost, aborted, committed, doubt, empty) = (aid(1), aid(2), aid(3), aid(4), aid(5));
            // Data entries an action wrote early and never prepared.
            write(&mut heap, lost, kids[0]);
            rs.write_entry(lost, &[kids[0]], &heap).unwrap();
            write(&mut heap, aborted, kids[1]);
            rs.prepare(aborted, &[kids[1]], &heap).unwrap();
            rs.abort(aborted).unwrap();
            heap.abort_action(aborted);
            write(&mut heap, committed, kids[2]);
            rs.prepare(committed, &[kids[2]], &heap).unwrap();
            rs.commit(committed).unwrap();
            heap.commit_action(committed);
            write(&mut heap, doubt, kids[3]);
            rs.prepare(doubt, &[kids[3]], &heap).unwrap();
            rs.prepare(empty, &[], &heap).unwrap();
            let (open, finished, gids) = (aid(6), aid(7), [GuardianId(0), GuardianId(1)]);
            rs.committing(open, &gids).unwrap();
            rs.committing(finished, &gids).unwrap();
            rs.done(finished).unwrap();
            if compact {
                rs.housekeeping(&heap, HousekeepingMode::Compaction)
                    .unwrap();
            }
            // A last commit forces the unforced `done`.
            write(&mut heap, aid(8), kids[4]);
            rs.prepare(aid(8), &[kids[4]], &heap).unwrap();
            rs.commit(aid(8)).unwrap();

            rs.simulate_crash().unwrap();
            let out = rs.recover(&mut Heap::new()).unwrap();
            let mut floors: IntMap<ActionId, LogAddress> = IntMap::default();
            let mut at: IntMap<ActionId, LogAddress> = IntMap::default();
            for (addr, entry) in rs.dump_entries().unwrap() {
                match entry {
                    LogEntry::Prepared { aid, .. }
                    | LogEntry::PreparedData { aid, .. }
                    | LogEntry::DataR { aid, .. }
                    | LogEntry::Data { aid, .. } => {
                        floors.entry(aid).or_insert(addr);
                    }
                    LogEntry::Committing { aid, .. } => {
                        at.insert(aid, addr);
                    }
                    _ => {}
                }
            }
            floors.retain(|aid, _| out.pt.get(*aid) == Some(PState::Prepared));
            at.retain(|aid, _| matches!(out.ct.get(*aid), Some(CState::Committing(_))));
            let sorted = |map: &IntMap<ActionId, LogAddress>| {
                let mut rows: Vec<_> = map.iter().map(|(a, l)| (*a, *l)).collect();
                rows.sort();
                rows
            };
            let maps = &rs.fmt.maps;
            let low = floors.values().chain(at.values()).min().copied();
            assert_eq!(sorted(&maps.floor), sorted(&floors), "compacted: {compact}");
            assert_eq!(
                sorted(&maps.committing),
                sorted(&at),
                "compacted: {compact}"
            );
            assert_eq!(maps.checkpoint().1, low, "compacted: {compact}");
            let kept: Vec<ActionId> = sorted(&floors).iter().map(|(a, _)| *a).collect();
            assert_eq!(kept, [doubt, empty], "compacted: {compact}");
            assert_eq!(
                sorted(&at).iter().map(|(a, _)| *a).collect::<Vec<_>>(),
                [open]
            );
        }
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
