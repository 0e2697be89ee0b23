//! The simple-log recovery system (ch. 3).

use crate::api::{HousekeepingMode, LogStats, RecoverySystem, StoreProvider};
use crate::entry::{
    decode_entry, decode_entry_view, encode_entry, encode_entry_into, EntryRef, EntryView, LogEntry,
};
use crate::metrics::CoreObs;
use crate::restore::RecoverCtx;
use crate::tables::{ObjState, RecoveryOutcome};
use crate::writer::{process_mos, EntrySink};
use crate::{RsError, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, ObjKind, ObjectBody, Uid, Value};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::HashSet;

/// Emits simple-log entries: data entries carry uid, kind and aid
/// (Figure 3-1); nothing is chained.
struct SimpleSink<'a, S: PageStore> {
    log: &'a mut StableLog<S>,
    obs: &'a CoreObs,
}

impl<S: PageStore> SimpleSink<'_, S> {
    /// Encodes `entry` straight into the log's pending buffer (no
    /// per-record allocation), returning its payload length.
    fn append(&mut self, entry: EntryRef<'_>) -> RsResult<u64> {
        let mut len = 0;
        self.log.write_with(|enc| {
            let start = enc.len();
            encode_entry_into(enc, &entry)?;
            len = (enc.len() - start) as u64;
            Ok::<_, RsError>(())
        })?;
        Ok(len)
    }
}

impl<S: PageStore> EntrySink for SimpleSink<'_, S> {
    fn data(&mut self, uid: Uid, kind: ObjKind, value: Value, aid: ActionId) -> RsResult<()> {
        let len = self.append(EntryRef::Data {
            uid,
            kind,
            value: &value,
            aid,
        })?;
        self.obs.data_entry(len);
        Ok(())
    }

    fn base_committed(&mut self, uid: Uid, value: Value) -> RsResult<()> {
        let len = self.append(EntryRef::BaseCommitted {
            uid,
            value: &value,
            prev: None,
        })?;
        self.obs.entry_written("base_committed", len);
        Ok(())
    }

    fn prepared_data(&mut self, uid: Uid, value: Value, aid: ActionId) -> RsResult<()> {
        let len = self.append(EntryRef::PreparedData {
            uid,
            value: &value,
            aid,
            prev: None,
        })?;
        self.obs.entry_written("prepared_data", len);
        Ok(())
    }
}

/// In-progress simple-log compaction state (between `begin_housekeeping` and
/// `finish_housekeeping`).
#[derive(Debug)]
struct SimpleHk<S: PageStore> {
    new_log: StableLog<S>,
    /// Forced-entry count of the old log at begin: entries with `seq >=
    /// marker` were written after stage one digested the log and are copied
    /// verbatim by stage two.
    marker: u64,
    /// Stable entries on the old log when the pass started (metrics).
    old_entries_at_begin: u64,
}

/// The recovery system over a simple log: writing per §3.3, recovery per
/// §3.4.4 (read *every* entry backwards). Fast writing, slow recovery; no
/// early prepare. Housekeeping is log compaction in the simple-log idiom:
/// the digest is re-expressed with the flat entry forms recovery already
/// understands (`base_committed`, `prepared_data`, plain data entries), so
/// the compacted log is still an ordinary simple log.
#[derive(Debug)]
pub struct SimpleLogRs<P: StoreProvider> {
    provider: P,
    log: StableLog<P::Store>,
    /// The accessibility set (AS, §3.3.3.2).
    access: HashSet<Uid>,
    /// The prepared-actions table (PAT, §3.3.3.2).
    pat: HashSet<ActionId>,
    /// In-progress housekeeping state.
    hk: Option<SimpleHk<P::Store>>,
    /// Cached metric handles.
    obs: CoreObs,
}

impl<P: StoreProvider> SimpleLogRs<P> {
    /// Creates a recovery system over a freshly formatted log. The stable
    /// root is accessible by definition.
    pub fn create(mut provider: P) -> RsResult<Self> {
        let log = StableLog::create(provider.new_store())?;
        Ok(Self {
            provider,
            log,
            access: [Uid::STABLE_ROOT].into_iter().collect(),
            pat: HashSet::new(),
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
            hk: None,
            obs: CoreObs::resolve(),
        })
    }

    /// Appends a raw entry — scenario tests use this to fabricate the exact
    /// logs of the thesis's figures.
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

    /// Direct access to the underlying log (experiments).
    pub fn log(&self) -> &StableLog<P::Store> {
        &self.log
    }

    /// The §3.4.4 backward scan: feeds every forced entry (newest first)
    /// through `ctx`, including the deferred committed_ss handling. Shared
    /// between [`RecoverySystem::recover`] and compaction stage one, which is
    /// "like a recovery" (§5.1.1) but digests into a scratch heap.
    fn scan_log(&mut self, ctx: &mut RecoverCtx<'_>) -> RsResult<()> {
        // Deferred committed_ss pairs (only present if someone recovers a
        // compacted hybrid log with the simple algorithm).
        let mut deferred_cssl: Vec<(Uid, LogAddress)> = Vec::new();

        // Step 2: read the log backwards, every entry. Records are decoded
        // as zero-copy views: versions of superseded or wiped-out writes are
        // validated but never materialized.
        let mut walk = self.log.walk_backward(None);
        while let Some(item) = walk.next_entry() {
            let (addr, _seq, payload) = item?;
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
                EntryView::BaseCommitted { uid, value, .. } => {
                    ctx.on_base_committed(uid, value.into())?
                }
                EntryView::PreparedData {
                    uid, value, aid, ..
                } => ctx.on_prepared_data(uid, value.into(), aid)?,
                // A redo-log data entry is a data entry whose backlink the
                // simple scan simply does not need.
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
                    ctx.data_entries_read += 1;
                    ctx.on_data(addr, uid, kind, value.into(), aid)?;
                }
                // Hybrid-log data entries carry no uid/aid; in a pure scan
                // they can only be interpreted through the prepared entries'
                // pairs, which the simple algorithm does not use.
                EntryView::DataH { .. } => {}
                EntryView::CommittedSs { cssl, .. } => deferred_cssl.extend(cssl.iter()),
            }
        }

        // Checkpoint pairs are the oldest committed state; restoring them
        // after the scan preserves newest-first priority.
        let mut scratch = Vec::new();
        for (uid, addr) in deferred_cssl {
            if ctx.ot.get(uid).map(|e| e.state) == Some(ObjState::Restored) {
                continue;
            }
            self.log.read_into(addr, &mut scratch)?;
            ctx.entries_examined += 1;
            ctx.data_entries_read += 1;
            match decode_entry_view(&scratch)? {
                EntryView::DataH { kind, value } => {
                    ctx.restore_committed(uid, kind, value.into(), Some(addr))?;
                }
                other => {
                    return Err(RsError::BadState(format!(
                        "cssl pair points at a {} entry",
                        other.name()
                    )))
                }
            }
        }
        Ok(())
    }
}

impl<P: StoreProvider> RecoverySystem for SimpleLogRs<P> {
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
        // Early prepare is a hybrid-log refinement (§4.4); under the simple
        // log the whole MOS simply waits for the prepare message.
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

    // Staged variants: identical bookkeeping, but the force is deferred to
    // `force_staged` so a group-commit scheduler can share it. Volatile
    // tables are updated at stage time — operations arrive sequentially
    // (§2.3), so a later `process_mos` in the same batch must already see
    // this prepare's PAT entry.

    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool> {
        let _timer = self.obs.prepare_us.start();
        {
            let mut sink = SimpleSink {
                log: &mut self.log,
                obs: &self.obs,
            };
            process_mos(aid, mos, heap, &mut self.access, &self.pat, &mut sink)?;
        }
        self.log.write_with(|enc| {
            encode_entry_into(
                enc,
                &EntryRef::Prepared {
                    aid,
                    pairs: &[],
                    prev: None,
                },
            )
        })?;
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
        self.obs.commits.inc();
        Ok(true)
    }

    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        self.log
            .write_with(|enc| encode_entry_into(enc, &EntryRef::Aborted { aid, prev: None }))?;
        self.obs.outcome("aborted", None);
        self.pat.remove(&aid);
        self.obs.aborts.inc();
        Ok(true)
    }

    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        self.log.write_with(|enc| {
            encode_entry_into(
                enc,
                &EntryRef::Committing {
                    aid,
                    gids,
                    prev: None,
                },
            )
        })?;
        self.obs.outcome("committing", None);
        self.obs.committings.inc();
        Ok(true)
    }

    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        self.log
            .write_with(|enc| encode_entry_into(enc, &EntryRef::Done { aid, prev: None }))?;
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
        let mut ctx = RecoverCtx::new(heap);
        self.scan_log(&mut ctx)?;

        // Step 3: turn uids into pointers; the stable counter was advanced
        // as objects were inserted.
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

        // Step 4: rebuild the accessibility set from the restored state.
        self.access = heap.accessible_uids();
        if heap.stable_root().is_none() {
            // A brand-new guardian that crashed before its first prepare:
            // the root is still accessible by definition.
            self.access.insert(Uid::STABLE_ROOT);
        }
        // The PAT is the set of in-doubt actions.
        self.pat = outcome.pt.prepared_actions().into_iter().collect();
        Ok(outcome)
    }

    fn begin_housekeeping(&mut self, _heap: &Heap, mode: HousekeepingMode) -> RsResult<()> {
        if mode != HousekeepingMode::Compaction {
            return Err(RsError::Unsupported(
                "snapshot housekeeping on the simple log (§5.2 needs the MT)",
            ));
        }
        if self.hk.is_some() {
            return Err(RsError::BadState("housekeeping already in progress".into()));
        }
        let _timer = self.obs.hk_begin_us.start();
        // Flush buffered entries so the marker covers a readable prefix.
        self.log.force()?;
        let marker = self.log.stable_count();

        // Stage one: digest everything below the marker exactly like a
        // recovery, into a scratch heap. resolve_uid_refs is deliberately
        // skipped so the restored values keep their uid-reference encoding
        // and can be re-logged verbatim.
        let mut scratch = Heap::new();
        let mut ctx = RecoverCtx::new(&mut scratch);
        self.scan_log(&mut ctx)?;

        let mut hk = SimpleHk {
            new_log: StableLog::create(self.provider.new_store())?,
            marker,
            old_entries_at_begin: marker,
        };

        // Deterministic emission: tables are hash maps, so sort everything.
        let mut uids: Vec<Uid> = ctx.ot.iter().map(|(u, _)| *u).collect();
        uids.sort();

        // Committed atomic bases, prepared (in-doubt) versions, and mutex
        // values, straight from the scratch heap.
        let mut prepared_versions: Vec<(ActionId, Uid, Value)> = Vec::new();
        let mut mutex_values: Vec<(Uid, Value)> = Vec::new();
        for uid in &uids {
            let entry = ctx.ot.get(*uid).expect("uid came from the OT");
            match &ctx.heap.get(entry.heap)?.body {
                ObjectBody::Atomic(obj) => {
                    if entry.state == ObjState::Restored {
                        let bytes = encode_entry(&LogEntry::BaseCommitted {
                            uid: *uid,
                            value: obj.base.clone(),
                            prev: None,
                        })?;
                        hk.new_log.write(&bytes);
                    }
                    if let (Some(writer), Some(cur)) = (obj.writer, &obj.current) {
                        prepared_versions.push((writer, *uid, cur.clone()));
                    }
                }
                ObjectBody::Mutex(obj) => mutex_values.push((*uid, obj.value.clone())),
            }
        }

        // Mutex values compact as *committed* state regardless of their
        // writers' outcomes (§2.4.2: a mutex keeps its newest value). They
        // are re-logged as the data entries of a synthetic committed action
        // — "like a combined prepare and commit for some special action
        // whose name does not matter" (§5.1.1) — so the compacted log stays
        // an ordinary simple log.
        if !mutex_values.is_empty() {
            let hk_aid = ActionId::new(GuardianId(u32::MAX), marker);
            let bytes = encode_entry(&LogEntry::Prepared {
                aid: hk_aid,
                pairs: Vec::new(),
                prev: None,
            })?;
            hk.new_log.write(&bytes);
            for (uid, value) in mutex_values {
                let bytes = encode_entry(&LogEntry::Data {
                    uid,
                    kind: ObjKind::Mutex,
                    value,
                    aid: hk_aid,
                })?;
                hk.new_log.write(&bytes);
            }
            let bytes = encode_entry(&LogEntry::Committed {
                aid: hk_aid,
                prev: None,
            })?;
            hk.new_log.write(&bytes);
        }

        // In-doubt actions survive compaction: their prepared versions as
        // `prepared_data`, plus a bare `prepared` entry so a participant
        // whose writes were all mutexes still remembers it prepared.
        prepared_versions.sort_by_key(|v| (v.0, v.1));
        for (aid, uid, value) in prepared_versions {
            if ctx.pt.get(aid) != Some(crate::tables::PState::Prepared) {
                continue;
            }
            let bytes = encode_entry(&LogEntry::PreparedData {
                uid,
                value,
                aid,
                prev: None,
            })?;
            hk.new_log.write(&bytes);
        }
        for aid in ctx.pt.prepared_actions() {
            let bytes = encode_entry(&LogEntry::Prepared {
                aid,
                pairs: Vec::new(),
                prev: None,
            })?;
            hk.new_log.write(&bytes);
        }

        // Coordinators still in phase two.
        for (aid, gids) in ctx.ct.committing_actions() {
            let bytes = encode_entry(&LogEntry::Committing {
                aid,
                gids,
                prev: None,
            })?;
            hk.new_log.write(&bytes);
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

        // Stage two: copy everything written since the marker, verbatim —
        // simple-log entries are self-describing, so recovery interprets the
        // copies exactly as it did the originals.
        let mut tail = Vec::new();
        for item in self.log.read_backward(None) {
            let (_addr, seq, payload) = item?;
            if seq < hk.marker {
                break;
            }
            tail.push(payload);
        }
        for payload in tail.into_iter().rev() {
            hk.new_log.write(&payload);
        }
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

        // "In one atomic step, the new log supplants the old log."
        self.log = hk.new_log;
        self.provider.store_switched();
        Ok(())
    }

    fn simulate_crash(&mut self) -> RsResult<()> {
        self.log.reopen()?;
        self.access.clear();
        self.pat.clear();
        // An in-progress housekeeping pass dies with the node: the old log
        // is still the active one (the switch is the last step of finish).
        self.hk = None;
        Ok(())
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

    fn rs() -> SimpleLogRs<MemProvider> {
        SimpleLogRs::create(MemProvider::fast()).unwrap()
    }

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    fn commit_root_update(
        rs: &mut SimpleLogRs<MemProvider>,
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

        // Crash: volatile state gone.
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.pt.get(a), Some(crate::tables::PState::Committed));
        let h = heap2.lookup(obj_uid).unwrap();
        assert_eq!(heap2.read_value(h, None).unwrap(), &Value::Int(41));
        // Root restored with the reference resolved back to a pointer.
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(
            heap2.read_value(root2, None).unwrap(),
            &Value::Seq(vec![Value::heap_ref(h)])
        );
        // AS rebuilt.
        assert!(rs.access_set().contains(&obj_uid));
    }

    #[test]
    fn unforced_prepare_is_invisible_after_crash() {
        let mut rs = rs();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::Int(1)).unwrap();
        // Write data entries but never force (no prepare record): simulate
        // by appending a raw unforced data entry.
        rs.append_raw(
            &LogEntry::Data {
                uid: Uid::STABLE_ROOT,
                kind: ObjKind::Atomic,
                value: Value::Int(1),
                aid: a,
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
        assert_eq!(out.pt.get(b), Some(crate::tables::PState::Prepared));
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
        // Crash before the switch: the old (uncompacted) log is intact.
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        rs.recover(&mut heap2).unwrap();
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, None).unwrap(), &Value::Int(3));
        // Housekeeping state was discarded with the crash.
        assert!(matches!(
            rs.finish_housekeeping(),
            Err(RsError::BadState(_))
        ));
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
}
