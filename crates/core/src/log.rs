//! The log-organization skeleton: one [`RecoverySystem`] over a
//! [`StableLog`], parameterised by a [`LogFormat`].
//!
//! A log organization is a record format plus the ordering constraints it
//! needs. Everything else — provider, log, accessibility set, prepared-
//! actions table, the staged write path, the recovery epilogue, the
//! housekeeping prologue and switch, crash simulation and the plumbing
//! tests and experiments use — is the log's job and lives here once. The
//! format supplies only what the thesis says differs between organizations:
//! which records a prepare writes (§3.3 vs §4.2), how recovery walks the log
//! (§3.4.4 scan vs §4.3 chain), and how housekeeping rebuilds it (ch. 5).

use crate::api::{HousekeepingMode, LogStats, RecoveryMode, RecoverySystem, StoreProvider};
use crate::entry::{
    decode_entry, encode_entry_into, Entry, EntryOut, EntryRef, HeapValue, LogEntry, WireField,
};
use crate::restore::RecoverCtx;
use crate::tables::RecoveryOutcome;
use crate::writer::{process_mos, EntrySink, MosScratch};
use crate::{RsError, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, ObjKind, Uid};
use argus_obs::{Count, Hist, Registry};
use argus_sim::{IntSet, SimClock};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;

/// Encodes `entry`, in whichever form it is held, straight into `log`'s
/// pending buffer and returns the address it will have once forced.
pub(crate) fn append_entry<S: PageStore, V: WireField, P: WireField, G: WireField>(
    log: &mut StableLog<S>,
    entry: &Entry<V, P, G>,
) -> RsResult<LogAddress> {
    log.write_with(|enc| encode_entry_into(enc, entry))
}

/// The active log, the registry every record write reports to (the one
/// current when the system was built), and that registry's clock then,
/// which the `core.*_us` phase timings read.
#[derive(Debug, Clone)]
pub struct LogIo<S: PageStore> {
    pub(crate) log: StableLog<S>,
    pub(crate) obs: Registry,
    clock: SimClock,
}

impl<S: PageStore> LogIo<S> {
    /// Encodes `entry` straight into the log's pending buffer (no
    /// per-record allocation), returning its address and payload length.
    fn append<V: WireField>(&mut self, entry: &EntryOut<'_, V>) -> RsResult<(LogAddress, u64)> {
        let mut len = 0;
        let addr = self.log.write_with(|enc| {
            let start = enc.len();
            encode_entry_into(enc, entry)?;
            len = (enc.len() - start) as u64;
            Ok::<_, RsError>(())
        })?;
        Ok((addr, len))
    }

    /// Appends a data entry.
    pub(crate) fn append_data<V: WireField>(
        &mut self,
        entry: &EntryOut<'_, V>,
    ) -> RsResult<LogAddress> {
        let (addr, len) = self.append(entry)?;
        self.obs.inc(Count::CoreEntriesData);
        self.obs.add(Count::CoreEntriesDataBytes, len);
        Ok(addr)
    }

    /// Appends a special entry (`base_committed`, `prepared_data`,
    /// `committed_ss`) that joins no outcome chain.
    pub(crate) fn append_special<V: WireField>(
        &mut self,
        entry: &EntryOut<'_, V>,
    ) -> RsResult<LogAddress> {
        self.append(entry).map(|(addr, _)| addr)
    }
}

/// What differs between log organizations. `LogRs` calls these hooks and
/// nothing else of a format; a format never forces the log (the caller of
/// `stage_*` owns the force) and never touches the AS or PAT except where a
/// hook hands them over.
pub trait LogFormat: Default + std::fmt::Debug {
    /// What an open housekeeping pass keeps besides the new log.
    type Pass: std::fmt::Debug;

    /// Why snapshot housekeeping (§5.2) is unsupported, if it is.
    const NO_SNAPSHOT: Option<&'static str>;

    /// Whether `write_entry` writes data entries ahead of the prepare
    /// message (§4.4) instead of returning the MOS untouched.
    const EARLY_PREPARE: bool = false;

    // ---- writing -----------------------------------------------------------

    /// Emits the data entry for an accessible object's version.
    fn data<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        uid: Uid,
        kind: ObjKind,
        value: V,
        aid: ActionId,
    ) -> RsResult<()>;

    /// Emits a special entry of `writer`'s prepare: the `base_committed` of
    /// an object newly accessible to it, or the `prepared_data` version an
    /// already-prepared action holds the write lock on.
    fn special<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        writer: ActionId,
        entry: EntryOut<'_, V>,
    ) -> RsResult<()>;

    /// The map fragment `aid`'s `prepared` entry carries.
    fn pairs(&self, _aid: ActionId) -> Vec<(Uid, LogAddress)> {
        Vec::new()
    }

    /// The outcome-chain head, for formats that chain outcome entries: an
    /// appended outcome entry points back at it and then becomes it.
    fn chain_head(&mut self) -> Option<&mut Option<LogAddress>> {
        None
    }

    /// Applies an outcome entry just appended at `addr` to the format's
    /// tables.
    fn note_outcome<S: PageStore, V>(
        &mut self,
        _io: &mut LogIo<S>,
        _entry: &EntryOut<'_, V>,
        _addr: LogAddress,
    ) -> RsResult<()> {
        Ok(())
    }

    /// Drops the bookkeeping of an action that aborted before two-phase
    /// commit.
    fn discard(&mut self, _aid: ActionId) {}

    /// A node crash: volatile tables vanish, configuration survives.
    fn reset(&mut self) {
        *self = Self::default();
    }

    // ---- recovery ----------------------------------------------------------

    /// Walks the log, feeding `ctx`.
    fn walk<S: PageStore>(&mut self, io: &mut LogIo<S>, ctx: &mut RecoverCtx<'_>) -> RsResult<()>;

    /// Reinstalls the format's tables from a finished recovery pass.
    fn install(&mut self, _outcome: &RecoveryOutcome) {}

    /// Adds the uids that stay accessible without being resident in the
    /// heap.
    fn pin_access(&self, _access: &mut IntSet<Uid>) {}

    /// See [`RecoverySystem::set_recovery_mode`].
    fn set_recovery_mode(&mut self, mode: RecoveryMode) -> bool {
        mode == RecoveryMode::Full
    }

    /// See [`RecoverySystem::demand_restore`].
    fn demand_restore<S: PageStore>(
        &mut self,
        _io: &mut LogIo<S>,
        _uid: Uid,
        _heap: &mut Heap,
    ) -> RsResult<bool> {
        Ok(false)
    }

    /// See [`RecoverySystem::lazy_pending`].
    fn lazy_pending(&self) -> u64 {
        0
    }

    // ---- housekeeping ------------------------------------------------------

    /// Stage one: digests everything forced so far (`marker` entries) onto
    /// a new log created over `store`.
    fn stage_one<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        store: S,
        marker: u64,
        heap: &Heap,
        mode: HousekeepingMode,
        pat: &IntSet<ActionId>,
    ) -> RsResult<(StableLog<S>, Self::Pass)>;

    /// Stage two: carries what was written since stage one onto the new
    /// log. The caller forces the new log afterwards.
    fn stage_two<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        pass: &mut OpenPass<S, Self::Pass>,
    ) -> RsResult<()>;

    /// The new log has supplanted the old one: installs what the pass built.
    fn switched(&mut self, _: Self::Pass, _: HousekeepingMode, _access: &mut IntSet<Uid>) {}
}

/// A housekeeping pass between `begin_housekeeping` and
/// `finish_housekeeping`.
#[derive(Debug, Clone)]
pub struct OpenPass<S: PageStore, T> {
    pub(crate) new_log: StableLog<S>,
    mode: HousekeepingMode,
    /// Forced-entry count of the old log at begin. Entries with `seq >=
    /// marker` were written after stage one digested the log.
    pub(crate) marker: u64,
    pub(crate) state: T,
}

/// Appends an outcome entry: chained to the format's chain head if it keeps
/// one, then applied to the format's tables.
pub(crate) fn append_outcome<S: PageStore, F: LogFormat, V: WireField>(
    fmt: &mut F,
    io: &mut LogIo<S>,
    mut entry: EntryOut<'_, V>,
) -> RsResult<()> {
    let prev = fmt.chain_head().and_then(|head| *head);
    entry.set_prev(prev);
    let (addr, _len) = io.append(&entry)?;
    // Chain invariant I2: prev pointers strictly decrease, so the recovery
    // walk always terminates.
    debug_assert!(
        prev.is_none_or(|p| p < addr),
        "outcome chain must strictly decrease: prev {prev:?} vs new {addr}"
    );
    if let Some(head) = fmt.chain_head() {
        *head = Some(addr);
    }
    fmt.note_outcome(io, &entry, addr)
}

/// Routes the writing algorithm's entries to the format's record emitters.
struct FormatSink<'a, S: PageStore, F> {
    fmt: &'a mut F,
    io: &'a mut LogIo<S>,
    writer: ActionId,
}

impl<S: PageStore, F: LogFormat> EntrySink for FormatSink<'_, S, F> {
    fn data(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: HeapValue<'_>,
        aid: ActionId,
    ) -> RsResult<()> {
        self.fmt.data(self.io, uid, kind, value, aid)
    }

    fn base_committed(&mut self, uid: Uid, value: HeapValue<'_>) -> RsResult<()> {
        let entry = Entry::BaseCommitted {
            uid,
            value,
            prev: None,
        };
        self.fmt.special(self.io, self.writer, entry)
    }

    fn prepared_data(&mut self, uid: Uid, value: HeapValue<'_>, aid: ActionId) -> RsResult<()> {
        let entry = Entry::PreparedData {
            uid,
            value,
            aid,
            prev: None,
        };
        self.fmt.special(self.io, self.writer, entry)
    }
}

/// The recovery system over a stable log in format `F`.
///
/// Owns the active [`StableLog`], the accessibility set, the PAT, the
/// format's volatile tables and — while a housekeeping pass is open — the
/// new log under construction. [`crate::SimpleLogRs`],
/// [`crate::HybridLogRs`] and [`crate::RedoRs`] are this type with the
/// format fixed.
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
#[derive(Debug, Clone)]
pub struct LogRs<P: StoreProvider, F: LogFormat> {
    provider: P,
    pub(crate) io: LogIo<P::Store>,
    /// The accessibility set (AS, §3.3.3.2).
    access: IntSet<Uid>,
    /// The prepared-actions table (PAT, §3.3.3.2).
    pat: IntSet<ActionId>,
    pub(crate) fmt: F,
    /// The writing algorithm's working sets, kept for their capacity.
    scratch: MosScratch,
    /// In-progress housekeeping pass.
    hk: Option<OpenPass<P::Store, F::Pass>>,
}

impl<P: StoreProvider, F: LogFormat> LogRs<P, F> {
    /// Creates a recovery system over a freshly formatted log. The stable
    /// root is accessible by definition.
    pub fn create(mut provider: P) -> RsResult<Self> {
        let log = StableLog::create(provider.new_store())?;
        Ok(Self::over(
            provider,
            log,
            IntSet::from_iter([Uid::STABLE_ROOT]),
        ))
    }

    /// Opens a recovery system over an existing log (post-crash). Call
    /// [`RecoverySystem::recover`] before anything else.
    pub fn open(provider: P, store: P::Store) -> RsResult<Self> {
        let log = StableLog::open(store)?;
        Ok(Self::over(provider, log, IntSet::default()))
    }

    fn over(provider: P, log: StableLog<P::Store>, access: IntSet<Uid>) -> Self {
        let reg = argus_obs::current();
        Self {
            provider,
            io: LogIo {
                log,
                clock: reg.clock(),
                obs: reg,
            },
            access,
            pat: IntSet::default(),
            fmt: F::default(),
            scratch: MosScratch::default(),
            hk: None,
        }
    }

    /// Appends a raw entry, optionally forcing — scenario tests use this to
    /// fabricate the exact logs of the thesis's figures. The entry is *not*
    /// auto-chained; the caller controls `prev` fields completely.
    pub fn append_raw(&mut self, entry: &LogEntry, force: bool) -> RsResult<LogAddress> {
        let addr = append_entry(&mut self.io.log, &entry.as_entry_ref())?;
        if force {
            self.io.log.force()?;
        }
        if entry.is_outcome() {
            if let Some(head) = self.fmt.chain_head() {
                *head = Some(addr);
            }
        }
        Ok(addr)
    }

    /// The accessibility set (read-only, for tests and experiments).
    pub fn access_set(&self) -> &IntSet<Uid> {
        &self.access
    }

    /// Decodes every forced entry, oldest first — scenario tests use this to
    /// check the exact log contents against the thesis's figures.
    pub fn dump_entries(&mut self) -> RsResult<Vec<(LogAddress, LogEntry)>> {
        let mut entries = Vec::new();
        for item in self.io.log.read_backward(None) {
            let (addr, _seq, payload) = item?;
            entries.push((addr, decode_entry(&payload)?));
        }
        entries.reverse();
        Ok(entries)
    }

    /// Direct access to the underlying log (experiments).
    pub fn log(&self) -> &StableLog<P::Store> {
        &self.io.log
    }

    /// Runs the writing algorithm (§3.3.3.3) over `mos` with the format's
    /// record emitters, returning MOS′.
    fn write_mos(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<Vec<HeapId>> {
        let mut sink = FormatSink {
            fmt: &mut self.fmt,
            io: &mut self.io,
            writer: aid,
        };
        let (access, scratch) = (&mut self.access, &mut self.scratch);
        process_mos(aid, mos, heap, access, &self.pat, scratch, &mut sink)
    }

    fn outcome(&mut self, entry: EntryRef<'_>) -> RsResult<()> {
        append_outcome(&mut self.fmt, &mut self.io, entry)
    }
}

// Every operation stages: the entry is buffered with its final address and
// all volatile bookkeeping happens now, but the device force waits for
// `force_staged`, so a group-commit scheduler can share it. Volatile tables
// are updated at stage time — operations arrive sequentially (§2.3), so a
// later `process_mos` in the same batch must already see this prepare's PAT
// entry. One force publishes every staged entry atomically, so an outcome
// chain can never be durable with a hole in it.
impl<P: StoreProvider, F: LogFormat> RecoverySystem for LogRs<P, F> {
    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool> {
        let t0 = self.io.clock.now();
        let written = self.write_mos(aid, mos, heap).and_then(|_| {
            let pairs = self.fmt.pairs(aid);
            self.outcome(EntryRef::Prepared {
                aid,
                pairs: &pairs,
                prev: None,
            })
        });
        self.io
            .obs
            .record_since(Hist::CorePrepareUs, &self.io.clock, t0);
        written?;
        self.pat.insert(aid);
        self.io.obs.inc(Count::CorePrepares);
        Ok(true)
    }

    fn write_entry(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<Vec<HeapId>> {
        if !F::EARLY_PREPARE {
            // The whole MOS simply waits for the prepare message.
            return Ok(mos.to_vec());
        }
        let leftover = self.write_mos(aid, mos, heap)?;
        // This is "free time in the guardian" (§4.4): push the buffered
        // entries to the device now so the eventual prepare only has to
        // force the prepared outcome entry.
        self.io.log.flush()?;
        self.io.obs.inc(Count::CoreEarlyPrepares);
        Ok(leftover)
    }

    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool> {
        self.outcome(EntryRef::Committed { aid, prev: None })?;
        self.pat.remove(&aid);
        self.io.obs.inc(Count::CoreCommits);
        Ok(true)
    }

    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        self.outcome(EntryRef::Aborted { aid, prev: None })?;
        self.pat.remove(&aid);
        self.io.obs.inc(Count::CoreAborts);
        Ok(true)
    }

    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        self.outcome(EntryRef::Committing {
            aid,
            gids,
            prev: None,
        })?;
        self.io.obs.inc(Count::CoreCommittings);
        Ok(true)
    }

    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        self.outcome(EntryRef::Done { aid, prev: None })?;
        self.io.obs.inc(Count::CoreDones);
        Ok(true)
    }

    fn force_staged(&mut self) -> RsResult<()> {
        self.io.log.force()?;
        Ok(())
    }

    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome> {
        let timer = self.io.obs.phase(Hist::CoreRecoverUs, &self.io.clock);
        let mut ctx = RecoverCtx::new(heap);
        self.fmt.walk(&mut self.io, &mut ctx)?;

        // Turn uids into pointers; the stable counter was advanced as
        // objects were inserted.
        ctx.heap.resolve_uid_refs();
        let outcome = ctx.into_outcome();
        let obs = &self.io.obs;
        obs.inc(Count::CoreRecoveries);
        obs.add(Count::CoreRecoverEntriesExamined, outcome.entries_examined);
        obs.add(Count::CoreRecoverDataEntriesRead, outcome.data_entries_read);
        obs.add(Count::CoreRecoverChainHops, outcome.chain_hops);
        timer.stop();

        // Rebuild the accessibility set from the restored state. A
        // brand-new guardian that crashed before its first prepare has no
        // root yet: it is still accessible by definition.
        self.access = heap.accessible_uids();
        self.fmt.pin_access(&mut self.access);
        self.access.insert(Uid::STABLE_ROOT);
        // The PAT is the set of in-doubt actions.
        self.pat = outcome.pt.prepared_actions().into_iter().collect();
        self.fmt.install(&outcome);
        Ok(outcome)
    }

    fn set_recovery_mode(&mut self, mode: RecoveryMode) -> bool {
        self.fmt.set_recovery_mode(mode)
    }

    fn demand_restore(&mut self, uid: Uid, heap: &mut Heap) -> RsResult<bool> {
        self.fmt.demand_restore(&mut self.io, uid, heap)
    }

    fn lazy_pending(&self) -> u64 {
        self.fmt.lazy_pending()
    }

    fn begin_housekeeping(&mut self, heap: &Heap, mode: HousekeepingMode) -> RsResult<()> {
        if let (HousekeepingMode::Snapshot, Some(why)) = (mode, F::NO_SNAPSHOT) {
            return Err(RsError::Unsupported(why));
        }
        if self.hk.is_some() {
            return Err(RsError::BadState("housekeeping already in progress".into()));
        }
        let _timer = self.io.obs.phase(Hist::CoreHkBeginUs, &self.io.clock);
        // Flush buffered entries so the marker covers a readable prefix.
        self.io.log.force()?;
        let marker = self.io.log.stable_count();
        let store = self.provider.new_store();
        let (new_log, state) =
            self.fmt
                .stage_one(&mut self.io, store, marker, heap, mode, &self.pat)?;
        self.hk = Some(OpenPass {
            new_log,
            mode,
            marker,
            state,
        });
        Ok(())
    }

    fn finish_housekeeping(&mut self) -> RsResult<()> {
        let _timer = self.io.obs.phase(Hist::CoreHkFinishUs, &self.io.clock);
        let mut pass = self
            .hk
            .take()
            .ok_or_else(|| RsError::BadState("no housekeeping in progress".into()))?;

        // Publish post-marker buffered entries so stage two can read them.
        self.io.log.force()?;
        self.fmt.stage_two(&mut self.io, &mut pass)?;
        pass.new_log.force()?;

        let new_entries = pass.new_log.stable_count();
        let reclaimed = self.io.log.stable_count().saturating_sub(new_entries);
        self.io.obs.inc(Count::CoreHkPasses);
        self.io.obs.add(Count::CoreHkEntriesReclaimed, reclaimed);

        // "In one atomic step, the new log supplants the old log."
        self.io.log = pass.new_log;
        self.provider.store_switched();
        self.fmt.switched(pass.state, pass.mode, &mut self.access);
        Ok(())
    }

    fn simulate_crash(&mut self) -> RsResult<()> {
        self.io.log.reopen()?;
        self.access.clear();
        self.pat.clear();
        self.fmt.reset();
        // An in-progress housekeeping pass dies with the node: the old log
        // is still the active one (the switch is the last step of finish).
        self.hk = None;
        Ok(())
    }

    fn discard(&mut self, aid: ActionId) {
        self.fmt.discard(aid);
    }

    fn trim_access_set(&mut self, heap: &Heap) {
        let reachable = heap.accessible_uids();
        self.access = self.access.intersection(&reachable).copied().collect();
        self.fmt.pin_access(&mut self.access);
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
            entries: self.io.log.stable_count(),
            bytes: self.io.log.stable_bytes(),
            device: self.io.log.store().stats().snapshot(),
        }
    }

    fn decay_page(&mut self, pno: argus_stable::PageNo) -> bool {
        self.io.log.store_mut().decay_page(pno)
    }
}

/// The behaviour every format owes the skeleton, written once and run per
/// format. Format-specific behaviour (backlinks, the chain walk, the MT,
/// early prepare, on-demand recovery) is tested beside each format.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::providers::MemProvider;
    use crate::tables::PState;
    use argus_objects::Value;

    type Rs<F> = LogRs<MemProvider, F>;

    fn rs<F: LogFormat>() -> Rs<F> {
        LogRs::create(MemProvider::fast()).unwrap()
    }

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    fn commit_root_update<F: LogFormat>(
        rs: &mut Rs<F>,
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

    /// Commits `n` root updates `0..n` as actions `1..=n`.
    fn history<F: LogFormat>(rs: &mut Rs<F>, n: u64) -> Heap {
        let mut heap = Heap::with_stable_root();
        for i in 0..n {
            commit_root_update(rs, &mut heap, aid(i + 1), Value::Int(i as i64));
        }
        heap
    }

    /// Crashes, recovers into a fresh heap, and returns it with the root's
    /// committed value.
    fn recovered<F: LogFormat>(rs: &mut Rs<F>) -> (Heap, RecoveryOutcome, Value) {
        rs.simulate_crash().unwrap();
        let mut heap = Heap::new();
        let out = rs.recover(&mut heap).unwrap();
        let root = heap.stable_root().unwrap();
        let value = heap.read_value(root, None).unwrap().clone();
        (heap, out, value)
    }

    /// Write-locks the root for `a`, sets it to `value`, and prepares.
    fn prepare_root<F: LogFormat>(rs: &mut Rs<F>, heap: &mut Heap, a: ActionId, value: Value) {
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = value).unwrap();
        rs.prepare(a, &[root], heap).unwrap();
    }

    /// Commits a mutex holding 1 under the root, then prepares and aborts an
    /// action that set it to 42. Returns the mutex's uid.
    fn aborted_mutex_write<F: LogFormat>(rs: &mut Rs<F>, heap: &mut Heap) -> Uid {
        let m = heap.alloc_mutex(Value::Int(1));
        let m_uid = heap.uid_of(m).unwrap();
        commit_root_update(rs, heap, aid(1), Value::heap_ref(m));
        let b = aid(2);
        heap.seize(m, b).unwrap();
        heap.mutate_mutex(m, b, |v| *v = Value::Int(42)).unwrap();
        heap.release(m, b).unwrap();
        rs.prepare(b, &[m], heap).unwrap();
        rs.abort(b).unwrap();
        heap.abort_action(b);
        m_uid
    }

    fn prepare_then_recover_restores_objects<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        let obj = heap.alloc_atomic(Value::Int(41), Some(a));
        let obj_uid = heap.uid_of(obj).unwrap();
        commit_root_update(
            &mut rs,
            &mut heap,
            a,
            Value::Seq(vec![Value::heap_ref(obj)]),
        );

        // Crash: volatile state gone.
        let (heap2, out, root_value) = recovered(&mut rs);
        assert_eq!(out.pt.get(a), Some(PState::Committed));
        let h = heap2.lookup(obj_uid).unwrap();
        assert_eq!(heap2.read_value(h, None).unwrap(), &Value::Int(41));
        // Root restored with the reference resolved back to a pointer.
        assert_eq!(root_value, Value::Seq(vec![Value::heap_ref(h)]));
        // AS rebuilt.
        assert!(rs.access_set().contains(&obj_uid));
    }

    fn unforced_prepare_is_invisible_after_crash<F: LogFormat>() {
        let mut rs = rs::<F>();
        // Data entries written but never forced (no prepare record).
        let data = LogEntry::Data {
            uid: Uid::STABLE_ROOT,
            kind: ObjKind::Atomic,
            value: Value::Int(1),
            aid: aid(1),
        };
        rs.append_raw(&data, false).unwrap();
        rs.simulate_crash().unwrap();
        let mut heap2 = Heap::new();
        let out = rs.recover(&mut heap2).unwrap();
        assert_eq!(out.entries_examined, 0);
        assert!(heap2.is_empty());
    }

    fn prepared_in_doubt_action_is_restored_with_lock<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = history(&mut rs, 2);
        // A further action modifies the root and prepares, then the node
        // crashes before the verdict.
        let b = aid(3);
        prepare_root(&mut rs, &mut heap, b, Value::Int(2));

        let (heap2, out, base) = recovered(&mut rs);
        assert_eq!(out.pt.get(b), Some(PState::Prepared));
        assert!(rs.is_prepared(b));
        // Base = committed value; current = prepared value under b's lock.
        assert_eq!(base, Value::Int(1));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, Some(b)).unwrap(), &Value::Int(2));
    }

    fn aborted_actions_leave_no_atomic_trace<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = history(&mut rs, 2);
        let b = aid(3);
        prepare_root(&mut rs, &mut heap, b, Value::Int(99));
        rs.abort(b).unwrap();
        heap.abort_action(b);

        let (_, out, value) = recovered(&mut rs);
        assert_eq!(out.pt.get(b), Some(PState::Aborted));
        assert_eq!(value, Value::Int(1));
    }

    fn mutex_of_prepared_then_aborted_action_is_restored<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = Heap::with_stable_root();
        let m_uid = aborted_mutex_write(&mut rs, &mut heap);
        let (heap2, ..) = recovered(&mut rs);
        let m2 = heap2.lookup(m_uid).unwrap();
        // The new mutex state survives even though b aborted (§2.4.2).
        assert_eq!(heap2.read_value(m2, None).unwrap(), &Value::Int(42));
    }

    fn prepared_action_is_in_pat_until_resolution<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = Heap::with_stable_root();
        let a = aid(1);
        prepare_root(&mut rs, &mut heap, a, Value::Int(7));
        assert!(rs.is_prepared(a));
        rs.commit(a).unwrap();
        assert!(!rs.is_prepared(a));
    }

    fn snapshot_housekeeping_is_refused_where_unsupported<F: LogFormat>() {
        let mut rs = rs::<F>();
        let heap = history(&mut rs, 50);
        let before = rs.log().stable_count();
        let snapshot = rs.housekeeping(&heap, HousekeepingMode::Snapshot);
        if F::NO_SNAPSHOT.is_some() {
            assert!(matches!(snapshot, Err(RsError::Unsupported(_))));
            return;
        }
        snapshot.unwrap();
        assert!(rs.log().stable_count() < before / 5);
        assert_eq!(recovered(&mut rs).2, Value::Int(49));
    }

    fn compaction_shrinks_the_log_and_preserves_state<F: LogFormat>() {
        let mut rs = rs::<F>();
        let heap = history(&mut rs, 50);
        let before = rs.log().stable_count();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let after = rs.log().stable_count();
        assert!(after < before / 5, "before={before} after={after}");
        assert_eq!(recovered(&mut rs).2, Value::Int(49));
    }

    fn in_doubt_actions_survive_compaction<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = history(&mut rs, 3);
        let b = aid(100);
        prepare_root(&mut rs, &mut heap, b, Value::Int(777));

        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let (heap2, out, base) = recovered(&mut rs);
        assert_eq!(out.pt.get(b), Some(PState::Prepared));
        assert_eq!(base, Value::Int(2));
        let root2 = heap2.stable_root().unwrap();
        assert_eq!(heap2.read_value(root2, Some(b)).unwrap(), &Value::Int(777));
    }

    fn activity_between_stages_reaches_the_new_log<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = history(&mut rs, 5);
        rs.begin_housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        // Guardian keeps working while "the compaction process" runs.
        commit_root_update(&mut rs, &mut heap, aid(200), Value::Int(1234));
        rs.finish_housekeeping().unwrap();
        assert_eq!(recovered(&mut rs).2, Value::Int(1234));
    }

    fn mutex_state_survives_compaction<F: LogFormat>() {
        let mut rs = rs::<F>();
        let mut heap = Heap::with_stable_root();
        // A prepared-then-aborted action's mutex version must survive
        // compaction as committed state (§2.4.2).
        let m_uid = aborted_mutex_write(&mut rs, &mut heap);
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        let (heap2, ..) = recovered(&mut rs);
        let m2 = heap2.lookup(m_uid).unwrap();
        assert_eq!(heap2.read_value(m2, None).unwrap(), &Value::Int(42));
    }

    fn repeated_compaction_recompacts_its_own_digest<F: LogFormat>() {
        let mut rs = rs::<F>();
        let heap = history(&mut rs, 10);
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        rs.housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        assert_eq!(recovered(&mut rs).2, Value::Int(9));
    }

    fn crash_before_finish_keeps_the_old_log<F: LogFormat>() {
        let mut rs = rs::<F>();
        let heap = history(&mut rs, 4);
        rs.begin_housekeeping(&heap, HousekeepingMode::Compaction)
            .unwrap();
        // Crash before the switch: the old (uncompacted) log is intact.
        assert_eq!(recovered(&mut rs).2, Value::Int(3));
        // Housekeeping state was discarded with the crash.
        assert!(matches!(
            rs.finish_housekeeping(),
            Err(RsError::BadState(_))
        ));
    }

    fn double_begin_is_rejected<F: LogFormat>() {
        let mut rs = rs::<F>();
        let heap = history(&mut rs, 1);
        let mode = match F::NO_SNAPSHOT {
            Some(_) => HousekeepingMode::Compaction,
            None => HousekeepingMode::Snapshot,
        };
        rs.begin_housekeeping(&heap, mode).unwrap();
        assert!(matches!(
            rs.begin_housekeeping(&heap, mode),
            Err(RsError::BadState(_))
        ));
        rs.finish_housekeeping().unwrap();
        assert!(matches!(
            rs.finish_housekeeping(),
            Err(RsError::BadState(_))
        ));
    }

    /// An action in doubt across one pass gets its verdict above that
    /// pass's checkpoint; a compaction then digests the log. The committed
    /// write must survive it (the checkpoint ordering fix, DESIGN.md
    /// deviation 7, applied by the digest too), and an abort must leave the
    /// old value.
    fn a_verdict_landing_above_a_checkpoint_survives_the_next_compaction<F: LogFormat>() {
        let modes: &[HousekeepingMode] = match F::NO_SNAPSHOT {
            Some(_) => &[HousekeepingMode::Compaction],
            None => &[HousekeepingMode::Snapshot, HousekeepingMode::Compaction],
        };
        for &first in modes {
            for commit in [true, false] {
                let mut rs = rs::<F>();
                let mut heap = history(&mut rs, 3);
                let a = aid(100);
                prepare_root(&mut rs, &mut heap, a, Value::Int(777));
                rs.housekeeping(&heap, first).unwrap();
                if commit {
                    rs.commit(a).unwrap();
                    heap.commit_action(a);
                } else {
                    rs.abort(a).unwrap();
                    heap.abort_action(a);
                }
                rs.housekeeping(&heap, HousekeepingMode::Compaction)
                    .unwrap();
                let want = Value::Int(if commit { 777 } else { 2 });
                assert_eq!(recovered(&mut rs).2, want, "{first:?}, committed: {commit}");
            }
        }
    }

    macro_rules! per_format {
        ($($test:ident),* $(,)?) => {
            per_format!(@format simple, crate::simple::SimpleFormat, $($test),*);
            per_format!(@format hybrid, crate::hybrid::HybridFormat, $($test),*);
            per_format!(@format redo, crate::redo::RedoFormat, $($test),*);
        };
        (@format $name:ident, $format:ty, $($test:ident),*) => {
            mod $name {
                $(
                    #[test]
                    fn $test() {
                        super::$test::<$format>();
                    }
                )*
            }
        };
    }

    per_format!(
        prepare_then_recover_restores_objects,
        unforced_prepare_is_invisible_after_crash,
        prepared_in_doubt_action_is_restored_with_lock,
        aborted_actions_leave_no_atomic_trace,
        mutex_of_prepared_then_aborted_action_is_restored,
        prepared_action_is_in_pat_until_resolution,
        snapshot_housekeeping_is_refused_where_unsupported,
        compaction_shrinks_the_log_and_preserves_state,
        in_doubt_actions_survive_compaction,
        activity_between_stages_reaches_the_new_log,
        mutex_state_survives_compaction,
        repeated_compaction_recompacts_its_own_digest,
        crash_before_finish_keeps_the_old_log,
        double_begin_is_rejected,
        a_verdict_landing_above_a_checkpoint_survives_the_next_compaction,
    );
}
