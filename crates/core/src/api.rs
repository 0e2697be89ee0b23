//! The recovery-system interface (§2.3).

use crate::{LogEntry, RecoveryOutcome, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, Uid};
use argus_sim::StatsSnapshot;
use argus_slog::LogAddress;
use argus_stable::PageStore;

/// Which housekeeping technique to run (ch. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HousekeepingMode {
    /// Rebuild the stable state by reading the old log backwards (§5.1).
    Compaction,
    /// Rebuild the stable state by copying volatile memory (§5.2).
    Snapshot,
}

/// How [`RecoverySystem::recover`] rebuilds volatile state after a crash.
///
/// The thesis's organizations all recover with one full scan; the REDO-only
/// fourth organization (Sauer & Härder's design space) also offers parallel
/// replay over per-object chains and on-demand restoration. Organizations
/// that only support the full scan reject the others via
/// [`RecoverySystem::set_recovery_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// One full backward scan restoring everything before returning.
    Full,
    /// Bounded tail scan for the tables, then every object chain replayed
    /// across this many deterministic simulated workers.
    Parallel(u32),
    /// Bounded tail scan only: `recover` returns with the tables and the
    /// in-doubt objects restored; everything else is restored lazily via
    /// [`RecoverySystem::demand_restore`] on first touch.
    OnDemand,
}

/// Aggregate log/device statistics for experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogStats {
    /// Forced entries on the active log.
    pub entries: u64,
    /// Bytes of forced log content.
    pub bytes: u64,
    /// Cumulative device counters of the active log's store.
    pub device: StatsSnapshot,
}

/// The recovery system of one guardian: "the interface between the Argus
/// system and stable storage" (§2.3).
///
/// The operations mirror the thesis's list one-for-one; `write_entry` is the
/// early-prepare addition of §4.4, and housekeeping is split into
/// `begin`/`finish` so tests and experiments can interleave guardian activity
/// with an in-progress housekeeping pass, as the thesis's two-stage
/// algorithms require. Operations are called sequentially (§2.3).
pub trait RecoverySystem {
    // --- The staged write path ------------------------------------------
    //
    // An organization implements each forcing operation once, as `stage_*`:
    // everything the operation does *except* the device force. `Ok(true)`
    // means the entry is buffered (with its final log address assigned, all
    // volatile bookkeeping done) and the caller owns the deferred force: it
    // must call `force_staged` before acting on the operation's durability
    // (replying in two-phase commit). `Ok(false)` means the operation is
    // already durable as it stands — organizations without a shared log
    // (the shadowing baseline) force inside the operation and never batch.
    // The eager operations below are `stage` + `force`, written here once.
    //
    // Because one guardian's operations share a single log and a force
    // makes *every* buffered entry durable atomically (the force's last
    // frame is its commit point, DESIGN.md deviation 11), a batch is
    // all-or-nothing: a crash mid-force hides the whole batch, never a
    // prefix that would violate the log invariants.
    //
    // Which records are forced follows from what each must make durable
    // before the protocol may go on (DESIGN.md deviation 10): `prepared`
    // before the vote, `committing` before the first commit message, a
    // verdict before its acknowledgement. `done` makes nothing durable that
    // anyone waits for, so it is staged and left to ride the next force; and
    // the coordinator's own guardian votes to nobody and acknowledges to
    // nobody, so its `prepared` and `committed` share the one force that
    // guardian needs, the commit point
    // ([`RecoverySystem::stage_commit_point`], DESIGN.md deviation 12).

    /// Stages `prepare`: writes every accessible object in the MOS to the
    /// log, then the `prepared` outcome entry (§3.3.3.3).
    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool>;

    /// Stages `commit`: the `committed` participant outcome entry.
    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool>;

    /// Stages `abort`: the `aborted` participant outcome entry.
    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool>;

    /// Stages `committing`: the coordinator's `committing` entry.
    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool>;

    /// Stages `done`: the coordinator's `done` entry. Nothing waits for it
    /// to be durable — it only licenses forgetting the action, and recovery
    /// re-derives it by restarting phase two from `committing` — so callers
    /// need not force it: it rides the next force, or the housekeeping
    /// prologue.
    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool>;

    /// Stages the whole commit point at the coordinator's own guardian as
    /// one step that one force publishes: the action's data entries and
    /// `prepared`, the `committing` record naming `gids` (every participant,
    /// this guardian included), and this guardian's own `committed`. With no
    /// remote participant `gids` is empty and there is no `committing`
    /// record — a *local* action, whose only durable point is its
    /// `committed` entry after its data and `prepared` entries. Record kinds
    /// and formats are those of [`Self::stage_prepare`],
    /// [`Self::stage_committing`] and [`Self::stage_commit`], so recovery
    /// sees an ordinary prepared-then-committed participant next to an
    /// ordinary `committing` coordinator — and never this guardian in doubt
    /// about an action it coordinates, because its `prepared` is never
    /// durable without the verdict. Organizations that force inside each
    /// operation override this to force once.
    fn stage_commit_point(
        &mut self,
        aid: ActionId,
        mos: &[HeapId],
        heap: &Heap,
        gids: &[GuardianId],
    ) -> RsResult<bool> {
        let mut owed = self.stage_prepare(aid, mos, heap)?;
        if !gids.is_empty() {
            owed |= self.stage_committing(aid, gids)?;
        }
        owed |= self.stage_commit(aid)?;
        Ok(owed)
    }

    /// Forces every staged entry to stable storage — the one shared device
    /// force the staged operations above are waiting on.
    fn force_staged(&mut self) -> RsResult<()>;

    /// `prepare(aid, MOS)`: the forced `prepared` outcome entry seals the
    /// prepare (§3.3.3.3).
    fn prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<()> {
        if self.stage_prepare(aid, mos, heap)? {
            self.force_staged()?;
        }
        Ok(())
    }

    /// `commit(aid)`: forces the `committed` participant outcome entry.
    fn commit(&mut self, aid: ActionId) -> RsResult<()> {
        if self.stage_commit(aid)? {
            self.force_staged()?;
        }
        Ok(())
    }

    /// `abort(aid)`: forces the `aborted` participant outcome entry.
    fn abort(&mut self, aid: ActionId) -> RsResult<()> {
        if self.stage_abort(aid)? {
            self.force_staged()?;
        }
        Ok(())
    }

    /// `committing(aid, gids)`: forces the coordinator's `committing` entry;
    /// the action is committed once this returns (§2.2.1).
    fn committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<()> {
        if self.stage_committing(aid, gids)? {
            self.force_staged()?;
        }
        Ok(())
    }

    /// `done(aid)`: the coordinator's `done` entry, forced — for callers
    /// that want the log's forced content to end here (tests, figures).
    fn done(&mut self, aid: ActionId) -> RsResult<()> {
        if self.stage_done(aid)? {
            self.force_staged()?;
        }
        Ok(())
    }

    /// `write_entry(aid, MOS)`: early prepare (§4.4). Writes the accessible
    /// objects to the log ahead of the prepare message and returns MOS′ —
    /// the objects *not* written because they were inaccessible, which
    /// becomes the caller's new MOS.
    fn write_entry(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<Vec<HeapId>>;

    /// `recovery`: rebuilds the guardian's stable state in `heap` from the
    /// log and returns the OT/PT/CT tables (§3.4, §4.3).
    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome>;

    /// Selects how the *next* `recover` call rebuilds state. Returns `true`
    /// if the organization supports `mode`; the default supports only the
    /// full scan (every thesis organization).
    fn set_recovery_mode(&mut self, mode: RecoveryMode) -> bool {
        mode == RecoveryMode::Full
    }

    /// The heap-miss path of on-demand recovery: if `uid` is awaiting lazy
    /// restoration, walk its log chain, materialize it into `heap`, and
    /// return `true`. Organizations without on-demand recovery have no
    /// pending objects and return `false`.
    fn demand_restore(&mut self, uid: Uid, heap: &mut Heap) -> RsResult<bool> {
        let _ = (uid, heap);
        Ok(false)
    }

    /// Number of objects still awaiting lazy restoration after an on-demand
    /// recovery (0 for full-scan organizations).
    fn lazy_pending(&self) -> u64 {
        0
    }

    /// The modeled restart makespan of the last `recover` call for
    /// organizations that track one (the REDO organization's scan +
    /// slowest-worker figure); `None` for the full-scan organizations,
    /// whose restart time is simply the device time the scan took.
    fn recovery_makespan_us(&self) -> Option<u64> {
        None
    }

    /// Starts housekeeping: sets the housekeeping marker and runs stage one
    /// (ch. 5). Normal operations may continue before `finish_housekeeping`.
    fn begin_housekeeping(&mut self, heap: &Heap, mode: HousekeepingMode) -> RsResult<()>;

    /// Finishes housekeeping: copies post-marker activity to the new log and
    /// atomically switches to it.
    fn finish_housekeeping(&mut self) -> RsResult<()>;

    /// Convenience: `begin_housekeeping` immediately followed by
    /// `finish_housekeeping`.
    fn housekeeping(&mut self, heap: &Heap, mode: HousekeepingMode) -> RsResult<()> {
        self.begin_housekeeping(heap, mode)?;
        self.finish_housekeeping()
    }

    /// Simulates the volatile half of a node crash *inside the recovery
    /// system*: discards buffered log writes, internal tables (AS, PAT, MT),
    /// and any in-progress housekeeping, then reopens the log on the
    /// surviving media ([`argus_slog::StableLog::reopen`]: it finds the
    /// durable top and opens the next epoch — reads, one page write, one
    /// barrier). The caller discards the heap and calls
    /// [`RecoverySystem::recover`] next.
    fn simulate_crash(&mut self) -> RsResult<()>;

    /// Discards an action that aborted *locally*, before entering two-phase
    /// commit: nothing is written to the log (the action "was aborted
    /// locally" and is simply unknown afterwards, §2.2.2), but any
    /// early-prepare bookkeeping for it is dropped so its orphaned data
    /// entries are not carried across housekeeping forever.
    fn discard(&mut self, aid: ActionId) {
        let _ = aid;
    }

    /// Trims the accessibility set (§3.3.3.2): objects that became
    /// unreachable from the stable variables accumulate in the AS over
    /// time; this rebuilds it by traversing the stable state and
    /// *intersecting* with the old set (newly-accessible objects discovered
    /// mid-traversal must stay out, so a plain replacement would be wrong).
    fn trim_access_set(&mut self, heap: &Heap);

    /// Every forced, decoded log entry, oldest first — so external auditors
    /// (the `argus-check` linter) can inspect the log without knowing the
    /// organization. Organizations that keep no log (the shadowing baseline)
    /// return `Ok(None)`.
    fn dump_log(&mut self) -> RsResult<Option<Vec<(LogAddress, LogEntry)>>> {
        Ok(None)
    }

    /// Whether the participant has `aid` in its prepared-actions table.
    fn is_prepared(&self, aid: ActionId) -> bool;

    /// Current log and device statistics.
    fn log_stats(&self) -> LogStats;

    /// Fault-injection hook: spontaneously decays one media copy of page
    /// `pno` on the active store ([`PageStore::decay_page`]), returning
    /// `true` if the media model decay. The crash sweeper composes this with
    /// a crash at the frontier page so recovery has to run its read-path
    /// repair — whose writes are themselves sweepable crash points.
    fn decay_page(&mut self, pno: argus_stable::PageNo) -> bool {
        let _ = pno;
        false
    }
}

/// A source of fresh page stores, used by housekeeping to materialize the
/// new log that will supplant the old one.
pub trait StoreProvider {
    /// The store type produced.
    type Store: PageStore;

    /// Creates a fresh, empty store.
    fn new_store(&mut self) -> Self::Store;

    /// Called after the most recently created store has atomically
    /// supplanted the previous one (housekeeping's final step, ch. 5).
    /// Providers whose stores have out-of-band names persist the active
    /// generation here — e.g. [`providers::FileProvider`] rewrites its
    /// stable [`argus_slog::LogRoot`].
    fn store_switched(&mut self) {}
}

/// Providers for the common store types.
pub mod providers {
    use super::StoreProvider;
    use argus_obs::Count;
    use argus_sim::{CostModel, SimClock};
    use argus_stable::{CacheConfig, FaultPlan, MemStore, MirroredDisk, PageCache};
    use std::path::{Path, PathBuf};
    use std::sync::mpsc::{self, Sender};

    /// Produces in-memory stores sharing one clock/model/fault plan.
    #[derive(Debug, Clone)]
    pub struct MemProvider {
        /// Shared simulated clock.
        pub clock: SimClock,
        /// Device cost profile.
        pub model: CostModel,
        /// Optional shared fault plan (node-crash injection).
        pub plan: Option<FaultPlan>,
    }

    impl MemProvider {
        /// A provider with a fresh clock, the fast cost profile, and no
        /// fault injection — the default for unit tests.
        pub fn fast() -> Self {
            Self {
                clock: SimClock::new(),
                model: CostModel::fast(),
                plan: None,
            }
        }

        /// A provider with the realistic default cost profile.
        pub fn realistic(clock: SimClock) -> Self {
            Self {
                clock,
                model: CostModel::default(),
                plan: None,
            }
        }

        /// Attaches a fault plan to all stores this provider creates.
        pub fn with_plan(mut self, plan: FaultPlan) -> Self {
            self.plan = Some(plan);
            self
        }
    }

    impl StoreProvider for MemProvider {
        type Store = MemStore;

        fn new_store(&mut self) -> MemStore {
            match &self.plan {
                Some(plan) => {
                    MemStore::with_fault_plan(plan.clone(), self.clock.clone(), self.model.clone())
                }
                None => MemStore::new(self.clock.clone(), self.model.clone()),
            }
        }
    }

    /// Produces file-backed stores in a directory, one numbered file per
    /// store — lets the hybrid log (and its housekeeping, which allocates a
    /// fresh store per new log) run on a real filesystem. A stable
    /// [`argus_slog::LogRoot`] in the same directory names the active
    /// generation, so a new process can find the current log after any
    /// number of housekeeping switches. Every other generation is garbage:
    /// the provider's reaper thread unlinks each supplanted file once the
    /// switch is durable, and opening removes what a crash left behind.
    #[derive(Debug)]
    pub struct FileProvider {
        /// Directory the store files live in.
        pub dir: std::path::PathBuf,
        /// Shared simulated clock (still used for cost accounting).
        pub clock: SimClock,
        /// Device cost profile.
        pub model: CostModel,
        counter: u64,
        /// The generation the root names.
        active: u64,
        root: argus_slog::LogRoot<argus_stable::DurableFileStore>,
        /// Where supplanted files go to be unlinked, and the thread that
        /// does it; taken by `Drop`.
        reaper: Option<(Sender<PathBuf>, std::thread::JoinHandle<()>)>,
    }

    impl FileProvider {
        /// Creates a provider over `dir` (created if absent). The root file
        /// is created pointing at generation 0 if it does not exist yet;
        /// every `log-NNNN.argus` but the active one is removed.
        pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
            let dir = dir.into();
            std::fs::create_dir_all(&dir)?;
            let clock = SimClock::new();
            let model = CostModel::fast();
            let root_path = dir.join("root.argus");
            let existed = root_path.exists();
            let store =
                argus_stable::DurableFileStore::open(&root_path, clock.clone(), model.clone())
                    .map_err(std::io::Error::other)?;
            let mut root = if existed {
                argus_slog::LogRoot::open(store).map_err(std::io::Error::other)?
            } else {
                argus_slog::LogRoot::create(store, 0).map_err(std::io::Error::other)?
            };
            let active = root.active().map_err(std::io::Error::other)?;
            // The registry scope is the creating thread's: take it here.
            let reg = argus_obs::current();
            // Any other generation is a supplanted log whose unlink a crash
            // cut off, or the new log of a pass that died before its switch.
            for entry in std::fs::read_dir(&dir)? {
                let name = entry?.file_name();
                let number = name
                    .to_str()
                    .and_then(|name| name.strip_prefix("log-")?.strip_suffix(".argus"))
                    .and_then(|digits| digits.parse::<u64>().ok());
                if number.is_some_and(|n| n != active) {
                    reap(&dir.join(name), &reg);
                }
            }
            let (tx, rx) = mpsc::channel::<PathBuf>();
            let thread = std::thread::Builder::new()
                .name("argus-reaper".into())
                .spawn(move || rx.iter().for_each(|path| reap(&path, &reg)))?;
            Ok(Self {
                dir,
                clock,
                model,
                counter: if existed { active + 1 } else { 0 },
                active,
                root,
                reaper: Some((tx, thread)),
            })
        }

        /// Shares a world's clock and cost model for device accounting.
        pub fn with_device(mut self, clock: SimClock, model: CostModel) -> Self {
            self.clock = clock;
            self.model = model;
            self
        }

        /// The generation the stable root currently points at.
        pub fn active_generation(&mut self) -> std::io::Result<u64> {
            self.root.active().map_err(std::io::Error::other)
        }

        /// The path of the `n`-th store file.
        pub fn store_path(&self, n: u64) -> PathBuf {
            self.dir.join(format!("log-{n:04}.argus"))
        }

        /// Opens the existing store file `n` (for reopening after a real
        /// process restart).
        pub fn open_store(
            &self,
            n: u64,
        ) -> Result<argus_stable::DurableFileStore, argus_stable::StorageError> {
            argus_stable::DurableFileStore::open(
                &self.store_path(n),
                self.clock.clone(),
                self.model.clone(),
            )
        }

        /// Highest store number created so far.
        pub fn stores_created(&self) -> u64 {
            self.counter
        }
    }

    /// Unlinks one garbage store file. A file already gone counts as
    /// removed; one that will not go stays for the next open's sweep.
    fn reap(path: &Path, reg: &argus_obs::Registry) {
        reg.inc(match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Count::CoreHkReapFailures,
            _ => Count::CoreHkFilesReaped,
        });
    }

    impl StoreProvider for FileProvider {
        type Store = argus_stable::DurableFileStore;

        fn new_store(&mut self) -> argus_stable::DurableFileStore {
            let path = self.store_path(self.counter);
            self.counter += 1;
            let _ = std::fs::remove_file(&path);
            argus_stable::DurableFileStore::open(&path, self.clock.clone(), self.model.clone())
                .expect("create store file")
        }

        fn store_switched(&mut self) {
            // "In one atomic step, the new log supplants the old log":
            // the root file is that step on a real filesystem. Once it is
            // durable, every generation below the new one is garbage — the
            // old log, and the new log of any pass a crash cut short — and
            // the reaper unlinks it outside the housekeeping pass.
            let new = self.counter.saturating_sub(1);
            self.root.switch(new).expect("switch log root");
            if let Some((tx, _)) = &self.reaper {
                for n in self.active..new {
                    // A send fails only once the reaper is gone: the next
                    // open sweeps the file instead.
                    let _ = tx.send(self.store_path(n));
                }
            }
            self.active = new;
        }
    }

    impl Drop for FileProvider {
        fn drop(&mut self) {
            // Closing the channel ends the reaper once it has unlinked
            // everything already sent.
            if let Some((tx, thread)) = self.reaper.take() {
                drop(tx);
                let _ = thread.join();
            }
        }
    }

    /// Wraps any provider so every store it produces reads through a
    /// [`PageCache`]. Housekeeping allocates a fresh store for the new log,
    /// so each generation gets its own (cold) cache, and the cache config
    /// travels with the provider across switches.
    #[derive(Debug, Clone)]
    pub struct CachedProvider<P> {
        /// The provider producing the underlying media stores.
        pub inner: P,
        /// Cache configuration applied to every produced store.
        pub cfg: CacheConfig,
    }

    impl<P> CachedProvider<P> {
        /// Wraps `inner`, caching every store it produces per `cfg`.
        pub fn new(inner: P, cfg: CacheConfig) -> Self {
            Self { inner, cfg }
        }
    }

    impl<P: StoreProvider> StoreProvider for CachedProvider<P> {
        type Store = PageCache<P::Store>;

        fn new_store(&mut self) -> Self::Store {
            PageCache::new(self.inner.new_store(), self.cfg)
        }

        fn store_switched(&mut self) {
            self.inner.store_switched();
        }
    }

    /// Produces Lampson–Sturgis mirrored disks sharing one clock/model/plan.
    #[derive(Debug, Clone)]
    pub struct MirrorProvider {
        /// Shared simulated clock.
        pub clock: SimClock,
        /// Device cost profile.
        pub model: CostModel,
        /// Shared fault plan.
        pub plan: FaultPlan,
    }

    impl StoreProvider for MirrorProvider {
        type Store = MirroredDisk;

        fn new_store(&mut self) -> MirroredDisk {
            MirroredDisk::new(self.plan.clone(), self.clock.clone(), self.model.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::providers::FileProvider;
    use super::StoreProvider;

    #[test]
    fn a_supplanted_file_that_will_not_go_is_counted_and_left_for_the_next_open() {
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let counts = || {
            let count = |name| reg.counter(name).get();
            (
                count("core.hk.files_reaped"),
                count("core.hk.reap_failures"),
            )
        };
        let dir = std::env::temp_dir().join(format!("argus-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut provider = FileProvider::new(&dir).unwrap();
        drop(provider.new_store());
        // A non-empty directory where generation 0's file was: no unlink
        // removes it.
        let stuck = provider.store_path(0);
        std::fs::remove_file(&stuck).unwrap();
        std::fs::create_dir_all(stuck.join("inside")).unwrap();
        drop(provider.new_store());
        provider.store_switched();
        drop(provider); // joins the reaper
        assert_eq!(counts(), (0, 1));
        assert!(stuck.is_dir());

        // The next open's sweep tries again, fails again, and opens anyway.
        let mut provider = FileProvider::new(&dir).unwrap();
        assert_eq!(provider.active_generation().unwrap(), 1);
        assert_eq!(counts(), (0, 2));
        assert!(stuck.is_dir() && provider.store_path(1).is_file());
        drop(provider);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
