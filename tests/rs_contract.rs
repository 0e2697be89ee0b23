//! One contract, four organizations: what `RecoverySystem` promises its
//! caller, checked against every organization through `&mut dyn
//! RecoverySystem` — the only way the guardian ever holds one.
//!
//! Re-pinned once, downward: (d) read "a force is a write, a barrier, the
//! superblock, a barrier" (`ops >= 4`). A force's commit point is now its
//! own last frame (DESIGN.md deviation 11), so it is a write and a barrier
//! (`ops >= 2`) and exactly one barrier per local commit on every
//! organization. (e) is the clause that change needs: frames a torn force
//! left beyond the recovered top stay dead. (d) then grew from the local
//! commit to the commit point of any action at its coordinator's guardian
//! (DESIGN.md deviation 12): with remote participants the same step also
//! carries `committing`, under the same one force.

use argus::core::providers::MemProvider;
use argus::core::{
    HousekeepingMode, HybridLogRs, PState, RecoveryOutcome, RecoverySystem, RedoRs, RsError,
    SimpleLogRs, StoreProvider,
};
use argus::guardian::RsKind;
use argus::objects::{ActionId, GuardianId, Heap, HeapId, Value};
use argus::shadow::ShadowRs;
use argus::sim::{DetRng, DeviceStats};
use argus::stable::{FaultPlan, MemStore, Page, PageNo, PageStore, StorageResult, PAGE_SIZE};
use std::cell::Cell;
use std::rc::Rc;

const OBJECTS: usize = 8;

fn build<P: StoreProvider + 'static>(kind: RsKind, provider: P) -> Box<dyn RecoverySystem> {
    match kind {
        RsKind::Simple => Box::new(SimpleLogRs::create(provider).unwrap()),
        RsKind::Hybrid => Box::new(HybridLogRs::create(provider).unwrap()),
        RsKind::Shadow => Box::new(ShadowRs::create(provider).unwrap()),
        RsKind::Redo => Box::new(RedoRs::create(provider).unwrap()),
    }
}

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

/// How a history's forcing operations are issued.
#[derive(Clone, Copy)]
enum Issue {
    /// `prepare`, `committing`, `commit`, `abort`, `done`.
    Eager,
    /// The `stage_*` twin, then `force_staged` if it says a force is owed.
    Staged,
}

/// An organization with `OBJECTS` committed objects under its stable root.
struct Fixture {
    rs: Box<dyn RecoverySystem>,
    heap: Heap,
    objects: Vec<HeapId>,
    next_seq: u64,
}

impl Fixture {
    fn new(kind: RsKind) -> Self {
        Self::over(kind, MemProvider::fast())
    }

    /// A fixture whose device crashes when `plan` says so.
    fn with_plan(kind: RsKind, plan: &FaultPlan) -> Self {
        Self::over(kind, MemProvider::fast().with_plan(plan.clone()))
    }

    fn over<P: StoreProvider + 'static>(kind: RsKind, provider: P) -> Self {
        let mut f = Self {
            rs: build(kind, provider),
            heap: Heap::with_stable_root(),
            objects: Vec::new(),
            next_seq: 0,
        };
        let a = f.begin();
        let root = f.heap.stable_root().unwrap();
        f.heap.acquire_write(root, a).unwrap();
        for _ in 0..OBJECTS {
            let h = f.heap.alloc_atomic(Value::Int(0), Some(a));
            f.objects.push(h);
        }
        let refs = f.objects.iter().map(|h| Value::heap_ref(*h)).collect();
        f.heap
            .write_value(root, a, |v| *v = Value::Seq(refs))
            .unwrap();
        f.rs.prepare(a, &[root], &f.heap).unwrap();
        f.rs.commit(a).unwrap();
        f.heap.commit_action(a);
        f
    }

    fn begin(&mut self) -> ActionId {
        self.next_seq += 1;
        aid(self.next_seq)
    }

    /// Write-locks object `i` for `a` and sets it to `value`.
    fn write(&mut self, a: ActionId, i: usize, value: i64) -> HeapId {
        let h = self.objects[i];
        self.heap.acquire_write(h, a).unwrap();
        self.heap
            .write_value(h, a, |v| *v = Value::Int(value))
            .unwrap();
        h
    }

    /// Write-locks object `i` for `a` and sets it to `size` bytes of `fill`.
    fn write_bytes(&mut self, a: ActionId, i: usize, fill: u8, size: usize) -> HeapId {
        let h = self.objects[i];
        self.heap.acquire_write(h, a).unwrap();
        self.heap
            .write_value(h, a, |v| *v = Value::Bytes(vec![fill; size]))
            .unwrap();
        h
    }

    /// One action through the steps a participant and a coordinator log for
    /// it — `prepared`, `committing`, `committed`, `done`, each forced here —
    /// or prepare-then-abort.
    fn action(&mut self, rng: &mut DetRng, issue: Issue) {
        let a = self.begin();
        let first = rng.gen_range(OBJECTS as u64) as usize;
        let mos: Vec<HeapId> = (0..rng.gen_between(1, 3) as usize)
            .map(|k| self.write(a, (first + k) % OBJECTS, rng.next_u64() as i64))
            .collect();
        let commit = rng.gen_bool(0.8);
        let g = [GuardianId(0)];
        let (rs, heap) = (self.rs.as_mut(), &self.heap);
        match issue {
            Issue::Eager => {
                rs.prepare(a, &mos, heap).unwrap();
                if commit {
                    rs.committing(a, &g).unwrap();
                    rs.commit(a).unwrap();
                    rs.done(a).unwrap();
                } else {
                    rs.abort(a).unwrap();
                }
            }
            Issue::Staged => {
                let force = |rs: &mut dyn RecoverySystem, owed: bool| {
                    if owed {
                        rs.force_staged().unwrap();
                    }
                };
                let owed = rs.stage_prepare(a, &mos, heap).unwrap();
                force(rs, owed);
                if commit {
                    let owed = rs.stage_committing(a, &g).unwrap();
                    force(rs, owed);
                    let owed = rs.stage_commit(a).unwrap();
                    force(rs, owed);
                    let owed = rs.stage_done(a).unwrap();
                    force(rs, owed);
                } else {
                    let owed = rs.stage_abort(a).unwrap();
                    force(rs, owed);
                }
            }
        }
        if commit {
            self.heap.commit_action(a);
        } else {
            self.heap.abort_action(a);
        }
    }

    /// Crashes, recovers, and returns the committed value of every object.
    fn recovered_values(&mut self) -> Vec<Value> {
        self.recovered().0
    }

    /// Crashes and recovers: the committed value of every object, and what
    /// recovery made of the log.
    fn recovered(&mut self) -> (Vec<Value>, RecoveryOutcome) {
        self.rs.simulate_crash().unwrap();
        let uids: Vec<_> = self
            .objects
            .iter()
            .map(|h| self.heap.uid_of(*h).unwrap())
            .collect();
        self.heap = Heap::new();
        let outcome = self.rs.recover(&mut self.heap).unwrap();
        self.objects = uids
            .iter()
            .map(|uid| self.heap.lookup(*uid).expect("object restored"))
            .collect();
        let values = self.objects.iter();
        let values = values
            .map(|h| self.heap.read_value(*h, None).unwrap().clone())
            .collect();
        (values, outcome)
    }

    fn forces(&self) -> u64 {
        self.rs.log_stats().device.forces
    }

    /// The whole commit point of `a` at its coordinator's guardian, `gids`
    /// being every participant (none: a local action): staged as one step,
    /// then the force it owes, if it owes one.
    fn commit_point(
        &mut self,
        a: ActionId,
        mos: &[HeapId],
        gids: &[GuardianId],
    ) -> Result<(), RsError> {
        if self.rs.stage_commit_point(a, mos, &self.heap, gids)? {
            self.rs.force_staged()?;
        }
        Ok(())
    }

    fn local_commit(&mut self, a: ActionId, mos: &[HeapId]) -> Result<(), RsError> {
        self.commit_point(a, mos, &[])
    }
}

/// (a) An eager operation is its `stage_*` twin plus `force_staged`: the same
/// seeded history leaves the same log entries and costs the same device
/// operations either way.
#[test]
fn eager_is_stage_plus_force() {
    for kind in RsKind::ALL {
        let mut images = Vec::new();
        for issue in [Issue::Eager, Issue::Staged] {
            let mut f = Fixture::new(kind);
            let mut rng = DetRng::new(42);
            let before = f.rs.log_stats().device;
            for _ in 0..50 {
                f.action(&mut rng, issue);
            }
            let stats = f.rs.log_stats();
            let device = stats.device.since(&before);
            let log = f.rs.dump_log().unwrap();
            images.push((log, stats.entries, stats.bytes, device));
        }
        assert_eq!(images[0], images[1], "{kind:?}: eager vs stage + force");
    }
}

/// (b) `stage_*` returning `true` is a promise *not yet kept*: a crash
/// before `force_staged` makes the operation invisible to recovery, and one
/// `force_staged` after k staged operations costs what one operation's does.
/// Returning `false` means durable as it stands.
#[test]
fn a_staged_operation_is_durable_only_once_forced() {
    for kind in RsKind::ALL {
        // A prepare and its commit staged together, never forced.
        let mut f = Fixture::new(kind);
        let a = f.begin();
        let h = f.write(a, 0, 7);
        let forces = f.forces();
        let owed_prepare = f.rs.stage_prepare(a, &[h], &f.heap).unwrap();
        let owed_commit = f.rs.stage_commit(a).unwrap();
        assert_eq!(owed_prepare, owed_commit, "{kind:?}");
        f.heap.commit_action(a);
        let expected = if owed_commit {
            assert_eq!(f.forces(), forces, "{kind:?}: staging forced the device");
            Value::Int(0)
        } else {
            Value::Int(7)
        };
        assert_eq!(f.recovered_values()[0], expected, "{kind:?}");

        // One prepare staged and forced, then four staged and forced once:
        // the shared force costs the device what the single one did.
        let mut f = Fixture::new(kind);
        let mut prepared = Vec::new();
        let mut cost = Vec::new();
        for batch in [1, 4] {
            let forces = f.forces();
            let mut owed = false;
            for _ in 0..batch {
                let a = f.begin();
                let h = f.write(a, prepared.len(), 1);
                owed |= f.rs.stage_prepare(a, &[h], &f.heap).unwrap();
                prepared.push(a);
            }
            if owed {
                assert_eq!(f.forces(), forces, "{kind:?}: staging forced the device");
                f.rs.force_staged().unwrap();
                cost.push(f.forces() - forces);
            }
        }
        if let [one, four] = cost[..] {
            assert!(one > 0, "{kind:?}: a force that costs nothing");
            assert_eq!(four, one, "{kind:?}: one force for the batch");
        }
        f.recovered_values();
        for a in prepared {
            assert!(f.rs.is_prepared(a), "{kind:?}: {a:?} lost after the force");
        }
    }
}

/// (c) The PAT spans prepare to verdict, and a housekeeping pass is opened
/// once, closed once, refused in a mode the organization lacks, and
/// harmless if the node dies inside it.
#[test]
fn pat_and_housekeeping_protocol() {
    for kind in RsKind::ALL {
        let mut f = Fixture::new(kind);
        for commit in [true, false] {
            let a = f.begin();
            let h = f.write(a, 1, 5);
            assert!(!f.rs.is_prepared(a), "{kind:?}");
            f.rs.prepare(a, &[h], &f.heap).unwrap();
            assert!(f.rs.is_prepared(a), "{kind:?}");
            if commit {
                f.rs.commit(a).unwrap();
                f.heap.commit_action(a);
            } else {
                f.rs.abort(a).unwrap();
                f.heap.abort_action(a);
            }
            assert!(!f.rs.is_prepared(a), "{kind:?}");
        }

        for mode in [HousekeepingMode::Compaction, HousekeepingMode::Snapshot] {
            assert!(
                matches!(f.rs.finish_housekeeping(), Err(RsError::BadState(_))),
                "{kind:?} {mode:?}: finish without begin"
            );
            match f.rs.begin_housekeeping(&f.heap, mode) {
                Ok(()) => {}
                Err(RsError::Unsupported(_)) => {
                    assert!(
                        mode == HousekeepingMode::Snapshot && kind != RsKind::Hybrid,
                        "{kind:?} must support {mode:?}"
                    );
                    continue;
                }
                Err(e) => panic!("{kind:?} {mode:?}: {e}"),
            }
            assert!(
                matches!(
                    f.rs.begin_housekeeping(&f.heap, mode),
                    Err(RsError::BadState(_))
                ),
                "{kind:?} {mode:?}: second begin"
            );
            // The node dies inside the pass: the state is what it was, and
            // the pass died with it.
            let values = f.recovered_values();
            assert_eq!(values[1], Value::Int(5), "{kind:?} {mode:?}");
            assert!(
                matches!(f.rs.finish_housekeeping(), Err(RsError::BadState(_))),
                "{kind:?} {mode:?}: the pass survived the crash"
            );
            f.rs.housekeeping(&f.heap, mode).unwrap();
            assert_eq!(f.recovered_values(), values, "{kind:?} {mode:?}");
        }
    }
}

/// (d) The commit point is one device force, and a force is one barrier.
/// Data entries, `prepared`, `committing` (when there are remote guardians
/// to name; none for a local action) and `committed`, staged as one step,
/// cost the device what a lone prepare's force does — its pages and a single
/// `sync`, the force's last frame being its own commit point. Nothing of the
/// action survives a crash before that force, all of it survives after, and
/// a crash at any device operation inside it leaves all or nothing: never
/// the coordinator's guardian in doubt about its own action, never a
/// `committing` coordinator without its own `committed`.
#[test]
fn the_commit_point_is_one_device_force() {
    let with_a_remote = [GuardianId(0), GuardianId(1)];
    for (kind, gids) in RsKind::ALL
        .into_iter()
        .flat_map(|kind| [(kind, &[][..]), (kind, &with_a_remote[..])])
    {
        // What recovery must find once the commit point is durable.
        let durable = |a: ActionId, outcome: &RecoveryOutcome| {
            let resumed = outcome.ct.committing_actions();
            let expected = match gids {
                [] => Vec::new(),
                gids => vec![(a, gids.to_vec())],
            };
            outcome.pt.get(a) == Some(PState::Committed) && resumed == expected
        };

        // What one force costs this organization: a lone forced prepare.
        let plan = FaultPlan::new();
        let mut f = Fixture::with_plan(kind, &plan);
        let a = f.begin();
        let h = f.write(a, 0, 1);
        let forces = f.forces();
        f.rs.prepare(a, &[h], &f.heap).unwrap();
        let one_force = f.forces() - forces;
        assert!(one_force > 0, "{kind:?}: a force that costs nothing");
        f.rs.abort(a).unwrap();
        f.heap.abort_action(a);

        // The whole commit point costs the same, and is durable after it.
        let a = f.begin();
        let h = f.write(a, 1, 7);
        let (forces, ops) = (f.forces(), plan.op_counts());
        f.commit_point(a, &[h], gids).unwrap();
        f.heap.commit_action(a);
        assert_eq!(f.forces() - forces, one_force, "{kind:?} {gids:?}");
        let ops = plan.op_counts().since(&ops);
        assert_eq!(ops.forces, 1, "{kind:?}: a force is one device barrier");
        let ops = ops.total();
        assert!(ops >= 2, "{kind:?}: a force is a write and a barrier");
        assert!(!f.rs.is_prepared(a), "{kind:?}: resolved, not in doubt");
        let (values, outcome) = f.recovered();
        assert_eq!(values[1], Value::Int(7), "{kind:?} {gids:?}");
        assert!(durable(a, &outcome), "{kind:?} {gids:?}: {outcome:?}");

        // Staged and not yet forced, it is invisible to recovery.
        let a = f.begin();
        let h = f.write(a, 2, 9);
        let forces = f.forces();
        if f.rs.stage_commit_point(a, &[h], &f.heap, gids).unwrap() {
            assert_eq!(f.forces(), forces, "{kind:?}: staging forced the device");
            let (values, outcome) = f.recovered();
            assert_eq!(values[2], Value::Int(0), "{kind:?} {gids:?}");
            assert_eq!(outcome.pt.get(a), None, "{kind:?} {gids:?}");
        }

        // A crash at each of its device operations on a fresh log, until
        // the countdown outlasts it: all or nothing, and nothing when the
        // very first operation is the one that fails.
        for k in 0.. {
            let plan = FaultPlan::new();
            let mut f = Fixture::with_plan(kind, &plan);
            let a = f.begin();
            let h = f.write(a, 1, 7);
            plan.arm_after_ops(k);
            let Err(crashed) = f.commit_point(a, &[h], gids) else {
                assert!(k >= 2, "{kind:?}: a force is a write and a barrier");
                break;
            };
            assert!(crashed.is_crash(), "{kind:?} op {k}: {crashed}");
            plan.heal();
            let (values, outcome) = f.recovered();
            let nothing = values[1] == Value::Int(0)
                && outcome.pt.get(a).is_none()
                && outcome.ct.committing_actions().is_empty();
            let all = k > 0 && values[1] == Value::Int(7) && durable(a, &outcome);
            assert!(
                nothing || all,
                "{kind:?} {gids:?}: a crash at device operation {k} left {:?}, {outcome:?}",
                values[1]
            );
            assert!(!f.rs.is_prepared(a), "{kind:?} op {k}: left in doubt");
        }
    }
}

/// A memory store that can be told to lose its next page write while the
/// ones after it land: what a device that reorders writes leaves behind when
/// the node dies at the barrier.
struct LossyStore {
    inner: MemStore,
    lose_next_write: Rc<Cell<bool>>,
}

impl PageStore for LossyStore {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        self.inner.read_page(pno)
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        if self.lose_next_write.take() {
            return Ok(());
        }
        self.inner.write_page(pno, page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.inner.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

struct LossyProvider {
    inner: MemProvider,
    lose_next_write: Rc<Cell<bool>>,
}

impl StoreProvider for LossyProvider {
    type Store = LossyStore;

    fn new_store(&mut self) -> LossyStore {
        LossyStore {
            inner: self.inner.new_store(),
            lose_next_write: self.lose_next_write.clone(),
        }
    }
}

/// (e) A torn force stays torn. The commit of one local action loses its
/// first page although the page with its `committed` entry (shadowing: its
/// map and resolution) lands; after the restart a second action of the same
/// size puts the same ordinals at the same offsets, and its force dies
/// between exactly those pages. The frames of the first attempt that now
/// follow the frames of the second are whole, marked and in sequence — and
/// of a dead epoch: neither action may come back committed or in doubt.
#[test]
fn a_torn_commit_is_not_resurrected_by_the_next_one() {
    for kind in RsKind::ALL {
        // A value size that ends the prepare step's entries on a page
        // boundary, so the commit step's start a page of their own.
        let aligned = (0..PAGE_SIZE).find_map(|size| {
            let mut f = Fixture::new(kind);
            let before = f.rs.log_stats().bytes;
            let a = f.begin();
            let h = f.write_bytes(a, 1, 1, size);
            f.rs.prepare(a, &[h], &f.heap).unwrap();
            let prepared = f.rs.log_stats().bytes;
            prepared
                .is_multiple_of(PAGE_SIZE as u64)
                .then_some((size, before, prepared))
        });
        let (size, before, prepared) = aligned.expect("one size in a page's worth aligns");
        let pages_before_the_commit_step = (prepared - before).div_ceil(PAGE_SIZE as u64);

        let plan = FaultPlan::new();
        let lose_next_write = Rc::new(Cell::new(false));
        let provider = LossyProvider {
            inner: MemProvider::fast().with_plan(plan.clone()),
            lose_next_write: lose_next_write.clone(),
        };
        let mut f = Fixture::over(kind, provider);
        assert_eq!(f.rs.log_stats().bytes, before, "{kind:?}");

        // First attempt: the earliest page of the force is lost, the rest —
        // the commit step's page among them — land.
        let first = f.begin();
        let h = f.write_bytes(first, 1, 1, size);
        lose_next_write.set(true);
        f.local_commit(first, &[h]).unwrap();
        f.heap.abort_action(first);
        assert_eq!(f.recovered_values()[1], Value::Int(0), "{kind:?}");

        // Second attempt, same shape: the crash spares the pages before the
        // commit step's and takes that one.
        let second = f.begin();
        let h = f.write_bytes(second, 1, 2, size);
        plan.arm_after_writes(pages_before_the_commit_step);
        let crashed = f.local_commit(second, &[h]).unwrap_err();
        assert!(crashed.is_crash(), "{kind:?}: {crashed}");
        plan.heal();
        assert_eq!(
            f.recovered_values()[1],
            Value::Int(0),
            "{kind:?}: an unacknowledged commit became visible"
        );
        for a in [first, second] {
            assert!(!f.rs.is_prepared(a), "{kind:?}: {a:?} came back in doubt");
        }
    }
}
