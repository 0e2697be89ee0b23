//! The stack replay: a bare recovery system of each organization driven
//! with a `Heap` through the workload's action shape, one span per
//! recovery-system operation and, underneath, one per page-store call.
//!
//! The page-store spans come from [`TimedStore`], a `PageStore` wrapper
//! that sits where the guardian's store sits — above the page cache for
//! the log organizations, directly on the media for shadowing — so the
//! `stable` children cover the whole `stable` crate and `core` (with
//! `slog` inside it) keeps the rest of its span as self time.

use crate::spans;
use crate::target::Res;
use argus_core::providers::{CachedProvider, FileProvider, MemProvider};
use argus_core::{
    HousekeepingMode, HybridLogRs, RecoveryMode, RecoverySystem, RedoRs, SimpleLogRs, StoreProvider,
};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, Uid, Value};
use argus_shadow::ShadowRs;
use argus_sim::{CostModel, DetRng, DeviceStats, SimClock};
use argus_stable::{CacheConfig, Page, PageNo, PageStore, StorageResult};
use std::path::Path;
use std::time::Instant;

pub struct TimedStore<S>(pub S);

impl<S: PageStore> PageStore for TimedStore<S> {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        let _s = spans::enter("stable.read_page", pno);
        self.0.read_page(pno)
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        let _s = spans::enter("stable.write_page", pno);
        self.0.write_page(pno, page)
    }

    fn page_count(&self) -> u64 {
        self.0.page_count()
    }

    fn sync(&mut self) -> StorageResult<()> {
        let _s = spans::enter("stable.sync", 0);
        self.0.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.0.stats()
    }

    fn invalidate_volatile(&mut self) {
        self.0.invalidate_volatile();
    }

    fn decay_page(&mut self, pno: PageNo) -> bool {
        self.0.decay_page(pno)
    }
}

pub struct TimedProvider<P>(pub P);

impl<P: StoreProvider> StoreProvider for TimedProvider<P> {
    type Store = TimedStore<P::Store>;

    fn new_store(&mut self) -> Self::Store {
        TimedStore(self.0.new_store())
    }

    fn store_switched(&mut self) {
        self.0.store_switched();
    }
}

/// The action shape of a workload, as one guardian sees it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub objects: usize,
    /// Bytes per object value; `None` = an integer (the bank's accounts).
    pub value_size: Option<usize>,
    pub writes: usize,
    /// Actions staged together before each shared force.
    pub in_flight: usize,
    pub actions: usize,
    pub on_files: bool,
}

/// What happens after the commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finale {
    /// Crash, full recovery, then compaction housekeeping.
    RecoverThenCompact,
    /// Crash, on-demand recovery, one commit (redo only).
    OnDemandFirstCommit,
    /// Snapshot housekeeping from the live heap (hybrid only).
    SnapshotHousekeeping,
}

/// Span tracks of the stack replay: one per organization and phase, so the
/// page-store children of commits, recovery and housekeeping total apart.
pub const TRACK_BASE: u32 = 100;
const PHASES: [&str; 3] = ["commit", "recover", "housekeep"];

pub fn track(org: usize, phase: usize) -> u32 {
    TRACK_BASE + (org * PHASES.len() + phase) as u32
}

pub fn track_names() -> Vec<(u32, String)> {
    let mut names = Vec::new();
    for (org, (_, name)) in crate::run::ORGS.iter().enumerate() {
        for (phase, phase_name) in PHASES.iter().enumerate() {
            names.push((track(org, phase), format!("stack {name} {phase_name}")));
        }
    }
    names
}

/// What the replay of one organization measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct OrgStack {
    pub actions: u64,
    pub log_bytes: u64,
    pub recover_ms: f64,
    pub hk_ms: f64,
}

struct Driver<'a, R: RecoverySystem> {
    rs: &'a mut R,
    heap: Heap,
    g: GuardianId,
    /// `None` after a recovery rebuilt the heap, until first touched.
    handles: Vec<Option<HeapId>>,
    uids: Vec<Uid>,
    rng: DetRng,
    next_seq: u64,
    shape: Shape,
}

impl<R: RecoverySystem> Driver<'_, R> {
    fn aid(&mut self) -> ActionId {
        self.next_seq += 1;
        ActionId::new(self.g, self.next_seq)
    }

    fn value(&self, fill: u8) -> Value {
        match self.shape.value_size {
            Some(n) => Value::Bytes(vec![fill; n]),
            None => Value::Int(i64::from(fill)),
        }
    }

    /// Creates the live set under the stable root and commits it.
    fn create_live_set(&mut self) -> Res<()> {
        let aid = self.aid();
        let root = self
            .heap
            .stable_root()
            .ok_or("heap without a stable root")?;
        self.heap.acquire_write(root, aid)?;
        for i in 0..self.shape.objects {
            let h = self.heap.alloc_atomic(self.value(0), Some(aid));
            self.heap.write_value(root, aid, |v| {
                if let Value::Seq(pairs) = v {
                    pairs.push(Value::Seq(vec![
                        Value::Str(format!("obj{i:03}")),
                        Value::heap_ref(h),
                    ]));
                }
            })?;
            self.handles.push(Some(h));
            self.uids.push(self.heap.uid_of(h)?);
        }
        self.rs.prepare(aid, &[root], &self.heap)?;
        self.rs.committing(aid, &[self.g])?;
        self.rs.commit(aid)?;
        self.heap.commit_action(aid);
        self.rs.done(aid)?;
        Ok(())
    }

    /// One round of `in_flight` actions through the four forced steps of a
    /// single-guardian commit, each step staged for all of them and forced
    /// once — with one action in flight that is the eager operation.
    fn round(&mut self) -> Res<()> {
        let k = self.shape.in_flight;
        let slice = self.shape.objects / k;
        let mut actions = Vec::with_capacity(k);
        for j in 0..k {
            let aid = self.aid();
            let mut chosen = Vec::with_capacity(self.shape.writes);
            let mut mos = Vec::with_capacity(self.shape.writes);
            for _ in 0..self.shape.writes {
                let mut i = self.rng.gen_range(slice as u64) as usize;
                while chosen.contains(&i) {
                    i = (i + 1) % slice;
                }
                chosen.push(i);
                let h = self.handle(j * slice + i)?;
                let fill = self.rng.gen_range(256) as u8;
                self.heap.acquire_write(h, aid)?;
                self.heap.write_value(h, aid, |v| match v {
                    Value::Bytes(b) => b.fill(fill),
                    Value::Int(n) => *n += i64::from(fill),
                    _ => {}
                })?;
                mos.push(h);
            }
            actions.push((aid, mos));
        }
        let seq = self.next_seq;
        {
            let _s = spans::enter("core.prepare", seq);
            for (aid, mos) in &actions {
                self.rs.stage_prepare(*aid, mos, &self.heap)?;
            }
            self.rs.force_staged()?;
        }
        {
            let _s = spans::enter("core.committing", seq);
            for (aid, _) in &actions {
                self.rs.stage_committing(*aid, &[self.g])?;
            }
            self.rs.force_staged()?;
        }
        {
            let _s = spans::enter("core.commit", seq);
            for (aid, _) in &actions {
                self.rs.stage_commit(*aid)?;
            }
            self.rs.force_staged()?;
        }
        for (aid, _) in &actions {
            self.heap.commit_action(*aid);
        }
        {
            let _s = spans::enter("core.done", seq);
            for (aid, _) in &actions {
                self.rs.stage_done(*aid)?;
            }
            self.rs.force_staged()?;
        }
        Ok(())
    }

    /// The heap handle of object `i`, found again by uid after a recovery —
    /// restoring it first if an on-demand recovery left it on the log.
    fn handle(&mut self, i: usize) -> Res<HeapId> {
        if let Some(h) = self.handles[i] {
            return Ok(h);
        }
        let uid = self.uids[i];
        if self.heap.lookup(uid).is_none() {
            self.rs.demand_restore(uid, &mut self.heap)?;
        }
        let h = self
            .heap
            .lookup(uid)
            .ok_or_else(|| format!("object {uid} missing after recovery"))?;
        self.handles[i] = Some(h);
        Ok(h)
    }

    /// Crashes the recovery system and forgets the volatile heap.
    fn crash(&mut self) -> Res<()> {
        self.rs.simulate_crash()?;
        self.heap = Heap::new();
        self.handles.fill(None);
        Ok(())
    }
}

fn drive<R: RecoverySystem>(
    rs: &mut R,
    org: usize,
    shape: Shape,
    seed: u64,
    finale: Finale,
) -> Res<OrgStack> {
    let mut d = Driver {
        rs,
        heap: Heap::with_stable_root(),
        g: GuardianId(0),
        handles: Vec::new(),
        uids: Vec::new(),
        rng: DetRng::new(seed),
        next_seq: 0,
        shape,
    };
    d.create_live_set()?;
    // Only the standard finale records spans; the two single-organization
    // extras reuse the driver for their set-up and time one step by hand.
    let record = finale == Finale::RecoverThenCompact;
    spans::set(record, track(org, 0));
    let rounds = shape.actions / shape.in_flight;
    for _ in 0..rounds {
        d.round()?;
    }
    let mut out = OrgStack {
        actions: (rounds * shape.in_flight) as u64,
        log_bytes: d.rs.log_stats().bytes,
        ..OrgStack::default()
    };
    match finale {
        Finale::RecoverThenCompact => {
            d.crash()?;
            spans::set(true, track(org, 1));
            let t = Instant::now();
            {
                let _s = spans::enter("core.recover", 0);
                d.rs.recover(&mut d.heap)?;
            }
            out.recover_ms = t.elapsed().as_secs_f64() * 1e3;
            spans::set(true, track(org, 2));
            let t = Instant::now();
            {
                let _s = spans::enter("core.housekeeping", 0);
                d.rs.housekeeping(&d.heap, HousekeepingMode::Compaction)?;
            }
            out.hk_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        Finale::OnDemandFirstCommit => {
            d.crash()?;
            if !d.rs.set_recovery_mode(RecoveryMode::OnDemand) {
                return Err("organization does not recover on demand".into());
            }
            d.shape.in_flight = 1;
            let t = Instant::now();
            d.rs.recover(&mut d.heap)?;
            d.round()?;
            out.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        Finale::SnapshotHousekeeping => {
            let t = Instant::now();
            d.rs.housekeeping(&d.heap, HousekeepingMode::Snapshot)?;
            out.hk_ms = t.elapsed().as_secs_f64() * 1e3;
        }
    }
    spans::set(false, 0);
    Ok(out)
}

/// Builds organization `org` over `provider` the way the guardian does
/// (page cache under the log organizations, none under shadowing) with the
/// timed store on top, and drives it.
fn drive_org<P: StoreProvider>(
    org: usize,
    provider: P,
    shape: Shape,
    seed: u64,
    finale: Finale,
) -> Res<OrgStack> {
    let cached = |p: P| TimedProvider(CachedProvider::new(p, CacheConfig::default()));
    match org {
        0 => drive(
            &mut SimpleLogRs::create(cached(provider))?,
            org,
            shape,
            seed,
            finale,
        ),
        1 => drive(
            &mut HybridLogRs::create(cached(provider))?,
            org,
            shape,
            seed,
            finale,
        ),
        2 => drive(
            &mut ShadowRs::create(TimedProvider(provider))?,
            org,
            shape,
            seed,
            finale,
        ),
        _ => drive(
            &mut RedoRs::create(cached(provider))?,
            org,
            shape,
            seed,
            finale,
        ),
    }
}

fn drive_on_medium(
    org: usize,
    dir: &Path,
    shape: Shape,
    seed: u64,
    finale: Finale,
) -> Res<OrgStack> {
    let clock = SimClock::new();
    if shape.on_files {
        let provider = FileProvider::new(dir)?.with_device(clock, CostModel::default());
        drive_org(org, provider, shape, seed, finale)
    } else {
        drive_org(org, MemProvider::realistic(clock), shape, seed, finale)
    }
}

pub struct StackOut {
    pub orgs: [OrgStack; 4],
    /// Redo's crash → on-demand recovery → first commit.
    pub redo_ondemand_ttfc_ms: f64,
    /// Hybrid's snapshot housekeeping.
    pub hybrid_snapshot_hk_ms: f64,
}

/// Replays the shape on all four organizations under `run_dir`.
pub fn replay(shape: Shape, seed: u64, run_dir: &Path) -> Res<StackOut> {
    let mut orgs = [OrgStack::default(); 4];
    for (org, out) in orgs.iter_mut().enumerate() {
        let dir = run_dir.join(format!("stack-{}", crate::run::ORGS[org].1));
        *out = drive_on_medium(org, &dir, shape, seed, Finale::RecoverThenCompact)?;
    }
    let redo = drive_on_medium(
        3,
        &run_dir.join("stack-redo-ondemand"),
        shape,
        seed,
        Finale::OnDemandFirstCommit,
    )?;
    let hybrid = drive_on_medium(
        1,
        &run_dir.join("stack-hybrid-snapshot"),
        shape,
        seed,
        Finale::SnapshotHousekeeping,
    )?;
    Ok(StackOut {
        orgs,
        redo_ondemand_ttfc_ms: redo.recover_ms,
        hybrid_snapshot_hk_ms: hybrid.hk_ms,
    })
}
