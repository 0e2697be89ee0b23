//! The Lampson–Sturgis mirrored disk: atomic writes over fallible media.

use crate::store::SeqTracker;
use crate::{FaultPlan, Page, PageNo, PageStore, RawDisk, StorageError, StorageResult};
use argus_sim::{CostModel, DeviceStats, OpKind, SimClock};

/// Atomic stable storage built from two raw disks with independent failure
/// modes (§1.1, citing \[Lampson 79\]).
///
/// Every logical page has a copy on disk A and a copy on disk B. A write
/// updates A then B; a read prefers A and falls back to B, repairing the bad
/// copy. Because at most one copy can be mid-write at the instant of a crash,
/// every logical page stays readable as either its old or its new value —
/// the atomicity property the recovery algorithms rely on.
///
/// The struct separates durable from volatile state: the two [`RawDisk`]s
/// survive a simulated crash, and [`MirroredDisk::into_media`] /
/// [`MirroredDisk::from_media`] model the restart (new controller state over
/// the same platters).
///
/// Accounting: [`MirroredDisk::stats`] counts each **logical** operation
/// once (so per-run metrics can compare organizations without mirrored legs
/// double-counting), while `busy_us` still accumulates the raw cost of both
/// legs. The raw per-leg operation tallies are reported separately by
/// [`MirroredDisk::leg_stats`].
#[derive(Debug)]
pub struct MirroredDisk {
    a: RawDisk,
    b: RawDisk,
    plan: FaultPlan,
    stats: DeviceStats,
    leg_a: DeviceStats,
    leg_b: DeviceStats,
    clock: SimClock,
    model: CostModel,
    tracker: SeqTracker,
    obs: MirrorObs,
}

/// Cached metric handles for one mirrored disk, and the tracer current
/// when it was built.
#[derive(Debug, Clone)]
struct MirrorObs {
    repairs: argus_obs::Counter,
    scrubs: argus_obs::Counter,
    tracer: argus_trace::Tracer,
}

impl MirrorObs {
    fn resolve() -> Self {
        let reg = argus_obs::current();
        Self {
            repairs: reg.counter("stable.mirror.repairs"),
            scrubs: reg.counter("stable.mirror.scrubs"),
            tracer: argus_trace::current(),
        }
    }

    fn repaired(&self, page: PageNo) {
        self.repairs.inc();
        let (kind, lane) = (argus_trace::Kind::MirrorRepair, argus_trace::STORE_LANE);
        self.tracer.instant(kind, lane, None, &[page]);
    }
}

impl MirroredDisk {
    /// Creates an empty mirrored disk.
    pub fn new(plan: FaultPlan, clock: SimClock, model: CostModel) -> Self {
        Self {
            a: RawDisk::new(),
            b: RawDisk::new(),
            plan,
            stats: DeviceStats::new(),
            leg_a: DeviceStats::new(),
            leg_b: DeviceStats::new(),
            clock,
            model,
            tracker: SeqTracker::default(),
            obs: MirrorObs::resolve(),
        }
    }

    /// Tears the disk down to its durable media (what survives a crash).
    pub fn into_media(self) -> (RawDisk, RawDisk) {
        (self.a, self.b)
    }

    /// Rebuilds a disk over surviving media after a restart.
    pub fn from_media(
        media: (RawDisk, RawDisk),
        plan: FaultPlan,
        clock: SimClock,
        model: CostModel,
    ) -> Self {
        Self {
            a: media.0,
            b: media.1,
            plan,
            stats: DeviceStats::new(),
            leg_a: DeviceStats::new(),
            leg_b: DeviceStats::new(),
            clock,
            model,
            tracker: SeqTracker::default(),
            obs: MirrorObs::resolve(),
        }
    }

    /// Test hook: decays the A copy of a page.
    pub fn decay_a(&mut self, pno: PageNo) {
        self.a.decay(pno);
    }

    /// Test hook: decays the B copy of a page.
    pub fn decay_b(&mut self, pno: PageNo) {
        self.b.decay(pno);
    }

    /// Scrub pass: re-reads every page, repairing single-copy decay, so that
    /// latent faults do not accumulate (the background task a real
    /// Lampson–Sturgis deployment runs periodically).
    pub fn scrub(&mut self) -> StorageResult<()> {
        self.obs.scrubs.inc();
        for pno in 0..self.page_count() {
            self.read_page(pno)?;
        }
        Ok(())
    }

    /// The raw per-leg operation tallies (disk A, disk B). Each leg counts
    /// its own physical operations; the logical [`MirroredDisk::stats`]
    /// counts each mirrored pair once.
    pub fn leg_stats(&self) -> (argus_sim::StatsSnapshot, argus_sim::StatsSnapshot) {
        (self.leg_a.snapshot(), self.leg_b.snapshot())
    }

    /// Charges a logical operation: counter + time on the primary leg, time
    /// only (plus the raw per-leg tally) on the secondary.
    fn charge_primary(&mut self, kind: OpKind, leg_a: bool) {
        self.stats.charge(kind, &self.model, &self.clock);
        let leg = if leg_a { &self.leg_a } else { &self.leg_b };
        leg.count(kind);
    }

    /// Charges the second raw operation of a mirrored pair: busy time and
    /// the per-leg tally, but no logical counter.
    fn charge_secondary(&mut self, kind: OpKind, leg_a: bool) {
        self.stats.add_busy(self.model.cost_of(kind), &self.clock);
        let leg = if leg_a { &self.leg_a } else { &self.leg_b };
        leg.count(kind);
    }

    fn classify_write(&mut self, pno: PageNo) -> OpKind {
        if self.tracker.classify(pno) {
            OpKind::SeqWrite
        } else {
            OpKind::RandWrite
        }
    }

    fn classify_read(&mut self, pno: PageNo) -> OpKind {
        if self.tracker.classify(pno) {
            OpKind::SeqRead
        } else {
            OpKind::RandRead
        }
    }
}

impl PageStore for MirroredDisk {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        self.plan.note_read_at(pno)?;
        let kind = self.classify_read(pno);
        self.charge_primary(kind, true);
        if pno >= self.page_count() {
            // Same contract as the other stores: unwritten pages read zero.
            return Ok(Page::zeroed());
        }
        match self.a.read(pno) {
            Ok(page) => {
                // Lazily repair a decayed B copy so the pair stays redundant.
                // The repair is a real device write: a crash here tears B
                // again (A stays good) and fails this logical read.
                if !self.b.is_good(pno) && pno < self.b.page_count() {
                    self.b.repair(pno, &page, &self.plan)?;
                    self.obs.repaired(pno);
                }
                Ok(page)
            }
            Err(StorageError::BadPage { .. }) => {
                // A is bad; B must hold either the old or the new value. The
                // retry is raw work on the other leg, not a second logical
                // read.
                let kind = self.classify_read(pno);
                self.charge_secondary(kind, false);
                match self.b.read(pno) {
                    Ok(page) => {
                        self.a.repair(pno, &page, &self.plan)?;
                        self.obs.repaired(pno);
                        Ok(page)
                    }
                    Err(StorageError::BadPage { .. }) => {
                        Err(StorageError::BothCopiesBad { page: pno })
                    }
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        // Grow both copies first so a torn write cannot leave phantom holes.
        self.a.ensure_len(pno + 1);
        self.b.ensure_len(pno + 1);
        let kind = self.classify_write(pno);
        self.charge_primary(kind, true);
        self.a.write(pno, page, &self.plan)?;
        let kind = self.classify_write(pno);
        self.charge_secondary(kind, false);
        self.b.write(pno, page, &self.plan)?;
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.a.page_count().max(self.b.page_count())
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.plan.note_force()?;
        // One logical barrier covers both legs (they share the spindle sync).
        self.stats.charge(OpKind::Force, &self.model, &self.clock);
        self.leg_a.count(OpKind::Force);
        self.leg_b.count(OpKind::Force);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats.clone()
    }

    fn decay_page(&mut self, pno: PageNo) -> bool {
        if pno >= self.page_count() {
            return false;
        }
        // Lampson–Sturgis decay takes at most one copy of a pair before the
        // read path repairs it — never decay the last good copy (the twin
        // may already be torn by an in-flight crash).
        if pno < self.b.page_count() && self.b.is_good(pno) {
            self.a.decay(pno);
            true
        } else if pno < self.a.page_count() && self.a.is_good(pno) {
            self.b.decay(pno);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> MirroredDisk {
        MirroredDisk::new(FaultPlan::new(), SimClock::new(), CostModel::fast())
    }

    #[test]
    fn roundtrip() {
        let mut d = disk();
        let p = Page::from_bytes(b"data");
        d.write_page(5, &p).unwrap();
        assert_eq!(d.read_page(5).unwrap(), p);
        assert_eq!(d.page_count(), 6);
    }

    #[test]
    fn reads_past_end_are_zero() {
        let mut d = disk();
        assert_eq!(d.read_page(5).unwrap(), Page::zeroed());
        assert_eq!(d.page_count(), 0);
    }

    #[test]
    fn survives_decay_of_either_copy() {
        let mut d = disk();
        let p = Page::from_bytes(b"keep me");
        d.write_page(0, &p).unwrap();
        d.decay_a(0);
        assert_eq!(d.read_page(0).unwrap(), p);
        // Read repaired A; now decay B and read again.
        d.decay_b(0);
        assert_eq!(d.read_page(0).unwrap(), p);
    }

    #[test]
    fn both_copies_bad_is_catastrophic() {
        let mut d = disk();
        d.write_page(0, &Page::from_bytes(b"x")).unwrap();
        d.decay_a(0);
        d.decay_b(0);
        assert!(matches!(
            d.read_page(0),
            Err(StorageError::BothCopiesBad { .. })
        ));
    }

    #[test]
    fn crash_mid_write_leaves_old_or_new_value() {
        // Crash on the first copy: page must still read as the OLD value.
        let plan = FaultPlan::new();
        let mut d = MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast());
        let old = Page::from_bytes(b"old");
        let new = Page::from_bytes(b"new");
        d.write_page(0, &old).unwrap();
        plan.arm_after_writes(0);
        assert!(d.write_page(0, &new).unwrap_err().is_crash());
        plan.heal();
        let mut d = MirroredDisk::from_media(
            d.into_media(),
            plan.clone(),
            SimClock::new(),
            CostModel::fast(),
        );
        assert_eq!(d.read_page(0).unwrap(), old);

        // Crash on the second copy: page must read as the NEW value.
        plan.arm_after_writes(1);
        assert!(d.write_page(0, &new).unwrap_err().is_crash());
        plan.heal();
        let mut d =
            MirroredDisk::from_media(d.into_media(), plan, SimClock::new(), CostModel::fast());
        assert_eq!(d.read_page(0).unwrap(), new);
    }

    #[test]
    fn crash_tears_at_most_one_leg() {
        // Sweep the crash through every write of a multi-page burst: at the
        // instant of the crash, at most one leg of one page may be torn, so
        // every logical page stays readable after the restart.
        for budget in 0..8 {
            let plan = FaultPlan::new();
            let mut d = MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast());
            for pno in 0..4 {
                d.write_page(pno, &Page::from_bytes(&[0xAA, pno as u8]))
                    .unwrap();
            }
            plan.arm_after_writes(budget);
            let mut crashed = false;
            for pno in 0..4 {
                if d.write_page(pno, &Page::from_bytes(&[0xBB, pno as u8]))
                    .is_err()
                {
                    crashed = true;
                    break;
                }
            }
            assert!(crashed, "budget {budget} should crash inside the burst");
            plan.heal();
            let mut d =
                MirroredDisk::from_media(d.into_media(), plan, SimClock::new(), CostModel::fast());
            let mut torn_legs = 0;
            for pno in 0..4 {
                torn_legs += usize::from(!d.a.is_good(pno)) + usize::from(!d.b.is_good(pno));
                let got = d.read_page(pno).unwrap();
                let old = Page::from_bytes(&[0xAA, pno as u8]);
                let new = Page::from_bytes(&[0xBB, pno as u8]);
                assert!(got == old || got == new, "page {pno} read garbage");
            }
            assert!(torn_legs <= 1, "budget {budget} tore {torn_legs} legs");
        }
    }

    #[test]
    fn crash_mid_repair_tears_only_the_repaired_leg_and_heals_next_read() {
        let plan = FaultPlan::new();
        let mut d = MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast());
        let p = Page::from_bytes(b"redundant");
        d.write_page(0, &p).unwrap();
        d.decay_b(0);
        // The lazy repair write itself crashes: the read fails, B stays torn,
        // A is untouched.
        plan.arm_after_writes(0);
        assert!(d.read_page(0).unwrap_err().is_crash());
        assert!(d.a.is_good(0));
        assert!(!d.b.is_good(0));
        plan.heal();
        // Next read-path visit finishes the repair.
        let mut d = MirroredDisk::from_media(
            d.into_media(),
            plan.clone(),
            SimClock::new(),
            CostModel::fast(),
        );
        assert_eq!(d.read_page(0).unwrap(), p);
        assert!(d.b.is_good(0));

        // Same story on the fallback path: A bad, repair-from-B crashes.
        d.decay_a(0);
        plan.arm_after_writes(0);
        assert!(d.read_page(0).unwrap_err().is_crash());
        assert!(!d.a.is_good(0));
        assert!(d.b.is_good(0));
        plan.heal();
        let mut d =
            MirroredDisk::from_media(d.into_media(), plan, SimClock::new(), CostModel::fast());
        assert_eq!(d.read_page(0).unwrap(), p);
        assert!(d.a.is_good(0));
    }

    #[test]
    fn decay_page_hook_decays_one_leg() {
        let mut d = disk();
        let p = Page::from_bytes(b"decay me");
        d.write_page(0, &p).unwrap();
        assert!(d.decay_page(0));
        assert!(!d.a.is_good(0));
        assert_eq!(d.read_page(0).unwrap(), p);
        assert!(d.a.is_good(0));
    }

    #[test]
    fn decay_never_takes_the_last_good_copy() {
        // Found by the crash-schedule sweeper: a crash mid-write tears one
        // leg; a frontier decay that then took the OTHER leg would destroy
        // both copies — a double failure the Lampson–Sturgis model excludes.
        let plan = FaultPlan::new();
        let mut d = MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast());
        d.write_page(0, &Page::from_bytes(b"old")).unwrap();
        // Budget 1: the crash lands on the second raw write — leg B tears,
        // leg A already holds the new value.
        plan.arm_after_writes(1);
        assert!(d
            .write_page(0, &Page::from_bytes(b"new"))
            .unwrap_err()
            .is_crash());
        plan.heal();
        let mut d =
            MirroredDisk::from_media(d.into_media(), plan, SimClock::new(), CostModel::fast());
        assert!(!d.b.is_good(0));
        // Decay must land on the already-torn leg, never the last good copy.
        assert!(d.decay_page(0));
        assert!(d.a.is_good(0));
        assert_eq!(d.read_page(0).unwrap(), Page::from_bytes(b"new"));
        assert!(d.b.is_good(0), "the read repaired the torn leg");
    }

    #[test]
    fn operations_fail_while_down() {
        let plan = FaultPlan::new();
        let mut d = MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast());
        d.write_page(0, &Page::zeroed()).unwrap();
        plan.arm_after_writes(0);
        let _ = d.write_page(0, &Page::zeroed());
        assert!(d.read_page(0).unwrap_err().is_crash());
        assert!(d.sync().unwrap_err().is_crash());
    }

    #[test]
    fn scrub_repairs_latent_decay() {
        let mut d = disk();
        for pno in 0..8 {
            d.write_page(pno, &Page::from_bytes(&[pno as u8])).unwrap();
        }
        d.decay_a(3);
        d.decay_b(6);
        d.scrub().unwrap();
        // After the scrub both copies of every page are good again.
        d.decay_b(3); // kill the OTHER copy; page must still read via A
        assert_eq!(d.read_page(3).unwrap(), Page::from_bytes(&[3]));
    }

    #[test]
    fn stats_count_one_logical_write_with_raw_legs_reported_separately() {
        let mut d = disk();
        d.write_page(0, &Page::zeroed()).unwrap();
        let s = d.stats().snapshot();
        // One logical write — mirrored legs no longer double-count…
        assert_eq!(s.writes(), 1);
        // …but the device was busy for both raw writes…
        assert_eq!(s.busy_us, 2 * CostModel::fast().seq_write_us);
        // …and each leg's raw tally is still visible.
        let (a, b) = d.leg_stats();
        assert_eq!(a.writes(), 1);
        assert_eq!(b.writes(), 1);
    }

    #[test]
    fn fallback_read_counts_one_logical_read() {
        let mut d = disk();
        let p = Page::from_bytes(b"x");
        d.write_page(0, &p).unwrap();
        let before = d.stats().snapshot();
        d.decay_a(0);
        assert_eq!(d.read_page(0).unwrap(), p);
        let delta = d.stats().snapshot().since(&before);
        // A-read failed, B-read repaired: still one logical read, with the
        // retry's time accounted and the raw read visible on leg B.
        assert_eq!(delta.reads(), 1);
        assert_eq!(delta.busy_us, 2 * CostModel::fast().seq_read_us);
        let (_, b) = d.leg_stats();
        assert_eq!(b.reads(), 1);
    }
}
