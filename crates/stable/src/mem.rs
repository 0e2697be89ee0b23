//! An in-memory page store.

use crate::store::SeqTracker;
use crate::{FaultPlan, Page, PageNo, PageStore, StorageResult};
use argus_sim::{CostModel, DeviceStats, OpKind, SimClock};

/// An always-good in-memory page store.
///
/// Used where media decay is not under test: benchmarks and node-crash
/// experiments. It still charges simulated I/O cost and still honours an
/// optional [`FaultPlan`] so whole-node crashes can be injected cheaply, and
/// its contents survive such a crash (they stand in for the platter).
#[derive(Debug)]
pub struct MemStore {
    pages: Vec<Page>,
    plan: Option<FaultPlan>,
    stats: DeviceStats,
    clock: SimClock,
    model: CostModel,
    tracker: SeqTracker,
}

impl MemStore {
    /// Creates an empty store with no fault injection.
    pub fn new(clock: SimClock, model: CostModel) -> Self {
        Self {
            pages: Vec::new(),
            plan: None,
            stats: DeviceStats::new(),
            clock,
            model,
            tracker: SeqTracker::default(),
        }
    }

    /// Creates an empty store that consults `plan` on every operation.
    pub fn with_fault_plan(plan: FaultPlan, clock: SimClock, model: CostModel) -> Self {
        Self {
            plan: Some(plan),
            ..Self::new(clock, model)
        }
    }

    /// Extracts the durable contents (what survives a simulated crash).
    pub fn into_media(self) -> Vec<Page> {
        self.pages
    }

    /// Rebuilds a store over surviving contents after a restart.
    pub fn from_media(
        pages: Vec<Page>,
        plan: Option<FaultPlan>,
        clock: SimClock,
        model: CostModel,
    ) -> Self {
        Self {
            pages,
            plan,
            stats: DeviceStats::new(),
            clock,
            model,
            tracker: SeqTracker::default(),
        }
    }
}

impl PageStore for MemStore {
    fn read_page(&mut self, pno: PageNo) -> StorageResult<Page> {
        let mut page = Page::zeroed();
        self.read_page_into(pno, page.as_mut_slice())?;
        Ok(page)
    }

    fn read_page_into(&mut self, pno: PageNo, out: &mut [u8]) -> StorageResult<()> {
        if let Some(plan) = &self.plan {
            plan.note_read_at(pno)?;
        }
        let kind = if self.tracker.classify(pno) {
            OpKind::SeqRead
        } else {
            OpKind::RandRead
        };
        self.stats.charge(kind, &self.model, &self.clock);
        match self.pages.get(pno as usize) {
            Some(p) => out.copy_from_slice(p.as_slice()),
            None => out.fill(0),
        }
        Ok(())
    }

    fn write_page(&mut self, pno: PageNo, page: &Page) -> StorageResult<()> {
        if let Some(plan) = &self.plan {
            plan.note_write_at(pno)?;
        }
        let kind = if self.tracker.classify(pno) {
            OpKind::SeqWrite
        } else {
            OpKind::RandWrite
        };
        self.stats.charge(kind, &self.model, &self.clock);
        while self.pages.len() <= pno as usize {
            self.pages.push(Page::zeroed());
        }
        self.pages[pno as usize] = page.clone();
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn sync(&mut self) -> StorageResult<()> {
        if let Some(plan) = &self.plan {
            plan.note_force()?;
        }
        self.stats.charge(OpKind::Force, &self.model, &self.clock);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MemStore {
        MemStore::new(SimClock::new(), CostModel::fast())
    }

    #[test]
    fn roundtrip_and_growth() {
        let mut s = store();
        let p = Page::from_bytes(b"abc");
        s.write_page(9, &p).unwrap();
        assert_eq!(s.page_count(), 10);
        assert_eq!(s.read_page(9).unwrap(), p);
        assert_eq!(s.read_page(4).unwrap(), Page::zeroed());
    }

    #[test]
    fn reads_past_end_are_zero() {
        let mut s = store();
        assert_eq!(s.read_page(100).unwrap(), Page::zeroed());
        assert_eq!(s.page_count(), 0);
    }

    #[test]
    fn fault_plan_crashes_the_store() {
        let plan = FaultPlan::new();
        let mut s = MemStore::with_fault_plan(plan.clone(), SimClock::new(), CostModel::fast());
        s.write_page(0, &Page::zeroed()).unwrap();
        plan.arm_after_writes(0);
        assert!(s.write_page(1, &Page::zeroed()).unwrap_err().is_crash());
        assert!(s.read_page(0).unwrap_err().is_crash());
        plan.heal();
        // Contents written before the crash survive.
        assert_eq!(s.read_page(0).unwrap(), Page::zeroed());
        assert_eq!(s.page_count(), 1);
    }

    #[test]
    fn media_survive_restart() {
        let mut s = store();
        let p = Page::from_bytes(b"durable");
        s.write_page(2, &p).unwrap();
        let media = s.into_media();
        let mut s = MemStore::from_media(media, None, SimClock::new(), CostModel::fast());
        assert_eq!(s.read_page(2).unwrap(), p);
    }
}
