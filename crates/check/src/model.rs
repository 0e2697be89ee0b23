//! The explorer's model log: a [`RecoverySystem`] whose records are values.

use argus_core::{
    decode_entry_view, encode_entry, HousekeepingMode, LogEntry, LogStats, PState, RecoverCtx,
    RecoveryOutcome, RecoverySystem, RsError, RsResult,
};
use argus_objects::{ActionId, GuardianId, Heap, HeapId};
use argus_slog::LogAddress;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

const DATA_START: u64 = 512;
const ENTRY_SPACING: u64 = 64;

/// A recovery system over a list of real [`LogEntry`] values at synthesized
/// addresses, written the hybrid log's way (a data entry per object, its
/// `(uid, address)` pair in the `prepared` record, outcome records chained
/// backwards). Staged records wait in a volatile buffer that a force
/// publishes and a crash loses; forced ones sit behind an [`Rc`], so
/// cloning the log — once per guardian per explored state — is a refcount
/// bump and a short copy. Recovery feeds the forced records, newest first,
/// through `core`'s own restore rules ([`RecoverCtx`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ModelRs {
    forced: Rc<Vec<(LogAddress, LogEntry)>>,
    staged: Vec<(LogAddress, LogEntry)>,
    /// A hash of `forced`, kept current by every force.
    forced_hash: u64,
    /// The next `stage_prepare` fails without a crash, as a prepare that
    /// cannot be written does: its participant refuses the vote. A fault the
    /// driver arms between steps through the guardian's shared reference.
    pub(crate) refuse_prepare: Cell<bool>,
}

impl Hash for ModelRs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.forced_hash, &self.staged, self.refuse_prepare.get()).hash(state);
    }
}

impl ModelRs {
    /// The forced records, oldest first.
    pub(crate) fn forced(&self) -> &[(LogAddress, LogEntry)] {
        &self.forced
    }

    /// A hash of the forced records: equal logs hash equal.
    pub(crate) fn forced_hash(&self) -> u64 {
        self.forced_hash
    }

    fn stage(&mut self, mut entry: LogEntry) -> LogAddress {
        let records = self.forced.iter().chain(&self.staged);
        let addr = LogAddress(DATA_START + ENTRY_SPACING * records.clone().count() as u64);
        if entry.is_outcome() {
            let last = records.rev().find(|(_, e)| e.is_outcome());
            entry.set_prev(last.map(|(at, _)| *at));
        }
        self.staged.push((addr, entry));
        addr
    }
}

impl RecoverySystem for ModelRs {
    fn stage_prepare(&mut self, aid: ActionId, mos: &[HeapId], heap: &Heap) -> RsResult<bool> {
        if self.refuse_prepare.take() {
            return Err(RsError::BadState(format!("{aid}'s prepare is refused")));
        }
        let mut pairs = Vec::new();
        for &h in mos {
            let (slot, value) = (heap.get(h)?, heap.read_value(h, Some(aid))?.clone());
            let kind = slot.body.kind();
            pairs.push((slot.uid, self.stage(LogEntry::DataH { kind, value })));
        }
        let prev = None;
        self.stage(LogEntry::Prepared { aid, pairs, prev });
        Ok(true)
    }

    fn stage_commit(&mut self, aid: ActionId) -> RsResult<bool> {
        self.stage(LogEntry::Committed { aid, prev: None });
        Ok(true)
    }

    fn stage_abort(&mut self, aid: ActionId) -> RsResult<bool> {
        self.stage(LogEntry::Aborted { aid, prev: None });
        Ok(true)
    }

    fn stage_committing(&mut self, aid: ActionId, gids: &[GuardianId]) -> RsResult<bool> {
        let gids = gids.to_vec();
        self.stage(LogEntry::Committing {
            aid,
            gids,
            prev: None,
        });
        Ok(true)
    }

    fn stage_done(&mut self, aid: ActionId) -> RsResult<bool> {
        self.stage(LogEntry::Done { aid, prev: None });
        Ok(true)
    }

    fn force_staged(&mut self) -> RsResult<()> {
        if !self.staged.is_empty() {
            Rc::make_mut(&mut self.forced).append(&mut self.staged);
            let mut h = DefaultHasher::new();
            self.forced.hash(&mut h);
            self.forced_hash = h.finish();
        }
        Ok(())
    }

    fn write_entry(&mut self, _: ActionId, _: &[HeapId], _: &Heap) -> RsResult<Vec<HeapId>> {
        Err(RsError::Unsupported("early prepare on the model log"))
    }

    fn recover(&mut self, heap: &mut Heap) -> RsResult<RecoveryOutcome> {
        let mut ctx = RecoverCtx::new(heap);
        let mut checkpoints = Vec::new();
        for (addr, entry) in self.forced.iter().rev() {
            let record = encode_entry(entry)?;
            ctx.on_entry(*addr, &decode_entry_view(&record)?, &mut checkpoints)?;
        }
        Ok(ctx.into_outcome())
    }

    fn begin_housekeeping(&mut self, _: &Heap, _: HousekeepingMode) -> RsResult<()> {
        Err(RsError::Unsupported("housekeeping on the model log"))
    }

    fn finish_housekeeping(&mut self) -> RsResult<()> {
        Err(RsError::Unsupported("housekeeping on the model log"))
    }

    fn simulate_crash(&mut self) -> RsResult<()> {
        self.staged.clear();
        Ok(())
    }

    fn trim_access_set(&mut self, _: &Heap) {}

    fn is_prepared(&self, aid: ActionId) -> bool {
        let recovered = self.clone().recover(&mut Heap::new());
        recovered.is_ok_and(|outcome| outcome.pt.get(aid) == Some(PState::Prepared))
    }

    fn log_stats(&self) -> LogStats {
        LogStats {
            entries: self.forced.len() as u64,
            ..LogStats::default()
        }
    }
}
