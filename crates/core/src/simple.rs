//! The simple-log format (ch. 3).

use crate::compact;
use crate::entry::{EntryOut, WireField};
use crate::log::{LogFormat, LogIo, LogRs, OpenPass};
use crate::restore::{scan_backward, RecoverCtx};
use crate::RsResult;
use argus_objects::{ActionId, Heap, ObjKind, Uid};
use argus_sim::IntSet;
use argus_slog::StableLog;
use argus_stable::PageStore;

/// The recovery system over a simple log: writing per §3.3, recovery per
/// §3.4.4 (read *every* entry backwards). Fast writing, slow recovery; no
/// early prepare. Housekeeping is log compaction in the simple-log idiom
/// (`compact.rs`).
pub type SimpleLogRs<P> = LogRs<P, SimpleFormat>;

/// The simple-log format: data entries carry uid, kind and aid (Figure 3-1),
/// nothing is chained, and there is no volatile state beyond the AS and PAT.
#[derive(Debug, Clone, Default)]
pub struct SimpleFormat;

/// A compacted entry lands on the new log as it stands.
impl compact::Emit for SimpleFormat {}

impl LogFormat for SimpleFormat {
    type Pass = ();

    const NO_SNAPSHOT: Option<&'static str> =
        Some("snapshot housekeeping on the simple log (§5.2 needs the MT)");

    fn data<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        uid: Uid,
        kind: ObjKind,
        value: V,
        aid: ActionId,
    ) -> RsResult<()> {
        let entry = EntryOut::Data {
            uid,
            kind,
            value,
            aid,
        };
        io.append_data(&entry).map(drop)
    }

    fn special<S: PageStore, V: WireField>(
        &mut self,
        io: &mut LogIo<S>,
        _writer: ActionId,
        entry: EntryOut<'_, V>,
    ) -> RsResult<()> {
        io.append_special(&entry).map(drop)
    }

    fn walk<S: PageStore>(&mut self, io: &mut LogIo<S>, ctx: &mut RecoverCtx<'_>) -> RsResult<()> {
        scan_backward(&mut io.log, ctx, |_, _, _| {})
    }

    fn stage_one<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        store: S,
        marker: u64,
        _heap: &Heap,
        _mode: crate::HousekeepingMode,
        _pat: &IntSet<ActionId>,
    ) -> RsResult<(StableLog<S>, ())> {
        let new_log = compact::stage_one(&mut io.log, store, marker, self)?;
        Ok((new_log, ()))
    }

    fn stage_two<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        pass: &mut OpenPass<S, ()>,
    ) -> RsResult<()> {
        compact::stage_two(&mut io.log, &mut pass.new_log, pass.marker, self)
    }
}
