//! The simple-log format (ch. 3).

use crate::compact;
use crate::entry::{decode_entry_view, encode_entry, EntryRef, EntryView, LogEntry};
use crate::log::{LogFormat, LogIo, LogRs, OpenPass};
use crate::restore::RecoverCtx;
use crate::tables::ObjState;
use crate::{RsError, RsResult};
use argus_objects::{ActionId, Heap, ObjKind, Uid, Value};
use argus_slog::{LogAddress, StableLog};
use argus_stable::PageStore;
use std::collections::HashSet;

/// The recovery system over a simple log: writing per §3.3, recovery per
/// §3.4.4 (read *every* entry backwards). Fast writing, slow recovery; no
/// early prepare. Housekeeping is log compaction in the simple-log idiom
/// ([`crate::compact`]).
pub type SimpleLogRs<P> = LogRs<P, SimpleFormat>;

/// The simple-log format: data entries carry uid, kind and aid (Figure 3-1),
/// nothing is chained, and there is no volatile state beyond the AS and PAT.
#[derive(Debug, Default)]
pub struct SimpleFormat;

/// Lands a compacted entry on the new log as it stands.
fn write_plain<S: PageStore>(new_log: &mut StableLog<S>, entry: LogEntry) -> RsResult<()> {
    new_log.write(&encode_entry(&entry)?);
    Ok(())
}

impl LogFormat for SimpleFormat {
    type Pass = ();

    const NO_SNAPSHOT: Option<&'static str> =
        Some("snapshot housekeeping on the simple log (§5.2 needs the MT)");

    fn data<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        uid: Uid,
        kind: ObjKind,
        value: &Value,
        aid: ActionId,
    ) -> RsResult<()> {
        let entry = EntryRef::Data {
            uid,
            kind,
            value,
            aid,
        };
        io.append_data(&entry).map(drop)
    }

    fn special<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        _writer: ActionId,
        entry: EntryRef<'_>,
    ) -> RsResult<()> {
        io.append_special(&entry).map(drop)
    }

    fn walk<S: PageStore>(&mut self, io: &mut LogIo<S>, ctx: &mut RecoverCtx<'_>) -> RsResult<()> {
        scan_log(&mut io.log, ctx)
    }

    fn stage_one<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        store: S,
        marker: u64,
        _heap: &Heap,
        _mode: crate::HousekeepingMode,
        _pat: &HashSet<ActionId>,
    ) -> RsResult<(StableLog<S>, ())> {
        let new_log = compact::stage_one(&mut io.log, store, marker, scan_log, &mut write_plain)?;
        Ok((new_log, ()))
    }

    fn stage_two<S: PageStore>(
        &mut self,
        io: &mut LogIo<S>,
        pass: &mut OpenPass<S, ()>,
    ) -> RsResult<()> {
        compact::stage_two(
            &mut io.log,
            &mut pass.new_log,
            pass.marker,
            &mut write_plain,
        )
    }
}

/// The §3.4.4 backward scan: feeds every forced entry (newest first)
/// through `ctx`, including the deferred committed_ss handling. Shared
/// between recovery and compaction stage one, which is
/// "like a recovery" (§5.1.1) but digests into a scratch heap.
fn scan_log<S: PageStore>(log: &mut StableLog<S>, ctx: &mut RecoverCtx<'_>) -> RsResult<()> {
    // Deferred committed_ss pairs (only present if someone recovers a
    // compacted hybrid log with the simple algorithm).
    let mut deferred_cssl: Vec<(Uid, LogAddress)> = Vec::new();

    // Step 2: read the log backwards, every entry. Records are decoded
    // as zero-copy views: versions of superseded or wiped-out writes are
    // validated but never materialized.
    let mut walk = log.walk_backward(None);
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
        log.read_into(addr, &mut scratch)?;
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
