//! Log compaction for the flat formats (§5.1 in the simple-log idiom).
//!
//! The digest is re-expressed with the flat entry forms recovery already
//! understands (`base_committed`, `prepared_data`, plain data entries), so
//! the compacted log is still an ordinary log of its format. The simple and
//! redo logs share the algorithm and differ in how an entry lands on the new
//! log ([`Emit`]): as it stands for the simple log, with a backlink rewrite
//! plus chain tracking for the redo log.

use crate::entry::{decode_entry_view, Entry, EntryRef, WireField};
use crate::log::append_entry;
use crate::restore::{scan_backward, RecoverCtx};
use crate::tables::{ObjState, PState};
use crate::RsResult;
use argus_objects::{ActionId, GuardianId, Heap, ObjKind, ObjectBody, Uid, Value};
use argus_slog::StableLog;
use argus_stable::PageStore;

/// How a compacted entry — a digest entry stage one builds, or a view of a
/// tail record stage two carries over — lands on the new log.
pub(crate) trait Emit {
    /// Lands `entry` on `new_log`; as it stands unless the format says
    /// otherwise.
    fn emit<S: PageStore, V: WireField, P: WireField, G: WireField>(
        &mut self,
        new_log: &mut StableLog<S>,
        entry: Entry<V, P, G>,
    ) -> RsResult<()> {
        append_entry(new_log, &entry).map(drop)
    }
}

/// Stage one: digests the old log exactly like a recovery, into a scratch
/// heap, and emits the digest onto a new log over `store`.
pub(crate) fn stage_one<S: PageStore>(
    log: &mut StableLog<S>,
    store: S,
    marker: u64,
    emit: &mut impl Emit,
) -> RsResult<StableLog<S>> {
    // resolve_uid_refs is deliberately skipped so the restored values keep
    // their uid-reference encoding and can be re-logged verbatim.
    let mut scratch = Heap::new();
    let mut ctx = RecoverCtx::new(&mut scratch);
    scan_backward(log, &mut ctx, |_, _, _| {})?;
    let mut new_log = StableLog::create(store)?;

    // Deterministic emission: tables are hash maps, so sort everything.
    let mut uids: Vec<Uid> = ctx.ot.iter().map(|(u, _)| *u).collect();
    uids.sort();

    // Committed atomic bases, prepared (in-doubt) versions, and mutex
    // values, straight from the scratch heap.
    let mut prepared_versions: Vec<(ActionId, Uid, &Value)> = Vec::new();
    let mut mutex_values: Vec<(Uid, &Value)> = Vec::new();
    for uid in uids {
        let entry = ctx.ot.get(uid).expect("uid came from the OT");
        match &ctx.heap.get(entry.heap)?.body {
            ObjectBody::Atomic(obj) => {
                if entry.state == ObjState::Restored {
                    let base = EntryRef::BaseCommitted {
                        uid,
                        value: &obj.base,
                        prev: None,
                    };
                    emit.emit(&mut new_log, base)?;
                }
                if let (Some(writer), Some(cur)) = (obj.writer, &obj.current) {
                    prepared_versions.push((writer, uid, cur));
                }
            }
            ObjectBody::Mutex(obj) => mutex_values.push((uid, &obj.value)),
        }
    }

    // Mutex values compact as *committed* state regardless of their
    // writers' outcomes (§2.4.2: a mutex keeps its newest value). They are
    // re-logged as the data entries of a synthetic committed action — "like
    // a combined prepare and commit for some special action whose name does
    // not matter" (§5.1.1) — so the compacted log stays an ordinary log.
    let bare_prepared = |aid| EntryRef::Prepared {
        aid,
        pairs: &[],
        prev: None,
    };
    if !mutex_values.is_empty() {
        let aid = ActionId::new(GuardianId(u32::MAX), marker);
        emit.emit(&mut new_log, bare_prepared(aid))?;
        for (uid, value) in mutex_values {
            let data = EntryRef::Data {
                uid,
                kind: ObjKind::Mutex,
                value,
                aid,
            };
            emit.emit(&mut new_log, data)?;
        }
        emit.emit(&mut new_log, EntryRef::Committed { aid, prev: None })?;
    }

    // In-doubt actions survive compaction: their prepared versions as
    // `prepared_data`, plus a bare `prepared` entry so a participant whose
    // writes were all mutexes still remembers it prepared.
    prepared_versions.sort_by_key(|v| (v.0, v.1));
    for (aid, uid, value) in prepared_versions {
        if ctx.pt.get(aid) == Some(PState::Prepared) {
            let version = EntryRef::PreparedData {
                uid,
                value,
                aid,
                prev: None,
            };
            emit.emit(&mut new_log, version)?;
        }
    }
    for aid in ctx.pt.prepared_actions() {
        emit.emit(&mut new_log, bare_prepared(aid))?;
    }

    // Coordinators still in phase two.
    for (aid, gids) in ctx.ct.committing_actions() {
        let committing = EntryRef::Committing {
            aid,
            gids: &gids,
            prev: None,
        };
        emit.emit(&mut new_log, committing)?;
    }
    Ok(new_log)
}

/// Stage two: carries everything written since the marker onto the new log.
/// Flat entries are self-describing, so recovery interprets the copies
/// exactly as it did the originals. Each record is carried as a view: its
/// value travels as the bytes it already is.
pub(crate) fn stage_two<S: PageStore>(
    log: &mut StableLog<S>,
    new_log: &mut StableLog<S>,
    marker: u64,
    emit: &mut impl Emit,
) -> RsResult<()> {
    let mut tail = Vec::new();
    for item in log.read_backward(None) {
        let (_addr, seq, payload) = item?;
        if seq < marker {
            break;
        }
        tail.push(payload);
    }
    for payload in tail.into_iter().rev() {
        emit.emit(new_log, decode_entry_view(&payload)?)?;
    }
    Ok(())
}
