//! Log compaction for the flat formats (§5.1 in the simple-log idiom).
//!
//! The digest is re-expressed with the flat entry forms recovery already
//! understands (`base_committed`, `prepared_data`, plain data entries), so
//! the compacted log is still an ordinary log of its format. The simple and
//! redo logs share the algorithm and differ in how an entry lands on the new
//! log: `emit` is a plain encode-and-write for the simple log and a backlink
//! rewrite plus chain tracking for the redo log.

use crate::entry::{decode_entry, LogEntry};
use crate::restore::RecoverCtx;
use crate::tables::{ObjState, PState};
use crate::RsResult;
use argus_objects::{ActionId, GuardianId, Heap, ObjKind, ObjectBody, Uid, Value};
use argus_slog::StableLog;
use argus_stable::PageStore;

/// Stage one: digests the old log with `scan` exactly like a recovery, into
/// a scratch heap, and emits the digest onto a new log over `store`.
pub(crate) fn stage_one<S: PageStore>(
    log: &mut StableLog<S>,
    store: S,
    marker: u64,
    scan: impl FnOnce(&mut StableLog<S>, &mut RecoverCtx<'_>) -> RsResult<()>,
    emit: &mut impl FnMut(&mut StableLog<S>, LogEntry) -> RsResult<()>,
) -> RsResult<StableLog<S>> {
    // resolve_uid_refs is deliberately skipped so the restored values keep
    // their uid-reference encoding and can be re-logged verbatim.
    let mut scratch = Heap::new();
    let mut ctx = RecoverCtx::new(&mut scratch);
    scan(log, &mut ctx)?;
    let mut new_log = StableLog::create(store)?;

    // Deterministic emission: tables are hash maps, so sort everything.
    let mut uids: Vec<Uid> = ctx.ot.iter().map(|(u, _)| *u).collect();
    uids.sort();

    // Committed atomic bases, prepared (in-doubt) versions, and mutex
    // values, straight from the scratch heap.
    let mut prepared_versions: Vec<(ActionId, Uid, Value)> = Vec::new();
    let mut mutex_values: Vec<(Uid, Value)> = Vec::new();
    for uid in uids {
        let entry = ctx.ot.get(uid).expect("uid came from the OT");
        match &ctx.heap.get(entry.heap)?.body {
            ObjectBody::Atomic(obj) => {
                if entry.state == ObjState::Restored {
                    let base = LogEntry::BaseCommitted {
                        uid,
                        value: obj.base.clone(),
                        prev: None,
                    };
                    emit(&mut new_log, base)?;
                }
                if let (Some(writer), Some(cur)) = (obj.writer, &obj.current) {
                    prepared_versions.push((writer, uid, cur.clone()));
                }
            }
            ObjectBody::Mutex(obj) => mutex_values.push((uid, obj.value.clone())),
        }
    }

    // Mutex values compact as *committed* state regardless of their
    // writers' outcomes (§2.4.2: a mutex keeps its newest value). They are
    // re-logged as the data entries of a synthetic committed action — "like
    // a combined prepare and commit for some special action whose name does
    // not matter" (§5.1.1) — so the compacted log stays an ordinary log.
    let bare_prepared = |aid| LogEntry::Prepared {
        aid,
        pairs: Vec::new(),
        prev: None,
    };
    if !mutex_values.is_empty() {
        let aid = ActionId::new(GuardianId(u32::MAX), marker);
        emit(&mut new_log, bare_prepared(aid))?;
        for (uid, value) in mutex_values {
            let data = LogEntry::Data {
                uid,
                kind: ObjKind::Mutex,
                value,
                aid,
            };
            emit(&mut new_log, data)?;
        }
        emit(&mut new_log, LogEntry::Committed { aid, prev: None })?;
    }

    // In-doubt actions survive compaction: their prepared versions as
    // `prepared_data`, plus a bare `prepared` entry so a participant whose
    // writes were all mutexes still remembers it prepared.
    prepared_versions.sort_by_key(|v| (v.0, v.1));
    for (aid, uid, value) in prepared_versions {
        if ctx.pt.get(aid) == Some(PState::Prepared) {
            let version = LogEntry::PreparedData {
                uid,
                value,
                aid,
                prev: None,
            };
            emit(&mut new_log, version)?;
        }
    }
    for aid in ctx.pt.prepared_actions() {
        emit(&mut new_log, bare_prepared(aid))?;
    }

    // Coordinators still in phase two.
    for (aid, gids) in ctx.ct.committing_actions() {
        let committing = LogEntry::Committing {
            aid,
            gids,
            prev: None,
        };
        emit(&mut new_log, committing)?;
    }
    Ok(new_log)
}

/// Stage two: carries everything written since the marker onto the new log.
/// Flat entries are self-describing, so recovery interprets the copies
/// exactly as it did the originals.
pub(crate) fn stage_two<S: PageStore>(
    log: &mut StableLog<S>,
    new_log: &mut StableLog<S>,
    marker: u64,
    emit: &mut impl FnMut(&mut StableLog<S>, LogEntry) -> RsResult<()>,
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
        emit(new_log, decode_entry(&payload)?)?;
    }
    Ok(())
}
