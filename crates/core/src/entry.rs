//! The log entry format (Figure 3-1 for the simple log, Figure 4-1 for the
//! hybrid log, plus the redo data entry) and its on-log encoding.
//!
//! The eleven entry kinds are listed once, as [`Entry`], generic over how an
//! entry holds its three variable-length fields: a flattened value, a
//! `(uid, log address)` pair list and a guardian-id list. Three forms exist:
//!
//! * [`LogEntry`] **owns** them (`Value`, `Vec`s). It is what log dumps, the
//!   checker and tests hold; nothing on the commit or restart path builds one.
//! * [`EntryRef`] **borrows** them (`&Value`, slices). The write path names
//!   the values it already holds and encodes straight into the log's pending
//!   buffer, so a record write allocates nothing.
//! * [`EntryView`] is **lazily decoded**: [`decode_entry_view`] validates the
//!   whole payload but leaves the three fields as spans of it ([`RawValue`],
//!   [`PairsView`], [`GidsView`]). Recovery and housekeeping read records
//!   this way and materialize a `Value` only for a version they keep.
//!
//! The tag table and every kind's field order live only in this file, in one
//! encoder ([`encode_entry_into`], which takes any form — re-encoding a view
//! copies its spans and reproduces the payload byte for byte) and one decoder
//! ([`decode_entry_view`]; [`decode_entry`] is that plus the field-wise
//! conversion that also serves [`LogEntry::as_entry_ref`]).

use crate::{RsError, RsResult};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, ObjKind, ObjRef, Uid, Value};
use argus_slog::{CodecError, CodecResult, Decoder, Encoder, LogAddress};
use std::convert::Infallible;

/// One log entry, holding its value as a `V`, its pair list as a `P` and its
/// guardian list as a `G`.
///
/// Data entries carry object versions; outcome entries record action states.
/// The hybrid log adds to every outcome entry a `prev` pointer forming the
/// backward chain of outcome entries, and moves the `(uid, log address)` map
/// fragment into the `prepared` entry (§4.2). Simple-log entries simply leave
/// `prev` as `None` and `pairs` empty, so one type serves both organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entry<V, P, G> {
    /// Simple-log data entry: `<uid, kind, version, aid>` (Figure 3-1).
    Data {
        /// The recoverable object's uid.
        uid: Uid,
        /// Atomic or mutex.
        kind: ObjKind,
        /// The flattened object version.
        value: V,
        /// The preparing action that wrote the entry.
        aid: ActionId,
    },
    /// Hybrid-log data entry: "data entries no longer need the action ids
    /// and object uids since the prepared outcome entries contain that
    /// information" (§4.2).
    DataH {
        /// Atomic or mutex.
        kind: ObjKind,
        /// The flattened object version.
        value: V,
    },
    /// Redo-log data entry (the REDO-only fourth organization): like
    /// [`Entry::Data`] it is self-describing, but it additionally carries
    /// a per-object *backlink* — the log address of the previous committed
    /// version of the same object — so recovery can walk one object's
    /// version chain without scanning the whole log.
    DataR {
        /// The recoverable object's uid.
        uid: Uid,
        /// Atomic or mutex.
        kind: ObjKind,
        /// The flattened object version.
        value: V,
        /// The preparing action that wrote the entry.
        aid: ActionId,
        /// Backlink to the previous version of *this object* (`None` for
        /// the first version). This is a per-object chain, distinct from
        /// the hybrid log's per-log outcome chain.
        back: Option<LogAddress>,
    },
    /// Participant outcome: the action has prepared. In the hybrid log,
    /// `pairs` is this action's fragment of the shadowing map.
    Prepared {
        /// The prepared action.
        aid: ActionId,
        /// `(uid, data-entry address)` for every object the action wrote.
        pairs: P,
        /// Backward chain pointer (hybrid log only).
        prev: Option<LogAddress>,
    },
    /// Participant outcome: the action committed.
    Committed {
        /// The committed action.
        aid: ActionId,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
    /// Participant outcome: the action aborted.
    Aborted {
        /// The aborted action.
        aid: ActionId,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
    /// Special participant outcome for a newly accessible object's base
    /// version: "akin to writing not only the data entry, but also a
    /// prepared outcome entry followed by a committed outcome entry" (§3.2).
    /// The object is always atomic, so no kind field is needed.
    BaseCommitted {
        /// The newly accessible object.
        uid: Uid,
        /// Its flattened base version.
        value: V,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
    /// Special participant outcome for a newly accessible object's current
    /// version written by *another*, already-prepared action (§3.3.3.2).
    PreparedData {
        /// The newly accessible object.
        uid: Uid,
        /// Its flattened current version.
        value: V,
        /// The already-prepared action that holds the write lock.
        aid: ActionId,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
    /// Coordinator outcome: all participants prepared; the action is
    /// committed from this entry on.
    Committing {
        /// The committing action.
        aid: ActionId,
        /// The guardians participating in the action.
        gids: G,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
    /// Coordinator outcome: every participant acknowledged the commit.
    Done {
        /// The finished action.
        aid: ActionId,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
    /// Housekeeping checkpoint (ch. 5): the committed stable state list,
    /// "like a combined prepare and commit for some special action whose
    /// name does not matter".
    CommittedSs {
        /// `(uid, data-entry address)` for the whole committed stable state.
        cssl: P,
        /// Backward chain pointer.
        prev: Option<LogAddress>,
    },
}

/// An entry that owns its fields.
pub type LogEntry = Entry<Value, Vec<(Uid, LogAddress)>, Vec<GuardianId>>;

/// An entry that borrows its fields, for encoding without building a
/// [`LogEntry`] first: the commit hot path encodes straight from the values
/// it already holds (the flattened version, the pending pairs, the
/// participant list) into the log's pending buffer via
/// [`argus_slog::StableLog::write_with`].
pub type EntryRef<'a> = EntryOut<'a, &'a Value>;

/// An entry on the write path: its lists borrowed, its value in whichever
/// form the writer holds it — a flattened `&Value` ([`EntryRef`]) or a
/// [`HeapValue`] flattened as it is encoded.
pub type EntryOut<'a, V> = Entry<V, &'a [(Uid, LogAddress)], &'a [GuardianId]>;

/// A zero-copy decoded entry: fixed fields are materialized, values stay as
/// validated [`RawValue`] spans, and pair / guardian lists stay as
/// slice-backed views. Recovery walks decode with this and touch the heap
/// allocator only for versions they actually restore.
pub type EntryView<'a> = Entry<RawValue<'a>, PairsView<'a>, GidsView<'a>>;

impl<V, P, G> Entry<V, P, G> {
    /// Whether this entry participates in the backward chain of outcome
    /// entries (everything except data entries, §4.2).
    pub fn is_outcome(&self) -> bool {
        !matches!(
            self,
            Self::Data { .. } | Self::DataH { .. } | Self::DataR { .. }
        )
    }

    /// The chain pointer, if this is an outcome entry.
    pub fn prev(&self) -> Option<LogAddress> {
        match self {
            Self::Prepared { prev, .. }
            | Self::Committed { prev, .. }
            | Self::Aborted { prev, .. }
            | Self::BaseCommitted { prev, .. }
            | Self::PreparedData { prev, .. }
            | Self::Committing { prev, .. }
            | Self::Done { prev, .. }
            | Self::CommittedSs { prev, .. } => *prev,
            Self::Data { .. } | Self::DataH { .. } | Self::DataR { .. } => None,
        }
    }

    /// The per-object backlink, if this is a redo data entry.
    pub fn backlink(&self) -> Option<LogAddress> {
        match self {
            Self::DataR { back, .. } => *back,
            _ => None,
        }
    }

    /// Rewrites the chain pointer on an outcome entry (used when chaining an
    /// entry onto a log). No-op on data entries.
    pub fn set_prev(&mut self, new_prev: Option<LogAddress>) {
        match self {
            Self::Prepared { prev, .. }
            | Self::Committed { prev, .. }
            | Self::Aborted { prev, .. }
            | Self::BaseCommitted { prev, .. }
            | Self::PreparedData { prev, .. }
            | Self::Committing { prev, .. }
            | Self::Done { prev, .. }
            | Self::CommittedSs { prev, .. } => *prev = new_prev,
            Self::Data { .. } | Self::DataH { .. } | Self::DataR { .. } => {}
        }
    }

    /// A short tag for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Data { .. } | Self::DataH { .. } | Self::DataR { .. } => "data",
            Self::Prepared { .. } => "prepared",
            Self::Committed { .. } => "committed",
            Self::Aborted { .. } => "aborted",
            Self::BaseCommitted { .. } => "base_committed",
            Self::PreparedData { .. } => "prepared_data",
            Self::Committing { .. } => "committing",
            Self::Done { .. } => "done",
            Self::CommittedSs { .. } => "committed_ss",
        }
    }

    /// The same entry in another form: fixed fields are copied, the one
    /// variable-length field the kind has goes through its conversion.
    fn convert<'s, V2, P2, G2, E>(
        &'s self,
        value: impl FnOnce(&'s V) -> Result<V2, E>,
        pairs: impl FnOnce(&'s P) -> P2,
        gids: impl FnOnce(&'s G) -> G2,
    ) -> Result<Entry<V2, P2, G2>, E> {
        Ok(match *self {
            Self::Data {
                uid,
                kind,
                value: ref v,
                aid,
            } => Entry::Data {
                uid,
                kind,
                value: value(v)?,
                aid,
            },
            Self::DataH { kind, value: ref v } => Entry::DataH {
                kind,
                value: value(v)?,
            },
            Self::DataR {
                uid,
                kind,
                value: ref v,
                aid,
                back,
            } => Entry::DataR {
                uid,
                kind,
                value: value(v)?,
                aid,
                back,
            },
            Self::Prepared {
                aid,
                pairs: ref p,
                prev,
            } => Entry::Prepared {
                aid,
                pairs: pairs(p),
                prev,
            },
            Self::Committed { aid, prev } => Entry::Committed { aid, prev },
            Self::Aborted { aid, prev } => Entry::Aborted { aid, prev },
            Self::BaseCommitted {
                uid,
                value: ref v,
                prev,
            } => Entry::BaseCommitted {
                uid,
                value: value(v)?,
                prev,
            },
            Self::PreparedData {
                uid,
                value: ref v,
                aid,
                prev,
            } => Entry::PreparedData {
                uid,
                value: value(v)?,
                aid,
                prev,
            },
            Self::Committing {
                aid,
                gids: ref g,
                prev,
            } => Entry::Committing {
                aid,
                gids: gids(g),
                prev,
            },
            Self::Done { aid, prev } => Entry::Done { aid, prev },
            Self::CommittedSs { cssl: ref p, prev } => Entry::CommittedSs {
                cssl: pairs(p),
                prev,
            },
        })
    }
}

impl LogEntry {
    /// A borrowed form of this entry for allocation-free encoding.
    pub fn as_entry_ref(&self) -> EntryRef<'_> {
        let borrowed = self.convert(Ok::<_, Infallible>, Vec::as_slice, Vec::as_slice);
        borrowed.unwrap_or_else(|never| match never {})
    }
}

impl EntryView<'_> {
    /// Materializes every field into an owned entry.
    pub fn to_log_entry(&self) -> RsResult<LogEntry> {
        self.convert(RawValue::decode, PairsView::to_vec, GidsView::to_vec)
    }
}

// ---- encoding ------------------------------------------------------------

const TAG_DATA: u8 = 1;
const TAG_DATA_H: u8 = 2;
const TAG_PREPARED: u8 = 3;
const TAG_COMMITTED: u8 = 4;
const TAG_ABORTED: u8 = 5;
const TAG_BASE_COMMITTED: u8 = 6;
const TAG_PREPARED_DATA: u8 = 7;
const TAG_COMMITTING: u8 = 8;
const TAG_DONE: u8 = 9;
const TAG_COMMITTED_SS: u8 = 10;
const TAG_DATA_R: u8 = 11;

const VTAG_UNIT: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_BOOL: u8 = 2;
const VTAG_STR: u8 = 3;
const VTAG_BYTES: u8 = 4;
const VTAG_SEQ: u8 = 5;
const VTAG_REF: u8 = 6;

/// Encodes an object kind as one tag byte.
#[inline]
pub fn put_kind(enc: &mut Encoder, kind: ObjKind) {
    enc.put_u8(match kind {
        ObjKind::Atomic => 0,
        ObjKind::Mutex => 1,
    });
}

/// Decodes what [`put_kind`] wrote.
#[inline]
pub fn take_kind(dec: &mut Decoder<'_>) -> CodecResult<ObjKind> {
    match dec.take_u8()? {
        0 => Ok(ObjKind::Atomic),
        1 => Ok(ObjKind::Mutex),
        tag => Err(CodecError::BadTag {
            tag,
            context: "object kind",
        }),
    }
}

/// Encodes an action id: its coordinator, then its sequence number.
#[inline]
pub fn put_aid(enc: &mut Encoder, aid: ActionId) {
    enc.put_u32(aid.coordinator.0);
    enc.put_u64(aid.seq);
}

/// Decodes what [`put_aid`] wrote.
#[inline]
pub fn take_aid(dec: &mut Decoder<'_>) -> CodecResult<ActionId> {
    let g = dec.take_u32()?;
    let seq = dec.take_u64()?;
    Ok(ActionId::new(GuardianId(g), seq))
}

fn put_prev(enc: &mut Encoder, prev: Option<LogAddress>) {
    // Record offsets start after the superblock page, so 0 is free for None.
    enc.put_u64(prev.map(|a| a.offset()).unwrap_or(0));
}

fn take_prev(dec: &mut Decoder<'_>) -> CodecResult<Option<LogAddress>> {
    let raw = dec.take_u64()?;
    Ok(if raw == 0 {
        None
    } else {
        Some(LogAddress(raw))
    })
}

/// Encodes a flattened value. Volatile references are an error: only
/// flattened values may reach the log.
pub fn encode_value(enc: &mut Encoder, value: &Value) -> RsResult<()> {
    let refuse = |_| {
        Err(RsError::Internal(
            "volatile reference in a value bound for the log",
        ))
    };
    encode_value_with(enc, value, &refuse)
}

/// Encodes `value` with every volatile reference replaced by the uid
/// `uid_of` gives it — the bytes of the flattened value, with no flattened
/// copy made.
fn encode_value_with(
    enc: &mut Encoder,
    value: &Value,
    uid_of: &impl Fn(HeapId) -> RsResult<Uid>,
) -> RsResult<()> {
    match value {
        Value::Unit => enc.put_u8(VTAG_UNIT),
        Value::Int(i) => {
            enc.put_u8(VTAG_INT);
            enc.put_i64(*i);
        }
        Value::Bool(b) => {
            enc.put_u8(VTAG_BOOL);
            enc.put_bool(*b);
        }
        Value::Str(s) => {
            enc.put_u8(VTAG_STR);
            enc.put_str(s);
        }
        Value::Bytes(b) => {
            enc.put_u8(VTAG_BYTES);
            enc.put_bytes(b);
        }
        Value::Seq(items) => {
            enc.put_u8(VTAG_SEQ);
            enc.put_u32(items.len() as u32);
            for item in items {
                encode_value_with(enc, item, uid_of)?;
            }
        }
        Value::Ref(r) => {
            let uid = match r {
                ObjRef::Uid(u) => *u,
                ObjRef::Heap(h) => uid_of(*h)?,
            };
            enc.put_u8(VTAG_REF);
            enc.put_u64(uid.0);
        }
    }
    Ok(())
}

/// Decodes a flattened value.
pub fn decode_value(dec: &mut Decoder<'_>) -> CodecResult<Value> {
    Ok(match dec.take_u8()? {
        VTAG_UNIT => Value::Unit,
        VTAG_INT => Value::Int(dec.take_i64()?),
        VTAG_BOOL => Value::Bool(dec.take_bool()?),
        VTAG_STR => Value::Str(dec.take_str()?.to_owned()),
        VTAG_BYTES => Value::Bytes(dec.take_bytes()?.to_vec()),
        VTAG_SEQ => {
            let n = dec.take_u32()? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(decode_value(dec)?);
            }
            Value::Seq(items)
        }
        VTAG_REF => Value::uid_ref(Uid(dec.take_u64()?)),
        tag => {
            return Err(CodecError::BadTag {
                tag,
                context: "value",
            })
        }
    })
}

/// A variable-length entry field in one of its forms, appended to a record
/// in the field's wire layout: a value as its tagged tree, a list as a `u32`
/// count followed by fixed-stride items.
pub trait WireField {
    /// Appends the field to `enc`.
    fn put(&self, enc: &mut Encoder) -> RsResult<()>;
}

impl WireField for &Value {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        encode_value(enc, self)
    }
}

/// An object version as it sits in the heap, volatile references and all,
/// on its way to the log: it encodes as its flattened form (§2.4.3) —
/// every reference to a recoverable object as that object's uid — without
/// the flattened copy being built.
#[derive(Debug, Clone, Copy)]
pub struct HeapValue<'a> {
    /// The heap the value's volatile references point into.
    pub heap: &'a Heap,
    /// The version.
    pub value: &'a Value,
}

impl WireField for HeapValue<'_> {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        encode_value_with(enc, self.value, &|h| Ok(self.heap.uid_of(h)?))
    }
}

impl WireField for &[(Uid, LogAddress)] {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        enc.put_u32(self.len() as u32);
        for (uid, addr) in *self {
            enc.put_u64(uid.0);
            enc.put_u64(addr.offset());
        }
        Ok(())
    }
}

impl WireField for &[GuardianId] {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        enc.put_u32(self.len() as u32);
        for g in *self {
            enc.put_u32(g.0);
        }
        Ok(())
    }
}

/// Encodes an entry in any form into an existing encoder (typically the
/// log's pending buffer, via [`argus_slog::StableLog::write_with`]).
pub fn encode_entry_into<V: WireField, P: WireField, G: WireField>(
    enc: &mut Encoder,
    entry: &Entry<V, P, G>,
) -> RsResult<()> {
    match *entry {
        Entry::Data {
            uid,
            kind,
            ref value,
            aid,
        } => {
            enc.put_u8(TAG_DATA);
            enc.put_u64(uid.0);
            put_kind(enc, kind);
            put_aid(enc, aid);
            value.put(enc)?;
        }
        Entry::DataH { kind, ref value } => {
            enc.put_u8(TAG_DATA_H);
            put_kind(enc, kind);
            value.put(enc)?;
        }
        Entry::DataR {
            uid,
            kind,
            ref value,
            aid,
            back,
        } => {
            enc.put_u8(TAG_DATA_R);
            enc.put_u64(uid.0);
            put_kind(enc, kind);
            put_aid(enc, aid);
            put_prev(enc, back);
            value.put(enc)?;
        }
        Entry::Prepared {
            aid,
            ref pairs,
            prev,
        } => {
            enc.put_u8(TAG_PREPARED);
            put_aid(enc, aid);
            put_prev(enc, prev);
            pairs.put(enc)?;
        }
        Entry::Committed { aid, prev } => {
            enc.put_u8(TAG_COMMITTED);
            put_aid(enc, aid);
            put_prev(enc, prev);
        }
        Entry::Aborted { aid, prev } => {
            enc.put_u8(TAG_ABORTED);
            put_aid(enc, aid);
            put_prev(enc, prev);
        }
        Entry::BaseCommitted {
            uid,
            ref value,
            prev,
        } => {
            enc.put_u8(TAG_BASE_COMMITTED);
            enc.put_u64(uid.0);
            put_prev(enc, prev);
            value.put(enc)?;
        }
        Entry::PreparedData {
            uid,
            ref value,
            aid,
            prev,
        } => {
            enc.put_u8(TAG_PREPARED_DATA);
            enc.put_u64(uid.0);
            put_aid(enc, aid);
            put_prev(enc, prev);
            value.put(enc)?;
        }
        Entry::Committing {
            aid,
            ref gids,
            prev,
        } => {
            enc.put_u8(TAG_COMMITTING);
            put_aid(enc, aid);
            put_prev(enc, prev);
            gids.put(enc)?;
        }
        Entry::Done { aid, prev } => {
            enc.put_u8(TAG_DONE);
            put_aid(enc, aid);
            put_prev(enc, prev);
        }
        Entry::CommittedSs { ref cssl, prev } => {
            enc.put_u8(TAG_COMMITTED_SS);
            put_prev(enc, prev);
            cssl.put(enc)?;
        }
    }
    Ok(())
}

/// Encodes a log entry to bytes.
pub fn encode_entry(entry: &LogEntry) -> RsResult<Vec<u8>> {
    let mut enc = Encoder::with_capacity(64);
    encode_entry_into(&mut enc, &entry.as_entry_ref())?;
    Ok(enc.finish())
}

/// Decodes a log entry from bytes into its owned form.
pub fn decode_entry(payload: &[u8]) -> RsResult<LogEntry> {
    decode_entry_view(payload)?.to_log_entry()
}

// ---- zero-copy decode views ----------------------------------------------

/// A structurally validated but not-yet-materialized flattened value: the
/// byte span of the value inside a record payload. [`decode_entry_view`]
/// bounds-checks the structure; [`RawValue::decode`] allocates the [`Value`]
/// only when recovery actually needs the version — superseded versions and
/// entries of wiped-out actions are never materialized.
#[derive(Debug, Clone, Copy)]
pub struct RawValue<'a>(&'a [u8]);

impl RawValue<'_> {
    /// Materializes the value.
    pub fn decode(&self) -> RsResult<Value> {
        let mut dec = Decoder::new(self.0);
        let value = decode_value(&mut dec)?;
        debug_assert!(dec.is_empty(), "value span was validated to be exact");
        Ok(value)
    }
}

impl WireField for RawValue<'_> {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        enc.put_raw(self.0);
        Ok(())
    }
}

/// A borrowed `(uid, log address)` pair list, iterated straight off the
/// record payload (16 bytes per pair, no `Vec`).
#[derive(Debug, Clone, Copy)]
pub struct PairsView<'a>(&'a [u8]);

impl<'a> PairsView<'a> {
    /// Iterates the pairs in log order.
    pub fn iter(&self) -> impl Iterator<Item = (Uid, LogAddress)> + 'a {
        self.0.chunks_exact(16).map(|c| {
            (
                Uid(u64::from_le_bytes(c[..8].try_into().unwrap())),
                LogAddress(u64::from_le_bytes(c[8..].try_into().unwrap())),
            )
        })
    }

    /// Collects the pairs into an owned list.
    pub fn to_vec(&self) -> Vec<(Uid, LogAddress)> {
        self.iter().collect()
    }
}

impl WireField for PairsView<'_> {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        enc.put_u32((self.0.len() / 16) as u32);
        enc.put_raw(self.0);
        Ok(())
    }
}

/// A borrowed guardian-id list (4 bytes per id, no `Vec`).
#[derive(Debug, Clone, Copy)]
pub struct GidsView<'a>(&'a [u8]);

impl GidsView<'_> {
    /// Collects the ids into an owned list.
    pub fn to_vec(&self) -> Vec<GuardianId> {
        self.0
            .chunks_exact(4)
            .map(|c| GuardianId(u32::from_le_bytes(c.try_into().unwrap())))
            .collect()
    }
}

impl WireField for GidsView<'_> {
    fn put(&self, enc: &mut Encoder) -> RsResult<()> {
        enc.put_u32((self.0.len() / 4) as u32);
        enc.put_raw(self.0);
        Ok(())
    }
}

/// Walks a flattened value without materializing it, leaving the decoder
/// positioned after it. Corruption surfaces exactly as it would in
/// [`decode_value`].
fn skip_value(dec: &mut Decoder<'_>) -> CodecResult<()> {
    match dec.take_u8()? {
        VTAG_UNIT => {}
        VTAG_INT => {
            dec.take_i64()?;
        }
        VTAG_BOOL => {
            dec.take_bool()?;
        }
        VTAG_STR => {
            dec.take_str()?;
        }
        VTAG_BYTES => {
            dec.take_bytes()?;
        }
        VTAG_SEQ => {
            let n = dec.take_u32()?;
            for _ in 0..n {
                skip_value(dec)?;
            }
        }
        VTAG_REF => {
            dec.take_u64()?;
        }
        tag => {
            return Err(CodecError::BadTag {
                tag,
                context: "value",
            })
        }
    }
    Ok(())
}

/// Validates a value's structure and captures its exact byte span.
fn take_value<'a>(payload: &'a [u8], dec: &mut Decoder<'a>) -> CodecResult<RawValue<'a>> {
    let start = payload.len() - dec.remaining();
    skip_value(dec)?;
    let end = payload.len() - dec.remaining();
    Ok(RawValue(&payload[start..end]))
}

/// A list on the log: a `u32` count, then that many `stride`-byte items.
fn take_list<'a>(dec: &mut Decoder<'a>, stride: usize) -> CodecResult<&'a [u8]> {
    let n = dec.take_u32()? as usize;
    dec.take_raw(n * stride)
}

/// Decodes a log entry as a zero-copy view. The whole payload is
/// structurally validated (including the value spans and trailing-byte
/// check), but nothing variable-length is copied or allocated.
pub fn decode_entry_view(payload: &[u8]) -> RsResult<EntryView<'_>> {
    let mut dec = Decoder::new(payload);
    let d = &mut dec;
    // Field expressions of a struct literal run in the order written, which
    // is each kind's field order on the log.
    let view = match d.take_u8()? {
        TAG_DATA => Entry::Data {
            uid: Uid(d.take_u64()?),
            kind: take_kind(d)?,
            aid: take_aid(d)?,
            value: take_value(payload, d)?,
        },
        TAG_DATA_H => Entry::DataH {
            kind: take_kind(d)?,
            value: take_value(payload, d)?,
        },
        TAG_DATA_R => Entry::DataR {
            uid: Uid(d.take_u64()?),
            kind: take_kind(d)?,
            aid: take_aid(d)?,
            back: take_prev(d)?,
            value: take_value(payload, d)?,
        },
        TAG_PREPARED => Entry::Prepared {
            aid: take_aid(d)?,
            prev: take_prev(d)?,
            pairs: PairsView(take_list(d, 16)?),
        },
        TAG_COMMITTED => Entry::Committed {
            aid: take_aid(d)?,
            prev: take_prev(d)?,
        },
        TAG_ABORTED => Entry::Aborted {
            aid: take_aid(d)?,
            prev: take_prev(d)?,
        },
        TAG_BASE_COMMITTED => Entry::BaseCommitted {
            uid: Uid(d.take_u64()?),
            prev: take_prev(d)?,
            value: take_value(payload, d)?,
        },
        TAG_PREPARED_DATA => Entry::PreparedData {
            uid: Uid(d.take_u64()?),
            aid: take_aid(d)?,
            prev: take_prev(d)?,
            value: take_value(payload, d)?,
        },
        TAG_COMMITTING => Entry::Committing {
            aid: take_aid(d)?,
            prev: take_prev(d)?,
            gids: GidsView(take_list(d, 4)?),
        },
        TAG_DONE => Entry::Done {
            aid: take_aid(d)?,
            prev: take_prev(d)?,
        },
        TAG_COMMITTED_SS => Entry::CommittedSs {
            prev: take_prev(d)?,
            cssl: PairsView(take_list(d, 16)?),
        },
        tag => {
            return Err(CodecError::BadTag {
                tag,
                context: "log entry",
            }
            .into())
        }
    };
    if !dec.is_empty() {
        return Err(RsError::Codec(CodecError::BadTag {
            tag: 0xFF,
            context: "trailing bytes after log entry",
        }));
    }
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(2), n)
    }

    fn roundtrip(entry: LogEntry) {
        let bytes = encode_entry(&entry).unwrap();
        assert_eq!(decode_entry(&bytes).unwrap(), entry);
    }

    #[test]
    fn all_variants_roundtrip() {
        let value = Value::Seq(vec![
            Value::Int(-3),
            Value::Str("s".into()),
            Value::Bytes(vec![0, 255]),
            Value::Bool(false),
            Value::Unit,
            Value::uid_ref(Uid(11)),
        ]);
        roundtrip(LogEntry::Data {
            uid: Uid(5),
            kind: ObjKind::Mutex,
            value: value.clone(),
            aid: aid(1),
        });
        roundtrip(LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: value.clone(),
        });
        roundtrip(LogEntry::DataR {
            uid: Uid(6),
            kind: ObjKind::Atomic,
            value: value.clone(),
            aid: aid(8),
            back: Some(LogAddress(412)),
        });
        roundtrip(LogEntry::DataR {
            uid: Uid(7),
            kind: ObjKind::Mutex,
            value: value.clone(),
            aid: aid(9),
            back: None,
        });
        roundtrip(LogEntry::Prepared {
            aid: aid(2),
            pairs: vec![(Uid(1), LogAddress(512)), (Uid(2), LogAddress(600))],
            prev: Some(LogAddress(700)),
        });
        roundtrip(LogEntry::Committed {
            aid: aid(3),
            prev: None,
        });
        roundtrip(LogEntry::Aborted {
            aid: aid(4),
            prev: Some(LogAddress(512)),
        });
        roundtrip(LogEntry::BaseCommitted {
            uid: Uid(9),
            value: value.clone(),
            prev: None,
        });
        roundtrip(LogEntry::PreparedData {
            uid: Uid(10),
            value,
            aid: aid(5),
            prev: Some(LogAddress(99)),
        });
        roundtrip(LogEntry::Committing {
            aid: aid(6),
            gids: vec![GuardianId(1), GuardianId(2)],
            prev: None,
        });
        roundtrip(LogEntry::Done {
            aid: aid(7),
            prev: Some(LogAddress(1)),
        });
        roundtrip(LogEntry::CommittedSs {
            cssl: vec![(Uid(3), LogAddress(512))],
            prev: Some(LogAddress(812)),
        });
    }

    /// One fixed entry per kind (and one nested value) with its exact
    /// on-log bytes. The literals were generated at the commit before the
    /// three entry enums became one definition; editing one is a change of
    /// log format.
    fn golden() -> Vec<(LogEntry, &'static str)> {
        let nested = Value::Seq(vec![
            Value::Str("ab".into()),
            Value::Bytes(vec![0, 255]),
            Value::uid_ref(Uid(11)),
            Value::Seq(vec![Value::Int(-3), Value::Bool(true), Value::Unit]),
        ]);
        vec![
            (
                LogEntry::Data {
                    uid: Uid(5),
                    kind: ObjKind::Mutex,
                    value: Value::Int(7),
                    aid: aid(1),
                },
                "01050000000000000001020000000100000000000000010700000000000000",
            ),
            (
                LogEntry::DataH {
                    kind: ObjKind::Atomic,
                    value: Value::Bool(true),
                },
                "02000201",
            ),
            (
                LogEntry::DataR {
                    uid: Uid(6),
                    kind: ObjKind::Atomic,
                    value: Value::Unit,
                    aid: aid(8),
                    back: Some(LogAddress(412)),
                },
                "0b0600000000000000000200000008000000000000009c0100000000000000",
            ),
            (
                LogEntry::Prepared {
                    aid: aid(2),
                    pairs: vec![(Uid(1), LogAddress(512)), (Uid(2), LogAddress(600))],
                    prev: Some(LogAddress(700)),
                },
                "03020000000200000000000000bc0200000000000002000000\
                 01000000000000000002000000000000\
                 02000000000000005802000000000000",
            ),
            (
                LogEntry::Committed {
                    aid: aid(3),
                    prev: None,
                },
                "040200000003000000000000000000000000000000",
            ),
            (
                LogEntry::Aborted {
                    aid: aid(4),
                    prev: Some(LogAddress(512)),
                },
                "050200000004000000000000000002000000000000",
            ),
            (
                LogEntry::BaseCommitted {
                    uid: Uid(9),
                    value: Value::Str("base".into()),
                    prev: None,
                },
                "0609000000000000000000000000000000030400000062617365",
            ),
            (
                LogEntry::PreparedData {
                    uid: Uid(10),
                    value: Value::Bytes(vec![1, 2, 3]),
                    aid: aid(5),
                    prev: Some(LogAddress(99)),
                },
                "070a0000000000000002000000050000000000000063000000000000000403000000010203",
            ),
            (
                LogEntry::Committing {
                    aid: aid(6),
                    gids: vec![GuardianId(1), GuardianId(2)],
                    prev: None,
                },
                "080200000006000000000000000000000000000000020000000100000002000000",
            ),
            (
                LogEntry::Done {
                    aid: aid(7),
                    prev: Some(LogAddress(1)),
                },
                "090200000007000000000000000100000000000000",
            ),
            (
                LogEntry::CommittedSs {
                    cssl: vec![(Uid(3), LogAddress(512))],
                    prev: Some(LogAddress(812)),
                },
                "0a2c030000000000000100000003000000000000000002000000000000",
            ),
            (
                LogEntry::DataR {
                    uid: Uid(7),
                    kind: ObjKind::Mutex,
                    value: nested,
                    aid: aid(9),
                    back: None,
                },
                "0b0700000000000000010200000009000000000000000000000000000000\
                 0504000000\
                 03020000006162\
                 040200000000ff\
                 060b00000000000000\
                 0503000000\
                 01fdffffffffffffff\
                 0201\
                 00",
            ),
        ]
    }

    #[test]
    fn golden_bytes_pin_the_format() {
        for (entry, want) in golden() {
            let bytes = encode_entry(&entry).unwrap();
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "{entry:?}");
            assert_eq!(decode_entry(&bytes).unwrap(), entry);
        }
    }

    #[test]
    fn views_agree_with_owned_entries() {
        for (entry, _) in golden() {
            let bytes = encode_entry(&entry).unwrap();
            let view = decode_entry_view(&bytes).unwrap();
            assert_eq!(view.is_outcome(), entry.is_outcome());
            assert_eq!(view.prev(), entry.prev());
            assert_eq!(view.backlink(), entry.backlink());
            assert_eq!(view.name(), entry.name());
            assert_eq!(view.to_log_entry().unwrap(), entry);
            // Re-encoding a view copies its spans: the payload comes back
            // byte for byte, after whatever the buffer already held.
            let mut enc = Encoder::new();
            enc.put_u8(0xAB);
            encode_entry_into(&mut enc, &view).unwrap();
            let buf = enc.finish();
            assert_eq!(buf[0], 0xAB);
            assert_eq!(&buf[1..], bytes.as_slice());
        }
    }

    #[test]
    fn view_rejects_trailing_garbage_and_junk_tags() {
        let mut bytes = encode_entry(&LogEntry::Done {
            aid: aid(1),
            prev: None,
        })
        .unwrap();
        bytes.push(0);
        assert!(decode_entry_view(&bytes).is_err());
        assert!(decode_entry_view(&[99]).is_err());
        assert!(decode_entry_view(&[]).is_err());
    }

    #[test]
    fn view_validates_value_structure_without_decoding() {
        let bytes = encode_entry(&LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Str("hello".into()),
        })
        .unwrap();
        // Truncate inside the value: the view decode itself must fail.
        assert!(decode_entry_view(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn volatile_refs_are_rejected() {
        let entry = LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::heap_ref(argus_objects::HeapId(0)),
        };
        assert!(matches!(encode_entry(&entry), Err(RsError::Internal(_))));
    }

    #[test]
    fn junk_tags_are_rejected() {
        assert!(decode_entry(&[99]).is_err());
        assert!(decode_entry(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_entry(&LogEntry::Done {
            aid: aid(1),
            prev: None,
        })
        .unwrap();
        bytes.push(0);
        assert!(decode_entry(&bytes).is_err());
    }

    #[test]
    fn outcome_classification() {
        assert!(!LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Unit
        }
        .is_outcome());
        assert!(LogEntry::Done {
            aid: aid(1),
            prev: None
        }
        .is_outcome());
        assert!(LogEntry::BaseCommitted {
            uid: Uid(1),
            value: Value::Unit,
            prev: None
        }
        .is_outcome());
    }

    #[test]
    fn redo_data_backlink_is_not_a_chain_pointer() {
        let e = LogEntry::DataR {
            uid: Uid(1),
            kind: ObjKind::Atomic,
            value: Value::Int(1),
            aid: aid(1),
            back: Some(LogAddress(77)),
        };
        assert!(!e.is_outcome());
        assert_eq!(e.prev(), None, "the backlink is a per-object chain");
        assert_eq!(e.backlink(), Some(LogAddress(77)));
        let mut e2 = e.clone();
        e2.set_prev(Some(LogAddress(9)));
        assert_eq!(e2, e, "set_prev must not touch the backlink");
    }

    #[test]
    fn set_prev_rechains_outcome_entries() {
        let mut e = LogEntry::Committed {
            aid: aid(1),
            prev: None,
        };
        e.set_prev(Some(LogAddress(42)));
        assert_eq!(e.prev(), Some(LogAddress(42)));
        let mut d = LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Unit,
        };
        d.set_prev(Some(LogAddress(42)));
        assert_eq!(d.prev(), None);
    }
}
