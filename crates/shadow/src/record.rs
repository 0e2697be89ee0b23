//! On-log records of the shadowing organization.

use argus_core::{
    decode_value, put_aid, put_kind, take_aid, take_kind, RsError, RsResult, WireField,
};
use argus_objects::{ActionId, GuardianId, ObjKind, Uid, Value};
use argus_slog::{CodecError, CodecResult, Decoder, Encoder, LogAddress};

const TAG_VERSION: u8 = 1;
const TAG_INTENT: u8 = 2;
const TAG_RESOLVED: u8 = 3;
const TAG_MAP: u8 = 4;
const TAG_COMMITTING: u8 = 5;
const TAG_DONE: u8 = 6;

/// The body of a prepared action's intent: the pointers that will be folded
/// into the map when the verdict arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentBody {
    /// The prepared action.
    pub aid: ActionId,
    /// Current versions written by the action: folded on commit. Mutex
    /// versions are folded even on abort (§2.4.2 semantics).
    pub cur: Vec<(Uid, ObjKind, LogAddress)>,
    /// Base versions of newly accessible objects: folded on either verdict.
    pub base: Vec<(Uid, LogAddress)>,
    /// Current versions belonging to *another*, already-prepared action
    /// (the `prepared_data` case): folded iff that action commits.
    pub pd: Vec<(Uid, LogAddress, ActionId)>,
}

impl IntentBody {
    /// An empty intent for `aid`.
    pub fn new(aid: ActionId) -> Self {
        Self {
            aid,
            cur: Vec::new(),
            base: Vec::new(),
            pd: Vec::new(),
        }
    }
}

/// One record in the shadow log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShadowRecord {
    /// An object version in version storage.
    Version {
        /// The object.
        uid: Uid,
        /// Atomic or mutex.
        kind: ObjKind,
        /// The flattened version.
        value: Value,
    },
    /// A prepared action's intent (the "entry in the log" of §1.2.1).
    Intent(IntentBody),
    /// The participant learned the verdict for `aid`.
    Resolved {
        /// The action.
        aid: ActionId,
        /// `true` = committed, `false` = aborted.
        committed: bool,
    },
    /// A complete map: the committed state, plus every still-unresolved
    /// intent and coordinator entry (so recovery needs only the newest map
    /// and anything after it).
    Map {
        /// `(uid, kind, version address)` for every live object.
        entries: Vec<(Uid, ObjKind, LogAddress)>,
        /// In-doubt intents at the time the map was written.
        intents: Vec<IntentBody>,
        /// Unfinished coordinator actions.
        coords: Vec<(ActionId, Vec<GuardianId>)>,
    },
    /// Coordinator: all participants prepared.
    Committing {
        /// The action.
        aid: ActionId,
        /// The participants.
        gids: Vec<GuardianId>,
    },
    /// Coordinator: two-phase commit finished.
    Done {
        /// The action.
        aid: ActionId,
    },
}

fn put_intent(enc: &mut Encoder, intent: &IntentBody) {
    put_aid(enc, intent.aid);
    enc.put_u32(intent.cur.len() as u32);
    for (uid, kind, addr) in &intent.cur {
        enc.put_u64(uid.0);
        put_kind(enc, *kind);
        enc.put_u64(addr.offset());
    }
    enc.put_u32(intent.base.len() as u32);
    for (uid, addr) in &intent.base {
        enc.put_u64(uid.0);
        enc.put_u64(addr.offset());
    }
    enc.put_u32(intent.pd.len() as u32);
    for (uid, addr, aid) in &intent.pd {
        enc.put_u64(uid.0);
        enc.put_u64(addr.offset());
        put_aid(enc, *aid);
    }
}

fn take_intent(dec: &mut Decoder<'_>) -> CodecResult<IntentBody> {
    let aid = take_aid(dec)?;
    let n = dec.take_u32()? as usize;
    let mut cur = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let uid = Uid(dec.take_u64()?);
        let kind = take_kind(dec)?;
        let addr = LogAddress(dec.take_u64()?);
        cur.push((uid, kind, addr));
    }
    let n = dec.take_u32()? as usize;
    let mut base = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let uid = Uid(dec.take_u64()?);
        let addr = LogAddress(dec.take_u64()?);
        base.push((uid, addr));
    }
    let n = dec.take_u32()? as usize;
    let mut pd = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let uid = Uid(dec.take_u64()?);
        let addr = LogAddress(dec.take_u64()?);
        let aid = take_aid(dec)?;
        pd.push((uid, addr, aid));
    }
    Ok(IntentBody { aid, cur, base, pd })
}

/// Encodes a version record whose value is held as `value` — flattened
/// already, or a heap value flattened as it is encoded.
pub fn put_version(
    enc: &mut Encoder,
    uid: Uid,
    kind: ObjKind,
    value: impl WireField,
) -> RsResult<()> {
    enc.put_u8(TAG_VERSION);
    enc.put_u64(uid.0);
    put_kind(enc, kind);
    value.put(enc)
}

/// Encodes a shadow record.
pub fn encode_record(record: &ShadowRecord) -> RsResult<Vec<u8>> {
    let mut enc = Encoder::with_capacity(64);
    match record {
        ShadowRecord::Version { uid, kind, value } => put_version(&mut enc, *uid, *kind, value)?,
        ShadowRecord::Intent(body) => {
            enc.put_u8(TAG_INTENT);
            put_intent(&mut enc, body);
        }
        ShadowRecord::Resolved { aid, committed } => {
            enc.put_u8(TAG_RESOLVED);
            put_aid(&mut enc, *aid);
            enc.put_bool(*committed);
        }
        ShadowRecord::Map {
            entries,
            intents,
            coords,
        } => {
            enc.put_u8(TAG_MAP);
            enc.put_u32(entries.len() as u32);
            for (uid, kind, addr) in entries {
                enc.put_u64(uid.0);
                put_kind(&mut enc, *kind);
                enc.put_u64(addr.offset());
            }
            enc.put_u32(intents.len() as u32);
            for intent in intents {
                put_intent(&mut enc, intent);
            }
            enc.put_u32(coords.len() as u32);
            for (aid, gids) in coords {
                put_aid(&mut enc, *aid);
                enc.put_u32(gids.len() as u32);
                for g in gids {
                    enc.put_u32(g.0);
                }
            }
        }
        ShadowRecord::Committing { aid, gids } => {
            enc.put_u8(TAG_COMMITTING);
            put_aid(&mut enc, *aid);
            enc.put_u32(gids.len() as u32);
            for g in gids {
                enc.put_u32(g.0);
            }
        }
        ShadowRecord::Done { aid } => {
            enc.put_u8(TAG_DONE);
            put_aid(&mut enc, *aid);
        }
    }
    Ok(enc.finish())
}

/// Decodes a shadow record.
pub fn decode_record(payload: &[u8]) -> RsResult<ShadowRecord> {
    let mut dec = Decoder::new(payload);
    let record = match dec.take_u8()? {
        TAG_VERSION => {
            let uid = Uid(dec.take_u64()?);
            let kind = take_kind(&mut dec)?;
            let value = decode_value(&mut dec)?;
            ShadowRecord::Version { uid, kind, value }
        }
        TAG_INTENT => ShadowRecord::Intent(take_intent(&mut dec)?),
        TAG_RESOLVED => {
            let aid = take_aid(&mut dec)?;
            let committed = dec.take_bool()?;
            ShadowRecord::Resolved { aid, committed }
        }
        TAG_MAP => {
            let n = dec.take_u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let uid = Uid(dec.take_u64()?);
                let kind = take_kind(&mut dec)?;
                let addr = LogAddress(dec.take_u64()?);
                entries.push((uid, kind, addr));
            }
            let n = dec.take_u32()? as usize;
            let mut intents = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                intents.push(take_intent(&mut dec)?);
            }
            let n = dec.take_u32()? as usize;
            let mut coords = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let aid = take_aid(&mut dec)?;
                let g = dec.take_u32()? as usize;
                let mut gids = Vec::with_capacity(g.min(4096));
                for _ in 0..g {
                    gids.push(GuardianId(dec.take_u32()?));
                }
                coords.push((aid, gids));
            }
            ShadowRecord::Map {
                entries,
                intents,
                coords,
            }
        }
        TAG_COMMITTING => {
            let aid = take_aid(&mut dec)?;
            let n = dec.take_u32()? as usize;
            let mut gids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                gids.push(GuardianId(dec.take_u32()?));
            }
            ShadowRecord::Committing { aid, gids }
        }
        TAG_DONE => ShadowRecord::Done {
            aid: take_aid(&mut dec)?,
        },
        tag => {
            return Err(RsError::Codec(CodecError::BadTag {
                tag,
                context: "shadow record",
            }))
        }
    };
    if !dec.is_empty() {
        return Err(RsError::Codec(CodecError::BadTag {
            tag: 0xFF,
            context: "trailing bytes after shadow record",
        }));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(1), n)
    }

    fn roundtrip(record: ShadowRecord) {
        let bytes = encode_record(&record).unwrap();
        assert_eq!(decode_record(&bytes).unwrap(), record);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ShadowRecord::Version {
            uid: Uid(3),
            kind: ObjKind::Mutex,
            value: Value::Seq(vec![Value::Int(1), Value::uid_ref(Uid(2))]),
        });
        roundtrip(ShadowRecord::Intent(IntentBody {
            aid: aid(1),
            cur: vec![(Uid(1), ObjKind::Atomic, LogAddress(512))],
            base: vec![(Uid(2), LogAddress(600))],
            pd: vec![(Uid(3), LogAddress(700), aid(2))],
        }));
        roundtrip(ShadowRecord::Resolved {
            aid: aid(1),
            committed: true,
        });
        roundtrip(ShadowRecord::Map {
            entries: vec![(Uid(1), ObjKind::Atomic, LogAddress(512))],
            intents: vec![IntentBody::new(aid(9))],
            coords: vec![(aid(4), vec![GuardianId(1), GuardianId(7)])],
        });
        roundtrip(ShadowRecord::Committing {
            aid: aid(5),
            gids: vec![GuardianId(2)],
        });
        roundtrip(ShadowRecord::Done { aid: aid(6) });
    }

    #[test]
    fn junk_is_rejected() {
        assert!(decode_record(&[0x77]).is_err());
        let mut bytes = encode_record(&ShadowRecord::Done { aid: aid(1) }).unwrap();
        bytes.push(1);
        assert!(decode_record(&bytes).is_err());
    }
}
