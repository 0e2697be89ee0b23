//! Randomized tests of the on-log codecs: any value and any entry must
//! roundtrip exactly, and arbitrary bytes must never panic the decoder.
//!
//! Driven by the in-tree deterministic RNG (`argus::sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible. Gated behind the
//! off-by-default `proptest` feature: `cargo test --features proptest`.

use argus::core::{decode_entry, decode_entry_view, encode_entry, encode_entry_into, LogEntry};
use argus::objects::{ActionId, GuardianId, ObjKind, Uid, Value};
use argus::sim::DetRng;
use argus::slog::{Encoder, LogAddress};

/// Flattened values only: references are uids (heap refs never reach a log).
fn gen_value(rng: &mut DetRng, depth: u32) -> Value {
    let choices = if depth == 0 { 6 } else { 7 };
    match rng.gen_range(choices) {
        0 => Value::Unit,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Bool(rng.gen_bool(0.5)),
        3 => {
            let len = rng.gen_range(25) as usize;
            Value::Str(
                (0..len)
                    .map(|_| (rng.gen_between(32, 127) as u8) as char)
                    .collect(),
            )
        }
        4 => {
            let len = rng.gen_range(48) as usize;
            Value::Bytes((0..len).map(|_| rng.next_u64() as u8).collect())
        }
        5 => Value::uid_ref(Uid(rng.gen_range(1000))),
        _ => {
            let len = rng.gen_range(8) as usize;
            Value::Seq((0..len).map(|_| gen_value(rng, depth - 1)).collect())
        }
    }
}

fn gen_aid(rng: &mut DetRng) -> ActionId {
    ActionId::new(GuardianId(rng.gen_range(16) as u32), rng.gen_range(10_000))
}

fn gen_pairs(rng: &mut DetRng) -> Vec<(Uid, LogAddress)> {
    let len = rng.gen_range(12) as usize;
    (0..len)
        .map(|_| {
            (
                Uid(rng.gen_range(1000)),
                LogAddress(rng.gen_between(512, 1_000_000)),
            )
        })
        .collect()
}

fn gen_kind(rng: &mut DetRng) -> ObjKind {
    if rng.gen_bool(0.5) {
        ObjKind::Atomic
    } else {
        ObjKind::Mutex
    }
}

fn gen_prev(rng: &mut DetRng) -> Option<LogAddress> {
    rng.gen_bool(0.5)
        .then(|| LogAddress(rng.gen_between(512, 1_000_000)))
}

fn gen_entry(rng: &mut DetRng) -> LogEntry {
    match rng.gen_range(11) {
        0 => LogEntry::Data {
            uid: Uid(rng.gen_range(1000)),
            kind: gen_kind(rng),
            value: gen_value(rng, 3),
            aid: gen_aid(rng),
        },
        1 => LogEntry::DataH {
            kind: gen_kind(rng),
            value: gen_value(rng, 3),
        },
        2 => LogEntry::Prepared {
            aid: gen_aid(rng),
            pairs: gen_pairs(rng),
            prev: gen_prev(rng),
        },
        3 => LogEntry::Committed {
            aid: gen_aid(rng),
            prev: gen_prev(rng),
        },
        4 => LogEntry::Aborted {
            aid: gen_aid(rng),
            prev: gen_prev(rng),
        },
        5 => LogEntry::BaseCommitted {
            uid: Uid(rng.gen_range(1000)),
            value: gen_value(rng, 3),
            prev: gen_prev(rng),
        },
        6 => LogEntry::PreparedData {
            uid: Uid(rng.gen_range(1000)),
            value: gen_value(rng, 3),
            aid: gen_aid(rng),
            prev: gen_prev(rng),
        },
        7 => LogEntry::Committing {
            aid: gen_aid(rng),
            gids: {
                let len = rng.gen_range(8) as usize;
                (0..len)
                    .map(|_| GuardianId(rng.gen_range(64) as u32))
                    .collect()
            },
            prev: gen_prev(rng),
        },
        8 => LogEntry::Done {
            aid: gen_aid(rng),
            prev: gen_prev(rng),
        },
        // The redo data entry, first version (no backlink) or chained.
        9 => LogEntry::DataR {
            uid: Uid(rng.gen_range(1000)),
            kind: gen_kind(rng),
            value: gen_value(rng, 3),
            aid: gen_aid(rng),
            back: gen_prev(rng),
        },
        _ => LogEntry::CommittedSs {
            cssl: gen_pairs(rng),
            prev: gen_prev(rng),
        },
    }
}

#[test]
fn entries_roundtrip() {
    let mut rng = DetRng::new(0xC0DEC);
    for case in 0..256 {
        let entry = gen_entry(&mut rng);
        let bytes = encode_entry(&entry).unwrap();
        assert_eq!(
            decode_entry(&bytes).unwrap(),
            entry,
            "case {case} failed to roundtrip"
        );
    }
}

/// What view-copying compaction relies on: a decoded view re-encodes to
/// exactly the payload it was decoded from, for every kind.
#[test]
fn reencoding_a_view_reproduces_the_payload() {
    let mut rng = DetRng::new(0x5EED);
    let mut kinds = std::collections::BTreeSet::new();
    for case in 0..512 {
        let entry = gen_entry(&mut rng);
        let bytes = encode_entry(&entry).unwrap();
        let view = decode_entry_view(&bytes).unwrap();
        let mut enc = Encoder::new();
        encode_entry_into(&mut enc, &view).unwrap();
        assert_eq!(enc.finish(), bytes, "case {case}: {entry:?}");
        kinds.insert(bytes[0]);
    }
    assert_eq!(kinds.len(), 11, "every kind was drawn: {kinds:?}");
}

#[test]
fn decoder_never_panics_on_junk() {
    let mut rng = DetRng::new(0x1A2B);
    for _ in 0..512 {
        let len = rng.gen_range(256) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_entry(&bytes); // must return, never panic
    }
}

#[test]
fn decoder_rejects_truncations() {
    let mut rng = DetRng::new(0x7EC);
    for _ in 0..64 {
        let entry = gen_entry(&mut rng);
        let bytes = encode_entry(&entry).unwrap();
        // Every strict prefix either fails or (rarely) decodes to something
        // *different* — never to a spurious copy of the original with
        // trailing data silently dropped.
        for cut in 0..bytes.len() {
            if let Ok(decoded) = decode_entry(&bytes[..cut]) {
                assert_ne!(decoded, entry, "prefix {cut} decoded to the original");
            }
        }
    }
}

#[test]
fn bitflips_are_detected_or_change_the_entry() {
    let mut rng = DetRng::new(0xF11B);
    for _ in 0..128 {
        let entry = gen_entry(&mut rng);
        let bytes = encode_entry(&entry).unwrap();
        if bytes.is_empty() {
            continue;
        }
        let mut corrupted = bytes.clone();
        let i = rng.gen_range(corrupted.len() as u64) as usize;
        let bit = rng.gen_range(8) as u8;
        corrupted[i] ^= 1 << bit;
        if let Ok(decoded) = decode_entry(&corrupted) {
            assert_ne!(decoded, entry, "bit flip at {i}:{bit} went unnoticed");
        }
    }
}
