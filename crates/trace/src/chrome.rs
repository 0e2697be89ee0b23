//! Chrome trace-event JSON export.
//!
//! Serializes a recorded event vector into the Trace Event Format that
//! `chrome://tracing` and Perfetto load: guardians become processes,
//! actions become threads within them, complete spans become `X` events,
//! scoped spans `B`/`E`, instants `i`, and causal edges `s`/`f` flow
//! pairs. The JSON is hand-rolled (the workspace has no serializer
//! dependency) and fully deterministic: events are emitted in recording
//! order with no floats, timestamps, or hashing, so the same event vector
//! always yields byte-identical output — the property the determinism
//! tests and `scripts/verify.sh --trace` pin.

use crate::event::{Gid, Key, Ph, TraceEvent, STORE_LANE};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The `tid` lane an event renders into: one lane per action within its
/// guardian's process, lane 0 for control events with no action.
fn tid(key: Option<Key>) -> u64 {
    match key {
        // Keep distinct origins apart without allocating a lane table; the
        // per-guardian sequence numbers in one run stay far below the
        // spacing.
        Some(k) => 1 + u64::from(k.origin) * 100_000 + k.seq,
        None => 0,
    }
}

/// Names come from the [`crate::Kind`] catalogue, whose strings are bare
/// identifiers (its tests check), so nothing here needs escaping.
fn push_common(out: &mut String, event: &TraceEvent, ph: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        event.name(),
        event.cat(),
        event.ts,
        event.gid,
        tid(event.key)
    );
}

/// The event's arguments, then `extra`, then its action, as one `args`
/// object — none at all when there is nothing to put in it.
fn push_args(out: &mut String, event: &TraceEvent, extra: &[(&str, u64)]) {
    let named = event.arg_names().iter().copied().zip(event.args);
    let mut sep = ",\"args\":{";
    for (k, v) in named.chain(extra.iter().copied()) {
        let _ = write!(out, "{sep}\"{k}\":{v}");
        sep = ",";
    }
    if let Some(k) = event.key {
        let _ = write!(out, "{sep}\"action\":\"{k}\"");
        sep = ",";
    }
    if sep == "," {
        out.push('}');
    }
}

fn push_metadata(out: &mut String, pid: Gid) {
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\""
    );
    if pid == STORE_LANE {
        out.push_str("storage devices");
    } else {
        let _ = write!(out, "guardian {pid}");
    }
    out.push_str("\"}}");
}

/// Serializes `events` as Chrome trace-event JSON.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    export(events, 0)
}

/// [`to_chrome_json`], noting in `otherData` how many events the recorder
/// dropped at its cap when it dropped any.
pub(crate) fn export(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",");
    if dropped > 0 {
        let _ = write!(out, "\"otherData\":{{\"dropped_events\":{dropped}}},");
    }
    out.push_str("\"traceEvents\":[");
    let mut sep = "\n";

    // Name every process lane first, in pid order.
    let pids: BTreeSet<Gid> = events.iter().map(|e| e.gid).collect();
    for pid in pids {
        out.push_str(sep);
        sep = ",\n";
        push_metadata(&mut out, pid);
    }

    for event in events {
        out.push_str(sep);
        sep = ",\n";
        let (ph, span) = match event.ph {
            Ph::Complete { .. } => ("X", None),
            Ph::Begin { span } => ("B", Some(span)),
            Ph::End { span } => ("E", Some(span)),
            Ph::Instant => ("i", None),
            Ph::FlowStart { .. } => ("s", None),
            Ph::FlowEnd { .. } => ("f", None),
        };
        push_common(&mut out, event, ph);
        let _ = match event.ph {
            Ph::Complete { dur } => write!(out, ",\"dur\":{dur}"),
            Ph::Instant => write!(out, ",\"s\":\"t\""),
            Ph::FlowStart { flow } => write!(out, ",\"id\":{flow}"),
            Ph::FlowEnd { flow } => write!(out, ",\"bp\":\"e\",\"id\":{flow}"),
            Ph::Begin { .. } | Ph::End { .. } => Ok(()),
        };
        push_args(&mut out, event, span.map(|s| ("span", s)).as_slice());
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;

    fn ev(kind: Kind, ph: Ph, ts: u64, gid: Gid, key: Option<Key>) -> TraceEvent {
        TraceEvent {
            kind,
            ph,
            ts,
            gid,
            key,
            args: [0; 2],
        }
    }

    /// A minimal structural validator: balanced braces/brackets outside
    /// strings, so malformed escaping shows up in tests without a JSON
    /// parser dependency.
    fn check_balanced(s: &str) {
        let mut depth_obj = 0i64;
        let mut depth_arr = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0, "imbalance in {s}");
        }
        assert_eq!(depth_obj, 0);
        assert_eq!(depth_arr, 0);
        assert!(!in_str);
    }

    #[test]
    fn all_phases_serialize_and_balance() {
        let events = vec![
            ev(
                Kind::Action,
                Ph::Complete { dur: 30 },
                10,
                0,
                Some(Key::new(0, 1)),
            ),
            ev(Kind::Restart, Ph::Begin { span: 0 }, 40, 1, None),
            ev(Kind::Restart, Ph::End { span: 0 }, 55, 1, None),
            ev(Kind::PageRead, Ph::Instant, 60, STORE_LANE, None),
            ev(
                Kind::NetPrepare,
                Ph::FlowStart { flow: 0 },
                61,
                0,
                Some(Key::new(0, 1)),
            ),
            ev(
                Kind::NetPrepare,
                Ph::FlowEnd { flow: 0 },
                63,
                2,
                Some(Key::new(0, 1)),
            ),
        ];
        let json = to_chrome_json(&events);
        check_balanced(&json);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":30"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("storage devices"));
        assert!(json.contains("guardian 2"));
        assert!(json.contains("\"action\":\"G0/1\""));
    }

    #[test]
    fn same_events_yield_byte_identical_json() {
        let events = vec![
            ev(Kind::Restart, Ph::Instant, 1, 0, None),
            ev(
                Kind::Done,
                Ph::Complete { dur: 5 },
                2,
                1,
                Some(Key::new(1, 2)),
            ),
        ];
        assert_eq!(to_chrome_json(&events), to_chrome_json(&events));
    }

    #[test]
    fn inline_args_render_as_integers() {
        let mut e = ev(Kind::Force, Ph::Complete { dur: 3 }, 9, 0, None);
        e.args = [4, 2];
        let json = to_chrome_json(&[e]);
        check_balanced(&json);
        assert!(json.contains("\"batch\":4"));
        assert!(json.contains("\"ops\":2"));
    }

    #[test]
    fn dropped_events_are_noted_only_when_there_are_some() {
        let events = [ev(Kind::Restart, Ph::Instant, 1, 0, None)];
        assert_eq!(export(&events, 0), to_chrome_json(&events));
        assert!(!to_chrome_json(&events).contains("otherData"));
        let truncated = export(&events, 7);
        check_balanced(&truncated);
        assert!(truncated.starts_with(
            "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":7},\"traceEvents\":["
        ));
    }
}
