//! The trace lint backing invariant **I12** (see `argus_check`): a
//! recorded trace must be structurally sound —
//!
//! * every opened scoped span closes exactly once, at or after its open;
//! * per guardian lane, event *completion* times are monotone in recording
//!   order (a retroactive `Complete` span is recorded at its end time, so
//!   its completion `ts + dur` is the recording instant);
//! * every cross-guardian flow end resolves to an earlier flow start.
//!
//! A flow start with no end is legal (the message was dropped or still in
//! flight at the crash), as are several ends for one start (the network
//! duplicated the message). A truncated trace (events lost to the buffer
//! cap) skips the completeness checks: absence of an end proves nothing
//! when recording stopped early.

use crate::event::{Ph, TraceEvent};
use std::collections::HashMap;

/// The completion instant: when the event was recorded.
fn completion(e: &TraceEvent) -> u64 {
    match e.ph {
        Ph::Complete { dur } => e.ts.saturating_add(dur),
        _ => e.ts,
    }
}

/// Lints `events`; returns one human-readable detail line per violation.
/// `truncated` marks a trace that lost events to the buffer cap.
pub fn lint_events(events: &[TraceEvent], truncated: bool) -> Vec<String> {
    let mut violations = Vec::new();

    // Scoped spans: open/close pairing.
    let mut opens: HashMap<u64, &TraceEvent> = HashMap::new();
    let mut closed: HashMap<u64, u32> = HashMap::new();
    for e in events {
        match e.ph {
            Ph::Begin { span } if opens.insert(span, e).is_some() => {
                violations.push(format!("span {span} ({}) opened twice", e.kind));
            }
            Ph::Begin { .. } => {}
            Ph::End { span } => {
                let count = closed.entry(span).or_insert(0);
                *count += 1;
                match opens.get(&span) {
                    None => {
                        violations.push(format!("span {span} ({}) closed but never opened", e.kind))
                    }
                    Some(open) if open.ts > e.ts => violations.push(format!(
                        "span {span} ({}) closes at {} before it opens at {}",
                        e.kind, e.ts, open.ts
                    )),
                    Some(open) if *count > 1 => {
                        violations.push(format!("span {span} ({}) closed {count} times", open.kind))
                    }
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
    if !truncated {
        for (span, open) in &opens {
            if !closed.contains_key(span) {
                violations.push(format!(
                    "span {span} ({}) opened at {} on G{} never closes",
                    open.kind, open.ts, open.gid
                ));
            }
        }
    }

    // Per-lane monotone completion times.
    let mut last: HashMap<u32, (u64, &TraceEvent)> = HashMap::new();
    for e in events {
        let at = completion(e);
        if let Some(&(prev, prev_e)) = last.get(&e.gid) {
            if at < prev {
                violations.push(format!(
                    "lane G{} time runs backwards: {} at {at} recorded after {} at {prev}",
                    e.gid, e.kind, prev_e.kind
                ));
                continue; // keep the high-water mark for later events
            }
        }
        last.insert(e.gid, (at, e));
    }

    // Flow resolution.
    let mut flow_starts: HashMap<u64, &TraceEvent> = HashMap::new();
    for e in events {
        match e.ph {
            Ph::FlowStart { flow } => {
                flow_starts.insert(flow, e);
            }
            Ph::FlowEnd { flow } => match flow_starts.get(&flow) {
                None if truncated => {}
                None => violations.push(format!(
                    "flow {flow} ({}) ends on G{} with no start",
                    e.kind, e.gid
                )),
                Some(start) if start.ts > e.ts => violations.push(format!(
                    "flow {flow} ({}) ends at {} before its start at {}",
                    e.kind, e.ts, start.ts
                )),
                Some(_) => {}
            },
            _ => {}
        }
    }

    violations.sort();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;

    fn ev(kind: Kind, ph: Ph, ts: u64, gid: u32) -> TraceEvent {
        TraceEvent {
            kind,
            ph,
            ts,
            gid,
            key: None,
            args: [0; 2],
        }
    }

    #[test]
    fn clean_trace_passes() {
        let events = vec![
            ev(Kind::Restart, Ph::Begin { span: 0 }, 0, 0),
            ev(Kind::Restart, Ph::End { span: 0 }, 10, 0),
            ev(Kind::LockWait, Ph::Complete { dur: 5 }, 6, 0),
            ev(Kind::NetPrepare, Ph::FlowStart { flow: 0 }, 12, 0),
            ev(Kind::NetPrepare, Ph::FlowEnd { flow: 0 }, 14, 1),
        ];
        assert!(lint_events(&events, false).is_empty());
    }

    #[test]
    fn unclosed_span_is_flagged_unless_truncated() {
        let events = vec![ev(Kind::Restart, Ph::Begin { span: 0 }, 0, 0)];
        let v = lint_events(&events, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("never closes"));
        assert!(lint_events(&events, true).is_empty());
    }

    #[test]
    fn backwards_lane_time_is_flagged() {
        let events = vec![
            ev(Kind::VoteSent, Ph::Instant, 10, 0),
            ev(Kind::PrepareSent, Ph::Instant, 5, 0),
            ev(Kind::OutcomeSent, Ph::Instant, 5, 1), // other lane: fine
        ];
        let v = lint_events(&events, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("runs backwards"));
    }

    #[test]
    fn retroactive_complete_is_monotone_by_completion_time() {
        // An instant at t=20 followed by a lock-wait span [5, 20) recorded
        // at grant time: legal, its completion is 20.
        let events = vec![
            ev(Kind::LockBlocked, Ph::Instant, 20, 0),
            ev(Kind::LockWait, Ph::Complete { dur: 15 }, 5, 0),
        ];
        assert!(lint_events(&events, false).is_empty());
    }

    #[test]
    fn dangling_flow_start_is_legal_but_orphan_end_is_not() {
        let dangling = vec![ev(Kind::NetPrepare, Ph::FlowStart { flow: 0 }, 0, 0)];
        assert!(lint_events(&dangling, false).is_empty());
        let orphan = vec![ev(Kind::NetPrepare, Ph::FlowEnd { flow: 7 }, 3, 1)];
        let v = lint_events(&orphan, false);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("no start"));
    }

    #[test]
    fn duplicated_delivery_yields_two_legal_ends() {
        let events = vec![
            ev(Kind::NetCommit, Ph::FlowStart { flow: 0 }, 0, 0),
            ev(Kind::NetCommit, Ph::FlowEnd { flow: 0 }, 2, 1),
            ev(Kind::NetCommit, Ph::FlowEnd { flow: 0 }, 4, 1),
        ];
        assert!(lint_events(&events, false).is_empty());
    }
}
