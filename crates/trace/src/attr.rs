//! Latency attribution: decomposing an action's wall time into segments.
//!
//! For every resolved action (a `Complete` span with category `action`)
//! the attributor collects the trace intervals that overlap the action's
//! window and partitions the window with a priority sweep:
//!
//! 1. **lock-wait** — `cc` spans for this action (queued behind a holder);
//! 2. **force-wait** — `force_wait` spans (staged, waiting for the group
//!    commit window);
//! 3. **network** — resolved `net` flow edges for this action (send →
//!    delivery);
//! 4. **device** — the shared log forces and, at device detail, individual
//!    storage operations (any action: in the serial simulation, device
//!    time inside the window is wall time of this action);
//! 5. **processing** — the residual.
//!
//! Each instant of the window is charged to exactly one segment (the
//! highest-priority category covering it), so the five segments sum to
//! the end-to-end latency *by construction* — the property experiment E16
//! asserts per action.

use crate::event::{Key, Ph, TraceEvent};
use crate::kind::Kind;
use std::collections::HashMap;

/// The per-action decomposition. All figures in simulated microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionLatency {
    /// The action.
    pub key: Key,
    /// Whether it committed.
    pub committed: bool,
    /// Window start (the action began).
    pub start: u64,
    /// End-to-end latency: begin → resolution.
    pub total_us: u64,
    /// Queued behind a lock holder.
    pub lock_wait_us: u64,
    /// Staged, waiting for the shared force.
    pub force_wait_us: u64,
    /// 2PC messages in flight.
    pub network_us: u64,
    /// Stable-storage device time.
    pub device_us: u64,
    /// Residual: coordinator/participant processing.
    pub processing_us: u64,
}

impl ActionLatency {
    /// Sum of the five segments; always equals [`ActionLatency::total_us`].
    pub fn segment_sum(&self) -> u64 {
        self.lock_wait_us
            + self.force_wait_us
            + self.network_us
            + self.device_us
            + self.processing_us
    }
}

const LOCK: usize = 0;
const FORCE: usize = 1;
const NET: usize = 2;
const DEVICE: usize = 3;
const SEGMENTS: usize = 4;

/// Clips `iv` to the window; `None` when they do not overlap.
fn clip(iv: (u64, u64), w: (u64, u64)) -> Option<(u64, u64)> {
    let lo = iv.0.max(w.0);
    let hi = iv.1.min(w.1);
    (lo < hi).then_some((lo, hi))
}

/// Attributes every resolved action in `events`. Results are in recording
/// order of the action-resolution spans (deterministic for a given trace).
pub fn attribute(events: &[TraceEvent]) -> Vec<ActionLatency> {
    // Resolve net flows once: flow id -> (start_ts, first end_ts, key).
    let mut flow_start: HashMap<u64, (u64, Option<Key>)> = HashMap::new();
    let mut flows: Vec<(u64, u64, Option<Key>)> = Vec::new();
    for e in events {
        if e.cat() != "net" {
            continue;
        }
        match e.ph {
            Ph::FlowStart { flow } => {
                flow_start.insert(flow, (e.ts, e.key));
            }
            Ph::FlowEnd { flow } => {
                if let Some(&(ts, key)) = flow_start.get(&flow) {
                    if ts <= e.ts {
                        flows.push((ts, e.ts, key));
                    }
                }
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    for action in events {
        let (Ph::Complete { dur }, Kind::Action) = (action.ph, action.kind) else {
            continue;
        };
        let Some(key) = action.key else { continue };
        let window = (action.ts, action.ts.saturating_add(dur));
        let committed = action.arg("committed").is_some_and(|v| v != 0);

        // Gather clipped intervals per segment.
        let mut ivs: [Vec<(u64, u64)>; SEGMENTS] = Default::default();
        for e in events {
            let Some(iv) = e.interval() else { continue };
            let seg = match (e.cat(), e.name()) {
                ("cc", _) if e.key == Some(key) => LOCK,
                ("force", "force_wait") if e.key == Some(key) => FORCE,
                ("force", "force") => DEVICE,
                ("device", _) => DEVICE,
                _ => continue,
            };
            if let Some(c) = clip(iv, window) {
                ivs[seg].push(c);
            }
        }
        for &(lo, hi, fkey) in &flows {
            if fkey == Some(key) {
                if let Some(c) = clip((lo, hi), window) {
                    ivs[NET].push(c);
                }
            }
        }

        // Priority sweep over the elementary slices of the window.
        let mut cuts: Vec<u64> = vec![window.0, window.1];
        for seg in &ivs {
            for &(lo, hi) in seg {
                cuts.push(lo);
                cuts.push(hi);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut segs = [0u64; SEGMENTS];
        let mut charged = 0u64;
        for pair in cuts.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let covered = (0..SEGMENTS).find(|&s| ivs[s].iter().any(|&(a, b)| a <= lo && hi <= b));
            if let Some(s) = covered {
                segs[s] += hi - lo;
                charged += hi - lo;
            }
        }

        let total_us = window.1 - window.0;
        out.push(ActionLatency {
            key,
            committed,
            start: window.0,
            total_us,
            lock_wait_us: segs[LOCK],
            force_wait_us: segs[FORCE],
            network_us: segs[NET],
            device_us: segs[DEVICE],
            processing_us: total_us - charged,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(kind: Kind, ts: u64, dur: u64, key: Option<Key>, args: [u64; 2]) -> TraceEvent {
        TraceEvent {
            kind,
            ph: Ph::Complete { dur },
            ts,
            gid: 0,
            key,
            args,
        }
    }

    fn flow(ph: Ph, ts: u64, key: Option<Key>) -> TraceEvent {
        TraceEvent {
            kind: Kind::NetPrepare,
            ph,
            ts,
            gid: 0,
            key,
            args: [0; 2],
        }
    }

    #[test]
    fn segments_partition_the_window() {
        let k = Key::new(0, 1);
        let events = vec![
            complete(Kind::Action, 0, 100, Some(k), [1, 0]),
            complete(Kind::LockWait, 10, 20, Some(k), [0; 2]),
            // Overlaps the lock wait: the higher-priority lock segment wins
            // the shared instants.
            complete(Kind::ForceWait, 25, 15, Some(k), [0; 2]),
            complete(Kind::Force, 60, 10, None, [0; 2]),
            flow(Ph::FlowStart { flow: 0 }, 80, Some(k)),
            flow(Ph::FlowEnd { flow: 0 }, 90, Some(k)),
        ];
        let out = attribute(&events);
        assert_eq!(out.len(), 1);
        let a = out[0];
        assert_eq!(a.total_us, 100);
        assert_eq!(a.lock_wait_us, 20);
        assert_eq!(a.force_wait_us, 10); // 25..40 minus the 25..30 overlap
        assert_eq!(a.device_us, 10);
        assert_eq!(a.network_us, 10);
        assert_eq!(a.processing_us, 50);
        assert_eq!(a.segment_sum(), a.total_us);
        assert!(a.committed);
    }

    #[test]
    fn spans_outside_the_window_are_clipped_away() {
        let k = Key::new(1, 4);
        let events = vec![
            complete(Kind::Action, 50, 10, Some(k), [0; 2]),
            complete(Kind::LockWait, 0, 40, Some(k), [0; 2]),
            complete(Kind::Force, 55, 100, None, [0; 2]),
        ];
        let a = attribute(&events)[0];
        assert_eq!(a.lock_wait_us, 0);
        assert_eq!(a.device_us, 5);
        assert_eq!(a.segment_sum(), 10);
        assert!(!a.committed);
    }

    #[test]
    fn other_actions_private_waits_are_not_charged() {
        let k = Key::new(0, 1);
        let other = Key::new(0, 2);
        let events = vec![
            complete(Kind::Action, 0, 50, Some(k), [0; 2]),
            complete(Kind::LockWait, 5, 30, Some(other), [0; 2]),
            complete(Kind::ForceWait, 10, 10, Some(other), [0; 2]),
        ];
        let a = attribute(&events)[0];
        assert_eq!(a.lock_wait_us, 0);
        assert_eq!(a.force_wait_us, 0);
        assert_eq!(a.processing_us, 50);
    }

    #[test]
    fn unresolved_flows_contribute_nothing() {
        let k = Key::new(0, 1);
        let events = vec![
            complete(Kind::Action, 0, 50, Some(k), [0; 2]),
            flow(Ph::FlowStart { flow: 3 }, 10, Some(k)),
        ];
        let a = attribute(&events)[0];
        assert_eq!(a.network_us, 0);
        assert_eq!(a.segment_sum(), 50);
    }
}
